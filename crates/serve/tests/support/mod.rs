//! Helpers shared by the `offchip-serve` integration tests: a scratch
//! journal directory, the test service, a run-and-drain wrapper for a
//! bound server, one HTTP response reader and one keep-alive load loop
//! that tallies every exchange and keeps the raw latency of each
//! successful one.
//!
//! Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use offchip_serve::http::Request;
use offchip_serve::{PredictService, Server, ServiceConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fill-campaign seeds of [`test_service`].
pub const SEEDS: [u64; 2] = [1, 2];

/// The `/predict` body every load client sends.
pub const PREDICT_BODY: &str = r#"{"machine":"uma","program":"CG.S","n":8}"#;

/// A scratch journal directory, clean at entry. The tag names the test;
/// the pid keeps concurrent test binaries apart.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offchip-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A service that journals its fills under `dir`, over [`SEEDS`] on two
/// simulation jobs.
pub fn test_service(dir: &Path) -> PredictService {
    PredictService::new(ServiceConfig {
        journal_dir: Some(dir.to_path_buf()),
        seeds: SEEDS.to_vec(),
        jobs: 2,
        ..ServiceConfig::default()
    })
}

/// Sets a server's shutdown flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs `case` against `server` while its accept loop runs, then drains
/// the server and returns what `case` returned. `case` gets the server's
/// address and its shutdown flag. The drain also runs when `case`
/// panics, so a failed assertion fails the test instead of leaving it
/// waiting on the server forever.
pub fn serve<R>(server: &Server, case: impl FnOnce(&str, &AtomicBool) -> R) -> R {
    let addr = server.local_addr().to_string();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&shutdown));
        let stop = StopOnDrop(&shutdown);
        let out = case(&addr, &shutdown);
        drop(stop);
        run.join().unwrap();
        out
    })
}

/// An untraced keep-alive `POST` of `body` to `path`, for driving a
/// service without a socket.
pub fn post_request(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
        close: false,
        deadline_ms: None,
        trace: None,
    }
}

/// Status, headers and body of one parsed HTTP response.
pub type HttpReply = (u16, Vec<(String, String)>, Vec<u8>);

/// Reads one HTTP/1.1 response off the wire.
pub fn read_response(r: &mut BufReader<TcpStream>) -> std::io::Result<HttpReply> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "closed before status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidData, format!("bad status line: {line:?}"))
        })?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "closed mid-headers",
            ));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim().to_string();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name.to_string(), value));
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok((status, headers, body))
}

/// The value of header `name` (case-insensitive), if present.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Whether `body` is the service's JSON error envelope, `{"error":"..."}`.
fn is_error_envelope(body: &[u8]) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|s| offchip_json::Json::parse(s.trim()).ok())
        .is_some_and(|doc| doc.get("error").and_then(|j| j.as_str()).is_some())
}

/// A read or write that gave up waiting.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// How the exchanges of one load ended.
#[derive(Default)]
pub struct Tally {
    /// 200s whose body equals the reference (and, traced, that echoed
    /// their own id).
    pub ok: usize,
    /// Round-trip time of every untraced `ok` exchange in µs, write to
    /// last byte.
    pub latencies_us: Vec<u64>,
    /// The same for traced `ok` exchanges.
    pub traced_us: Vec<u64>,
    /// 503 JSON error envelopes: the server shed the connection.
    pub shed: usize,
    /// Other non-200 JSON error envelopes.
    pub refused: usize,
    /// Exchanges on a connection that failed, was reset or closed.
    pub dropped: usize,
    /// Exchanges that outlived the client timeout: the server hung.
    pub hung: usize,
    /// 200s whose body differs from the reference.
    pub torn: usize,
    /// Non-200s that are not a JSON error envelope.
    pub malformed: usize,
    /// Traced 200s that did not echo the id they were sent.
    pub unechoed: usize,
}

/// Counts only: a failed assertion should not print every latency.
impl std::fmt::Debug for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tally")
            .field("ok", &self.ok)
            .field("untraced_samples", &self.latencies_us.len())
            .field("traced_samples", &self.traced_us.len())
            .field("shed", &self.shed)
            .field("refused", &self.refused)
            .field("dropped", &self.dropped)
            .field("hung", &self.hung)
            .field("torn", &self.torn)
            .field("malformed", &self.malformed)
            .field("unechoed", &self.unechoed)
            .finish()
    }
}

impl Tally {
    /// Every exchange was an `ok` 200.
    pub fn all_ok(&self) -> bool {
        let failed = self.shed
            + self.refused
            + self.dropped
            + self.hung
            + self.torn
            + self.malformed
            + self.unechoed;
        self.ok > 0 && failed == 0
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.latencies_us.extend(other.latencies_us);
        self.traced_us.extend(other.traced_us);
        self.shed += other.shed;
        self.refused += other.refused;
        self.dropped += other.dropped;
        self.hung += other.hung;
        self.torn += other.torn;
        self.malformed += other.malformed;
        self.unechoed += other.unechoed;
    }
}

/// A keep-alive load on `/predict`: `connections` clients each send
/// [`PREDICT_BODY`] back to back, one request in flight per client, until
/// `until` passes or they have made `requests` exchanges. A client
/// reconnects after any non-200 (the server closes those connections) or
/// failed exchange, and stops when a connect fails.
pub struct Load<'a> {
    /// Server address.
    pub addr: &'a str,
    /// The warm body every 200 must equal byte for byte.
    pub reference: &'a [u8],
    /// Concurrent clients.
    pub connections: usize,
    /// Exchanges per client (`usize::MAX` for a timed load).
    pub requests: usize,
    /// When clients stop starting exchanges.
    pub until: Instant,
    /// Socket timeout; an exchange that outlives it counts as hung.
    pub timeout: Duration,
    /// Send every second request with its own `X-Offchip-Trace` id and
    /// require the response to echo it. Traced and untraced exchanges
    /// then share connections and moments; their latencies are kept
    /// apart.
    pub traced: bool,
}

impl Load<'_> {
    /// Runs the clients to completion and merges their tallies.
    pub fn run(&self) -> Tally {
        std::thread::scope(|s| {
            let clients: Vec<_> = (1..=self.connections as u64)
                .map(|client| s.spawn(move || self.client(client)))
                .collect();
            let mut total = Tally::default();
            for c in clients {
                total.merge(c.join().unwrap());
            }
            total
        })
    }

    fn connect(&self) -> std::io::Result<BufReader<TcpStream>> {
        let s = TcpStream::connect(self.addr)?;
        s.set_read_timeout(Some(self.timeout))?;
        s.set_write_timeout(Some(self.timeout))?;
        s.set_nodelay(true)?;
        Ok(BufReader::new(s))
    }

    fn client(&self, client: u64) -> Tally {
        let mut t = Tally::default();
        let mut conn: Option<BufReader<TcpStream>> = None;
        let mut seq = 0u64;
        while seq < self.requests as u64 && Instant::now() < self.until {
            seq += 1;
            let reader = match conn.as_mut() {
                Some(reader) => reader,
                None => match self.connect() {
                    Ok(reader) => conn.insert(reader),
                    Err(_) => {
                        t.dropped += 1;
                        break;
                    }
                },
            };
            // Trace ids: client number in the high bits, request sequence
            // in the low 24.
            let traced = self.traced && seq.is_multiple_of(2);
            let trace = traced.then_some(client << 32 | (seq & 0xFF_FFFF));
            let trace_header = trace
                .map(|id| format!("X-Offchip-Trace: {id:016x}\r\n"))
                .unwrap_or_default();
            let request = format!(
                "POST /predict HTTP/1.1\r\nHost: load\r\n{trace_header}Content-Length: {}\r\n\r\n\
                 {PREDICT_BODY}",
                PREDICT_BODY.len()
            );
            let t0 = Instant::now();
            let reply = reader
                .get_mut()
                .write_all(request.as_bytes())
                .and_then(|()| read_response(reader));
            let elapsed_us = t0.elapsed().as_micros() as u64;
            match reply {
                Ok((200, headers, body)) => {
                    if body != self.reference {
                        eprintln!("torn 200 body: {}", String::from_utf8_lossy(&body));
                        t.torn += 1;
                    } else if traced
                        && header(&headers, "X-Offchip-Trace")
                            .and_then(|v| u64::from_str_radix(v, 16).ok())
                            != trace
                    {
                        t.unechoed += 1;
                    } else if traced {
                        t.ok += 1;
                        t.traced_us.push(elapsed_us);
                    } else {
                        t.ok += 1;
                        t.latencies_us.push(elapsed_us);
                    }
                    continue;
                }
                Ok((status, _, body)) if is_error_envelope(&body) => {
                    if status == 503 {
                        t.shed += 1;
                    } else {
                        t.refused += 1;
                    }
                }
                Ok((status, _, body)) => {
                    eprintln!(
                        "malformed {status} body: {}",
                        String::from_utf8_lossy(&body)
                    );
                    t.malformed += 1;
                }
                Err(e) if is_timeout(&e) => t.hung += 1,
                Err(_) => t.dropped += 1,
            }
            conn = None;
        }
        t
    }
}
