//! The client side of the serve workloads: a shipped `offchip-serve`
//! process, a keep-alive HTTP/1.1 connection, and the open-loop
//! generator that times every request from its due time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use offchip_simcore::Rng;

use crate::check::digest_of;

/// A request sent later than this after its due time counts as late.
const LATE_NS: u64 = 1_000_000;

/// An HTTP/1.1 `POST` with a JSON body, as the client sends it.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A running `offchip-serve` process; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    /// Held open so a late stdout write never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts `offchip-serve` on an ephemeral port with `--jobs jobs` and
    /// an empty journal directory under `dir`, and waits until it
    /// listens. Its log goes to `dir/server.log`.
    pub fn start(bin_dir: &Path, dir: &Path, jobs: usize) -> Result<ServerProc, String> {
        let journal = dir.join("journal");
        std::fs::create_dir_all(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        let log = std::fs::File::create(dir.join("server.log"))
            .map_err(|e| format!("server log: {e}"))?;
        let bin = bin_dir.join("offchip-serve");
        let mut cmd = Command::new(&bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
            "--journal-dir",
        ])
        .arg(&journal)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
        crate::strip_program_env(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("offchip-serve listening on "))
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "offchip-serve did not report its address (got {line:?})"
                ))
            }
        }
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU seconds the server has used.
    pub fn cpu_s(&self) -> Result<f64, String> {
        crate::host::cpu_seconds(self.child.id()).map_err(|e| format!("server cpu: {e}"))
    }

    /// The server's peak resident set.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        crate::host::peak_rss_mib(self.child.id()).map_err(|e| format!("server rss: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// `X-Offchip-Cache` header value (empty when absent).
    pub cache: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects with Nagle off (responses are single writes; so are
    /// requests).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone()?),
            writer: s,
            line: String::new(),
        })
    }

    /// Sends one request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed before a response"));
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut len, mut cache) = (0usize, String::new());
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("x-offchip-cache") {
                    cache = value.trim().to_string();
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// When it is due, from the schedule's start.
    pub due: Duration,
    /// Index into the request catalogue.
    pub req: usize,
}

/// What happened to one planned request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Index into the request catalogue.
    pub req: usize,
    /// Due time, from the schedule's start.
    pub due: Duration,
    /// How late the generator sent it.
    pub late_ns: u64,
    /// From due time to the end of the response.
    pub latency_ns: u64,
    /// From send to the end of the response.
    pub rtt_ns: u64,
    /// End of the response, from the schedule's start.
    pub done: Duration,
    /// Status 200 with a complete body.
    pub ok: bool,
    /// Served from the warm cache (`X-Offchip-Cache: hit`).
    pub hit: bool,
    /// Filled on demand (`X-Offchip-Cache: miss`).
    pub miss: bool,
    /// Digest of the body.
    pub body: u64,
}

/// Waits until `due`: sleeps while more than a millisecond is left, then
/// yields in a loop, so the generator's CPU never goes idle right before
/// a send (waking an idle virtual CPU can take milliseconds on a busy
/// host, which would show up as generator lateness).
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one schedule per connection, all against `addr`, from a common
/// start. A connection's next request waits for its previous response,
/// and every request is timed from its due time: a stall on a
/// connection is charged to every request that queued behind it.
/// Returns the common start instant and every outcome.
pub fn open_loop(
    addr: SocketAddr,
    plans: &[Vec<Planned>],
    requests: &[Vec<u8>],
) -> (Instant, Vec<Outcome>) {
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(move || drive(addr, plan, requests, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (start, per_conn.into_iter().flatten().collect())
}

fn drive(addr: SocketAddr, plan: &[Planned], requests: &[Vec<u8>], start: Instant) -> Vec<Outcome> {
    let mut conn = Conn::connect(addr).ok();
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        let due = start + p.due;
        wait_until(due);
        let sent = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.exchange(&requests[p.req]).ok(),
            None => None,
        };
        let done = Instant::now();
        if reply.is_none() {
            // A broken connection fails this request; the next one gets
            // a fresh connection.
            conn = Conn::connect(addr).ok();
        }
        let ok = reply.as_ref().is_some_and(|r| r.status == 200);
        out.push(Outcome {
            req: p.req,
            due: p.due,
            late_ns: (sent - due).as_nanos() as u64,
            latency_ns: (done - due).as_nanos() as u64,
            rtt_ns: (done - sent).as_nanos() as u64,
            done: done - start,
            ok,
            hit: reply.as_ref().is_some_and(|r| r.cache == "hit"),
            miss: reply.as_ref().is_some_and(|r| r.cache == "miss"),
            body: reply.as_ref().map_or(0, |r| digest_of(&r.body)),
        });
    }
    out
}

/// A Poisson schedule at `rate` per second over `span`, each request's
/// catalogue index drawn by `pick`.
pub fn poisson_plan(
    rng: &mut Rng,
    rate: f64,
    span: Duration,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(rate);
        if t >= span.as_secs_f64() {
            return plan;
        }
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            req: pick(rng),
        });
    }
}

/// Lateness figures of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct GenStats {
    /// Share of requests sent more than 1 ms after their due time.
    pub late_frac: f64,
    /// Largest lateness, ms.
    pub late_max_ms: f64,
    /// Requests planned per second of schedule.
    pub offered_rps: f64,
}

/// Lateness of `outcomes` over a schedule `span` long.
pub fn gen_stats(outcomes: &[Outcome], span: Duration) -> GenStats {
    let late = outcomes.iter().filter(|o| o.late_ns > LATE_NS).count();
    GenStats {
        late_frac: late as f64 / outcomes.len().max(1) as f64,
        late_max_ms: outcomes.iter().map(|o| o.late_ns).max().unwrap_or(0) as f64 / 1e6,
        offered_rps: outcomes.len() as f64 / span.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection HTTP server that answers "ok" to every request
    /// and stalls once, before answering request `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            sock.set_nodelay(true).unwrap();
            let mut r = BufReader::new(sock.try_clone().unwrap());
            let mut w = sock;
            let mut served = 0;
            let mut line = String::new();
            loop {
                let mut len = 0usize;
                loop {
                    line.clear();
                    if r.read_line(&mut line).unwrap() == 0 {
                        return served;
                    }
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0; len];
                r.read_exact(&mut body).unwrap();
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
                served += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        const N: usize = 300;
        const STALL_AT: usize = 20;
        const STALL_MS: usize = 200;
        let (addr, server) = stalling_server(STALL_AT, Duration::from_millis(STALL_MS as u64));
        // One request due every millisecond.
        let plan: Vec<Planned> = (0..N)
            .map(|i| Planned {
                due: Duration::from_millis(i as u64),
                req: 0,
            })
            .collect();
        let (_, out) = open_loop(addr, &[plan], &[post("/x", "{}")]);
        assert_eq!(server.join().unwrap(), N);
        assert!(out.iter().all(|o| o.ok));

        let ms = |ns: u64| ns as f64 / 1e6;
        let stall = STALL_MS as f64;
        // The stalled request took the whole stall.
        assert!(ms(out[STALL_AT].latency_ns) >= stall);
        // The stall ends no earlier than STALL_AT + STALL_MS ms into the
        // schedule, and request i (due at i ms) cannot be sent before it
        // ends: it is charged the rest of the stall even though its own
        // round trip is short. Timing from send would hide all of it.
        let owed = |i: usize| (STALL_AT + STALL_MS - i) as f64;
        for (i, o) in out
            .iter()
            .enumerate()
            .take(STALL_AT + STALL_MS)
            .skip(STALL_AT + 1)
        {
            assert!(
                ms(o.late_ns) >= owed(i) - 0.5,
                "request {i} late {} ms",
                ms(o.late_ns)
            );
            assert!(
                ms(o.latency_ns) >= owed(i),
                "request {i} latency {} ms",
                ms(o.latency_ns)
            );
        }
        let next = &out[STALL_AT + 1];
        assert!(next.rtt_ns < next.latency_ns / 2);
        let g = gen_stats(&out, Duration::from_millis(N as u64));
        assert!(g.late_max_ms >= stall - 1.5);
        assert!(g.late_frac >= (STALL_MS - 1) as f64 / N as f64);
    }

    #[test]
    fn poisson_plans_follow_the_seed_and_rate() {
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            poisson_plan(&mut rng, 5000.0, Duration::from_secs(2), |r| {
                r.next_below(7) as usize
            })
        };
        let (a, b) = (plan(3), plan(3));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.req == y.req));
        assert!((9_500..10_500).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert_ne!(plan(4).len(), 0);
    }
}
