//! A dependency-free HTTP/1.1 subset: just enough to parse the service's
//! small JSON POSTs and write JSON responses.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (the default in 1.1) and `Connection: close`. Not
//! supported, deliberately: chunked transfer encoding, continuation
//! headers, TLS, HTTP/2. The parser enforces hard caps on request-line,
//! header and body sizes so a misbehaving client cannot balloon memory,
//! and a per-request *read budget* so a client that dribbles a request
//! byte-by-byte (slow-loris) gets a typed [`HttpError::Timeout`] — and
//! therefore a clean `408` — instead of pinning a worker. The budget
//! clock starts at the first byte of a request, so an idle keep-alive
//! connection still closes silently on its socket timeout.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Largest accepted request body. The service's requests are tiny JSON
/// objects; anything near this cap is abuse, not traffic.
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted request line or single header line.
pub const MAX_LINE: usize = 8 << 10;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, path and body (headers are digested into
/// the fields the service cares about).
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent, query string included.
    pub path: String,
    /// Decoded body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or an HTTP/1.0 request without
    /// `keep-alive`).
    pub close: bool,
    /// Client-requested fill deadline in milliseconds
    /// (`X-Offchip-Deadline-Ms`), clamped by the service.
    pub deadline_ms: Option<u64>,
    /// Inbound trace id (`X-Offchip-Trace`, up to 16 hex digits, nonzero).
    /// When present the server honours it instead of deriving one, and
    /// buffers the request's span tree for `/debug/trace/<id>`.
    pub trace: Option<u64>,
}

/// Why a request could not be parsed. `BadRequest` maps to a 400 +
/// close; `TooLarge` to 413; `Timeout` to 408 (bytes of a request had
/// arrived, then the client stalled past the read budget or socket
/// timeout); `Io` ends the connection silently (idle close or a hard
/// socket error before any request byte).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers.
    BadRequest(&'static str),
    /// Request line, headers or body beyond the caps.
    TooLarge(&'static str),
    /// The client went quiet mid-request: socket timeout or read budget
    /// exhausted after at least one byte of the request arrived.
    Timeout(&'static str),
    /// Socket error, or a timeout on a connection with no request in
    /// flight.
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one line (CRLF or bare LF terminated) with a length cap,
/// scanning the reader's buffer directly so a stalled client is caught
/// *mid-line*. `started` is the instant the request's first byte
/// arrived; this call sets it when it observes that byte. Returns
/// `Ok(None)` on clean EOF before any byte of the line.
fn read_line<R: BufRead>(
    r: &mut R,
    started: &mut Option<Instant>,
    budget: Duration,
) -> Result<Option<String>, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if let Some(t0) = *started {
            if t0.elapsed() > budget {
                return Err(HttpError::Timeout("request read budget exhausted"));
            }
        }
        let available = match r.fill_buf() {
            Ok(a) => a,
            Err(e) if is_timeout(&e) => {
                if started.is_some() || !buf.is_empty() {
                    return Err(HttpError::Timeout("socket timeout mid-request"));
                }
                // Idle keep-alive connection: close silently.
                return Err(HttpError::Io(e));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            // EOF. A partial line is returned as-is (mirrors
            // `read_until`); the request parser rejects it.
            if buf.is_empty() {
                return Ok(None);
            }
            break;
        }
        if started.is_none() {
            *started = Some(Instant::now());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..=pos]);
                r.consume(pos + 1);
                break;
            }
            None => {
                let len = available.len();
                buf.extend_from_slice(available);
                r.consume(len);
                if buf.len() > MAX_LINE {
                    return Err(HttpError::TooLarge("header line"));
                }
            }
        }
    }
    if buf.len() > MAX_LINE {
        return Err(HttpError::TooLarge("header line"));
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 header"))
}

/// Fills `body` from the reader under the request read budget.
fn read_body<R: BufRead>(
    r: &mut R,
    body: &mut [u8],
    started: &Option<Instant>,
    budget: Duration,
) -> Result<(), HttpError> {
    let mut filled = 0usize;
    while filled < body.len() {
        if let Some(t0) = *started {
            if t0.elapsed() > budget {
                return Err(HttpError::Timeout("request read budget exhausted"));
            }
        }
        match r.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside body",
                )))
            }
            Ok(n) => filled += n,
            // The request line already arrived, so a quiet socket here
            // is a stalled client, not an idle connection.
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Timeout("socket timeout mid-request"))
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(())
}

/// Parses one request off the connection. `Ok(None)` means the client
/// closed the connection cleanly between requests (normal keep-alive
/// shutdown, not an error). `budget` bounds the wall-clock from the
/// request's first byte to its last.
pub fn read_request(r: &mut impl BufRead, budget: Duration) -> Result<Option<Request>, HttpError> {
    let mut started: Option<Instant> = None;
    let line = match read_line(r, &mut started, budget)? {
        Some(l) if !l.is_empty() => l,
        // Tolerate a stray blank line between pipelined requests.
        Some(_) => match read_line(r, &mut started, budget)? {
            Some(l) if !l.is_empty() => l,
            _ => return Ok(None),
        },
        None => return Ok(None),
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("empty request line"))?;
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    let http10 = version == "HTTP/1.0";

    let mut content_length = 0usize;
    let mut close = http10;
    let mut deadline_ms = None;
    let mut trace = None;
    let mut n_headers = 0usize;
    loop {
        let header = match read_line(r, &mut started, budget)? {
            Some(h) => h,
            None => return Err(HttpError::BadRequest("EOF inside headers")),
        };
        if header.is_empty() {
            break;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let (name, value) = header
            .split_once(':')
            .ok_or(HttpError::BadRequest("header without colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                parse_decimal(value).ok_or(HttpError::BadRequest("bad Content-Length"))?;
            if content_length > MAX_BODY {
                return Err(HttpError::TooLarge("body"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::BadRequest("chunked bodies unsupported"));
        } else if name.eq_ignore_ascii_case("x-offchip-deadline-ms") {
            deadline_ms = Some(
                parse_decimal(value).ok_or(HttpError::BadRequest("bad X-Offchip-Deadline-Ms"))?,
            );
        } else if name.eq_ignore_ascii_case("x-offchip-trace") {
            // 0 means "no trace" internally, so reject it along with
            // anything that is not a u64 hex id.
            let id = parse_hex_id(value)
                .filter(|&id| id != 0)
                .ok_or(HttpError::BadRequest("bad X-Offchip-Trace"))?;
            trace = Some(id);
        }
    }

    let mut body = vec![0u8; content_length];
    read_body(r, &mut body, &started, budget)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        close,
        deadline_ms,
        trace,
    }))
}

/// A decimal number of ASCII digits only: `str::parse` would also take a
/// leading `+`.
fn parse_decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// A trace id as sent in `X-Offchip-Trace` and `/debug/trace/<id>`: 1 to
/// 16 hex digits and nothing else (`from_str_radix` would also take a
/// leading `+`, and the echoed id would differ from the one sent).
pub(crate) fn parse_hex_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// A response ready to serialise: status, extra headers, body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`
    /// (name, value); the service uses this for `X-Offchip-Cache`,
    /// `X-Offchip-Tier`, `X-Offchip-Shed` and `Retry-After`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Content type (defaults to `application/json`).
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response; callers pass an already-serialised body ending
    /// in `\n` so cold and warm responses stay byte-identical.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (metrics CSV, health checks).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = offchip_json::json_obj! { "error" => message };
        Response::json(status, format!("{}\n", body.to_compact_string()))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }

    /// Serialises the response onto the connection.
    ///
    /// The whole response is assembled in one buffer and written with a
    /// single `write_all`: head and body split across separate socket
    /// writes costs a Nagle/delayed-ACK round-trip (~40 ms) per
    /// response on keep-alive connections. The single buffered write is
    /// also what the chaos-net oracle leans on: a response is either
    /// absent, a clean prefix (injected reset mid-write), or whole —
    /// never interleaved with another response.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(out, "Content-Type: {}\r\n", self.content_type)?;
        write!(out, "Content-Length: {}\r\n", self.body.len())?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        if close {
            write!(out, "Connection: close\r\n")?;
        }
        write!(out, "\r\n")?;
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Generous test budget: in-memory readers never stall.
    const BUDGET: Duration = Duration::from_secs(5);

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), BUDGET)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn connection_close_and_http10_are_detected() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.close, "HTTP/1.0 without keep-alive closes");
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse(&raw) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn deadline_header_is_parsed() {
        let req = parse("POST / HTTP/1.1\r\nX-Offchip-Deadline-Ms: 250\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        match parse("POST / HTTP/1.1\r\nX-Offchip-Deadline-Ms: soon\r\n\r\n") {
            Err(HttpError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn trace_header_is_parsed_and_validated() {
        let req = parse("POST / HTTP/1.1\r\nX-Offchip-Trace: 00000000cafe0001\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.trace, Some(0xcafe_0001));
        let req = parse("POST / HTTP/1.1\r\nx-offchip-trace: aB3\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.trace, Some(0xab3));
        for bad in ["zz", "0", "", "11112222333344445", "+cafe", "-1", "ca fe"] {
            match parse(&format!(
                "POST / HTTP/1.1\r\nX-Offchip-Trace: {bad}\r\n\r\n"
            )) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("expected BadRequest for {bad:?}, got {other:?}"),
            }
        }
        // Numeric headers take digits only, not a sign.
        for bad in ["Content-Length: +5", "X-Offchip-Deadline-Ms: +250"] {
            match parse(&format!("POST / HTTP/1.1\r\n{bad}\r\n\r\nhello")) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("expected BadRequest for {bad:?}, got {other:?}"),
            }
        }
        // The same rule resolves `/debug/trace/<id>`.
        assert_eq!(parse_hex_id("+cafe"), None);
        assert_eq!(parse_hex_id("00000000cafe0001"), Some(0xcafe_0001));
        assert_eq!(
            parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap().trace,
            None
        );
    }

    #[test]
    fn hostile_requests_parse_or_fail_typed() {
        // Every single-byte substitution and truncation of a valid
        // keep-alive POST, plus seeded garbage, must come back as `Ok` or
        // a typed `HttpError`: never a panic, never a hang.
        let valid = "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\
                     X-Offchip-Deadline-Ms: 250\r\nX-Offchip-Trace: 00000000cafe0001\r\n\r\n\
                     {\"n\":8,\"m\":\"u\"}"
            .as_bytes();
        let read = |bytes: &[u8]| {
            let got = read_request(&mut BufReader::new(bytes), BUDGET);
            if let Ok(Some(req)) = &got {
                assert!(req.body.len() <= MAX_BODY);
                assert_ne!(req.trace, Some(0), "0 is never a trace id");
            }
            got
        };
        let req = read(valid).unwrap().unwrap();
        assert_eq!(
            (req.body.len(), req.deadline_ms, req.trace),
            (15, Some(250), Some(0xcafe_0001))
        );
        assert!(!req.close);
        let mut alphabet: Vec<u8> = (b' '..=b'~').collect();
        alphabet.extend([b'\r', b'\n', 0, 0xff]);
        for i in 0..valid.len() {
            for &b in &alphabet {
                let mut bytes = valid.to_vec();
                bytes[i] = b;
                let _ = read(&bytes);
            }
        }
        for cut in 0..valid.len() {
            let _ = read(&valid[..cut]);
        }
        // Three bytes in four come from the valid request, so the parser
        // gets past its first checks.
        let mut x: u64 = 0x0BAD_5EED;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let len = (next() % (2 * valid.len() as u64)) as usize;
            let junk: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => next() as u8,
                    _ => valid[(next() % valid.len() as u64) as usize],
                })
                .collect();
            let _ = read(&junk);
        }
    }

    #[test]
    fn pipelined_second_request_in_the_same_buffer_parses() {
        // Two requests land in one TCP segment; the parser must consume
        // exactly one per call and leave the second intact.
        let raw = "POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                   GET /metrics HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let first = read_request(&mut r, BUDGET).unwrap().unwrap();
        assert_eq!(
            (first.method.as_str(), first.body.as_slice()),
            ("POST", &b"hi"[..])
        );
        let second = read_request(&mut r, BUDGET).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/metrics")
        );
        assert!(
            read_request(&mut r, BUDGET).unwrap().is_none(),
            "then clean EOF"
        );
    }

    #[test]
    fn oversized_header_set_is_too_large() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-Pad-{i}: x\r\n"));
        }
        raw.push_str("\r\n");
        match parse(&raw) {
            Err(HttpError::TooLarge(what)) => assert_eq!(what, "too many headers"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let long_line = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "y".repeat(MAX_LINE));
        match parse(&long_line) {
            Err(HttpError::TooLarge(what)) => assert_eq!(what, "header line"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_is_a_timeout_once_bytes_arrived() {
        // A reader that yields the request one byte at a time without
        // ever blocking; with a zero budget the clock expires after the
        // first byte and the parser must report Timeout, not Io.
        struct Dribble<'a>(&'a [u8], usize);
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        let mut r = BufReader::with_capacity(1, Dribble(raw, 0));
        match read_request(&mut r, Duration::ZERO) {
            Err(HttpError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn response_serialises_with_extra_headers() {
        let mut out = Vec::new();
        Response::json(200, "{}\n")
            .with_header("X-Offchip-Cache", "hit")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Offchip-Cache: hit\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    #[test]
    fn new_status_reasons_are_spelled() {
        let mut out = Vec::new();
        Response::error(202, "pending")
            .write_to(&mut out, false)
            .unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 202 Accepted\r\n"));
        let mut out = Vec::new();
        Response::error(408, "slow")
            .write_to(&mut out, true)
            .unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }
}
