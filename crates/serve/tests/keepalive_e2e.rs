//! Socket-level connection edge cases: pipelined requests in one
//! segment, byte-by-byte clients that stay under the request budget,
//! stalled clients that blow it (408), oversized headers (413), and
//! fresh connections to an idle server, which no accept poll delays.
//!
//! These complement the in-crate `http.rs` unit tests by driving the
//! full accept-queue-worker path over real TCP connections.

mod support;

use offchip_serve::{Server, ServerOptions};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use support::{read_response, scratch, serve, test_service};

/// Runs `case` against a freshly bound server, then drains it.
fn with_server(tag: &str, opts: ServerOptions, case: impl FnOnce(&str, &Server)) {
    let dir = scratch(tag);
    let server = Server::bind(&opts, test_service(&dir)).unwrap();
    serve(&server, |addr, _| case(addr, &server));
    let _ = std::fs::remove_dir_all(&dir);
}

fn default_opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerOptions::default()
    }
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    with_server("pipeline", default_opts(), |addr, _| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Both requests land in the worker's buffer before it writes
        // the first response; it must answer them in order on the same
        // connection, closing only after the second.
        conn.write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut reader = BufReader::new(conn);
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"ok\n");
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(
            String::from_utf8_lossy(&body).contains("serve.requests.healthz"),
            "metrics CSV mentions the healthz counter"
        );
        assert!(headers
            .iter()
            .any(|(n, v)| n.eq_ignore_ascii_case("connection") && v == "close"));
        // The server honours Connection: close.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    });
}

#[test]
fn a_slow_but_progressing_request_is_served_within_the_budget() {
    with_server("dribble", default_opts(), |addr, _| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One byte every few milliseconds: never idle long enough for
        // the socket timeout, always progressing, well under the 10 s
        // request budget.
        for b in b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" {
            conn.write_all(std::slice::from_ref(b)).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(conn);
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"ok\n");
    });
}

#[test]
fn a_stalled_request_gets_408_not_a_worker_hang() {
    let opts = ServerOptions {
        header_deadline: Duration::from_millis(300),
        ..default_opts()
    };
    with_server("slowloris", opts, |addr, server| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // A request that starts and then stalls: distinct from an idle
        // keep-alive connection, which closes silently.
        conn.write_all(b"POST /predict HTTP/1.1\r\nHost: slo")
            .unwrap();
        let mut reader = BufReader::new(conn);
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
        let doc = offchip_json::Json::parse(std::str::from_utf8(&body).unwrap().trim())
            .expect("408 body is JSON");
        assert!(doc.get("error").and_then(|j| j.as_str()).is_some());
        assert_eq!(server.metrics().counter("serve.request_timeout"), 1);
    });
}

#[test]
fn oversized_header_block_is_rejected_with_413() {
    with_server("oversized", default_opts(), |addr, _| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One header line past MAX_LINE (8 KiB). The server may respond
        // and close before the client finishes writing, so write errors
        // are expected, not failures.
        let request = format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(9 * 1024)
        );
        let _ = conn.write_all(request.as_bytes());
        let _ = conn.flush();
        let mut reader = BufReader::new(conn);
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));
        let doc = offchip_json::Json::parse(std::str::from_utf8(&body).unwrap().trim())
            .expect("413 body is JSON");
        assert!(doc.get("error").and_then(|j| j.as_str()).is_some());
    });
}

#[test]
fn fresh_connections_to_an_idle_server_are_served_at_once() {
    // The accept loop blocks in `accept`, so a connection to an idle
    // server waits for no poll interval. (A loop that slept 20 ms each
    // time `accept` would block put up to 20 ms in front of every fresh
    // connection, and about 10 ms at this spacing.)
    with_server("accept", default_opts(), |addr, _| {
        let mut waits: Vec<Duration> = (0..20)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(50));
                let t0 = Instant::now();
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                    .unwrap();
                let (status, _, body) = read_response(&mut BufReader::new(conn)).unwrap();
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                t0.elapsed()
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median {median:?} over {waits:?}"
        );
    });
}
