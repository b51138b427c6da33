//! The service under sustained load (DESIGN.md §12, §14, §15): one warm
//! server with 4 workers, max-queue 4, max-conns 8 and a 2 s header
//! deadline, driven by keep-alive `/predict` clients in two phases.
//!
//! * **Baseline and traced.** 4 connections, every second request with
//!   its own `X-Offchip-Trace` id. Every exchange is a 200 byte-identical
//!   to the untraced warm reference, with no I/O error, shed or other
//!   status; every traced response echoes its id; and traced p99 ≤
//!   max(1.05 × base p99, base p99 + 500 µs).
//! * **Overload.** 4× the connections plus 2 slow-loris clients: the
//!   server sheds the excess with JSON 503s, every non-200 is a JSON error
//!   envelope, no 200 body drifts, admitted p99 ≤ max(5 × base p99,
//!   2 ms), and every slow-loris client gets a status line or a close
//!   within 15 s.
//!
//! Every percentile is the nearest-rank value over all raw latencies of
//! its population, so each gate reads data finer than its tolerance.
//! Traced and untraced requests interleave on the same connections: a
//! closed loop of 4 connections keeps 2 cores saturated, and a phase of
//! traced requests alone would read how much CPU tracing adds to the
//! whole load, amplified by the run queue, rather than what one traced
//! request pays over an untraced one. The test has a binary of its own,
//! so no sibling test competes for the cores while it measures.

mod support;

use offchip_serve::{AdmissionConfig, Server, ServerOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use support::{is_timeout, post_request, scratch, serve, test_service, Load, PREDICT_BODY};

const CONNECTIONS: usize = 4;
/// Load time per phase.
const PHASE: Duration = Duration::from_secs(2);
/// Client socket timeout: a request queued behind keep-alive peers waits
/// out the phase, so this must exceed [`PHASE`].
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Overload multiplies the baseline connection count by this.
const OVERLOAD_FACTOR: usize = 4;
const SLOWLORIS_CLIENTS: usize = 2;
/// How long a slow-loris client waits for the server's verdict: well past
/// the 2 s header deadline plus the phase it may queue behind.
const SLOWLORIS_GRACE: Duration = Duration::from_secs(15);
/// Traced p99 may exceed base p99 by this fraction...
const TRACED_P99_RATIO: f64 = 1.05;
/// ...or by this absolute slack, whichever is larger: 5 % of a
/// sub-millisecond p99 is scheduler jitter.
const TRACED_P99_SLACK_US: u64 = 500;
/// Admitted p99 under overload may be this multiple of base p99...
const OVERLOAD_P99_RATIO: u64 = 5;
/// ...floored here, below which a ratio is timer noise.
const OVERLOAD_P99_FLOOR_US: u64 = 2_000;

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it.
fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How the server disposed of one slow-loris client.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// A response began; its status code (0 if the line was garbled).
    Status(u16),
    /// The server closed or refused the connection.
    Closed,
    /// Nothing within [`SLOWLORIS_GRACE`].
    Hung,
}

/// A slow-loris client: starts a request, then dribbles one header byte
/// per 100 ms without ever finishing it. The bytes keep the socket
/// timeout from firing, so only the server's per-request read budget
/// (the header deadline) can end the exchange.
fn slowloris(addr: &str) -> Verdict {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return Verdict::Closed;
    };
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let give_up = Instant::now() + SLOWLORIS_GRACE;
    if conn
        .write_all(b"POST /predict HTTP/1.1\r\nHost: slo")
        .is_err()
    {
        return Verdict::Closed;
    }
    let mut buf = [0u8; 512];
    while Instant::now() < give_up {
        match conn.read(&mut buf) {
            Ok(0) => return Verdict::Closed,
            Ok(got) => {
                let head = String::from_utf8_lossy(&buf[..got]);
                let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                return Verdict::Status(status.unwrap_or(0));
            }
            Err(e) if is_timeout(&e) => {
                if conn.write_all(b"w").is_err() {
                    return Verdict::Closed;
                }
            }
            Err(_) => return Verdict::Closed,
        }
    }
    Verdict::Hung
}

#[test]
fn warm_traced_and_overloaded_load_hold_their_gates() {
    let dir = scratch("load");
    // Fill the model directly against the service: the server below
    // starts warm, and this body is the reference every 200 must equal.
    let svc = test_service(&dir);
    let warm = svc.handle(&post_request("/predict", PREDICT_BODY));
    assert_eq!(warm.status, 200, "{}", String::from_utf8_lossy(&warm.body));
    let reference = warm.body;

    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: CONNECTIONS,
        admission: AdmissionConfig {
            max_queue: 4,
            max_conns: 8,
        },
        header_deadline: Duration::from_secs(2),
        ..ServerOptions::default()
    };
    let server = Server::bind(&opts, svc).unwrap();
    serve(&server, |addr, _| {
        let load = |connections, traced| {
            Load {
                addr,
                reference: &reference,
                connections,
                requests: usize::MAX,
                until: Instant::now() + PHASE,
                timeout: CLIENT_TIMEOUT,
                traced,
            }
            .run()
        };

        let steady = load(CONNECTIONS, true);
        assert!(steady.all_ok(), "baseline and traced: {steady:?}");
        let base_p99 = percentile(&steady.latencies_us, 0.99);
        let traced_p99 = percentile(&steady.traced_us, 0.99);
        let traced_gate =
            ((base_p99 as f64 * TRACED_P99_RATIO) as u64).max(base_p99 + TRACED_P99_SLACK_US);
        eprintln!(
            "steady: {} ok; base p50 {} us, p99 {base_p99} us; traced p50 {} us, \
             p99 {traced_p99} us (gate {traced_gate} us)",
            steady.ok,
            percentile(&steady.latencies_us, 0.50),
            percentile(&steady.traced_us, 0.50),
        );
        assert!(
            traced_p99 <= traced_gate,
            "traced p99 {traced_p99} us > gate {traced_gate} us (base p99 {base_p99} us)"
        );

        // The slow-loris clients connect first, so they hold workers
        // rather than being shed at the door.
        let (over, verdicts) = std::thread::scope(|s| {
            let slow: Vec<_> = (0..SLOWLORIS_CLIENTS)
                .map(|_| s.spawn(|| slowloris(addr)))
                .collect();
            std::thread::sleep(Duration::from_millis(100));
            let over = load(OVERLOAD_FACTOR * CONNECTIONS, false);
            (
                over,
                slow.into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        });
        assert!(over.ok > 0, "nothing admitted under overload: {over:?}");
        let over_p99 = percentile(&over.latencies_us, 0.99);
        let over_gate = (OVERLOAD_P99_RATIO * base_p99).max(OVERLOAD_P99_FLOOR_US);
        eprintln!(
            "overload: {} admitted, {} shed; admitted p99 {over_p99} us \
             (gate {over_gate} us); slow-loris {verdicts:?}",
            over.ok, over.shed,
        );
        assert!(over.shed > 0, "4x overload never shed: {over:?}");
        assert_eq!(over.malformed, 0, "a non-200 was not a JSON error envelope");
        assert_eq!(over.torn, 0, "a 200 body drifted under overload");
        assert!(
            over_p99 <= over_gate,
            "admitted p99 {over_p99} us > gate {over_gate} us (base p99 {base_p99} us)"
        );
        assert!(
            !verdicts.contains(&Verdict::Hung),
            "a slow-loris client hung: {verdicts:?}"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}
