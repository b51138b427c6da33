//! The chaos-net socket oracle (DESIGN.md §14): under seeded
//! socket-level fault schedules — stalls, resets, short reads — crossed
//! with tight and default admission limits, the server must
//!
//! * never hang a client past its deadlines (injected stalls are capped
//!   far below the client timeout, so a timeout means a real hang);
//! * never tear or mix a `200` body: every success is byte-identical to
//!   the warm reference response;
//! * answer every non-200 with a well-formed JSON error envelope —
//!   sheds included.
//!
//! Connections the fault layer kills mid-exchange are allowed (that is
//! the fault firing); a *corrupted* exchange is not.

mod support;

use offchip_chaos::NetSpec;
use offchip_serve::{AdmissionConfig, Server, ServerOptions};
use std::path::Path;
use std::time::{Duration, Instant};
use support::{post_request, scratch, serve, test_service, Load, Tally, PREDICT_BODY};

/// Seeded fault schedules; stalls are 10–160 ms and positions 1–8, so
/// the 8 s client timeout below can only fire on a genuine hang.
const NET_SEEDS: [u64; 3] = [11, 23, 47];
const FAULTS_PER_CONN: usize = 6;
const CLIENTS: usize = 3;
const REQS_PER_CLIENT: usize = 25;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(8);

fn run_cell(dir: &Path, spec: NetSpec, label: &str, tight: bool, reference: &[u8]) -> Tally {
    let admission = if tight {
        AdmissionConfig {
            max_queue: 1,
            max_conns: 2,
        }
    } else {
        AdmissionConfig::default()
    };
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        admission,
        chaos_net: Some(spec),
        ..ServerOptions::default()
    };
    let server = Server::bind(&opts, test_service(dir)).unwrap();
    let total = serve(&server, |addr, _| {
        Load {
            addr,
            reference,
            connections: CLIENTS,
            requests: REQS_PER_CLIENT,
            until: Instant::now() + Duration::from_secs(3600),
            timeout: CLIENT_TIMEOUT,
            traced: false,
        }
        .run()
    });
    let label = format!(
        "{label} tight {tight}: ok {} errors {} dropped {}",
        total.ok,
        total.shed + total.refused,
        total.dropped
    );
    // The fatal oracle conditions. A schedule front-loaded with resets
    // may legitimately kill every exchange (the client reconnects onto
    // an identical per-connection plan), so zero successes is a
    // property of the schedule, not a violation — the benign cell and
    // the grid-wide check below pin down liveness.
    assert_eq!(total.hung, 0, "{label}: a client timed out — server hung");
    assert_eq!(
        total.torn, 0,
        "{label}: a 200 body drifted from the reference"
    );
    assert_eq!(
        total.malformed, 0,
        "{label}: a non-200 was not a JSON error envelope"
    );
    total
}

#[test]
fn chaos_net_never_hangs_or_tears_responses() {
    let dir = scratch("grid");
    // Fill the model once, directly against the service: every server
    // below resumes the finished campaign from this journal, so the
    // whole grid runs warm and the reference body is fixed.
    let reference = {
        let warm = test_service(&dir);
        let resp = warm.handle(&post_request("/predict", PREDICT_BODY));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        resp.body
    };

    // A stall-only schedule never kills a connection: every request
    // must survive it, proving 200s flow intact *through* the chaos
    // layer rather than around it.
    let benign = NetSpec::parse("stall@read:1:50,stall@write:2:50").unwrap();
    let t = run_cell(&dir, benign, "benign stalls", false, &reference);
    assert_eq!(
        t.ok,
        CLIENTS * REQS_PER_CLIENT,
        "stall-only schedule must not lose exchanges"
    );

    let mut faulted = 0;
    for seed in NET_SEEDS {
        for tight in [false, true] {
            let spec = NetSpec::from_seed_n(seed, FAULTS_PER_CONN);
            let label = format!("seed {seed} ({spec})");
            let t = run_cell(&dir, spec, &label, tight, &reference);
            faulted += t.shed + t.refused + t.dropped;
        }
    }
    assert!(
        faulted > 0,
        "the seeded grid never exercised a fault path at all"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
