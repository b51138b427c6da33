//! End-to-end tests for the prediction service, covering the acceptance
//! sweep of the serve layer:
//!
//! * cold request → exactly one journaled fill campaign; warm repeat →
//!   byte-identical JSON with the simulator untouched;
//! * N concurrent cold requests → one campaign, one `miss`, identical
//!   bodies (single-flight coalescing over real sockets);
//! * server killed mid-fill → restart resumes the campaign from the
//!   journal (prefix preserved) instead of re-simulating, and a warm
//!   server exits 0 on SIGTERM;
//! * a SIGTERM that lands while the server sheds a 4× overload still
//!   drains to exit 0.

mod support;

use offchip_serve::{Server, ServerOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use support::{
    header, post_request, read_response, scratch, serve, test_service, Load, PREDICT_BODY, SEEDS,
};

fn journal_lines(path: &Path) -> usize {
    match std::fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(_) => 0,
    }
}

/// The test grid: UMA CG.S → campaign ns are the protocol points
/// {1,4,5} plus the full machine (8 cores).
const UMA_CG_NS: usize = 4;

#[test]
fn cold_fill_then_warm_hit_is_byte_identical_and_does_not_resimulate() {
    let dir = scratch("coldwarm");
    let svc = test_service(&dir);
    let req = post_request("/predict", PREDICT_BODY);

    let cold = svc.handle(&req);
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(header(&cold.headers, "X-Offchip-Cache"), Some("miss"));

    // Exactly one campaign ran, fully journaled.
    let journal = dir.join("serve-uma-CG.S.journal");
    let journal_bytes = std::fs::read(&journal).expect("fill campaign journal");
    assert_eq!(journal_lines(&journal), UMA_CG_NS * SEEDS.len());
    let journals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "journal"))
        .collect();
    assert_eq!(journals.len(), 1, "exactly one campaign journal");

    // Warm repeat: byte-identical body, disposition only in the header,
    // journal untouched (no re-simulation).
    let warm = svc.handle(&req);
    assert_eq!(warm.status, 200);
    assert_eq!(header(&warm.headers, "X-Offchip-Cache"), Some("hit"));
    assert_eq!(
        warm.body, cold.body,
        "cold and warm bodies must be byte-identical"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        journal_bytes,
        "a warm hit must not touch the journal"
    );

    // Response carries the model and its quality ledger.
    let doc = offchip_json::Json::parse(std::str::from_utf8(&warm.body).unwrap().trim()).unwrap();
    assert_eq!(doc.get("n").and_then(|j| j.as_u64()), Some(8));
    assert!(doc.get("c_n").and_then(|j| j.as_f64()).unwrap() > 0.0);
    assert!(doc
        .get("omega_n")
        .and_then(|j| j.as_f64())
        .unwrap()
        .is_finite());
    assert!(doc.get("speedup_n").and_then(|j| j.as_f64()).unwrap() > 0.0);
    assert!(
        doc.get("fit_quality").is_some(),
        "FitQuality ledger present"
    );
    assert!(doc.get("model").and_then(|m| m.get("mu")).is_some());

    // A sweep over the same key is answered from the same cached model.
    let sweep = svc.handle(&post_request(
        "/sweep",
        r#"{"machine":"uma","program":"CG.S","n_from":1,"n_to":8}"#,
    ));
    assert_eq!(sweep.status, 200);
    assert_eq!(header(&sweep.headers, "X-Offchip-Cache"), Some("hit"));
    let doc = offchip_json::Json::parse(std::str::from_utf8(&sweep.body).unwrap().trim()).unwrap();
    assert_eq!(doc.get("points").and_then(|p| p.as_arr()).unwrap().len(), 8);
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        journal_bytes,
        "the sweep endpoint must reuse the cached fit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `Connection: close` POST over a fresh socket; returns (status,
/// cache header, body).
fn post(addr: &str, path: &str, body: &str, timeout: Duration) -> (u16, String, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(timeout)).unwrap();
    let mut reader = BufReader::new(stream);
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(req.as_bytes()).unwrap();
    let (status, headers, body) = read_response(&mut reader).expect("response");
    let cache = header(&headers, "X-Offchip-Cache")
        .unwrap_or_default()
        .to_string();
    (status, cache, body)
}

#[test]
fn concurrent_cold_requests_coalesce_into_one_campaign() {
    const CLIENTS: usize = 8;
    let dir = scratch("coalesce");
    let server = Server::bind(
        &ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS,
            ..ServerOptions::default()
        },
        test_service(&dir),
    )
    .unwrap();

    let results: Vec<(u16, String, Vec<u8>)> = serve(&server, |addr, _| {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| post(addr, "/predict", PREDICT_BODY, Duration::from_secs(600))))
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        })
    });

    let first = &results[0].2;
    let misses = results
        .iter()
        .filter(|(_, cache, _)| cache == "miss")
        .count();
    for (status, _, body) in &results {
        assert_eq!(*status, 200, "{}", String::from_utf8_lossy(body));
        assert_eq!(body, first, "coalesced responses must be identical");
    }
    assert_eq!(misses, 1, "exactly one leader fills; the rest coalesce");

    // Exactly one campaign ran: one journal, one grid's worth of lines.
    let journals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "journal"))
        .collect();
    assert_eq!(journals.len(), 1, "exactly one campaign journal");
    assert_eq!(
        journal_lines(&journals[0].path()),
        UMA_CG_NS * SEEDS.len(),
        "the fill simulated the grid exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the server binary on an ephemeral port with `extra` flags and
/// returns the child plus the parsed address from its stdout banner.
fn spawn_server(dir: &Path, seeds: &str, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_offchip-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--journal-dir",
            dir.to_str().unwrap(),
        ])
        .args(extra)
        .env("OFFCHIP_SEEDS", seeds)
        .env_remove("OFFCHIP_QUICK")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn offchip-serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("offchip-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (child, addr)
}

/// Sends SIGTERM to `child` and returns its exit status, killing it and
/// failing the test if it has not exited within `within`.
fn terminate(child: &mut Child, within: Duration) -> ExitStatus {
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let give_up = Instant::now() + within;
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return status;
        }
        if Instant::now() > give_up {
            let _ = child.kill();
            panic!("SIGTERM did not end the server within {within:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn server_killed_mid_fill_resumes_from_journal_and_warm_server_exits_zero_on_sigterm() {
    const SEEDS: usize = 6; // 4 ns x 6 seeds = 24 journal lines when complete
    let dir = scratch("killfill");
    let journal = dir.join("serve-uma-CG.S.journal");

    // First server: start a fill, kill it once the journal shows
    // progress but before the campaign completes.
    let (mut child, addr) = spawn_server(&dir, &SEEDS.to_string(), &[]);
    let requester = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            // The kill tears the connection down mid-request; the error
            // is the expected outcome here.
            let _ = std::panic::catch_unwind(|| {
                post(&addr, "/predict", PREDICT_BODY, Duration::from_secs(600))
            });
        })
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while journal_lines(&journal) == 0 {
        assert!(
            Instant::now() < deadline,
            "fill campaign never journaled a point"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("kill mid-fill");
    let _ = child.wait();
    let _ = requester.join();

    let partial = std::fs::read_to_string(&journal).expect("partial journal survives the kill");
    let partial_lines = journal_lines(&journal);
    assert!(partial_lines >= 1);
    // The kill races campaign completion; the test only demands a
    // resumable prefix. (With 24 runs on 2 jobs a full pre-kill fill
    // would require the 2 ms poll to miss ~22 run completions.)
    assert!(
        partial_lines < UMA_CG_NS * SEEDS,
        "kill landed after the fill completed; nothing left to resume"
    );

    // Second server, same journal dir: the fill must resume — every
    // journaled line is preserved verbatim, only the remainder is
    // simulated, and the request succeeds.
    let (mut child, addr) = spawn_server(&dir, &SEEDS.to_string(), &[]);
    let (status, cache, body) = post(&addr, "/predict", PREDICT_BODY, Duration::from_secs(600));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(cache, "miss", "fresh process, fresh in-memory cache");
    let complete = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        journal_lines(&journal),
        UMA_CG_NS * SEEDS,
        "campaign completed"
    );
    // A kill mid-append may tear the last record; resume heals (drops)
    // the torn tail, so the preservation guarantee covers the intact
    // prefix: every fully appended line survives byte-for-byte.
    let intact_partial = match partial.rfind('\n') {
        Some(last_newline) if !partial.ends_with('\n') => &partial[..=last_newline],
        _ => partial.as_str(),
    };
    assert!(
        complete.starts_with(intact_partial),
        "resume must preserve the journaled prefix byte-for-byte\n--- partial ---\n{partial}\n--- complete ---\n{complete}\n---"
    );

    // Warm now: a repeat answers from cache without touching the journal.
    let (status, cache, body2) = post(&addr, "/predict", PREDICT_BODY, Duration::from_secs(30));
    assert_eq!(status, 200);
    assert_eq!(cache, "hit");
    assert_eq!(body2, body);

    // SIGTERM → graceful drain → exit 0.
    let rc = terminate(&mut child, Duration::from_secs(60));
    assert_eq!(rc.code(), Some(0), "SIGTERM must drain and exit 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_during_overload_drains_to_exit_zero() {
    let dir = scratch("drain");
    let (mut child, addr) = spawn_server(
        &dir,
        "1",
        &[
            "--workers",
            "4",
            "--max-queue",
            "4",
            "--max-conns",
            "8",
            "--header-deadline",
            "2000",
        ],
    );
    let (status, _, reference) = post(&addr, "/predict", PREDICT_BODY, Duration::from_secs(600));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reference));

    // 16 keep-alive clients against 4 workers and room for 8 connections:
    // the server is shedding when the SIGTERM lands a second in.
    let (over, rc) = std::thread::scope(|s| {
        let load = s.spawn(|| {
            Load {
                addr: &addr,
                reference: &reference,
                connections: 16,
                requests: usize::MAX,
                until: Instant::now() + Duration::from_secs(2),
                timeout: Duration::from_secs(5),
                traced: false,
            }
            .run()
        });
        std::thread::sleep(Duration::from_secs(1));
        let rc = terminate(&mut child, Duration::from_secs(60));
        (load.join().unwrap(), rc)
    });
    assert_eq!(
        rc.code(),
        Some(0),
        "SIGTERM under overload must drain and exit 0"
    );
    assert!(
        over.ok > 0 && over.shed > 0,
        "the server was not overloaded: {over:?}"
    );
    assert_eq!(
        over.torn + over.malformed,
        0,
        "the drain tore a response: {over:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
