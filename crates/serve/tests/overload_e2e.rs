//! Overload-path end-to-end tests (DESIGN.md §14):
//!
//! * a connection beyond `max_conns` is shed on the accept thread with
//!   a well-formed `503 + Retry-After + X-Offchip-Shed`;
//! * `GET /readyz` flips to 503 the moment the server starts draining;
//! * a request whose deadline expires mid-fill gets `202 Accepted`
//!   while the fill keeps warming the cache for later callers;
//! * consecutive fill failures open the per-key circuit breaker, the
//!   service answers from the degraded analytic tier with provenance,
//!   and a seeded half-open probe closes the breaker once the fill
//!   path heals.

mod support;

use offchip_serve::http::Request;
use offchip_serve::{AdmissionConfig, PredictService, Server, ServerOptions, ServiceConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use support::{
    header, post_request, read_response, scratch, serve, test_service, PREDICT_BODY, SEEDS,
};

fn predict_request(deadline_ms: Option<u64>) -> Request {
    Request {
        deadline_ms,
        ..post_request("/predict", PREDICT_BODY)
    }
}

fn parse_json(body: &[u8]) -> offchip_json::Json {
    offchip_json::Json::parse(std::str::from_utf8(body).expect("utf-8 body").trim()).unwrap_or_else(
        |e| {
            panic!(
                "body is not JSON ({e:?}): {}",
                String::from_utf8_lossy(body)
            )
        },
    )
}

#[test]
fn conns_full_overflow_is_shed_with_a_well_formed_503() {
    let dir = scratch("shed");
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        admission: AdmissionConfig {
            max_queue: 1,
            max_conns: 1,
        },
        ..ServerOptions::default()
    };
    let server = Server::bind(&opts, test_service(&dir)).unwrap();
    serve(&server, |addr, _| {
        // Pin the single connection slot with a keep-alive client
        // mid-conversation: the worker parks in its next read.
        let mut pinned = TcpStream::connect(addr).unwrap();
        pinned
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        pinned
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut pinned_reader = BufReader::new(pinned.try_clone().unwrap());
        let (status, _, body) = read_response(&mut pinned_reader).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        std::thread::sleep(Duration::from_millis(100));

        // The next connection exceeds max_conns: the accept thread
        // answers it directly, without a worker or even a request.
        let overflow = TcpStream::connect(addr).unwrap();
        overflow
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(overflow);
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert_eq!(header(&headers, "X-Offchip-Shed"), Some("conns-full"));
        assert_eq!(header(&headers, "Retry-After"), Some("1"));
        assert_eq!(header(&headers, "Connection"), Some("close"));
        let doc = parse_json(&body);
        assert!(
            doc.get("error").and_then(|j| j.as_str()).is_some(),
            "shed body is a JSON error envelope: {}",
            String::from_utf8_lossy(&body)
        );
        assert_eq!(server.metrics().counter("serve.shed"), 1);
        // The pinned connection closes as the case ends, so the drain is
        // clean.
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readyz_flips_to_draining_during_shutdown() {
    let dir = scratch("readyz");
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerOptions::default()
    };
    let server = Server::bind(&opts, test_service(&dir)).unwrap();
    serve(&server, |addr, shutdown| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        conn.write_all(b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"ready\n");

        // Flip the drain flag; the same keep-alive connection sees the
        // readiness change on its very next request.
        shutdown.store(true, Ordering::SeqCst);
        conn.write_all(b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert!(
            String::from_utf8_lossy(&body).contains("draining"),
            "{}",
            String::from_utf8_lossy(&body)
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadline_answers_202_while_the_fill_completes() {
    let dir = scratch("deadline");
    let svc = test_service(&dir);

    // A 1 ms budget cannot cover a real fill: 202, Retry-After, and the
    // fill keeps running in the background.
    let first = svc.handle(&predict_request(Some(1)));
    assert_eq!(
        first.status,
        202,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(header(&first.headers, "Retry-After"), Some("5"));
    let doc = parse_json(&first.body);
    assert!(doc.get("error").and_then(|j| j.as_str()).is_some());
    assert_eq!(doc.get("retry_after_s").and_then(|j| j.as_u64()), Some(5));
    assert_eq!(svc.metrics().counter("serve.deadline_miss"), 1);

    // An immediate retry with the same tiny budget coalesces onto the
    // in-flight fill and gets the same answer.
    let again = svc.handle(&predict_request(Some(1)));
    assert_eq!(again.status, 202);

    // A patient request rides the background fill to a real model.
    let warm = svc.handle(&predict_request(None));
    assert_eq!(warm.status, 200, "{}", String::from_utf8_lossy(&warm.body));
    let doc = parse_json(&warm.body);
    assert!(doc.get("c_n").and_then(|j| j.as_f64()).unwrap() > 0.0);
    assert!(
        dir.join("serve-uma-CG.S.journal").exists(),
        "the background fill journaled its campaign"
    );

    // And the answer is stable: the 202 path must not have corrupted
    // the cache entry.
    let repeat = svc.handle(&predict_request(None));
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.body, warm.body);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_opens_onto_degraded_tier_and_recovers_when_fills_heal() {
    let dir = scratch("breaker");
    // The journal "directory" is a regular file: every campaign open
    // fails fast with a real I/O error, which is exactly the class of
    // persistent fill failure the breaker exists for.
    let journal_dir = dir.join("journals");
    std::fs::write(&journal_dir, b"a file where the journal directory belongs").unwrap();
    let svc = PredictService::new(ServiceConfig {
        journal_dir: Some(journal_dir.clone()),
        seeds: SEEDS.to_vec(),
        jobs: 2,
        ..ServiceConfig::default()
    });
    let req = predict_request(None);

    // Failures below the threshold surface as plain 5xx JSON errors.
    for attempt in 0..2 {
        let resp = svc.handle(&req);
        assert_eq!(
            resp.status,
            500,
            "attempt {attempt}: {}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(parse_json(&resp.body)
            .get("error")
            .and_then(|j| j.as_str())
            .is_some());
    }

    // The third consecutive failure opens the breaker; the same caller
    // is answered from the degraded analytic tier instead of a 5xx.
    let resp = svc.handle(&req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        header(&resp.headers, "X-Offchip-Tier"),
        Some("degraded-analytic")
    );
    assert_eq!(header(&resp.headers, "X-Offchip-Cache"), Some("degraded"));
    let doc = parse_json(&resp.body);
    assert_eq!(
        doc.get("tier").and_then(|j| j.as_str()),
        Some("degraded-analytic")
    );
    let breaker = doc.get("breaker").expect("breaker provenance in-band");
    assert_eq!(breaker.get("state").and_then(|j| j.as_str()), Some("open"));
    assert_eq!(
        breaker.get("last_error_kind").and_then(|j| j.as_str()),
        Some("internal")
    );
    assert!(breaker
        .get("consecutive_failures")
        .and_then(|j| j.as_u64())
        .is_some_and(|n| n >= 3));
    let fallback = doc
        .get("fit_quality")
        .and_then(|q| q.get("fallback"))
        .and_then(|j| j.as_str())
        .expect("fallback provenance");
    assert!(fallback.contains("no simulation"), "{fallback}");
    assert!(doc.get("c_n").and_then(|j| j.as_f64()).unwrap() > 0.0);
    assert_eq!(svc.metrics().counter("serve.degraded"), 1);
    assert_eq!(svc.metrics().counter("serve.breaker.open"), 1);

    // While the fill path stays broken every request is served
    // degraded: seeded half-open probes fail and re-open the breaker.
    for _ in 0..4 {
        let resp = svc.handle(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(
            header(&resp.headers, "X-Offchip-Tier"),
            Some("degraded-analytic")
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Heal the filesystem: the journal path becomes a real directory.
    std::fs::remove_file(&journal_dir).unwrap();
    std::fs::create_dir_all(&journal_dir).unwrap();

    // Keep knocking. A seeded probe lands within 8 requests of a window,
    // its background fill now succeeds, the breaker closes, and the
    // fitted model takes over from the analytic prior.
    let give_up = Instant::now() + Duration::from_secs(120);
    let fitted = loop {
        assert!(Instant::now() < give_up, "breaker never recovered");
        let resp = svc.handle(&req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        if header(&resp.headers, "X-Offchip-Tier").is_none() {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let doc = parse_json(&fitted.body);
    assert!(
        doc.get("tier").is_none() && doc.get("breaker").is_none(),
        "fitted body carries no degraded provenance: {}",
        String::from_utf8_lossy(&fitted.body)
    );
    assert!(
        doc.get("fit_quality")
            .and_then(|q| q.get("fallback"))
            .is_none_or(|f| f.as_str().is_none()),
        "fitted model claims no fallback"
    );
    assert!(
        journal_dir.join("serve-uma-CG.S.journal").exists(),
        "the recovering fill journaled its campaign"
    );
    assert_eq!(svc.metrics().counter("serve.breaker.close"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
