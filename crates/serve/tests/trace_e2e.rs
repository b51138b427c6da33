//! End-to-end request tracing (DESIGN.md §15): one traced cold
//! `/predict` over a real socket, then the trace surfaces.
//!
//! The acceptance path in one test: the response echoes the
//! `X-Offchip-Trace` id, `/debug/trace/<id>` returns a span tree whose
//! spans (`http.parse`, `queue.wait`, `fill`, `sim.point`,
//! `response.write`) have consistent parentage, the Perfetto export is
//! well-formed `trace_event` JSON, and — the determinism contract — the
//! traced cold body is byte-identical to an untraced cold run of the
//! same key. Two servers in one process keep their traces apart.

mod support;

use offchip_serve::{Server, ServerOptions};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use support::{
    header, post_request, read_response, scratch, serve, test_service, HttpReply, PREDICT_BODY,
};

const TRACE_ID: &str = "00000000cafe0001";

fn get(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, path: &str) -> HttpReply {
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    read_response(reader).unwrap()
}

#[test]
fn two_servers_keep_their_traces_apart() {
    // Each server owns its span store: a trace begun at one is unknown at
    // the other, and one inbound id sent to both begins one tree at each.
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerOptions::default()
    };
    let (dir_a, dir_b) = (scratch("apart-a"), scratch("apart-b"));
    let a = Server::bind(&opts, test_service(&dir_a)).unwrap();
    let b = Server::bind(&opts, test_service(&dir_b)).unwrap();
    let connect = |addr: &str| {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    };
    let traced_healthz = |(conn, reader): &mut (TcpStream, BufReader<TcpStream>)| {
        let req =
            format!("GET /healthz HTTP/1.1\r\nHost: t\r\nX-Offchip-Trace: {TRACE_ID}\r\n\r\n");
        conn.write_all(req.as_bytes()).unwrap();
        read_response(reader).unwrap().0
    };
    let tree_path = format!("/debug/trace/{TRACE_ID}");
    serve(&a, |addr_a, _| {
        serve(&b, |addr_b, _| {
            let (mut at_a, mut at_b) = (connect(addr_a), connect(addr_b));
            assert_eq!(traced_healthz(&mut at_a), 200);
            let (status, _, body) = get(&mut at_b.0, &mut at_b.1, &tree_path);
            assert_eq!(
                status,
                404,
                "a trace begun at A is unknown at B: {}",
                String::from_utf8_lossy(&body)
            );
            assert_eq!(traced_healthz(&mut at_b), 200);
            for (name, (conn, reader)) in [("A", &mut at_a), ("B", &mut at_b)] {
                let (status, _, tree) = get(conn, reader, &tree_path);
                let tree = String::from_utf8_lossy(&tree);
                assert_eq!(status, 200, "{name}: {tree}");
                let roots = tree.matches("\"parent\":0,\"name\":\"request\"").count();
                assert_eq!(roots, 1, "{name} holds one request root: {tree}");
            }
        })
    });
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn traced_cold_predict_yields_a_span_tree_and_identical_bytes() {
    let dir = scratch("e2e");
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerOptions::default()
    };
    let server = Server::bind(&opts, test_service(&dir)).unwrap();
    let traced_body = serve(&server, |addr, _| {
        let mut conn = TcpStream::connect(addr).unwrap();
        // Generous read timeout: the cold fill runs a real (quick-seed)
        // campaign on this first request.
        conn.set_read_timeout(Some(Duration::from_secs(600)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // Cold predict, tracing requested via the inbound header.
        conn.write_all(
            format!(
                "POST /predict HTTP/1.1\r\nHost: t\r\nX-Offchip-Trace: {TRACE_ID}\r\n\
                 Content-Length: {}\r\n\r\n{PREDICT_BODY}",
                PREDICT_BODY.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let (status, headers, traced_body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&traced_body));
        assert_eq!(
            header(&headers, "X-Offchip-Trace"),
            Some(TRACE_ID),
            "the response echoes the inbound trace id"
        );
        assert_eq!(header(&headers, "X-Offchip-Cache"), Some("miss"));

        // The span tree, over the same keep-alive connection.
        let (status, _, tree) = get(&mut conn, &mut reader, &format!("/debug/trace/{TRACE_ID}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&tree));
        let doc = offchip_json::Json::parse(std::str::from_utf8(&tree).unwrap().trim()).unwrap();
        assert_eq!(doc.get("trace_id").and_then(|j| j.as_str()), Some(TRACE_ID));
        let spans: Vec<(u64, u64, String)> = match doc.get("spans") {
            Some(offchip_json::Json::Arr(items)) => items
                .iter()
                .map(|s| {
                    (
                        s.get("id").and_then(|j| j.as_u64()).unwrap(),
                        s.get("parent").and_then(|j| j.as_u64()).unwrap(),
                        s.get("name").and_then(|j| j.as_str()).unwrap().to_string(),
                    )
                })
                .collect(),
            other => panic!("no spans array: {other:?}"),
        };
        let find = |name: &str| spans.iter().find(|(_, _, n)| n == name);
        let by_name: Vec<&str> = spans.iter().map(|(_, _, n)| n.as_str()).collect();
        let (root_id, root_parent, _) = find("request").expect("root span");
        assert_eq!(*root_parent, 0, "the root has no parent");
        for name in ["http.parse", "queue.wait", "response.write"] {
            let (_, parent, _) =
                find(name).unwrap_or_else(|| panic!("missing {name} span in {by_name:?}"));
            assert_eq!(parent, root_id, "{name} parents under the request root");
        }
        let (fill_id, fill_parent, _) =
            find("fill").unwrap_or_else(|| panic!("missing fill span in {by_name:?}"));
        assert_eq!(fill_parent, root_id, "the fill parents under the root");
        let sim_points: Vec<_> = spans.iter().filter(|(_, _, n)| n == "sim.point").collect();
        assert!(
            !sim_points.is_empty(),
            "at least one sim.point span: {by_name:?}"
        );
        for (_, parent, _) in &sim_points {
            assert_eq!(parent, fill_id, "sim points parent under the fill span");
        }
        // Every non-root span's parent exists in the tree.
        for (id, parent, name) in &spans {
            assert!(
                *parent == 0 || spans.iter().any(|(p, _, _)| p == parent),
                "span {id} ({name}) has dangling parent {parent}"
            );
        }

        // The Perfetto export is well-formed Chrome trace_event JSON.
        let (status, _, pft) = get(
            &mut conn,
            &mut reader,
            &format!("/debug/trace/{TRACE_ID}?fmt=perfetto"),
        );
        assert_eq!(status, 200);
        let doc = offchip_json::Json::parse(std::str::from_utf8(&pft).unwrap().trim()).unwrap();
        let events = match doc.get("traceEvents") {
            Some(offchip_json::Json::Arr(items)) => items,
            other => panic!("no traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), spans.len());
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|j| j.as_str()), Some("X"));
            assert!(ev.get("ts").and_then(|j| j.as_u64()).is_some());
            assert!(ev.get("dur").and_then(|j| j.as_u64()).is_some());
            assert!(ev.get("name").and_then(|j| j.as_str()).is_some());
        }
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("trace_id"))
                .and_then(|j| j.as_str()),
            Some(TRACE_ID)
        );

        // An unknown id is a 404, not an empty tree.
        let (status, _, _) = get(&mut conn, &mut reader, "/debug/trace/00000000deadbeef");
        assert_eq!(status, 404);

        // /statusz sees the traffic, and its slowest table leads with the
        // traced cold fill by id; /metrics?fmt=prom scrapes.
        let (status, _, statusz) = get(&mut conn, &mut reader, "/statusz");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&statusz);
        assert!(text.contains("uptime_s:"), "{text}");
        assert!(text.contains("cache: hit=0 miss=1"), "{text}");
        let slowest = text
            .lines()
            .skip_while(|l| !l.starts_with("slowest ("))
            .nth(1)
            .unwrap_or_else(|| panic!("no slowest table: {text}"));
        assert!(
            slowest.contains(&format!("trace={TRACE_ID} ")) && slowest.ends_with("status=200"),
            "{text}"
        );
        let (status, headers, prom) = get(&mut conn, &mut reader, "/metrics?fmt=prom");
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, "Content-Type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        let prom = String::from_utf8_lossy(&prom);
        assert!(prom.contains("serve_requests_predict_total 1"), "{prom}");
        assert!(prom.contains("le=\"+Inf\""), "{prom}");

        // An untraced request still gets a (derived) correlation id, and
        // /statusz lists it, but no tree: buffering stays opt-in. This
        // connection's seven requests so far all fit in the 8-row
        // slowest table, so the fast /healthz cannot be displaced yet.
        let (_, headers, _) = get(&mut conn, &mut reader, "/healthz");
        let echoed = header(&headers, "X-Offchip-Trace").expect("derived id echoed");
        assert_ne!(echoed, TRACE_ID);
        assert_ne!(u64::from_str_radix(echoed, 16).unwrap(), 0);
        let (_, _, statusz) = get(&mut conn, &mut reader, "/statusz");
        let text = String::from_utf8_lossy(&statusz);
        assert!(text.contains(&format!("trace={echoed} ")), "{text}");
        let path = format!("/debug/trace/{echoed}");
        assert_eq!(get(&mut conn, &mut reader, &path).0, 404);
        traced_body
    });

    // Determinism contract: an untraced cold fill of the same key, in a
    // fresh journal directory, produces byte-identical response bytes.
    let dir2 = scratch("plain");
    let svc = test_service(&dir2);
    let plain = svc.handle(&post_request("/predict", PREDICT_BODY));
    assert_eq!(
        plain.status,
        200,
        "{}",
        String::from_utf8_lossy(&plain.body)
    );
    assert_eq!(
        plain.body, traced_body,
        "tracing must not perturb response bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
