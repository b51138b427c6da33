//! Integration tests of the observability layer: the zero-overhead-when-
//! off contract (experiment artefacts must be byte-identical observed or
//! not), the metrics registry fed by real sweeps, and the Chrome
//! trace_event export.
//!
//! A run observes itself only when it is handed a registry, and its spans
//! land in the store its thread's trace points into, so each test builds
//! its own registry and trace store: the tests share no state and take no
//! lock.

use std::sync::Arc;

use offchip::obs::{Registry, TraceRef, TraceScope, TraceStore};
use offchip::prelude::*;
use offchip_bench::{Campaign, CampaignOptions};
use offchip_json::ToJson;

const SCALE: f64 = 1.0 / 64.0;

fn cg_a_workload(threads: usize) -> Box<dyn Workload> {
    offchip_bench::build_workload_scaled(
        offchip_bench::ProgramSpec::Cg(ProblemClass::A),
        SCALE,
        threads,
    )
}

fn small_machine() -> MachineSpec {
    machines::intel_uma_8().scaled(SCALE)
}

/// Core counts to sweep: the full 1..=total, or {1, total} under
/// `OFFCHIP_QUICK=1` (same convention as the bench crate's smoke mode).
fn sweep_ns(total: usize) -> Vec<usize> {
    if std::env::var("OFFCHIP_QUICK").is_ok_and(|v| v == "1") {
        vec![1, total]
    } else {
        (1..=total).collect()
    }
}

#[test]
fn cg_sweep_feeds_queue_wait_histogram_with_ordered_quantiles() {
    let reg = Arc::new(Registry::default());
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    for n in sweep_ns(machine.total_cores()) {
        let mut cfg = SimConfig::new(machine.clone(), n);
        cfg.metrics = Some(Arc::clone(&reg));
        run(w.as_ref(), &cfg);
    }
    let snap = reg.snapshot();
    let (_, h) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "dram.queue_wait_cycles")
        .expect("queue-wait histogram populated by the sweep");
    assert!(h.count > 0, "CG.A misses off-chip, so waits were recorded");
    assert!(
        h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max,
        "quantiles ordered: p50={} p95={} p99={} max={}",
        h.p50,
        h.p95,
        h.p99,
        h.max
    );
    // The simulator also reports its structural counters.
    for name in ["dram.row_hits", "cache.l1.accesses"] {
        assert!(
            snap.counters.iter().any(|c| c.0 == name),
            "{name} present in {:?}",
            snap.counters.iter().map(|c| &c.0).collect::<Vec<_>>()
        );
    }
}

/// Runs CG.A on `n` cores, observed, in the context `ctx`.
fn traced_run(ctx: TraceRef, n: usize) {
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let mut cfg = SimConfig::new(machine, n);
    cfg.metrics = Some(Arc::default());
    let _scope = TraceScope::enter(ctx);
    run(w.as_ref(), &cfg);
}

#[test]
fn trace_export_is_valid_chrome_json() {
    let traces = TraceStore::default();
    traced_run(
        traces.begin(1, "test", String::new(), true),
        small_machine().total_cores(),
    );
    let json = traces.chrome_json(1).expect("trace is in the store");
    let doc = offchip_json::Json::parse(&json).expect("trace output parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(events.len() > 1, "a traced run emits spans");
    let dropped = doc.get("otherData").and_then(|o| o.get("dropped"));
    assert_eq!(dropped.and_then(|v| v.as_u64()), Some(0));
    let mut names = std::collections::BTreeSet::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        names.insert(ev.get("name").and_then(|v| v.as_str()).expect("name"));
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
        let tree = ev.get("cat").and_then(|v| v.as_str()) == Some("request");
        let pid = ev.get("pid").and_then(|v| v.as_u64());
        assert_eq!(pid, Some(u64::from(!tree)), "tree on pid 0, run on 1");
    }
    for expected in ["test", "compute", "mem_stall", "dram"] {
        assert!(
            names.contains(expected),
            "{expected} missing from {names:?}"
        );
    }
}

#[test]
fn traced_run_outside_a_run_trace_keeps_no_spans() {
    // Only a trace that takes runs gets lanes: an observed run under a
    // request trace collects nothing, and a run trace nobody entered
    // stays empty.
    let traces = TraceStore::default();
    let (request, bystander) = (1, 2);
    traces.begin(bystander, "test", String::new(), true);
    traced_run(traces.begin(request, "request", String::new(), false), 2);
    for id in [request, bystander] {
        let json = traces.chrome_json(id).expect("trace is in the store");
        let events = json.matches("\"ph\":\"X\"").count();
        assert_eq!(events, 1, "only the root: {json}");
        assert_eq!(traces.dropped(id), 0);
    }
}

#[test]
fn artefacts_identical_at_every_obs_level() {
    // The same campaign sweep three ways: unobserved, recording into a
    // registry, and recording into a registry under a run trace. The
    // sweep artefact must come out byte for byte the same.
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let ns = sweep_ns(machine.total_cores());
    let root = std::env::temp_dir().join(format!("offchip-telemetry-{}", std::process::id()));
    let sweep = |tag: &str, metrics: Option<Arc<Registry>>| {
        let opts = CampaignOptions {
            journal_dir: Some(root.join(tag)),
            metrics,
            ..CampaignOptions::default()
        };
        let campaign = Campaign::start("telemetry-obs", &opts).expect("journal opens");
        let cs = campaign
            .run_sweep(&machine, w.as_ref(), &ns, &[7], 2)
            .expect("sweep succeeds");
        assert!(cs.errors.is_empty(), "{:?}", cs.errors);
        cs.sweep.to_json().to_pretty_string()
    };
    let plain = sweep("plain", None);
    let reg = Arc::new(Registry::default());
    let observed = sweep("observed", Some(Arc::clone(&reg)));
    let traced_reg = Arc::new(Registry::default());
    let traces = TraceStore::default();
    let scope = TraceScope::enter(traces.begin(1, "test", String::new(), true));
    let traced = sweep("traced", Some(Arc::clone(&traced_reg)));
    drop(scope);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(plain, observed, "a registry must not perturb results");
    assert_eq!(plain, traced, "a run trace must not perturb results");
    for r in [&reg, &traced_reg] {
        assert!(r
            .histogram("dram.queue_wait_cycles")
            .is_some_and(|h| h.count() > 0));
    }
    let json = traces.chrome_json(1).expect("trace is in the store");
    assert!(
        json.contains("\"cat\":\"dram\""),
        "the traced runs kept lanes"
    );
}
