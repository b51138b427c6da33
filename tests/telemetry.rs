//! Integration tests of the observability layer: the zero-overhead-when-
//! off contract (experiment artefacts must be byte-identical at every
//! `ObsLevel`), the metrics registry fed by real sweeps, and the Chrome
//! trace_event export.
//!
//! The obs level in `SimConfig::new` is captured from a **process-global**
//! knob and the metrics registry is process-global, so the tests that
//! read either serialise on one mutex. The trace tests pin `cfg.obs`
//! themselves and each record into a trace id of their own, so they take
//! no lock.

use std::sync::Mutex;

use offchip::obs::{self, ObsLevel, TraceRef, TraceScope};
use offchip::prelude::*;

/// Serialises tests that touch the process-global obs level or registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

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
    let _g = OBS_LOCK.lock().unwrap();
    obs::registry().reset();
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    for n in sweep_ns(machine.total_cores()) {
        let mut cfg = SimConfig::new(machine.clone(), n);
        cfg.obs = ObsLevel::Metrics;
        run(w.as_ref(), &cfg);
    }
    let snap = obs::registry().snapshot();
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
    obs::registry().reset();
}

/// Runs CG.A on `n` cores at `ObsLevel::Trace` in the context `ctx`.
fn traced_run(ctx: TraceRef, n: usize) {
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let mut cfg = SimConfig::new(machine, n);
    cfg.obs = ObsLevel::Trace;
    let _scope = TraceScope::enter(ctx);
    run(w.as_ref(), &cfg);
}

#[test]
fn trace_export_is_valid_chrome_json() {
    let trace = obs::trace_begin(0x7e1e_0001, "test", String::new(), true);
    traced_run(trace, small_machine().total_cores());
    let json = obs::trace_chrome_json(trace.trace).expect("trace is in the store");
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
    // Only a trace that takes runs gets lanes: a run under a request
    // trace (a server at `OBS=trace`) collects nothing, and a run trace
    // nobody entered stays empty.
    let request = obs::trace_begin(0x7e1e_0002, "request", String::new(), false);
    let bystander = obs::trace_begin(0x7e1e_0003, "test", String::new(), true);
    traced_run(request, 2);
    for ctx in [request, bystander] {
        let json = obs::trace_chrome_json(ctx.trace).expect("trace is in the store");
        let events = json.matches("\"ph\":\"X\"").count();
        assert_eq!(events, 1, "only the root: {json}");
        assert_eq!(obs::trace_dropped(ctx.trace), 0);
    }
}

#[test]
fn artefacts_identical_at_every_obs_level() {
    let _g = OBS_LOCK.lock().unwrap();
    // The sweep layer inherits the global level through SimConfig::new, so
    // drive the comparison through the global knob — exactly the CLI path.
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let ns = sweep_ns(machine.total_cores());
    let sweep_at = |level: ObsLevel| {
        obs::set_level(level);
        let sweep =
            offchip_bench::run_sweep(&machine, w.as_ref(), &ns, &[7]).expect("sweep succeeds");
        format!("{sweep:?}")
    };
    let off = sweep_at(ObsLevel::Off);
    let metrics = sweep_at(ObsLevel::Metrics);
    let trace = sweep_at(ObsLevel::Trace);
    assert_eq!(off, metrics, "metrics level must not perturb results");
    assert_eq!(off, trace, "trace level must not perturb results");
    obs::set_level(ObsLevel::Off);
    obs::registry().reset();
}
