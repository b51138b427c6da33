//! Integration tests of the observability layer: the zero-overhead-when-
//! off contract (experiment artefacts must be byte-identical at every
//! `ObsLevel`), the metrics registry fed by real sweeps, and the Chrome
//! trace_event export.
//!
//! The obs level in `SimConfig::new` is captured from a **process-global**
//! knob, so tests here serialise on one mutex and pin `cfg.obs` / the
//! global explicitly rather than trusting ambient state.

use std::sync::Mutex;

use offchip::obs::{self, ObsLevel};
use offchip::prelude::*;

/// Serialises tests that touch the process-global obs level/registry/ring.
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

#[test]
fn trace_export_is_valid_chrome_json() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::open_trace_ring();
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let mut cfg = SimConfig::new(machine.clone(), machine.total_cores());
    cfg.obs = ObsLevel::Trace;
    run(w.as_ref(), &cfg);
    let spans = obs::take_spans();
    assert!(!spans.is_empty(), "a traced run emits spans");
    let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in ["compute", "mem_stall", "dram"] {
        assert!(names.contains(expected), "{expected} missing from {names:?}");
    }
    let json = obs::chrome_trace_json(&spans);
    let doc = offchip_json::Json::parse(&json).expect("trace output parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
    }
}

#[test]
fn traced_run_keeps_no_spans_while_the_ring_is_closed() {
    let _g = OBS_LOCK.lock().unwrap();
    // Draining closes the ring. A process that never opens it (anything
    // but the CLI's `--trace`) must not pile up spans nobody reads.
    obs::take_spans();
    let machine = small_machine();
    let w = cg_a_workload(machine.total_cores());
    let mut cfg = SimConfig::new(machine.clone(), 2);
    cfg.obs = ObsLevel::Trace;
    run(w.as_ref(), &cfg);
    let kept = obs::take_spans();
    assert!(
        kept.is_empty(),
        "{} span(s) kept with no consumer",
        kept.len()
    );
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
        let sweep = offchip_bench::run_sweep(&machine, w.as_ref(), &ns, &[7])
            .expect("sweep succeeds");
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
