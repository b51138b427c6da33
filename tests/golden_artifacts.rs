//! Golden-byte regression tests for experiment artefacts.
//!
//! The perf work on the simulator's hot path (hasher swaps, slab waiters,
//! per-bank FR-FCFS queues, event suppression) is only admissible if it
//! leaves every artefact byte-identical. These tests pin the exact pretty
//! JSON of representative mini-sweeps against committed golden files, so
//! any change to simulation semantics — including an accidental
//! dependence on `HashMap` iteration order — fails loudly in CI, under
//! every `OFFCHIP_JOBS` value.
//!
//! To re-bless after an *intentional* semantic change (which must be its
//! own reviewed decision, never a side effect of an optimisation):
//! `OFFCHIP_BLESS=1 cargo test --test golden_artifacts`.

use offchip_bench::{
    build_workload, fit_sweep, Campaign, CampaignOptions, ProgramSpec, SweepResult,
};
use offchip_json::ToJson;
use offchip_machine::{run, McScheduler, MemoryPolicy, SimConfig};
use offchip_model::FitProtocol;
use offchip_npb::classes::ProblemClass;
use offchip_topology::machines;

const SCALE: f64 = 1.0 / 64.0;

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("OFFCHIP_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        expected,
        actual,
        "artefact bytes diverged from {} — simulation semantics changed",
        path.display()
    );
}

const CG_UMA_NS: [usize; 4] = [1, 2, 4, 8];
const CG_UMA_SEEDS: [u64; 3] = [0x0FF_C41B, 7, 11];

/// The CG.S sweep on the UMA machine at `jobs` workers, journaled under
/// `name` in a directory of its own, so tests running side by side do
/// not share a journal.
fn cg_uma_sweep(name: &str, jobs: usize) -> SweepResult {
    let machine = machines::intel_uma_8().scaled(SCALE);
    let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
    let dir = std::env::temp_dir().join(format!("offchip-{name}-{}", std::process::id()));
    let opts = CampaignOptions {
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    // Without --resume each start truncates the journal, so every call
    // simulates the whole grid.
    let campaign = Campaign::start(name, &opts).expect("open journal");
    let cs = campaign
        .run_sweep(&machine, w.as_ref(), &CG_UMA_NS, &CG_UMA_SEEDS, jobs)
        .expect("sweep");
    assert!(cs.errors.is_empty(), "jobs={jobs}: {:?}", cs.errors);
    assert_eq!(
        (cs.executed, cs.resumed),
        (CG_UMA_NS.len() * CG_UMA_SEEDS.len(), 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
    cs.sweep
}

/// A CG sweep on the UMA machine: the default FCFS + interleave-active
/// path every figure and table exercises, through the campaign engine
/// every binary runs. Run at several worker counts so a hasher- or
/// scheduling-order dependence cannot hide behind `jobs=1`.
#[test]
fn default_path_sweep_bytes_are_pinned() {
    for jobs in [1usize, 4] {
        let sweep = cg_uma_sweep("golden", jobs);
        check_golden("cg_uma_sweep.json", &sweep.to_json().to_pretty_string());
    }
}

/// The same sweep through the fit path the CLI, the figures and the
/// service share: r, the fitted parameters, the quality ledger and the
/// validation points. The sweep lacks the UMA protocol's n = 5, so this
/// also pins the fallback to every sweep point.
#[test]
fn default_path_fit_bytes_are_pinned() {
    let sweep = cg_uma_sweep("golden-fit", 2);
    let proto = FitProtocol::for_machine(&sweep.machine);
    let (fit, v) = fit_sweep(&proto, &sweep, None).expect("fit and validation");
    let body = offchip_json::json_obj! {
        "protocol" => proto.name,
        "params" => fit.model.params(),
        "fit_quality" => fit.quality,
        "validation" => v.points,
        "mean_relative_error" => v.mean_relative_error,
        "mean_absolute_error" => v.mean_absolute_error,
    };
    check_golden("cg_uma_fit.json", &body.to_pretty_string());
}

/// The FR-FCFS + first-touch ablation path: exercises the reordering
/// controller (deferred queues, starvation cap, per-bank selection), the
/// `waiters` table, and the `FirstTouch` page table — everything the
/// hot-path optimisations restructure.
#[test]
fn ablation_path_sweep_bytes_are_pinned() {
    let machine = machines::intel_numa_24().scaled(SCALE);
    let w = build_workload(ProgramSpec::Sp(ProblemClass::S), 24);
    let mut rows = Vec::new();
    for n in [1usize, 12, 24] {
        let mut cfg = SimConfig::new(machine.clone(), n);
        cfg.scheduler = McScheduler::FrFcfs;
        cfg.memory_policy = MemoryPolicy::FirstTouch;
        let r = run(w.as_ref(), &cfg);
        rows.push(offchip_json::json_obj! {
            "n" => n,
            "makespan" => r.makespan.cycles(),
            "total_cycles" => r.counters.total_cycles,
            "work_cycles" => r.counters.work_cycles,
            "llc_misses" => r.counters.llc_misses,
            "read_requests" => r.counters.read_requests,
            "write_requests" => r.counters.write_requests,
            "remote_requests" => r.counters.remote_requests,
            "row_hits" => r.mc_stats.iter().map(|s| s.row_hits).sum::<u64>(),
            "row_misses" => r.mc_stats.iter().map(|s| s.row_misses).sum::<u64>(),
        });
    }
    let body = offchip_json::Json::Arr(rows).to_pretty_string();
    check_golden("sp_numa_frfcfs_firsttouch.json", &body);
}

/// The FR-FCFS vs FCFS scheduler ablation itself: the relative ordering
/// (and the exact cycle counts feeding it) must survive the per-bank
/// queue restructuring.
#[test]
fn scheduler_ablation_bytes_are_pinned() {
    let machine = machines::intel_uma_8().scaled(SCALE);
    let w = build_workload(ProgramSpec::Sp(ProblemClass::W), 8);
    let mut rows = Vec::new();
    for (name, sched) in [
        ("FCFS", McScheduler::Fcfs),
        ("FR-FCFS", McScheduler::FrFcfs),
    ] {
        let mut cfg1 = SimConfig::new(machine.clone(), 1);
        cfg1.scheduler = sched;
        let mut cfg8 = SimConfig::new(machine.clone(), 8);
        cfg8.scheduler = sched;
        let c1 = run(w.as_ref(), &cfg1).counters.total_cycles;
        let c8 = run(w.as_ref(), &cfg8).counters.total_cycles;
        rows.push(offchip_json::json_obj! {
            "scheduler" => name,
            "c1" => c1,
            "c8" => c8,
        });
    }
    let body = offchip_json::Json::Arr(rows).to_pretty_string();
    check_golden("scheduler_ablation.json", &body);
}
