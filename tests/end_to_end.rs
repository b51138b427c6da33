//! Cross-crate integration tests: full measure → fit → validate pipelines
//! spanning the simulator, workloads, counters and the analytical model.
//!
//! Sweep-shaped tests fan their independent runs through `offchip-pool`,
//! which keeps every sweep deterministic (input-order results) while the
//! whole test binary shares one process-global worker budget.

use offchip::prelude::*;

const SCALE: f64 = 1.0 / 64.0;

fn pool_jobs() -> usize {
    offchip_pool::resolve_jobs(None).expect("OFFCHIP_JOBS")
}

/// Measures `workload` at each core count, fanned across the shared
/// worker pool; results come back in `ns` order so the returned sweep
/// (and the trailing "misses from the last run" value) is byte-identical
/// to the old serial loop.
fn sweep(workload: &dyn Workload, machine: &MachineSpec, ns: &[usize]) -> (Vec<(usize, u64)>, f64) {
    let reports = offchip_pool::scoped_map(pool_jobs(), ns, |_, &n| {
        run(workload, &SimConfig::new(machine.clone(), n))
    });
    let misses = reports
        .last()
        .map(|r| r.counters.llc_misses.max(1) as f64)
        .unwrap_or(1.0);
    let out = ns
        .iter()
        .zip(&reports)
        .map(|(&n, r)| (n, r.counters.total_cycles))
        .collect();
    (out, misses)
}

#[test]
fn paper_pipeline_on_uma() {
    // Measure CG.C on the UMA machine, fit the paper's 3-point protocol,
    // and require the model to track the unseen sweep points within 35%
    // (the paper achieves 6% on real hardware; our substrate diverges more
    // — see EXPERIMENTS.md — but the pipeline must stay in that band).
    let machine = machines::intel_uma_8().scaled(SCALE);
    let w = traces::cg::workload(ProblemClass::C, SCALE, 8);
    let ns: Vec<usize> = (1..=8).collect();
    let (cycles, misses) = sweep(&w, &machine, &ns);
    let sweep_f: Vec<(usize, f64)> = cycles.iter().map(|&(n, c)| (n, c as f64)).collect();
    let inputs = FitProtocol::intel_uma()
        .inputs_from_sweep(&sweep_f, misses)
        .expect("protocol points present");
    let model = ContentionModel::fit(&inputs).expect("fit");
    let v = validate(&model, &cycles).expect("baseline present");
    let err = v.mean_relative_error.expect("contended program");
    assert!(err < 0.35, "mean relative error {err:.2} out of band");
    // The model must reproduce its own input points exactly-ish.
    for &(n, _) in &inputs.points {
        let (_, measured, predicted) = v.points.iter().find(|p| p.0 == n).unwrap();
        assert!(
            (measured - predicted).abs() < 0.05,
            "input point n={n} not interpolated: {measured} vs {predicted}"
        );
    }
}

#[test]
fn contention_ordering_matches_table_2() {
    // Class C on the UMA machine, full cores: SP > CG > IS > EP (paper
    // Table II's ordering; FT checked separately since the paper switches
    // it to class B on this machine). The whole 4-workload × {1, 8}-core
    // grid — eight independent runs dominated by the n = 8 class-C
    // simulations — fans across the pool in one map instead of running
    // the workloads back to back.
    let machine = machines::intel_uma_8().scaled(SCALE);
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(traces::sp::workload(ProblemClass::C, SCALE, 8)),
        Box::new(traces::cg::workload(ProblemClass::C, SCALE, 8)),
        Box::new(traces::is::workload(ProblemClass::C, SCALE, 8)),
        Box::new(traces::ep::workload(ProblemClass::C, SCALE, 8)),
    ];
    // Expensive full-core runs first so workers overlap them instead of
    // leaving the longest simulation as a serial tail.
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .map(|w| (w, 8))
        .chain((0..workloads.len()).map(|w| (w, 1)))
        .collect();
    let cycles = offchip_pool::scoped_map(pool_jobs(), &grid, |_, &(w, n)| {
        run(workloads[w].as_ref(), &SimConfig::new(machine.clone(), n))
            .counters
            .total_cycles
    });
    let omega_of = |w: usize| degree_of_contention(cycles[w], cycles[workloads.len() + w]);
    let (sp, cg, is, ep) = (omega_of(0), omega_of(1), omega_of(2), omega_of(3));
    assert!(
        sp > cg && cg > is && is > ep,
        "ordering violated: SP {sp:.2} CG {cg:.2} IS {is:.2} EP {ep:.2}"
    );
    assert!(sp > 4.0, "SP.C must show severe contention, got {sp:.2}");
    assert!(ep.abs() < 0.3, "EP.C must show none, got {ep:.2}");
}

#[test]
fn small_classes_low_contention_everywhere() {
    // Paper: "Small problem size W generates very small increase in number
    // of cycles, even on large number of cores."
    let machine = machines::intel_uma_8().scaled(SCALE);
    for w in [
        traces::cg::workload(ProblemClass::W, SCALE, 8),
        traces::ep::workload(ProblemClass::W, SCALE, 8),
    ] {
        let (s, _) = sweep(&w, &machine, &[1, 8]);
        let omega = degree_of_contention(s[1].1, s[0].1);
        assert!(omega < 0.8, "{}: omega(8) = {omega:.2}", w.name());
    }
}

#[test]
fn numa_second_controller_gives_relief() {
    // Paper Fig. 5b: "when the thirteenth core is activated ... the memory
    // controller of processor two takes over a fraction of the memory
    // requests from processor one controller, reducing the contention."
    // The relief is a property of page placement: interleave spreads the
    // pages over both controllers once a second socket is active, while
    // under first-touch they stay where the first touches put them, so ω
    // keeps rising (ablation 5).
    let machine = machines::intel_numa_24().scaled(SCALE);
    let w = traces::cg::workload(ProblemClass::C, SCALE, 24);
    let policies = [MemoryPolicy::InterleaveActive, MemoryPolicy::FirstTouch];
    let runs: Vec<(MemoryPolicy, usize)> = policies
        .iter()
        .flat_map(|&p| [1, 12, 13].map(|n| (p, n)))
        .collect();
    let cycles = offchip_pool::scoped_map(pool_jobs(), &runs, |_, &(policy, n)| {
        let mut cfg = SimConfig::new(machine.clone(), n);
        cfg.memory_policy = policy;
        run(&w, &cfg).counters.total_cycles
    });
    for (policy, c) in policies.iter().zip(cycles.chunks(3)) {
        let w12 = degree_of_contention(c[1], c[0]);
        let w13 = degree_of_contention(c[2], c[0]);
        let relief = w13 < w12;
        assert_eq!(
            relief,
            *policy == MemoryPolicy::InterleaveActive,
            "{policy:?}: relief at n=13 is {relief}, expected only under interleave: \
             omega(12)={w12:.2} omega(13)={w13:.2}"
        );
    }
}

#[test]
fn work_cycles_and_misses_constant_in_core_count() {
    // Paper Fig. 3's observations 2 and 3.
    let machine = machines::intel_numa_24().scaled(SCALE);
    let w = traces::cg::workload(ProblemClass::B, SCALE, 24);
    let r1 = run(&w, &SimConfig::new(machine.clone(), 1));
    let r24 = run(&w, &SimConfig::new(machine, 24));
    let work_drift = (r24.counters.work_cycles as f64 - r1.counters.work_cycles as f64).abs()
        / r1.counters.work_cycles as f64;
    assert!(work_drift < 0.02, "work cycles drifted {work_drift:.3}");
    let miss_drift = (r24.counters.llc_misses as f64 - r1.counters.llc_misses as f64).abs()
        / r1.counters.llc_misses as f64;
    assert!(miss_drift < 0.2, "LLC misses drifted {miss_drift:.3}");
    // And the cycle growth is stall growth.
    assert!(r24.counters.stall_cycles > r1.counters.stall_cycles);
}

#[test]
fn burstiness_depends_on_problem_size() {
    // The paper's headline observation, end to end through the sampler.
    let machine = machines::intel_numa_24().scaled(SCALE);
    let verdict = |class: ProblemClass| {
        let w = traces::cg::workload(class, SCALE, 24);
        let cfg = SimConfig::new(machine.clone(), 24).with_sampler_5us_scaled();
        let r = run(&w, &cfg);
        BurstAnalysis::from_windows(&r.miss_windows.unwrap(), 50).verdict
    };
    assert_eq!(verdict(ProblemClass::W), BurstVerdict::Bursty);
    assert_eq!(verdict(ProblemClass::C), BurstVerdict::NonBursty);
}

#[test]
fn colinearity_separates_contended_from_bursty_programs() {
    // Table IV's diagnostic, on the UMA machine (n = 1..4).
    let machine = machines::intel_uma_8().scaled(SCALE);
    let ns: Vec<usize> = (1..=4).collect();
    let r2_of = |w: &dyn Workload| {
        let (s, _) = sweep(w, &machine, &ns);
        offchip::model::colinearity_r2(&s, 4).unwrap()
    };
    let contended = r2_of(&traces::sp::workload(ProblemClass::C, SCALE, 8));
    assert!(contended > 0.8, "SP.C colinearity {contended:.2}");
}

#[test]
fn papiex_report_renders_for_a_real_run() {
    let machine = machines::amd_numa_48().scaled(SCALE);
    let w = traces::is::workload(ProblemClass::W, SCALE, 48);
    let r = run(&w, &SimConfig::new(machine, 12));
    let report = offchip::perf::papiex::papiex_report_default(&r);
    assert!(report.contains("IS.W"));
    assert!(report.contains("L3_CACHE_MISSES"), "AMD uses the L3 event");
    assert!(report.contains("mc7:"), "all eight controllers reported");
}

#[test]
fn deterministic_end_to_end() {
    let machine = machines::intel_uma_8().scaled(SCALE);
    let w = traces::ft::workload(ProblemClass::A, SCALE, 8);
    let a = run(&w, &SimConfig::new(machine.clone(), 6));
    let b = run(&w, &SimConfig::new(machine.clone(), 6));
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.makespan, b.makespan);
    // And through the pool: fanning the same configuration out twice
    // must reproduce the single-threaded counters run for run.
    let pooled = offchip_pool::scoped_map(4, &[6usize, 6], |_, &n| {
        run(&w, &SimConfig::new(machine.clone(), n)).counters
    });
    assert_eq!(pooled[0], a.counters);
    assert_eq!(pooled[1], a.counters);
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // The sweep engine's headline contract: `Campaign::run_sweep` must
    // serialize to exactly the bytes the serial `run_sweep` reference
    // produces — same seeds, same per-point means, same f64 fold order —
    // whatever the worker count. This is what lets `OFFCHIP_JOBS` vary
    // freely across CI and laptops without perturbing a single committed
    // artifact.
    let machine = machines::intel_uma_8().scaled(SCALE);
    let w = traces::cg::workload(ProblemClass::W, SCALE, 8);
    let ns = [1usize, 2, 4, 8];
    let seeds = [7u64, 11, 13];
    use offchip_json::ToJson;
    let serial = offchip_bench::run_sweep(&machine, &w, &ns, &seeds).expect("serial sweep");
    let dir = std::env::temp_dir().join(format!("offchip-e2e-jobs-{}", std::process::id()));
    let opts = offchip_bench::CampaignOptions {
        journal_dir: Some(dir.clone()),
        ..offchip_bench::CampaignOptions::default()
    };
    for jobs in [1usize, 4] {
        let campaign = offchip_bench::Campaign::start("jobs", &opts).expect("open journal");
        let cs = campaign
            .run_sweep(&machine, &w, &ns, &seeds, jobs)
            .expect("campaign sweep");
        assert!(cs.errors.is_empty(), "jobs={jobs}: {:?}", cs.errors);
        assert_eq!((cs.executed, cs.resumed), (ns.len() * seeds.len(), 0));
        assert_eq!(
            serial.to_json().to_pretty_string(),
            cs.sweep.to_json().to_pretty_string(),
            "jobs={jobs} diverged from the serial reference"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
