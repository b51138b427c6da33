//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Regression input points** (paper §V): the 3-point vs 4-point vs
//!    extended protocols on the Intel NUMA machine (paper: 14% vs 11%).
//! 2. **Homogeneous vs latency-weighted ρ** on the AMD machine (paper:
//!    "this degrades the prediction accuracy up to 25%" vs "<5%").
//! 3. **Memory-controller scheduler**: FCFS vs FR-FCFS — the contention
//!    shape is a queueing phenomenon, not a scheduling artefact.
//! 4. **Arrival burstiness vs M/M/1 fit** (the paper's core insight):
//!    the M/M/1 model fitted from the paper's input points predicts the
//!    full sweep of a Poisson-driven workload far better than that of
//!    Pareto-ON/OFF bursty traffic at the same mean rate — the mechanism
//!    behind Table IV's EP/x264 rows.
//! 5. **Page placement**: numactl-style interleave vs Linux first-touch —
//!    interleave produces the paper's sharp relief dip when the second
//!    controller activates.
//! 6. **Service discipline in the model** (paper §VI future work): fit the
//!    M/M/1 and M/D/1 (Pollaczek–Khinchine) variants to the same measured
//!    within-socket sweep and compare residuals.
//! 7. **Stream prefetching**: a next-line prefetcher hides latency for
//!    streaming programs at low core counts but cannot create bandwidth —
//!    under saturation the contention ratio survives prefetching.
//! 8. **Cache replacement policy**: LRU vs PLRU vs random — the off-chip
//!    request count (and hence ω) is a capacity phenomenon.

use offchip_bench::{build_workload, experiment_machines, Experiment, ProgramSpec, SweepResult};
use offchip_machine::{run, McScheduler, MemoryPolicy, Op, ProgramIter, SimConfig, Workload};
use offchip_model::mg1::compare_disciplines;
use offchip_model::{validate, validation::colinearity_r2, ContentionModel, FitProtocol};
use offchip_npb::classes::ProblemClass;
use offchip_simcore::{OnOffPareto, Poisson, Rng};

#[derive(Default)]
struct AblationSummary {
    protocol_errors: Vec<(String, f64)>,
    amd_rho_errors: Vec<(String, f64)>,
    scheduler_omega: Vec<(String, f64)>,
    burstiness_r2: Vec<(String, f64)>,
    placement_dip: Vec<(String, f64, f64)>,
    discipline_sse: Vec<(String, f64)>,
    prefetch_omega: Vec<(String, f64, f64)>,
    replacement_misses: Vec<(String, f64)>,
}

impl offchip_json::ToJson for AblationSummary {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "protocol_errors" => self.protocol_errors,
            "amd_rho_errors" => self.amd_rho_errors,
            "scheduler_omega" => self.scheduler_omega,
            "burstiness_r2" => self.burstiness_r2,
            "placement_dip" => self.placement_dip,
            "discipline_sse" => self.discipline_sse,
            "prefetch_omega" => self.prefetch_omega,
            "replacement_misses" => self.replacement_misses,
        }
    }
}

/// Runs the protocol-fit error chain on a sweep, tolerating corrupt
/// counters (NaN result, as the table renders missing cells).
///
/// This is the paper's plain fit on purpose, not `offchip_bench::fit_sweep`:
/// the ablations measure the error of the untrimmed protocol itself. The
/// robust path's outlier trimming and fallback would change what is
/// measured (quick mode: AMD {1,12,13,25,37} reads 414.5 % plain and
/// 595.7 % robust).
fn fit_error_of(proto: &FitProtocol, sweep: &SweepResult, absolute: bool) -> f64 {
    let Ok(r) = sweep.mean_misses() else {
        return f64::NAN;
    };
    let Ok(cycles) = sweep.cycles_sweep() else {
        return f64::NAN;
    };
    proto
        .inputs_from_sweep(&sweep.cycles_sweep_f64(), r)
        .ok()
        .and_then(|inputs| ContentionModel::fit(&inputs).ok())
        .and_then(|m| validate(&m, &cycles).ok())
        .and_then(|v| {
            if absolute {
                Some(v.mean_absolute_error)
            } else {
                v.mean_relative_error
            }
        })
        .unwrap_or(f64::NAN)
}

fn main() {
    let mut exp = Experiment::start("ablations");
    let mut summary = AblationSummary::default();
    let [uma, numa, amd] = experiment_machines();

    // ── 1. Regression input points (Intel NUMA, CG.C) ──────────────────
    println!("Ablation 1 — regression input points (Intel NUMA, CG.C)");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::C), numa.total_cores());
    let ns: Vec<usize> = (1..=numa.total_cores()).collect();
    let sweep = exp.sweep(&numa, w.as_ref(), &ns);
    for proto in [
        FitProtocol::intel_numa_three_point(),
        FitProtocol::intel_numa(),
        FitProtocol::intel_numa_extended(),
    ] {
        let err = fit_error_of(&proto, &sweep, false);
        println!(
            "  {:<28} mean relative error {:>5.1}%",
            proto.name,
            err * 100.0
        );
        summary.protocol_errors.push((proto.name.to_string(), err));
    }

    // ── 2. Homogeneous vs per-package ρ (AMD, CG.C) ─────────────────────
    println!("\nAblation 2 — homogeneous vs latency-weighted rho (AMD NUMA, CG.C)");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::C), amd.total_cores());
    let ns: Vec<usize> = (1..=amd.total_cores())
        .step_by(3)
        .chain([12, 13, 25, 37, 48])
        .collect();
    let mut ns = ns;
    ns.sort_unstable();
    ns.dedup();
    let sweep = exp.sweep(&amd, w.as_ref(), &ns);
    for proto in [FitProtocol::amd_numa(), FitProtocol::amd_numa_homogeneous()] {
        let err = fit_error_of(&proto, &sweep, false);
        println!(
            "  {:<34} mean relative error {:>5.1}%",
            proto.name,
            err * 100.0
        );
        summary.amd_rho_errors.push((proto.name.to_string(), err));
    }

    // ── 3. FCFS vs FR-FCFS scheduler (UMA, SP.C) ────────────────────────
    println!("\nAblation 3 — memory-controller scheduler (Intel UMA, SP.C)");
    let w = build_workload(ProgramSpec::Sp(ProblemClass::C), uma.total_cores());
    for (name, sched) in [
        ("FCFS", McScheduler::Fcfs),
        ("FR-FCFS", McScheduler::FrFcfs),
    ] {
        let omega_full = {
            let mut cfg1 = SimConfig::new(uma.clone(), 1);
            cfg1.scheduler = sched;
            let c1 = run(w.as_ref(), &cfg1).counters.total_cycles as f64;
            let mut cfg8 = SimConfig::new(uma.clone(), 8);
            cfg8.scheduler = sched;
            let c8 = run(w.as_ref(), &cfg8).counters.total_cycles as f64;
            (c8 - c1) / c1
        };
        println!("  {name:<8} omega(8) = {omega_full:.2}");
        summary.scheduler_omega.push((name.to_string(), omega_full));
    }

    // ── 4. Burstiness vs M/M/1 model accuracy ───────────────────────────
    println!("\nAblation 4 — arrival burstiness vs M/M/1 accuracy (synthetic, Intel UMA)");
    for (name, bursty) in [
        ("Poisson arrivals", false),
        ("Pareto ON/OFF arrivals", true),
    ] {
        // Offered load ≈ 60% of the controller's random-row service rate
        // at full cores: the mid-utilisation regime where queueing models
        // differ (both extremes — idle and saturation — look alike).
        let w = SyntheticTraffic {
            threads: 8,
            accesses_per_thread: 12_000,
            mean_gap: 660,
            bursty,
        };
        let ns: Vec<usize> = (1..=8).collect();
        let sweep = exp.sweep(&uma, &w, &ns);
        let r2 = sweep
            .cycles_sweep()
            .ok()
            .and_then(|cycles| colinearity_r2(&cycles, 4))
            .unwrap_or(0.0);
        // ω sits near zero in this regime, so relative error is
        // meaningless; compare in absolute ω units (cf. the paper only
        // quoting percentages "for problems with large contention").
        let err = fit_error_of(&FitProtocol::intel_uma(), &sweep, true);
        println!("  {name:<24} colinearity R² = {r2:.3}, model error {err:.3} omega units");
        summary.burstiness_r2.push((name.to_string(), err));
    }

    // ── 5. Page placement (Intel NUMA, CG.C): the dip at n = 13 ────────
    println!("\nAblation 5 — page placement and the relief dip (Intel NUMA, CG.C)");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::C), numa.total_cores());
    for (name, policy) in [
        ("interleave-active", MemoryPolicy::InterleaveActive),
        ("first-touch", MemoryPolicy::FirstTouch),
    ] {
        let omega_at = |n: usize| {
            let mut cfg = SimConfig::new(numa.clone(), n);
            cfg.memory_policy = policy;
            run(w.as_ref(), &cfg).counters.total_cycles as f64
        };
        let c1 = omega_at(1);
        let w12 = (omega_at(12) - c1) / c1;
        let w13 = (omega_at(13) - c1) / c1;
        println!(
            "  {name:<20} omega(12) = {w12:.2}  omega(13) = {w13:.2}  dip = {:.2}",
            w12 - w13
        );
        summary.placement_dip.push((name.to_string(), w12, w13));
    }

    // ── 6. Service discipline: M/M/1 vs M/D/1 on the measured sweep ────
    println!("\nAblation 6 — service discipline of the queueing model (Intel UMA, CG.C)");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::C), uma.total_cores());
    let ns: Vec<usize> = (1..=4).collect();
    let sweep = exp.sweep(&uma, w.as_ref(), &ns);
    let r = sweep.mean_misses().expect("finite misses");
    match compare_disciplines(&sweep.cycles_sweep_f64(), r) {
        Ok((mm1, md1)) => {
            println!(
                "  M/M/1 (cs^2 = 1): S = {:.1} cyc, L = {:.2e}, residual SSE {:.2e}",
                mm1.s, mm1.l, mm1.sse
            );
            println!(
                "  M/D/1 (cs^2 = 0): S = {:.1} cyc, L = {:.2e}, residual SSE {:.2e}",
                md1.s, md1.l, md1.sse
            );
            summary.discipline_sse.push(("M/M/1".into(), mm1.sse));
            summary.discipline_sse.push(("M/D/1".into(), md1.sse));
        }
        Err(e) => println!("  discipline comparison failed: {e}"),
    }

    // ── 7. Stream prefetching (Intel UMA, IS.C — the streaming kernel) ──
    println!("\nAblation 7 — next-line stream prefetching (Intel UMA, IS.C)");
    let w = build_workload(ProgramSpec::Is(ProblemClass::C), uma.total_cores());
    for (name, degree) in [("no prefetch", 0usize), ("degree 4", 4)] {
        let c_at = |n: usize| {
            let mut cfg = SimConfig::new(uma.clone(), n);
            cfg.prefetch_degree = degree;
            run(w.as_ref(), &cfg)
        };
        let r1 = c_at(1);
        let r8 = c_at(8);
        let omega = (r8.counters.total_cycles as f64 - r1.counters.total_cycles as f64)
            / r1.counters.total_cycles as f64;
        println!(
            "  {name:<12} C(1) = {:>12}  omega(8) = {omega:.2}  ({} prefetches at n=1)",
            r1.counters.total_cycles, r1.counters.prefetch_requests
        );
        summary
            .prefetch_omega
            .push((name.to_string(), r1.counters.total_cycles as f64, omega));
    }

    // ── 8. Cache replacement policy (Intel UMA, CG.C) ───────────────────
    println!("\nAblation 8 — LLC replacement policy (Intel UMA, CG.C, n=8)");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::C), uma.total_cores());
    let mut lru_misses = 0.0;
    for (name, policy) in [
        ("LRU", offchip_cache::ReplacementPolicy::Lru),
        ("tree-PLRU", offchip_cache::ReplacementPolicy::TreePlru),
        ("random", offchip_cache::ReplacementPolicy::Random),
    ] {
        let mut cfg = SimConfig::new(uma.clone(), 8);
        cfg.replacement = policy;
        let r = run(w.as_ref(), &cfg);
        let misses = r.counters.llc_misses as f64;
        if name == "LRU" {
            lru_misses = misses;
        }
        println!(
            "  {name:<10} LLC misses = {misses:>10.0}  ({:+.1}% vs LRU)",
            (misses - lru_misses) / lru_misses * 100.0
        );
        summary.replacement_misses.push((name.to_string(), misses));
    }

    exp.finish("Design-choice ablations (DESIGN.md section 5)", summary);
}

/// A synthetic always-missing traffic source with configurable arrival
/// burstiness, used by ablation 4.
struct SyntheticTraffic {
    threads: usize,
    accesses_per_thread: u64,
    /// Mean inter-arrival gap in cycles.
    mean_gap: u64,
    bursty: bool,
}

impl Workload for SyntheticTraffic {
    fn name(&self) -> String {
        format!(
            "synthetic.{}",
            if self.bursty { "onoff" } else { "poisson" }
        )
    }

    fn n_threads(&self) -> usize {
        self.threads
    }

    fn thread_program(&self, thread: usize, seed: u64) -> Box<dyn ProgramIter> {
        Box::new(SyntheticStream {
            remaining: self.accesses_per_thread,
            next_addr: (thread as u64 + 1) << 33, // private, never-reused region
            rng: Rng::new(seed ^ 0xABCD),
            poisson: Poisson::new(1.0 / self.mean_gap as f64),
            onoff: self.bursty.then(|| {
                // Heavy-tailed bursts far larger than the MSHR window, at
                // a mean rate matching `mean_gap` (burst mean 130 arrivals
                // every ~3.5·37·mean_gap cycles of OFF time).
                OnOffPareto::new(40.0, 1.3, 37.0 * self.mean_gap as f64, 1.4, 2)
            }),
            emit_access: false,
        })
    }
}

struct SyntheticStream {
    remaining: u64,
    next_addr: u64,
    rng: Rng,
    poisson: Poisson,
    onoff: Option<OnOffPareto>,
    emit_access: bool,
}

impl ProgramIter for SyntheticStream {
    fn next_op(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        if self.emit_access {
            self.emit_access = false;
            self.remaining -= 1;
            let addr = self.next_addr;
            self.next_addr += 4160; // fresh page, bank-mixing stride
            return Some(Op::Access {
                addr,
                write: false,
                // Offered load is set by the arrival process; MSHRs absorb
                // the bursts the way real cores do.
                dependent: false,
                compute: 0,
            });
        }
        let gap = match &mut self.onoff {
            Some(src) => src.next_gap(&mut self.rng),
            None => self.poisson.next_gap(&mut self.rng),
        };
        self.emit_access = true;
        Some(Op::Compute {
            cycles: gap,
            instructions: gap,
        })
    }
}
