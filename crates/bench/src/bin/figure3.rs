//! Regenerates paper Fig. 3: CG.C's total cycles, stalled cycles, work
//! cycles and last-level cache misses as the active-core count sweeps,
//! on all three machines.
//!
//! The paper's three observations to look for in the output: (1) total
//! cycles grow non-uniformly, with per-processor growth intervals; (2) the
//! growth is stall-cycle growth; (3) work cycles and LLC misses stay
//! nearly constant.

use offchip_bench::report::timing_line;
use offchip_bench::{
    build_workload, persist_or_exit, seeds, Campaign, CampaignOptions, ExperimentResult,
    ProgramSpec, SweepTiming,
};
use offchip_npb::classes::ProblemClass;
use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};

fn main() {
    let (opts, jobs) = CampaignOptions::from_cli_or_exit("figure3");
    let campaign = Campaign::start_or_exit("figure3", &opts);
    let seeds = seeds();
    let mut total_timing = SweepTiming::zero(jobs);
    let quick = std::env::var("OFFCHIP_QUICK").is_ok_and(|v| v == "1");
    let machines = [
        machines::intel_uma_8().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::intel_numa_24().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::amd_numa_48().scaled(DEFAULT_EXPERIMENT_SCALE),
    ];

    let mut all = Vec::new();
    for machine in &machines {
        let total = machine.total_cores();
        let step = if quick { (total / 4).max(1) } else { 1 };
        let mut ns: Vec<usize> = (1..=total).step_by(step).collect();
        if *ns.last().unwrap() != total {
            ns.push(total);
        }
        let w = build_workload(ProgramSpec::Cg(ProblemClass::C), total);
        let (sweep, timing) = campaign
            .run_sweep(machine, w.as_ref(), &ns, &seeds, jobs)
            .expect("sweep")
            .expect_complete();
        total_timing.absorb(&timing);

        println!("Fig. 3 — CG.C on {}", machine.name);
        println!(
            "{:>4} {:>16} {:>16} {:>14} {:>12}",
            "n", "total cycles", "stall cycles", "work cycles", "LLC misses"
        );
        for p in &sweep.points {
            println!(
                "{:>4} {:>16.0} {:>16.0} {:>14.0} {:>12.0}",
                p.n, p.total_cycles, p.stall_cycles, p.work_cycles, p.llc_misses
            );
        }
        println!();
        all.push(sweep);
    }

    offchip_obs::info!("{}", timing_line("figure3", &total_timing));
    offchip_obs::info!("{}", campaign.status_line());
    let path = persist_or_exit(
        &ExperimentResult {
            id: "figure3".into(),
            paper_artifact: "Fig. 3: CG.C cycle breakdown vs active cores".into(),
            data: all,
        },
        opts.vfs_or_real(),
        Some(campaign.journal_path()),
    );
    eprintln!("wrote {}", path.display());
}
