//! Regenerates paper Fig. 3: CG.C's total cycles, stalled cycles, work
//! cycles and last-level cache misses as the active-core count sweeps,
//! on all three machines.
//!
//! The paper's three observations to look for in the output: (1) total
//! cycles grow non-uniformly, with per-processor growth intervals; (2) the
//! growth is stall-cycle growth; (3) work cycles and LLC misses stay
//! nearly constant.

use offchip_bench::{build_workload, experiment_machines, Experiment, ProgramSpec};
use offchip_npb::classes::ProblemClass;

fn main() {
    let mut exp = Experiment::start("figure3");

    let mut all = Vec::new();
    for machine in &experiment_machines() {
        let total = machine.total_cores();
        let step = if exp.quick() { (total / 4).max(1) } else { 1 };
        let mut ns: Vec<usize> = (1..=total).step_by(step).collect();
        if *ns.last().unwrap() != total {
            ns.push(total);
        }
        let w = build_workload(ProgramSpec::Cg(ProblemClass::C), total);
        let sweep = exp.sweep(machine, w.as_ref(), &ns);

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

    exp.finish("Fig. 3: CG.C cycle breakdown vs active cores", all);
}
