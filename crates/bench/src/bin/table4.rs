//! Regenerates paper Table IV: the colinearity goodness-of-fit R² of
//! `1/C(n)` vs `n` within the first processor, for six programs on the
//! three machines (`n = 1..4` on UMA, `1..12` on the NUMA machines).
//!
//! Paper values: R² is 0.94–1.00 for the contended programs (IS, FT, CG,
//! SP) and lower (0.81–0.91) for EP and x264, "confirming that the M/M/1
//! queueing model does not explain their behavior very well, because they
//! are bursty".

use offchip_bench::{build_workload, experiment_machines, Experiment, ProgramSpec};
use offchip_model::validation::colinearity_r2;
use offchip_npb::classes::ProblemClass;

struct Cell {
    program: String,
    machine: String,
    r_squared: f64,
}

impl offchip_json::ToJson for Cell {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "program" => self.program,
            "machine" => self.machine,
            "r_squared" => self.r_squared,
        }
    }
}

fn main() {
    let mut exp = Experiment::start("table4");
    // The paper's program set: EP.C, IS.C, FT.B, CG.C, SP.C, x264.native.
    let programs = [
        ProgramSpec::Ep(ProblemClass::C),
        ProgramSpec::Is(ProblemClass::C),
        ProgramSpec::Ft(ProblemClass::B),
        ProgramSpec::Cg(ProblemClass::C),
        ProgramSpec::Sp(ProblemClass::C),
        ProgramSpec::X264("native"),
    ];

    println!("TABLE IV — Colinearity goodness-of-fit R² of 1/C(n)");
    print!("{:<14}", "System");
    for p in &programs {
        print!(" {:>12}", p.name());
    }
    println!();

    let mut cells = Vec::new();
    for machine in &experiment_machines() {
        // Within-first-processor range: 1..4 on UMA, 1..12 on NUMA.
        let max_n = machine.domains_per_socket * machine.cores_per_domain;
        let ns: Vec<usize> = (1..=max_n).collect();
        print!("{:<14}", machine.name.split(':').next().unwrap_or(""));
        for &p in &programs {
            let w = build_workload(p, machine.total_cores());
            let r2 = exp
                .sweep(machine, w.as_ref(), &ns)
                .cycles_sweep()
                .ok()
                .and_then(|cycles| colinearity_r2(&cycles, max_n))
                .unwrap_or(0.0);
            print!(" {r2:>12.2}");
            cells.push(Cell {
                program: p.name(),
                machine: machine.name.clone(),
                r_squared: r2,
            });
        }
        println!();
    }

    exp.finish("Table IV: colinearity goodness-of-fit", cells);
}
