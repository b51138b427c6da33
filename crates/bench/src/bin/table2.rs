//! Regenerates paper Table II: normalised increase in the number of
//! cycles for the five NPB programs at small (W) and large (C) problem
//! sizes, on all three machines, at half and all cores.
//!
//! Paper values for reference (class C, all cores): EP 0.00/0.54/0.55,
//! IS 0.56/0.85/0.70, FT(B on UMA) 1.80/3.94/0.46, CG 2.41/3.31/1.91,
//! SP 7.05/11.59/9.84. As in the paper, FT uses class B on the UMA
//! machine ("FT.C working set size exceeds 4 GB and leads to swapping").

use offchip_bench::{build_workload, experiment_machines, Experiment, ProgramSpec};
use offchip_model::omega::normalized_increase;
use offchip_npb::classes::ProblemClass;

struct Row {
    program: String,
    size: char,
    machine: String,
    half_cores: f64,
    all_cores: f64,
}

impl offchip_json::ToJson for Row {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "program" => self.program,
            "size" => self.size,
            "machine" => self.machine,
            "half_cores" => self.half_cores,
            "all_cores" => self.all_cores,
        }
    }
}

fn main() {
    let mut exp = Experiment::start("table2");
    let machines = experiment_machines();

    println!("TABLE II — Normalised increase in number of cycles, small (W) and large (C) sizes");
    println!(
        "{:<8} {:<5} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
        "Program", "Size", "UMA n=4", "UMA n=8", "NUMA n=12", "NUMA n=24", "AMD n=24", "AMD n=48"
    );

    let mut rows: Vec<Row> = Vec::new();
    for class in [ProblemClass::W, ProblemClass::C] {
        for base_spec in ProgramSpec::npb_suite(class) {
            let mut cells = Vec::new();
            for machine in &machines {
                let spec = base_spec.on_table2_machine(machine);
                let total = machine.total_cores();
                let w = build_workload(spec, total);
                // One three-point sweep, its (n, seed) grid fanned across
                // the worker pool; completed runs land in the campaign
                // journal, so an interrupted table resumes where it died.
                let sweep = exp.sweep(machine, w.as_ref(), &[1, total / 2, total]);
                let c1 = sweep.points[0].total_cycles;
                let half = sweep.points[1].total_cycles;
                let full = sweep.points[2].total_cycles;
                let half_inc = normalized_increase(half.round() as u64, c1.round() as u64);
                let full_inc = normalized_increase(full.round() as u64, c1.round() as u64);
                cells.push((half_inc, full_inc));
                rows.push(Row {
                    program: spec.name(),
                    size: class.letter(),
                    machine: machine.name.clone(),
                    half_cores: half_inc,
                    all_cores: full_inc,
                });
            }
            println!(
                "{:<8} {:<5} {:>9.2} {:>9.2}   {:>9.2} {:>9.2}   {:>9.2} {:>9.2}",
                base_spec.name(),
                class.letter(),
                cells[0].0,
                cells[0].1,
                cells[1].0,
                cells[1].1,
                cells[2].0,
                cells[2].1
            );
        }
        println!();
    }

    exp.finish("Table II: normalised increase in number of cycles", rows);
}
