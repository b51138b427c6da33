//! Regenerates paper Table II: normalised increase in the number of
//! cycles for the five NPB programs at small (W) and large (C) problem
//! sizes, on all three machines, at half and all cores.
//!
//! Paper values for reference (class C, all cores): EP 0.00/0.54/0.55,
//! IS 0.56/0.85/0.70, FT(B on UMA) 1.80/3.94/0.46, CG 2.41/3.31/1.91,
//! SP 7.05/11.59/9.84. As in the paper, FT uses class B on the UMA
//! machine ("FT.C working set size exceeds 4 GB and leads to swapping").

use offchip_bench::report::timing_line;
use offchip_bench::{
    build_workload, persist_or_exit, seeds, Campaign, CampaignOptions, ExperimentResult,
    ProgramSpec, SweepTiming,
};
use offchip_model::omega::normalized_increase;
use offchip_npb::classes::ProblemClass;
use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};

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
    let (opts, jobs) = CampaignOptions::from_cli_or_exit("table2");
    let campaign = Campaign::start_or_exit("table2", &opts);
    let seeds = seeds();
    let mut total_timing = SweepTiming::zero(jobs);
    let machines = [
        machines::intel_uma_8().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::intel_numa_24().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::amd_numa_48().scaled(DEFAULT_EXPERIMENT_SCALE),
    ];

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
                // FT.C → FT.B on the UMA machine, per the paper.
                let spec = match (base_spec, machine.total_mcs()) {
                    (ProgramSpec::Ft(ProblemClass::C), 1) => ProgramSpec::Ft(ProblemClass::B),
                    (s, _) => s,
                };
                let total = machine.total_cores();
                let w = build_workload(spec, total);
                // One three-point sweep, its (n, seed) grid fanned across
                // the worker pool; completed runs land in the campaign
                // journal, so an interrupted table resumes where it died.
                let (sweep, timing) = campaign
                    .run_sweep(machine, w.as_ref(), &[1, total / 2, total], &seeds, jobs)
                    .expect("sweep")
                    .expect_complete();
                total_timing.absorb(&timing);
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

    offchip_obs::info!("{}", timing_line("table2", &total_timing));
    offchip_obs::info!("{}", campaign.status_line());
    let path = persist_or_exit(
        &ExperimentResult {
            id: "table2".into(),
            paper_artifact: "Table II: normalised increase in number of cycles".into(),
            data: rows,
        },
        opts.vfs_or_real(),
        Some(campaign.journal_path()),
    );
    eprintln!("wrote {}", path.display());
}
