//! Quickstart: measure and model memory contention in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs CG.C on the scaled Intel UMA machine at every core count,
//! prints the paper's headline quantities — total/stall cycles and the
//! degree of contention ω(n) — then fits the analytical model from three
//! measured points (the paper's protocol) and compares its predictions
//! with the measurements it has never seen.

use offchip::prelude::*;

fn main() {
    let scale = 1.0 / 64.0;
    let machine = machines::intel_uma_8().scaled(scale);
    let total_cores = machine.total_cores();

    // The program is partitioned into one thread per machine core, fixed,
    // while the active-core count varies — the paper's protocol.
    let workload = traces::cg::workload(ProblemClass::C, scale, total_cores);

    println!("== measuring CG.C on {} ==", machine.name);
    let mut sweep: Vec<(usize, u64)> = Vec::new();
    let mut llc_misses = 0.0;
    for n in 1..=total_cores {
        let report = run(&workload, &SimConfig::new(machine.clone(), n));
        sweep.push((n, report.counters.total_cycles));
        llc_misses += report.counters.llc_misses as f64;
        println!(
            "  n={n}: C(n) = {:>12} cycles, stalls = {:>12}, LLC misses = {}",
            report.counters.total_cycles, report.counters.stall_cycles, report.counters.llc_misses
        );
    }

    println!("\n== degree of memory contention (paper eq. 4) ==");
    for (n, omega) in omega_series(&sweep) {
        println!("  omega({n}) = {omega:.2}");
    }

    println!("\n== analytical model fitted from C(1), C(4), C(5) (paper section V) ==");
    let protocol = FitProtocol::intel_uma();
    let sweep_f: Vec<(usize, f64)> = sweep.iter().map(|&(n, c)| (n, c as f64)).collect();
    // r is the sweep's mean miss count, the rule `offchip fit` follows.
    let r = llc_misses / total_cores as f64;
    let inputs = protocol
        .inputs_from_sweep(&sweep_f, r)
        .expect("protocol points present");
    let model = ContentionModel::fit(&inputs).expect("model fit");
    println!(
        "  recovered M/M/1 parameters: mu = {:.4e} req/cycle, L = {:.4e} req/cycle/core",
        model.mm1().mu(),
        model.mm1().l()
    );
    if let Some(pole) = model.mm1().saturation_cores() {
        println!("  saturation pole: {pole:.1} cores");
    }
    let validation = validate(&model, &sweep).expect("baseline present");
    for (n, measured, predicted) in &validation.points {
        println!("  n={n}: measured omega {measured:>5.2} vs model {predicted:>5.2}");
    }
    if let Some(err) = validation.mean_relative_error {
        println!("  mean relative error: {:.1}%", err * 100.0);
    }
}
