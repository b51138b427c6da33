//! Regenerates paper Fig. 4: burstiness of off-chip memory traffic —
//! `P(#requested cache lines > x)` per 5 µs sampler window, for CG at all
//! five problem classes and x264 at all four PARSEC inputs, on the Intel
//! NUMA machine with 24 threads on 24 cores.
//!
//! The paper's signature: small classes (CG.S/W, x264.sim*) show the
//! heavy-tailed diagonal of bursty traffic; large classes (CG.B/C) are
//! non-bursty — "the memory bandwidth is saturated and therefore there are
//! no significant time intervals without memory requests".

use std::time::Instant;

use offchip_bench::{
    build_workload, experiment_machine, persist_or_exit, sweep::run_sampled_bounded,
    CampaignOptions, ExperimentResult, ProgramSpec, EXIT_INTERRUPTED,
};
use offchip_npb::classes::ProblemClass;
use offchip_perf::BurstAnalysis;
use offchip_topology::machines::Preset;

struct Series {
    program: String,
    idle_fraction: f64,
    coefficient_of_variation: f64,
    verdict: String,
    /// `(burst size x, P(X > x))` points of the CCDF.
    ccdf: Vec<(u64, f64)>,
}

impl offchip_json::ToJson for Series {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "program" => self.program,
            "idle_fraction" => self.idle_fraction,
            "coefficient_of_variation" => self.coefficient_of_variation,
            "verdict" => self.verdict,
            "ccdf" => self.ccdf,
        }
    }
}

fn main() {
    let (opts, jobs) = CampaignOptions::from_cli_or_exit("figure4");
    let machine = experiment_machine(Preset::Numa);
    let n = machine.total_cores();

    let mut programs: Vec<ProgramSpec> = ProblemClass::ALL
        .iter()
        .map(|&c| ProgramSpec::Cg(c))
        .collect();
    for input in ["simsmall", "simmedium", "simlarge", "native"] {
        programs.push(ProgramSpec::X264(input));
    }

    println!(
        "Fig. 4 — burstiness of off-chip traffic ({}, {n} threads / {n} cores)",
        machine.name
    );
    // Fan the nine sampled runs across the worker pool; each worker builds
    // its own workload trace so nothing is shared mutably. Results come
    // back in program order, so the printed report is deterministic.
    let t0 = Instant::now();
    // scoped_try_map + the bounded runner: one panicking or wedged program
    // costs that program (reported below, exit 6), not the whole figure.
    let outcomes = offchip_pool::scoped_try_map(jobs, &programs, |_, &spec| {
        let w = build_workload(spec, n);
        let report = run_sampled_bounded(&machine, w.as_ref(), n, opts.deadline, opts.max_events)?;
        let windows = report.miss_windows.expect("sampler enabled");
        let analysis = BurstAnalysis::from_windows(&windows, 50);
        Ok::<_, offchip_machine::RunError>((spec, windows.len(), analysis))
    });
    let wall = t0.elapsed();
    let mut lost = 0usize;
    let mut analyses = Vec::new();
    for (outcome, &spec) in outcomes.into_iter().zip(&programs) {
        match outcome {
            Ok(Ok(a)) => analyses.push(a),
            Ok(Err(e)) => {
                offchip_obs::warn!("lost sampled run program={}: {e}", spec.name());
                lost += 1;
            }
            Err(panic) => {
                offchip_obs::warn!("lost sampled run program={}: {panic}", spec.name());
                lost += 1;
            }
        }
    }
    let mut series = Vec::new();
    for (spec, n_windows, analysis) in analyses {
        println!(
            "{:<16} windows={:<7} idle={:.2} CV={:>5.2} H={} verdict={:?}",
            spec.name(),
            n_windows,
            analysis.idle_fraction,
            analysis.cv.unwrap_or(0.0),
            analysis
                .hurst
                .map(|h| format!("{:.2}", h.h))
                .unwrap_or_else(|| "n/a".into()),
            analysis.verdict
        );
        // Print a log-spaced selection of the CCDF (the paper's axes).
        let plot = analysis.plot_series();
        for &x in &[1u64, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000] {
            let p = analysis.ccdf.exceedance(x);
            if p > 0.0 {
                println!("    P(burst > {x:>4}) = {p:.2e}");
            }
        }
        series.push(Series {
            program: spec.name(),
            idle_fraction: analysis.idle_fraction,
            coefficient_of_variation: analysis.cv.unwrap_or(0.0),
            verdict: format!("{:?}", analysis.verdict),
            ccdf: plot,
        });
    }

    // The Fig. 4 log-log plot: one marker per program.
    let markers = ['s', 'w', 'a', 'b', 'c', '1', '2', '3', '4'];
    let plot_series: Vec<offchip_bench::plot::Series> = series
        .iter()
        .zip(markers)
        .map(|(s, marker)| offchip_bench::plot::Series {
            label: s.program.clone(),
            marker,
            points: s.ccdf.iter().map(|&(x, p)| (x as f64, p)).collect(),
        })
        .collect();
    println!(
        "\nP(burst size > x) vs x, log-log (cf. paper Fig. 4):\n{}",
        offchip_bench::plot::loglog_plot(&plot_series, 70, 20)
    );

    offchip_obs::info!(
        "sweep timing [figure4]: {} sampled runs in {:.2} s wall ({:.1} runs/s, jobs={jobs})",
        plot_series.len(),
        wall.as_secs_f64(),
        plot_series.len() as f64 / wall.as_secs_f64().max(1e-9),
    );
    // figure4 runs no campaign (sampled runs are not journaled), so a
    // failed artefact write is a plain runtime error: exit 5, no resume.
    let path = persist_or_exit(
        &ExperimentResult {
            id: "figure4".into(),
            paper_artifact: "Fig. 4: burstiness of off-chip memory traffic".into(),
            data: series,
        },
        opts.vfs_or_real(),
        None,
    );
    eprintln!("wrote {}", path.display());
    if lost > 0 {
        offchip_obs::error!("figure4 interrupted: {lost} sampled run(s) lost — rerun to complete");
        std::process::exit(i32::from(EXIT_INTERRUPTED));
    }
}
