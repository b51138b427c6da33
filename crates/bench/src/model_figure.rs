//! Shared driver for the model-validation figures (paper Figs. 5 and 6):
//! sweep a program on every machine, fit the analytical model with the
//! paper's per-machine input points, validate against the sweep, print
//! the measured-vs-modelled ω series and persist them as JSON.

use crate::{build_workload, experiment_machine, fit_sweep, Experiment, ProgramSpec};
use offchip_model::FitProtocol;
use offchip_topology::machines::Preset;

struct FigureSeries {
    machine: String,
    protocol: String,
    /// `(n, measured ω, modelled ω)`.
    points: Vec<(usize, f64, f64)>,
    mean_relative_error: Option<f64>,
    mean_absolute_error: f64,
    fit_quality: String,
}

impl offchip_json::ToJson for FigureSeries {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "machine" => self.machine,
            "protocol" => self.protocol,
            "points" => self.points,
            "mean_relative_error" => self.mean_relative_error,
            "mean_absolute_error" => self.mean_absolute_error,
            "fit_quality" => self.fit_quality,
        }
    }
}

/// Runs the figure for `program`, printing and persisting the series.
/// Parses the campaign flags (`--resume`, `--deadline`, ...) from the
/// process's own command line, so the figure binaries get crash-safe
/// journaling for free.
pub fn run_figure(program: ProgramSpec, figure_id: &str, artifact: &str) {
    let mut exp = Experiment::start(figure_id);

    let mut all = Vec::new();
    for preset in Preset::ALL {
        let machine = experiment_machine(preset);
        let total = machine.total_cores();
        let mut protocols = vec![FitProtocol::for_machine(&machine.name)];
        match preset {
            Preset::Numa => protocols.push(FitProtocol::intel_numa_extended()),
            // The per-package ρ protocol overfits this substrate's deep
            // controller-activation relief dips; the pooled least-squares
            // ρ (the paper's "derived from linear regression" reading)
            // averages the sawtooth out. Report both.
            Preset::Amd => protocols.push(FitProtocol::amd_numa_homogeneous()),
            Preset::Uma => {}
        }
        // Sweep every n (the fit points are a subset), stepping in quick
        // mode but always including the protocols' input cores.
        let step = if exp.quick() { (total / 6).max(1) } else { 1 };
        let mut ns: Vec<usize> = (1..=total).step_by(step).collect();
        for p in &protocols {
            ns.extend(p.input_cores.iter().copied());
        }
        if !ns.contains(&total) {
            ns.push(total);
        }
        ns.sort_unstable();
        ns.dedup();

        let w = build_workload(program, total);
        let sweep = exp.sweep(&machine, w.as_ref(), &ns);
        for proto in protocols {
            let (robust, v) = match fit_sweep(&proto, &sweep, None) {
                Ok(fit) => fit,
                Err(e) => {
                    println!("{}: {e}", machine.name);
                    continue;
                }
            };
            println!(
                "{figure_id} — {} on {} (inputs {})",
                program.name(),
                machine.name,
                proto.name
            );
            println!("{:>4} {:>12} {:>12}", "n", "measured ω", "model ω");
            for &(n, m, p) in &v.points {
                println!("{n:>4} {m:>12.2} {p:>12.2}");
            }
            let plot = crate::plot::linear_plot(
                &[
                    crate::plot::Series {
                        label: "measured".into(),
                        marker: '*',
                        points: v.points.iter().map(|&(n, m, _)| (n as f64, m)).collect(),
                    },
                    crate::plot::Series {
                        label: "model".into(),
                        marker: 'o',
                        points: v.points.iter().map(|&(n, _, p)| (n as f64, p)).collect(),
                    },
                ],
                60,
                16,
            );
            println!("{plot}");
            match v.mean_relative_error {
                Some(e) => println!("  mean relative error: {:.1}%", e * 100.0),
                None => println!("  mean relative error: n/a (no contention measured)"),
            }
            println!(
                "  mean absolute error: {:.3} omega units",
                v.mean_absolute_error
            );
            println!("  fit quality: {}", robust.quality);
            println!();
            all.push(FigureSeries {
                machine: machine.name.clone(),
                protocol: proto.name.to_string(),
                points: v.points.clone(),
                mean_relative_error: v.mean_relative_error,
                mean_absolute_error: v.mean_absolute_error,
                fit_quality: robust.quality.to_string(),
            });
        }
    }

    exp.finish(artifact, all);
}
