//! Performance regression harness: times the Table II reference sweep.
//!
//! Runs the exact grid `table2` runs — five NPB programs × {W, C} × three
//! machines, a three-point core sweep each — and reports wall-clock time,
//! runs/s and simulator events/s, writing the result to `BENCH_sim.json`.
//! The committed copy of that file is the performance trajectory of the
//! repo: one point per optimisation PR, kept as an append-only `history`
//! array of `(git, events_per_sec, norm_events_per_iter)` points (schema
//! 2) so the whole trajectory survives each rewrite of the file. A run
//! carries forward the history of its `--check` baseline (or of the
//! existing `--out` file) and appends itself, unless `git describe` marks
//! the tree dirty: then the history is carried over unchanged.
//!
//! Wall-clock seconds are not comparable across hosts (or even across CI
//! runner generations), so the file also records a *calibration rate* — a
//! fixed pure-integer spin timed on the same host, immediately before the
//! sweep — and the regression gate compares the dimensionless ratio
//! `events_per_sec / calib_rate` (simulator events retired per
//! calibration iteration). That cancels raw host speed while preserving
//! changes in simulator work-per-event.
//!
//! ```text
//! perfstat [--jobs N] [--out PATH] [--check BASELINE]
//! ```
//!
//! `--check` exits non-zero when normalised throughput regressed more
//! than 25 % against the baseline file — generous enough for shared-CI
//! noise on top of the calibration, tight enough to catch a real hot-path
//! regression. `OFFCHIP_QUICK=1` shrinks the run for CI smoke use.

use offchip_bench::{
    build_workload, jobs, perfcal, run_sweep_timed, seeds, ProgramSpec, SweepTiming,
};
use offchip_json::{json_obj, Json, ToJson};
use offchip_npb::classes::ProblemClass;
use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};

/// How far normalised throughput may drop below the baseline before
/// `--check` fails the run.
const REGRESSION_TOLERANCE: f64 = 0.25;

struct ConfigTiming {
    program: String,
    machine: String,
    wall_s: f64,
    events: u64,
}

impl ToJson for ConfigTiming {
    fn to_json(&self) -> Json {
        json_obj! {
            "program" => self.program,
            "machine" => self.machine,
            "wall_s" => self.wall_s,
            "events" => self.events,
        }
    }
}

/// Bad command line: print the complaint and usage, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("perfstat: {msg}");
    eprintln!("usage: perfstat [--jobs N] [--out PATH] [--check BASELINE]");
    std::process::exit(2);
}

/// Runtime failure (I/O, baseline unreadable): print and exit 5,
/// matching the CLI exit-code contract.
fn runtime_exit(msg: &str) -> ! {
    offchip_obs::error!("perfstat: {msg}");
    std::process::exit(5);
}

fn parse_args() -> (Option<usize>, String, Option<String>) {
    let mut jobs_override = None;
    let mut out = "BENCH_sim.json".to_string();
    let mut check = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage_exit("--jobs needs a value"));
                jobs_override = Some(
                    v.parse()
                        .unwrap_or_else(|e| usage_exit(&format!("--jobs: {e}"))),
                );
            }
            "--out" => {
                out = args.next().unwrap_or_else(|| usage_exit("--out needs a path"));
            }
            "--check" => {
                check = Some(
                    args.next()
                        .unwrap_or_else(|| usage_exit("--check needs a baseline path")),
                );
            }
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }
    (jobs_override, out, check)
}

fn normalised_throughput(doc: &Json) -> Option<f64> {
    let ev = doc.get("events_per_sec")?.as_f64()?;
    let cal = doc.get("calib_rate")?.as_f64()?;
    perfcal::normalised_throughput(ev, cal)
}

/// The baseline's normalised throughput for the gate: the latest point
/// of a schema-2 `history` trajectory, falling back to the top-level
/// fields of a schema-1 file.
fn baseline_norm(doc: &Json) -> Option<f64> {
    doc.get("history")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::last)
        .and_then(|p| p.get("norm_events_per_iter"))
        .and_then(Json::as_f64)
        .or_else(|| normalised_throughput(doc))
}

/// The trajectory to append this run to: the `--check` baseline's
/// history when a baseline is given (the committed file is the
/// authoritative trajectory), else whatever a previous run left in the
/// `--out` file. A schema-1 document (no `history`) yields an empty
/// trajectory rather than an error, so the first schema-2 run upgrades
/// the file in place.
fn prior_history(baseline: Option<&Json>, out_path: &str) -> Vec<Json> {
    let history = |doc: &Json| doc.get("history").and_then(Json::as_arr).map(<[Json]>::to_vec);
    if let Some(doc) = baseline {
        return history(doc).unwrap_or_default();
    }
    offchip_json::atomic::read_to_string(std::path::Path::new(out_path))
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .as_ref()
        .and_then(history)
        .unwrap_or_default()
}

/// The revision label stamped into a trajectory point: `git describe
/// --always --dirty`, or `"unknown"` when the tree is not a git checkout
/// (perfstat must keep working from an exported tarball).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether a run labelled `git` may append a trajectory point. A
/// `--dirty` label names no revision anyone can check out again, so such
/// a run still measures and writes its file but leaves the history as it
/// found it.
fn extends_history(git: &str) -> bool {
    !git.ends_with("-dirty")
}

fn main() {
    if let Err(e) = offchip_chaos::install_from_env() {
        usage_exit(&e.to_string());
    }
    let (jobs_override, out_path, check_path) = parse_args();
    let seeds = seeds();
    let jobs = jobs_override.unwrap_or_else(|| jobs().expect("OFFCHIP_JOBS"));
    let quick = std::env::var("OFFCHIP_QUICK").is_ok_and(|v| v == "1");

    eprintln!("calibrating host...");
    // Re-measures with doubled iteration counts until the wall time clears
    // perfcal::MIN_CALIBRATION_WALL, so the rate is never a sub-millisecond
    // noise artefact that could skew the --check gate.
    let calibration = perfcal::calibrate();
    let calib_rate = calibration.rate;
    eprintln!(
        "calibration: {:.1} Miter/s ({} iters over {:.1} ms)",
        calib_rate / 1e6,
        calibration.iters,
        calibration.wall.as_secs_f64() * 1e3
    );

    let machines = [
        machines::intel_uma_8().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::intel_numa_24().scaled(DEFAULT_EXPERIMENT_SCALE),
        machines::amd_numa_48().scaled(DEFAULT_EXPERIMENT_SCALE),
    ];
    let mut total = SweepTiming::zero(jobs);
    let mut configs = Vec::new();
    for class in [ProblemClass::W, ProblemClass::C] {
        for base_spec in ProgramSpec::npb_suite(class) {
            for machine in &machines {
                // FT.C → FT.B on the UMA machine, exactly as table2 runs.
                let spec = match (base_spec, machine.total_mcs()) {
                    (ProgramSpec::Ft(ProblemClass::C), 1) => ProgramSpec::Ft(ProblemClass::B),
                    (s, _) => s,
                };
                let total_cores = machine.total_cores();
                let w = build_workload(spec, total_cores);
                let ns = [1, total_cores / 2, total_cores];
                let (_, timing) = run_sweep_timed(machine, w.as_ref(), &ns, &seeds, jobs)
                    .unwrap_or_else(|e| {
                        runtime_exit(&format!(
                            "reference sweep {} on {} failed: {e}",
                            spec.name(),
                            machine.name
                        ))
                    });
                eprintln!(
                    "{:<12} {:<22} {:6.2} s  {:7.2} Mev/s",
                    spec.name(),
                    machine.name,
                    timing.wall.as_secs_f64(),
                    timing.events_per_sec() / 1e6,
                );
                configs.push(ConfigTiming {
                    program: spec.name(),
                    machine: machine.name.clone(),
                    wall_s: timing.wall.as_secs_f64(),
                    events: timing.events,
                });
                total.absorb(&timing);
            }
        }
    }

    let norm = total.events_per_sec() / calib_rate;
    println!(
        "perfstat: {} runs, {:.2} s wall, {:.1} runs/s, {:.2} Mev/s, norm {:.4} ev/iter (jobs={}, quick={})",
        total.runs,
        total.wall.as_secs_f64(),
        total.runs_per_sec(),
        total.events_per_sec() / 1e6,
        norm,
        jobs,
        quick,
    );

    // Parse the baseline before writing anything: the new document
    // inherits the baseline's trajectory, and a corrupt baseline should
    // fail the run before it clobbers a previous result.
    let baseline = check_path.as_ref().map(|p| {
        let text = offchip_json::atomic::read_to_string(std::path::Path::new(p))
            .unwrap_or_else(|e| runtime_exit(&format!("read baseline {p}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| runtime_exit(&format!("parse baseline {p}: {e}")))
    });

    let mut history = prior_history(baseline.as_ref(), &out_path);
    let git = git_describe();
    if extends_history(&git) {
        history.push(json_obj! {
            "git" => git,
            "events_per_sec" => total.events_per_sec(),
            "norm_events_per_iter" => norm,
        });
    } else {
        eprintln!("perfstat: {git} has uncommitted changes; history carried over unchanged");
    }

    let doc = json_obj! {
        "schema" => 2u64,
        "bench" => "table2-reference-sweep",
        "quick" => quick,
        "jobs" => jobs as u64,
        "seeds" => seeds.len() as u64,
        "calib_rate" => calib_rate,
        "calib_iters" => calibration.iters,
        "calib_wall_s" => calibration.wall.as_secs_f64(),
        "runs" => total.runs as u64,
        "wall_s" => total.wall.as_secs_f64(),
        "runs_per_sec" => total.runs_per_sec(),
        "events" => total.events,
        "events_per_sec" => total.events_per_sec(),
        "norm_events_per_iter" => norm,
        "history" => history,
        "configs" => configs,
    };
    // No journal behind perfstat (timings are not resumable), so a
    // failed artefact write is a plain runtime error.
    if let Err(e) =
        offchip_json::write_atomic(std::path::Path::new(&out_path), &doc.to_pretty_string())
    {
        runtime_exit(&format!("write benchmark file {out_path}: {e}"));
    }
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        let baseline_path = check_path.as_deref().unwrap_or_default();
        let Some(base_norm) = baseline_norm(&baseline) else {
            eprintln!("baseline {baseline_path} lacks throughput fields; skipping gate");
            return;
        };
        let ratio = norm / base_norm;
        println!(
            "perfstat check: normalised throughput {norm:.4} vs baseline {base_norm:.4} ({ratio:.2}x)"
        );
        if ratio < 1.0 - REGRESSION_TOLERANCE {
            eprintln!(
                "perfstat: REGRESSION — normalised throughput dropped {:.0} % (tolerance {:.0} %)",
                (1.0 - ratio) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::extends_history;

    #[test]
    fn only_clean_revisions_extend_the_history() {
        assert!(extends_history("e6c01cd"));
        assert!(extends_history("v0.3-12-ge6c01cd"));
        assert!(extends_history("unknown"));
        assert!(!extends_history("e6c01cd-dirty"));
        assert!(!extends_history("v0.3-12-ge6c01cd-dirty"));
    }
}
