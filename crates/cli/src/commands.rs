//! Command implementations.

use offchip_bench::build_workload_scaled;
use offchip_bench::plot::{linear_plot, Series};
use offchip_bench::{fit_sweep, Campaign, PointConfig, SweepResult, SweepTiming};
use offchip_json::ToJson;
use offchip_machine::{try_run_bounded, ConfigError, RunError, RunReport, SimConfig, Workload};
use offchip_model::FitProtocol;
use offchip_perf::papiex::papiex_report_default;
use offchip_perf::BurstAnalysis;
use offchip_pool::JobsError;
use offchip_topology::likwid::topology_report;
use offchip_topology::machines::Preset;
use offchip_topology::MachineSpec;

use crate::args::{Command, RunOptions};
use crate::error::CliError;

fn machine_of(opts: &RunOptions) -> MachineSpec {
    opts.machine.spec().scaled(1.0 / opts.scale_denom)
}

fn workload_of(opts: &RunOptions, machine: &MachineSpec) -> Box<dyn Workload> {
    let threads = opts.threads.unwrap_or_else(|| machine.total_cores());
    build_workload_scaled(opts.program, machine.scale, threads)
}

fn config_of(opts: &RunOptions, machine: &MachineSpec, n: usize) -> SimConfig {
    let mut cfg = SimConfig::new(machine.clone(), n);
    cfg.seed = opts.seed;
    cfg.prefetch_degree = opts.prefetch;
    cfg.scheduler = opts.scheduler;
    cfg.memory_policy = opts.placement;
    cfg.deadline = opts.campaign.deadline;
    cfg.max_events = opts.campaign.max_events;
    cfg.metrics = opts.campaign.metrics.clone();
    cfg
}

fn run_one(
    opts: &RunOptions,
    machine: &MachineSpec,
    n: usize,
    sampler: bool,
) -> Result<RunReport, CliError> {
    let w = workload_of(opts, machine);
    let mut cfg = config_of(opts, machine, n);
    if sampler {
        cfg = cfg.with_sampler_5us_scaled();
    }
    // A single run has nothing journaled, so a blown deadline or event
    // budget is a plain runtime failure (exit 5), not the campaign's
    // "interrupted" (exit 6).
    try_run_bounded(w.as_ref(), &cfg).map_err(|e| match e {
        RunError::Config(c) => CliError::Config(c),
        budget => CliError::Runtime(budget.to_string()),
    })
}

/// The sweep-engine worker budget: `--jobs` wins, else `OFFCHIP_JOBS`,
/// else the machine's parallelism. A zero or garbage value is a typed
/// configuration error (exit code 3), not a panic or a silent fallback.
fn jobs_of(opts: &RunOptions) -> Result<usize, CliError> {
    offchip_pool::resolve_jobs(opts.jobs).map_err(|e| {
        CliError::Config(ConfigError::BadJobs {
            value: match e {
                JobsError::Zero => "0".into(),
                JobsError::Invalid(v) => v,
            },
        })
    })
}

/// Runs the single-seed `(1..=total)` sweep of the `sweep`/`fit` commands
/// through the crash-safe campaign layer: every completed point is
/// journaled under `results/<kind>-<program>-<machine>.journal`, `--resume`
/// replays it, and a lost point (panic, blown `--deadline`) surfaces as
/// [`CliError::Interrupted`] (exit 6) after the survivors are journaled.
/// A configuration the simulator would reject fails first, as
/// [`CliError::Config`] (exit 3), before the journal opens.
fn campaign_sweep(
    kind: &str,
    opts: &RunOptions,
    machine: &MachineSpec,
    ns: &[usize],
    jobs: usize,
) -> Result<(SweepResult, SweepTiming, std::path::PathBuf), CliError> {
    config_of(opts, machine, machine.total_cores()).validate()?;
    let name = format!("{kind}-{}-{}", opts.program.name(), opts.machine);
    let campaign = Campaign::start(&name, &opts.campaign)
        .map_err(|e| CliError::Runtime(format!("open campaign journal for {name}: {e}")))?;
    let tune = PointConfig {
        scheduler: opts.scheduler,
        memory_policy: opts.placement,
        prefetch_degree: opts.prefetch,
    };
    let w = workload_of(opts, machine);
    let cs = campaign.run_sweep_with(machine, w.as_ref(), ns, &[opts.seed], jobs, &tune)?;
    if !cs.errors.is_empty() {
        cs.log_losses();
        return Err(CliError::Interrupted {
            lost: cs.errors.len(),
            journal: campaign.journal_path().to_path_buf(),
        });
    }
    if cs.resumed > 0 {
        offchip_obs::info!("{}", campaign.status_line());
    }
    let journal = campaign.journal_path().to_path_buf();
    Ok((cs.sweep, cs.timing, journal))
}

/// The id of the run trace `--trace` writes: the one trace in the
/// command's store.
const RUN_TRACE: u64 = 1;

/// Applies the observability options before a command runs: `--log-level`
/// beats `OFFCHIP_LOG`, `--log-format` beats `OFFCHIP_LOG_FORMAT`. With
/// `--trace`, begins the run trace in the command's store, the context the
/// command runs in: each simulator run lands in it as one lane (the parser
/// gave the runs a registry, without which they record nothing).
fn init_obs(opts: &RunOptions, traces: &offchip_obs::TraceStore) -> offchip_obs::TraceRef {
    if let Some(l) = opts.log_level {
        offchip_obs::set_log_level(l);
    }
    if let Some(f) = opts.log_format {
        offchip_obs::set_log_format(f);
    }
    if opts.trace_out.is_none() {
        return offchip_obs::TraceRef::NONE;
    }
    let command = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    traces.begin(RUN_TRACE, "offchip", command, true)
}

/// Writes the requested observability artefacts after a command ran,
/// through the command's Vfs.
fn finish_obs(opts: &RunOptions, traces: &offchip_obs::TraceStore) -> Result<(), CliError> {
    let write = |path: &std::path::Path, contents: &str| {
        opts.campaign
            .vfs_or_real()
            .write_atomic(path, contents)
            .map_err(|e| CliError::Runtime(format!("write {}: {e}", path.display())))
    };
    if let (Some(path), Some(reg)) = (&opts.metrics_out, &opts.campaign.metrics) {
        write(path, &reg.snapshot().to_csv())?;
        offchip_obs::info!("wrote metrics csv={}", path.display());
    }
    if let (Some(path), Some(json)) = (&opts.trace_out, traces.chrome_json(RUN_TRACE)) {
        write(path, &json)?;
        let dropped = traces.dropped(RUN_TRACE);
        if dropped > 0 {
            offchip_obs::warn!("trace full: {dropped} span(s) dropped");
        }
        offchip_obs::info!("wrote trace json={}", path.display());
    }
    Ok(())
}

/// Executes a parsed command.
pub fn execute(cmd: &Command) -> Result<(), CliError> {
    let (Command::Run(opts) | Command::Sweep(opts) | Command::Fit(opts) | Command::Burst(opts)) =
        cmd
    else {
        return execute_inner(cmd);
    };
    let traces = offchip_obs::TraceStore::default();
    let ctx = init_obs(opts, &traces);
    opts.campaign.warn_if_chaos();
    let scope = offchip_obs::TraceScope::enter(ctx.clone());
    let result = execute_inner(cmd);
    drop(scope);
    offchip_obs::span_close(&ctx);
    // Artefacts are written even when the command failed: a partial trace
    // of an interrupted sweep is exactly what one debugs with.
    let finish = finish_obs(opts, &traces);
    result.and(finish)
}

fn execute_inner(cmd: &Command) -> Result<(), CliError> {
    match cmd {
        Command::Topology(choice) => {
            let targets = match *choice {
                Some(p) => vec![p],
                None => Preset::ALL.into(),
            };
            for p in targets {
                print!("{}", topology_report(&p.spec()));
                println!();
            }
        }
        Command::Run(opts) => {
            let machine = machine_of(opts);
            let n = opts.cores.unwrap_or_else(|| machine.total_cores());
            let report = run_one(opts, &machine, n, false)?;
            print!("{}", papiex_report_default(&report));
        }
        Command::Sweep(opts) => {
            let machine = machine_of(opts);
            let total = machine.total_cores();
            let jobs = jobs_of(opts)?;
            println!(
                "sweeping {} on {} (1..={total} cores, jobs={jobs})",
                opts.program.name(),
                machine.name
            );
            let ns: Vec<usize> = (1..=total).collect();
            let (sweep, timing, journal) = campaign_sweep("sweep", opts, &machine, &ns, jobs)?;
            if let Some(out) = &opts.out {
                // Every point is already journaled, so a failed artefact
                // write degrades gracefully: exit 7, and `--resume`
                // regenerates the file without re-simulating.
                opts.campaign
                    .vfs_or_real()
                    .write_atomic(out, &sweep.to_json().to_pretty_string())
                    .map_err(|e| CliError::ArtefactWrite {
                        path: out.clone(),
                        journal: journal.clone(),
                        error: e.to_string(),
                    })?;
                offchip_obs::info!("wrote sweep artefact json={}", out.display());
            }
            let omega = sweep.omega()?;
            // Single-seed counters round-trip f64 → u64 exactly (< 2^53).
            for ((n, om), p) in omega.iter().zip(&sweep.points) {
                println!(
                    "  n={n:>2}  C(n)={:>14}  omega={om:>7.3}  misses={}",
                    p.total_cycles as u64, p.llc_misses as u64
                );
            }
            println!(
                "\n{}",
                linear_plot(
                    &[Series {
                        label: format!("omega(n), {}", opts.program.name()),
                        marker: '*',
                        points: omega.iter().map(|&(n, om)| (n as f64, om)).collect(),
                    }],
                    60,
                    14,
                )
            );
            offchip_obs::info!(
                "sweep timing: {} runs in {:.2} s wall ({:.1} runs/s, jobs={jobs})",
                timing.runs,
                timing.wall.as_secs_f64(),
                timing.runs_per_sec(),
            );
        }
        Command::Fit(opts) => {
            let machine = machine_of(opts);
            let total = machine.total_cores();
            let jobs = jobs_of(opts)?;
            let mut proto = FitProtocol::for_machine(&machine.name);
            if opts.extended_protocol {
                proto = FitProtocol::intel_numa_extended();
            }
            println!(
                "fitting {} on {} with inputs {:?} (jobs={jobs})",
                opts.program.name(),
                machine.name,
                proto.input_cores
            );
            let ns: Vec<usize> = (1..=total).collect();
            let (sweep, timing, _journal) = campaign_sweep("fit", opts, &machine, &ns, jobs)?;
            offchip_obs::info!(
                "sweep timing: {} runs in {:.2} s wall ({:.1} runs/s, jobs={jobs})",
                timing.runs,
                timing.wall.as_secs_f64(),
                timing.runs_per_sec(),
            );
            let (robust, v) = fit_sweep(&proto, &sweep, opts.faults)?;
            let model = &robust.model;
            println!(
                "  M/M/1: mu = {:.3e} req/cyc, L = {:.3e} req/cyc/core",
                model.mm1().mu(),
                model.mm1().l()
            );
            if let Some(pole) = model.mm1().saturation_cores() {
                println!("  saturation pole: {pole:.1} cores/processor");
            }
            println!("  fit quality: {}", robust.quality);
            println!("{:>4} {:>12} {:>12}", "n", "measured ω", "model ω");
            for (n, m, p) in &v.points {
                println!("{n:>4} {m:>12.2} {p:>12.2}");
            }
            if let Some(e) = v.mean_relative_error {
                println!("  mean relative error: {:.1}%", e * 100.0);
            }
            println!(
                "  mean absolute error: {:.3} omega units",
                v.mean_absolute_error
            );
        }
        Command::Burst(opts) => {
            let machine = machine_of(opts);
            let n = opts.cores.unwrap_or_else(|| machine.total_cores());
            let report = run_one(opts, &machine, n, true)?;
            let windows = report
                .miss_windows
                .ok_or_else(|| CliError::Runtime("run produced no sampler windows".into()))?;
            let a = BurstAnalysis::from_windows(&windows, 50);
            println!(
                "{} on {} ({n} cores): {} windows",
                opts.program.name(),
                machine.name,
                windows.len()
            );
            println!(
                "  idle fraction {:.2}, burst CV {:.2}, verdict {:?}",
                a.idle_fraction,
                a.cv.unwrap_or(0.0),
                a.verdict
            );
            if let Some(t) = a.tail {
                println!(
                    "  log-log tail slope {:.2} (R² {:.2})",
                    t.loglog_slope, t.loglog_r_squared
                );
            }
            for &x in &[1u64, 2, 5, 10, 20, 50, 100, 200, 500] {
                let p = a.ccdf.exceedance(x);
                if p > 0.0 {
                    println!("  P(burst > {x:>3}) = {p:.2e}");
                }
            }
        }
    }
    Ok(())
}
