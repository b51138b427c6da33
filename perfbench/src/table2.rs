//! `table2-c`: the class-C rows of Table II, as a `table2` user runs
//! them, and the per-layer bookkeeping shared with the serve workloads.
//!
//! Inputs: EP/IS/FT/CG/SP at class C (FT.B on the UMA machine, as in
//! the paper) on the three paper machines at `DEFAULT_EXPERIMENT_SCALE`,
//! each swept over n ∈ {1, n/2, n} through `Campaign::start` →
//! `Campaign::run_sweep` at `--jobs 2` with a fresh journal directory.
//! The simulation seeds derive from the workload seed; their count
//! ([`SIM_SEEDS`]) sets the run length.
//!
//! The measured grid runs in a child process (`perfbench --worker`), so
//! its CPU time and peak resident set are the grid's own, and every
//! repetition pays the set-up a user pays.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use offchip_bench::{build_workload, Campaign, ProgramSpec, SweepTiming};
use offchip_machine::Workload;
use offchip_model::omega::normalized_increase;
use offchip_npb::classes::ProblemClass;
use offchip_topology::MachineSpec;

use crate::check::Digest;
use crate::layers::{campaign_in, Layers};
use crate::stats::{median, peak, Samples};
use crate::trace::{Lane, Tracer};
use crate::{mix, Ctx, JOBS};

/// Simulation seeds per sweep point.
pub const SIM_SEEDS: usize = 1;

/// Extra set-up-only child starts per run, so `setup_s` is a median.
const SETUP_PROBES: usize = 4;

/// Table II, class C, all cores, on UMA / NUMA / AMD — the values in the
/// header of `crates/bench/src/bin/table2.rs` (FT is FT.B on UMA).
const PAPER_ALL_CORES: [[f64; 3]; 5] = [
    [0.00, 0.54, 0.55],
    [0.56, 0.85, 0.70],
    [1.80, 3.94, 0.46],
    [2.41, 3.31, 1.91],
    [7.05, 11.59, 9.84],
];

/// One Table II cell pair: a program on a machine.
struct Cell {
    spec: ProgramSpec,
    machine: MachineSpec,
    workload: Box<dyn Workload>,
    paper: f64,
}

impl Cell {
    fn ns(&self) -> [usize; 3] {
        let total = self.machine.total_cores();
        [1, total / 2, total]
    }
}

/// The 15 cells, program-major as `table2` prints them.
fn grid() -> Vec<Cell> {
    let machines = crate::serve::machines().map(|(_, m)| m);
    let mut cells = Vec::new();
    for (p, base) in ProgramSpec::npb_suite(ProblemClass::C)
        .into_iter()
        .enumerate()
    {
        for (m, machine) in machines.iter().enumerate() {
            let spec = match (base, machine.total_mcs()) {
                (ProgramSpec::Ft(ProblemClass::C), 1) => ProgramSpec::Ft(ProblemClass::B),
                (s, _) => s,
            };
            cells.push(Cell {
                spec,
                workload: build_workload(spec, machine.total_cores()),
                machine: machine.clone(),
                paper: PAPER_ALL_CORES[p][m],
            });
        }
    }
    cells
}

/// The simulation seeds of workload seed `seed`.
fn sim_seeds(seed: u64) -> Vec<u64> {
    (0..SIM_SEEDS as u64)
        .map(|i| mix(seed, 0x7AB1E2 + i))
        .collect()
}

/// One pass over the grid.
struct GridPass {
    sweep_walls_s: Vec<f64>,
    timings: Vec<SweepTiming>,
    digest: String,
    paper_abs_err: f64,
    points: usize,
    notes: Vec<String>,
}

/// Runs every cell's sweep under `campaign`, checking each point.
fn run_grid(
    campaign: &Campaign,
    cells: &[Cell],
    seeds: &[u64],
    tracer: &mut Tracer,
    parent: u64,
) -> GridPass {
    let mut pass = GridPass {
        sweep_walls_s: Vec::new(),
        timings: Vec::new(),
        digest: String::new(),
        paper_abs_err: 0.0,
        points: 0,
        notes: Vec::new(),
    };
    let mut d = Digest::default();
    let mut abs_err = 0.0;
    for cell in cells {
        let ns = cell.ns();
        let what = format!("{} on {}", cell.spec.name(), cell.machine.name);
        pass.points += ns.len();
        let t0 = Instant::now();
        let result = campaign.run_sweep(&cell.machine, cell.workload.as_ref(), &ns, seeds, JOBS);
        let t1 = Instant::now();
        tracer.record(
            "Campaign::run_sweep",
            parent,
            Lane::Campaign,
            t0,
            t1,
            format!("\"sweep\":\"{what}\""),
        );
        pass.sweep_walls_s.push((t1 - t0).as_secs_f64());
        let cs = match result {
            Ok(cs) => cs,
            Err(e) => {
                for _ in ns {
                    pass.notes.push(format!("{what}: sweep failed: {e}"));
                }
                continue;
            }
        };
        pass.timings.push(cs.timing);
        if cs.resumed != 0 {
            pass.notes.push(format!(
                "{what}: {} runs resumed from a fresh journal",
                cs.resumed
            ));
        }
        d.field(cs.sweep.program.as_bytes())
            .field(cs.sweep.machine.as_bytes());
        for &n in &ns {
            let Some(p) = cs.sweep.points.iter().find(|p| p.n == n) else {
                pass.notes.push(format!("{what}: point n={n} lost"));
                continue;
            };
            for v in [
                p.total_cycles,
                p.work_cycles,
                p.stall_cycles,
                p.llc_misses,
                p.makespan,
            ] {
                d.num(v);
            }
            // Seed means of u64 counters: total = work + stall up to the
            // rounding of the division by the seed count.
            let gap = (p.total_cycles - p.work_cycles - p.stall_cycles).abs();
            if !(p.total_cycles > 0.0 && gap <= 1e-9 * p.total_cycles) {
                pass.notes.push(format!(
                    "{what} n={n}: total {} != work {} + stall {}",
                    p.total_cycles, p.work_cycles, p.stall_cycles
                ));
            }
        }
        if let (Some(c1), Some(full)) = (cs.sweep.points.first(), cs.sweep.points.last()) {
            let inc = normalized_increase(
                full.total_cycles.round() as u64,
                c1.total_cycles.round() as u64,
            );
            abs_err += (inc - cell.paper).abs();
        }
    }
    pass.digest = d.hex();
    pass.paper_abs_err = abs_err / cells.len() as f64;
    pass
}

/// The child process: set up, say `ready`, run the grid once, print one
/// JSON summary line. Returns the exit code.
pub fn worker(dir: &Path, seed: u64, setup_only: bool) -> i32 {
    let cells = grid();
    let campaign = match campaign_in("table2-c", dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench worker: cannot open the campaign journal: {e}");
            return 5;
        }
    };
    println!("ready");
    let _ = std::io::stdout().flush();
    if setup_only {
        return 0;
    }
    let pid = std::process::id();
    let seeds = sim_seeds(seed);
    let cpu0 = crate::host::cpu_seconds(pid).unwrap_or(f64::NAN);
    let t0 = Instant::now();
    let pass = run_grid(&campaign, &cells, &seeds, &mut Tracer::new(false), 0);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds(pid).unwrap_or(f64::NAN) - cpu0;
    let rss = crate::host::peak_rss_mib(pid).unwrap_or(f64::NAN);
    let summary = offchip_json::json_obj! {
        "wall_s" => wall_s,
        "cpu_s" => cpu_s,
        "peak_rss_mib" => rss,
        "sweep_walls_s" => pass.sweep_walls_s,
        "digest" => pass.digest,
        "paper_abs_err" => pass.paper_abs_err,
        "events" => pass.timings.iter().map(|t| t.events).sum::<u64>(),
        "points" => pass.points,
        "notes" => pass.notes,
    };
    println!("{}", summary.to_compact_string());
    0
}

/// One child run as the parent saw it.
struct Rep {
    setup_s: f64,
    summary: Option<offchip_json::Json>,
}

/// Starts a worker child and reads it to the end.
fn spawn_worker(ctx: &mut Ctx, name: &str, setup_only: bool) -> Result<Rep, String> {
    let dir = ctx.scratch(name)?;
    let log =
        std::fs::File::create(dir.join("worker.log")).map_err(|e| format!("worker log: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .arg(&dir)
        .arg(ctx.seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
    if setup_only {
        cmd.arg("--setup-only");
    }
    crate::strip_program_env(&mut cmd);
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start the worker: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let ready = out.read_line(&mut line).is_ok() && line.trim() == "ready";
    let setup_s = t0.elapsed().as_secs_f64();
    line.clear();
    let _ = out.read_line(&mut line);
    let status = child.wait().map_err(|e| format!("worker wait: {e}"))?;
    if !ready || !status.success() {
        return Err(format!(
            "worker {name} failed ({status}); see {}",
            dir.join("worker.log").display()
        ));
    }
    let summary = if setup_only {
        None
    } else {
        Some(offchip_json::Json::parse(line.trim()).map_err(|e| format!("worker summary: {e}"))?)
    };
    Ok(Rep { setup_s, summary })
}

/// Nominal host seconds of one grid, which turns `--seconds` into a
/// fixed repetition count: parent and change then do the same work.
const NOMINAL_GRID_S: f64 = 8.0;

/// The measured `table2-c` run: at least three grids, each in a fresh
/// worker. `wall_s` sums each sweep's median over the grids, so a
/// transient host stall in one grid moves it less than a grid total
/// would.
pub fn measure(ctx: &mut Ctx) -> Result<(), String> {
    let reps = ((ctx.seconds / NOMINAL_GRID_S).round() as usize).max(3);
    let mut setups = Vec::new();
    let (mut cpus, mut rss) = (vec![], vec![]);
    let mut cell_walls: Vec<Vec<f64>> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut abs_err = 0.0;
    for r in 0..reps {
        let rep = spawn_worker(ctx, &format!("table2-rep-{r}"), false)?;
        let s = rep.summary.expect("a full worker prints its summary");
        let num = |k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let points = num("points") as u64;
        let notes: Vec<String> = s
            .get("notes")
            .and_then(|v| v.as_arr())
            .map(|a| {
                a.iter()
                    .filter_map(|n| n.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        ctx.checks.absorb(points, notes);
        let walls = s
            .get("sweep_walls_s")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[]);
        for (i, w) in walls.iter().enumerate() {
            if cell_walls.len() <= i {
                cell_walls.push(Vec::new());
            }
            cell_walls[i].push(w.as_f64().unwrap_or(f64::INFINITY));
        }
        println!(
            "table2-c rep {}: setup {:.4} s, {} events, wall {:.3} s, cpu {:.2} s, rss {:.1} MiB",
            r + 1,
            rep.setup_s,
            num("events"),
            num("wall_s"),
            num("cpu_s"),
            num("peak_rss_mib")
        );
        setups.push(rep.setup_s);
        cpus.push(num("cpu_s"));
        rss.push(num("peak_rss_mib"));
        abs_err = num("paper_abs_err");
        digests.push(
            s.get("digest")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
        );
    }
    for i in 0..SETUP_PROBES {
        setups.push(spawn_worker(ctx, &format!("table2-setup-{i}"), true)?.setup_s);
    }
    let covered = ctx.checks.attempted;
    if digests.iter().any(|d| *d != digests[0]) {
        ctx.checks.fail_covered(
            covered,
            "table2-c counters differ between repetitions".into(),
        );
    }
    let line = ctx
        .checks
        .digest("table2-c", ctx.seed, &digests[0], covered);
    println!("{line}");

    let cell_medians: Vec<f64> = cell_walls.iter().filter_map(|w| median(w)).collect();
    let mut sweep_us = Samples::new();
    for &w in cell_walls.iter().flatten() {
        sweep_us.push(w * 1e6);
    }
    let wall = (cell_medians.len() == cell_walls.len()).then(|| cell_medians.iter().sum::<f64>());
    let cells = cell_walls.len();
    ctx.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} worker starts to first sweep", setups.len()),
    );
    ctx.metric(
        "wall_s",
        wall,
        "s",
        format!("sum over {cells} sweeps of each one's median over {reps} grids"),
    );
    ctx.metric(
        "cpu_s",
        median(&cpus),
        "s",
        format!("worker CPU, median of {reps} grids"),
    );
    ctx.metric(
        "p50_us",
        sweep_us.median(),
        "us",
        format!("{} Campaign::run_sweep calls", sweep_us.len()),
    );
    ctx.metric(
        "peak_rss_mib",
        peak(&rss),
        "MiB",
        format!("largest worker VmHWM of {reps} grids"),
    );
    ctx.metric(
        "paper_abs_err",
        abs_err,
        "increase",
        "mean |simulated - paper| over 15 class-C all-core cells",
    );
    ctx.metric(
        "error_frac",
        ctx.checks.error_frac(),
        "ratio",
        format!(
            "{} failed / {} sweep points",
            ctx.checks.failed, ctx.checks.attempted
        ),
    );
    Ok(())
}

/// The traced `table2-c` run: the grid untraced and traced in-process,
/// then every run of it attributed layer by layer.
pub fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let cells = grid();
    let seeds = sim_seeds(ctx.seed);

    let dir = ctx.scratch("table2-untraced")?;
    let campaign = campaign_in("table2-c", &dir).map_err(|e| format!("campaign: {e}"))?;
    let t0 = Instant::now();
    let untraced = run_grid(&campaign, &cells, &seeds, &mut Tracer::new(false), 0);
    let wall_untraced = t0.elapsed().as_secs_f64();
    drop(campaign);

    let mut layers = Layers::default();
    let root = ctx.tracer.reserve();
    let t0 = Instant::now();
    let dir = ctx.scratch("table2-traced")?;
    let campaign = layers.start_campaign(ctx, "table2-c", &dir, root)?;
    let pass = run_grid(&campaign, &cells, &seeds, &mut ctx.tracer, root);
    let wall_traced = t0.elapsed().as_secs_f64();
    ctx.tracer.record_as(
        root,
        "table2-c grid",
        0,
        Lane::Bench,
        t0,
        Instant::now(),
        String::new(),
    );
    layers.absorb_sweeps(&pass.timings);
    layers.count_records(&campaign);
    drop(campaign);
    for p in [&untraced, &pass] {
        ctx.checks.absorb(p.points as u64, p.notes.clone());
    }
    if untraced.digest != pass.digest {
        ctx.checks.fail_covered(
            ctx.checks.attempted,
            "traced grid counters differ from untraced".into(),
        );
    }

    for cell in &cells {
        let id = ctx.tracer.reserve();
        let t0 = Instant::now();
        for n in cell.ns() {
            for &seed in &seeds {
                layers.attribute(ctx, &cell.machine, cell.workload.as_ref(), n, seed, id)?;
            }
        }
        ctx.tracer.record_as(
            id,
            "replay",
            0,
            Lane::Bench,
            t0,
            Instant::now(),
            String::new(),
        );
    }
    layers.append_probe(ctx)?;
    layers.report(ctx);
    crate::trace_overhead(ctx, wall_traced, wall_untraced);
    Ok(())
}
