//! Core-count sweeps with seed averaging: the sweep result types, the
//! seed and worker-budget defaults, and the serial reference sweep.
//!
//! Every binary runs its sweeps through [`crate::campaign::Campaign`],
//! which journals each `(n, seed)` run and fans the grid out across the
//! process-wide worker pool. [`run_sweep`] is the plain serial loop that
//! engine is checked against: one [`run`] per `(n, seed)`, each point
//! folded into its mean in seed order by the same fold the campaign uses,
//! so the two agree byte for byte whatever `OFFCHIP_JOBS` says (the
//! contract `tests/end_to_end.rs::parallel_sweep_is_byte_identical_to_serial`
//! guards).

use std::time::{Duration, Instant};

use offchip_json::{json_obj, Json, ToJson};
use offchip_machine::{run, try_run_bounded, RunError, RunReport, SimConfig, Workload};
use offchip_topology::MachineSpec;

use crate::campaign::{CampaignOptions, PointConfig};

/// Why a sweep could not answer a question about itself.
///
/// Real measurement campaigns lose points — a node reboots mid-sweep, a
/// counter multiplexing slot never fires — so every accessor that *needs*
/// a particular point reports its absence as data, not as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The sweep holds no points at all.
    Empty,
    /// The sweep lacks the one-core baseline `C(1)` that ω is defined
    /// against.
    MissingBaseline,
    /// The point `n` exists but its cycle counter is non-finite or
    /// non-positive (a corrupted reading).
    CorruptPoint(usize),
    /// A run was requested with no seeds to average over.
    NoSeeds,
    /// Every point's reading for the requested counter is non-finite,
    /// so no average exists.
    NoFinitePoints,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Empty => write!(f, "sweep has no points"),
            SweepError::MissingBaseline => {
                write!(
                    f,
                    "sweep lacks the n = 1 baseline that omega(n) is defined against"
                )
            }
            SweepError::CorruptPoint(n) => {
                write!(
                    f,
                    "sweep point n = {n} has a non-finite or non-positive cycle count"
                )
            }
            SweepError::NoSeeds => write!(f, "sweep requested with an empty seed list"),
            SweepError::NoFinitePoints => {
                write!(
                    f,
                    "every sweep point's reading is non-finite; nothing to average"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One averaged sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Active cores.
    pub n: usize,
    /// Mean `C(n)` (PAPI total cycles across threads) over seeds.
    pub total_cycles: f64,
    /// Mean work cycles.
    pub work_cycles: f64,
    /// Mean stall cycles.
    pub stall_cycles: f64,
    /// Mean LLC misses.
    pub llc_misses: f64,
    /// Mean wall-clock makespan, cycles.
    pub makespan: f64,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        json_obj! {
            "n" => self.n,
            "total_cycles" => self.total_cycles,
            "work_cycles" => self.work_cycles,
            "stall_cycles" => self.stall_cycles,
            "llc_misses" => self.llc_misses,
            "makespan" => self.makespan,
        }
    }
}

/// A full sweep of one program on one machine.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Machine name.
    pub machine: String,
    /// Program name.
    pub program: String,
    /// Points, ascending in `n`.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// `(n, C(n))` pairs for the analytical model (`u64`, as counters).
    ///
    /// A non-finite or non-positive reading is a corrupted counter, not a
    /// zero-cycle run — converting it with `round() as u64` would feed a
    /// silent `0` into the model, so it surfaces as
    /// [`SweepError::CorruptPoint`] instead.
    pub fn cycles_sweep(&self) -> Result<Vec<(usize, u64)>, SweepError> {
        self.points
            .iter()
            .map(|p| {
                if p.total_cycles.is_finite() && p.total_cycles > 0.0 {
                    Ok((p.n, p.total_cycles.round() as u64))
                } else {
                    Err(SweepError::CorruptPoint(p.n))
                }
            })
            .collect()
    }

    /// `(n, C(n))` pairs as `f64` for fitting (the robust fitting layer
    /// sanitises non-finite readings itself, so this stays infallible).
    pub fn cycles_sweep_f64(&self) -> Vec<(usize, f64)> {
        self.points.iter().map(|p| (p.n, p.total_cycles)).collect()
    }

    /// The one-core baseline `C(1)`, or a typed error when the sweep is
    /// incomplete or the baseline reading is corrupt.
    pub fn c1(&self) -> Result<f64, SweepError> {
        if self.points.is_empty() {
            return Err(SweepError::Empty);
        }
        let p = self
            .points
            .iter()
            .find(|p| p.n == 1)
            .ok_or(SweepError::MissingBaseline)?;
        if !p.total_cycles.is_finite() || p.total_cycles <= 0.0 {
            return Err(SweepError::CorruptPoint(1));
        }
        Ok(p.total_cycles)
    }

    /// ω(n) series from the sweep. Fails when the baseline is missing or
    /// corrupt; individual non-finite *or non-positive* points propagate
    /// as typed errors (the same corruption test [`Self::c1`] applies to
    /// the baseline).
    pub fn omega(&self) -> Result<Vec<(usize, f64)>, SweepError> {
        let c1 = self.c1()?;
        self.points
            .iter()
            .map(|p| {
                if p.total_cycles.is_finite() && p.total_cycles > 0.0 {
                    Ok((p.n, (p.total_cycles - c1) / c1))
                } else {
                    Err(SweepError::CorruptPoint(p.n))
                }
            })
            .collect()
    }

    /// Mean LLC misses over the finite points (the model's `r(n) ≈ r`).
    ///
    /// Non-finite readings are skipped — one corrupt point must not
    /// NaN-poison the fitted `r` — and when none remain the absence is a
    /// typed error.
    pub fn mean_misses(&self) -> Result<f64, SweepError> {
        if self.points.is_empty() {
            return Err(SweepError::Empty);
        }
        let finite: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.llc_misses)
            .filter(|m| m.is_finite())
            .collect();
        if finite.is_empty() {
            return Err(SweepError::NoFinitePoints);
        }
        Ok(finite.iter().sum::<f64>() / finite.len() as f64)
    }
}

impl ToJson for SweepResult {
    fn to_json(&self) -> Json {
        json_obj! {
            "machine" => self.machine,
            "program" => self.program,
            "points" => self.points,
        }
    }
}

/// The environment variable that sets how many seeds each sweep point
/// averages over.
pub const SEEDS_ENV: &str = "OFFCHIP_SEEDS";

/// The most seeds [`SEEDS_ENV`] may ask for. The paper repeats each run
/// five times; a count far past that only sizes a grid out of memory.
pub const MAX_SEEDS: u64 = 64;

/// The seeds runs are averaged over, given the values of `OFFCHIP_QUICK`
/// and [`SEEDS_ENV`]: 3 by default, `count` when it is an integer from 1
/// to [`MAX_SEEDS`], and one under `OFFCHIP_QUICK=1`. Any other `count` is
/// an error that names the variable, under `OFFCHIP_QUICK=1` too.
pub fn seeds_from(quick: Option<&str>, count: Option<&str>) -> Result<Vec<u64>, String> {
    let k = match count {
        None => 3,
        Some(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|k| (1..=MAX_SEEDS).contains(k))
            .ok_or_else(|| {
                format!("{SEEDS_ENV}: expected a seed count from 1 to {MAX_SEEDS}, got {v:?}")
            })?,
    };
    let k = if quick == Some("1") { 1 } else { k };
    Ok((0..k)
        .map(|i| 0x0FF_C41B ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect())
}

/// [`seeds_from`] over the process's environment.
///
/// # Panics
/// Panics on a [`SEEDS_ENV`] value that [`seeds_from`] rejects. The
/// binaries reject one first, with exit 2, while they parse their
/// arguments ([`CampaignOptions::from_cli_or_exit`]).
///
/// [`CampaignOptions::from_cli_or_exit`]: crate::CampaignOptions::from_cli_or_exit
pub fn seeds() -> Vec<u64> {
    let var = |name| std::env::var(name).ok();
    seeds_from(var("OFFCHIP_QUICK").as_deref(), var(SEEDS_ENV).as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One run's counter readings, kept in `f64` exactly as the serial
/// accumulation consumed them (so parallel refolds bit-identically).
///
/// Every field that feeds a sweep point is an exact `f64` image of a
/// `u64` counter (< 2^53), which is what lets the campaign journal store
/// the `u64`s and reconstruct a sample bit-identically on `--resume`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSample {
    pub(crate) total_cycles: f64,
    pub(crate) work_cycles: f64,
    pub(crate) stall_cycles: f64,
    pub(crate) llc_misses: f64,
    pub(crate) makespan: f64,
    pub(crate) elapsed: Duration,
    /// Discrete events the simulator processed, for throughput accounting
    /// (events/s is the host-load-independent denominator `perfstat`
    /// trends; it never feeds a sweep point).
    pub(crate) sim_events: u64,
}

impl RunSample {
    pub(crate) fn from_report(r: &RunReport, elapsed: Duration) -> RunSample {
        RunSample {
            total_cycles: r.counters.total_cycles as f64,
            work_cycles: r.counters.work_cycles as f64,
            stall_cycles: r.counters.stall_cycles as f64,
            llc_misses: r.counters.llc_misses as f64,
            makespan: r.makespan.cycles() as f64,
            elapsed,
            sim_events: r.counters.sim_events,
        }
    }
}

/// One campaign run: the point's tuning, the campaign's budget guards and
/// its metrics registry applied, with deadline/event-cap enforcement
/// reported as typed errors instead of a hung or panicking run.
pub(crate) fn sample_bounded(
    machine: &MachineSpec,
    workload: &dyn Workload,
    n: usize,
    seed: u64,
    tune: &PointConfig,
    opts: &CampaignOptions,
) -> Result<RunSample, RunError> {
    let t0 = Instant::now();
    let mut cfg = SimConfig::new(machine.clone(), n);
    cfg.seed = seed;
    cfg.scheduler = tune.scheduler;
    cfg.memory_policy = tune.memory_policy;
    cfg.prefetch_degree = tune.prefetch_degree;
    cfg.deadline = opts.deadline;
    cfg.max_events = opts.max_events;
    cfg.metrics = opts.metrics.clone();
    let r = try_run_bounded(workload, &cfg)?;
    Ok(RunSample::from_report(&r, t0.elapsed()))
}

/// Folds one point's per-seed samples (in seed order) into the mean.
/// Both the serial reference and the campaign call this with samples in
/// the same order, which is what makes their f64 sums identical.
pub(crate) fn point_from_samples(n: usize, samples: &[RunSample]) -> SweepPoint {
    let mut acc = SweepPoint {
        n,
        total_cycles: 0.0,
        work_cycles: 0.0,
        stall_cycles: 0.0,
        llc_misses: 0.0,
        makespan: 0.0,
    };
    for s in samples {
        acc.total_cycles += s.total_cycles;
        acc.work_cycles += s.work_cycles;
        acc.stall_cycles += s.stall_cycles;
        acc.llc_misses += s.llc_misses;
        acc.makespan += s.makespan;
    }
    let k = samples.len() as f64;
    acc.total_cycles /= k;
    acc.work_cycles /= k;
    acc.stall_cycles /= k;
    acc.llc_misses /= k;
    acc.makespan /= k;
    acc
}

/// Wall-clock accounting of one sweep through the engine.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Simulator runs executed (points × seeds).
    pub runs: usize,
    /// Worker budget the grid was dispatched to.
    pub jobs: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Sum of per-run times — what a serial loop would have taken.
    pub busy: Duration,
    /// Total discrete events processed across the sweep's runs.
    pub events: u64,
}

impl SweepTiming {
    /// Runs completed per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        self.runs as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulator events retired per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Estimated speedup over a serial loop (aggregate run time / wall).
    pub fn speedup(&self) -> f64 {
        self.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Merges another sweep's accounting into this one (sequential
    /// sweeps: walls add).
    pub fn absorb(&mut self, other: &SweepTiming) {
        self.runs += other.runs;
        self.jobs = self.jobs.max(other.jobs);
        self.wall += other.wall;
        self.busy += other.busy;
        self.events += other.events;
    }

    /// A zero element for [`Self::absorb`] folds.
    pub fn zero(jobs: usize) -> SweepTiming {
        SweepTiming {
            runs: 0,
            jobs,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
            events: 0,
        }
    }
}

impl std::fmt::Display for SweepTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs in {:.2} s wall ({:.1} runs/s, {:.2} Mev/s, {:.1}x vs serial, jobs={})",
            self.runs,
            self.wall.as_secs_f64(),
            self.runs_per_sec(),
            self.events_per_sec() / 1e6,
            self.speedup(),
            self.jobs
        )
    }
}

/// Runs a full sweep over `ns`, serially: one [`run`] per `(n, seed)`,
/// folded point by point in seed order. The reference the campaign
/// engine's output is checked against.
pub fn run_sweep(
    machine: &MachineSpec,
    workload: &dyn Workload,
    ns: &[usize],
    seeds: &[u64],
) -> Result<SweepResult, SweepError> {
    if seeds.is_empty() {
        return Err(SweepError::NoSeeds);
    }
    let mut points = Vec::with_capacity(ns.len());
    for &n in ns {
        let mut samples = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let mut cfg = SimConfig::new(machine.clone(), n);
            cfg.seed = seed;
            // Untimed: only the counters feed the fold.
            samples.push(RunSample::from_report(&run(workload, &cfg), Duration::ZERO));
        }
        points.push(point_from_samples(n, &samples));
    }
    Ok(SweepResult {
        machine: machine.name.clone(),
        program: workload.name(),
        points,
    })
}

/// Runs one configuration with the sampler enabled (single seed: the
/// burstiness analysis needs one coherent time series, not an average),
/// with the campaign budget guards in force: a wedged sampled run
/// surfaces as a typed [`RunError`] with partial counters instead of
/// hanging the burstiness analysis.
pub fn run_sampled_bounded(
    machine: &MachineSpec,
    workload: &dyn Workload,
    n: usize,
    deadline: Option<Duration>,
    max_events: Option<u64>,
) -> Result<RunReport, RunError> {
    let mut cfg = SimConfig::new(machine.clone(), n).with_sampler_5us_scaled();
    cfg.deadline = deadline;
    cfg.max_events = max_events;
    try_run_bounded(workload, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_workload, ProgramSpec};
    use offchip_npb::classes::ProblemClass;
    use offchip_topology::machines;

    fn point(n: usize, cycles: f64, misses: f64) -> SweepPoint {
        SweepPoint {
            n,
            total_cycles: cycles,
            work_cycles: 0.0,
            stall_cycles: 0.0,
            llc_misses: misses,
            makespan: cycles,
        }
    }

    #[test]
    fn seed_counts_are_checked() {
        let three = seeds_from(None, None).unwrap();
        assert_eq!(three.len(), 3);
        assert_eq!(three[0], 0x0FF_C41B);
        assert_eq!(seeds_from(None, Some("5")).unwrap()[..3], three[..]);
        assert_eq!(seeds_from(None, Some("64")).unwrap().len(), 64);
        assert_eq!(seeds_from(Some("1"), None).unwrap(), vec![0x0FF_C41B]);
        assert_eq!(seeds_from(Some("1"), Some("7")).unwrap().len(), 1);
        assert_eq!(seeds_from(Some("0"), Some("2")).unwrap().len(), 2);
        for bad in ["abc", "0", "65", "", "-1", "2.5", "99999999999"] {
            for quick in [None, Some("1")] {
                let err = seeds_from(quick, Some(bad)).unwrap_err();
                assert!(err.starts_with("OFFCHIP_SEEDS: "), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn sweep_points_are_sane() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let s = run_sweep(&machine, w.as_ref(), &[1, 4], &[1, 2]).unwrap();
        assert_eq!(s.points.len(), 2);
        assert!(s.c1().unwrap() > 0.0);
        let omega = s.omega().unwrap();
        assert_eq!(omega[0].1, 0.0);
        assert!(s.mean_misses().unwrap() > 0.0);
        assert_eq!(s.cycles_sweep().unwrap().len(), 2);
    }

    #[test]
    fn incomplete_sweeps_report_typed_errors() {
        let mut s = SweepResult {
            machine: "m".into(),
            program: "p".into(),
            points: vec![],
        };
        assert_eq!(s.c1(), Err(SweepError::Empty));
        assert_eq!(s.mean_misses(), Err(SweepError::Empty));
        s.points.push(point(4, 100.0, 10.0));
        assert_eq!(s.c1(), Err(SweepError::MissingBaseline));
        assert_eq!(s.omega(), Err(SweepError::MissingBaseline));
        s.points.push(point(1, f64::NAN, 0.0));
        assert_eq!(s.c1(), Err(SweepError::CorruptPoint(1)));
    }

    #[test]
    fn omega_rejects_nonpositive_points() {
        // Regression: a finite but non-positive C(n) is a corrupt counter
        // reading; omega() used to happily return a ratio for it.
        let s = SweepResult {
            machine: "m".into(),
            program: "p".into(),
            points: vec![point(1, 100.0, 1.0), point(2, -5.0, 1.0)],
        };
        assert_eq!(s.omega(), Err(SweepError::CorruptPoint(2)));
        let zero = SweepResult {
            points: vec![point(1, 100.0, 1.0), point(2, 0.0, 1.0)],
            ..s
        };
        assert_eq!(zero.omega(), Err(SweepError::CorruptPoint(2)));
    }

    #[test]
    fn cycles_sweep_surfaces_corrupt_points() {
        // Regression: `round() as u64` used to saturate NaN/negative
        // readings to 0 and feed that into the model.
        let s = SweepResult {
            machine: "m".into(),
            program: "p".into(),
            points: vec![point(1, 100.0, 1.0), point(2, f64::NAN, 1.0)],
        };
        assert_eq!(s.cycles_sweep(), Err(SweepError::CorruptPoint(2)));
        let neg = SweepResult {
            points: vec![point(1, 100.0, 1.0), point(2, -42.0, 1.0)],
            ..s.clone()
        };
        assert_eq!(neg.cycles_sweep(), Err(SweepError::CorruptPoint(2)));
        let ok = SweepResult {
            points: vec![point(1, 100.4, 1.0), point(2, 201.6, 1.0)],
            ..s
        };
        assert_eq!(ok.cycles_sweep(), Ok(vec![(1, 100), (2, 202)]));
    }

    #[test]
    fn mean_misses_skips_nonfinite_points() {
        // Regression: one NaN reading used to NaN-poison the mean (and
        // hence the model's fitted r).
        let s = SweepResult {
            machine: "m".into(),
            program: "p".into(),
            points: vec![
                point(1, 1.0, 10.0),
                point(2, 1.0, f64::NAN),
                point(3, 1.0, 20.0),
            ],
        };
        assert_eq!(s.mean_misses(), Ok(15.0));
        let all_bad = SweepResult {
            points: vec![point(1, 1.0, f64::NAN), point(2, 1.0, f64::INFINITY)],
            ..s
        };
        assert_eq!(all_bad.mean_misses(), Err(SweepError::NoFinitePoints));
    }

    #[test]
    fn seed_averaging_is_mean() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = build_workload(ProgramSpec::Is(ProblemClass::S), 8);
        let c2 = |seeds: &[u64]| {
            run_sweep(&machine, w.as_ref(), &[2], seeds).unwrap().points[0].total_cycles
        };
        let (a, b, ab) = (c2(&[7]), c2(&[8]), c2(&[7, 8]));
        assert!((ab - (a + b) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn sampled_run_produces_windows() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let r = run_sampled_bounded(&machine, w.as_ref(), 4, None, None).unwrap();
        let windows = r.miss_windows.expect("sampler on");
        assert!(!windows.is_empty());
    }
}
