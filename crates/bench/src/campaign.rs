//! Crash-safe measurement campaigns: journaled checkpoint/resume, panic
//! isolation per sweep point, wall-clock deadlines, event budgets and
//! bounded deterministic retry.
//!
//! A campaign is a named sequence of sweeps whose every completed
//! `(config, n, seed)` run is appended — durably, one self-describing
//! JSONL record per run — to `results/<campaign>.journal`. Killing the
//! process at any instant therefore loses at most the points in flight;
//! restarting with `--resume` replays the journal, skips completed
//! points, and produces **byte-identical** final JSON artefacts to an
//! uninterrupted run. The identity holds because a journal record stores
//! the raw `u64` counters each [`crate::sweep::SweepPoint`] mean is
//! folded from: every counter is < 2^53, so `u64 → f64` is exact and the
//! resumed fold consumes bit-identical samples in the same grid order.
//!
//! Failure containment, per point:
//!
//! * a **panic** in the simulator or workload is caught per attempt
//!   ([`PointError::Panicked`]) — one poisoned point costs that point,
//!   never the `std::thread::scope` (and with it the whole grid);
//! * a **wedged run** is cut off by the wall-clock deadline or event
//!   budget ([`PointError::DeadlineExceeded`] /
//!   [`PointError::EventBudgetExceeded`]) with partial-counter context;
//! * failed attempts get up to `--retries` re-runs with deterministic,
//!   seed-derived backoff jitter, so retried artefacts stay reproducible.
//!
//! A binary whose campaign still has lost points exits with
//! [`EXIT_INTERRUPTED`] (6): "interrupted but journaled — rerun with
//! `--resume`".
//!
//! Durability against the *disk* failing (not just the process dying) is
//! layered on top:
//!
//! * every journal record carries a **CRC32 suffix** (`{...}#xxxxxxxx`),
//!   so a record torn exactly at a JSON boundary, a bit-rotted byte, or a
//!   lying fsync's half-truth is recognised and healed like any torn
//!   append — the point simply re-runs;
//! * an unreadable journal (EIO, invalid UTF-8) is **quarantined** —
//!   renamed aside to a unique `*.quarantined[.N]` name with a typed
//!   [`JournalFault`] — instead of failing the whole campaign, and
//!   successive quarantines never overwrite each other's evidence;
//! * all journal I/O goes through the options' [`offchip_chaos::Vfs`]
//!   (the binaries' artefact writes too), so `--chaos-io` fault
//!   schedules exercise these exact paths;
//! * an optional **wall-clock watchdog** (`--watchdog SECS`) catches a
//!   point that stops processing events entirely — the one hang the
//!   in-simulator deadline poll cannot see — and converts it into
//!   [`EXIT_INTERRUPTED`] while the journal retains every finished run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use offchip_chaos::{AppendFile, ChaosSpec, ChaosVfs, RealVfs, Vfs, CHAOS_ENV};
use offchip_json::{json_obj, Json};
use offchip_machine::{McScheduler, MemoryPolicy, RunError, Workload};
use offchip_obs::Registry;
use offchip_pool::PanicPayload;
use offchip_simcore::FxHasher;
use offchip_topology::MachineSpec;

use crate::sweep::{
    point_from_samples, sample_bounded, RunSample, SweepError, SweepResult, SweepTiming,
};

/// Exit code of a binary whose campaign lost points but journaled every
/// completed one: rerun with `--resume` to finish the grid.
pub const EXIT_INTERRUPTED: u8 = 6;

/// Exit code of a binary that measured everything and journaled it, but
/// could not persist a final artefact: the journal is intact, so rerun
/// with `--resume` to regenerate the artefact without re-simulating.
pub const EXIT_ARTEFACT_FAILED: u8 = 7;

/// Journal record schema version, bumped on incompatible layout changes
/// (records with a different schema are ignored on resume). Schema 2
/// appends a `#xxxxxxxx` CRC32 suffix to every record.
const JOURNAL_SCHEMA: u64 = 2;

/// The checksum-less schema still accepted on replay, so journals written
/// before the CRC bump resume cleanly.
const JOURNAL_SCHEMA_LEGACY: u64 = 1;

/// Why one sweep point could not be measured. One lost point costs
/// exactly that point: the rest of the grid completes and is journaled.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The run panicked (workload or simulator bug); caught per attempt
    /// so the campaign survives.
    Panicked {
        /// The panic message.
        payload: String,
        /// The point's active-core count.
        n: usize,
        /// The point's seed.
        seed: u64,
    },
    /// The run exceeded its wall-clock deadline.
    DeadlineExceeded {
        /// The point's active-core count.
        n: usize,
        /// The point's seed.
        seed: u64,
        /// The configured deadline.
        deadline: Duration,
        /// Wall clock actually spent before the guard fired.
        elapsed: Duration,
        /// Events processed before the abort (partial-progress context).
        events: u64,
    },
    /// The run exceeded its simulator event budget.
    EventBudgetExceeded {
        /// The point's active-core count.
        n: usize,
        /// The point's seed.
        seed: u64,
        /// The configured cap.
        limit: u64,
        /// Events processed when the cap was hit.
        events: u64,
    },
    /// The simulation configuration for this point was rejected.
    InvalidConfig {
        /// The point's active-core count.
        n: usize,
        /// The point's seed.
        seed: u64,
        /// The typed configuration error, rendered.
        error: String,
    },
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Panicked { payload, n, seed } => {
                write!(f, "point (n = {n}, seed = {seed}) panicked: {payload}")
            }
            PointError::DeadlineExceeded {
                n,
                seed,
                deadline,
                elapsed,
                events,
            } => write!(
                f,
                "point (n = {n}, seed = {seed}) exceeded its deadline: {:.3} s elapsed \
                 (deadline {:.3} s, {events} events processed)",
                elapsed.as_secs_f64(),
                deadline.as_secs_f64()
            ),
            PointError::EventBudgetExceeded {
                n,
                seed,
                limit,
                events,
            } => write!(
                f,
                "point (n = {n}, seed = {seed}) exceeded its event budget: \
                 {events} events (cap {limit})"
            ),
            PointError::InvalidConfig { n, seed, error } => {
                write!(f, "point (n = {n}, seed = {seed}) rejected: {error}")
            }
        }
    }
}

impl std::error::Error for PointError {}

impl PointError {
    /// Short stable tag of the error variant, the aggregation key of
    /// [`loss_summary`].
    pub fn kind(&self) -> &'static str {
        match self {
            PointError::Panicked { .. } => "panicked",
            PointError::DeadlineExceeded { .. } => "deadline-exceeded",
            PointError::EventBudgetExceeded { .. } => "event-budget-exceeded",
            PointError::InvalidConfig { .. } => "invalid-config",
        }
    }
}

/// Aggregates lost points into one `kind=count` line fragment, sorted by
/// kind — e.g. `deadline-exceeded=3 panicked=1` — so a large grid's losses
/// print as one line instead of hundreds.
pub fn loss_summary(errors: &[PointError]) -> String {
    let mut counts: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for e in errors {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    let parts: Vec<String> = counts
        .into_iter()
        .map(|(k, c)| format!("{k}={c}"))
        .collect();
    parts.join(" ")
}

/// Campaign knobs, normally parsed from a binary's command line by
/// [`CampaignOptions::parse_flag`] (the flags [`CAMPAIGN_USAGE`] lists).
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Replay the journal and skip completed points instead of starting
    /// the campaign from scratch (which truncates the journal).
    pub resume: bool,
    /// Per-point wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Re-runs granted to a failed point (panic, deadline, budget).
    pub retries: u32,
    /// Per-point simulator event budget.
    pub max_events: Option<u64>,
    /// Journal directory (default `results/`). Tests point this at a
    /// scratch directory; `OFFCHIP_JOURNAL_DIR` overrides the default.
    pub journal_dir: Option<PathBuf>,
    /// Wall-clock watchdog limit per in-flight point: a point stuck
    /// longer than this (not even processing events, so the in-sim
    /// deadline poll can't fire) aborts the process with
    /// [`EXIT_INTERRUPTED`], journal intact.
    pub watchdog: Option<Duration>,
    /// The Vfs every journal read and write goes through, and in the
    /// binaries every artefact write too, so fault indices count across
    /// the process. `None` is [`RealVfs`]; `--chaos-io` and
    /// `OFFCHIP_CHAOS_IO` set a [`ChaosVfs`].
    pub vfs: Option<Arc<dyn Vfs>>,
    /// The registry every simulated run records its metrics into; `None`
    /// (every experiment binary) observes nothing. A run under a trace
    /// that takes runs records its spans only when this is set.
    pub metrics: Option<Arc<Registry>>,
}

/// Usage text for the campaign flags every experiment binary accepts.
pub const CAMPAIGN_USAGE: &str = "\
campaign options:
  --resume             skip points already in results/<campaign>.journal
  --deadline SECS      per-point wall-clock deadline (fractional ok)
  --retries N          re-runs granted to a failed point (default 0)
  --max-events N       per-point simulator event budget
  --journal-dir DIR    journal directory (default results/)
  --watchdog SECS      abort (exit 6, journal intact) if a point hangs this long
  --chaos-io SPEC      inject filesystem faults (see offchip-chaos DSL;
                       also via OFFCHIP_CHAOS_IO)";

/// A positive `SECS` value of `flag` as a duration. A value that is not
/// a number, not finite, not positive, too large for a `Duration`, or
/// small enough to round to zero nanoseconds is an error.
fn seconds(flag: &str, value: &str) -> Result<Duration, String> {
    let secs: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| !d.is_zero())
        .ok_or_else(|| format!("{flag} must be a positive number of seconds"))
}

impl CampaignOptions {
    /// Parses the campaign flags from `args`; unknown flags are an error
    /// (the experiment binaries accept nothing else).
    pub fn parse(args: &[String]) -> Result<CampaignOptions, String> {
        let mut opts = CampaignOptions::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !opts.parse_flag(flag, &mut it)? {
                return Err(format!("unknown option {flag:?}"));
            }
        }
        Ok(opts)
    }

    /// Applies `flag` if it is a campaign flag, taking its value from
    /// `rest`, and returns whether it was one: the one parser of these
    /// flags, for the experiment binaries and the `offchip` CLI alike.
    pub fn parse_flag<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--resume" => self.resume = true,
            "--deadline" => self.deadline = Some(seconds(flag, &value()?)?),
            "--retries" => {
                self.retries = value()?.parse().map_err(|e| format!("--retries: {e}"))?
            }
            "--max-events" => {
                let cap: u64 = value()?.parse().map_err(|e| format!("--max-events: {e}"))?;
                // A zero budget fails every point on its first event,
                // and so would every --resume.
                if cap == 0 {
                    return Err("--max-events must be a positive event count".into());
                }
                self.max_events = Some(cap);
            }
            "--journal-dir" => self.journal_dir = Some(PathBuf::from(value()?)),
            "--watchdog" => self.watchdog = Some(seconds(flag, &value()?)?),
            "--chaos-io" => {
                let spec = ChaosSpec::parse(&value()?).map_err(|e| format!("--chaos-io: {e}"))?;
                self.vfs = Some(Arc::new(ChaosVfs::new(spec)));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Falls back to the schedule `env`, the value of `OFFCHIP_CHAOS_IO`,
    /// names when no `--chaos-io` was given: the flag beats the
    /// environment.
    pub fn chaos_from_env(&mut self, env: Option<&str>) -> Result<(), String> {
        if self.vfs.is_none() {
            if let Some(spec) = ChaosSpec::from_env(env)? {
                self.vfs = Some(Arc::new(ChaosVfs::new(spec)));
            }
        }
        Ok(())
    }

    /// Warns on stderr that a fault schedule is in force, if one is;
    /// binaries call it once their log settings apply.
    pub fn warn_if_chaos(&self) {
        if let Some(spec) = self.vfs.as_ref().and_then(|vfs| vfs.schedule()) {
            offchip_obs::warn!("chaos-io fault schedule active: {spec}");
        }
    }

    /// The Vfs these options name: [`RealVfs`] when `vfs` is `None`.
    pub fn vfs_or_real(&self) -> &dyn Vfs {
        self.vfs.as_deref().unwrap_or(&RealVfs)
    }

    /// Parses the process's own arguments, checks `OFFCHIP_SEEDS` and
    /// resolves the sweep worker budget (`OFFCHIP_JOBS`, else the
    /// machine's parallelism), exiting 2 with usage on a bad flag or
    /// environment value — the standard prologue of every experiment
    /// binary, run before any campaign opens.
    pub fn from_cli_or_exit(binary: &str) -> (CampaignOptions, usize) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let usage_exit = |e: String| -> ! {
            eprintln!("{binary}: {e}");
            eprintln!(
                "usage: {binary} [--resume] [--deadline SECS] [--retries N] [--max-events N] \
                 [--journal-dir DIR] [--watchdog SECS] [--chaos-io SPEC]"
            );
            eprintln!("{CAMPAIGN_USAGE}");
            std::process::exit(2);
        };
        let mut opts = CampaignOptions::parse(&args).unwrap_or_else(|e| usage_exit(e));
        let var = |name| std::env::var(name).ok();
        if let Err(e) = opts.chaos_from_env(var(CHAOS_ENV).as_deref()) {
            usage_exit(e);
        }
        if let Err(e) = crate::sweep::seeds_from(None, var(crate::sweep::SEEDS_ENV).as_deref()) {
            usage_exit(e);
        }
        let jobs = offchip_pool::resolve_jobs(None)
            .unwrap_or_else(|e| usage_exit(format!("{}: {e}", offchip_pool::JOBS_ENV)));
        opts.warn_if_chaos();
        (opts, jobs)
    }

    fn journal_dir(&self) -> PathBuf {
        if let Some(dir) = &self.journal_dir {
            return dir.clone();
        }
        std::env::var("OFFCHIP_JOURNAL_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"))
    }
}

/// The per-point simulation tuning a campaign sweep runs under; part of
/// the journal's config hash, so points from differently tuned sweeps
/// can never be confused on resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointConfig {
    /// Memory-controller scheduler.
    pub scheduler: McScheduler,
    /// NUMA page placement.
    pub memory_policy: MemoryPolicy,
    /// Stream-prefetcher degree.
    pub prefetch_degree: usize,
}

impl Default for PointConfig {
    /// Matches `SimConfig::new`'s defaults, which is what the plain
    /// sweep entry points run under.
    fn default() -> PointConfig {
        PointConfig {
            scheduler: McScheduler::Fcfs,
            memory_policy: MemoryPolicy::InterleaveActive,
            prefetch_degree: 0,
        }
    }
}

/// One journal record: the raw `u64` counters of a completed run, exactly
/// what a [`RunSample`] is reconstructed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JournalRecord {
    total_cycles: u64,
    work_cycles: u64,
    stall_cycles: u64,
    llc_misses: u64,
    makespan: u64,
    sim_events: u64,
    wall_ns: u64,
}

impl JournalRecord {
    fn from_sample(s: &RunSample) -> JournalRecord {
        // Every sweep-feeding field of RunSample is an exact f64 image of
        // a u64 counter, so the cast back is lossless.
        JournalRecord {
            total_cycles: s.total_cycles as u64,
            work_cycles: s.work_cycles as u64,
            stall_cycles: s.stall_cycles as u64,
            llc_misses: s.llc_misses as u64,
            makespan: s.makespan as u64,
            sim_events: s.sim_events,
            wall_ns: s.elapsed.as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    fn to_sample(self) -> RunSample {
        RunSample {
            total_cycles: self.total_cycles as f64,
            work_cycles: self.work_cycles as f64,
            stall_cycles: self.stall_cycles as f64,
            llc_misses: self.llc_misses as f64,
            makespan: self.makespan as f64,
            elapsed: Duration::from_nanos(self.wall_ns),
            sim_events: self.sim_events,
        }
    }

    fn to_line(self, config: u64, n: usize, seed: u64, trace: Option<u64>) -> String {
        let mut body = json_obj! {
            "schema" => JOURNAL_SCHEMA,
            "config" => format!("{config:016x}"),
            "n" => n,
            // Hex string, not a JSON number: seeds use the full u64 range
            // and JSON numbers are f64, which rounds above 2^53 — a
            // rounded seed can never match its grid key on resume, so the
            // run would silently re-simulate on every resume.
            "seed" => format!("{seed:016x}"),
            "total_cycles" => self.total_cycles,
            "work_cycles" => self.work_cycles,
            "stall_cycles" => self.stall_cycles,
            "llc_misses" => self.llc_misses,
            "makespan" => self.makespan,
            "sim_events" => self.sim_events,
            "wall_ns" => self.wall_ns,
        };
        // Post-mortem correlation: which request caused this simulation.
        // Optional and ignored by parse_line, so a traced fill's journal
        // replays exactly like an untraced one.
        if let (Some(t), Json::Obj(map)) = (trace, &mut body) {
            map.insert("trace".to_string(), Json::Str(format!("{t:016x}")));
        }
        let body = body.to_compact_string();
        // Schema 2: per-record CRC32 suffix. Without it, a record torn
        // exactly at a JSON boundary (or bit-rotted into another valid
        // number) would replay as truth; with it, any corruption inside
        // the line is recognised and healed like a torn append.
        format!("{body}#{:08x}", offchip_chaos::crc32(body.as_bytes()))
    }

    /// Parses one journal line into `((config, n, seed), record)`.
    /// `None` for anything unreadable — a torn trailing line from a kill
    /// mid-append, a checksum-mismatched (bit-rotted) record, or a
    /// foreign schema. Checksum-less schema-1 lines are still accepted.
    fn parse_line(line: &str) -> Option<((u64, usize, u64), JournalRecord)> {
        let (body, schema) = match line.rsplit_once('#') {
            Some((body, crc)) if crc.len() == 8 && crc.bytes().all(|b| b.is_ascii_hexdigit()) => {
                if u32::from_str_radix(crc, 16).ok()? != offchip_chaos::crc32(body.as_bytes()) {
                    return None;
                }
                (body, JOURNAL_SCHEMA)
            }
            // No checksum suffix: only acceptable as a legacy record (a
            // schema-2 body whose suffix was torn off must not replay).
            _ => (line, JOURNAL_SCHEMA_LEGACY),
        };
        let doc = Json::parse(body).ok()?;
        if doc.get("schema").and_then(Json::as_u64) != Some(schema) {
            return None;
        }
        let config = u64::from_str_radix(doc.get("config").and_then(Json::as_str)?, 16).ok()?;
        let n = doc.get("n").and_then(Json::as_u64)? as usize;
        // Current records carry the seed as a lossless hex string; older
        // ones as a JSON number, readable only while it fits f64 exactly
        // (beyond 2^53 `as_u64` refuses the rounded value, and the record
        // correctly re-runs rather than replaying under a wrong key).
        let seed = match doc.get("seed")? {
            s if s.as_str().is_some() => u64::from_str_radix(s.as_str()?, 16).ok()?,
            n => n.as_u64()?,
        };
        let field = |k: &str| doc.get(k).and_then(Json::as_u64);
        let rec = JournalRecord {
            total_cycles: field("total_cycles")?,
            work_cycles: field("work_cycles")?,
            stall_cycles: field("stall_cycles")?,
            llc_misses: field("llc_misses")?,
            makespan: field("makespan")?,
            sim_events: field("sim_events")?,
            wall_ns: field("wall_ns")?,
        };
        Some(((config, n, seed), rec))
    }
}

/// Identifies the sweep a journal record belongs to: a hash of the full
/// machine spec, the program name and the point tuning. Stable across
/// runs of the same build (the hasher is fixed-seed Fx), which is the
/// resume contract; journals do not survive semantic changes to the
/// simulator any more than golden artefacts do.
fn config_hash(machine: &MachineSpec, program: &str, tune: &PointConfig) -> u64 {
    use std::hash::Hasher as _;
    let mut h = FxHasher::default();
    h.write(format!("{machine:?}|{program}|{tune:?}").as_bytes());
    h.finish()
}

/// Deterministic retry backoff: exponential base with seed-derived
/// jitter, so a retried campaign is reproducible run-to-run.
fn backoff(seed: u64, attempt: u32) -> Duration {
    let base_ms = 10u64.saturating_mul(1 << attempt.min(6));
    let jitter_ms = (seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 25;
    Duration::from_millis(base_ms + jitter_ms)
}

/// An unreadable journal encountered on `--resume`, quarantined instead
/// of failing the campaign: the file is renamed aside (preserving the
/// evidence for inspection) and the campaign restarts from zero records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFault {
    /// The journal that could not be read.
    pub path: PathBuf,
    /// Where it was moved (`<path>.quarantined`, or a numbered
    /// `<path>.quarantined.N` when earlier quarantines of the same
    /// campaign already hold the base name), if the rename itself
    /// succeeded.
    pub quarantined_to: Option<PathBuf>,
    /// The underlying read error, rendered.
    pub error: String,
}

/// The first free quarantine name for `path`: `<name>.journal.quarantined`,
/// then `.quarantined.1`, `.quarantined.2`, … Every quarantined journal is
/// crash evidence; a fixed name would make a *second* unreadable journal of
/// the same campaign silently overwrite the first (the rename clobbers),
/// destroying exactly the file a post-mortem needs.
fn quarantine_target(path: &Path) -> PathBuf {
    let base = path.with_extension("journal.quarantined");
    if !base.exists() {
        return base;
    }
    let mut i = 1u32;
    loop {
        let candidate = path.with_extension(format!("journal.quarantined.{i}"));
        if !candidate.exists() {
            return candidate;
        }
        i += 1;
    }
}

impl std::fmt::Display for JournalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.quarantined_to {
            Some(q) => write!(
                f,
                "journal {} unreadable ({}); quarantined to {} — campaign restarts from zero records",
                self.path.display(),
                self.error,
                q.display()
            ),
            None => write!(
                f,
                "journal {} unreadable ({}) and could not be quarantined — \
                 campaign restarts from zero records",
                self.path.display(),
                self.error
            ),
        }
    }
}

impl std::error::Error for JournalFault {}

struct WatchState {
    /// token → (description, start) of every point in flight.
    inflight: Mutex<HashMap<u64, (String, Instant)>>,
    next_token: AtomicU64,
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Wall-clock watchdog for hung sweep points. The in-simulator deadline
/// (`--deadline`) polls between event batches, so it can only fire while
/// the simulator is still *processing* events; a point wedged before or
/// outside the event loop (a livelocked workload generator, a stuck
/// allocation) hangs forever. The watchdog supervises from a separate
/// thread: every in-flight point registers a [`WatchdogGuard`], and any
/// guard alive past the limit triggers the hang action — by default a
/// log line and `exit(6)`, the interrupted-but-journaled contract, so
/// `--resume` finishes the grid minus the wedged point's attempt.
pub struct Watchdog {
    limit: Duration,
    state: Arc<WatchState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("limit", &self.limit)
            .finish()
    }
}

impl Watchdog {
    /// A watchdog running `on_hang` (once per hung point) from its
    /// supervisor thread. Tests inject a channel send here; production
    /// uses [`Watchdog::exit_on_hang`].
    pub fn new(limit: Duration, on_hang: impl Fn(&str) + Send + 'static) -> Watchdog {
        let state = Arc::new(WatchState {
            inflight: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        // Poll a few times per limit so overshoot stays small, but never
        // busier than 10 ms or lazier than 1 s.
        let poll = (limit / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        let st = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("campaign-watchdog".into())
            .spawn(move || {
                let mut stopped = st.stop.lock().expect("watchdog stop lock poisoned");
                loop {
                    if *stopped {
                        return;
                    }
                    let mut hung = Vec::new();
                    {
                        let mut inflight =
                            st.inflight.lock().expect("watchdog inflight lock poisoned");
                        inflight.retain(|_, (desc, start)| {
                            if start.elapsed() > limit {
                                // Remove so the action fires exactly once
                                // per hung point.
                                hung.push(std::mem::take(desc));
                                false
                            } else {
                                true
                            }
                        });
                    }
                    for desc in hung {
                        on_hang(&desc);
                    }
                    let (guard, _) = st
                        .wake
                        .wait_timeout(stopped, poll)
                        .expect("watchdog stop lock poisoned");
                    stopped = guard;
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            limit,
            state,
            handle: Some(handle),
        }
    }

    /// The production watchdog: log the hung point and exit
    /// [`EXIT_INTERRUPTED`] — everything completed so far is journaled.
    pub fn exit_on_hang(limit: Duration) -> Watchdog {
        Watchdog::new(limit, move |desc| {
            offchip_obs::error!(
                "watchdog: {desc} hung for more than {:.1} s — aborting; \
                 completed runs are journaled, rerun with --resume",
                limit.as_secs_f64()
            );
            std::process::exit(i32::from(EXIT_INTERRUPTED));
        })
    }

    /// Registers a point as in flight until the guard drops.
    pub fn guard(&self, description: String) -> WatchdogGuard<'_> {
        let token = self.state.next_token.fetch_add(1, Ordering::Relaxed);
        self.state
            .inflight
            .lock()
            .expect("watchdog inflight lock poisoned")
            .insert(token, (description, Instant::now()));
        WatchdogGuard { dog: self, token }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        *self.state.stop.lock().expect("watchdog stop lock poisoned") = true;
        self.state.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Marks one point as in flight; dropping it (however the point ended)
/// deregisters it from the [`Watchdog`].
pub struct WatchdogGuard<'a> {
    dog: &'a Watchdog,
    token: u64,
}

impl Drop for WatchdogGuard<'_> {
    fn drop(&mut self) {
        self.dog
            .state
            .inflight
            .lock()
            .expect("watchdog inflight lock poisoned")
            .remove(&self.token);
    }
}

type PointKey = (u64, usize, u64);

struct CampaignState {
    done: HashMap<PointKey, JournalRecord>,
    file: AppendFile,
    executed: usize,
    resumed: usize,
}

/// A named crash-safe campaign (see the module docs).
pub struct Campaign {
    name: String,
    opts: CampaignOptions,
    path: PathBuf,
    watchdog: Option<Watchdog>,
    journal_fault: Option<JournalFault>,
    state: Mutex<CampaignState>,
}

/// One sweep's outcome under a campaign: the completed points, the lost
/// ones as typed errors, and the executed/resumed split.
pub struct CampaignSweep {
    /// The sweep with every fully measured point, in `ns` order. Points
    /// with any lost `(n, seed)` run are omitted — graceful degradation;
    /// the robust fitting layer tolerates missing points and reports the
    /// loss in its `FitQuality` ledger.
    pub sweep: SweepResult,
    /// Timing over the whole grid (resumed points contribute their
    /// journaled busy time and events, not re-simulation).
    pub timing: SweepTiming,
    /// One typed error per lost `(n, seed)` run, grid order.
    pub errors: Vec<PointError>,
    /// Runs actually simulated by this process.
    pub executed: usize,
    /// Runs replayed from the journal.
    pub resumed: usize,
}

impl CampaignSweep {
    /// Logs the lost points, if any: each one for a handful of losses, one
    /// [`loss_summary`] line for more.
    pub fn log_losses(&self) {
        // Per-point detail is useful for a handful of losses; on a large
        // grid it floods the terminal, so aggregate per error kind.
        const DETAIL_LIMIT: usize = 5;
        if self.errors.len() <= DETAIL_LIMIT {
            for e in &self.errors {
                offchip_obs::error!(
                    "lost sweep point sweep={}/{}: {e}",
                    self.sweep.machine,
                    self.sweep.program
                );
            }
        } else {
            offchip_obs::error!(
                "lost sweep points sweep={}/{} losses: {}",
                self.sweep.machine,
                self.sweep.program,
                loss_summary(&self.errors)
            );
        }
    }

    /// Unwraps a sweep that must be complete: logs every lost point and
    /// exits [`EXIT_INTERRUPTED`] if any — the journal retains all
    /// completed points, so rerunning with `--resume` finishes the grid
    /// without repeating them.
    pub fn expect_complete(self) -> (SweepResult, SweepTiming) {
        if self.errors.is_empty() {
            return (self.sweep, self.timing);
        }
        self.log_losses();
        offchip_obs::error!(
            "campaign interrupted: {} point(s) lost, {} completed runs journaled — \
             rerun with --resume to finish without repeating them",
            self.errors.len(),
            self.executed + self.resumed
        );
        std::process::exit(i32::from(EXIT_INTERRUPTED));
    }
}

impl Campaign {
    /// Opens (or, without `resume`, restarts) the journal of campaign
    /// `name` and loads the completed-point index.
    pub fn start(name: &str, opts: &CampaignOptions) -> std::io::Result<Campaign> {
        let vfs = opts.vfs_or_real();
        let path = opts.journal_dir().join(format!("{name}.journal"));
        if !opts.resume {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let mut done = HashMap::new();
        let mut journal_fault = None;
        if opts.resume {
            match vfs.read_to_string(&path) {
                Ok(body) => {
                    let mut intact = Vec::new();
                    for (i, line) in body.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match JournalRecord::parse_line(line) {
                            Some((key, rec)) => {
                                done.insert(key, rec);
                                intact.push(line);
                            }
                            None => {
                                // A torn trailing line is the expected
                                // residue of a kill mid-append; a checksum
                                // mismatch is bit-rot; anything else is a
                                // foreign schema. All worth a warning but
                                // never fatal — the point simply re-runs.
                                offchip_obs::warn!(
                                    "journal={} skipping unreadable record at line {} \
                                     (torn append, checksum mismatch or foreign schema)",
                                    path.display(),
                                    i + 1
                                );
                            }
                        }
                    }
                    // Compact away torn or foreign residue before reopening
                    // for append — a torn unterminated tail would otherwise
                    // corrupt the first record appended after it. The
                    // rewrite is atomic, so a kill here is just another
                    // torn state.
                    let dropped_residue = intact.len() != body.lines().count()
                        || (!body.is_empty() && !body.ends_with('\n'));
                    if dropped_residue {
                        let mut healed = intact.join("\n");
                        if !healed.is_empty() {
                            healed.push('\n');
                        }
                        vfs.write_atomic(&path, &healed)?;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    // The journal exists but cannot even be read (EIO,
                    // invalid UTF-8). Losing resumability must not lose
                    // the campaign: quarantine the file — preserving the
                    // evidence — and restart from zero records.
                    let quarantine = quarantine_target(&path);
                    let quarantined_to = match vfs.rename(&path, &quarantine) {
                        Ok(()) => Some(quarantine),
                        Err(rename_err) => {
                            // Renaming aside failed too; truncating via the
                            // fresh-start path below is the only way to get
                            // a usable journal back.
                            offchip_obs::warn!(
                                "journal={} quarantine rename failed: {rename_err}",
                                path.display()
                            );
                            let _ = std::fs::remove_file(&path);
                            None
                        }
                    };
                    let fault = JournalFault {
                        path: path.clone(),
                        quarantined_to,
                        error: e.to_string(),
                    };
                    offchip_obs::warn!("{fault}");
                    journal_fault = Some(fault);
                    done.clear();
                }
            }
        }
        let file = vfs.open_append(&path)?;
        Ok(Campaign {
            name: name.to_string(),
            opts: opts.clone(),
            path,
            watchdog: opts.watchdog.map(Watchdog::exit_on_hang),
            journal_fault,
            state: Mutex::new(CampaignState {
                done,
                file,
                executed: 0,
                resumed: 0,
            }),
        })
    }

    /// [`Campaign::start`] for binaries: a journal that cannot be opened
    /// (or healed) is a runtime error — render it and exit 5 instead of
    /// panicking. An unreadable-but-quarantinable journal does *not* land
    /// here; that is the [`JournalFault`] graceful-degradation path.
    pub fn start_or_exit(name: &str, opts: &CampaignOptions) -> Campaign {
        match Campaign::start(name, opts) {
            Ok(c) => c,
            Err(e) => {
                offchip_obs::error!("cannot open campaign journal for [{name}]: {e}");
                std::process::exit(5);
            }
        }
    }

    /// The campaign's journal path.
    pub fn journal_path(&self) -> &std::path::Path {
        &self.path
    }

    /// The typed quarantine record, if `--resume` found the journal
    /// unreadable (see [`JournalFault`]).
    pub fn journal_fault(&self) -> Option<&JournalFault> {
        self.journal_fault.as_ref()
    }

    /// Runs a sweep under the campaign with the default point tuning.
    pub fn run_sweep(
        &self,
        machine: &MachineSpec,
        workload: &dyn Workload,
        ns: &[usize],
        seeds: &[u64],
        jobs: usize,
    ) -> Result<CampaignSweep, SweepError> {
        self.run_sweep_with(machine, workload, ns, seeds, jobs, &PointConfig::default())
    }

    /// Runs a sweep under the campaign: journaled points are replayed,
    /// the rest are simulated (fanned across `jobs` workers) with panic
    /// isolation, budget guards and bounded retry per point. The fold is
    /// in grid order, so output is byte-identical to
    /// [`crate::sweep::run_sweep`] whenever no point is lost — resumed or
    /// not.
    ///
    /// The caller's trace context ([`offchip_obs::current`]) is entered
    /// in every worker: log records carry its id, each executed point
    /// records a `sim.point` span under its parent and journals the id,
    /// and a trace that takes runs gets one lane per simulated run. No
    /// context (every experiment binary) changes nothing: journal bytes
    /// stay identical to earlier schemas.
    pub fn run_sweep_with(
        &self,
        machine: &MachineSpec,
        workload: &dyn Workload,
        ns: &[usize],
        seeds: &[u64],
        jobs: usize,
        tune: &PointConfig,
    ) -> Result<CampaignSweep, SweepError> {
        if seeds.is_empty() {
            return Err(SweepError::NoSeeds);
        }
        let program = workload.name();
        let cfg_hash = config_hash(machine, &program, tune);
        let grid: Vec<(usize, u64)> = ns
            .iter()
            .flat_map(|&n| seeds.iter().map(move |&s| (n, s)))
            .collect();

        let t0 = Instant::now();
        let total = grid.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        // Heartbeat cadence: ~10 progress lines per sweep regardless of
        // grid size (and always one at completion).
        let heartbeat_every = (total / 10).max(1);
        let ctx = offchip_obs::current();
        let outcomes = offchip_pool::scoped_map(jobs, &grid, |_, &(n, seed)| {
            let _scope = offchip_obs::TraceScope::enter(ctx.clone());
            let outcome = (|| {
                if let Some(rec) = self.lookup(cfg_hash, n, seed) {
                    return Ok((rec.to_sample(), true));
                }
                let mut last = None;
                for attempt in 0..=self.opts.retries {
                    if attempt > 0 {
                        std::thread::sleep(backoff(seed, attempt));
                    }
                    let pt0 = Instant::now();
                    match self.guarded_sample(machine, workload, n, seed, tune) {
                        Ok(s) => {
                            let detail = || format!("n={n} seed={seed:x} attempt={attempt}");
                            let us = pt0.elapsed().as_micros() as u64;
                            offchip_obs::span_event(&ctx, "sim.point", detail, us);
                            self.record(cfg_hash, n, seed, &s);
                            return Ok((s, false));
                        }
                        Err(e) => {
                            let detail = || format!("n={n} seed={seed:x} kind={}", e.kind());
                            let us = pt0.elapsed().as_micros() as u64;
                            offchip_obs::span_event(&ctx, "sim.point.lost", detail, us);
                            last = Some(e);
                        }
                    }
                }
                Err(last.expect("at least one attempt ran"))
            })();
            let d = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if d.is_multiple_of(heartbeat_every) || d == total {
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                let rate = d as f64 / secs;
                let eta = (total - d) as f64 / rate;
                offchip_obs::info!(
                    "campaign={} sweep={}/{} done={d}/{total} rate={rate:.1}/s eta={eta:.0}s",
                    self.name,
                    machine.name,
                    program
                );
            }
            outcome
        });
        let wall = t0.elapsed();

        let mut points = Vec::new();
        let mut errors = Vec::new();
        let (mut executed, mut resumed) = (0usize, 0usize);
        let (mut busy, mut events) = (Duration::ZERO, 0u64);
        for (i, &n) in ns.iter().enumerate() {
            let chunk = &outcomes[i * seeds.len()..(i + 1) * seeds.len()];
            let mut samples = Vec::with_capacity(seeds.len());
            for outcome in chunk {
                match outcome {
                    Ok((s, was_resumed)) => {
                        busy += s.elapsed;
                        events += s.sim_events;
                        if *was_resumed {
                            resumed += 1;
                        } else {
                            executed += 1;
                        }
                        samples.push(*s);
                    }
                    Err(e) => errors.push(e.clone()),
                }
            }
            // A point's mean is only defined over the full seed set; a
            // partially measured point is a lost point, reported above.
            if samples.len() == seeds.len() {
                points.push(point_from_samples(n, &samples));
            }
        }
        let timing = SweepTiming {
            runs: grid.len(),
            jobs,
            wall,
            busy,
            events,
        };
        Ok(CampaignSweep {
            sweep: SweepResult {
                machine: machine.name.clone(),
                program,
                points,
            },
            timing,
            errors,
            executed,
            resumed,
        })
    }

    /// One line summarising the campaign so far, for the end of a
    /// binary's report.
    pub fn status_line(&self) -> String {
        let st = self.state.lock().expect("campaign state poisoned");
        format!(
            "campaign [{}]: {} runs executed, {} resumed from {}",
            self.name,
            st.executed,
            st.resumed,
            self.path.display()
        )
    }

    fn lookup(&self, cfg: u64, n: usize, seed: u64) -> Option<JournalRecord> {
        let mut st = self.state.lock().expect("campaign state poisoned");
        let rec = st.done.get(&(cfg, n, seed)).copied();
        if rec.is_some() {
            st.resumed += 1;
        }
        rec
    }

    fn record(&self, cfg: u64, n: usize, seed: u64, sample: &RunSample) {
        let rec = JournalRecord::from_sample(sample);
        let trace = offchip_obs::current().trace;
        let line = rec.to_line(cfg, n, seed, (trace != 0).then_some(trace));
        let mut st = self.state.lock().expect("campaign state poisoned");
        st.executed += 1;
        st.done.insert((cfg, n, seed), rec);
        if let Err(e) = self.opts.vfs_or_real().append_line(&mut st.file, &line) {
            // A dead journal must not kill the measurement: the sweep
            // still completes, only resumability degrades.
            offchip_obs::warn!(
                "journal append to {} failed ({e}); this run will not be resumable",
                self.path.display()
            );
        }
    }

    fn guarded_sample(
        &self,
        machine: &MachineSpec,
        workload: &dyn Workload,
        n: usize,
        seed: u64,
        tune: &PointConfig,
    ) -> Result<RunSample, PointError> {
        // Register with the wall-clock watchdog (if any) for the whole
        // attempt — simulator setup and workload generation included,
        // which is exactly the ground the in-sim deadline poll can't see.
        let _watch = self.watchdog.as_ref().map(|w| {
            w.guard(format!(
                "campaign [{}] point (n = {n}, seed = {seed})",
                self.name
            ))
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sample_bounded(machine, workload, n, seed, tune, &self.opts)
        }));
        match caught {
            Ok(Ok(s)) => Ok(s),
            Ok(Err(RunError::DeadlineExceeded {
                deadline,
                elapsed,
                events,
                ..
            })) => Err(PointError::DeadlineExceeded {
                n,
                seed,
                deadline,
                elapsed,
                events,
            }),
            Ok(Err(RunError::EventBudgetExceeded { limit, events, .. })) => {
                Err(PointError::EventBudgetExceeded {
                    n,
                    seed,
                    limit,
                    events,
                })
            }
            Ok(Err(RunError::Config(e))) => Err(PointError::InvalidConfig {
                n,
                seed,
                error: e.to_string(),
            }),
            Err(payload) => Err(PointError::Panicked {
                payload: PanicPayload::from_any(payload).message,
                n,
                seed,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;
    use crate::workloads::{build_workload, ProgramSpec};
    use offchip_json::ToJson;
    use offchip_machine::{Op, ProgramIter, Workload};
    use offchip_npb::classes::ProblemClass;
    use offchip_topology::machines;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(name: &str) -> CampaignOptions {
        let dir =
            std::env::temp_dir().join(format!("offchip-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignOptions {
            journal_dir: Some(dir),
            ..CampaignOptions::default()
        }
    }

    fn small_machine() -> offchip_topology::MachineSpec {
        machines::intel_uma_8().scaled(1.0 / 64.0)
    }

    #[test]
    fn journal_lines_round_trip_full_range_seeds() {
        let rec = JournalRecord {
            total_cycles: 100,
            work_cycles: 60,
            stall_cycles: 40,
            llc_misses: 8,
            makespan: 25,
            sim_events: 12,
            wall_ns: 1_000,
        };
        // Seeds span the full u64 range (the default generator XORs with
        // 0x9E3779B97F4A7C15, landing near 2^63); a JSON f64 number
        // rounds those, so the line must carry the seed losslessly.
        for seed in [0u64, 3, 0x0FF_C41B, (1 << 53) + 1, u64::MAX - 7, u64::MAX] {
            let line = rec.to_line(0xfeed_beef, 5, seed, None);
            let (key, parsed) = JournalRecord::parse_line(&line)
                .unwrap_or_else(|| panic!("seed {seed:#x} failed to replay"));
            assert_eq!(key, (0xfeed_beef, 5, seed));
            assert_eq!(parsed, rec);
        }
        // Legacy numeric seeds still replay while exactly representable.
        let legacy = rec
            .to_line(1, 2, 77, None)
            .replace("\"000000000000004d\"", "77");
        let crc_split = legacy.rsplit_once('#').unwrap().0.to_string();
        let legacy = format!(
            "{crc_split}#{:08x}",
            offchip_chaos::crc32(crc_split.as_bytes())
        );
        let (key, _) = JournalRecord::parse_line(&legacy).expect("legacy numeric seed");
        assert_eq!(key, (1, 2, 77));
    }

    /// A workload that panics on its k-th `thread_program` construction
    /// (counted across the whole process run, so under `jobs = 1` the
    /// grid order makes the poisoned point deterministic).
    struct Poisoned {
        inner: Box<dyn Workload>,
        calls: AtomicUsize,
        panic_on: Vec<usize>,
    }

    impl Workload for Poisoned {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn n_threads(&self) -> usize {
            self.inner.n_threads()
        }
        fn thread_program(&self, thread: usize, seed: u64) -> Box<dyn ProgramIter> {
            if thread == 0 {
                let k = self.calls.fetch_add(1, Ordering::SeqCst);
                if self.panic_on.contains(&k) {
                    panic!("injected poison at sample {k}");
                }
            }
            self.inner.thread_program(thread, seed)
        }
    }

    #[test]
    fn journal_record_roundtrips_exactly() {
        let rec = JournalRecord {
            total_cycles: 123_456_789_012,
            work_cycles: 987_654_321,
            stall_cycles: 11,
            llc_misses: 0,
            makespan: 42_000_000_000,
            sim_events: 7_777_777,
            wall_ns: 1_234_567_890,
        };
        let line = rec.to_line(0xDEAD_BEEF_CAFE_F00D, 24, 42, None);
        let ((cfg, n, seed), parsed) = JournalRecord::parse_line(&line).unwrap();
        assert_eq!(cfg, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!((n, seed), (24, 42));
        assert_eq!(parsed, rec);
        // Torn lines (any prefix short of the full record) never parse —
        // including the cut exactly at the JSON boundary, which only the
        // CRC suffix can catch.
        for cut in 1..line.len() {
            assert!(
                JournalRecord::parse_line(&line[..cut]).is_none(),
                "cut = {cut}"
            );
        }
    }

    #[test]
    fn traced_records_carry_the_id_and_replay_identically() {
        let rec = JournalRecord {
            total_cycles: 10,
            work_cycles: 6,
            stall_cycles: 4,
            llc_misses: 1,
            makespan: 10,
            sim_events: 99,
            wall_ns: 1234,
        };
        let traced = rec.to_line(0x77, 2, 9, Some(0x0010_0001));
        assert!(traced.contains("\"trace\":\"0000000000100001\""));
        // The trace field is correlation metadata only: parse_line yields
        // the exact same key and record as the untraced line.
        let (key_t, rec_t) = JournalRecord::parse_line(&traced).unwrap();
        let (key_u, rec_u) = JournalRecord::parse_line(&rec.to_line(0x77, 2, 9, None)).unwrap();
        assert_eq!(key_t, key_u);
        assert_eq!(rec_t, rec_u);
    }

    #[test]
    fn checksum_mismatch_rejects_the_record() {
        let rec = JournalRecord {
            total_cycles: 1,
            work_cycles: 2,
            stall_cycles: 3,
            llc_misses: 4,
            makespan: 5,
            sim_events: 6,
            wall_ns: 7,
        };
        let line = rec.to_line(0xABCD, 4, 9, None);
        assert!(line.contains('#'), "schema 2 lines carry a CRC suffix");
        assert!(JournalRecord::parse_line(&line).is_some());
        // Flip one digit inside the body: the JSON still parses, the
        // checksum says no.
        let corrupted = line.replacen("\"total_cycles\":1", "\"total_cycles\":9", 1);
        assert_ne!(corrupted, line);
        assert!(JournalRecord::parse_line(&corrupted).is_none());
    }

    #[test]
    fn legacy_checksum_less_records_still_replay() {
        // A schema-1 journal line exactly as the pre-CRC layer wrote it.
        let legacy = json_obj! {
            "schema" => 1u64,
            "config" => format!("{:016x}", 0x77u64),
            "n" => 2usize,
            "seed" => 9u64,
            "total_cycles" => 10u64,
            "work_cycles" => 6u64,
            "stall_cycles" => 4u64,
            "llc_misses" => 1u64,
            "makespan" => 10u64,
            "sim_events" => 99u64,
            "wall_ns" => 1234u64,
        }
        .to_compact_string();
        let ((cfg, n, seed), rec) = JournalRecord::parse_line(&legacy).unwrap();
        assert_eq!((cfg, n, seed), (0x77, 2, 9));
        assert_eq!(rec.total_cycles, 10);
        // But a schema-2 body whose CRC suffix was torn off must NOT fall
        // back to the checksum-less path.
        let v2 = rec.to_line(0x77, 2, 9, None);
        let (body, _) = v2.rsplit_once('#').unwrap();
        assert!(JournalRecord::parse_line(body).is_none());
    }

    #[test]
    fn watchdog_fires_once_per_hung_point_and_spares_live_ones() {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let dog = Watchdog::new(Duration::from_millis(40), move |desc| {
            tx.send(desc.to_string()).unwrap();
        });
        {
            let _fast = dog.guard("fast point".into());
            // Dropped immediately: never reported.
        }
        let _hung = dog.guard("hung point".into());
        let fired = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("watchdog never fired");
        assert_eq!(fired, "hung point");
        // Exactly once per hung point, and the fast one never fires.
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
    }

    #[test]
    fn unreadable_journal_is_quarantined_not_fatal() {
        let opts = scratch("quarantine");
        let dir = opts.journal_dir.clone().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        // A journal that cannot even be read as UTF-8 — bit-rot beyond
        // record-level healing.
        std::fs::write(dir.join("q.journal"), b"\xFF\xFEnot a journal \xC0").unwrap();
        let ropts = CampaignOptions {
            resume: true,
            ..opts.clone()
        };
        let c = Campaign::start("q", &ropts).unwrap();
        let fault = c
            .journal_fault()
            .expect("unreadable journal reported as typed fault");
        let quarantined = fault.quarantined_to.clone().expect("journal renamed aside");
        assert!(
            quarantined.exists(),
            "evidence preserved at {}",
            quarantined.display()
        );
        assert!(!fault.error.is_empty());
        assert!(fault.to_string().contains("quarantined"));
        // The campaign restarted from zero records and is fully usable.
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Is(ProblemClass::S), 8);
        let cs = c.run_sweep(&machine, w.as_ref(), &[1], &[1], 1).unwrap();
        assert_eq!((cs.resumed, cs.executed), (0, 1));
        assert_eq!(
            std::fs::read_to_string(c.journal_path())
                .unwrap()
                .lines()
                .count(),
            1
        );
    }

    #[test]
    fn second_quarantine_preserves_the_first() {
        // Regression: the quarantine name was fixed per campaign, so a
        // second unreadable journal renamed over the first — destroying
        // the earlier crash evidence. Quarantine names must be unique.
        let opts = scratch("quarantine2");
        let dir = opts.journal_dir.clone().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let ropts = CampaignOptions {
            resume: true,
            ..opts.clone()
        };
        let first_bytes: &[u8] = b"\xFF\xFEfirst corpse \xC0";
        let second_bytes: &[u8] = b"\xFF\xFEsecond corpse \xC1";
        std::fs::write(dir.join("q2.journal"), first_bytes).unwrap();
        let c1 = Campaign::start("q2", &ropts).unwrap();
        let q1 = c1
            .journal_fault()
            .and_then(|f| f.quarantined_to.clone())
            .expect("first quarantine");
        drop(c1);
        std::fs::write(dir.join("q2.journal"), second_bytes).unwrap();
        let c2 = Campaign::start("q2", &ropts).unwrap();
        let q2 = c2
            .journal_fault()
            .and_then(|f| f.quarantined_to.clone())
            .expect("second quarantine");
        assert_ne!(q1, q2, "a second quarantine must not reuse the name");
        assert_eq!(
            std::fs::read(&q1).unwrap(),
            first_bytes,
            "first evidence intact"
        );
        assert_eq!(
            std::fs::read(&q2).unwrap(),
            second_bytes,
            "second evidence intact"
        );
    }

    #[test]
    fn journal_append_failure_degrades_resumability_not_results() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Is(ProblemClass::S), 8);
        let mut opts = scratch("deadjournal");
        // The campaign's own Vfs: its first journal append write dies.
        opts.vfs = Some(Arc::new(ChaosVfs::new(
            ChaosSpec::parse("eio@write:1").unwrap(),
        )));
        let c = Campaign::start("dj", &opts).unwrap();
        let cs = c.run_sweep(&machine, w.as_ref(), &[1], &[1], 1).unwrap();
        // The measurement is intact; only the journal lost the record.
        assert!(cs.errors.is_empty());
        assert_eq!(cs.sweep.points.len(), 1);
        assert_eq!(
            std::fs::read_to_string(c.journal_path()).unwrap(),
            "",
            "the failed append persisted nothing"
        );
    }

    #[test]
    fn campaign_sweep_matches_plain_sweep_bit_for_bit() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let ns = [1, 2, 4];
        let seeds = [3, 11];
        let serial = run_sweep(&machine, w.as_ref(), &ns, &seeds).unwrap();
        let opts = scratch("bitident");
        for jobs in [1usize, 4] {
            let c = Campaign::start("t", &opts).unwrap();
            let cs = c
                .run_sweep(&machine, w.as_ref(), &ns, &seeds, jobs)
                .unwrap();
            assert!(cs.errors.is_empty());
            assert_eq!(cs.executed, 6);
            assert_eq!(cs.resumed, 0);
            assert_eq!(
                serial.to_json().to_pretty_string(),
                cs.sweep.to_json().to_pretty_string(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn timing_accounts_for_every_run() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let opts = scratch("timing");
        let c = Campaign::start("timing", &opts).unwrap();
        let cs = c
            .run_sweep(&machine, w.as_ref(), &[1, 2], &[5, 6, 7], 4)
            .unwrap();
        assert!(cs.errors.is_empty());
        assert_eq!((cs.executed, cs.resumed), (6, 0));
        let t = cs.timing;
        assert_eq!((t.runs, t.jobs), (6, 4));
        assert!(t.wall > Duration::ZERO);
        assert!(t.busy >= t.wall / 8, "busy {:?} wall {:?}", t.busy, t.wall);
        assert!(t.events > 0 && t.runs_per_sec() > 0.0);
        let mut total = SweepTiming::zero(1);
        total.absorb(&t);
        assert_eq!(total.runs, 6);
        let line = total.to_string();
        assert!(line.contains("runs/s"), "{line}");
        // A resumed grid accounts the journaled busy time and events, not
        // zero and not a re-simulation.
        let ropts = CampaignOptions {
            resume: true,
            ..opts
        };
        let again = Campaign::start("timing", &ropts)
            .unwrap()
            .run_sweep(&machine, w.as_ref(), &[1, 2], &[5, 6, 7], 4)
            .unwrap();
        assert_eq!((again.executed, again.resumed), (0, 6));
        assert_eq!((again.timing.busy, again.timing.events), (t.busy, t.events));
    }

    #[test]
    fn empty_seed_list_is_a_typed_error() {
        // Regression: this used to be an assert!(), a panic path in a
        // pipeline that otherwise reports typed errors.
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        assert_eq!(
            run_sweep(&machine, w.as_ref(), &[1], &[]).unwrap_err(),
            SweepError::NoSeeds
        );
        let c = Campaign::start("noseeds", &scratch("noseeds")).unwrap();
        let cs = c.run_sweep(&machine, w.as_ref(), &[1], &[], 4);
        assert_eq!(cs.err(), Some(SweepError::NoSeeds));
    }

    #[test]
    fn hostile_journal_lines_replay_nothing_or_the_same_record() {
        let rec = JournalRecord {
            total_cycles: 123_456_789,
            work_cycles: 100_000_000,
            stall_cycles: 23_456_789,
            llc_misses: 4_321,
            makespan: 61_728_394,
            sim_events: 987_654,
            wall_ns: 12_345_678,
        };
        let key = (0xDEAD_BEEF_CAFE_F00D, 4, 0x0FF_C41B);
        let line = rec.to_line(key.0, key.1, key.2, None);
        let want = Some((key, rec));
        assert_eq!(JournalRecord::parse_line(&line), want);
        // Not "always None": `from_str_radix` reads an upper-case CRC digit
        // as the same value, so that substitution replays the same record.
        let replays = |l: &str| {
            let got = JournalRecord::parse_line(l);
            got.is_none() || got == want
        };
        for i in 0..line.len() {
            for b in b' '..=b'~' {
                let mut bytes = line.clone().into_bytes();
                bytes[i] = b;
                let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                assert!(replays(&mutated), "byte {i} -> {:?}: {mutated}", b as char);
            }
        }
        for cut in 0..line.len() {
            assert!(replays(&line[..cut]), "cut = {cut}");
        }
        // Seeded garbage never panics. Three bytes in four come from the
        // valid line's alphabet, so the parser gets past its first check.
        let mut rng = offchip_simcore::Rng::new(0x0BAD_5EED);
        for _ in 0..20_000 {
            let len = rng.next_below(2 * line.len() as u64) as usize;
            let junk: Vec<u8> = (0..len)
                .map(|_| match rng.next_below(4) {
                    0 => rng.next_u64() as u8,
                    _ => line.as_bytes()[rng.next_below(line.len() as u64) as usize],
                })
                .collect();
            let _ = JournalRecord::parse_line(&String::from_utf8_lossy(&junk));
        }
    }

    #[test]
    fn resume_replays_the_journal_bit_for_bit() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Is(ProblemClass::S), 8);
        let ns = [1, 4];
        let seeds = [5, 9];
        let opts = scratch("resume");

        let first = Campaign::start("r", &opts).unwrap();
        let full = first
            .run_sweep(&machine, w.as_ref(), &ns, &seeds, 2)
            .unwrap();
        let golden = full.sweep.to_json().to_pretty_string();
        let journal = std::fs::read_to_string(first.journal_path()).unwrap();
        assert_eq!(journal.lines().count(), 4);

        // Truncate to one surviving record plus a torn half-record — the
        // on-disk state of a SIGKILL mid-append.
        let lines: Vec<&str> = journal.lines().collect();
        let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        std::fs::write(first.journal_path(), &torn).unwrap();

        let mut ropts = opts.clone();
        ropts.resume = true;
        let second = Campaign::start("r", &ropts).unwrap();
        let resumed = second
            .run_sweep(&machine, w.as_ref(), &ns, &seeds, 2)
            .unwrap();
        assert_eq!(resumed.resumed, 1, "one intact journal record replayed");
        assert_eq!(resumed.executed, 3, "the torn and missing points re-ran");
        assert_eq!(resumed.sweep.to_json().to_pretty_string(), golden);
        // The journal is whole again after the resumed run.
        let healed = std::fs::read_to_string(second.journal_path()).unwrap();
        assert_eq!(
            healed
                .lines()
                .filter(|l| JournalRecord::parse_line(l).is_some())
                .count(),
            4
        );
    }

    #[test]
    fn fresh_start_truncates_a_stale_journal() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Is(ProblemClass::S), 8);
        let opts = scratch("truncate");
        let c1 = Campaign::start("s", &opts).unwrap();
        c1.run_sweep(&machine, w.as_ref(), &[1], &[1], 1).unwrap();
        drop(c1);
        // No --resume: the journal restarts from zero records.
        let c2 = Campaign::start("s", &opts).unwrap();
        let cs = c2.run_sweep(&machine, w.as_ref(), &[1], &[1], 1).unwrap();
        assert_eq!(cs.resumed, 0);
        assert_eq!(cs.executed, 1);
        let journal = std::fs::read_to_string(c2.journal_path()).unwrap();
        assert_eq!(journal.lines().count(), 1);
    }

    #[test]
    fn poisoned_point_costs_only_itself() {
        // Regression for the pre-campaign behaviour: one panicking sweep
        // point tore down the whole `std::thread::scope`, losing every
        // completed point with it.
        let machine = small_machine();
        let ns = [1, 2];
        let seeds = [3, 7];
        let opts = scratch("poison");
        let c = Campaign::start("p", &opts).unwrap();
        let w = Poisoned {
            inner: build_workload(ProgramSpec::Is(ProblemClass::S), 8),
            calls: AtomicUsize::new(0),
            // Grid order at jobs = 1: (1,3) (1,7) (2,3) (2,7) — poison the
            // third sample, i.e. point (n = 2, seed = 3).
            panic_on: vec![2],
        };
        let cs = c.run_sweep(&machine, &w, &ns, &seeds, 1).unwrap();
        assert_eq!(cs.errors.len(), 1);
        match &cs.errors[0] {
            PointError::Panicked { n, seed, payload } => {
                assert_eq!((*n, *seed), (2, 3));
                assert!(payload.contains("injected poison"), "{payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        // The surviving point is complete and journaled.
        assert_eq!(cs.sweep.points.len(), 1);
        assert_eq!(cs.sweep.points[0].n, 1);
        assert_eq!(cs.executed, 3);
        let journal = std::fs::read_to_string(c.journal_path()).unwrap();
        assert_eq!(journal.lines().count(), 3, "three good runs journaled");
    }

    #[test]
    fn transient_panic_is_retried_deterministically() {
        let machine = small_machine();
        let mut opts = scratch("retry");
        opts.retries = 1;
        let c = Campaign::start("retry", &opts).unwrap();
        let w = Poisoned {
            inner: build_workload(ProgramSpec::Is(ProblemClass::S), 8),
            calls: AtomicUsize::new(0),
            panic_on: vec![0], // first attempt fails, the retry succeeds
        };
        let cs = c.run_sweep(&machine, &w, &[1], &[5], 1).unwrap();
        assert!(cs.errors.is_empty(), "retry should have healed the point");
        assert_eq!(cs.sweep.points.len(), 1);
        // Backoff is a pure function of (seed, attempt).
        assert_eq!(backoff(5, 1), backoff(5, 1));
        assert_ne!(backoff(5, 1), backoff(6, 1), "jitter is seed-derived");
    }

    /// A single-thread workload long enough (200k ops) to cross the
    /// simulator's ~65k-event deadline poll granularity.
    fn long_workload() -> offchip_machine::ops::VecWorkload {
        let ops = (0..200_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    Op::Access {
                        addr: (i / 2) * 64,
                        write: false,
                        dependent: false,
                        compute: 0,
                    }
                } else {
                    Op::Compute {
                        cycles: 50,
                        instructions: 50,
                    }
                }
            })
            .collect();
        offchip_machine::ops::VecWorkload {
            name: "LONG".into(),
            threads: vec![ops],
        }
    }

    #[test]
    fn deadline_surfaces_as_typed_point_error() {
        let machine = small_machine();
        let w = long_workload();
        let mut opts = scratch("deadline");
        opts.deadline = Some(Duration::ZERO);
        let c = Campaign::start("d", &opts).unwrap();
        let cs = c.run_sweep(&machine, &w, &[1], &[1], 1).unwrap();
        assert_eq!(cs.errors.len(), 1);
        assert!(matches!(
            cs.errors[0],
            PointError::DeadlineExceeded { n: 1, seed: 1, .. }
        ));
        assert!(cs.sweep.points.is_empty());
    }

    #[test]
    fn event_budget_surfaces_as_typed_point_error() {
        let machine = small_machine();
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let mut opts = scratch("budget");
        opts.max_events = Some(100);
        let c = Campaign::start("b", &opts).unwrap();
        let cs = c.run_sweep(&machine, w.as_ref(), &[1], &[1], 1).unwrap();
        assert!(matches!(
            cs.errors[0],
            PointError::EventBudgetExceeded { limit: 100, .. }
        ));
    }

    #[test]
    fn options_parse_contract() {
        let sv = |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        let o = CampaignOptions::parse(&sv(&[
            "--resume",
            "--deadline",
            "2.5",
            "--retries",
            "3",
            "--max-events",
            "1000000",
            "--journal-dir",
            "/tmp/j",
            "--watchdog",
            "30",
            "--chaos-io",
            "eio@fsync:1,enospc@write:2",
        ]))
        .unwrap();
        assert!(o.resume);
        assert_eq!(o.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(o.retries, 3);
        assert_eq!(o.max_events, Some(1_000_000));
        assert_eq!(o.journal_dir, Some(PathBuf::from("/tmp/j")));
        assert_eq!(o.watchdog, Some(Duration::from_secs(30)));
        // `--chaos-io` parses straight into the campaign's Vfs: with
        // `eio@fsync:1`, the first artefact write fails at its fsync.
        let dir = std::env::temp_dir().join(format!("offchip-opts-{}", std::process::id()));
        let err = o.vfs_or_real().write_atomic(&dir.join("a.json"), "{}");
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("injected EIO on fsync"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(CampaignOptions::parse(&sv(&["--deadline"])).is_err());
        assert!(CampaignOptions::parse(&sv(&["--bogus"])).is_err());
        assert!(CampaignOptions::parse(&sv(&["--max-events", "0"])).is_err());
        // A SECS value must name a representable, nonzero duration: a
        // huge one used to panic in `Duration::from_secs_f64`, a tiny one
        // rounded to a zero deadline that failed every run.
        for flag in ["--deadline", "--watchdog"] {
            for bad in ["0", "-1", "nan", "inf", "1e300", "1e20", "1e-300", "1e-10"] {
                assert_eq!(
                    CampaignOptions::parse(&sv(&[flag, bad])).unwrap_err(),
                    format!("{flag} must be a positive number of seconds"),
                    "{flag} {bad}"
                );
            }
            let o = CampaignOptions::parse(&sv(&[flag, "1e-9"])).unwrap();
            assert_eq!(o.deadline.or(o.watchdog), Some(Duration::from_nanos(1)));
        }
        let e = CampaignOptions::parse(&sv(&["--chaos-io", "frob@disk:1"])).unwrap_err();
        assert!(e.contains("chaos-io"), "{e}");
        let huge = format!("seed:1:{}", u64::MAX);
        let e = CampaignOptions::parse(&sv(&["--chaos-io", &huge])).unwrap_err();
        assert!(e.contains("chaos-io") && e.contains("cap"), "{e}");
        let mut d = CampaignOptions::parse(&[]).unwrap();
        assert!(!d.resume);
        assert_eq!(d.retries, 0);
        // OFFCHIP_CHAOS_IO's value is passed in; `--chaos-io` beats it.
        let e = d.chaos_from_env(Some("garbage")).unwrap_err();
        assert!(e.starts_with("OFFCHIP_CHAOS_IO: chaos-io clause"), "{e}");
        d.chaos_from_env(Some("eio@fsync:1")).unwrap();
        assert!(d.vfs.is_some());
        let mut flag = CampaignOptions::parse(&sv(&["--chaos-io", "eio@fsync:1"])).unwrap();
        flag.chaos_from_env(Some("garbage")).unwrap();
    }

    #[test]
    fn config_hash_separates_tunings_and_machines() {
        let uma = small_machine();
        let numa = machines::intel_numa_24().scaled(1.0 / 64.0);
        let base = PointConfig::default();
        let frfcfs = PointConfig {
            scheduler: McScheduler::FrFcfs,
            ..base
        };
        let h = |m: &offchip_topology::MachineSpec, p: &str, t: &PointConfig| config_hash(m, p, t);
        assert_eq!(h(&uma, "CG.S", &base), h(&uma, "CG.S", &base));
        assert_ne!(h(&uma, "CG.S", &base), h(&numa, "CG.S", &base));
        assert_ne!(h(&uma, "CG.S", &base), h(&uma, "IS.S", &base));
        assert_ne!(h(&uma, "CG.S", &base), h(&uma, "CG.S", &frfcfs));
    }

    #[test]
    fn loss_summary_aggregates_by_kind() {
        let panicked = |n| PointError::Panicked {
            payload: "boom".into(),
            n,
            seed: 1,
        };
        let deadline = PointError::DeadlineExceeded {
            n: 4,
            seed: 1,
            deadline: Duration::from_secs(1),
            elapsed: Duration::from_secs(2),
            events: 10,
        };
        let errors = vec![panicked(1), deadline, panicked(2), panicked(3)];
        assert_eq!(loss_summary(&errors), "deadline-exceeded=1 panicked=3");
        assert_eq!(loss_summary(&[]), "");
    }
}
