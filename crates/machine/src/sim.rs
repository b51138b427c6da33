//! The discrete-event simulation engine.
//!
//! See the crate docs for the execution model. Implementation notes:
//!
//! * **Run-ahead bound** — a core executes ops synchronously, advancing a
//!   local clock, but re-enters the event queue after `sync_quantum`
//!   cycles, at every miss cluster, and at barriers, so cross-core causal
//!   error is bounded by `sync_quantum`.
//! * **Pipelined misses** — an access that misses the LLC allocates an
//!   MSHR entry, issues its request, and the thread *keeps executing*;
//!   fills retire entries asynchronously. The thread stalls only on a
//!   structural hazard (MSHR file full — the steady state of streaming
//!   code, which thereby runs at the memory system's service rate) or at a
//!   serialisation point (a `dependent` access, a barrier, or program end
//!   drains all outstanding fills). This is how memory-level parallelism
//!   is modelled: independent streams pipeline up to the MSHR bound,
//!   gather/pointer-chasing code drains constantly.
//! * **Stalls hold the core** — a memory-stalled thread is not preempted
//!   (cores do not context-switch on cache misses); threads blocked at a
//!   barrier yield the core, which is what makes oversubscribed barrier
//!   programs live.

use offchip_cache::{cache::AccessKind, mshr::MshrOutcome, Hierarchy, MshrFile};
use offchip_dram::fcfs::McConfig;
use offchip_dram::{
    EnqueueResult, FcfsController, FrFcfsController, McModel, McStats, Request, RequestId,
    WakeResult,
};
use offchip_obs::{Histogram, McObs, Span};
use offchip_simcore::{CalendarQueue, EventSched, FastDiv, SimTime};
use offchip_topology::{allocation, CoreId, McId};

use crate::config::{ConfigError, McScheduler, MemoryPolicy, SimConfig};
use crate::counters::{Counters, RunReport, WindowSampler};
use crate::firsttouch::FirstTouch;
use crate::ops::{Op, ProgramIter, Workload};

/// Why a bounded run could not complete.
///
/// The budget variants carry the counters accumulated up to the abort
/// point: a wedged run's partial readings are diagnostic data (how far
/// did it get? was it making progress?), not garbage.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The configuration was rejected before the run started.
    Config(ConfigError),
    /// The run processed `events` discrete events, reaching the
    /// configured [`SimConfig::max_events`] cap.
    EventBudgetExceeded {
        /// The configured cap.
        limit: u64,
        /// Events processed when the run was aborted (== `limit`).
        events: u64,
        /// Counters accumulated up to the abort.
        counters: Box<Counters>,
    },
    /// The run exceeded the configured [`SimConfig::deadline`].
    DeadlineExceeded {
        /// The configured wall-clock deadline.
        deadline: std::time::Duration,
        /// Wall clock actually elapsed when the guard fired.
        elapsed: std::time::Duration,
        /// Events processed when the run was aborted.
        events: u64,
        /// Counters accumulated up to the abort.
        counters: Box<Counters>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid simulation configuration: {e}"),
            RunError::EventBudgetExceeded { limit, events, .. } => write!(
                f,
                "event budget exceeded: {events} events processed (cap {limit})"
            ),
            RunError::DeadlineExceeded {
                deadline,
                elapsed,
                events,
                ..
            } => write!(
                f,
                "deadline exceeded: {:.3} s elapsed (deadline {:.3} s, {events} events processed)",
                elapsed.as_secs_f64(),
                deadline.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

/// How often (in events) the wall-clock deadline is polled: reading the
/// OS clock per event would dominate the hot path, so the guard fires on
/// event counts masked to this granularity (65k events ≈ a millisecond
/// of host time — far finer than any useful deadline, and about one
/// clock read per 65k events of work).
const DEADLINE_POLL_MASK: u64 = (1 << 16) - 1;

/// Hard cap on machine-layer trace spans per run (compute quanta are the
/// dominant producer); overflow is counted as dropped rather than growing
/// without bound.
const MAX_SIM_SPANS: usize = 1 << 19;

/// Per-run machine-layer observer; `None` when the run has no registry,
/// so every hot-path hook is one predictable branch on an absent `Option`.
struct SimObs {
    /// Most spans the run collects: `Some` only under a current trace
    /// that takes runs, capped by the room that trace has left.
    span_cap: Option<usize>,
    /// Cycles threads spent blocked on off-chip fills, one sample per
    /// stall episode.
    mem_stall: Histogram,
    /// One-way network latency of remote requests, one sample per remote
    /// request (interconnect hop latency including link queueing).
    hop_latency: Histogram,
    spans: Vec<Span>,
    spans_dropped: u64,
    /// Events processed, by [`Event::kind`]; they sum to
    /// `Counters::sim_events`.
    events: [u64; EVENT_KINDS.len()],
    /// Fills that reached a thread that was not stalled on them.
    fills_running: u64,
}

impl SimObs {
    fn new(span_room: Option<usize>) -> SimObs {
        SimObs {
            span_cap: span_room.map(|room| room.min(MAX_SIM_SPANS)),
            mem_stall: Histogram::new(),
            hop_latency: Histogram::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            events: [0; EVENT_KINDS.len()],
            fills_running: 0,
        }
    }

    /// Records one machine-layer span when tracing; the run's lane is
    /// assigned when the run is flushed.
    #[inline]
    fn push_span(&mut self, name: &'static str, ts: SimTime, dur: u64, tid: u32) {
        if let Some(cap) = self.span_cap {
            if self.spans.len() < cap {
                self.spans.push(Span::run(name, ts.cycles(), dur, tid));
            } else {
                self.spans_dropped += 1;
            }
        }
    }
}

/// A scheduled event. Indices are `u32` so an event is 16 bytes: the
/// queue moves them on every schedule and pop.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Core slot `.0` should (re)enter execution.
    Resume(u32),
    /// The fill for the miss holding MSHR slot `mshr` of `thread`, on
    /// core slot `core`, arrived.
    Fill { core: u32, thread: u32, mshr: u32 },
    /// A deferred-scheduling controller asked to be woken.
    McWake(u32),
    /// A prefetched line arrived from memory: install it into the LLC of
    /// the issuing core's domain.
    PrefetchFill { core: u32, line: u64 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// The registry counter of each event kind, indexed by [`Event::kind`].
const EVENT_KINDS: [&str; 4] = [
    "machine.events.resume",
    "machine.events.fill",
    "machine.events.mc_wake",
    "machine.events.prefetch_fill",
];

impl Event {
    /// This event's index into [`EVENT_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Event::Resume(_) => 0,
            Event::Fill { .. } => 1,
            Event::McWake(_) => 2,
            Event::PrefetchFill { .. } => 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    /// Blocked on the memory system.
    Stalled(StallKind),
    AtBarrier,
    Done,
}

/// Why a thread is memory-stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    /// The MSHR file is full: no new access can issue until a fill frees
    /// an entry (the structural hazard that paces streaming code).
    MshrFull,
    /// A serialisation point (dependent access, barrier, program end)
    /// waits for every outstanding fill.
    Drain,
}

/// The `Fill` events of deferred reads, indexed by the sequential
/// `RequestId`.
///
/// Request ids come from a per-run counter, so the table is a lazily
/// grown vector instead of a hash map: registration and the commit-path
/// lookup are one bounds check and an array write, with no hashing on the
/// per-request path. It only grows when a deferred-scheduling controller
/// actually registers a waiter (FR-FCFS runs); under the default
/// reservation-style FCFS it stays empty. Peak footprint is 16 bytes per
/// issued read of the run — transient, freed with the `Sim`.
struct WaiterTable {
    slots: Vec<Option<Event>>,
}

impl WaiterTable {
    fn new() -> WaiterTable {
        WaiterTable { slots: Vec::new() }
    }

    fn insert(&mut self, id: RequestId, fill: Event) {
        let idx = id as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx] = Some(fill);
    }

    fn remove(&mut self, id: RequestId) -> Option<Event> {
        self.slots.get_mut(id as usize)?.take()
    }
}

/// One memory controller of the run. An enum rather than a trait object,
/// so the FCFS enqueue every miss makes inlines into the miss path.
enum Controller {
    Fcfs(FcfsController),
    FrFcfs(FrFcfsController),
}

/// Delegates `$call` to whichever controller `$mc` holds.
macro_rules! dispatch {
    ($mc:expr, $m:ident => $call:expr) => {
        match $mc {
            Controller::Fcfs($m) => $call,
            Controller::FrFcfs($m) => $call,
        }
    };
}

impl Controller {
    #[inline]
    fn enqueue(&mut self, now: SimTime, req: Request) -> EnqueueResult {
        dispatch!(self, m => m.enqueue(now, req))
    }

    fn wake(&mut self, now: SimTime) -> WakeResult {
        dispatch!(self, m => m.wake(now))
    }

    fn stats(&self) -> &McStats {
        dispatch!(self, m => m.stats())
    }

    fn attach_obs(&mut self, obs: Box<McObs>) {
        dispatch!(self, m => m.attach_obs(obs))
    }

    fn take_obs(&mut self) -> Option<Box<McObs>> {
        dispatch!(self, m => m.take_obs())
    }
}

struct ThreadCtx {
    program: Box<dyn ProgramIter>,
    state: ThreadState,
    pushback: Option<Op>,
    quantum_used: u64,
    mshr: MshrFile,
    stall_started: SimTime,
    home_mc: McId,
}

struct CoreCtx {
    id: CoreId,
    /// Index of the controller local to this core.
    local_mc: usize,
    /// Threads pinned to this core, in thread order.
    threads: Vec<usize>,
    /// Round-robin cursor into `threads`.
    rr: usize,
    /// Thread currently occupying the core (running or memory-stalled).
    current: Option<usize>,
    /// The core is executing (or holding a stalled thread) until here;
    /// Resume events earlier than this are stale.
    busy_until: SimTime,
}

struct Sim<'w> {
    cfg: &'w SimConfig,
    line_mask: u64,
    line_shift: u32,
    /// Level number of the LLC (the prefetcher watches hits there).
    llc_level: u8,
    queue: CalendarQueue<Event>,
    threads: Vec<ThreadCtx>,
    cores: Vec<CoreCtx>,
    hierarchy: Hierarchy,
    mcs: Vec<Controller>,
    mc_wake_at: Vec<Option<SimTime>>,
    first_touch: FirstTouch,
    /// Controllers local to sockets with at least one active core, in
    /// ascending id order — the interleave targets of
    /// [`MemoryPolicy::InterleaveActive`].
    active_mcs: Vec<McId>,
    /// Divides by `active_mcs.len()`, the interleave modulo.
    active_div: FastDiv,
    page_shift: u32,
    /// `net_base[local * mcs.len() + home]`: one-way network latency from
    /// a requester's controller to a line's home before link queueing.
    net_base: Vec<u64>,
    /// Cycles one line occupies an inter-socket link.
    link_transfer: u64,
    /// `link_free[local * mcs.len() + home]`: when the (directed) inter-socket
    /// path from a requester's controller to a home controller can carry
    /// the next line — the QPI/HT bandwidth bound.
    link_free: Vec<SimTime>,
    waiters: WaiterTable,
    /// Per-core-slot stream detector: last line accessed at the LLC level
    /// (the prefetcher sits beside the LLC) and how far ahead it has run.
    stream_last: Vec<u64>,
    stream_ahead: Vec<u64>,
    next_req_id: RequestId,
    barrier_waiting: usize,
    done_threads: usize,
    n_threads: usize,
    counters: Counters,
    sampler: Option<WindowSampler>,
    max_end: SimTime,
    obs: Option<Box<SimObs>>,
}

/// Runs `workload` under `cfg` and returns the full report.
///
/// # Panics
/// Panics if the configuration is invalid (see [`SimConfig::validate`]),
/// if a budget guard it sets fires (the message is the [`RunError`]), or
/// if the workload has no threads. [`try_run_bounded`] returns the first
/// two as typed errors instead.
pub fn run(workload: &dyn Workload, cfg: &SimConfig) -> RunReport {
    try_run_bounded(workload, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `workload` under `cfg` with the configured event-budget and
/// wall-clock-deadline guards in force, reporting an invalid
/// configuration or a fired guard (with the partial counters) as a typed
/// [`RunError`] — the entry point for the CLI and for crash-safe
/// campaigns that must turn a wedged simulation into one lost sweep
/// point rather than a hung process.
///
/// # Panics
/// Panics if the workload has no threads (a workload-construction bug,
/// not a configuration issue).
pub fn try_run_bounded(workload: &dyn Workload, cfg: &SimConfig) -> Result<RunReport, RunError> {
    LaneRunner::new(workload, cfg)?.run_seed(cfg.seed)
}

/// Validated, seed-independent simulator setup.
///
/// Everything derived from `(machine, policy, n_cores, workload shape)` —
/// config validation, thread→core placement, the active controller set,
/// DRAM timing decode — is seed-independent. [`LaneRunner::new`] computes
/// it once; [`LaneRunner::run_seed`] then spins a fresh simulator
/// instance with its own counters, caches, controllers and RNG state.
/// [`try_run_bounded`] is `new` followed by one `run_seed`; a caller that
/// times setup apart from the event loop uses the two halves directly.
/// Each seed run through one runner reproduces the standalone run at that
/// seed byte for byte (pinned by `lanes_match_standalone_runs` below).
pub struct LaneRunner<'a> {
    workload: &'a dyn Workload,
    cfg: &'a SimConfig,
    n_threads: usize,
    placement: allocation::Placement,
    /// Threads pinned to each active-core slot, in thread order.
    slot_threads: Vec<Vec<usize>>,
    /// The controller local to each active-core slot.
    slot_local_mc: Vec<usize>,
    mc_cfg: McConfig,
    active_mcs: Vec<McId>,
    /// `[local][home]` base network latency, row-major over controllers.
    net_base: Vec<u64>,
}

impl<'a> LaneRunner<'a> {
    /// Validates `cfg` and performs the seed-independent setup.
    ///
    /// # Panics
    /// Panics if the workload has no threads (a workload-construction
    /// bug, not a configuration issue).
    pub fn new(workload: &'a dyn Workload, cfg: &'a SimConfig) -> Result<LaneRunner<'a>, RunError> {
        cfg.validate()?;
        let n_threads = workload.n_threads();
        assert!(n_threads > 0, "workload has no threads");

        let placement = allocation::place(&cfg.machine, cfg.policy, n_threads, cfg.n_cores);
        let mut slot_threads: Vec<Vec<usize>> = vec![Vec::new(); placement.active_cores.len()];
        for (t, &core_id) in placement.thread_core.iter().enumerate() {
            let slot = placement
                .active_cores
                .iter()
                .position(|&c| c == core_id)
                .expect("thread pinned to an active core");
            slot_threads[slot].push(t);
        }

        let mc_cfg = McConfig::from_spec(&cfg.machine.dram, cfg.machine.line_bytes());

        let mut active_mcs: Vec<McId> = placement
            .active_cores
            .iter()
            .flat_map(|&core| {
                // All controllers of the core's socket count as activated
                // ("the memory controllers belonging to the same processor
                // were activated simultaneously", §III-A).
                let socket = cfg.machine.socket_of(core);
                let first = socket.index() * cfg.machine.domains_per_socket;
                (first..first + cfg.machine.domains_per_socket).map(|d| cfg.machine.mc_of_domain(d))
            })
            .collect();
        active_mcs.sort_unstable();
        active_mcs.dedup();
        if active_mcs.is_empty() {
            active_mcs.push(McId(0));
        }

        let machine = &cfg.machine;
        let slot_local_mc = placement
            .active_cores
            .iter()
            .map(|&core| machine.local_mc(core).index())
            .collect();
        let n_mcs = machine.total_mcs();
        let net_base = (0..n_mcs * n_mcs)
            .map(|route| {
                let (local, home) = (McId(route / n_mcs), McId(route % n_mcs));
                machine.fsb_latency + machine.interconnect.remote_penalty(local, home)
            })
            .collect();

        Ok(LaneRunner {
            workload,
            cfg,
            n_threads,
            placement,
            slot_threads,
            slot_local_mc,
            mc_cfg,
            active_mcs,
            net_base,
        })
    }

    /// Runs one seed lane through the shared setup.
    pub fn run_seed(&self, seed: u64) -> Result<RunReport, RunError> {
        let cfg = self.cfg;
        let n_threads = self.n_threads;

        let threads: Vec<ThreadCtx> = (0..n_threads)
            .map(|t| ThreadCtx {
                program: self
                    .workload
                    .thread_program(t, seed ^ (t as u64).wrapping_mul(0x9E3779B9)),
                state: ThreadState::Runnable,
                pushback: None,
                quantum_used: 0,
                mshr: MshrFile::new(cfg.mshr_per_core),
                stall_started: SimTime::ZERO,
                home_mc: self.placement.thread_home_mc[t],
            })
            .collect();

        let cores: Vec<CoreCtx> = self
            .placement
            .active_cores
            .iter()
            .zip(&self.slot_threads)
            .zip(&self.slot_local_mc)
            .map(|((&id, pinned), &local_mc)| CoreCtx {
                id,
                local_mc,
                threads: pinned.clone(),
                rr: 0,
                current: None,
                busy_until: SimTime::ZERO,
            })
            .collect();

        let mut mcs: Vec<Controller> = (0..cfg.machine.total_mcs())
            .map(|_| match cfg.scheduler {
                McScheduler::Fcfs => Controller::Fcfs(FcfsController::new(self.mc_cfg)),
                McScheduler::FrFcfs => Controller::FrFcfs(FrFcfsController::new(self.mc_cfg)),
            })
            .collect();
        // Spans go to the thread's current trace, so an observed run
        // collects them only when that trace takes runs, and no more than
        // it has room for: a full trace would only drop them.
        let observed = cfg.metrics.is_some();
        let span_room = observed.then(offchip_obs::run_room).flatten();
        if observed {
            for (i, mc) in mcs.iter_mut().enumerate() {
                mc.attach_obs(Box::new(McObs::new(i, span_room)));
            }
        }
        let n_mcs = mcs.len();

        let mut sim = Sim {
            cfg,
            line_mask: !(cfg.machine.line_bytes() as u64 - 1),
            line_shift: cfg.machine.line_bytes().trailing_zeros(),
            llc_level: cfg.machine.llc().level,
            queue: CalendarQueue::new(),
            threads,
            cores,
            hierarchy: Hierarchy::with_policy(&cfg.machine, cfg.replacement),
            mcs,
            mc_wake_at: vec![None; n_mcs],
            first_touch: FirstTouch::new(cfg.page_bytes),
            stream_last: vec![u64::MAX; cfg.n_cores],
            stream_ahead: vec![0; cfg.n_cores],
            active_mcs: self.active_mcs.clone(),
            active_div: FastDiv::new(self.active_mcs.len() as u64),
            page_shift: cfg.page_bytes.trailing_zeros(),
            net_base: self.net_base.clone(),
            link_transfer: cfg.machine.interconnect.link_transfer(),
            link_free: vec![SimTime::ZERO; n_mcs * n_mcs],
            waiters: WaiterTable::new(),
            next_req_id: 0,
            barrier_waiting: 0,
            done_threads: 0,
            n_threads,
            counters: Counters::default(),
            sampler: cfg.sampler_window.map(WindowSampler::new),
            max_end: SimTime::ZERO,
            obs: observed.then(|| Box::new(SimObs::new(span_room))),
        };

        for slot in 0..sim.cores.len() {
            sim.queue
                .schedule_at(SimTime::ZERO, Event::Resume(slot as u32));
        }

        // Budget guards. The event cap is one compare per event against a
        // register-resident constant (`u64::MAX` when unset — unreachable);
        // the deadline polls the OS clock only every `DEADLINE_POLL_MASK + 1`
        // events, so neither is measurable on the hot path (the perfstat
        // regression gate pins this).
        let event_limit = cfg.max_events.unwrap_or(u64::MAX);
        let started = cfg.deadline.map(|dl| (dl, std::time::Instant::now()));

        while let Some((t, ev)) = sim.queue.pop() {
            // The cap is tested before the popped event counts, so a run
            // needing exactly `limit` events completes, and an aborted one
            // reports the `limit` events it processed.
            if sim.counters.sim_events >= event_limit {
                return Err(RunError::EventBudgetExceeded {
                    limit: event_limit,
                    events: sim.counters.sim_events,
                    counters: Box::new(sim.counters.clone()),
                });
            }
            sim.counters.sim_events += 1;
            if let Some(o) = &mut sim.obs {
                o.events[ev.kind()] += 1;
            }
            if sim.counters.sim_events & DEADLINE_POLL_MASK == 0 {
                if let Some((dl, t0)) = started {
                    let elapsed = t0.elapsed();
                    if elapsed >= dl {
                        return Err(RunError::DeadlineExceeded {
                            deadline: dl,
                            elapsed,
                            events: sim.counters.sim_events,
                            counters: Box::new(sim.counters.clone()),
                        });
                    }
                }
            }
            match ev {
                Event::Resume(slot) => {
                    let slot = slot as usize;
                    if t < sim.cores[slot].busy_until {
                        continue; // stale: the core is already executing past t
                    }
                    sim.run_core(slot, t);
                }
                Event::Fill { core, thread, mshr } => {
                    sim.on_fill(core as usize, thread as usize, mshr as usize, t);
                }
                Event::McWake(mc) => {
                    let mc = mc as usize;
                    match sim.mc_wake_at[mc] {
                        // The live registration: consume it and wake.
                        Some(s) if s == t => {
                            sim.mc_wake_at[mc] = None;
                            sim.mc_wake(mc, t);
                        }
                        // A registration one cycle out may have raced a
                        // same-cycle enqueue/serve that left work servable at
                        // `t`; waking is the only locally safe call, matching
                        // the historical unconditional-wake behaviour.
                        Some(s) if s == t + 1 => sim.mc_wake(mc, t),
                        // Registered strictly later, or nothing registered:
                        // the controller's earliest opportunity is provably
                        // past `t` (registrations never trail a mutation by
                        // more than one cycle), so the wake would be a no-op —
                        // skip it and the redundant re-registration probe.
                        other => debug_assert!(other.is_none_or(|s| s > t + 1)),
                    }
                }
                Event::PrefetchFill { core, line } => {
                    let core = core as usize;
                    let core_id = sim.cores[core].id;
                    if let Some(victim) = sim.hierarchy.install_llc(core_id, line) {
                        // A prefetch may evict a dirty line; attribute the
                        // write-back to thread 0 of the slot (the home lookup
                        // only needs *a* thread for first-touch fallback).
                        let th = sim.cores[core].threads[0];
                        sim.issue_writeback(core, th, victim, t);
                    }
                }
            }
        }

        assert_eq!(
            sim.done_threads, sim.n_threads,
            "simulation drained with live threads — deadlock in the workload?"
        );

        let makespan = sim.max_end;
        sim.counters.core_time_cycles = cfg.n_cores as u64 * makespan.cycles();
        sim.counters.total_cycles = sim.counters.work_cycles
            + sim.counters.onchip_stall_cycles
            + sim.counters.mem_stall_cycles
            + sim.counters.switch_cycles;
        sim.counters.stall_cycles = sim
            .counters
            .total_cycles
            .saturating_sub(sim.counters.work_cycles);
        sim.counters.llc_misses = sim.hierarchy.total_llc_misses();
        sim.counters.llc_accesses = sim.hierarchy.total_llc_accesses();

        flush_obs(&mut sim);

        Ok(RunReport {
            program: self.workload.name(),
            machine: cfg.machine.name.clone(),
            n_cores: cfg.n_cores,
            n_threads,
            makespan,
            counters: sim.counters,
            mc_stats: sim.mcs.iter().map(|m| m.stats().clone()).collect(),
            llc_stats: (0..sim.hierarchy.n_domains())
                .map(|d| sim.hierarchy.llc_stats(d))
                .collect(),
            miss_windows: sim.sampler.map(|s| s.finish(makespan)),
            placement: self.placement.clone(),
        })
    }
}

/// Drains every per-run observer into the run's registry and the current
/// trace's next lane. A no-op for a run without a registry, which touches
/// no shared state at all.
fn flush_obs(sim: &mut Sim<'_>) {
    let cfg = sim.cfg;
    let Some(reg) = cfg.metrics.as_deref() else {
        return;
    };

    let mut mshr_peak = 0u64;
    for th in &sim.threads {
        mshr_peak = mshr_peak.max(th.mshr.peak() as u64);
    }
    reg.gauge_max("machine.mshr_occupancy_peak", mshr_peak);
    reg.gauge_max("machine.event_queue_peak", sim.queue.max_len() as u64);

    for (level, accesses, misses) in sim.hierarchy.level_totals() {
        reg.add(&format!("cache.l{level}.accesses"), accesses);
        reg.add(&format!("cache.l{level}.misses"), misses);
    }

    let (mut row_hits, mut row_conflicts) = (0u64, 0u64);
    for mc in &sim.mcs {
        let st = mc.stats();
        row_hits += st.row_hits;
        row_conflicts += st.row_misses;
    }
    reg.add("dram.row_hits", row_hits);
    reg.add("dram.row_conflicts", row_conflicts);

    let (mut spans, mut dropped) = (Vec::new(), 0);
    for mc in sim.mcs.iter_mut() {
        if let Some(obs) = mc.take_obs() {
            reg.merge_histogram("dram.queue_wait_cycles", obs.queue_wait());
            reg.merge_histogram("dram.queue_depth", obs.queue_depth());
            let (mc_spans, mc_dropped) = obs.spans();
            spans.extend_from_slice(mc_spans);
            dropped += mc_dropped;
        }
    }
    if let Some(mut o) = sim.obs.take() {
        for (name, n) in EVENT_KINDS.into_iter().zip(o.events) {
            reg.add(name, n);
        }
        reg.add("machine.fills.running", o.fills_running);
        reg.merge_histogram("machine.mem_stall_cycles", &o.mem_stall);
        reg.merge_histogram("net.hop_latency_cycles", &o.hop_latency);
        spans.append(&mut o.spans);
        dropped += o.spans_dropped;
    }
    if !spans.is_empty() || dropped > 0 {
        // One lane per run, so overlapping sweep points stay visually
        // separate in Perfetto.
        offchip_obs::push_run(&spans, dropped);
    }
}

impl Sim<'_> {
    fn pull(&mut self, thread: usize) -> Option<Op> {
        let th = &mut self.threads[thread];
        th.pushback.take().or_else(|| th.program.next_op())
    }

    fn pick_runnable(&mut self, slot: usize) -> Option<usize> {
        let n = self.cores[slot].threads.len();
        for k in 0..n {
            let idx = (self.cores[slot].rr + k) % n;
            let t = self.cores[slot].threads[idx];
            if self.threads[t].state == ThreadState::Runnable {
                self.cores[slot].rr = (idx + 1) % n;
                return Some(t);
            }
        }
        None
    }

    fn has_other_runnable(&self, slot: usize, current: usize) -> bool {
        self.cores[slot]
            .threads
            .iter()
            .any(|&t| t != current && self.threads[t].state == ThreadState::Runnable)
    }

    fn maybe_schedule_wake(&mut self, mc: usize, at: SimTime) {
        let at = at.max(self.queue.now());
        if self.mc_wake_at[mc].is_none_or(|s| at < s) {
            self.mc_wake_at[mc] = Some(at);
            self.queue.schedule_at(at, Event::McWake(mc as u32));
        }
    }

    fn mc_wake(&mut self, mc: usize, now: SimTime) {
        let result = self.mcs[mc].wake(now);
        for (req, completion) in result.committed {
            if let Some(fill) = self.waiters.remove(req.id) {
                self.queue.schedule_at(completion.max(now), fill);
            }
            // Write-backs have no waiter: fire-and-forget.
        }
        if let Some(next) = result.next_wake {
            self.maybe_schedule_wake(mc, next);
        }
    }

    fn on_fill(&mut self, core: usize, thread: usize, mshr: usize, t: SimTime) {
        self.threads[thread].mshr.complete(mshr);
        let resume = match self.threads[thread].state {
            ThreadState::Stalled(StallKind::MshrFull) => true,
            ThreadState::Stalled(StallKind::Drain) => self.threads[thread].mshr.in_flight() == 0,
            // A pipelined fill for a thread that kept running.
            _ => {
                if let Some(o) = &mut self.obs {
                    o.fills_running += 1;
                }
                return;
            }
        };
        if !resume {
            return;
        }
        self.threads[thread].state = ThreadState::Runnable;
        let stalled_for = t.since(self.threads[thread].stall_started);
        self.counters.mem_stall_cycles += stalled_for;
        if let Some(o) = &mut self.obs {
            o.mem_stall.record(stalled_for);
            let started = self.threads[thread].stall_started;
            o.push_span("mem_stall", started, stalled_for, thread as u32);
        }
        if self.cores[core].current == Some(thread) {
            // Fills can arrive "before" the thread's run-ahead clock;
            // never let a resume move its local time backwards.
            let resume_t = t.max(self.cores[core].busy_until);
            self.run_core(core, resume_t);
        }
    }

    /// Puts `thread` (current on core `slot`) into a memory stall at `t`.
    fn stall_thread(&mut self, slot: usize, thread: usize, kind: StallKind, t: SimTime) {
        self.threads[thread].state = ThreadState::Stalled(kind);
        self.threads[thread].stall_started = t;
        self.cores[slot].busy_until = t;
    }

    /// Resolves the home controller of an address under the configured
    /// page-placement policy.
    fn home_of(&mut self, line_addr: u64, thread: usize) -> usize {
        match self.cfg.memory_policy {
            MemoryPolicy::InterleaveActive => {
                let page = line_addr >> self.page_shift;
                self.active_mcs[self.active_div.rem(page) as usize].index()
            }
            MemoryPolicy::FirstTouch => self
                .first_touch
                .resolve(line_addr, self.threads[thread].home_mc)
                .index(),
        }
    }

    /// Computes the network latency of a request from controller `local`
    /// to `home` at time `t`, charging link occupancy for remote lines
    /// (bandwidth contention on the inter-socket links).
    fn network_cost(&mut self, local: usize, home: usize, t: SimTime) -> u64 {
        let route = local * self.mcs.len() + home;
        let base = self.net_base[route];
        if home == local || self.link_transfer == 0 {
            return base;
        }
        let occupancy = self.link_transfer;
        let slot = &mut self.link_free[route];
        let start = (*slot).max(t);
        let queue_delay = start.since(t);
        *slot = start + occupancy;
        let latency = base + queue_delay + occupancy;
        if let Some(o) = &mut self.obs {
            o.hop_latency.record(latency);
        }
        latency
    }

    /// Issues the off-chip request for a missing line at time `t`, unless
    /// it coalesces with one already outstanding.
    fn issue_miss(&mut self, slot: usize, thread: usize, addr: u64, t: SimTime) {
        let line_addr = addr & self.line_mask;
        let mshr = match self.threads[thread].mshr.allocate(line_addr) {
            MshrOutcome::Coalesced => return,
            MshrOutcome::Full => unreachable!("run_core checks MSHR room before the lookup"),
            MshrOutcome::Allocated(mshr) => mshr as u32,
        };
        if let Some(s) = self.sampler.as_mut() {
            s.record(t, 1);
        }
        let local = self.cores[slot].local_mc;
        let home = self.home_of(line_addr, thread);
        if home != local {
            self.counters.remote_requests += 1;
        }
        let net = self.network_cost(local, home, t);
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.counters.read_requests += 1;
        let req = Request {
            id,
            line_addr,
            is_write: false,
            network_latency: net,
        };
        let fill = Event::Fill {
            core: slot as u32,
            thread: thread as u32,
            mshr,
        };
        match self.mcs[home].enqueue(t, req) {
            EnqueueResult::Completed(done) => self.queue.schedule_at(done.max(t), fill),
            EnqueueResult::Deferred(wake) => {
                self.waiters.insert(id, fill);
                if let Some(w) = wake {
                    self.maybe_schedule_wake(home, w);
                }
            }
        }
    }

    /// Observes an off-chip access for the stream prefetcher and issues
    /// next-line prefetches when `addr` continues the core's current
    /// sequential stream. Called only when prefetching is on.
    fn maybe_prefetch(&mut self, slot: usize, thread: usize, addr: u64, t: SimTime) {
        let degree = self.cfg.prefetch_degree as u64;
        let line_idx = addr >> self.line_shift;
        let last = self.stream_last[slot];
        self.stream_last[slot] = line_idx;
        if last == u64::MAX || line_idx != last + 1 {
            self.stream_ahead[slot] = 0;
            return; // not (yet) a stream
        }
        // Confirmed ascending stream: run up to `degree` lines ahead.
        let already = self.stream_ahead[slot].saturating_sub(1);
        for k in already..degree {
            let pf_line = (line_idx + 1 + k) << self.line_shift;
            let core_id = self.cores[slot].id;
            if self.hierarchy.llc_resident(core_id, pf_line) {
                continue;
            }
            let local = self.cores[slot].local_mc;
            let home = self.home_of(pf_line, thread);
            let net = self.network_cost(local, home, t);
            let id = self.next_req_id;
            self.next_req_id += 1;
            self.counters.prefetch_requests += 1;
            let req = Request {
                id,
                line_addr: pf_line,
                is_write: false,
                network_latency: net,
            };
            match self.mcs[home].enqueue(t, req) {
                EnqueueResult::Completed(done) => self.queue.schedule_at(
                    done.max(t),
                    Event::PrefetchFill {
                        core: slot as u32,
                        line: pf_line,
                    },
                ),
                EnqueueResult::Deferred(wake) => {
                    // Deferred controllers drop untracked completions;
                    // register a waiter-free prefetch by reusing the
                    // PrefetchFill path on commit is not supported, so
                    // under FR-FCFS prefetches act as bandwidth load only.
                    if let Some(w) = wake {
                        self.maybe_schedule_wake(home, w);
                    }
                }
            }
        }
        self.stream_ahead[slot] = degree;
    }

    /// Issues a fire-and-forget write-back of an evicted dirty line.
    fn issue_writeback(&mut self, slot: usize, thread: usize, victim_addr: u64, t: SimTime) {
        let line_addr = victim_addr & self.line_mask;
        let local = self.cores[slot].local_mc;
        // The victim's page placement was decided when it was first fetched.
        let home = self.home_of(line_addr, thread);
        let net = self.network_cost(local, home, t);
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.counters.write_requests += 1;
        let req = Request {
            id,
            line_addr,
            is_write: true,
            network_latency: net,
        };
        match self.mcs[home].enqueue(t, req) {
            EnqueueResult::Completed(_) => {}
            EnqueueResult::Deferred(wake) => {
                // No waiter registered: completion is dropped on commit.
                if let Some(w) = wake {
                    self.maybe_schedule_wake(home, w);
                }
            }
        }
    }

    fn release_barrier_if_complete(&mut self, t: SimTime) {
        let live = self.n_threads - self.done_threads;
        if live > 0 && self.barrier_waiting == live {
            self.barrier_waiting = 0;
            for i in 0..self.threads.len() {
                if self.threads[i].state == ThreadState::AtBarrier {
                    self.threads[i].state = ThreadState::Runnable;
                    if let Some(o) = &mut self.obs {
                        let started = self.threads[i].stall_started;
                        o.push_span("barrier", started, t.since(started), i as u32);
                    }
                }
            }
            for slot in 0..self.cores.len() {
                // Cores run ahead of the global clock between sync points.
                // A core that reached the barrier at a *later* local time
                // than the releasing arrival must be woken at its own
                // clock — a Resume timestamped before its busy_until would
                // be discarded as stale and the core would sleep forever.
                let wake = t.max(self.cores[slot].busy_until);
                self.queue.schedule_at(wake, Event::Resume(slot as u32));
            }
        }
    }

    /// The sync-quantum boundary. Once the core has run `sync_quantum`
    /// cycles past `segment_start` it re-synchronises with the global
    /// clock — but only by yielding to the event queue when something is
    /// due at or before `t`, in which case it schedules its own resume and
    /// returns `true`. Otherwise the Resume it would push would pop next
    /// with nothing in between, so it starts the next segment in place
    /// and skips the queue round-trip.
    #[inline]
    fn sync_yield(&mut self, slot: usize, t: SimTime, segment_start: &mut SimTime) -> bool {
        if t.since(*segment_start) < self.cfg.sync_quantum {
            return false;
        }
        if self.queue.peek_time().is_some_and(|due| due <= t) {
            self.cores[slot].busy_until = t;
            self.queue.schedule_at(t, Event::Resume(slot as u32));
            return true;
        }
        *segment_start = t;
        false
    }

    /// Runs `cycles` of compute retiring `instructions` for thread `cur`
    /// on core `slot`, advancing `t`. Returns `true` when that used up the
    /// thread's quantum while another thread is runnable: the core has
    /// then switched the thread out (switch cost charged, `current`
    /// cleared).
    #[inline]
    fn compute(
        &mut self,
        slot: usize,
        cur: usize,
        cycles: u64,
        instructions: u64,
        t: &mut SimTime,
    ) -> bool {
        if let Some(o) = &mut self.obs {
            o.push_span("compute", *t, cycles, cur as u32);
        }
        *t += cycles;
        self.counters.work_cycles += cycles;
        self.counters.instructions += instructions;
        self.threads[cur].quantum_used += cycles;
        if self.threads[cur].quantum_used >= self.cfg.quantum_cycles
            && self.has_other_runnable(slot, cur)
        {
            self.threads[cur].quantum_used = 0;
            *t += self.cfg.context_switch_cycles;
            self.counters.switch_cycles += self.cfg.context_switch_cycles;
            self.cores[slot].current = None;
            return true;
        }
        false
    }

    /// The core execution loop; `now` is the global time at entry.
    fn run_core(&mut self, slot: usize, now: SimTime) {
        let mut t = now;
        'threads: loop {
            let cur = match self.cores[slot].current {
                Some(th) => {
                    if self.threads[th].state != ThreadState::Runnable {
                        // Memory-stalled holder: the core waits with it.
                        self.cores[slot].busy_until = t;
                        return;
                    }
                    th
                }
                None => match self.pick_runnable(slot) {
                    Some(th) => {
                        self.cores[slot].current = Some(th);
                        th
                    }
                    None => {
                        // Idle: a Fill or barrier release will resume us.
                        self.cores[slot].busy_until = t;
                        return;
                    }
                },
            };

            let mut segment_start = t;
            loop {
                if self.sync_yield(slot, t, &mut segment_start) {
                    return;
                }
                let Some(op) = self.pull(cur) else {
                    // End of program: drain outstanding fills first (the
                    // fused iterator will yield None again on resume).
                    if self.threads[cur].mshr.in_flight() > 0 {
                        self.stall_thread(slot, cur, StallKind::Drain, t);
                        return;
                    }
                    self.threads[cur].state = ThreadState::Done;
                    self.done_threads += 1;
                    self.max_end = self.max_end.max(t);
                    self.cores[slot].current = None;
                    self.release_barrier_if_complete(t);
                    continue 'threads;
                };
                match op {
                    Op::Compute {
                        cycles,
                        instructions,
                    } => {
                        if self.compute(slot, cur, cycles, instructions, &mut t) {
                            continue 'threads;
                        }
                    }
                    Op::Access {
                        addr,
                        write,
                        dependent,
                        compute,
                    } => {
                        // What goes back to the program if the access
                        // cannot issue now: its compute is already spent.
                        let retry = Op::Access {
                            addr,
                            write,
                            dependent,
                            compute: 0,
                        };
                        if compute > 0 {
                            // The folded compute meets the same quantum
                            // and sync-quantum checks a separate Compute
                            // op would have met before the access.
                            if self.compute(slot, cur, compute, compute, &mut t) {
                                self.threads[cur].pushback = Some(retry);
                                continue 'threads;
                            }
                            if self.sync_yield(slot, t, &mut segment_start) {
                                self.threads[cur].pushback = Some(retry);
                                return;
                            }
                        }
                        // A serialising access drains outstanding fills.
                        if dependent && self.threads[cur].mshr.in_flight() > 0 {
                            self.threads[cur].pushback = Some(retry);
                            self.stall_thread(slot, cur, StallKind::Drain, t);
                            return;
                        }
                        // Require MSHR room before the lookup so a full
                        // file stalls the access (load-queue-full hazard);
                        // the retry re-executes the lookup exactly once.
                        if !self.threads[cur].mshr.has_room() {
                            self.threads[cur].pushback = Some(retry);
                            self.stall_thread(slot, cur, StallKind::MshrFull, t);
                            return;
                        }
                        self.counters.instructions += 1;
                        let kind = if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let core_id = self.cores[slot].id;
                        let outcome = self.hierarchy.access(core_id, addr, kind);
                        let prefetch = self.cfg.prefetch_degree > 0;
                        match outcome.hit_level {
                            Some(1) => {
                                // Pipelined L1 hit: one work cycle.
                                t += 1;
                                self.counters.work_cycles += 1;
                            }
                            Some(level) => {
                                t += outcome.lookup_cycles;
                                self.counters.onchip_stall_cycles += outcome.lookup_cycles;
                                // The prefetcher sits beside the LLC and
                                // observes hits there too — otherwise a
                                // successfully prefetched stream would
                                // starve its own prefetcher.
                                if prefetch && level == self.llc_level {
                                    self.maybe_prefetch(slot, cur, addr, t);
                                }
                            }
                            None => {
                                if let Some(v) = outcome.llc_writeback {
                                    self.issue_writeback(slot, cur, v, t);
                                }
                                // The load retires into its MSHR and the
                                // core keeps going; pacing comes from the
                                // structural stalls above.
                                self.issue_miss(slot, cur, addr, t);
                                if prefetch {
                                    self.maybe_prefetch(slot, cur, addr, t);
                                }
                                t += 1;
                                self.counters.work_cycles += 1;
                            }
                        }
                    }
                    Op::Barrier => {
                        // Memory fence semantics: drain before arriving.
                        if self.threads[cur].mshr.in_flight() > 0 {
                            self.threads[cur].pushback = Some(op);
                            self.stall_thread(slot, cur, StallKind::Drain, t);
                            return;
                        }
                        self.threads[cur].state = ThreadState::AtBarrier;
                        self.threads[cur].stall_started = t;
                        self.barrier_waiting += 1;
                        self.cores[slot].current = None;
                        self.release_barrier_if_complete(t);
                        continue 'threads;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecWorkload;
    use offchip_topology::machines;

    fn compute(cycles: u64) -> Op {
        Op::Compute {
            cycles,
            instructions: cycles,
        }
    }

    fn read(addr: u64) -> Op {
        Op::Access {
            addr,
            write: false,
            dependent: true,
            compute: 0,
        }
    }

    fn read_indep(addr: u64) -> Op {
        Op::Access {
            addr,
            write: false,
            dependent: false,
            compute: 0,
        }
    }

    fn small_machine() -> offchip_topology::MachineSpec {
        machines::intel_uma_8().scaled(1.0 / 64.0)
    }

    #[test]
    fn compute_only_single_thread() {
        let w = VecWorkload {
            name: "compute".into(),
            threads: vec![vec![compute(1000), compute(500)]],
        };
        let r = run(&w, &SimConfig::new(small_machine(), 1));
        assert_eq!(r.makespan, SimTime(1500));
        assert_eq!(r.counters.total_cycles, 1500);
        assert_eq!(r.counters.work_cycles, 1500);
        assert_eq!(r.counters.stall_cycles, 0);
        assert_eq!(r.counters.llc_misses, 0);
        assert_eq!(r.counters.instructions, 1500);
    }

    #[test]
    fn parallel_compute_scales() {
        // 4 threads × 1000 cycles on 4 cores: makespan 1000, C(4) = 4000 =
        // C(1)-equivalent total work → ω = 0.
        let w = VecWorkload {
            name: "par".into(),
            threads: (0..4).map(|_| vec![compute(1000)]).collect(),
        };
        let r = run(&w, &SimConfig::new(small_machine(), 4));
        assert_eq!(r.makespan, SimTime(1000));
        assert_eq!(r.counters.total_cycles, 4000);
        assert_eq!(r.counters.work_cycles, 4000);
    }

    #[test]
    fn oversubscription_serialises_with_switch_cost() {
        let cfg = SimConfig::new(small_machine(), 1);
        let w = VecWorkload {
            name: "two-on-one".into(),
            threads: (0..2).map(|_| vec![compute(1000)]).collect(),
        };
        let r = run(&w, &cfg);
        // Both threads run on core 0 sequentially (each under one quantum).
        assert_eq!(r.makespan, SimTime(2000));
        assert_eq!(r.counters.work_cycles, 2000);
    }

    #[test]
    fn quantum_preemption_interleaves() {
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.quantum_cycles = 100;
        cfg.context_switch_cycles = 10;
        cfg.sync_quantum = 10_000;
        let w = VecWorkload {
            name: "interleave".into(),
            threads: (0..2)
                .map(|_| (0..5).map(|_| compute(100)).collect())
                .collect(),
        };
        let r = run(&w, &cfg);
        // 1000 cycles of work + switch overhead from preemptions.
        assert_eq!(r.counters.work_cycles, 1000);
        assert!(r.counters.switch_cycles > 0);
        assert_eq!(
            r.makespan.cycles(),
            1000 + r.counters.switch_cycles,
            "makespan = work + switches on one core"
        );
    }

    #[test]
    fn llc_miss_stalls_and_counts() {
        let w = VecWorkload {
            name: "one-miss".into(),
            threads: vec![vec![compute(100), read(1 << 20), compute(100)]],
        };
        let r = run(&w, &SimConfig::new(small_machine(), 1));
        assert_eq!(r.counters.llc_misses, 1);
        assert_eq!(r.counters.read_requests, 1);
        // 200 compute cycles + 1 issue cycle for the miss.
        assert_eq!(r.counters.work_cycles, 201);
        assert!(
            r.counters.mem_stall_cycles > 100,
            "the end-of-program drain waits out the DRAM service, got {}",
            r.counters.mem_stall_cycles
        );
        // The trailing compute pipelines under the outstanding fill; the
        // program then drains: makespan = work + residual drain stall.
        assert_eq!(
            r.makespan.cycles(),
            201 + r.counters.mem_stall_cycles,
            "single-thread identity with pipelined tail compute"
        );
    }

    #[test]
    fn repeated_access_hits_cache() {
        let w = VecWorkload {
            name: "hit".into(),
            threads: vec![vec![read(0x800000), read(0x800000), read(0x800000)]],
        };
        let r = run(&w, &SimConfig::new(small_machine(), 1));
        assert_eq!(r.counters.llc_misses, 1);
        // One miss-issue cycle plus two L1 hits retire as work.
        assert_eq!(r.counters.work_cycles, 3);
    }

    #[test]
    fn independent_misses_overlap_dependent_do_not() {
        // Two distinct lines, stride past the whole hierarchy.
        let a = 1 << 22;
        let b = 2 << 22;
        let dep = VecWorkload {
            name: "dep".into(),
            threads: vec![vec![read(a), read(b)]],
        };
        let indep = VecWorkload {
            name: "indep".into(),
            threads: vec![vec![read_indep(a), read_indep(b)]],
        };
        let cfg = SimConfig::new(small_machine(), 1);
        let r_dep = run(&dep, &cfg);
        let r_indep = run(&indep, &cfg);
        assert!(
            r_indep.makespan < r_dep.makespan,
            "overlapped {} vs serialised {}",
            r_indep.makespan,
            r_dep.makespan
        );
        assert_eq!(r_dep.counters.llc_misses, 2);
        assert_eq!(r_indep.counters.llc_misses, 2);
    }

    #[test]
    fn barrier_synchronises_threads() {
        // Thread 0 computes 100, thread 1 computes 1000; after the barrier
        // each computes 100. Makespan must be ≥ 1100 (barrier waits).
        let w = VecWorkload {
            name: "barrier".into(),
            threads: vec![
                vec![compute(100), Op::Barrier, compute(100)],
                vec![compute(1000), Op::Barrier, compute(100)],
            ],
        };
        let r = run(&w, &SimConfig::new(small_machine(), 2));
        assert_eq!(r.makespan, SimTime(1100));
    }

    #[test]
    fn barrier_with_oversubscription_does_not_deadlock() {
        // 4 threads, 1 core: blocked-at-barrier threads must yield.
        let w = VecWorkload {
            name: "barrier-oversub".into(),
            threads: (0..4)
                .map(|_| vec![compute(50), Op::Barrier, compute(50)])
                .collect(),
        };
        let r = run(&w, &SimConfig::new(small_machine(), 1));
        assert_eq!(r.counters.work_cycles, 400);
        assert!(r.makespan >= SimTime(400));
    }

    #[test]
    fn contention_grows_with_cores_for_memory_bound_work() {
        // The crown observation: a memory-bound program on more active
        // cores of one UMA socket suffers more total cycles. 8 threads
        // stream over disjoint regions large enough to always miss.
        let mk = |threads: usize| -> VecWorkload {
            VecWorkload {
                name: "membound".into(),
                threads: (0..threads)
                    .map(|t| {
                        let base = (t as u64) << 30;
                        (0..2000)
                            .map(|i| read_indep(base + i * 4096)) // new page each access
                            .collect()
                    })
                    .collect(),
            }
        };
        let w = mk(8);
        let machine = small_machine();
        let c1 = run(&w, &SimConfig::new(machine.clone(), 1))
            .counters
            .total_cycles;
        let c4 = run(&w, &SimConfig::new(machine.clone(), 4))
            .counters
            .total_cycles;
        let c8 = run(&w, &SimConfig::new(machine, 8)).counters.total_cycles;
        assert!(
            c4 as f64 > 1.2 * c1 as f64,
            "expected contention growth: C(1)={c1} C(4)={c4}"
        );
        assert!(
            c8 as f64 > c4 as f64,
            "more cores, more contention: C(4)={c4} C(8)={c8}"
        );
    }

    #[test]
    fn work_cycles_and_misses_stable_across_core_counts() {
        // Observation 3 of the paper: work and LLC misses barely move with
        // the active-core count.
        let w = VecWorkload {
            name: "stable".into(),
            threads: (0..8)
                .map(|t| {
                    let base = (t as u64) << 30;
                    let mut ops = vec![compute(500)];
                    ops.extend((0..500).map(|i| read_indep(base + i * 64 * 7)));
                    ops
                })
                .collect(),
        };
        let machine = small_machine();
        let r1 = run(&w, &SimConfig::new(machine.clone(), 1));
        let r8 = run(&w, &SimConfig::new(machine, 8));
        assert_eq!(r1.counters.work_cycles, r8.counters.work_cycles);
        // Misses may differ slightly (private-cache sharing), not hugely.
        let m1 = r1.counters.llc_misses as f64;
        let m8 = r8.counters.llc_misses as f64;
        assert!(
            (m8 - m1).abs() / m1 < 0.2,
            "misses roughly constant: {m1} vs {m8}"
        );
    }

    #[test]
    fn numa_remote_requests_counted() {
        let machine = machines::intel_numa_24().scaled(1.0 / 64.0);
        // 24 threads but only thread 0 does traffic... instead: all threads
        // touch thread 0's region after a barrier → cross-socket traffic.
        let shared_base = 0u64;
        let w = VecWorkload {
            name: "numa".into(),
            threads: (0..24)
                .map(|t| {
                    let mut ops = Vec::new();
                    if t == 0 {
                        // Thread 0 (socket 0) first-touches the region.
                        ops.extend((0..512).map(|i| read(shared_base + i * 4096)));
                    }
                    ops.push(Op::Barrier);
                    // Everyone then reads it (thread 13.. live on socket 1).
                    ops.extend((0..512).map(|i| read(shared_base + i * 4096)));
                    ops
                })
                .collect(),
        };
        let r = run(&w, &SimConfig::new(machine, 24));
        assert!(
            r.counters.remote_requests > 0,
            "socket-1 cores must reach across the interconnect"
        );
    }

    #[test]
    fn memory_policies_route_differently() {
        // One thread on socket 0 streams a region. Under first-touch every
        // page is local (no remote requests); under interleave-active with
        // both sockets active, half the pages live on the remote
        // controller.
        let machine = machines::intel_numa_24().scaled(1.0 / 64.0);
        let w = VecWorkload {
            name: "policy".into(),
            threads: (0..24)
                .map(|t| {
                    let base = (t as u64) << 30;
                    (0..256).map(|i| read_indep(base + i * 4096)).collect()
                })
                .collect(),
        };
        let mut cfg = SimConfig::new(machine.clone(), 24);
        cfg.memory_policy = MemoryPolicy::FirstTouch;
        let ft = run(&w, &cfg);
        cfg.memory_policy = MemoryPolicy::InterleaveActive;
        let il = run(&w, &cfg);
        assert_eq!(
            ft.counters.remote_requests, 0,
            "first touch keeps private streams local"
        );
        let frac = il.counters.remote_requests as f64 / il.counters.read_requests as f64;
        assert!(
            (0.3..0.7).contains(&frac),
            "interleave sends about half remote, got {frac:.2}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let w = VecWorkload {
            name: "det".into(),
            threads: (0..4)
                .map(|t| {
                    let base = (t as u64) << 28;
                    (0..300).map(|i| read_indep(base + i * 640)).collect()
                })
                .collect(),
        };
        let cfg = SimConfig::new(small_machine(), 3);
        let a = run(&w, &cfg);
        let b = run(&w, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn lanes_match_standalone_runs() {
        // Lane sharing amortises setup, never results: every seed lane
        // must reproduce the standalone run at that seed exactly.
        let w = VecWorkload {
            name: "lanes".into(),
            threads: (0..4)
                .map(|t| {
                    let base = (t as u64) << 28;
                    (0..300).map(|i| read_indep(base + i * 640)).collect()
                })
                .collect(),
        };
        let cfg = SimConfig::new(small_machine(), 3);
        let runner = LaneRunner::new(&w, &cfg).expect("valid config");
        for seed in [1u64, 0xDEAD_BEEF, 0x0FF_C41B] {
            let lane = runner.run_seed(seed).expect("no budgets set");
            let mut solo_cfg = cfg.clone();
            solo_cfg.seed = seed;
            let solo = run(&w, &solo_cfg);
            assert_eq!(lane.counters, solo.counters, "seed {seed:#x}");
            assert_eq!(lane.makespan, solo.makespan);
            assert_eq!(lane.mc_stats, solo.mc_stats);
            assert_eq!(lane.placement, solo.placement);
        }
    }

    #[test]
    fn sampler_records_miss_windows() {
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.sampler_window = Some(1000);
        let w = VecWorkload {
            name: "sampled".into(),
            threads: vec![(0..100).map(|i| read(i * (1 << 14))).collect()],
        };
        let r = run(&w, &cfg);
        let windows = r.miss_windows.expect("sampler enabled");
        let total: u64 = windows.iter().sum();
        assert_eq!(total, r.counters.llc_misses);
        assert_eq!(
            windows.len() as u64,
            r.makespan.cycles() / 1000 + 1,
            "windows cover the whole run"
        );
    }

    #[test]
    fn writebacks_generated_by_dirty_evictions() {
        // Write-stream far past every cache: dirty lines must be written
        // back once evicted.
        let w = VecWorkload {
            name: "wb".into(),
            threads: vec![(0..4000)
                .map(|i| Op::Access {
                    addr: i * 64 * 9,
                    write: true,
                    dependent: false,
                    compute: 0,
                })
                .collect()],
        };
        let r = run(&w, &SimConfig::new(small_machine(), 1));
        assert!(
            r.counters.write_requests > 0,
            "expected write-backs, got none"
        );
    }

    #[test]
    fn frfcfs_scheduler_also_completes() {
        let mut cfg = SimConfig::new(small_machine(), 2);
        cfg.scheduler = McScheduler::FrFcfs;
        let w = VecWorkload {
            name: "frf".into(),
            threads: (0..2)
                .map(|t| {
                    let base = (t as u64) << 29;
                    (0..500).map(|i| read_indep(base + i * 4096)).collect()
                })
                .collect(),
        };
        let r = run(&w, &cfg);
        assert_eq!(r.counters.llc_misses, 1000);
        assert!(r.makespan > SimTime::ZERO);
        assert_eq!(r.mc_stats[0].requests, r.counters.read_requests);
    }

    #[test]
    fn mshr_bounds_memory_level_parallelism() {
        // Addresses spread over channels and banks so bank-level
        // parallelism exists for the MSHRs to exploit: with one entry the
        // thread pays the full round-trip per miss; with eight it
        // pipelines and runs at the service rate.
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.mshr_per_core = 1;
        let w = VecWorkload {
            name: "mshr".into(),
            threads: vec![(0..64).map(|i| read_indep(i * 64 * 7)).collect()],
        };
        let r1 = run(&w, &cfg);
        cfg.mshr_per_core = 8;
        let r8 = run(&w, &cfg);
        assert!(
            r8.makespan.cycles() * 2 < r1.makespan.cycles(),
            "more MLP should shorten the run substantially: {} vs {}",
            r8.makespan,
            r1.makespan
        );
    }

    #[test]
    fn prefetcher_hides_stream_latency() {
        // A long unit-stride stream with a dependent use per line: without
        // prefetching every line pays the DRAM round trip; with degree 4
        // the fills arrive ahead of use.
        let w = VecWorkload {
            name: "stream".into(),
            threads: vec![(0..2000).map(|i| read(i * 64)).collect()],
        };
        let mut cfg = SimConfig::new(small_machine(), 1);
        let off = run(&w, &cfg);
        cfg.prefetch_degree = 4;
        let on = run(&w, &cfg);
        assert!(on.counters.prefetch_requests > 500, "prefetcher idle");
        assert!(
            on.makespan.cycles() * 2 < off.makespan.cycles(),
            "prefetching must hide stream latency: {} vs {}",
            on.makespan,
            off.makespan
        );
        // Demand LLC misses collapse (prefetch installs don't count).
        assert!(on.counters.llc_misses < off.counters.llc_misses / 2);
    }

    #[test]
    fn prefetcher_ignores_random_traffic() {
        let w = VecWorkload {
            name: "random".into(),
            threads: vec![(0..500).map(|i| read((i * 7919) % 100_000 * 64)).collect()],
        };
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.prefetch_degree = 4;
        let r = run(&w, &cfg);
        assert_eq!(r.counters.prefetch_requests, 0, "no stream, no prefetches");
    }

    #[test]
    fn service_bound_stream_insensitive_to_extra_mshrs() {
        // All addresses map to one bank: the controller serialises them,
        // so once the pipeline covers the latency, extra MSHRs don't help.
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.mshr_per_core = 2;
        let w = VecWorkload {
            name: "one-bank".into(),
            threads: vec![(0..64).map(|i| read_indep(i * (1 << 16))).collect()],
        };
        let r2 = run(&w, &cfg);
        cfg.mshr_per_core = 16;
        let r16 = run(&w, &cfg);
        assert_eq!(
            r16.makespan, r2.makespan,
            "service-bound stream must not speed up with more MSHRs"
        );
    }

    /// Folds every `Compute { cycles: c, instructions: c }` that directly
    /// precedes an access into that access's `compute`.
    fn fold(ops: &[Op]) -> Vec<Op> {
        let mut out: Vec<Op> = Vec::with_capacity(ops.len());
        for &op in ops {
            if let (
                Some(Op::Compute {
                    cycles,
                    instructions,
                }),
                Op::Access {
                    addr,
                    write,
                    dependent,
                    compute: 0,
                },
            ) = (out.last().copied(), op)
            {
                assert_eq!(cycles, instructions, "a folded compute retires 1 IPC");
                *out.last_mut().expect("matched above") = Op::Access {
                    addr,
                    write,
                    dependent,
                    compute: cycles,
                };
            } else {
                out.push(op);
            }
        }
        out
    }

    #[test]
    fn folded_compute_runs_exactly_like_a_compute_op() {
        // Four threads of compute + access pairs: computes of 1..=300
        // cycles, accesses that miss on fresh lines, re-touch recent ones
        // or read a neighbour's region, a quarter dependent and a fifth
        // writes, with barriers. The quantum, sync quantum and MSHR file
        // are small enough that preemptions, sync-quantum yields and
        // MSHR-full stalls all land between a compute and its access.
        let mut rng = offchip_simcore::Rng::new(0xF01D);
        let threads: Vec<Vec<Op>> = (0..4u64)
            .map(|t| {
                let base = (t + 1) << 28;
                let mut ops = Vec::new();
                for i in 0..1500u64 {
                    if i % 300 == 299 {
                        ops.push(Op::Barrier);
                    }
                    if rng.next_below(8) != 0 {
                        ops.push(compute(1 + rng.next_below(300)));
                    }
                    let addr = match rng.next_below(4) {
                        0 => base + (i.saturating_sub(rng.next_below(4))) * 64 * 5,
                        1 => (((t + 1) % 4 + 1) << 28) + rng.next_below(1 << 16) * 64,
                        _ => base + i * 64 * 5,
                    };
                    ops.push(Op::Access {
                        addr,
                        write: rng.next_below(5) == 0,
                        dependent: rng.next_below(4) == 0,
                        compute: 0,
                    });
                }
                ops
            })
            .collect();
        let pairs = VecWorkload {
            name: "fold".into(),
            threads: threads.clone(),
        };
        let folded = VecWorkload {
            name: "fold".into(),
            threads: threads.iter().map(|ops| fold(ops)).collect(),
        };
        assert!(folded.threads[0].len() < pairs.threads[0].len() * 2 / 3);
        for n_cores in [4, 2] {
            let mut cfg = SimConfig::new(small_machine(), n_cores);
            cfg.quantum_cycles = 700;
            cfg.context_switch_cycles = 60;
            cfg.sync_quantum = 150;
            cfg.mshr_per_core = 2;
            cfg.sampler_window = Some(500);
            let a = run(&pairs, &cfg);
            let b = run(&folded, &cfg);
            assert!(a.counters.mem_stall_cycles > 0);
            assert_eq!(a.counters.switch_cycles > 0, n_cores == 2, "preemption");
            assert_eq!(a.counters, b.counters, "{n_cores} cores");
            assert_eq!(a.makespan, b.makespan, "{n_cores} cores");
            assert_eq!(a.mc_stats, b.mc_stats, "{n_cores} cores");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{n_cores} cores");
        }
    }

    /// A workload big enough to cross the deadline poll granularity
    /// (`DEADLINE_POLL_MASK + 1` events) within a fraction of a second.
    fn long_workload() -> VecWorkload {
        VecWorkload {
            name: "long".into(),
            threads: vec![(0..200_000u64)
                .map(|i| {
                    if i % 2 == 0 {
                        read_indep((i / 2) * 64)
                    } else {
                        compute(50)
                    }
                })
                .collect()],
        }
    }

    #[test]
    fn event_budget_guard_aborts_with_partial_counters() {
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.max_events = Some(10_000);
        let w = long_workload();
        match try_run_bounded(&w, &cfg) {
            Err(RunError::EventBudgetExceeded {
                limit,
                events,
                counters,
            }) => {
                assert_eq!(limit, 10_000);
                assert_eq!(events, 10_000);
                assert_eq!(counters.sim_events, 10_000);
                // The run was making progress when aborted: the partial
                // counters are real diagnostic context, not zeroes.
                assert!(counters.work_cycles > 0, "partial counters empty");
            }
            other => panic!("expected EventBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_equal_to_the_run_completes() {
        // The cap bounds the events a run may process, so a run that needs
        // exactly its cap completes with the unbounded run's report, and
        // one event less aborts having processed exactly the cap.
        let w = long_workload();
        let plain = run(&w, &SimConfig::new(small_machine(), 1));
        let needed = plain.counters.sim_events;
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.max_events = Some(needed);
        let capped = try_run_bounded(&w, &cfg).expect("a cap equal to the run's events fired");
        assert_eq!(format!("{plain:?}"), format!("{capped:?}"));
        cfg.max_events = Some(needed - 1);
        match try_run_bounded(&w, &cfg) {
            Err(RunError::EventBudgetExceeded {
                events, counters, ..
            }) => {
                assert_eq!(events, needed - 1);
                assert_eq!(counters.sim_events, needed - 1);
            }
            other => panic!("expected EventBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadline_guard_aborts_a_wedged_run() {
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.deadline = Some(std::time::Duration::ZERO);
        let w = long_workload();
        match try_run_bounded(&w, &cfg) {
            Err(RunError::DeadlineExceeded {
                deadline, events, ..
            }) => {
                assert_eq!(deadline, std::time::Duration::ZERO);
                // The guard polls every DEADLINE_POLL_MASK + 1 events.
                assert_eq!(events & DEADLINE_POLL_MASK, 0);
            }
            Ok(r) => panic!(
                "run of {} events finished under a zero deadline — workload \
                 too small to cross the poll granularity?",
                r.counters.sim_events
            ),
            Err(other) => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn unset_budgets_change_nothing() {
        // The guards must be inert by default: identical report with and
        // without an unreachable budget.
        let w = VecWorkload {
            name: "tiny".into(),
            threads: vec![vec![compute(100), read(0), compute(100)]],
        };
        let plain = run(&w, &SimConfig::new(small_machine(), 1));
        let mut cfg = SimConfig::new(small_machine(), 1);
        cfg.max_events = Some(u64::MAX);
        cfg.deadline = Some(std::time::Duration::from_secs(3600));
        let bounded = try_run_bounded(&w, &cfg).expect("budgets unreachable");
        assert_eq!(plain.counters, bounded.counters);
        assert_eq!(plain.makespan, bounded.makespan);
    }

    #[test]
    fn bounded_run_reports_config_errors() {
        let w = long_workload();
        let cfg = SimConfig::new(small_machine(), 9); // only 8 cores
        match try_run_bounded(&w, &cfg) {
            Err(RunError::Config(ConfigError::CoresOutOfRange { n_cores: 9, .. })) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    /// A workload that exercises every span producer: compute, off-chip
    /// misses (mem stalls + DRAM service) and a barrier.
    fn obs_workload() -> VecWorkload {
        VecWorkload {
            name: "obs".into(),
            threads: (0..2)
                .map(|t| {
                    let mut ops = vec![compute(200)];
                    for i in 0..32u64 {
                        ops.push(read((1 << 20) + ((t as u64) << 16) + i * 4096));
                    }
                    ops.push(Op::Barrier);
                    ops.push(compute(100));
                    ops
                })
                .collect(),
        }
    }

    #[test]
    fn observation_never_perturbs_the_simulation() {
        let w = obs_workload();
        let mut cfg = SimConfig::new(small_machine(), 2);
        let off = run(&w, &cfg);
        let reg = std::sync::Arc::new(offchip_obs::Registry::default());
        cfg.metrics = Some(std::sync::Arc::clone(&reg));
        let traces = offchip_obs::TraceStore::default();
        let scope = offchip_obs::TraceScope::enter(traces.begin(1, "test", String::new(), true));
        let on = run(&w, &cfg);
        drop(scope);
        assert!(reg.histogram("machine.mem_stall_cycles").is_some());
        assert!(traces.chrome_json(1).is_some_and(|j| j.contains("dram")));
        assert_eq!(off.counters, on.counters, "counters must be obs-invariant");
        assert_eq!(off.makespan, on.makespan);
        assert_eq!(off.mc_stats, on.mc_stats);
    }
}
