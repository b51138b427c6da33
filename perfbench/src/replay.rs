//! Per-layer attribution of one simulated run.
//!
//! The run itself goes through `LaneRunner::new` and
//! `LaneRunner::run_seed`, exactly as a campaign point does. Its inputs
//! are then fed through each simulator layer in isolation, with the
//! layer's public entry points timed:
//!
//! * `offchip-npb`: every thread's op stream, drained from
//!   `Workload::thread_program` with the simulator's per-thread seeds;
//! * `offchip-cache`: those streams' accesses, fed to `Hierarchy::access`
//!   from each thread's core under `allocation::place`;
//! * `offchip-dram`: the replay's LLC misses and dirty write-backs, fed
//!   to `FcfsController::enqueue` at their page-interleaved home;
//! * `offchip-simcore`: a `CalendarQueue` hold-model replay of the run's
//!   event count at the occupancy profile of DESIGN.md §13.
//!
//! A layer's share of the run is its replay time over the run time. The
//! machine layer's residual — the core loop, interconnect, MSHR
//! bookkeeping and whatever the layers overlap — is what remains, so the
//! shares sum to 1 by construction (ECM-style, the overlap is an explicit
//! residual rather than hidden). The replay interleaves threads in fixed
//! chunks instead of by simulated time, so its LLC-miss count is reported
//! beside the simulator's own, never in place of it.

use std::time::Instant;

use offchip_cache::{AccessKind, Hierarchy};
use offchip_dram::fcfs::McConfig;
use offchip_dram::{FcfsController, McModel, Request};
use offchip_machine::{LaneRunner, Op, ProgramIter, SimConfig, Workload};
use offchip_simcore::{CalendarQueue, EventSched, Rng, SimTime};
use offchip_topology::{allocation, MachineSpec};

use crate::stats::Samples;
use crate::trace::{Lane, Tracer};

/// Ops pulled from one thread before the replay moves to the next.
const CHUNK: usize = 256;

/// Mean pending events at pop over the Table II grid (DESIGN.md §13).
const SCHED_PENDING: usize = 149;

/// Everything measured for one run.
#[derive(Debug, Clone, Default)]
pub struct RunAttribution {
    /// `LaneRunner::new` host time.
    pub setup_ns: u64,
    /// `LaneRunner::run_seed` host time.
    pub run_ns: u64,
    /// Simulator events the run processed.
    pub events: u64,
    /// Simulated cycles: total, work, stall.
    pub total_cycles: u64,
    /// Work cycles.
    pub work_cycles: u64,
    /// Stall cycles.
    pub stall_cycles: u64,
    /// Simulated LLC misses.
    pub llc_misses: u64,
    /// Simulated LLC accesses.
    pub llc_accesses: u64,
    /// Simulated DRAM row hits.
    pub row_hits: u64,
    /// Simulated DRAM row misses.
    pub row_misses: u64,
    /// Ops drained from the thread programs.
    pub npb_ops: u64,
    /// Host time draining them.
    pub npb_ns: u64,
    /// Accesses fed to the hierarchy.
    pub cache_accesses: u64,
    /// Host time in `Hierarchy::access`.
    pub cache_ns: u64,
    /// LLC misses the replay saw.
    pub replay_llc_misses: u64,
    /// Requests fed to the controllers.
    pub dram_requests: u64,
    /// Host time in `FcfsController::enqueue`.
    pub dram_ns: u64,
    /// Host time of the scheduler replay (one pop + one push per event).
    pub sched_ns: u64,
}

/// Runs `(machine, workload, n, seed)` and replays its inputs layer by
/// layer, recording one span per call under `parent`.
pub fn attribute_run(
    machine: &MachineSpec,
    workload: &dyn Workload,
    n: usize,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> Result<RunAttribution, String> {
    let mut cfg = SimConfig::new(machine.clone(), n);
    cfg.seed = seed;
    let mut a = RunAttribution::default();

    let t0 = Instant::now();
    let runner = LaneRunner::new(workload, &cfg).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let report = runner.run_seed(seed).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    a.setup_ns = (t1 - t0).as_nanos() as u64;
    a.run_ns = (t2 - t1).as_nanos() as u64;
    let args = format!("\"n\":{n},\"seed\":{seed}");
    tracer.record(
        "LaneRunner::new",
        parent,
        Lane::Machine,
        t0,
        t1,
        args.clone(),
    );
    let run_span = tracer.record("LaneRunner::run_seed", parent, Lane::Machine, t1, t2, args);

    let c = &report.counters;
    a.events = c.sim_events;
    a.total_cycles = c.total_cycles;
    a.work_cycles = c.work_cycles;
    a.stall_cycles = c.stall_cycles;
    a.llc_misses = c.llc_misses;
    a.llc_accesses = c.llc_accesses;
    a.row_hits = report.mc_stats.iter().map(|s| s.row_hits).sum();
    a.row_misses = report.mc_stats.iter().map(|s| s.row_misses).sum();

    let requests = (c.read_requests + c.write_requests).max(1);
    let gap = (report.makespan.cycles() / requests).max(1);
    replay_memory(&cfg, workload, seed, gap, &mut a, tracer, run_span);
    replay_sched(a.events, seed, &mut a, tracer, run_span);
    Ok(a)
}

/// One chunked pass over every thread's op stream: npb drain, then the
/// chunk's accesses through the hierarchy, then its off-chip requests
/// through the controllers — each timed on its own.
fn replay_memory(
    cfg: &SimConfig,
    workload: &dyn Workload,
    seed: u64,
    gap: u64,
    a: &mut RunAttribution,
    tracer: &mut Tracer,
    parent: u64,
) {
    let machine = &cfg.machine;
    let n_threads = workload.n_threads();
    let placement = allocation::place(machine, cfg.policy, n_threads, cfg.n_cores);
    let line_mask = !(u64::from(machine.line_bytes()) - 1);
    let page_shift = cfg.page_bytes.trailing_zeros();
    // The controllers of every socket with an active core, as the
    // simulator activates them (interleave-active page placement).
    let mut active_mcs: Vec<usize> = placement
        .active_cores
        .iter()
        .flat_map(|&core| {
            let first = machine.socket_of(core).index() * machine.domains_per_socket;
            (first..first + machine.domains_per_socket).map(|d| machine.mc_of_domain(d).index())
        })
        .collect();
    active_mcs.sort_unstable();
    active_mcs.dedup();
    if active_mcs.is_empty() {
        active_mcs.push(0);
    }

    let started = Instant::now();
    let mut programs: Vec<Box<dyn ProgramIter>> = (0..n_threads)
        .map(|t| workload.thread_program(t, seed ^ (t as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut npb_ns = started.elapsed().as_nanos() as u64;
    let mut hierarchy = Hierarchy::with_policy(machine, cfg.replacement);
    let mc_cfg = McConfig::from_spec(&machine.dram, machine.line_bytes());
    let mut mcs: Vec<FcfsController> = (0..machine.total_mcs())
        .map(|_| FcfsController::new(mc_cfg))
        .collect();

    let mut finished = vec![false; n_threads];
    let mut live = n_threads;
    let mut accesses: Vec<(u64, bool)> = Vec::with_capacity(CHUNK);
    let mut requests: Vec<(u64, bool)> = Vec::with_capacity(2 * CHUNK);
    let (mut cache_ns, mut dram_ns) = (0u64, 0u64);
    let mut clock = 0u64;
    while live > 0 {
        for t in 0..n_threads {
            if finished[t] {
                continue;
            }
            let t0 = Instant::now();
            accesses.clear();
            let mut pulled = 0u64;
            while pulled < CHUNK as u64 {
                match programs[t].next_op() {
                    Some(Op::Access { addr, write, .. }) => accesses.push((addr, write)),
                    Some(_) => {}
                    None => {
                        finished[t] = true;
                        live -= 1;
                        break;
                    }
                }
                pulled += 1;
            }
            let t1 = Instant::now();

            requests.clear();
            let core = placement.thread_core[t];
            for &(addr, write) in &accesses {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = hierarchy.access(core, addr, kind);
                if out.hit_level.is_none() {
                    if let Some(victim) = out.llc_writeback {
                        requests.push((victim & line_mask, true));
                    }
                    requests.push((addr & line_mask, false));
                }
            }
            let t2 = Instant::now();

            for &(line, is_write) in &requests {
                let home = active_mcs[((line >> page_shift) % active_mcs.len() as u64) as usize];
                clock += gap;
                let req = Request {
                    id: a.dram_requests,
                    line_addr: line,
                    is_write,
                    network_latency: 0,
                };
                std::hint::black_box(mcs[home].enqueue(SimTime(clock), req));
                a.dram_requests += 1;
                a.replay_llc_misses += u64::from(!is_write);
            }
            let t3 = Instant::now();

            a.npb_ops += pulled;
            a.cache_accesses += accesses.len() as u64;
            npb_ns += (t1 - t0).as_nanos() as u64;
            cache_ns += (t2 - t1).as_nanos() as u64;
            dram_ns += (t3 - t2).as_nanos() as u64;
        }
    }
    a.npb_ns = npb_ns;
    a.cache_ns = cache_ns;
    a.dram_ns = dram_ns;
    // One span per layer per run, laid end to end from the pass's start:
    // the layers' time was interleaved chunk by chunk, so each span shows
    // the layer's total, not when it ran.
    let mut at = started;
    for (name, lane, ns, items) in [
        ("npb.thread_program", Lane::Npb, npb_ns, a.npb_ops),
        (
            "cache.Hierarchy::access",
            Lane::Cache,
            cache_ns,
            a.cache_accesses,
        ),
        (
            "dram.FcfsController::enqueue",
            Lane::Dram,
            dram_ns,
            a.dram_requests,
        ),
    ] {
        let end = at + std::time::Duration::from_nanos(ns);
        tracer.record(name, parent, lane, at, end, format!("\"items\":{items}"));
        at = end;
    }
}

/// Hold-model replay of `events` pops, each followed by one push, on a
/// queue holding the grid's mean occupancy. Push horizons follow the
/// measured profile: log2 buckets peaking at 2^11 cycles, ~96 % below
/// 2^14, a thin tail to 2^23.
fn replay_sched(events: u64, seed: u64, a: &mut RunAttribution, tracer: &mut Tracer, parent: u64) {
    // Relative weight of each log2 bucket 0..=22 of the push horizon.
    const WEIGHTS: [u64; 23] = [
        1, 1, 1, 2, 2, 3, 4, 6, 8, 11, 14, 18, 14, 11, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    ];
    let total: u64 = WEIGHTS.iter().sum();
    let mut rng = Rng::new(seed ^ 0x5EED_5C4E_D000_0000);
    let deltas: Vec<u64> = (0..1 << 16)
        .map(|_| {
            let mut pick = rng.next_below(total);
            let mut k = 0;
            while pick >= WEIGHTS[k] {
                pick -= WEIGHTS[k];
                k += 1;
            }
            (1u64 << k) + rng.next_below(1 << k)
        })
        .collect();
    let mut queue: CalendarQueue<u32> = CalendarQueue::default();
    for (i, d) in deltas.iter().take(SCHED_PENDING).enumerate() {
        queue.schedule_at(SimTime(*d), i as u32);
    }
    let t0 = Instant::now();
    for i in 0..events {
        let (t, ev) = queue.pop().expect("the hold model never drains the queue");
        queue.schedule_at(SimTime(t.0 + deltas[(i & 0xFFFF) as usize]), ev);
    }
    let t1 = Instant::now();
    std::hint::black_box(queue.len());
    a.sched_ns = (t1 - t0).as_nanos() as u64;
    tracer.record(
        "sched.CalendarQueue",
        parent,
        Lane::Sched,
        t0,
        t1,
        format!("\"items\":{events}"),
    );
}

/// Sums of [`RunAttribution`]s over a workload, and the per-layer metrics
/// derived from them.
#[derive(Debug, Default)]
pub struct LayerTotals {
    runs: Vec<RunAttribution>,
}

impl LayerTotals {
    /// Adds one run.
    pub fn push(&mut self, a: RunAttribution) {
        self.runs.push(a);
    }

    fn sum(&self, f: impl Fn(&RunAttribution) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    /// The per-layer metrics as `(name, value, unit, base)`; every layer
    /// reads 0 with base "no runs" when the workload simulated nothing.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, String)> {
        let run_ns = self.sum(|a| a.run_ns);
        let events = self.sum(|a| a.events);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let share = |ns: u64| ratio(ns, run_ns);
        let run_s = run_ns as f64 / 1e9;
        let (npb_ns, cache_ns, dram_ns, sched_ns) = (
            self.sum(|a| a.npb_ns),
            self.sum(|a| a.cache_ns),
            self.sum(|a| a.dram_ns),
            self.sum(|a| a.sched_ns),
        );
        let (ops, accesses, requests) = (
            self.sum(|a| a.npb_ops),
            self.sum(|a| a.cache_accesses),
            self.sum(|a| a.dram_requests),
        );
        let (llc_misses, llc_accesses) = (self.sum(|a| a.llc_misses), self.sum(|a| a.llc_accesses));
        let (row_hits, rows) = (
            self.sum(|a| a.row_hits),
            self.sum(|a| a.row_hits + a.row_misses),
        );
        let mut setup = Samples::new();
        for a in &self.runs {
            setup.push(a.setup_ns as f64 / 1e3);
        }
        let residual = if run_ns == 0 {
            0.0
        } else {
            1.0 - share(npb_ns) - share(cache_ns) - share(dram_ns) - share(sched_ns)
        };
        let runs = self.runs.len();
        let of_run = format!("of {run_s:.3} s run time over {runs} runs");
        vec![
            ("cache.accesses", accesses as f64, "count", format!("{runs} runs")),
            ("cache.ns_per_access", ratio(cache_ns, accesses), "ns", format!("{accesses} accesses")),
            ("cache.share", share(cache_ns), "ratio", of_run.clone()),
            (
                "cache.llc_miss_ratio",
                ratio(llc_misses, llc_accesses),
                "ratio",
                format!(
                    "{llc_misses} simulated misses / {llc_accesses} LLC accesses; replay saw {} misses",
                    self.sum(|a| a.replay_llc_misses)
                ),
            ),
            ("npb.ops", ops as f64, "count", format!("{runs} runs")),
            ("npb.ns_per_op", ratio(npb_ns, ops), "ns", format!("{ops} ops")),
            ("npb.share", share(npb_ns), "ratio", of_run.clone()),
            ("dram.requests", requests as f64, "count", format!("{runs} runs")),
            ("dram.ns_per_request", ratio(dram_ns, requests), "ns", format!("{requests} requests")),
            ("dram.share", share(dram_ns), "ratio", of_run.clone()),
            (
                "dram.row_hit_ratio",
                ratio(row_hits, rows),
                "ratio",
                format!("{row_hits} simulated row hits / {rows} row activations+hits"),
            ),
            ("sched.ns_per_event", ratio(sched_ns, events), "ns", format!("{events} events")),
            ("sched.share", share(sched_ns), "ratio", of_run.clone()),
            ("machine.runs", runs as f64, "count", "LaneRunner::run_seed calls".into()),
            ("machine.events", events as f64, "count", format!("{runs} runs")),
            (
                "machine.events_per_s",
                if run_ns == 0 { 0.0 } else { events as f64 / run_s },
                "1/s",
                format!("{events} events in {run_s:.3} s"),
            ),
            ("machine.ns_per_event", ratio(run_ns, events), "ns", format!("{events} events")),
            (
                "machine.setup_us",
                setup.median().unwrap_or(0.0),
                "us",
                format!("median of {} LaneRunner::new calls", setup.len()),
            ),
            ("machine.residual_share", residual, "ratio", of_run),
            (
                "machine.stall_frac",
                ratio(self.sum(|a| a.stall_cycles), self.sum(|a| a.total_cycles)),
                "ratio",
                format!("{} simulated total cycles", self.sum(|a| a.total_cycles)),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_bench::{build_workload, ProgramSpec};
    use offchip_npb::classes::ProblemClass;
    use offchip_topology::machines;

    #[test]
    fn shares_of_a_small_run_sum_to_one() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), machine.total_cores());
        let mut tracer = Tracer::new(true);
        let a = attribute_run(&machine, w.as_ref(), 4, 7, &mut tracer, 0).unwrap();
        assert!(a.events > 0 && a.npb_ops > 0 && a.cache_accesses > 0);
        assert!(a.replay_llc_misses > 0, "cold caches miss");
        assert_eq!(a.total_cycles, a.work_cycles + a.stall_cycles);
        let mut totals = LayerTotals::default();
        totals.push(a);
        let m = totals.metrics();
        let get = |name: &str| m.iter().find(|x| x.0 == name).unwrap().1;
        let sum = get("cache.share")
            + get("npb.share")
            + get("dram.share")
            + get("sched.share")
            + get("machine.residual_share");
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        // run_seed, new, three memory layers, the scheduler.
        assert_eq!(tracer.len(), 6);
    }

    #[test]
    fn an_empty_workload_reports_zeros() {
        let m = LayerTotals::default().metrics();
        assert!(m.iter().all(|(_, v, _, _)| *v == 0.0));
    }
}
