//! Counter accounting and run reports.

use offchip_dram::McStats;
use offchip_simcore::SimTime;
use offchip_topology::Placement;

/// The hardware-counter values of one run, with the paper's semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// `PAPI_TOT_CYC` with the paper's papiex semantics: the CPU cycles
    /// the program's threads actually consume, summed over threads —
    /// compute, on-chip lookup stalls, off-chip memory stalls and context
    /// switches. Cores idling with no resident runnable thread (barrier
    /// waits under passive waiting, end-of-program tails) accrue nothing,
    /// exactly like per-process hardware counters.
    pub total_cycles: u64,
    /// Cycles in which the core retired work (compute phases + pipelined
    /// L1 hits). Constant in the active-core count by construction.
    pub work_cycles: u64,
    /// `PAPI_RES_STL` summed over cores: `total_cycles − work_cycles`.
    pub stall_cycles: u64,
    /// Detailed bucket: cycles threads spent blocked on off-chip fills.
    /// (Unlike `stall_cycles` this excludes idle/imbalance time.)
    pub mem_stall_cycles: u64,
    /// Detailed bucket: on-chip lookup latencies for L2+/LLC hits.
    pub onchip_stall_cycles: u64,
    /// Detailed bucket: context-switch overhead.
    pub switch_cycles: u64,
    /// `PAPI_TOT_INS` summed over threads.
    pub instructions: u64,
    /// Last-level cache misses summed over domains (`PAPI_L2_TCM` on the
    /// UMA machine, `LLC_MISSES`/`L3_CACHE_MISSES` on the NUMA machines).
    pub llc_misses: u64,
    /// Last-level cache accesses summed over domains.
    pub llc_accesses: u64,
    /// Off-chip read requests issued (misses minus MSHR coalescing).
    pub read_requests: u64,
    /// Write-back requests issued.
    pub write_requests: u64,
    /// Requests served by a remote controller (NUMA traffic).
    pub remote_requests: u64,
    /// Active cores × makespan: the wall-clock footprint of the run
    /// (differs from `total_cycles` by idle/imbalance time).
    pub core_time_cycles: u64,
    /// Hardware-prefetch requests issued (0 unless a prefetch degree is
    /// configured).
    pub prefetch_requests: u64,
    /// Discrete events the simulator's main loop processed — not a
    /// hardware counter; the denominator of the perf harness's events/s
    /// throughput metric (`perfstat`). Excluded from every experiment
    /// artefact.
    pub sim_events: u64,
}

/// Per-window LLC-miss sampler (the paper's 5 µs fine-grained profiler,
/// §III-B.2). Window `i` covers cycles `[i·window, (i+1)·window)`.
#[derive(Debug, Clone)]
pub struct WindowSampler {
    window: u64,
    counts: Vec<u64>,
}

impl WindowSampler {
    /// Creates a sampler with the given window length in cycles.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: u64) -> WindowSampler {
        assert!(window > 0, "window must be positive");
        WindowSampler {
            window,
            counts: Vec::new(),
        }
    }

    /// Records `lines` missed lines at time `t`.
    pub fn record(&mut self, t: SimTime, lines: u64) {
        let idx = (t.cycles() / self.window) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += lines;
    }

    /// Pads the count vector out to `end` (windows with no misses at the
    /// tail of the run must still be observations) and returns it.
    pub fn finish(mut self, end: SimTime) -> Vec<u64> {
        let need = (end.cycles() / self.window + 1) as usize;
        if self.counts.len() < need {
            self.counts.resize(need, 0);
        }
        self.counts
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program name.
    pub program: String,
    /// Machine name.
    pub machine: String,
    /// Active core count of this run.
    pub n_cores: usize,
    /// Thread count (fixed per program).
    pub n_threads: usize,
    /// Wall-clock length of the run in cycles.
    pub makespan: SimTime,
    /// Counter values.
    pub counters: Counters,
    /// Per-controller statistics.
    pub mc_stats: Vec<McStats>,
    /// Per-domain LLC statistics.
    pub llc_stats: Vec<offchip_cache::CacheStats>,
    /// LLC misses per sampler window, when the sampler was enabled.
    pub miss_windows: Option<Vec<u64>>,
    /// The thread/core placement that was simulated.
    pub placement: Placement,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_bins_by_window() {
        let mut s = WindowSampler::new(100);
        s.record(SimTime(0), 1);
        s.record(SimTime(99), 2);
        s.record(SimTime(100), 5);
        s.record(SimTime(350), 7);
        let counts = s.finish(SimTime(420));
        assert_eq!(counts, vec![3, 5, 0, 7, 0]);
    }

    #[test]
    fn finish_pads_quiet_tail() {
        let s = WindowSampler::new(10);
        let counts = s.finish(SimTime(35));
        assert_eq!(counts, vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        WindowSampler::new(0);
    }
}
