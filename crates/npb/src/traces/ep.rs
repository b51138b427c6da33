//! EP access-trace generator: embarrassingly parallel Gaussian pairs.
//!
//! NPB EP generates batches of uniform deviates, converts accepted pairs
//! to Gaussians (Marsaglia polar method) and tallies them — hundreds of
//! compute cycles per byte of buffer traffic. The paper's class-C run has
//! a large resident set (≈920 MB of per-thread batch buffers) yet shows
//! near-zero contention on UMA and only mild growth on the NUMA machines,
//! because "their pattern of accessing the memory results in low number of
//! cache misses" (§V). The trace reproduces exactly that: long compute
//! blocks punctuated by sequential sweeps over the thread-private buffer,
//! giving a tiny per-core request rate.

use crate::classes::{self, ProblemClass};
use crate::traces::{Layout, Phase, PhaseWorkload};

/// Derived simulation-scale parameters for an EP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpParams {
    /// Per-thread buffer bytes after scaling.
    pub buffer_bytes: u64,
    /// Batches per thread.
    pub batches: u64,
    /// Compute cycles per batch (random generation + rejection + tally).
    pub compute_per_batch: u64,
    /// Compute cycles folded in per buffer line touched.
    pub compute_per_line: u64,
}

/// Computes the scaled parameters for `class` on `threads` threads.
pub fn params(class: ProblemClass, scale: f64, threads: usize) -> EpParams {
    let total = classes::scaled(classes::ep_working_set(class), scale, 64 * 1024);
    EpParams {
        buffer_bytes: (total / threads as u64).max(4096),
        batches: classes::ep_batches(class),
        compute_per_batch: 30_000,
        compute_per_line: 1_200,
    }
}

/// Builds the EP trace workload.
pub fn workload(class: ProblemClass, scale: f64, threads: usize) -> PhaseWorkload {
    assert!(threads >= 1);
    let p = params(class, scale, threads);
    let line = 64u64;
    let mut layout = Layout::default();
    let bases: Vec<u64> = (0..threads).map(|_| layout.alloc(p.buffer_bytes)).collect();

    let lines_per_batch = (p.buffer_bytes / p.batches).div_ceil(line).max(1);
    let mut all = Vec::with_capacity(threads);
    for &base in &bases {
        let mut phases = Vec::new();
        for b in 0..p.batches {
            phases.push(Phase::Compute {
                cycles: p.compute_per_batch,
                instructions: p.compute_per_batch,
            });
            // Write this batch's slice of the private buffer.
            phases.push(Phase::Sweep {
                base: base + (b % p.batches) * lines_per_batch * line,
                count: lines_per_batch,
                stride: line,
                write: true,
                dependent: false,
                compute_per_access: p.compute_per_line,
            });
        }
        // Final reduction across the tally tables (tiny, cache-resident).
        phases.push(Phase::Barrier);
        phases.push(Phase::Compute {
            cycles: 2_000,
            instructions: 2_000,
        });
        all.push(phases);
    }
    PhaseWorkload::new(format!("EP.{class}"), all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_machine::{run, SimConfig};
    use offchip_topology::machines;

    #[test]
    fn buffers_are_thread_private_and_scaled() {
        let p = params(ProblemClass::C, 1.0 / 64.0, 24);
        // 920 MB / 64 / 24 ≈ 600 KB per thread.
        assert!(p.buffer_bytes > 400 << 10 && p.buffer_bytes < 800 << 10);
        let small = params(ProblemClass::S, 1.0 / 64.0, 24);
        assert!(small.buffer_bytes < p.buffer_bytes);
    }

    #[test]
    fn ep_is_compute_dominated() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = workload(ProblemClass::W, 1.0 / 64.0, 8);
        let r = run(&w, &SimConfig::new(machine, 8));
        let stall_frac = r.counters.stall_cycles as f64 / r.counters.total_cycles.max(1) as f64;
        assert!(
            stall_frac < 0.5,
            "EP must be compute-bound, stall fraction {stall_frac:.2}"
        );
    }

    #[test]
    fn ep_contention_is_negligible_on_uma() {
        // The paper's Table II: EP rows are 0.00 on Intel UMA.
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = workload(ProblemClass::W, 1.0 / 64.0, 8);
        let c1 = run(&w, &SimConfig::new(machine.clone(), 1))
            .counters
            .total_cycles as f64;
        let c8 = run(&w, &SimConfig::new(machine, 8)).counters.total_cycles as f64;
        let omega = (c8 - c1) / c1;
        assert!(omega.abs() < 0.30, "EP.W ω(8) = {omega:.3} should be ≈ 0");
    }
}
