//! The workload interface: per-thread operation streams.
//!
//! Workloads (the NPB kernels and the x264 proxy in `offchip-npb`, plus
//! synthetic generators) describe *what a thread does* as a lazy stream of
//! operations; the simulator decides how long everything takes. Addresses
//! are virtual, in a single shared address space per program — exactly like
//! the shared arrays of an OpenMP program — and become "physical" homes via
//! first-touch page placement inside the simulator.

/// One operation of a thread's dynamic instruction stream, at the
/// granularity the memory study needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A compute phase: `cycles` of core-private work retiring
    /// `instructions` instructions. No memory traffic beyond L1.
    Compute {
        /// Busy cycles.
        cycles: u64,
        /// Instructions retired (for `PAPI_TOT_INS`).
        instructions: u64,
    },
    /// One memory reference at byte address `addr`, after `compute`
    /// cycles of core-private work.
    Access {
        /// Virtual byte address.
        addr: u64,
        /// Store (true) or load (false).
        write: bool,
        /// A dependent access must wait for every outstanding miss of this
        /// thread before it can issue (a serialisation point: pointer
        /// chase, reduction, loop-carried dependence). Independent
        /// accesses may overlap within the MSHR budget — this is how
        /// workloads express their memory-level parallelism, which differs
        /// between streaming sweeps (SP) and gathers (CG).
        dependent: bool,
        /// Busy cycles of compute folded in before the access, retiring
        /// one instruction per cycle: the op runs exactly as a
        /// `Compute { cycles: compute, instructions: compute }` op
        /// followed by the access would, including quantum preemption
        /// and run-ahead synchronisation between the two. A sweep's
        /// per-element arithmetic travels this way, so a thread yields one
        /// op per access instead of two. Zero means no compute.
        compute: u64,
    },
    /// A global barrier across all threads of the program.
    Barrier,
}

/// A fused iterator of thread operations.
///
/// Contract: after returning `None` once, every later call must also
/// return `None` (the simulator may poll past the end while unwinding a
/// miss cluster).
pub trait ProgramIter {
    /// The next operation, or `None` when the thread is finished.
    fn next_op(&mut self) -> Option<Op>;
}

/// Blanket implementation so plain iterators (e.g. `vec.into_iter()` in
/// tests) are programs.
impl<I: Iterator<Item = Op>> ProgramIter for std::iter::Fuse<I> {
    fn next_op(&mut self) -> Option<Op> {
        self.next()
    }
}

/// A parallel program: a fixed partition into threads, each yielding an
/// op stream.
///
/// Workloads are `Send + Sync`: the sweep engine shares one workload
/// across worker threads that each run an independent `(n, seed)`
/// configuration, so descriptions must be immutable shared data (per-run
/// mutable state belongs in the [`ProgramIter`]s a run constructs).
pub trait Workload: Send + Sync {
    /// Program name for reports (e.g. `"CG.C"`).
    fn name(&self) -> String;

    /// Number of threads the program is partitioned into. Fixed per the
    /// paper's protocol, independent of the active core count.
    fn n_threads(&self) -> usize;

    /// Creates the op stream of thread `thread` (`0..n_threads`). `seed`
    /// individualises any stochastic choices; the same `(thread, seed)`
    /// must yield an identical stream (simulation determinism).
    fn thread_program(&self, thread: usize, seed: u64) -> Box<dyn ProgramIter>;
}

/// Convenience workload wrapping per-thread op vectors; used by unit tests
/// and the quickstart example.
pub struct VecWorkload {
    /// Program name.
    pub name: String,
    /// One op vector per thread.
    pub threads: Vec<Vec<Op>>,
}

impl Workload for VecWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn n_threads(&self) -> usize {
        self.threads.len()
    }

    fn thread_program(&self, thread: usize, _seed: u64) -> Box<dyn ProgramIter> {
        Box::new(self.threads[thread].clone().into_iter().fuse())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_workload_replays_ops() {
        let w = VecWorkload {
            name: "t".into(),
            threads: vec![vec![
                Op::Compute {
                    cycles: 5,
                    instructions: 10,
                },
                Op::Barrier,
            ]],
        };
        assert_eq!(w.n_threads(), 1);
        let mut p = w.thread_program(0, 0);
        assert!(matches!(p.next_op(), Some(Op::Compute { cycles: 5, .. })));
        assert_eq!(p.next_op(), Some(Op::Barrier));
        assert_eq!(p.next_op(), None);
        assert_eq!(p.next_op(), None, "fused after end");
    }
}
