//! Recording real kernel executions as replayable workloads.
//!
//! The trace generators in [`crate::traces`] are hand-derived from kernel
//! loop structure; this module provides the ground truth to check them
//! against. The CG port's run ([`crate::kernels::cg::conj_grad_recorded`])
//! is instrumented with a [`Tracer`] per thread: every array access reports
//! the cache lines it touches, and the per-thread recordings replay through
//! the simulator as a [`RecordedWorkload`].
//!
//! Recordings are kept at cache-line granularity and deduplicate
//! *consecutive* touches of the same line (the within-loop reuse that
//! never leaves the L1 anyway), which keeps class-S/W recordings at a few
//! hundred thousand ops.

use std::sync::Arc;

use offchip_machine::{Op, ProgramIter, Workload};

/// Per-thread trace recorder handed to instrumented kernels.
#[derive(Debug, Default)]
pub struct Tracer {
    ops: Vec<Op>,
    last_line: Option<(u64, bool)>,
    compute_pending: u64,
}

const LINE: u64 = 64;

impl Tracer {
    /// Creates an empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn flush_compute(&mut self) {
        if self.compute_pending > 0 {
            self.ops.push(Op::Compute {
                cycles: self.compute_pending,
                instructions: self.compute_pending,
            });
            self.compute_pending = 0;
        }
    }

    /// Records `cycles` of compute (coalesced until the next access).
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.compute_pending += cycles;
    }

    /// Records a memory touch of `bytes` bytes at `addr`.
    #[inline]
    pub fn touch(&mut self, addr: u64, bytes: u64, write: bool) {
        let first = addr / LINE;
        let last = (addr + bytes.max(1) - 1) / LINE;
        for l in first..=last {
            if self.last_line == Some((l, write)) {
                continue; // consecutive same-line reuse stays in L1
            }
            self.flush_compute();
            self.last_line = Some((l, write));
            self.ops.push(Op::Access {
                addr: l * LINE,
                write,
                // Recorded streams are replayed access-by-access; marking
                // them independent lets the simulator rediscover the MLP.
                dependent: false,
            });
        }
    }

    /// Records a barrier.
    pub fn barrier(&mut self) {
        self.flush_compute();
        self.last_line = None;
        self.ops.push(Op::Barrier);
    }

    /// Finalises the recording.
    pub fn finish(mut self) -> Vec<Op> {
        self.flush_compute();
        self.ops
    }

    /// Ops recorded so far (for size checks while recording).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.compute_pending == 0
    }
}

/// A workload replaying recorded per-thread op streams.
pub struct RecordedWorkload {
    name: String,
    threads: Vec<Arc<Vec<Op>>>,
}

impl RecordedWorkload {
    /// Wraps per-thread recordings.
    ///
    /// # Panics
    /// Panics if `threads` is empty.
    pub fn new(name: impl Into<String>, threads: Vec<Vec<Op>>) -> RecordedWorkload {
        assert!(!threads.is_empty(), "recording needs at least one thread");
        RecordedWorkload {
            name: name.into(),
            threads: threads.into_iter().map(Arc::new).collect(),
        }
    }

    /// Total recorded ops across threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }
}

struct Replay {
    ops: Arc<Vec<Op>>,
    idx: usize,
}

impl ProgramIter for Replay {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.ops.get(self.idx).copied();
        if op.is_some() {
            self.idx += 1;
        }
        op
    }
}

impl Workload for RecordedWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn n_threads(&self) -> usize {
        self.threads.len()
    }

    fn thread_program(&self, thread: usize, _seed: u64) -> Box<dyn ProgramIter> {
        Box::new(Replay {
            ops: self.threads[thread].clone(),
            idx: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_same_line_touches_coalesce() {
        let mut t = Tracer::new();
        t.touch(0, 8, false);
        t.touch(8, 8, false); // same line
        t.touch(64, 8, false); // next line
        t.touch(0, 8, false); // back: recorded again
        let ops = t.finish();
        let accesses = ops
            .iter()
            .filter(|o| matches!(o, Op::Access { .. }))
            .count();
        assert_eq!(accesses, 3);
    }

    #[test]
    fn multi_line_touch_expands() {
        let mut t = Tracer::new();
        t.touch(60, 10, true); // straddles lines 0 and 1
        let ops = t.finish();
        assert_eq!(ops.len(), 2);
        assert!(matches!(
            ops[0],
            Op::Access {
                addr: 0,
                write: true,
                ..
            }
        ));
        assert!(matches!(ops[1], Op::Access { addr: 64, .. }));
    }

    #[test]
    fn compute_coalesces_until_access() {
        let mut t = Tracer::new();
        t.compute(10);
        t.compute(5);
        t.touch(0, 8, false);
        t.compute(3);
        let ops = t.finish();
        assert!(matches!(ops[0], Op::Compute { cycles: 15, .. }));
        assert!(matches!(ops[1], Op::Access { .. }));
        assert!(matches!(ops[2], Op::Compute { cycles: 3, .. }));
    }

    #[test]
    fn recorded_workload_replays() {
        let mut t = Tracer::new();
        t.compute(7);
        t.touch(0, 64, false);
        t.barrier();
        let w = RecordedWorkload::new("rec", vec![t.finish()]);
        assert_eq!(w.total_ops(), 3);
        let mut p = w.thread_program(0, 0);
        assert!(matches!(p.next_op(), Some(Op::Compute { cycles: 7, .. })));
        assert!(matches!(p.next_op(), Some(Op::Access { .. })));
        assert_eq!(p.next_op(), Some(Op::Barrier));
        assert_eq!(p.next_op(), None);
        assert_eq!(p.next_op(), None, "fused");
    }

    #[test]
    fn tracer_emptiness() {
        let t = Tracer::new();
        assert!(t.is_empty());
        let mut t = Tracer::new();
        t.compute(1);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 0, "compute still pending");
    }
}
