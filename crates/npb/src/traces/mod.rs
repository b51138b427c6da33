//! Access-trace generators: kernels as phase programs.
//!
//! Emitting one [`Op`] per dynamic memory reference of a class-C kernel
//! would need gigabytes of trace; instead each kernel is compiled (by the
//! per-kernel modules) into a compact list of [`Phase`]s per thread —
//! sweeps, random-access regions, compute blocks, barriers — and a small
//! interpreter ([`PhaseProgram`]) expands phases into the op stream
//! lazily. The phases mirror the kernel's actual loop structure; a sweep
//! phase touches one address per cache line (the granularity at which
//! off-chip traffic exists), with per-element arithmetic folded into
//! `compute_per_access`.
//!
//! * [`ep`], [`is`], [`cg`], [`ft`], [`sp`], [`mg`] — the NPB kernels;
//! * [`x264`] — the PARSEC proxy.

pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod mg;
pub mod sp;
pub mod x264;

use std::sync::Arc;

use offchip_machine::{Op, ProgramIter, Workload};
use offchip_simcore::Rng;

/// One phase of a thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pure compute.
    Compute {
        /// Busy cycles.
        cycles: u64,
        /// Instructions retired.
        instructions: u64,
    },
    /// `count` accesses starting at `base`, advancing `stride` bytes per
    /// access — a loop over an array at cache-line granularity.
    Sweep {
        /// First byte address.
        base: u64,
        /// Number of accesses.
        count: u64,
        /// Byte stride between accesses.
        stride: u64,
        /// Stores instead of loads.
        write: bool,
        /// Serialising accesses (pointer-chase-like); independent sweeps
        /// overlap within the core's MSHR budget.
        dependent: bool,
        /// Compute cycles folded in before each access.
        compute_per_access: u64,
    },
    /// `count` uniformly random accesses within `[base, base + len)` — a
    /// gather (`write = false`) or scatter (`write = true`).
    RandomAccess {
        /// Region base address.
        base: u64,
        /// Region length in bytes.
        len: u64,
        /// Number of accesses.
        count: u64,
        /// Stores instead of loads.
        write: bool,
        /// Serialising accesses.
        dependent: bool,
        /// Compute cycles folded in before each access.
        compute_per_access: u64,
    },
    /// Global barrier.
    Barrier,
}

/// Lazy interpreter turning a phase list into an op stream.
pub struct PhaseProgram {
    phases: Arc<Vec<Phase>>,
    phase_idx: usize,
    emitted: u64,
    /// When a compute-bearing access phase is active, alternate between
    /// the compute op and the access op.
    pending_access: Option<Op>,
    rng: Rng,
}

impl PhaseProgram {
    /// Creates an interpreter over `phases` with deterministic randomness
    /// from `seed`.
    pub fn new(phases: Arc<Vec<Phase>>, seed: u64) -> PhaseProgram {
        PhaseProgram {
            phases,
            phase_idx: 0,
            emitted: 0,
            pending_access: None,
            rng: Rng::new(seed),
        }
    }
}

impl ProgramIter for PhaseProgram {
    fn next_op(&mut self) -> Option<Op> {
        if let Some(op) = self.pending_access.take() {
            return Some(op);
        }
        loop {
            let phase = *self.phases.get(self.phase_idx)?;
            match phase {
                Phase::Compute {
                    cycles,
                    instructions,
                } => {
                    self.phase_idx += 1;
                    self.emitted = 0;
                    return Some(Op::Compute {
                        cycles,
                        instructions,
                    });
                }
                Phase::Barrier => {
                    self.phase_idx += 1;
                    self.emitted = 0;
                    return Some(Op::Barrier);
                }
                Phase::Sweep {
                    base,
                    count,
                    stride,
                    write,
                    dependent,
                    compute_per_access,
                } => {
                    if self.emitted >= count {
                        self.phase_idx += 1;
                        self.emitted = 0;
                        continue;
                    }
                    let addr = base + self.emitted * stride;
                    self.emitted += 1;
                    let access = Op::Access {
                        addr,
                        write,
                        dependent,
                    };
                    if compute_per_access > 0 {
                        self.pending_access = Some(access);
                        return Some(Op::Compute {
                            cycles: compute_per_access,
                            instructions: compute_per_access,
                        });
                    }
                    return Some(access);
                }
                Phase::RandomAccess {
                    base,
                    len,
                    count,
                    write,
                    dependent,
                    compute_per_access,
                } => {
                    if self.emitted >= count {
                        self.phase_idx += 1;
                        self.emitted = 0;
                        continue;
                    }
                    self.emitted += 1;
                    let addr = base + self.rng.next_below(len.max(1));
                    let access = Op::Access {
                        addr,
                        write,
                        dependent,
                    };
                    if compute_per_access > 0 {
                        self.pending_access = Some(access);
                        return Some(Op::Compute {
                            cycles: compute_per_access,
                            instructions: compute_per_access,
                        });
                    }
                    return Some(access);
                }
            }
        }
    }
}

/// A workload defined by per-thread phase lists.
pub struct PhaseWorkload {
    name: String,
    thread_phases: Vec<Arc<Vec<Phase>>>,
}

impl PhaseWorkload {
    /// Wraps per-thread phase lists under a program name.
    ///
    /// # Panics
    /// Panics if `thread_phases` is empty.
    pub fn new(name: impl Into<String>, thread_phases: Vec<Vec<Phase>>) -> PhaseWorkload {
        assert!(!thread_phases.is_empty(), "workload needs threads");
        PhaseWorkload {
            name: name.into(),
            thread_phases: thread_phases.into_iter().map(Arc::new).collect(),
        }
    }

    /// Total number of `Access` ops the workload will emit, for sizing
    /// expectations in tests and reports.
    pub fn total_accesses(&self) -> u64 {
        self.thread_phases
            .iter()
            .flat_map(|p| p.iter())
            .map(|ph| match ph {
                Phase::Sweep { count, .. } | Phase::RandomAccess { count, .. } => *count,
                _ => 0,
            })
            .sum()
    }
}

impl Workload for PhaseWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn n_threads(&self) -> usize {
        self.thread_phases.len()
    }

    fn thread_program(&self, thread: usize, seed: u64) -> Box<dyn ProgramIter> {
        Box::new(PhaseProgram::new(self.thread_phases[thread].clone(), seed))
    }
}

/// A bump allocator laying out the program's arrays in the shared virtual
/// address space, page-aligned so first-touch placement is clean.
#[derive(Debug, Clone)]
pub struct Layout {
    next: u64,
    page: u64,
}

impl Layout {
    /// Creates a layout starting above the zero page.
    pub fn new(page_bytes: u64) -> Layout {
        assert!(page_bytes.is_power_of_two());
        Layout {
            next: page_bytes,
            page: page_bytes,
        }
    }

    /// Reserves `bytes`, page-aligned; returns the base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        let aligned = bytes.div_ceil(self.page) * self.page;
        self.next += aligned.max(self.page);
        base
    }

    /// Total reserved bytes so far.
    pub fn reserved(&self) -> u64 {
        self.next - self.page
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::new(4096)
    }
}

/// Splits `total` items into `parts` contiguous chunks; returns
/// `(start, len)` of chunk `idx`. Remainders go to the leading chunks,
/// matching OpenMP static scheduling.
pub fn chunk(total: u64, parts: u64, idx: u64) -> (u64, u64) {
    assert!(parts > 0 && idx < parts);
    let base_len = total / parts;
    let rem = total % parts;
    let len = base_len + u64::from(idx < rem);
    let start = idx * base_len + idx.min(rem);
    (start, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_strided_addresses() {
        let phases = Arc::new(vec![Phase::Sweep {
            base: 1000,
            count: 3,
            stride: 64,
            write: false,
            dependent: false,
            compute_per_access: 0,
        }]);
        let mut p = PhaseProgram::new(phases, 1);
        let addrs: Vec<u64> = std::iter::from_fn(|| {
            p.next_op().map(|op| match op {
                Op::Access { addr, .. } => addr,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(addrs, vec![1000, 1064, 1128]);
    }

    #[test]
    fn compute_interleaves_with_accesses() {
        let phases = Arc::new(vec![Phase::Sweep {
            base: 0,
            count: 2,
            stride: 64,
            write: true,
            dependent: true,
            compute_per_access: 10,
        }]);
        let mut p = PhaseProgram::new(phases, 1);
        assert!(matches!(p.next_op(), Some(Op::Compute { cycles: 10, .. })));
        assert!(matches!(
            p.next_op(),
            Some(Op::Access {
                addr: 0,
                write: true,
                dependent: true
            })
        ));
        assert!(matches!(p.next_op(), Some(Op::Compute { .. })));
        assert!(matches!(p.next_op(), Some(Op::Access { addr: 64, .. })));
        assert_eq!(p.next_op(), None);
        assert_eq!(p.next_op(), None, "fused");
    }

    #[test]
    fn random_access_stays_in_region() {
        let phases = Arc::new(vec![Phase::RandomAccess {
            base: 4096,
            len: 8192,
            count: 1000,
            write: false,
            dependent: true,
            compute_per_access: 0,
        }]);
        let mut p = PhaseProgram::new(phases, 7);
        let mut n = 0;
        while let Some(op) = p.next_op() {
            if let Op::Access { addr, .. } = op {
                assert!((4096..4096 + 8192).contains(&addr));
                n += 1;
            }
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn same_seed_same_stream() {
        let phases = Arc::new(vec![Phase::RandomAccess {
            base: 0,
            len: 1 << 20,
            count: 100,
            write: false,
            dependent: false,
            compute_per_access: 0,
        }]);
        let mut a = PhaseProgram::new(phases.clone(), 42);
        let mut b = PhaseProgram::new(phases, 42);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn phases_run_in_order_with_barriers() {
        let phases = Arc::new(vec![
            Phase::Compute {
                cycles: 5,
                instructions: 5,
            },
            Phase::Barrier,
            Phase::Sweep {
                base: 0,
                count: 1,
                stride: 64,
                write: false,
                dependent: false,
                compute_per_access: 0,
            },
        ]);
        let mut p = PhaseProgram::new(phases, 1);
        assert!(matches!(p.next_op(), Some(Op::Compute { .. })));
        assert_eq!(p.next_op(), Some(Op::Barrier));
        assert!(matches!(p.next_op(), Some(Op::Access { .. })));
        assert_eq!(p.next_op(), None);
    }

    #[test]
    fn layout_is_page_aligned_and_disjoint() {
        let mut l = Layout::new(4096);
        let a = l.alloc(100);
        let b = l.alloc(5000);
        let c = l.alloc(1);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert_eq!(b - a, 4096);
        assert_eq!(c - b, 8192);
        assert_eq!(l.reserved(), 4096 + 8192 + 4096);
    }

    #[test]
    fn chunking_covers_everything_once() {
        for (total, parts) in [(100u64, 7u64), (5, 8), (24, 24), (1000, 3)] {
            let mut covered = 0;
            let mut next_start = 0;
            for idx in 0..parts {
                let (start, len) = chunk(total, parts, idx);
                assert_eq!(start, next_start);
                next_start += len;
                covered += len;
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn workload_counts_accesses() {
        let w = PhaseWorkload::new(
            "count",
            vec![
                vec![
                    Phase::Sweep {
                        base: 0,
                        count: 10,
                        stride: 64,
                        write: false,
                        dependent: false,
                        compute_per_access: 0,
                    },
                    Phase::Barrier,
                ],
                vec![Phase::RandomAccess {
                    base: 0,
                    len: 100,
                    count: 5,
                    write: true,
                    dependent: false,
                    compute_per_access: 1,
                }],
            ],
        );
        assert_eq!(w.total_accesses(), 15);
        assert_eq!(w.n_threads(), 2);
    }
}
