//! NAS Parallel Benchmarks kernels and workload generators for the
//! off-chip contention study.
//!
//! The ICPP'11 paper drives its measurements with five NPB 3.3 OpenMP
//! kernels — EP, IS, FT, CG, SP (Table I) — plus PARSEC's x264. This crate
//! supplies both halves of the substitution documented in DESIGN.md §2:
//!
//! 1. **Real kernels** ([`kernels`]) — from-scratch Rust ports of the five
//!    computational kernels, parallelised with `std::thread::scope` and
//!    each carrying an NPB-style verification step (EP Gaussian-pair
//!    counts, IS sortedness, CG eigenvalue residuals, FT inverse-transform
//!    round-trips, SP pentadiagonal-solver residuals), plus a motion-
//!    estimation x264 proxy. These are runnable programs in their own
//!    right (see `examples/`).
//! 2. **Trace generators** ([`traces`]) — per-kernel cache-line access
//!    streams derived from each kernel's loop structure, parameterised by
//!    NPB problem class and the machine's geometric scale. These feed the
//!    `offchip-machine` simulator for the contention experiments, where
//!    running the real class-C kernels at full size would take hours per
//!    sweep point.
//!
//! [`recorder`] bridges the two: a real kernel run can record its actual
//! line-granularity touches, and the recording replays through the
//! simulator, validating the generators against the genuine article.
//!
//! [`classes`] and [`catalog`] hold the problem-size tables (paper
//! Tables I and III) and the per-class simulation parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod classes;
pub mod kernels;
pub mod npb_rng;
pub mod recorder;
pub mod traces;

pub use classes::ProblemClass;
pub use traces::{Phase, PhaseProgram, PhaseWorkload};
