//! NAS Parallel Benchmarks workload generators, and a CG port that checks
//! its generator, for the off-chip contention study.
//!
//! The ICPP'11 paper drives its measurements with five NPB 3.3 OpenMP
//! kernels — EP, IS, FT, CG, SP (Table I) — plus PARSEC's x264. This crate
//! supplies the substitution documented in DESIGN.md §2:
//!
//! 1. **Trace generators** ([`traces`]) — per-kernel cache-line access
//!    streams derived from each kernel's loop structure, parameterised by
//!    NPB problem class and the machine's geometric scale. These feed the
//!    `offchip-machine` simulator for every contention experiment, where
//!    running the real class-C kernels at full size would take hours per
//!    sweep point.
//! 2. **One real kernel** ([`kernels`]) — a from-scratch Rust port of CG,
//!    parallelised with `std::thread::scope` and verified by its solver
//!    residuals.
//!
//! [`recorder`] bridges the two: the CG port's run records its actual
//! line-granularity touches, and the recording replays through the
//! simulator beside the CG generator's stream.
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
