//! From-scratch Rust ports of the computational kernels.
//!
//! Each kernel is a real, verifiable parallel program — the same
//! algorithms the paper's NPB 3.3 / PARSEC binaries execute — parallelised
//! with `std::thread::scope` over a fixed thread count (the OpenMP model
//! of the paper). They serve three purposes:
//!
//! 1. credibility: the library ships the benchmarks, not just their
//!    shadows;
//! 2. examples: `examples/npb_kernels.rs` runs them end to end;
//! 3. ground truth: instrumented runs (see [`crate::recorder`]) validate
//!    the trace generators of [`crate::traces`].
//!
//! Verification follows NPB's own style: EP checks Gaussian-pair tallies,
//! IS checks full sortedness, CG checks solver residuals, FT checks
//! inverse-transform round-trips, SP checks pentadiagonal solutions
//! against dense elimination, and the x264 proxy checks recovered motion
//! vectors. MG has a trace generator ([`crate::traces::mg`]) and no port
//! here.

pub mod cg;
pub mod ep;
pub mod ft;
pub mod grid3;
pub mod is;
pub mod sp;
pub mod x264;
