//! A from-scratch Rust port of NPB CG, the one computational kernel the
//! crate ships.
//!
//! The port is a real, verifiable parallel program: the conjugate-gradient
//! eigenvalue estimate of NPB 3.3, parallelised with `std::thread::scope`
//! over a fixed thread count (the OpenMP model of the paper) and checked by
//! its solver residuals. Its instrumented run (see [`crate::recorder`])
//! records the cache lines it touches, and `tests/recorded_vs_generated.rs`
//! replays that recording beside [`crate::traces::cg`] to check the
//! generator against the genuine article. The other programs have trace
//! generators in [`crate::traces`] and no port here.

pub mod cg;
