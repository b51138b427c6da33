//! Numerical building blocks for the off-chip contention study.
//!
//! This crate collects the small, dependency-free numerical routines that the
//! analytical model (`offchip-model`), the burstiness analysis
//! (`offchip-perf`) and the experiment harness (`offchip-bench`) share:
//!
//! * [`regression`] — ordinary and weighted least-squares line fits with
//!   goodness-of-fit (R²), used to fit the paper's M/M/1 parameters from the
//!   linearity of `1/C(n)` (ICPP'11 §IV) and to report Table IV.
//! * [`summary`] — summary statistics and the relative-error metrics used to
//!   validate model predictions against measurements (§V: "average relative
//!   error between 5-14%").
//! * [`ccdf`] — empirical complementary CDFs and their log-log tail fit,
//!   used for the Fig. 4 burstiness analysis.
//! * [`dist`] — maximum-likelihood fits for exponential and Pareto laws plus
//!   Kolmogorov–Smirnov distances, used to classify traffic as bursty
//!   (heavy-tailed) vs non-bursty (light-tailed).
//! * [`hurst`] — aggregated-variance Hurst-exponent estimation, the
//!   self-similarity lens of the paper's burstiness references.
//!
//! All routines are deterministic and operate on `f64` slices; no allocation
//! is performed beyond the returned containers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccdf;
pub mod dist;
pub mod hurst;
pub mod regression;
pub mod summary;

pub use ccdf::{Ccdf, TailDiagnostics};
pub use dist::{ExponentialFit, KsStatistic, ParetoFit};
pub use hurst::{hurst_aggregated_variance, HurstEstimate};
pub use regression::{LineFit, RegressionError, WeightedPoint};
pub use summary::{mean_absolute_relative_error, relative_error, Summary};
