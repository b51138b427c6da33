//! Model validation against measured sweeps (paper §V).
//!
//! Two quantities are reported:
//!
//! * the **average relative error** between modelled and measured ω(n)
//!   over a full core sweep — the paper's headline "5–14 %";
//! * the **colinearity goodness-of-fit** R² of `1/C(n)` vs `n` within the
//!   first processor (Table IV) — near 1 for high-contention programs,
//!   lower for bursty low-contention ones (EP, x264), "confirming that the
//!   M/M/1 queueing model does not explain their behavior very well".

use offchip_stats::{mean_absolute_relative_error, LineFit};

use crate::multiproc::{ContentionModel, FitError};
use crate::omega::degree_of_contention;

/// Per-point and aggregate validation results.
#[derive(Debug, Clone)]
pub struct Validation {
    /// `(n, measured ω, modelled ω)` for every sweep point.
    pub points: Vec<(usize, f64, f64)>,
    /// Mean absolute relative error of modelled vs measured ω over points
    /// with non-zero measured ω (the n = 1 identity is excluded).
    pub mean_relative_error: Option<f64>,
    /// Mean absolute error in ω units. For low-contention programs
    /// (EP, x264) measured ω sits near zero and relative error explodes on
    /// noise; the paper accordingly quotes its 5–14% only "for problems
    /// with large contention". Use this metric for the rest.
    pub mean_absolute_error: f64,
}

/// Validates a fitted model against a measured `(n, C(n))` sweep.
///
/// Returns [`FitError::MissingBaseline`] when the sweep has no `n = 1`
/// point — ω is undefined without it, and a thinned-out measurement
/// campaign losing exactly that point must be reported, not panicked on.
pub fn validate(model: &ContentionModel, sweep: &[(usize, u64)]) -> Result<Validation, FitError> {
    let c1 = sweep
        .iter()
        .find(|&&(n, _)| n == 1)
        .map(|&(_, c)| c)
        .ok_or(FitError::MissingBaseline)?;
    let mut points = Vec::with_capacity(sweep.len());
    let mut measured = Vec::new();
    let mut modelled = Vec::new();
    for &(n, c) in sweep {
        let m = degree_of_contention(c, c1);
        let p = model.predict_omega(n);
        points.push((n, m, p));
        measured.push(m);
        modelled.push(p);
    }
    let mean_relative_error = mean_absolute_relative_error(&modelled, &measured);
    let mean_absolute_error = modelled
        .iter()
        .zip(&measured)
        .map(|(p, m)| (p - m).abs())
        .sum::<f64>()
        / modelled.len().max(1) as f64;
    Ok(Validation {
        points,
        mean_relative_error,
        mean_absolute_error,
    })
}

/// Table IV's colinearity goodness-of-fit: R² of the line `1/C(n)` vs `n`
/// over the sweep points with `n ≤ max_n` (the paper uses `n = 1..4` on
/// the UMA machine and `n = 1..12` on both NUMA machines).
///
/// Returns `None` when fewer than two usable points exist.
pub fn colinearity_r2(sweep: &[(usize, u64)], max_n: usize) -> Option<f64> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &(n, c) in sweep {
        if n <= max_n && c > 0 {
            xs.push(n as f64);
            ys.push(1.0 / c as f64);
        }
    }
    LineFit::ordinary(&xs, &ys).map(|f| f.r_squared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiproc::{Architecture, ContentionModel, FitInputs};

    fn mm1_sweep(mu: f64, l: f64, r: f64, max: usize) -> Vec<(usize, u64)> {
        (1..=max)
            .map(|n| (n, (r / (mu - n as f64 * l)) as u64))
            .collect()
    }

    fn fitted(sweep: &[(usize, u64)], c: usize) -> ContentionModel {
        let points: Vec<(usize, f64)> = sweep
            .iter()
            .filter(|&&(n, _)| n == 1 || n == c)
            .map(|&(n, cc)| (n, cc as f64))
            .collect();
        ContentionModel::fit(&FitInputs {
            points,
            r: 1e9,
            cores_per_processor: c,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        })
        .unwrap()
    }

    #[test]
    fn perfect_model_validates_with_tiny_error() {
        let sweep = mm1_sweep(0.02, 0.0012, 1e9, 12);
        let model = fitted(&sweep, 12);
        let v = validate(&model, &sweep).unwrap();
        assert_eq!(v.points.len(), 12);
        assert!(
            v.mean_relative_error.unwrap() < 0.01,
            "err={:?}",
            v.mean_relative_error
        );
        // The n = 1 point has ω = 0 on both sides.
        assert_eq!(v.points[0].1, 0.0);
        assert!(v.points[0].2.abs() < 1e-9);
    }

    #[test]
    fn wrong_model_shows_large_error() {
        let sweep = mm1_sweep(0.02, 0.0012, 1e9, 12);
        // Fit against a much flatter program, then validate on the steep one.
        let flat = mm1_sweep(0.02, 0.0001, 1e9, 12);
        let model = fitted(&flat, 12);
        let v = validate(&model, &sweep).unwrap();
        assert!(v.mean_relative_error.unwrap() > 0.3);
    }

    #[test]
    fn colinearity_perfect_for_mm1_data() {
        let sweep = mm1_sweep(0.02, 0.0012, 1e9, 12);
        let r2 = colinearity_r2(&sweep, 12).unwrap();
        assert!(r2 > 0.999_99, "r2={r2}");
    }

    #[test]
    fn colinearity_lower_for_non_mm1_growth() {
        // Quadratic cycle growth is not 1/C-linear.
        let sweep: Vec<(usize, u64)> = (1..=12)
            .map(|n| (n, 1_000_000 + 40_000 * (n * n) as u64))
            .collect();
        let r2_mm1 = colinearity_r2(&mm1_sweep(0.02, 0.0012, 1e9, 12), 12).unwrap();
        let r2_quad = colinearity_r2(&sweep, 12).unwrap();
        assert!(r2_quad < r2_mm1);
    }

    #[test]
    fn colinearity_respects_max_n() {
        let sweep = mm1_sweep(0.02, 0.0012, 1e9, 12);
        // Only n ≤ 1 → a single point → None.
        assert!(colinearity_r2(&sweep, 1).is_none());
        assert!(colinearity_r2(&sweep, 4).is_some());
    }

    #[test]
    fn validate_reports_missing_baseline() {
        let sweep = vec![(2usize, 100u64)];
        let model = fitted(&mm1_sweep(0.02, 0.0012, 1e9, 12), 12);
        assert_eq!(
            validate(&model, &sweep).unwrap_err(),
            FitError::MissingBaseline
        );
    }
}
