//! Least-squares line fitting with goodness-of-fit.
//!
//! The ICPP'11 model derives the M/M/1 parameters `μ` and `L` of eq. (6),
//! `C(n) = r(n) / (μ − n·L)`, by observing that `1/C(n)` is *linear* in `n`:
//!
//! ```text
//! 1/C(n) = μ/r − (L/r)·n
//! ```
//!
//! A line fit over a handful of measured points therefore recovers the model
//! parameters, and the coefficient of determination R² over a sweep of `n`
//! is the paper's "colinearity goodness-of-fit" (Table IV).

/// Why a least-squares system could not be solved.
///
/// The measurement pipeline feeds regressions with counter readings that
/// may be corrupted or thinned by faults; each failure mode is reported
/// as a distinct variant so callers can diagnose (and degrade) instead of
/// panicking on a singular system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionError {
    /// Fewer than two points carry positive weight: the slope is
    /// under-determined.
    TooFewPoints {
        /// Points that actually participated.
        usable: usize,
    },
    /// All participating abscissae are identical: vertical data, the
    /// normal equations are singular.
    SingularSystem,
    /// A coordinate or weight was NaN or infinite.
    NonFinite {
        /// Index of the offending point.
        index: usize,
    },
    /// A weight was negative.
    NegativeWeight {
        /// Index of the offending point.
        index: usize,
    },
}

impl std::fmt::Display for RegressionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressionError::TooFewPoints { usable } => {
                write!(f, "regression needs at least 2 usable points, got {usable}")
            }
            RegressionError::SingularSystem => {
                write!(
                    f,
                    "all abscissae identical: the least-squares system is singular"
                )
            }
            RegressionError::NonFinite { index } => {
                write!(f, "point {index} has a non-finite coordinate or weight")
            }
            RegressionError::NegativeWeight { index } => {
                write!(f, "point {index} has a negative weight")
            }
        }
    }
}

impl std::error::Error for RegressionError {}

/// A point with an attached non-negative weight, for weighted least squares.
///
/// The paper weights the remote stall parameter `ρ` by the fraction of
/// requests served at each hop distance on machines with heterogeneous
/// interconnects (AMD NUMA, §IV); [`LineFit::weighted`] supports that use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint {
    /// Abscissa.
    pub x: f64,
    /// Ordinate.
    pub y: f64,
    /// Non-negative weight; points with weight 0 are ignored.
    pub weight: f64,
}

/// Result of fitting `y ≈ intercept + slope·x` by (weighted) least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination over the fitted points, in `[0, 1]`
    /// for least-squares fits (clamped at 0 for degenerate data).
    pub r_squared: f64,
    /// Number of points that participated in the fit.
    pub n_points: usize,
}

impl LineFit {
    /// Fits a line through `(x, y)` pairs by ordinary least squares.
    ///
    /// Returns `None` when fewer than two distinct abscissae are supplied
    /// (the slope would be undefined) or when any coordinate is non-finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use offchip_stats::LineFit;
    /// let xs = [1.0, 2.0, 3.0, 4.0];
    /// let ys = [3.0, 5.0, 7.0, 9.0]; // y = 1 + 2x
    /// let fit = LineFit::ordinary(&xs, &ys).unwrap();
    /// assert!((fit.slope - 2.0).abs() < 1e-12);
    /// assert!((fit.intercept - 1.0).abs() < 1e-12);
    /// assert!((fit.r_squared - 1.0).abs() < 1e-12);
    /// ```
    pub fn ordinary(xs: &[f64], ys: &[f64]) -> Option<LineFit> {
        Self::try_ordinary(xs, ys).ok()
    }

    /// Like [`LineFit::ordinary`], but reports *why* the system could not
    /// be solved.
    pub fn try_ordinary(xs: &[f64], ys: &[f64]) -> Result<LineFit, RegressionError> {
        assert_eq!(
            xs.len(),
            ys.len(),
            "regression inputs must have equal length"
        );
        let pts: Vec<WeightedPoint> = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| WeightedPoint { x, y, weight: 1.0 })
            .collect();
        Self::try_weighted(&pts)
    }

    /// Fits a line by weighted least squares.
    ///
    /// Points with zero weight are skipped; negative weights are rejected by
    /// returning `None`, as are non-finite coordinates.
    pub fn weighted(points: &[WeightedPoint]) -> Option<LineFit> {
        Self::try_weighted(points).ok()
    }

    /// Like [`LineFit::weighted`], but reports *why* the system could not
    /// be solved.
    pub fn try_weighted(points: &[WeightedPoint]) -> Result<LineFit, RegressionError> {
        let mut w_sum = 0.0;
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut used = 0usize;
        for (i, p) in points.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite() && p.weight.is_finite()) {
                return Err(RegressionError::NonFinite { index: i });
            }
            if p.weight < 0.0 {
                return Err(RegressionError::NegativeWeight { index: i });
            }
            if p.weight == 0.0 {
                continue;
            }
            w_sum += p.weight;
            wx += p.weight * p.x;
            wy += p.weight * p.y;
            used += 1;
        }
        if used < 2 || w_sum <= 0.0 {
            return Err(RegressionError::TooFewPoints { usable: used });
        }
        let x_bar = wx / w_sum;
        let y_bar = wy / w_sum;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for p in points {
            if p.weight == 0.0 {
                continue;
            }
            let dx = p.x - x_bar;
            sxx += p.weight * dx * dx;
            sxy += p.weight * dx * (p.y - y_bar);
        }
        if sxx == 0.0 {
            // All abscissae identical: vertical data, slope undefined.
            return Err(RegressionError::SingularSystem);
        }
        let slope = sxy / sxx;
        let intercept = y_bar - slope * x_bar;

        // R² = 1 − SS_res / SS_tot (weighted).
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for p in points {
            if p.weight == 0.0 {
                continue;
            }
            let pred = intercept + slope * p.x;
            ss_res += p.weight * (p.y - pred) * (p.y - pred);
            ss_tot += p.weight * (p.y - y_bar) * (p.y - y_bar);
        }
        let r_squared = if ss_tot == 0.0 {
            // A perfectly horizontal data set fitted by a horizontal line.
            1.0
        } else {
            (1.0 - ss_res / ss_tot).max(0.0)
        };
        Ok(LineFit {
            slope,
            intercept,
            r_squared,
            n_points: used,
        })
    }

    /// Evaluates the fitted line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.5 * x + 4.0).collect();
        let fit = LineFit::ordinary(&xs, &ys).unwrap();
        assert!((fit.slope + 0.5).abs() < 1e-12);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n_points, 10);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1, 4.9];
        let fit = LineFit::ordinary(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.98 && fit.r_squared < 1.0);
        assert!((fit.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn two_points_always_perfect() {
        let fit = LineFit::ordinary(&[1.0, 3.0], &[10.0, 4.0]).unwrap();
        assert!((fit.slope + 3.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(LineFit::ordinary(&[2.0], &[1.0]).is_none());
        assert!(LineFit::ordinary(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(LineFit::ordinary(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
        assert!(LineFit::ordinary(&[1.0, f64::INFINITY], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn horizontal_data_fits_horizontal_line() {
        let fit = LineFit::ordinary(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn weights_shift_fit_toward_heavy_points() {
        // Two clusters; heavy weight on the y=x cluster should pull slope to 1.
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 100.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 1.0,
                weight: 100.0,
            },
            WeightedPoint {
                x: 2.0,
                y: 10.0,
                weight: 0.01,
            },
        ];
        let fit = LineFit::weighted(&pts).unwrap();
        assert!((fit.slope - 1.0).abs() < 0.01, "slope={}", fit.slope);
    }

    #[test]
    fn zero_weight_points_ignored() {
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 1.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 2.0,
                weight: 1.0,
            },
            WeightedPoint {
                x: 50.0,
                y: -999.0,
                weight: 0.0,
            },
        ];
        let fit = LineFit::weighted(&pts).unwrap();
        assert_eq!(fit.n_points, 2);
        assert!((fit.slope - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_weights_rejected() {
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 1.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 2.0,
                weight: -1.0,
            },
        ];
        assert!(LineFit::weighted(&pts).is_none());
    }

    #[test]
    fn typed_errors_name_the_failure() {
        assert_eq!(
            LineFit::try_ordinary(&[2.0], &[1.0]),
            Err(RegressionError::TooFewPoints { usable: 1 })
        );
        assert_eq!(
            LineFit::try_ordinary(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(RegressionError::SingularSystem)
        );
        assert_eq!(
            LineFit::try_ordinary(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(RegressionError::NonFinite { index: 1 })
        );
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 1.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 2.0,
                weight: -1.0,
            },
        ];
        assert_eq!(
            LineFit::try_weighted(&pts),
            Err(RegressionError::NegativeWeight { index: 1 })
        );
        // The messages are actionable, not just variant names.
        let msg = RegressionError::TooFewPoints { usable: 1 }.to_string();
        assert!(msg.contains("at least 2"), "{msg}");
    }

    #[test]
    fn predict_interpolates() {
        let fit = LineFit::ordinary(&[0.0, 10.0], &[1.0, 21.0]).unwrap();
        assert!((fit.predict(5.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_cycles_linearity_example() {
        // Synthetic M/M/1: C(n) = r / (mu - n L), so 1/C(n) linear in n.
        let r = 1.0e9;
        let mu = 0.02;
        let l = 0.0015;
        let ns: Vec<f64> = (1..=12).map(|n| n as f64).collect();
        let inv_c: Vec<f64> = ns.iter().map(|n| (mu - n * l) / r).collect();
        let fit = LineFit::ordinary(&ns, &inv_c).unwrap();
        // Recover mu and L via r: intercept = mu/r, slope = -L/r.
        assert!((fit.intercept * r - mu).abs() < 1e-12);
        assert!((-fit.slope * r - l).abs() < 1e-12);
        assert!(fit.r_squared > 0.999999);
    }
}
