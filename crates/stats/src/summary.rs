//! Summary statistics and model-validation error metrics.

/// Summary statistics over a sample of `f64` values.
///
/// Built once over a slice; all accessors are O(1) afterwards except
/// [`Summary::percentile`], which requires the values to have been retained
/// and sorted (they are).
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
    sum_sq: f64,
}

impl Summary {
    /// Builds summary statistics from `values`.
    ///
    /// Non-finite values are rejected with a panic: they always indicate an
    /// upstream accounting bug in the simulator, never valid data.
    pub fn new(values: &[f64]) -> Summary {
        let mut sorted = Vec::with_capacity(values.len());
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &v in values {
            assert!(v.is_finite(), "non-finite value in summary input: {v}");
            sorted.push(v);
            sum += v;
            sum_sq += v * v;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Summary {
            sorted,
            sum,
            sum_sq,
        }
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean; 0.0 for an empty sample.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Population variance; 0.0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        // Two-pass-equivalent formula; clamp tiny negative rounding residue.
        (self.sum_sq / n as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean); `None` when the mean is 0.
    ///
    /// A Poisson-like (non-bursty) window-count series has CV² ≈ 1/mean; a
    /// heavy-tailed (bursty) one has much larger CV. The burstiness analysis
    /// uses this as a cheap first-pass indicator.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        let m = self.mean();
        if m == 0.0 {
            None
        } else {
            Some(self.std_dev() / m)
        }
    }

    /// Minimum value; `None` for an empty sample.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum value; `None` for an empty sample.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank with linear
    /// interpolation; `None` for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let n = self.sorted.len();
        if n == 1 {
            return Some(self.sorted[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (50th percentile).
    #[inline]
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Signed relative error of `predicted` against `measured`:
/// `(predicted − measured) / measured`.
///
/// Returns `None` when `measured` is zero (the paper's ω(1) = 0 baseline is
/// excluded from error averaging for exactly this reason).
#[inline]
pub fn relative_error(predicted: f64, measured: f64) -> Option<f64> {
    if measured == 0.0 {
        None
    } else {
        Some((predicted - measured) / measured)
    }
}

/// Mean absolute relative error over paired predictions and measurements,
/// skipping pairs whose measurement is zero.
///
/// This is the paper's headline validation metric ("our model differs from
/// measurements on average by less than 14%", §I).
///
/// Returns `None` if no pair is usable.
pub fn mean_absolute_relative_error(predicted: &[f64], measured: &[f64]) -> Option<f64> {
    assert_eq!(predicted.len(), measured.len());
    let mut total = 0.0;
    let mut used = 0usize;
    for (&p, &m) in predicted.iter().zip(measured) {
        if let Some(e) = relative_error(p, m) {
            total += e.abs();
            used += 1;
        }
    }
    if used == 0 {
        None
    } else {
        Some(total / used as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::new(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_safe() {
        let s = Summary::new(&[]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.percentile(50.0).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
        assert!((s.median().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_panics() {
        Summary::new(&[1.0, f64::NAN]);
    }

    #[test]
    fn cv_detects_dispersion() {
        let regular = Summary::new(&[10.0; 100]);
        assert_eq!(regular.coefficient_of_variation(), Some(0.0));
        let mut bursty = vec![0.0; 99];
        bursty.push(1000.0);
        let b = Summary::new(&bursty);
        assert!(b.coefficient_of_variation().unwrap() > 5.0);
    }

    #[test]
    fn relative_error_signs_and_zero_guard() {
        assert_eq!(relative_error(1.1, 1.0), Some(0.10000000000000009));
        assert!(relative_error(1.0, 0.0).is_none());
        assert!(relative_error(0.9, 1.0).unwrap() < 0.0);
    }

    #[test]
    fn mare_matches_hand_computation() {
        let predicted = [1.1, 0.9, 2.0, 5.0];
        let measured = [1.0, 1.0, 2.0, 0.0]; // last pair skipped
        let mare = mean_absolute_relative_error(&predicted, &measured).unwrap();
        assert!((mare - (0.1 + 0.1 + 0.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mare_none_when_all_measured_zero() {
        assert!(mean_absolute_relative_error(&[1.0], &[0.0]).is_none());
    }

    #[test]
    fn single_sample_percentile() {
        let s = Summary::new(&[42.0]);
        assert_eq!(s.percentile(0.0), Some(42.0));
        assert_eq!(s.percentile(73.0), Some(42.0));
        assert_eq!(s.percentile(100.0), Some(42.0));
    }
}
