//! Exact order statistics over raw samples.
//!
//! Latencies are kept as every raw sample and percentiles are read by
//! nearest rank, so a reported percentile is always a value that was
//! actually measured — never a histogram bucket bound. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it;
//! otherwise too few observations back the tail to call it that
//! percentile.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A set of raw samples. Failed operations are recorded as
/// [`Samples::push_failure`] and sort after every success, so a failure
/// counts as slower than any measured latency.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Records one measured value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Records a failed operation: slower than every success.
    pub fn push_failure(&mut self) {
        self.push(f64::INFINITY);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples, failures included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`) when at least
    /// [`MIN_BEYOND`] samples lie beyond its rank; `None` otherwise.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 1.0, "quantile {p} outside (0, 1]");
        let n = self.values.len();
        let rank = (p * n as f64).ceil() as usize;
        if rank == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }

    /// The nearest-rank median of a non-empty set, without the
    /// samples-beyond rule (a median always has half the set beyond it;
    /// with fewer than 20 samples it is still the best estimate there
    /// is, and callers print the count beside it).
    pub fn median(&mut self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        Some(self.values[(self.values.len() - 1) / 2])
    }
}

/// Nearest-rank median of a slice (lower middle for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// The largest value: the peak of per-process peaks.
pub fn peak(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the sort is exercised.
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn p50_and_p99_of_a_known_set_are_exact() {
        let mut s = one_to(1000);
        assert_eq!(s.percentile(0.50), Some(500.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.median(), Some(500.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond — reported.
        assert!(one_to(1000).percentile(0.99).is_some());
        // 999 samples: rank 990 leaves 9 beyond — withheld.
        assert_eq!(one_to(999).percentile(0.99), None);
        // The median of 19 samples has 9 beyond it.
        assert_eq!(one_to(19).percentile(0.5), None);
        assert_eq!(one_to(20).percentile(0.5), Some(10.0));
        assert_eq!(Samples::new().percentile(0.5), None);
    }

    #[test]
    fn failures_sort_after_every_success() {
        let mut s = one_to(20);
        for _ in 0..11 {
            s.push_failure();
        }
        // 31 samples: rank 16 is still a success, the top 11 are not.
        assert_eq!(s.percentile(0.5), Some(16.0));
        // The last success still has 11 failures beyond it.
        assert_eq!(s.percentile(0.64), Some(20.0));
    }
}
