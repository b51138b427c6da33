//! Empirical complementary CDFs and tail diagnostics.
//!
//! Fig. 4 of the paper plots `P(burst size > x)` on log-log axes for each
//! problem class. A heavy (Pareto-like) tail is a straight diagonal there —
//! `log P(X > x) ≈ −α·log x + c` — so the R² of a line fit over the tail
//! is a burstiness indicator (high R² on small classes, visibly curved /
//! truncated on large classes).

use crate::regression::LineFit;

/// An empirical complementary CDF over non-negative integer-valued samples
/// (burst sizes in units of cache lines).
#[derive(Debug, Clone)]
pub struct Ccdf {
    /// Distinct sample values, ascending.
    values: Vec<u64>,
    /// `prob[i]` = P(X > values[i]).
    exceed_prob: Vec<f64>,
    total: usize,
}

impl Ccdf {
    /// Builds the empirical CCDF of `samples`.
    ///
    /// Zero-valued samples participate in the total count (they deflate the
    /// exceedance probabilities of every positive value), matching how the
    /// paper's sampler windows with no misses still count as observations.
    pub fn from_samples(samples: &[u64]) -> Ccdf {
        let mut sorted: Vec<u64> = samples.to_vec();
        sorted.sort_unstable();
        let total = sorted.len();
        let mut values = Vec::new();
        let mut exceed = Vec::new();
        let mut i = 0usize;
        while i < total {
            let v = sorted[i];
            let mut j = i;
            while j < total && sorted[j] == v {
                j += 1;
            }
            // Number of samples strictly greater than v.
            let greater = total - j;
            values.push(v);
            exceed.push(greater as f64 / total as f64);
            i = j;
        }
        Ccdf {
            values,
            exceed_prob: exceed,
            total,
        }
    }

    /// Number of samples the CCDF was built from.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.total
    }

    /// `P(X > x)` for arbitrary `x`.
    pub fn exceedance(&self, x: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // Find the largest stored value ≤ x; its exceedance is the answer.
        match self.values.binary_search(&x) {
            Ok(idx) => self.exceed_prob[idx],
            Err(0) => 1.0, // x below every sample: everything exceeds it.
            Err(idx) => self.exceed_prob[idx - 1],
        }
    }

    /// Iterator over `(value, P(X > value))` points, ascending in value,
    /// suitable for plotting Fig. 4.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.values
            .iter()
            .copied()
            .zip(self.exceed_prob.iter().copied())
    }

    /// Computes tail diagnostics for this CCDF.
    ///
    /// `tail_from` restricts the log-log line fit to values `≥ tail_from`
    /// (the paper eyeballs the tail "for bursts larger than 50 cache
    /// lines"). Returns `None` if fewer than 3 CCDF points with positive
    /// exceedance fall in the tail.
    pub fn tail_diagnostics(&self, tail_from: u64) -> Option<TailDiagnostics> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (v, p) in self.points() {
            if v >= tail_from && v > 0 && p > 0.0 {
                xs.push((v as f64).ln());
                ys.push(p.ln());
            }
        }
        if xs.len() < 3 {
            return None;
        }
        let fit = LineFit::ordinary(&xs, &ys)?;
        Some(TailDiagnostics {
            loglog_slope: fit.slope,
            loglog_r_squared: fit.r_squared,
            tail_points: xs.len(),
        })
    }
}

/// Tail diagnostics derived from a CCDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailDiagnostics {
    /// Slope of `log P(X > x)` vs `log x` over the tail. For Pareto traffic
    /// this equals −α; steep slopes / curvature indicate light tails.
    pub loglog_slope: f64,
    /// R² of that line: near 1 ⇒ straight diagonal ⇒ heavy-tailed/bursty,
    /// the paper's small-class signature; lower ⇒ curved ⇒ non-bursty.
    pub loglog_r_squared: f64,
    /// Number of CCDF points used in the fit.
    pub tail_points: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exceedance_matches_definition() {
        let c = Ccdf::from_samples(&[1, 1, 2, 3, 3, 3, 10]);
        // 7 samples total. P(X > 1) = 5/7, P(X > 3) = 1/7, P(X > 10) = 0.
        assert!((c.exceedance(1) - 5.0 / 7.0).abs() < 1e-12);
        assert!((c.exceedance(3) - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(c.exceedance(10), 0.0);
        // x between stored values takes the exceedance of the floor value.
        assert!((c.exceedance(5) - 1.0 / 7.0).abs() < 1e-12);
        // x below all samples: probability 1.
        assert_eq!(c.exceedance(0), 1.0);
    }

    #[test]
    fn empty_samples() {
        let c = Ccdf::from_samples(&[]);
        assert_eq!(c.sample_count(), 0);
        assert_eq!(c.exceedance(5), 0.0);
    }

    #[test]
    fn zeros_deflate_probabilities() {
        let with_zeros = Ccdf::from_samples(&[0, 0, 0, 4]);
        assert!((with_zeros.exceedance(0) - 0.25).abs() < 1e-12);
        let without = Ccdf::from_samples(&[4]);
        assert_eq!(without.exceedance(0), 1.0);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing() {
        let samples: Vec<u64> = (0..1000).map(|i| (i * i) % 97).collect();
        let c = Ccdf::from_samples(&samples);
        let probs: Vec<f64> = c.points().map(|(_, p)| p).collect();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    /// Deterministic Pareto-ish samples via inverse transform on a fixed
    /// low-discrepancy sequence.
    fn pareto_samples(alpha: f64, n: usize) -> Vec<u64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                // X = x_m * u^(-1/alpha), x_m = 1.
                (u.powf(-1.0 / alpha)).round() as u64
            })
            .collect()
    }

    fn exponential_samples(rate: f64, n: usize) -> Vec<u64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                ((-u.ln()) / rate).round() as u64
            })
            .collect()
    }

    #[test]
    fn pareto_tail_is_straight_in_loglog() {
        let samples = pareto_samples(1.5, 20_000);
        let c = Ccdf::from_samples(&samples);
        let diag = c.tail_diagnostics(5).unwrap();
        assert!(diag.loglog_r_squared > 0.98, "r2={}", diag.loglog_r_squared);
        assert!(
            (diag.loglog_slope + 1.5).abs() < 0.3,
            "slope={}",
            diag.loglog_slope
        );
    }

    #[test]
    fn exponential_tail_is_curved_in_loglog() {
        let samples = exponential_samples(0.05, 20_000);
        let heavy = pareto_samples(1.2, 20_000);
        let c_exp = Ccdf::from_samples(&samples);
        let c_par = Ccdf::from_samples(&heavy);
        let d_exp = c_exp.tail_diagnostics(5).unwrap();
        let d_par = c_par.tail_diagnostics(5).unwrap();
        // Exponential tail bends down: much steeper average slope than the
        // heavy tail and worse linearity.
        assert!(d_exp.loglog_slope < d_par.loglog_slope);
        assert!(d_exp.loglog_r_squared < d_par.loglog_r_squared);
    }

    #[test]
    fn tail_diagnostics_needs_enough_points() {
        let c = Ccdf::from_samples(&[100, 100, 100, 100]);
        // Only one distinct tail value, and its exceedance is zero anyway.
        assert!(c.tail_diagnostics(1).is_none());
    }
}
