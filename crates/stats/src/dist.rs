//! Distribution fitting and goodness-of-fit for traffic classification.
//!
//! The paper's central observation is that large problem sizes produce
//! *non-bursty* memory traffic — well-approximated by Poisson arrivals
//! (exponential inter-arrivals), which justifies the M/M/1 model — while
//! small problem sizes produce heavy-tailed (Pareto-like) burst sizes. This
//! module provides maximum-likelihood fits for both families plus a
//! Kolmogorov–Smirnov distance so experiments can report which family a
//! trace is closer to.

/// Maximum-likelihood fit of an exponential distribution `P(X > x) = e^{−λx}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Fitted rate λ = 1 / mean.
    pub rate: f64,
}

impl ExponentialFit {
    /// Fits λ by MLE (`λ = 1/x̄`). Returns `None` for empty input, a
    /// non-positive mean, or non-finite samples.
    pub fn mle(samples: &[f64]) -> Option<ExponentialFit> {
        if samples.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        for &s in samples {
            if !s.is_finite() || s < 0.0 {
                return None;
            }
            sum += s;
        }
        let mean = sum / samples.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        Some(ExponentialFit { rate: 1.0 / mean })
    }

    /// Model CDF at `x`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }
}

/// Maximum-likelihood fit of a Pareto distribution
/// `P(X > x) = (x_m / x)^α` for `x ≥ x_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFit {
    /// Scale (minimum) parameter `x_m`.
    pub x_min: f64,
    /// Shape (tail index) parameter α.
    pub alpha: f64,
}

impl ParetoFit {
    /// Fits `x_m` (sample minimum) and α (MLE) over strictly positive
    /// samples. Returns `None` for fewer than 2 samples, non-positive
    /// samples, or a degenerate (all-equal) sample.
    pub fn mle(samples: &[f64]) -> Option<ParetoFit> {
        if samples.len() < 2 {
            return None;
        }
        let mut x_min = f64::INFINITY;
        for &s in samples {
            if !s.is_finite() || s <= 0.0 {
                return None;
            }
            x_min = x_min.min(s);
        }
        let mut log_sum = 0.0;
        for &s in samples {
            log_sum += (s / x_min).ln();
        }
        if log_sum <= 0.0 {
            return None; // all samples equal x_min
        }
        Some(ParetoFit {
            x_min,
            alpha: samples.len() as f64 / log_sum,
        })
    }

    /// Model CDF at `x`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.x_min {
            0.0
        } else {
            1.0 - (self.x_min / x).powf(self.alpha)
        }
    }
}

/// A Kolmogorov–Smirnov distance between an empirical sample and a model CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsStatistic {
    /// Supremum distance `D = sup_x |F_n(x) − F(x)|`, in `[0, 1]`.
    pub d: f64,
    /// Sample size the statistic was computed over.
    pub n: usize,
}

impl KsStatistic {
    /// Computes the KS distance of `samples` against `model_cdf`.
    ///
    /// Returns `None` for an empty sample or non-finite values.
    pub fn against<F: Fn(f64) -> f64>(samples: &[f64], model_cdf: F) -> Option<KsStatistic> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        if sorted.iter().any(|s| !s.is_finite()) {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            let f = model_cdf(x);
            let fn_hi = (i as f64 + 1.0) / n; // F_n just after x
            let fn_lo = i as f64 / n; // F_n just before x
            d = d.max((fn_hi - f).abs()).max((f - fn_lo).abs());
        }
        Some(KsStatistic { d, n: sorted.len() })
    }
}

/// Classification verdict for a burst-size trace, combining KS distances
/// against fitted exponential and Pareto models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// Closer to exponential/Poisson: the paper's "non-bursty" large-class
    /// regime where M/M/1 applies.
    NonBursty,
    /// Closer to Pareto: the "highly bursty" small-class regime.
    Bursty,
    /// Too little data or both fits failed.
    Indeterminate,
}

/// Classifies strictly-positive burst sizes as bursty vs non-bursty by
/// comparing the KS distance of exponential and Pareto MLE fits.
pub fn classify_traffic(burst_sizes: &[f64]) -> TrafficShape {
    let positive: Vec<f64> = burst_sizes.iter().copied().filter(|&b| b > 0.0).collect();
    if positive.len() < 8 {
        return TrafficShape::Indeterminate;
    }
    let exp_d = ExponentialFit::mle(&positive)
        .and_then(|f| KsStatistic::against(&positive, |x| f.cdf(x)))
        .map(|k| k.d);
    let par_d = ParetoFit::mle(&positive)
        .and_then(|f| KsStatistic::against(&positive, |x| f.cdf(x)))
        .map(|k| k.d);
    match (exp_d, par_d) {
        (Some(e), Some(p)) => {
            if p < e {
                TrafficShape::Bursty
            } else {
                TrafficShape::NonBursty
            }
        }
        (Some(_), None) => TrafficShape::NonBursty,
        (None, Some(_)) => TrafficShape::Bursty,
        (None, None) => TrafficShape::Indeterminate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv_exp(rate: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                -u.ln() / rate
            })
            .collect()
    }

    fn inv_pareto(alpha: f64, x_min: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                x_min * u.powf(-1.0 / alpha)
            })
            .collect()
    }

    #[test]
    fn exponential_mle_recovers_rate() {
        let s = inv_exp(0.25, 10_000);
        let f = ExponentialFit::mle(&s).unwrap();
        assert!((f.rate - 0.25).abs() < 0.01, "rate={}", f.rate);
    }

    #[test]
    fn exponential_mle_guards() {
        assert!(ExponentialFit::mle(&[]).is_none());
        assert!(ExponentialFit::mle(&[0.0, 0.0]).is_none());
        assert!(ExponentialFit::mle(&[1.0, -2.0]).is_none());
        assert!(ExponentialFit::mle(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn pareto_mle_recovers_parameters() {
        let s = inv_pareto(1.8, 2.0, 10_000);
        let f = ParetoFit::mle(&s).unwrap();
        assert!((f.alpha - 1.8).abs() < 0.1, "alpha={}", f.alpha);
        assert!((f.x_min - 2.0).abs() < 0.01, "x_min={}", f.x_min);
    }

    #[test]
    fn pareto_mle_guards() {
        assert!(ParetoFit::mle(&[1.0]).is_none());
        assert!(ParetoFit::mle(&[1.0, 1.0, 1.0]).is_none());
        assert!(ParetoFit::mle(&[1.0, -1.0]).is_none());
    }

    #[test]
    fn cdfs_are_valid() {
        let e = ExponentialFit { rate: 1.0 };
        assert_eq!(e.cdf(-1.0), 0.0);
        assert_eq!(e.cdf(0.0), 0.0);
        assert!(e.cdf(1e9) > 0.999999);
        let p = ParetoFit {
            x_min: 1.0,
            alpha: 2.0,
        };
        assert_eq!(p.cdf(0.5), 0.0);
        assert_eq!(p.cdf(1.0), 0.0);
        assert!((p.cdf(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ks_zero_against_own_quantiles() {
        let s = inv_exp(1.0, 5_000);
        let f = ExponentialFit::mle(&s).unwrap();
        let ks = KsStatistic::against(&s, |x| f.cdf(x)).unwrap();
        assert!(ks.d < 0.02, "d={}", ks.d);
    }

    #[test]
    fn ks_large_against_wrong_family() {
        let s = inv_pareto(1.2, 1.0, 5_000);
        let f = ExponentialFit::mle(&s).unwrap();
        let ks = KsStatistic::against(&s, |x| f.cdf(x)).unwrap();
        assert!(ks.d > 0.1, "d={}", ks.d);
    }

    #[test]
    fn classify_heavy_vs_light() {
        let heavy = inv_pareto(1.3, 1.0, 2_000);
        let light = inv_exp(0.5, 2_000);
        assert_eq!(classify_traffic(&heavy), TrafficShape::Bursty);
        assert_eq!(classify_traffic(&light), TrafficShape::NonBursty);
        assert_eq!(classify_traffic(&[1.0, 2.0]), TrafficShape::Indeterminate);
    }
}
