//! Hurst-exponent estimation for self-similarity analysis.
//!
//! The paper frames its burstiness observations against the self-similar
//! traffic literature (refs \[14\] Leland et al. and \[20\] Park &
//! Willinger). The Hurst exponent H quantifies that framing: H ≈ 0.5 for
//! short-range-dependent (Poisson-like) window-count series, H → 1 for
//! long-range-dependent (self-similar, bursty) ones.
//!
//! The estimator here is the classic *aggregated-variance* method: for
//! aggregation levels `m`, the variance of the `m`-aggregated series of a
//! self-similar process scales as `m^(2H−2)`; the slope of
//! `log Var(X^(m))` against `log m` yields H.

use crate::regression::LineFit;

/// Result of an aggregated-variance Hurst estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HurstEstimate {
    /// Estimated Hurst exponent, clamped to `[0, 1]`.
    pub h: f64,
    /// R² of the variance-time regression (how well the scaling law
    /// holds; low values mean the series is not self-similar at all).
    pub r_squared: f64,
    /// Number of aggregation levels used.
    pub levels: usize,
}

/// Estimates the Hurst exponent of `series` (e.g. per-window miss counts)
/// by the aggregated-variance method.
///
/// Aggregation levels are powers of two from 1 up to `series.len() / 8`
/// (each level needs at least 8 blocks for a variance estimate). Returns
/// `None` when fewer than 3 levels are available or the series has no
/// variance.
pub fn hurst_aggregated_variance(series: &[u64]) -> Option<HurstEstimate> {
    if series.len() < 32 {
        return None;
    }
    let as_f64: Vec<f64> = series.iter().map(|&v| v as f64).collect();
    let mut log_m = Vec::new();
    let mut log_var = Vec::new();
    let mut m = 1usize;
    while series.len() / m >= 8 {
        let blocks: Vec<f64> = as_f64
            .chunks_exact(m)
            .map(|c| c.iter().sum::<f64>() / m as f64)
            .collect();
        let mean = blocks.iter().sum::<f64>() / blocks.len() as f64;
        let var = blocks.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / blocks.len() as f64;
        if var > 0.0 {
            log_m.push((m as f64).ln());
            log_var.push(var.ln());
        }
        m *= 2;
    }
    if log_m.len() < 3 {
        return None;
    }
    let fit = LineFit::ordinary(&log_m, &log_var)?;
    // slope = 2H − 2 ⇒ H = 1 + slope/2.
    let h = (1.0 + fit.slope / 2.0).clamp(0.0, 1.0);
    Some(HurstEstimate {
        h,
        r_squared: fit.r_squared,
        levels: log_m.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-white-noise via a hash mix.
    fn white_noise(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 32;
                x % 100
            })
            .collect()
    }

    /// A long-range-dependent series: superposition of heavy-tailed
    /// ON/OFF sources (the classic construction from the paper's refs).
    fn lrd_series(n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        // 32 sources with Pareto(α = 1.2) ON and OFF periods.
        for s in 0..32u64 {
            let mut pos = 0usize;
            let mut on = s % 2 == 0;
            let mut k = s.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            while pos < n {
                // Inverse-transform Pareto with deterministic uniforms.
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((k >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                let period = (2.0 / u.powf(1.0 / 1.2)).ceil() as usize;
                if on {
                    for slot in out.iter_mut().skip(pos).take(period.min(n - pos)) {
                        *slot += 1;
                    }
                }
                pos += period;
                on = !on;
            }
        }
        out
    }

    #[test]
    fn white_noise_is_not_self_similar() {
        let est = hurst_aggregated_variance(&white_noise(16_384)).unwrap();
        assert!(
            (0.35..0.65).contains(&est.h),
            "white noise H should be ≈ 0.5, got {}",
            est.h
        );
    }

    #[test]
    fn heavy_tailed_onoff_superposition_is_lrd() {
        let est = hurst_aggregated_variance(&lrd_series(16_384)).unwrap();
        assert!(
            est.h > 0.7,
            "ON/OFF superposition should be long-range dependent, H = {}",
            est.h
        );
        assert!(
            est.r_squared > 0.8,
            "scaling law should hold, R² = {}",
            est.r_squared
        );
    }

    #[test]
    fn lrd_has_higher_h_than_noise() {
        let noise = hurst_aggregated_variance(&white_noise(8_192)).unwrap();
        let lrd = hurst_aggregated_variance(&lrd_series(8_192)).unwrap();
        assert!(lrd.h > noise.h + 0.15, "LRD {} vs noise {}", lrd.h, noise.h);
    }

    #[test]
    fn guards() {
        assert!(hurst_aggregated_variance(&[1, 2, 3]).is_none());
        assert!(
            hurst_aggregated_variance(&vec![7u64; 1000]).is_none(),
            "no variance"
        );
    }
}
