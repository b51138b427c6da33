//! Deterministic pseudo-random number generation.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 so that any `u64` seed — including 0 — yields a well-mixed
//! state. Both algorithms are implemented from their reference
//! descriptions; no external crate is involved, which keeps simulator runs
//! bit-exact across platforms and toolchain versions.

/// A deterministic xoshiro256\*\* generator with distribution samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed. Any seed is valid.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// with rejection, avoiding modulo bias.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Slow path: rejection to remove bias.
            let threshold = bound.wrapping_neg() % bound;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    ///
    /// # Panics
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // 1 - U in (0, 1] avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Pareto variate with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0, "invalid Pareto parameters");
        x_min / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Standard normal variate via Box–Muller (one value per call; the
    /// second root is discarded to keep the generator state simple).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1]
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Rng::new(0);
        let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn next_below_zero_panics() {
        Rng::new(1).next_below(0);
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng::new(5);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut r = Rng::new(13);
        for _ in 0..10_000 {
            assert!(r.pareto(3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "astronomically unlikely");
    }
}
