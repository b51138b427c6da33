//! The NPB pseudo-random number generator (`randlc`).
//!
//! NPB benchmarks share one generator: the 46-bit linear congruential
//! scheme `x_{k+1} = a·x_k mod 2^46` with `a = 5^13`, returning
//! `x_k · 2^-46 ∈ (0, 1)`. The CG port builds its matrix from it, so the
//! crate implements it exactly, including the split-multiply arithmetic
//! that keeps every intermediate below 2^46.

/// Multiplier `a = 5^13 = 1220703125`.
pub const A: f64 = 1_220_703_125.0;

const R23: f64 = 1.0 / 8_388_608.0; // 2^-23
const T23: f64 = 8_388_608.0; // 2^23
const R46: f64 = R23 * R23;
const T46: f64 = T23 * T23;

/// One `randlc` step: advances `x` and returns the uniform value in (0,1).
///
/// `x` and `a` must be integers representable in 46 bits, stored in `f64`
/// (the NPB convention; exactly representable since 46 < 53).
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    // Split a and x into upper and lower 23-bit halves.
    let t1 = R23 * a;
    let a1 = t1.trunc();
    let a2 = a - T23 * a1;

    let t1 = R23 * *x;
    let x1 = t1.trunc();
    let x2 = *x - T23 * x1;

    // z = a·x mod 2^46 without overflowing 2^46 in any partial product.
    let t1 = a1 * x2 + a2 * x1;
    let t2 = (R23 * t1).trunc();
    let z = t1 - T23 * t2;
    let t3 = T23 * z + a2 * x2;
    let t4 = (R46 * t3).trunc();
    *x = t3 - T46 * t4;
    R46 * *x
}

/// A stateful NPB generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpbRng {
    x: f64,
}

impl NpbRng {
    /// Creates a generator with seed `seed` (a 46-bit integer in `f64`).
    pub fn new(seed: f64) -> NpbRng {
        assert!(
            seed > 0.0 && seed < T46 && seed.fract() == 0.0,
            "seed must be a positive 46-bit integer"
        );
        NpbRng { x: seed }
    }

    /// Next uniform value in (0, 1).
    #[inline]
    #[allow(clippy::should_implement_trait)] // NPB calls this step "randlc next"
    pub fn next(&mut self) -> f64 {
        randlc(&mut self.x, A)
    }

    /// The raw 46-bit state.
    #[inline]
    pub fn state(&self) -> f64 {
        self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed NPB uses for EP; any positive 46-bit integer would do.
    const SEED: f64 = 271_828_183.0;

    #[test]
    fn values_in_unit_interval_and_deterministic() {
        let mut a = NpbRng::new(SEED);
        let mut b = NpbRng::new(SEED);
        for _ in 0..10_000 {
            let va = a.next();
            assert!(va > 0.0 && va < 1.0);
            assert_eq!(va, b.next());
        }
    }

    #[test]
    fn state_stays_integral_46_bit() {
        let mut rng = NpbRng::new(SEED);
        for _ in 0..1000 {
            rng.next();
            let x = rng.state();
            assert_eq!(x.fract(), 0.0, "state must stay integral");
            assert!(x > 0.0 && x < T46);
        }
    }

    #[test]
    fn mean_is_about_half() {
        let mut rng = NpbRng::new(SEED);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
