//! Exact strength-reduced division by a fixed divisor.
//!
//! Cache set selection and DRAM address mapping divide by runtime-chosen
//! constants (set counts, channel counts, lines-per-row) on every access —
//! and geometric machine scaling makes many of them non-powers-of-two, so
//! the compiler emits a full 64-bit `div` (20–40 cycles) in the hottest
//! loops of the simulator. [`FastDiv`] precomputes either a shift/mask
//! (power-of-two divisors) or a 64-bit reciprocal with a one-step
//! correction, turning every later division into a multiply — while
//! remaining **bit-exact** for every `u64` dividend, which the
//! byte-identical artefact guarantee requires.

/// A divisor with a precomputed exact division strategy.
///
/// For a power-of-two divisor the quotient/remainder are a shift and a
/// mask. Otherwise `recip = ⌊2⁶⁴ / d⌋` and the estimate
/// `q̂ = ⌊n·recip / 2⁶⁴⌋` satisfies `q − 1 ≤ q̂ ≤ q` (see `div_rem`), so a
/// single conditional correction recovers the exact quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDiv {
    divisor: u64,
    /// `⌊2⁶⁴ / divisor⌋`; `0` marks the power-of-two shift/mask path
    /// (a true reciprocal is never 0 for a non-power-of-two divisor).
    recip: u64,
    shift: u32,
    mask: u64,
}

impl FastDiv {
    /// Prepares division by `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> FastDiv {
        assert!(d > 0, "division by zero");
        if d.is_power_of_two() {
            FastDiv {
                divisor: d,
                recip: 0,
                shift: d.trailing_zeros(),
                mask: d - 1,
            }
        } else {
            // d is not a power of two, so d ∤ 2⁶⁴ and therefore
            // ⌊(2⁶⁴ − 1)/d⌋ = ⌊2⁶⁴/d⌋ — computable without 128-bit math.
            FastDiv {
                divisor: d,
                recip: u64::MAX / d,
                shift: 0,
                mask: 0,
            }
        }
    }

    /// The divisor this was built for.
    #[inline]
    pub fn divisor(self) -> u64 {
        self.divisor
    }

    /// Returns `(n / d, n % d)`, exactly, for any `n`.
    #[inline]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        if self.recip == 0 {
            return (n >> self.shift, n & self.mask);
        }
        // recip = (2⁶⁴ − e)/d with e = 2⁶⁴ mod d, 0 < e < d. Then
        // q̂ = ⌊n·recip/2⁶⁴⌋ = ⌊n/d − n·e/(d·2⁶⁴)⌋ and the error term is
        // < e/d < 1 (n < 2⁶⁴), so q̂ ∈ {q − 1, q}: never above the true
        // quotient (no underflow below), at most one step under it.
        let mut q = ((n as u128 * self.recip as u128) >> 64) as u64;
        let mut r = n - q * self.divisor;
        if r >= self.divisor {
            q += 1;
            r -= self.divisor;
        }
        (q, r)
    }

    /// Returns `n / d`.
    ///
    /// Not `std::ops::Div`: the *divisor* is `self` and the dividend the
    /// argument, the reverse of what `n / d` syntax would read as.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, n: u64) -> u64 {
        self.div_rem(n).0
    }

    /// Returns `n % d` (same argument order caveat as [`FastDiv::div`]).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, n: u64) -> u64 {
        self.div_rem(n).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(d: u64, n: u64) {
        let f = FastDiv::new(d);
        assert_eq!(f.div_rem(n), (n / d, n % d), "n={n} d={d}");
    }

    #[test]
    fn exact_on_boundaries() {
        for d in [
            1u64,
            2,
            3,
            5,
            7,
            8,
            12,
            64,
            192,
            12288,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX,
        ] {
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                d.min(u64::MAX / 2) * 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                check(d, n);
            }
        }
    }

    #[test]
    fn exact_on_pseudorandom_stream() {
        // xorshift64* sweep over divisors the simulator actually uses
        // (scaled set counts, channels, banks) plus adversarial ones.
        let mut x = 0x9E3779B97F4A7C15u64;
        for d in [3u64, 6, 12, 24, 96, 192, 384, 12288, 1000003, (1 << 40) - 1] {
            for _ in 0..10_000 {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                check(d, x.wrapping_mul(0x2545F4914F6CDD1D));
            }
        }
    }

    #[test]
    fn div_and_rem_agree_with_div_rem() {
        let f = FastDiv::new(192);
        assert_eq!(f.div(12345), 12345 / 192);
        assert_eq!(f.rem(12345), 12345 % 192);
        assert_eq!(f.divisor(), 192);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_rejected() {
        FastDiv::new(0);
    }
}
