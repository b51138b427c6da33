//! FT: 3-D fast Fourier transform with spectral evolution.
//!
//! The NPB FT benchmark evolves a field in spectral space: form the 3-D
//! FFT of a random initial state, multiply by Gaussian evolution factors
//! at each time step, inverse-transform and checksum. This port implements
//! the iterative radix-2 complex FFT from scratch and composes the 3-D
//! transform as contiguous-line passes with axis rotations (see
//! [`crate::kernels::grid3`]), parallelised per line batch.

use crate::kernels::grid3::{for_each_line_mut, rotate, Dims};
use crate::npb_rng::NpbRng;

/// A complex number (no external crates — the kernel needs only
/// add/sub/mul).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

// The arithmetic methods intentionally mirror the std operator names
// without the trait plumbing: the kernel uses explicit calls and the
// by-value signatures keep the butterflies allocation-free.
#[allow(clippy::should_implement_trait)]
impl C64 {
    /// Constructs a complex value.
    #[inline]
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// Complex multiplication.
    #[inline]
    pub fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    /// Complex addition.
    #[inline]
    pub fn add(self, o: C64) -> C64 {
        C64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    /// Complex subtraction.
    #[inline]
    pub fn sub(self, o: C64) -> C64 {
        C64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> C64 {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

/// In-place iterative radix-2 FFT of one line.
///
/// Forward uses the `e^{-2πi/n}` convention; `inverse` conjugates the
/// twiddles and scales by `1/n` so that `ifft(fft(x)) = x`.
///
/// # Panics
/// Panics unless the length is a power of two.
pub fn fft_line(line: &mut [C64], inverse: bool) {
    let n = line.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            line.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let w_len = C64::new(ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = C64::new(1.0, 0.0);
            for k in 0..len / 2 {
                let a = line[start + k];
                let b = line[start + k + len / 2].mul(w);
                line[start + k] = a.add(b);
                line[start + k + len / 2] = a.sub(b);
                w = w.mul(w_len);
            }
        }
        len <<= 1;
    }
    if inverse {
        let s = 1.0 / n as f64;
        for v in line {
            *v = v.scale(s);
        }
    }
}

/// Direct O(n²) DFT, the verification reference.
pub fn reference_dft(line: &[C64], inverse: bool) -> Vec<C64> {
    let n = line.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = C64::default();
        for (j, &v) in line.iter().enumerate() {
            let ang = sign * std::f64::consts::TAU * (k * j) as f64 / n as f64;
            acc = acc.add(v.mul(C64::new(ang.cos(), ang.sin())));
        }
        if inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        out.push(acc);
    }
    out
}

/// 3-D FFT over a grid with power-of-two extents, parallel on `threads`.
///
/// # Panics
/// Panics unless all extents are powers of two and sizes match.
pub fn fft3d(data: Vec<C64>, dims: Dims, inverse: bool, threads: usize) -> Vec<C64> {
    assert!(
        dims.nx.is_power_of_two() && dims.ny.is_power_of_two() && dims.nz.is_power_of_two(),
        "grid extents must be powers of two"
    );
    let mut data = data;
    let mut d = dims;
    for _ in 0..3 {
        for_each_line_mut(&mut data, d, threads, |_, line| fft_line(line, inverse));
        data = rotate(&data, d, threads);
        d = d.rotated();
    }
    debug_assert_eq!(d, dims);
    data
}

/// An FT benchmark run's checksums, one per iteration (the NPB convention
/// of summing a fixed pseudo-random subset of spectral coefficients).
#[derive(Debug, Clone, PartialEq)]
pub struct FtChecksums {
    /// Per-iteration checksum values.
    pub sums: Vec<C64>,
}

/// Runs the FT benchmark: random initial state, forward 3-D FFT, then
/// `iterations` evolution steps each followed by an inverse transform and
/// a checksum.
pub fn ft_benchmark(dims: Dims, iterations: usize, threads: usize) -> FtChecksums {
    let n = dims.len();
    // Initial state from the NPB generator.
    let mut rng = NpbRng::new(314_159_265.0);
    let u0: Vec<C64> = (0..n)
        .map(|_| C64::new(2.0 * rng.next() - 1.0, 2.0 * rng.next() - 1.0))
        .collect();
    let spectral = fft3d(u0, dims, false, threads);

    let mut sums = Vec::with_capacity(iterations);
    for t in 1..=iterations {
        // Evolution factor e^{-4π²·α·t·|k|²} with α small; |k|² uses the
        // signed (wrapped) wavenumbers.
        let alpha = 1e-6;
        let mut evolved = spectral.clone();
        let wave = |i: usize, n: usize| -> f64 {
            let k = if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            };
            k * k
        };
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    let k2 = wave(x, dims.nx) + wave(y, dims.ny) + wave(z, dims.nz);
                    let f = (-4.0
                        * std::f64::consts::PI
                        * std::f64::consts::PI
                        * alpha
                        * t as f64
                        * k2)
                        .exp();
                    let idx = dims.idx(x, y, z);
                    evolved[idx] = evolved[idx].scale(f);
                }
            }
        }
        let physical = fft3d(evolved, dims, true, threads);
        // NPB checksum: sum of 1024 strided samples.
        let mut sum = C64::default();
        for j in 1..=1024u64 {
            let q = (j * 5 + t as u64) as usize % n;
            sum = sum.add(physical[q]);
        }
        sums.push(sum.scale(1.0 / n as f64));
    }
    FtChecksums { sums }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_line(n: usize, seed: f64) -> Vec<C64> {
        let mut rng = NpbRng::new(seed);
        (0..n)
            .map(|_| C64::new(rng.next() - 0.5, rng.next() - 0.5))
            .collect()
    }

    #[test]
    fn fft_matches_reference_dft() {
        let line = random_line(64, 271_828_183.0);
        let mut fast = line.clone();
        fft_line(&mut fast, false);
        let slow = reference_dft(&line, false);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip_identity_1d() {
        let line = random_line(256, 123_456_789.0);
        let mut data = line.clone();
        fft_line(&mut data, false);
        fft_line(&mut data, true);
        for (a, b) in data.iter().zip(&line) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let line = random_line(128, 314_159_265.0);
        let time_energy: f64 = line.iter().map(|c| c.norm_sq()).sum();
        let mut freq = line.clone();
        fft_line(&mut freq, false);
        let freq_energy: f64 = freq.iter().map(|c| c.norm_sq()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut line = vec![C64::default(); 16];
        line[0] = C64::new(1.0, 0.0);
        fft_line(&mut line, false);
        for v in &line {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        fft_line(&mut [C64::default(); 12], false);
    }

    #[test]
    fn roundtrip_identity_3d_parallel() {
        let d = Dims::new(16, 8, 4);
        let data = random_line(d.len(), 987_654_321.0);
        let f = fft3d(data.clone(), d, false, 4);
        let back = fft3d(f, d, true, 4);
        for (a, b) in back.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft3d_thread_count_does_not_change_result() {
        let d = Dims::new(8, 8, 8);
        let data = random_line(d.len(), 555_555_555.0);
        let a = fft3d(data.clone(), d, false, 1);
        let b = fft3d(data, d, false, 7);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn benchmark_checksums_deterministic_and_decaying() {
        let d = Dims::new(8, 8, 8);
        let a = ft_benchmark(d, 3, 2);
        let b = ft_benchmark(d, 3, 4);
        assert_eq!(a.sums.len(), 3);
        for (x, y) in a.sums.iter().zip(&b.sums) {
            assert!(
                (x.re - y.re).abs() < 1e-9 && (x.im - y.im).abs() < 1e-9,
                "checksums must not depend on the thread count"
            );
        }
        // The evolution factor is a low-pass filter: energy of the
        // evolved field cannot grow.
        let e0 = a.sums[0].norm_sq();
        let e2 = a.sums[2].norm_sq();
        assert!(e2 <= e0 * 1.001, "e0={e0} e2={e2}");
    }
}
