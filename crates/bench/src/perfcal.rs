//! Host calibration for the perfstat regression gate.
//!
//! Wall-clock seconds are not comparable across hosts, so `perfstat`
//! normalises simulator throughput by a *calibration rate*: a fixed
//! pure-integer spin timed on the same host immediately before the sweep.
//! The regression gate then compares the dimensionless ratio
//! `events_per_sec / calib_rate` against the committed baseline.
//!
//! That makes the calibration itself load-bearing: if the spin finishes in
//! a sub-millisecond wall time, the measured rate is dominated by timer
//! granularity and scheduling noise, and a noisy (too-high) baseline rate
//! deflates the baseline's normalised throughput — which can make `--check`
//! *pass a real regression*. [`calibrate`] therefore re-measures with a
//! doubled iteration count until the best-of-three wall time clears
//! [`MIN_CALIBRATION_WALL`], and [`normalised_throughput`] refuses
//! non-finite or non-positive inputs instead of producing a garbage ratio.

use std::time::{Duration, Instant};

/// The smallest best-of-rounds wall time a calibration measurement may
/// stand on. 20 ms is ≥ 4 decades above timer granularity on every host
/// the harness targets, while keeping the full ramp-up under a second.
pub const MIN_CALIBRATION_WALL: Duration = Duration::from_millis(20);

/// Iteration count the calibration ramp starts from.
pub const BASE_CALIBRATION_ITERS: u64 = 4_000_000;

/// Hard ceiling on the ramp — beyond this, the "host" is faster than any
/// physical machine (> ~10^14 iters in 20 ms) and the timer is lying;
/// the rate is then computed against [`MIN_CALIBRATION_WALL`] itself so
/// the result stays finite instead of diverging.
const MAX_CALIBRATION_ITERS: u64 = 1 << 42;

/// Timing rounds per iteration count; the best (minimum) round is kept —
/// the one least disturbed by scheduling noise, exactly the estimator the
/// sweep comparison itself needs.
const ROUNDS: u32 = 3;

/// One completed host calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Spin iterations per second — the normalisation denominator.
    pub rate: f64,
    /// Iteration count the final measurement ran (after ramp-up).
    pub iters: u64,
    /// Best-of-rounds wall time of the final measurement.
    pub wall: Duration,
}

/// Runs the fixed xorshift64* spin for `iters` iterations and returns the
/// folded state (callers `black_box` it so the loop cannot be elided).
pub fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    x
}

/// Calibrates the host: times [`spin`], doubling the iteration count until
/// the best-of-three wall time reaches [`MIN_CALIBRATION_WALL`].
pub fn calibrate() -> Calibration {
    calibrate_with(MIN_CALIBRATION_WALL, |iters| {
        let t0 = Instant::now();
        std::hint::black_box(spin(iters));
        t0.elapsed()
    })
}

/// [`calibrate`] with an injected timer, so the ramp-up and degenerate
/// cases are unit-testable without depending on real host speed.
///
/// `timer(iters)` must return the wall time of one spin of `iters`
/// iterations; it is called `ROUNDS` times per candidate count and the
/// minimum kept.
pub fn calibrate_with(min_wall: Duration, mut timer: impl FnMut(u64) -> Duration) -> Calibration {
    let mut iters = BASE_CALIBRATION_ITERS;
    loop {
        let mut best = Duration::MAX;
        for _ in 0..ROUNDS {
            best = best.min(timer(iters));
        }
        if best >= min_wall {
            return Calibration {
                rate: iters as f64 / best.as_secs_f64(),
                iters,
                wall: best,
            };
        }
        if iters >= MAX_CALIBRATION_ITERS {
            // The timer never produced a credible wall time; clamp to the
            // floor so the rate is a finite under-estimate rather than a
            // division-by-~zero blow-up.
            let wall = best.max(min_wall);
            return Calibration {
                rate: iters as f64 / wall.as_secs_f64(),
                iters,
                wall,
            };
        }
        iters = iters.saturating_mul(2).min(MAX_CALIBRATION_ITERS);
    }
}

/// The dimensionless gate ratio `events_per_sec / calib_rate`, or `None`
/// when either input is non-finite or non-positive — a degenerate
/// calibration must skip the gate, never decide it.
pub fn normalised_throughput(events_per_sec: f64, calib_rate: f64) -> Option<f64> {
    (events_per_sec.is_finite()
        && events_per_sec >= 0.0
        && calib_rate.is_finite()
        && calib_rate > 0.0)
        .then(|| events_per_sec / calib_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake host: `wall = iters * ns_per_iter`, optionally
    /// floored at a timer granularity.
    fn fake_timer(ns_per_iter: f64, granularity: Duration) -> impl FnMut(u64) -> Duration {
        move |iters| {
            let exact = Duration::from_nanos((iters as f64 * ns_per_iter) as u64);
            exact.max(granularity)
        }
    }

    #[test]
    fn ramp_up_reaches_the_wall_floor_and_recovers_the_true_rate() {
        // 0.1 ns/iter: the base count takes 0.4 ms — far below the floor —
        // so the ramp must double until ≥ 20 ms and still recover the
        // injected rate.
        let cal = calibrate_with(MIN_CALIBRATION_WALL, fake_timer(0.1, Duration::ZERO));
        assert!(cal.wall >= MIN_CALIBRATION_WALL, "wall {:?}", cal.wall);
        assert!(cal.iters > BASE_CALIBRATION_ITERS);
        let true_rate = 1e9 / 0.1;
        assert!(
            (cal.rate - true_rate).abs() / true_rate < 0.01,
            "rate {} vs true {}",
            cal.rate,
            true_rate
        );
    }

    #[test]
    fn slow_host_measures_once_without_ramping() {
        // 10 ns/iter: the base count already takes 40 ms.
        let cal = calibrate_with(MIN_CALIBRATION_WALL, fake_timer(10.0, Duration::ZERO));
        assert_eq!(cal.iters, BASE_CALIBRATION_ITERS);
        assert!(cal.wall >= MIN_CALIBRATION_WALL);
    }

    #[test]
    fn degenerate_zero_wall_timer_still_terminates_with_a_finite_rate() {
        // The pre-fix failure mode: a timer that reports (near) zero wall
        // time made the rate absurdly high — deflating the baseline's
        // normalised throughput so a later real regression still passed
        // `--check`. The ramp must terminate and return a finite rate.
        let mut calls = 0u32;
        let cal = calibrate_with(MIN_CALIBRATION_WALL, |_| {
            calls += 1;
            Duration::ZERO
        });
        assert!(cal.rate.is_finite() && cal.rate > 0.0);
        assert!(cal.wall >= MIN_CALIBRATION_WALL, "clamped to the floor");
        assert!(calls > 0);
    }

    #[test]
    fn coarse_timer_granularity_is_out_ramped() {
        // A 15 ms-granularity clock: the base count reads as 15 ms (noise),
        // below the 20 ms floor, so the ramp keeps doubling until the spin
        // genuinely dominates the clock.
        let cal = calibrate_with(
            MIN_CALIBRATION_WALL,
            fake_timer(0.5, Duration::from_millis(15)),
        );
        assert!(cal.wall >= MIN_CALIBRATION_WALL);
        let true_rate = 1e9 / 0.5;
        assert!((cal.rate - true_rate).abs() / true_rate < 0.35);
    }

    #[test]
    fn normalisation_refuses_degenerate_calibrations() {
        assert_eq!(normalised_throughput(1e6, 0.0), None);
        assert_eq!(normalised_throughput(1e6, -3.0), None);
        assert_eq!(normalised_throughput(1e6, f64::NAN), None);
        assert_eq!(normalised_throughput(1e6, f64::INFINITY), None);
        assert_eq!(normalised_throughput(f64::NAN, 1e9), None);
        assert_eq!(normalised_throughput(f64::INFINITY, 1e9), None);
        let r = normalised_throughput(2e6, 1e9).unwrap();
        assert!((r - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn spin_is_deterministic() {
        assert_eq!(spin(1000), spin(1000));
        assert_ne!(spin(1000), spin(1001));
    }
}
