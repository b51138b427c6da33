//! Simulation time in core cycles.
//!
//! The machine simulator advances in units of *core cycles* of the modelled
//! processor (the paper's counters — `PAPI_TOT_CYC`, `PAPI_RES_STL` — are in
//! cycles).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core cycles from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw cycle count.
    #[inline]
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// Saturating difference in cycles (`self − earlier`, clamped at 0).
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100);
        assert_eq!((t + 50).cycles(), 150);
        let mut u = t;
        u += 7;
        assert_eq!(u.cycles(), 107);
        assert_eq!(u - t, 7);
        assert_eq!(t.since(u), 0);
        assert_eq!(u.since(t), 7);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_underflow_panics() {
        let _ = SimTime(1) - SimTime(2);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime(42).to_string(), "42 cyc");
    }
}
