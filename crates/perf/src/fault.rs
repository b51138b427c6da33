//! Deterministic fault injection for counter streams and sweeps.
//!
//! Hardware counters fail in well-known ways: a multiplexing glitch
//! returns garbage, a wrapped or unprogrammed counter reads zero, sampling
//! noise jitters the value, a crashed run loses the sweep point entirely.
//! This module perturbs clean measurements with exactly those faults so
//! the robust fitting pipeline (`offchip-model`'s `fit_robust*`) can be
//! exercised — in tests, in property-based campaigns, and from the CLI's
//! `--faults` flag — without ever touching the simulator itself.
//!
//! All injection is driven by [`offchip_simcore::Rng`], so a given
//! [`FaultSpec`] (including its seed) corrupts a given sweep the same way
//! every time: fault campaigns are reproducible experiments, not chaos.

use offchip_simcore::Rng;

/// Which faults to inject, with what probability or magnitude.
///
/// The textual form accepted by [`FaultSpec::parse`] (and the CLI's
/// `--faults` flag / `OFFCHIP_FAULTS` environment variable) is a
/// comma-separated list of `key=value` pairs:
///
/// ```text
/// drop=0.2,jitter=0.05,garbage=0.1,zero=0.05,seed=42
/// ```
///
/// Every key is optional; omitted knobs stay at their (inactive) defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that a sweep point is lost entirely.
    pub drop: f64,
    /// Standard deviation of multiplicative Gaussian jitter: a reading
    /// `c` becomes `c · (1 + jitter · N(0,1))`.
    pub jitter: f64,
    /// Probability in `[0, 1]` that a reading is replaced by garbage
    /// (NaN, infinity, or a sign-flipped value — the classic glitch
    /// signatures).
    pub garbage: f64,
    /// Probability in `[0, 1]` that a reading is replaced by zero (a
    /// wrapped or never-programmed counter).
    pub zero: f64,
    /// Seed of the injection stream; the same spec + seed + input always
    /// produces the same corruption.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            drop: 0.0,
            jitter: 0.0,
            garbage: 0.0,
            zero: 0.0,
            seed: 0xFA_017,
        }
    }
}

/// Why a fault specification string could not be parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// A segment was not `key=value`.
    NotKeyValue(String),
    /// An unknown key.
    UnknownKey(String),
    /// A value that does not parse as the key's type.
    BadValue {
        /// The offending key.
        key: String,
        /// The unparseable value.
        value: String,
    },
    /// A probability outside `[0, 1]` or a negative jitter.
    OutOfRange {
        /// The offending key.
        key: String,
        /// The out-of-range value.
        value: f64,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::NotKeyValue(s) => {
                write!(f, "fault segment {s:?} is not key=value")
            }
            FaultSpecError::UnknownKey(k) => write!(
                f,
                "unknown fault knob {k:?} (drop|jitter|garbage|zero|seed)"
            ),
            FaultSpecError::BadValue { key, value } => {
                write!(f, "fault knob {key}: cannot parse {value:?}")
            }
            FaultSpecError::OutOfRange { key, value } => write!(
                f,
                "fault knob {key} = {value} out of range (probabilities in \
                 [0,1], jitter >= 0)"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultSpec {
    /// Parses `drop=0.2,jitter=0.05,garbage=0.1,zero=0.05,seed=42`.
    pub fn parse(s: &str) -> Result<FaultSpec, FaultSpecError> {
        let mut spec = FaultSpec::default();
        for segment in s.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = segment
                .split_once('=')
                .ok_or_else(|| FaultSpecError::NotKeyValue(segment.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || FaultSpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            let prob = |slot: &mut f64| -> Result<(), FaultSpecError> {
                let v: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(FaultSpecError::OutOfRange {
                        key: key.to_string(),
                        value: v,
                    });
                }
                *slot = v;
                Ok(())
            };
            match key {
                "drop" => prob(&mut spec.drop)?,
                "garbage" => prob(&mut spec.garbage)?,
                "zero" => prob(&mut spec.zero)?,
                "jitter" => {
                    let v: f64 = value.parse().map_err(|_| bad())?;
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(FaultSpecError::OutOfRange {
                            key: key.to_string(),
                            value: v,
                        });
                    }
                    spec.jitter = v;
                }
                "seed" => spec.seed = value.parse().map_err(|_| bad())?,
                other => return Err(FaultSpecError::UnknownKey(other.to_string())),
            }
        }
        Ok(spec)
    }

    /// Whether any fault knob is active.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.jitter > 0.0 || self.garbage > 0.0 || self.zero > 0.0
    }

    /// Builds the deterministic injector for this spec.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            spec: *self,
            rng: Rng::new(self.seed),
        }
    }
}

/// Applies a [`FaultSpec`] to counter readings, deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: Rng,
}

impl FaultInjector {
    /// Corrupts one counter reading. `None` means the sample was dropped.
    ///
    /// Fault classes are checked in severity order — drop, garbage, zero,
    /// jitter — and at most one applies per reading.
    pub fn corrupt_value(&mut self, value: f64) -> Option<f64> {
        if self.rng.chance(self.spec.drop) {
            return None;
        }
        if self.rng.chance(self.spec.garbage) {
            return Some(match self.rng.next_below(3) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => -value,
            });
        }
        if self.rng.chance(self.spec.zero) {
            return Some(0.0);
        }
        if self.spec.jitter > 0.0 {
            let noisy = value * (1.0 + self.spec.jitter * self.rng.standard_normal());
            return Some(noisy);
        }
        Some(value)
    }

    /// Corrupts a measured sweep of `(n, C(n))` points: dropped points
    /// vanish from the result, the rest pass through [`Self::corrupt_value`].
    pub fn corrupt_sweep(&mut self, sweep: &[(usize, f64)]) -> Vec<(usize, f64)> {
        sweep
            .iter()
            .filter_map(|&(n, c)| self.corrupt_value(c).map(|c| (n, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let s = FaultSpec::parse("drop=0.2, jitter=0.05,garbage=0.1,zero=0.05,seed=42").unwrap();
        assert_eq!(s.drop, 0.2);
        assert_eq!(s.jitter, 0.05);
        assert_eq!(s.garbage, 0.1);
        assert_eq!(s.zero, 0.05);
        assert_eq!(s.seed, 42);
        assert!(s.is_active());
    }

    #[test]
    fn empty_spec_is_inactive_defaults() {
        let s = FaultSpec::parse("").unwrap();
        assert_eq!(s, FaultSpec::default());
        assert!(!s.is_active());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(matches!(
            FaultSpec::parse("drop"),
            Err(FaultSpecError::NotKeyValue(_))
        ));
        assert!(matches!(
            FaultSpec::parse("drip=0.1"),
            Err(FaultSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            FaultSpec::parse("drop=lots"),
            Err(FaultSpecError::BadValue { .. })
        ));
        assert!(matches!(
            FaultSpec::parse("drop=1.5"),
            Err(FaultSpecError::OutOfRange { .. })
        ));
        assert!(matches!(
            FaultSpec::parse("jitter=-0.1"),
            Err(FaultSpecError::OutOfRange { .. })
        ));
    }

    #[test]
    fn hostile_specs_parse_or_fail_typed() {
        // A spec that parses holds probabilities in [0, 1] and a finite,
        // non-negative jitter; anything else is a `FaultSpecError`.
        let check = |input: &str| {
            if let Ok(spec) = FaultSpec::parse(input) {
                for p in [spec.drop, spec.garbage, spec.zero] {
                    assert!((0.0..=1.0).contains(&p), "{input:?}");
                }
                assert!(spec.jitter.is_finite() && spec.jitter >= 0.0, "{input:?}");
            }
        };
        let valid = "drop=0.2,jitter=0.05,garbage=0.1,zero=0.05,seed=42";
        check(valid);
        // Every printable single-byte substitution, and every truncation.
        for i in 0..valid.len() {
            for b in b' '..=b'~' {
                let mut bytes = valid.as_bytes().to_vec();
                bytes[i] = b;
                check(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
            }
        }
        for cut in 0..valid.len() {
            check(&valid[..cut]);
        }
        // Seeded garbage, three bytes in four from the valid spec.
        let mut rng = Rng::new(0x0BAD_5EED);
        for _ in 0..20_000 {
            let len = rng.next_below(2 * valid.len() as u64) as usize;
            let junk: Vec<u8> = (0..len)
                .map(|_| match rng.next_below(4) {
                    0 => rng.next_u64() as u8,
                    _ => valid.as_bytes()[rng.next_below(valid.len() as u64) as usize],
                })
                .collect();
            check(&String::from_utf8_lossy(&junk));
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let spec = FaultSpec::parse("drop=0.3,jitter=0.1,garbage=0.2,seed=7").unwrap();
        let sweep: Vec<(usize, f64)> = (1..=24).map(|n| (n, 1e9 + n as f64)).collect();
        let a = spec.injector().corrupt_sweep(&sweep);
        let b = spec.injector().corrupt_sweep(&sweep);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert!(x.1 == y.1 || (x.1.is_nan() && y.1.is_nan()));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let spec = FaultSpec {
            drop: 0.25,
            ..FaultSpec::default()
        };
        let sweep: Vec<(usize, f64)> = (1..=2000).map(|n| (n, 1.0)).collect();
        let surviving = spec.injector().corrupt_sweep(&sweep).len();
        assert!(
            (1300..=1700).contains(&surviving),
            "expected ~1500 survivors, got {surviving}"
        );
    }

    #[test]
    fn inactive_spec_is_identity() {
        let sweep: Vec<(usize, f64)> = (1..=8).map(|n| (n, n as f64 * 1e6)).collect();
        let out = FaultSpec::default().injector().corrupt_sweep(&sweep);
        assert_eq!(out, sweep);
    }
}
