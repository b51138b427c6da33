//! The process-wide observation level.
//!
//! Resolved once — from `set_level` (the CLI `--obs` flag) or lazily from
//! the `OFFCHIP_OBS` environment variable — and then captured by value
//! into every `SimConfig`, so a run's instrumentation decisions are made
//! exactly once, not per event.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the process observes about itself.
///
/// Levels are ordered: `Trace` implies `Metrics` implies `Off`'s
/// (non-)behaviour. The contract per level:
///
/// - `Off` — no observer objects are constructed; hot paths pay one
///   predictable `Option::None` branch. Artefact bytes are unchanged.
/// - `Metrics` — per-run histograms and counters are recorded and
///   merged into the global [`registry`](crate::registry) at end of run.
/// - `Trace` — everything in `Metrics`, plus sim-phase spans (compute
///   quanta, memory stalls, DRAM service, barrier waits) recorded as one
///   lane of the current trace, when that trace takes runs
///   ([`run_room`](crate::run_room)); a server also buffers every
///   request's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum ObsLevel {
    /// No observation: the zero-overhead default.
    #[default]
    Off = 0,
    /// Metrics registry.
    Metrics = 1,
    /// Metrics plus span tracing.
    Trace = 2,
}

impl ObsLevel {
    /// Parses `off` / `metrics` / `trace` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsLevel::Off),
            "metrics" | "1" => Some(ObsLevel::Metrics),
            "trace" | "2" => Some(ObsLevel::Trace),
            _ => None,
        }
    }

    /// The flag/env spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Trace => "trace",
        }
    }

    /// True when this level enables at least `want`.
    #[inline]
    pub fn at_least(self, want: ObsLevel) -> bool {
        self as u8 >= want as u8
    }

    fn from_u8(v: u8) -> ObsLevel {
        match v {
            1 => ObsLevel::Metrics,
            2 => ObsLevel::Trace,
            _ => ObsLevel::Off,
        }
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// The process observation level.
///
/// First call resolves `OFFCHIP_OBS` (unset or unparseable → `Off`);
/// later calls are a single relaxed atomic load.
pub fn level() -> ObsLevel {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != UNSET {
        return ObsLevel::from_u8(raw);
    }
    let resolved = std::env::var("OFFCHIP_OBS")
        .ok()
        .and_then(|v| ObsLevel::parse(&v))
        .unwrap_or(ObsLevel::Off);
    LEVEL.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Forces the process observation level (CLI flags beat the environment).
pub fn set_level(l: ObsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for l in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Trace] {
            assert_eq!(ObsLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(ObsLevel::parse("TRACE"), Some(ObsLevel::Trace));
        assert_eq!(ObsLevel::parse("bogus"), None);
    }

    #[test]
    fn ordering_matches_at_least() {
        assert!(ObsLevel::Trace.at_least(ObsLevel::Metrics));
        assert!(ObsLevel::Metrics.at_least(ObsLevel::Off));
        assert!(!ObsLevel::Off.at_least(ObsLevel::Metrics));
        assert!(!ObsLevel::Metrics.at_least(ObsLevel::Trace));
    }

    #[test]
    fn set_level_wins() {
        set_level(ObsLevel::Metrics);
        assert_eq!(level(), ObsLevel::Metrics);
        set_level(ObsLevel::Off);
        assert_eq!(level(), ObsLevel::Off);
    }
}
