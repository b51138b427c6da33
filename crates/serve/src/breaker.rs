//! Per-key circuit breaker over the fill path.
//!
//! A model fill is a simulation campaign: expensive, journaled, and —
//! under fault injection or a sick disk — capable of failing the same
//! way for every caller. Without a breaker each request for a broken
//! key starts a fresh doomed campaign and eats a 5xx. The breaker
//! counts *consecutive* fill failures per key; at the configured
//! threshold it opens, and every subsequent request is served the
//! degraded analytic tier (see [`crate::degraded`]) instead of
//! retrying the fill.
//!
//! While open, a seeded-deterministic probe cadence periodically moves
//! the key to half-open and launches exactly one background probe fill;
//! success closes the breaker (the cache now holds the fitted model),
//! failure reopens it. The probe position within each open window is a
//! hash of the key under a fixed seed, so a replayed request sequence
//! flips the breaker at the same request index every time — the same
//! determinism contract the chaos layers keep — while different keys
//! probe at different positions.
//!
//! ```text
//!            K consecutive fill failures
//!   CLOSED ────────────────────────────────▶ OPEN
//!      ▲                                      │ every request degraded;
//!      │ probe fill                           │ seeded cadence picks the
//!      │ succeeds                             ▼ probe request
//!      └──────────────────────────────── HALF-OPEN ──▶ OPEN (probe fails)
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use offchip_obs::Registry;

/// Seed hashed with each key into its probe position.
const PROBE_SEED: u64 = 0x0FFC_8175;

/// Breaker tuning, normally from the binary's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive fill failures that open the breaker.
    pub threshold: u32,
    /// While open, one request out of every `probe_every` becomes the
    /// half-open probe.
    pub probe_every: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            probe_every: 8,
        }
    }
}

/// Breaker state for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Fills run normally.
    Closed,
    /// Fills are suppressed; requests are served degraded.
    Open,
    /// One probe fill is in flight; other requests stay degraded.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for provenance fields.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A provenance snapshot of one key's breaker, quoted verbatim in
/// degraded responses.
#[derive(Debug, Clone)]
pub struct BreakerInfo {
    /// State at the time of the request.
    pub state: BreakerState,
    /// Consecutive failures recorded so far.
    pub consecutive_failures: u32,
    /// Stable kind label of the last failure (`campaign-loss`, `fit`,
    /// `internal`).
    pub last_error_kind: Option<&'static str>,
    /// Message of the last failure.
    pub last_error: Option<String>,
}

/// What [`Breaker::admit`] decided for a request.
#[derive(Debug)]
pub enum Admission {
    /// Breaker closed: run the normal fill path.
    Proceed,
    /// Breaker open (or half-open): serve the degraded tier.
    Degrade {
        /// This request is the seeded probe — the caller must launch
        /// one background fill (it still answers degraded itself).
        probe: bool,
        /// Provenance snapshot for the response body.
        info: BreakerInfo,
    },
}

#[derive(Debug)]
struct Entry {
    state: BreakerState,
    consecutive_failures: u32,
    last_error_kind: Option<&'static str>,
    last_error: Option<String>,
    /// Requests seen in the current open window.
    open_seen: u64,
    /// The request index within the window that probes (1-based).
    probe_at: u64,
}

impl Entry {
    fn new() -> Entry {
        Entry {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            last_error_kind: None,
            last_error: None,
            open_seen: 0,
            probe_at: 0,
        }
    }

    fn info(&self) -> BreakerInfo {
        BreakerInfo {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            last_error_kind: self.last_error_kind,
            last_error: self.last_error.clone(),
        }
    }
}

/// The per-key breaker registry.
pub struct Breaker<K> {
    cfg: BreakerConfig,
    slots: Mutex<HashMap<K, Entry>>,
    /// Where state transitions are counted (`serve.breaker.*`).
    metrics: Arc<Registry>,
}

impl<K: Eq + Hash + Clone> Breaker<K> {
    /// An all-closed breaker registry that counts its transitions in
    /// `metrics`.
    pub fn new(cfg: BreakerConfig, metrics: Arc<Registry>) -> Breaker<K> {
        Breaker {
            cfg,
            slots: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// The probe position for `key` within an open window: 1-based,
    /// deterministic in the key.
    fn probe_at(&self, key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        PROBE_SEED.hash(&mut h);
        key.hash(&mut h);
        1 + h.finish() % self.cfg.probe_every.max(1)
    }

    /// Routes one request: `Proceed` while closed, `Degrade` while open
    /// or half-open. At the seeded probe position the open breaker
    /// moves to half-open and the caller launches the probe fill.
    pub fn admit(&self, key: &K) -> Admission {
        let mut slots = self.slots.lock().unwrap();
        let Some(entry) = slots.get_mut(key) else {
            return Admission::Proceed;
        };
        match entry.state {
            BreakerState::Closed => Admission::Proceed,
            BreakerState::Open => {
                entry.open_seen += 1;
                if entry.open_seen >= entry.probe_at {
                    entry.state = BreakerState::HalfOpen;
                    self.metrics.add("serve.breaker.half_open", 1);
                    Admission::Degrade {
                        probe: true,
                        info: entry.info(),
                    }
                } else {
                    Admission::Degrade {
                        probe: false,
                        info: entry.info(),
                    }
                }
            }
            BreakerState::HalfOpen => Admission::Degrade {
                probe: false,
                info: entry.info(),
            },
        }
    }

    /// Records a fill failure. Opens the breaker at the threshold and
    /// reopens it when a half-open probe fails.
    pub fn on_failure(&self, key: &K, kind: &'static str, message: &str) {
        let mut slots = self.slots.lock().unwrap();
        let entry = slots.entry(key.clone()).or_insert_with(Entry::new);
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        entry.last_error_kind = Some(kind);
        entry.last_error = Some(message.to_string());
        let opens = match entry.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => entry.consecutive_failures >= self.cfg.threshold,
            BreakerState::Open => false,
        };
        if opens {
            entry.state = BreakerState::Open;
            entry.open_seen = 0;
            entry.probe_at = self.probe_at(key);
            self.metrics.add("serve.breaker.open", 1);
            offchip_obs::warn!(
                "serve: breaker OPEN after {} consecutive {kind} failure(s): {message}",
                entry.consecutive_failures
            );
        }
    }

    /// Records a fill success: the breaker closes and the failure
    /// streak resets.
    pub fn on_success(&self, key: &K) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(entry) = slots.get_mut(key) {
            if entry.state != BreakerState::Closed {
                self.metrics.add("serve.breaker.close", 1);
                offchip_obs::info!("serve: breaker CLOSED — probe fill succeeded");
            }
            *entry = Entry::new();
        }
    }

    /// Provenance snapshot for `key` (all-closed default when the key
    /// has never failed).
    pub fn info(&self, key: &K) -> BreakerInfo {
        self.slots
            .lock()
            .unwrap()
            .get(key)
            .map(Entry::info)
            .unwrap_or_else(|| Entry::new().info())
    }

    /// Whether `key`'s breaker is open or half-open.
    pub fn is_open(&self, key: &K) -> bool {
        !matches!(self.info(key).state, BreakerState::Closed)
    }

    /// A snapshot of every key that has ever recorded a failure, for the
    /// `/statusz` page. Keys that never failed have no entry (they are
    /// implicitly closed).
    pub fn entries(&self) -> Vec<(K, BreakerInfo)> {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|(k, e)| (k.clone(), e.info()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, probe_every: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            probe_every,
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b: Breaker<u32> = Breaker::new(cfg(3, 4), Arc::default());
        for _ in 0..2 {
            b.on_failure(&1, "internal", "disk on fire");
            assert!(matches!(b.admit(&1), Admission::Proceed), "below threshold");
        }
        b.on_failure(&1, "internal", "disk on fire");
        assert!(b.is_open(&1));
        match b.admit(&1) {
            Admission::Degrade { info, .. } => {
                assert_eq!(info.consecutive_failures, 3);
                assert_eq!(info.last_error_kind, Some("internal"));
            }
            Admission::Proceed => panic!("open breaker must degrade"),
        }
    }

    #[test]
    fn success_resets_the_streak() {
        let b: Breaker<u32> = Breaker::new(cfg(3, 4), Arc::default());
        b.on_failure(&1, "fit", "x");
        b.on_failure(&1, "fit", "x");
        b.on_success(&1);
        b.on_failure(&1, "fit", "x");
        assert!(
            matches!(b.admit(&1), Admission::Proceed),
            "streak restarted after a success"
        );
    }

    #[test]
    fn probe_fires_at_a_deterministic_position_then_half_open_holds() {
        let b: Breaker<u32> = Breaker::new(cfg(1, 5), Arc::default());
        b.on_failure(&1, "internal", "x");
        assert!(b.is_open(&1));
        let mut probe_index = None;
        for i in 1..=5u64 {
            match b.admit(&1) {
                Admission::Degrade { probe: true, .. } => {
                    probe_index = Some(i);
                    break;
                }
                Admission::Degrade { probe: false, .. } => {}
                Admission::Proceed => panic!("open breaker must degrade"),
            }
        }
        let first = probe_index.expect("a probe within probe_every requests");
        // Half-open: no second probe until the outcome lands.
        for _ in 0..10 {
            assert!(matches!(
                b.admit(&1),
                Admission::Degrade { probe: false, .. }
            ));
        }
        // Probe failure reopens; the next window probes at the same
        // deterministic position.
        b.on_failure(&1, "internal", "still sick");
        let mut again = None;
        for i in 1..=5u64 {
            if let Admission::Degrade { probe: true, .. } = b.admit(&1) {
                again = Some(i);
                break;
            }
        }
        assert_eq!(again, Some(first), "seeded probe position is stable");
        // Probe success closes.
        b.on_success(&1);
        assert!(!b.is_open(&1));
        assert!(matches!(b.admit(&1), Admission::Proceed));
    }

    #[test]
    fn keys_are_independent() {
        let b: Breaker<u32> = Breaker::new(cfg(1, 4), Arc::default());
        b.on_failure(&1, "internal", "x");
        assert!(b.is_open(&1));
        assert!(!b.is_open(&2));
        assert!(matches!(b.admit(&2), Admission::Proceed));
    }
}
