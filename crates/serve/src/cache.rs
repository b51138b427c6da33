//! The model store: every key's fitted entry, fill in flight, last
//! failed fill and circuit breaker, in one map behind one lock.
//!
//! One call to the store's `get` answers a model request. A cached entry
//! is a hit. On a miss the first caller starts the key's fill on a
//! detached `serve-fill` thread and every caller waits on one condvar for
//! it to land. The fill's lifetime is not tied to any caller: a caller
//! whose deadline passes gets [`ModelOutcome::Pending`] and walks away,
//! and the fill keeps warming the cache for everyone behind it. When a
//! fill lands the store settles the cache and the breaker under the same
//! lock:
//!
//! * success publishes the entry and closes the key's breaker;
//! * failure, a panic included, hands its error to every caller that
//!   waited on it, leaves the key clean for the next starter and adds one
//!   to the key's failure streak. A [`ServiceError::BadRequest`] adds
//!   nothing: a malformed key is the caller's bug, not fill-path health.
//!
//! The third consecutive failure opens the breaker. An open key's
//! requests are answered from the degraded analytic tier
//! ([`crate::degraded`]) instead of each starting a doomed campaign, and
//! the callers that waited on the fill that opened it are answered
//! degraded too. In each 8-request window of an open breaker, the request
//! at the key's seeded position turns it half-open and launches one probe
//! fill without waiting on it; the breaker stays half-open until that
//! fill lands. The position is a CRC-32 of the key under a fixed seed, so
//! a replayed request sequence probes at the same request on every run
//! and toolchain, while different keys probe at different positions.
//!
//! ```text
//!            3 consecutive fill failures
//!   CLOSED ────────────────────────────────▶ OPEN
//!      ▲                                      │ every request degraded;
//!      │ probe fill                           │ the seeded position picks
//!      │ succeeds                             ▼ the probe request
//!      └──────────────────────────────── HALF-OPEN ──▶ OPEN (probe fails)
//! ```

use crate::degraded;
use crate::entry::FittedEntry;
use crate::service::{ModelKey, ServiceError};
use offchip_obs::Registry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Consecutive failed fills that open a key's breaker.
const THRESHOLD: u32 = 3;

/// While a key's breaker is open, one request in every `PROBE_EVERY`
/// launches the probe fill.
const PROBE_EVERY: u64 = 8;

/// Seed hashed with each key into its probe position.
const PROBE_SEED: u64 = 0x0FFC_8175;

const POISONED: &str = "model store lock poisoned";

/// How a fitted answer was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The entry was already cached.
    Hit,
    /// This call started the fill.
    Miss,
    /// Another call was already filling; this one waited and shares the
    /// starter's entry without re-running the fill.
    Coalesced,
}

impl Disposition {
    /// Header-friendly label. Coalesced waiters report `hit`: they were
    /// served from cache from the caller's point of view, and only the
    /// single starter reports `miss` (the e2e tests count on that).
    pub fn as_str(&self) -> &'static str {
        match self {
            Disposition::Hit | Disposition::Coalesced => "hit",
            Disposition::Miss => "miss",
        }
    }
}

/// Breaker state for one key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Fills run normally.
    #[default]
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

/// How a model request was answered.
pub enum ModelOutcome {
    /// A simulation-backed fit, from cache or a completed fill.
    Fitted(Arc<FittedEntry>, Disposition),
    /// The key's breaker is open: an analytic prior with provenance.
    Degraded(Arc<FittedEntry>, BreakerInfo),
    /// The request's deadline expired while the fill was in flight; the
    /// fill continues in the background.
    Pending,
}

/// A model fill: the key's campaign and fit.
type Fill = dyn Fn(&ModelKey) -> Result<FittedEntry, ServiceError> + Send + Sync;

/// Everything the store knows about one key.
#[derive(Default)]
struct Slot {
    /// The fitted entry, once a fill has landed one.
    entry: Option<Arc<FittedEntry>>,
    /// Fills started for this key; the latest one's number is its id.
    fills: u64,
    /// Whether fill number `fills` is in flight.
    filling: bool,
    /// The last failed fill's error, for its waiters, and the breaker's
    /// provenance while the streak it belongs to lasts.
    failed: Option<ServiceError>,
    /// Consecutive failed fills, `BadRequest` excluded.
    streak: u32,
    state: BreakerState,
    /// Requests seen in the current open window.
    seen: u64,
}

impl Slot {
    /// Marks a new fill in flight and returns its id.
    fn start(&mut self) -> u64 {
        self.fills += 1;
        self.filling = true;
        self.fills
    }

    fn info(&self) -> BreakerInfo {
        let last = self.failed.as_ref().filter(|_| self.streak > 0);
        BreakerInfo {
            state: self.state,
            consecutive_failures: self.streak,
            last_error_kind: last.map(ServiceError::kind),
            last_error: last.map(|e| e.message().to_string()),
        }
    }
}

/// Whether a fill failure counts toward the key's breaker.
fn counted(e: &ServiceError) -> bool {
    !matches!(e, ServiceError::BadRequest(_))
}

/// The 1-based position of `key`'s probe in each open window: a CRC-32
/// of the seed and the key, so it does not move between runs or Rust
/// releases.
fn probe_at(key: &ModelKey) -> u64 {
    let seed = PROBE_SEED.to_le_bytes();
    let bytes = [
        &seed[..],
        key.machine.key().as_bytes(),
        b"/",
        key.program.as_bytes(),
    ]
    .concat();
    1 + u64::from(offchip_chaos::crc32(&bytes)) % PROBE_EVERY
}

struct Shared {
    slots: Mutex<HashMap<ModelKey, Slot>>,
    /// Notified whenever a fill lands.
    cond: Condvar,
    fill: Box<Fill>,
    /// Where breaker transitions and the entry count go.
    metrics: Arc<Registry>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, HashMap<ModelKey, Slot>> {
        self.slots.lock().expect(POISONED)
    }

    /// Lands a fill: publishes its entry or records its failure, and
    /// moves the key's breaker, under one lock; then wakes the waiters.
    fn settle(&self, key: &ModelKey, result: Result<FittedEntry, ServiceError>) {
        let mut slots = self.lock();
        let slot = slots.get_mut(key).expect("a filling key has a slot");
        slot.filling = false;
        match result {
            Ok(entry) => {
                slot.entry = Some(Arc::new(entry));
                if slot.state != BreakerState::Closed {
                    self.metrics.add("serve.breaker.close", 1);
                    offchip_obs::info!("serve: breaker CLOSED — probe fill succeeded");
                }
                (slot.state, slot.streak, slot.seen) = (BreakerState::Closed, 0, 0);
                let entries = slots.values().filter(|s| s.entry.is_some()).count();
                self.metrics
                    .gauge_set("serve.cache.entries", entries as u64);
            }
            Err(e) => {
                // A fill lands only while closed or half-open, and a
                // half-open streak is past the threshold: reaching it
                // opens a closed breaker, and a failed probe re-opens.
                if counted(&e) {
                    slot.streak = slot.streak.saturating_add(1);
                    if slot.streak >= THRESHOLD {
                        (slot.state, slot.seen) = (BreakerState::Open, 0);
                        self.metrics.add("serve.breaker.open", 1);
                        offchip_obs::warn!(
                            "serve: breaker OPEN after {} consecutive {} failure(s): {}",
                            slot.streak,
                            e.kind(),
                            e.message()
                        );
                    }
                }
                slot.failed = Some(e);
            }
        }
        drop(slots);
        self.cond.notify_all();
    }
}

/// Every key's model state, shared with the fill threads.
pub(crate) struct ModelStore {
    shared: Arc<Shared>,
}

impl ModelStore {
    /// An empty store whose fills run `fill` and record breaker
    /// transitions and the entry count in `metrics`.
    pub(crate) fn new(
        metrics: Arc<Registry>,
        fill: impl Fn(&ModelKey) -> Result<FittedEntry, ServiceError> + Send + Sync + 'static,
    ) -> ModelStore {
        ModelStore {
            shared: Arc::new(Shared {
                slots: Mutex::default(),
                cond: Condvar::new(),
                fill: Box::new(fill),
                metrics,
            }),
        }
    }

    /// Answers one model request for `key`:
    ///
    /// * cached → `Fitted(entry, Hit)`, without reading the breaker;
    /// * breaker open or half-open → `Degraded`, and the request at the
    ///   key's probe position launches the probe fill in the background;
    /// * otherwise this call starts the fill, or joins the one in flight,
    ///   and waits: `Fitted(entry, Miss)` for the starter and
    ///   `Fitted(entry, Coalesced)` for the rest; `Pending` once
    ///   `deadline` (`None`: no limit) passes; the fill's error if it
    ///   failed, or `Degraded` if that failure opened the breaker.
    ///
    /// Under a trace context ([`offchip_obs::current`]) the hit, the
    /// degraded answer and the fill wait each record a span, and the fill
    /// runs in the context of the request that started it.
    pub(crate) fn get(
        &self,
        key: &ModelKey,
        deadline: Option<Instant>,
    ) -> Result<ModelOutcome, ServiceError> {
        let trace = offchip_obs::current();
        let detail = || format!("key={}/{}", key.machine, key.program);
        let mut slots = self.shared.lock();
        if let Some(entry) = slots.get(key).and_then(|s| s.entry.clone()) {
            drop(slots);
            offchip_obs::span_event(&trace, "cache.hit", detail, 0);
            return Ok(ModelOutcome::Fitted(entry, Disposition::Hit));
        }
        let slot = slots.entry(key.clone()).or_default();
        if slot.state != BreakerState::Closed {
            let probe = slot.state == BreakerState::Open && {
                slot.seen += 1;
                slot.seen >= probe_at(key)
            };
            if probe {
                slot.state = BreakerState::HalfOpen;
                slot.start();
                self.shared.metrics.add("serve.breaker.half_open", 1);
            }
            let info = slot.info();
            drop(slots);
            let state = info.state.as_str();
            let detail = || format!("{} state={state} probe={probe}", detail());
            offchip_obs::span_event(&trace, "breaker.degraded", detail, 0);
            if probe {
                // This request answers degraded like the rest of the
                // window; it never waits on the probe.
                self.spawn_fill(key);
            }
            return Ok(ModelOutcome::Degraded(degraded::for_key(key)?, info));
        }

        let t0 = Instant::now();
        let started = !slot.filling;
        let joined = if started { slot.start() } else { slot.fills };
        if started {
            drop(slots);
            self.spawn_fill(key);
            slots = self.shared.lock();
        }
        loop {
            let slot = slots.get_mut(key).expect("a key's slot is never removed");
            if let Some(entry) = &slot.entry {
                let disposition = if started {
                    Disposition::Miss
                } else {
                    Disposition::Coalesced
                };
                let entry = Arc::clone(entry);
                drop(slots);
                // Starter and waiter both spent this long blocked on the
                // fill; the fill's own span (starter's trace only) shows
                // the work.
                let how = disposition.as_str();
                let detail = || format!("{} disposition={how}", detail());
                let waited = t0.elapsed().as_micros() as u64;
                offchip_obs::span_event(&trace, "fill.wait", detail, waited);
                return Ok(ModelOutcome::Fitted(entry, disposition));
            }
            if !(slot.filling && slot.fills == joined) {
                // The fill this call joined landed without an entry. Its
                // failure may have opened the breaker, and then this
                // caller is answered degraded instead of with a 5xx.
                if slot.state == BreakerState::Closed {
                    return Err(slot.failed.clone().expect("a failed fill left its error"));
                }
                let info = slot.info();
                drop(slots);
                return Ok(ModelOutcome::Degraded(degraded::for_key(key)?, info));
            }
            slots = match deadline {
                None => self.shared.cond.wait(slots).expect(POISONED),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        drop(slots);
                        let waited = t0.elapsed().as_micros() as u64;
                        offchip_obs::span_event(&trace, "fill.pending", detail, waited);
                        return Ok(ModelOutcome::Pending);
                    }
                    let wait = self.shared.cond.wait_timeout(slots, dl - now);
                    wait.expect(POISONED).0
                }
            };
        }
    }

    /// Runs `key`'s fill on a detached thread, in the caller's trace
    /// context, and settles it when it returns or panics.
    fn spawn_fill(&self, key: &ModelKey) {
        let shared = Arc::clone(&self.shared);
        let thread_key = key.clone();
        let ctx = offchip_obs::current();
        let run = move || {
            let _scope = offchip_obs::TraceScope::enter(ctx);
            let result = catch_unwind(AssertUnwindSafe(|| (shared.fill)(&thread_key)))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("opaque panic");
                    Err(ServiceError::Internal(format!("fill panicked: {msg}")))
                });
            shared.settle(&thread_key, result);
        };
        if let Err(e) = std::thread::Builder::new()
            .name("serve-fill".into())
            .spawn(run)
        {
            // No thread will land this fill: settle it now so its
            // waiters are not stranded.
            let e = ServiceError::Internal(format!("spawn fill thread: {e}"));
            self.shared.settle(key, Err(e));
        }
    }

    /// Number of fitted entries.
    pub(crate) fn len(&self) -> usize {
        let slots = self.shared.lock();
        slots.values().filter(|s| s.entry.is_some()).count()
    }

    /// A breaker snapshot of every key that has recorded a counted fill
    /// failure, for `/statusz`. A key that never failed has none (it is
    /// implicitly closed); one that failed and recovered lists as closed.
    pub(crate) fn breakers(&self) -> Vec<(ModelKey, BreakerInfo)> {
        let slots = self.shared.lock();
        slots
            .iter()
            .filter(|(_, s)| s.failed.as_ref().is_some_and(counted))
            .map(|(k, s)| (k.clone(), s.info()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_model::FitProtocol;
    use offchip_topology::machines::Preset;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
    use std::sync::Barrier;
    use std::time::Duration;

    fn key(machine: &str, program: &str) -> ModelKey {
        ModelKey {
            machine: Preset::from_key(machine).expect("a preset key"),
            program: program.into(),
        }
    }

    /// Any fitted entry will do: the uma machine's analytic prior.
    fn entry() -> FittedEntry {
        let machine = offchip_bench::experiment_machine(Preset::Uma);
        let proto = FitProtocol::for_machine(&machine.name);
        degraded::analytic_entry(&machine, &proto).unwrap()
    }

    /// An injected fill a test steers: each run counts itself, sleeps
    /// `delay_ms`, waits while the gate is held, then lands an entry while
    /// `ok` is set and fails with an internal error otherwise.
    #[derive(Default)]
    struct Script {
        runs: AtomicUsize,
        ok: AtomicBool,
        delay_ms: AtomicU64,
        held: Mutex<bool>,
        gate: Condvar,
    }

    impl Script {
        fn runs(&self) -> usize {
            self.runs.load(SeqCst)
        }

        /// Holds every fill that has not yet passed the gate.
        fn hold(&self) {
            *self.held.lock().unwrap() = true;
        }

        /// Lets held fills land.
        fn release(&self) {
            *self.held.lock().unwrap() = false;
            self.gate.notify_all();
        }
    }

    fn scripted(ok: bool, delay_ms: u64) -> (ModelStore, Arc<Script>, Arc<Registry>) {
        let script = Arc::new(Script {
            ok: AtomicBool::new(ok),
            delay_ms: AtomicU64::new(delay_ms),
            ..Script::default()
        });
        let metrics = Arc::new(Registry::default());
        let s = Arc::clone(&script);
        let store = ModelStore::new(Arc::clone(&metrics), move |_: &ModelKey| {
            s.runs.fetch_add(1, SeqCst);
            std::thread::sleep(Duration::from_millis(s.delay_ms.load(SeqCst)));
            drop(s.gate.wait_while(s.held.lock().unwrap(), |held| *held));
            if s.ok.load(SeqCst) {
                Ok(entry())
            } else {
                Err(ServiceError::Internal("disk on fire".into()))
            }
        });
        (store, script, metrics)
    }

    fn fitted(outcome: Result<ModelOutcome, ServiceError>) -> (Arc<FittedEntry>, Disposition) {
        match outcome {
            Ok(ModelOutcome::Fitted(entry, d)) => (entry, d),
            Ok(_) => panic!("expected a fitted answer"),
            Err(e) => panic!("expected a fitted answer, got {e:?}"),
        }
    }

    fn degraded(outcome: Result<ModelOutcome, ServiceError>) -> BreakerInfo {
        match outcome {
            Ok(ModelOutcome::Degraded(_, info)) => info,
            Ok(_) => panic!("expected a degraded answer"),
            Err(e) => panic!("expected a degraded answer, got {e:?}"),
        }
    }

    fn breaker(store: &ModelStore, key: &ModelKey) -> BreakerInfo {
        let entries = store.breakers();
        let found = entries.into_iter().find(|(k, _)| k == key);
        found.expect("the key is listed").1
    }

    /// Polls until `done` holds, for a fill that lands in the background.
    fn until(done: impl Fn() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("a background fill never landed");
    }

    /// Fails `key`'s fill until its breaker opens.
    fn open(store: &ModelStore, key: &ModelKey) {
        for _ in 1..THRESHOLD {
            assert!(matches!(
                store.get(key, None),
                Err(ServiceError::Internal(_))
            ));
        }
        assert_eq!(degraded(store.get(key, None)).state, BreakerState::Open);
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let (store, script, _) = scripted(true, 0);
        let k = key("uma", "CG.S");
        let (first, d) = fitted(store.get(&k, None));
        assert_eq!(d, Disposition::Miss);
        let (second, d) = fitted(store.get(&k, None));
        assert_eq!(d, Disposition::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(script.runs(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.breakers().is_empty(), "a key that never failed");
    }

    #[test]
    fn concurrent_misses_run_exactly_one_fill() {
        const THREADS: usize = 16;
        // The fill holds the key long enough for every thread to join it.
        let (store, script, _) = scripted(true, 50);
        let k = key("uma", "CG.S");
        let barrier = Barrier::new(THREADS);
        let results: Vec<Disposition> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        fitted(store.get(&k, None)).1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(script.runs(), 1, "exactly one fill");
        let misses = results.iter().filter(|&&d| d == Disposition::Miss).count();
        assert_eq!(misses, 1, "exactly one starter");
    }

    #[test]
    fn expired_deadline_returns_pending_and_the_fill_still_lands() {
        let (store, _, _) = scripted(true, 100);
        let k = key("uma", "CG.S");
        // Deadline already past: the call must not block on the fill.
        let t0 = Instant::now();
        assert!(matches!(
            store.get(&k, Some(Instant::now())),
            Ok(ModelOutcome::Pending)
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(90),
            "did not wait for the fill"
        );
        // The background fill warms the cache for later callers.
        until(|| store.len() == 1);
        assert_eq!(fitted(store.get(&k, None)).1, Disposition::Hit);
    }

    #[test]
    fn waiter_with_a_deadline_times_out_while_the_starter_waits_on() {
        let (store, _, _) = scripted(true, 150);
        let k = key("uma", "CG.S");
        std::thread::scope(|s| {
            let starter = s.spawn(|| fitted(store.get(&k, None)).1);
            // Let the starter claim the fill.
            std::thread::sleep(Duration::from_millis(30));
            let deadline = Instant::now() + Duration::from_millis(20);
            assert!(matches!(
                store.get(&k, Some(deadline)),
                Ok(ModelOutcome::Pending)
            ));
            assert_eq!(starter.join().unwrap(), Disposition::Miss);
        });
    }

    #[test]
    fn failed_fill_clears_the_slot_for_retry() {
        let (store, script, _) = scripted(false, 0);
        let k = key("uma", "CG.S");
        match store.get(&k, None) {
            Err(ServiceError::Internal(e)) => assert_eq!(e, "disk on fire"),
            _ => panic!("expected the fill's error"),
        }
        assert_eq!(store.len(), 0);
        script.ok.store(true, SeqCst);
        assert_eq!(fitted(store.get(&k, None)).1, Disposition::Miss);
    }

    #[test]
    fn panicking_fill_reports_its_panic_and_clears_the_slot() {
        let runs = AtomicUsize::new(0);
        let store = ModelStore::new(Arc::default(), move |_: &ModelKey| {
            if runs.fetch_add(1, SeqCst) == 0 {
                panic!("fill exploded");
            }
            Ok(entry())
        });
        let k = key("uma", "CG.S");
        match store.get(&k, None) {
            Err(ServiceError::Internal(e)) => assert_eq!(e, "fill panicked: fill exploded"),
            _ => panic!("expected the fill's panic"),
        }
        assert_eq!(
            breaker(&store, &k).consecutive_failures,
            1,
            "a panic counts"
        );
        assert_eq!(fitted(store.get(&k, None)).1, Disposition::Miss);
    }

    #[test]
    fn waiters_of_a_failed_fill_get_the_error_then_a_fresh_start_succeeds() {
        let runs = AtomicUsize::new(0);
        let store = ModelStore::new(Arc::default(), move |_: &ModelKey| {
            let i = runs.fetch_add(1, SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            // The first fill fails; a later starter succeeds.
            match i {
                0 => Err(ServiceError::Fit("first fill fails".into())),
                _ => Ok(entry()),
            }
        });
        let k = key("uma", "CG.S");
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    while let Err(e) = store.get(&k, None) {
                        assert!(matches!(e, ServiceError::Fit(_)), "{e:?}");
                    }
                });
            }
        });
        assert_eq!(store.len(), 1);
        assert_eq!(breaker(&store, &k).consecutive_failures, 0);
    }

    #[test]
    fn a_cohort_shares_each_failed_fill_and_the_third_opens_the_breaker() {
        const CALLERS: usize = 8;
        let arrived = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new(AtomicUsize::new(0));
        let metrics = Arc::new(Registry::default());
        let store = {
            let (arrived, runs) = (Arc::clone(&arrived), Arc::clone(&runs));
            ModelStore::new(Arc::clone(&metrics), move |_: &ModelKey| {
                runs.fetch_add(1, SeqCst);
                // Fail only once the whole round has arrived, and after
                // long enough for every caller to join this fill.
                while arrived.load(SeqCst) % CALLERS != 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(100));
                Err(ServiceError::CampaignLoss("lost 1 point(s)".into()))
            })
        };
        let k = key("uma", "CG.S");
        let barrier = Barrier::new(CALLERS);
        for round in 1..=3 {
            let outcomes: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CALLERS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            arrived.fetch_add(1, SeqCst);
                            store.get(&k, None)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(runs.load(SeqCst), round as usize, "one fill per round");
            let info = breaker(&store, &k);
            assert_eq!(info.consecutive_failures, round, "one failure per fill");
            assert_eq!(info.last_error_kind, Some("campaign-loss"));
            for outcome in outcomes {
                if round < 3 {
                    assert!(matches!(outcome, Err(ServiceError::CampaignLoss(_))));
                } else {
                    let info = degraded(outcome);
                    assert_eq!(info.state, BreakerState::Open);
                    assert_eq!(info.consecutive_failures, 3);
                }
            }
        }
        assert_eq!(metrics.counter("serve.breaker.open"), 1);
        // The cohort's degraded answers count toward no probe window.
        assert_eq!(metrics.counter("serve.breaker.half_open"), 0);
    }

    #[test]
    fn bad_requests_never_count_toward_the_breaker() {
        let store = ModelStore::new(Arc::default(), |_: &ModelKey| {
            Err(ServiceError::BadRequest("unknown program".into()))
        });
        let k = key("uma", "QQ.S");
        for _ in 0..=THRESHOLD {
            assert!(matches!(
                store.get(&k, None),
                Err(ServiceError::BadRequest(_))
            ));
        }
        assert!(store.breakers().is_empty(), "no breaker entry");
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let (store, script, metrics) = scripted(false, 0);
        let k = key("uma", "CG.S");
        for failures in 1..3 {
            assert!(matches!(
                store.get(&k, None),
                Err(ServiceError::Internal(_))
            ));
            let info = breaker(&store, &k);
            assert_eq!(info.state, BreakerState::Closed, "below the threshold");
            assert_eq!(info.consecutive_failures, failures);
        }
        let info = degraded(store.get(&k, None));
        assert_eq!(info.state, BreakerState::Open);
        assert_eq!(info.consecutive_failures, 3);
        assert_eq!(info.last_error_kind, Some("internal"));
        assert_eq!(info.last_error.as_deref(), Some("disk on fire"));
        assert_eq!(script.runs(), 3);
        assert_eq!(metrics.counter("serve.breaker.open"), 1);
    }

    #[test]
    fn a_key_that_recovers_lists_as_closed() {
        let (store, script, metrics) = scripted(false, 0);
        let k = key("uma", "CG.S");
        for _ in 1..THRESHOLD {
            assert!(store.get(&k, None).is_err());
        }
        script.ok.store(true, SeqCst);
        assert_eq!(fitted(store.get(&k, None)).1, Disposition::Miss);
        let info = breaker(&store, &k);
        assert_eq!(info.state, BreakerState::Closed);
        assert_eq!(info.consecutive_failures, 0, "success resets the streak");
        assert_eq!((info.last_error_kind, info.last_error), (None, None));
        assert_eq!(metrics.counter("serve.breaker.close"), 0, "it never opened");
    }

    #[test]
    fn probe_fires_at_the_seeded_position_then_half_open_holds() {
        let (store, script, metrics) = scripted(false, 0);
        let k = key("uma", "CG.S");
        open(&store, &k);
        // Each window's probe fill holds the key half-open until the
        // window's assertions are done.
        let window = || {
            script.hold();
            for i in 1..=PROBE_EVERY {
                let info = degraded(store.get(&k, None));
                let probed = info.state == BreakerState::HalfOpen;
                assert_eq!(probed, i == probe_at(&k), "request {i} of the window");
                if probed {
                    break;
                }
            }
            // Half-open: no second probe until the outcome lands.
            for _ in 0..10 {
                assert_eq!(degraded(store.get(&k, None)).state, BreakerState::HalfOpen);
            }
            script.release();
        };
        window();
        assert_eq!(metrics.counter("serve.breaker.half_open"), 1);
        // The failed probe re-opens; the next window probes at the same
        // position, and this time the probe succeeds and closes.
        until(|| breaker(&store, &k).state == BreakerState::Open);
        assert_eq!(script.runs(), THRESHOLD as usize + 1, "one probe fill");
        assert_eq!(metrics.counter("serve.breaker.open"), 2);
        assert_eq!(breaker(&store, &k).consecutive_failures, THRESHOLD + 1);
        script.ok.store(true, SeqCst);
        window();
        until(|| store.len() == 1);
        assert_eq!(script.runs(), THRESHOLD as usize + 2, "one probe fill");
        assert_eq!(fitted(store.get(&k, None)).1, Disposition::Hit);
        let info = breaker(&store, &k);
        assert_eq!(
            (info.state, info.consecutive_failures),
            (BreakerState::Closed, 0)
        );
        assert_eq!(metrics.counter("serve.breaker.close"), 1);
        assert_eq!(metrics.counter("serve.breaker.half_open"), 2);
    }

    #[test]
    fn keys_are_independent() {
        let (store, script, _) = scripted(false, 0);
        let (sick, healthy) = (key("uma", "CG.S"), key("numa", "CG.S"));
        open(&store, &sick);
        script.ok.store(true, SeqCst);
        assert_eq!(fitted(store.get(&healthy, None)).1, Disposition::Miss);
        degraded(store.get(&sick, None));
        assert_eq!(store.breakers().len(), 1, "only the sick key is listed");
    }

    #[test]
    fn probe_positions_are_pinned() {
        // The position is part of the replay contract: it must not move
        // with the toolchain's hasher.
        let at = |machine| probe_at(&key(machine, "CG.S"));
        assert_eq!([at("uma"), at("numa"), at("amd")], [2, 4, 4]);
    }
}
