//! Single-flight cache with background fills and deadline-bounded
//! waits: concurrent misses for the same key coalesce into one fill.
//!
//! The first caller to miss a key *starts* its fill on a detached
//! thread, then waits like everyone else; every other caller that
//! misses the same key meanwhile blocks on a condvar and receives the
//! `Arc`'d value when the fill lands. Crucially, the fill's lifetime is
//! no longer tied to any caller: a caller whose deadline expires gets
//! [`Fetch::Pending`] and walks away with the fill still running, so a
//! short-deadline request warms the cache for everyone behind it
//! instead of aborting the campaign. A fill that fails or panics clears
//! the slot, records the error for the cohort that waited on it, and
//! leaves the key clean for the next starter — an error never wedges
//! the key.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a [`SingleFlight::get_or_start`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The value was already cached.
    Hit,
    /// This call started the fill.
    Miss,
    /// Another call was already filling; this one waited and shares the
    /// starter's value without re-running the fill.
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

/// The outcome of one [`SingleFlight::get_or_start`] call.
#[derive(Debug)]
pub enum Fetch<V, E> {
    /// The value, cached or freshly filled.
    Ready(Arc<V>, Disposition),
    /// The caller's deadline expired while a fill was in flight. The
    /// fill keeps running in the background and will warm the cache;
    /// `started` says whether *this* call launched it.
    Pending {
        /// Whether this call started the in-flight fill.
        started: bool,
    },
    /// The fill this call waited on failed; the slot is clear and the
    /// next caller starts a fresh fill.
    Failed(E),
}

/// Errors a background fill can produce must be buildable from a panic
/// message, because a panicking fill thread still owes its cohort an
/// answer.
pub trait FillError: Sized {
    /// Wraps a panic payload into the error type.
    fn from_panic(msg: &str) -> Self;
}

impl FillError for String {
    fn from_panic(msg: &str) -> String {
        format!("fill panicked: {msg}")
    }
}

enum Slot<V> {
    /// A background fill with this id is running; wait on the condvar.
    Filling(u64),
    /// Fill complete.
    Ready(Arc<V>),
}

struct Inner<K, V, E> {
    slots: HashMap<K, Slot<V>>,
    /// Last failed fill per key: `(fill id, error)`. Waiters compare
    /// ids to learn that the fill they joined died; overwritten by the
    /// next failure, removed by the next success.
    failures: HashMap<K, (u64, E)>,
    next_id: u64,
}

struct Shared<K, V, E> {
    inner: Mutex<Inner<K, V, E>>,
    cond: Condvar,
}

/// A keyed single-flight cache. Values are immutable once cached and
/// shared by `Arc`; fills run on detached background threads.
pub struct SingleFlight<K, V, E> {
    shared: Arc<Shared<K, V, E>>,
}

impl<K: Eq + Hash, V, E> Default for SingleFlight<K, V, E> {
    fn default() -> Self {
        SingleFlight {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    slots: HashMap::new(),
                    failures: HashMap::new(),
                    next_id: 0,
                }),
                cond: Condvar::new(),
            }),
        }
    }
}

impl<K, V, E> SingleFlight<K, V, E>
where
    K: Eq + Hash + Clone + Send + 'static,
    V: Send + Sync + 'static,
    E: FillError + Clone + Send + 'static,
{
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ready entries (filling slots excluded).
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap()
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether no entry is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached value for `key` if it is ready, without starting or
    /// joining a fill.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        match self.shared.inner.lock().unwrap().slots.get(key) {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Returns the cached value for `key`, starting `fill` on a
    /// background thread at most once across all concurrent callers
    /// when it is absent.
    ///
    /// * Cached → `Ready(value, Hit)` immediately.
    /// * Absent → this caller starts the fill, then waits:
    ///   `Ready(value, Miss)` if it lands before `deadline`.
    /// * Being filled → waits: `Ready(value, Coalesced)`.
    /// * `deadline` passes first → `Pending`; the fill keeps running
    ///   and a later call finds the warmed cache.
    /// * The awaited fill fails → `Failed(error)`; the slot is clear.
    ///
    /// `deadline: None` waits indefinitely. A `deadline` already in the
    /// past starts the fill (if absent) and returns `Pending`
    /// immediately — that is how breaker probes launch a fill without
    /// donating a caller's latency to it.
    pub fn get_or_start<F>(&self, key: &K, deadline: Option<Instant>, fill: F) -> Fetch<V, E>
    where
        F: FnOnce() -> Result<V, E> + Send + 'static,
    {
        let mut fill = Some(fill);
        let mut started = false;
        let mut awaited: Option<u64> = None;
        let mut guard = self.shared.inner.lock().unwrap();
        loop {
            match guard.slots.get(key) {
                Some(Slot::Ready(v)) => {
                    let d = if started {
                        Disposition::Miss
                    } else if awaited.is_some() {
                        Disposition::Coalesced
                    } else {
                        Disposition::Hit
                    };
                    return Fetch::Ready(Arc::clone(v), d);
                }
                Some(Slot::Filling(id)) => {
                    awaited = Some(*id);
                    match deadline {
                        Some(dl) => {
                            let now = Instant::now();
                            if now >= dl {
                                return Fetch::Pending { started };
                            }
                            let (g, _) = self.shared.cond.wait_timeout(guard, dl - now).unwrap();
                            guard = g;
                        }
                        None => guard = self.shared.cond.wait(guard).unwrap(),
                    }
                }
                None => {
                    // No fill running. If we waited on one, it failed:
                    // report the recorded error (a success would have
                    // left the slot Ready forever).
                    if awaited.is_some() {
                        if let Some((_, e)) = guard.failures.get(key) {
                            return Fetch::Failed(e.clone());
                        }
                    }
                    match fill.take() {
                        Some(f) => {
                            let id = guard.next_id;
                            guard.next_id += 1;
                            guard.slots.insert(key.clone(), Slot::Filling(id));
                            started = true;
                            awaited = Some(id);
                            drop(guard);
                            self.spawn_fill(key.clone(), id, f);
                            guard = self.shared.inner.lock().unwrap();
                        }
                        // Unreachable in practice: reaching here twice
                        // means our own fill failed, which the failures
                        // map reports above. Defensive, not load-bearing.
                        None => {
                            return Fetch::Failed(E::from_panic("fill slot vanished"));
                        }
                    }
                }
            }
        }
    }

    fn spawn_fill<F>(&self, key: K, id: u64, fill: F)
    where
        F: FnOnce() -> Result<V, E> + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let thread_key = key.clone();
        let run = move || {
            let result = match catch_unwind(AssertUnwindSafe(fill)) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .map(str::to_string)
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".into());
                    Err(E::from_panic(&msg))
                }
            };
            complete(&shared, &thread_key, id, result);
        };
        if let Err(e) = std::thread::Builder::new()
            .name("serve-fill".into())
            .spawn(run)
        {
            // Thread spawn failed (resource exhaustion): settle the
            // slot synchronously so waiters are not stranded.
            complete(
                &self.shared,
                &key,
                id,
                Err(E::from_panic(&format!("spawn fill thread: {e}"))),
            );
        }
    }
}

/// Lands a fill outcome: success publishes the value; failure clears
/// the slot (if still this fill's) and records the error for waiters.
fn complete<K, V, E>(shared: &Shared<K, V, E>, key: &K, id: u64, result: Result<V, E>)
where
    K: Eq + Hash + Clone,
{
    let mut guard = shared.inner.lock().unwrap();
    match result {
        Ok(v) => {
            guard.slots.insert(key.clone(), Slot::Ready(Arc::new(v)));
            guard.failures.remove(key);
        }
        Err(e) => {
            if matches!(guard.slots.get(key), Some(Slot::Filling(cur)) if *cur == id) {
                guard.slots.remove(key);
            }
            guard.failures.insert(key.clone(), (id, e));
        }
    }
    drop(guard);
    shared.cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    impl FillError for &'static str {
        fn from_panic(_msg: &str) -> &'static str {
            "panicked"
        }
    }

    type Cache = SingleFlight<u32, u64, &'static str>;

    fn ready(f: Fetch<u64, &'static str>) -> (u64, Disposition) {
        match f {
            Fetch::Ready(v, d) => (*v, d),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = Cache::new();
        assert_eq!(
            ready(cache.get_or_start(&1, None, || Ok(7))),
            (7, Disposition::Miss)
        );
        assert_eq!(
            ready(cache.get_or_start(&1, None, || Ok(99))),
            (7, Disposition::Hit)
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek(&1).as_deref(), Some(&7));
        assert_eq!(cache.peek(&2), None);
    }

    #[test]
    fn concurrent_misses_run_exactly_one_fill() {
        const THREADS: usize = 16;
        let cache = Arc::new(Cache::new());
        let fills = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || {
                    ready(cache.get_or_start(&1, None, move || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        // Hold the slot long enough for the other
                        // threads to pile up on the condvar.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok(42)
                    }))
                })
            })
            .collect();
        let results: Vec<(u64, Disposition)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(fills.load(Ordering::SeqCst), 1, "exactly one fill");
        assert!(results.iter().all(|&(v, _)| v == 42));
        let misses = results
            .iter()
            .filter(|&&(_, d)| d == Disposition::Miss)
            .count();
        assert_eq!(misses, 1, "exactly one starter");
    }

    #[test]
    fn expired_deadline_returns_pending_and_the_fill_still_lands() {
        let cache = Cache::new();
        // Deadline already past: the call must not block on the fill.
        let t0 = Instant::now();
        match cache.get_or_start(&1, Some(Instant::now()), || {
            std::thread::sleep(Duration::from_millis(100));
            Ok(5)
        }) {
            Fetch::Pending { started: true } => {}
            other => panic!("expected Pending{{started}}, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_millis(90),
            "did not wait for the fill"
        );
        // The background fill warms the cache for later callers.
        for _ in 0..100 {
            if cache.peek(&1).is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(cache.peek(&1).as_deref(), Some(&5));
        assert_eq!(
            ready(cache.get_or_start(&1, None, || Ok(0))),
            (5, Disposition::Hit)
        );
    }

    #[test]
    fn waiter_with_a_deadline_times_out_while_the_starter_waits_on() {
        let cache = Arc::new(Cache::new());
        let starter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                ready(cache.get_or_start(&1, None, || {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(8)
                }))
            })
        };
        // Let the starter claim the slot.
        std::thread::sleep(Duration::from_millis(30));
        match cache.get_or_start(&1, Some(Instant::now() + Duration::from_millis(20)), || {
            Ok(999)
        }) {
            Fetch::Pending { started: false } => {}
            other => panic!("expected Pending as a waiter, got {other:?}"),
        }
        assert_eq!(starter.join().unwrap(), (8, Disposition::Miss));
    }

    #[test]
    fn failed_fill_clears_the_slot_for_retry() {
        let cache = Cache::new();
        match cache.get_or_start(&1, None, || Err("boom")) {
            Fetch::Failed(e) => assert_eq!(e, "boom"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(
            ready(cache.get_or_start(&1, None, || Ok(5))),
            (5, Disposition::Miss)
        );
    }

    #[test]
    fn panicking_fill_reports_failed_and_clears_the_slot() {
        let cache = Cache::new();
        match cache.get_or_start(&1, None, || -> Result<u64, &'static str> {
            panic!("fill exploded")
        }) {
            Fetch::Failed(e) => assert_eq!(e, "panicked"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(
            ready(cache.get_or_start(&1, None, || Ok(6))),
            (6, Disposition::Miss)
        );
    }

    #[test]
    fn waiters_of_a_failed_fill_get_the_error_then_a_fresh_start_succeeds() {
        let cache = Arc::new(Cache::new());
        let fills = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || loop {
                    let fills = Arc::clone(&fills);
                    match cache.get_or_start(&1, None, move || {
                        let i = fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        // First fill fails; a later starter succeeds.
                        if i == 0 {
                            Err("first fill fails")
                        } else {
                            Ok(11)
                        }
                    }) {
                        Fetch::Ready(v, _) => return *v,
                        Fetch::Failed(_) => continue,
                        Fetch::Pending { .. } => unreachable!("no deadline set"),
                    }
                })
            })
            .collect();
        let ok: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ok.iter().all(|&v| v == 11));
        assert!(fills.load(Ordering::SeqCst) >= 2, "a retry happened");
        assert_eq!(cache.len(), 1);
    }
}
