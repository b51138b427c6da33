//! `offchip-pool` — a dependency-free scoped worker pool.
//!
//! Every figure and table of the reproduction is a core-count sweep:
//! dozens of *independent* `(machine, workload, n, seed)` simulator runs
//! whose results are only combined at the end. The pool fans such grids
//! out across OS threads with three properties the harness relies on:
//!
//! 1. **Determinism** — [`scoped_map`] returns results in *input order*,
//!    no matter which worker computed which item or in what order they
//!    finished. Aggregation code that folds the returned `Vec` therefore
//!    produces byte-identical output to a serial loop.
//! 2. **No dependencies** — the workspace is offline; everything here is
//!    `std` (`std::thread::scope`, atomics, `Mutex`/`Condvar`).
//! 3. **Shared budgeting** — concurrent pools (e.g. integration tests
//!    running in parallel inside one test binary) draw permits from one
//!    process-global semaphore sized by `OFFCHIP_JOBS`, so the process
//!    never oversubscribes the machine however many sweeps are in flight.
//!
//! Worker count for one map is `min(jobs, items)`; each map always makes
//! progress with at least one *leader* worker that bypasses the global
//! semaphore (so a saturated process cannot deadlock a new sweep), while
//! every other worker acquires a permit per item.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// What a worker task panicked with, rendered to a string.
///
/// [`scoped_try_map`] catches per-item panics so one poisoned item cannot
/// tear down the whole `std::thread::scope` (which would discard every
/// *completed* item's result along with it). The original payload is a
/// `Box<dyn Any>`; the common `&str`/`String` payloads are preserved
/// verbatim, anything else becomes a placeholder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicPayload {
    /// The panic message.
    pub message: String,
}

impl PanicPayload {
    /// Renders a payload caught with `std::panic::catch_unwind` — for
    /// callers that place their own catch points (e.g. per-attempt retry
    /// loops) but want the same message semantics as [`scoped_try_map`].
    pub fn from_any(payload: Box<dyn std::any::Any + Send>) -> PanicPayload {
        PanicPayload {
            message: payload_message(payload),
        }
    }
}

impl std::fmt::Display for PanicPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker task panicked: {}", self.message)
    }
}

impl std::error::Error for PanicPayload {}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Why a requested job count cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobsError {
    /// Zero workers cannot run anything.
    Zero,
    /// The value (flag or `OFFCHIP_JOBS`) did not parse as an integer.
    Invalid(String),
}

impl std::fmt::Display for JobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobsError::Zero => write!(f, "jobs must be at least 1"),
            JobsError::Invalid(v) => {
                write!(f, "jobs value {v:?} is not a positive integer")
            }
        }
    }
}

impl std::error::Error for JobsError {}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The environment variable holding the default worker budget.
pub const JOBS_ENV: &str = "OFFCHIP_JOBS";

/// Resolves the effective worker count: an explicit request (e.g. a
/// `--jobs` flag) wins, else [`JOBS_ENV`], else the machine's
/// available parallelism. Zero or garbage is a typed error.
pub fn resolve_jobs(requested: Option<usize>) -> Result<usize, JobsError> {
    resolve_jobs_from(requested, std::env::var(JOBS_ENV).ok().as_deref())
}

/// [`resolve_jobs`] with the [`JOBS_ENV`] value passed in, for parsers
/// that read no process state.
pub fn resolve_jobs_from(requested: Option<usize>, env: Option<&str>) -> Result<usize, JobsError> {
    match (requested, env) {
        (Some(0), _) => Err(JobsError::Zero),
        (Some(n), _) => Ok(n),
        (None, None) => Ok(default_jobs()),
        (None, Some(v)) => match v.trim().parse::<usize>() {
            Ok(0) => Err(JobsError::Zero),
            Ok(n) => Ok(n),
            Err(_) => Err(JobsError::Invalid(v.to_string())),
        },
    }
}

/// A counting semaphore (`Mutex` + `Condvar`; std has none).
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut n = self.permits.lock().expect("pool semaphore poisoned");
        while *n == 0 {
            n = self.cv.wait(n).expect("pool semaphore poisoned");
        }
        *n -= 1;
        Permit { sem: self }
    }
}

/// RAII permit: releases on drop.
struct Permit<'a> {
    sem: &'a Semaphore,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n = self.sem.permits.lock().expect("pool semaphore poisoned");
        *n += 1;
        self.sem.cv.notify_one();
    }
}

/// The size of the process-global permit budget that concurrent maps
/// share (frozen at first use from `OFFCHIP_JOBS`, else the machine's
/// parallelism).
pub fn shared_limit() -> usize {
    shared().0
}

fn shared() -> &'static (usize, Semaphore) {
    static SHARED: OnceLock<(usize, Semaphore)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let n = resolve_jobs(None).unwrap_or_else(|_| default_jobs());
        (n, Semaphore::new(n))
    })
}

/// Applies `f` to every item on up to `jobs` workers and returns the
/// results **in input order** (the determinism contract: the output is
/// indistinguishable from `items.iter().enumerate().map(f).collect()`).
///
/// `f` receives `(index, &item)`. Work is pulled from a shared counter,
/// so long and short items balance across workers. A panic in `f`
/// propagates to the caller once all workers stop; use
/// [`scoped_try_map`] when one poisoned item must not cost the rest.
pub fn scoped_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    scoped_try_map(jobs, items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

/// Like [`scoped_map`], but a panic in `f` is caught *per item* and
/// surfaces as `Err(PanicPayload)` in that item's slot instead of tearing
/// down the scope: every other item still completes and returns its
/// result, which is what lets a measurement campaign lose exactly one
/// sweep point to a bug instead of the whole grid.
pub fn scoped_try_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, PanicPayload>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_one = |i: usize, t: &T| -> Result<R, PanicPayload> {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(PanicPayload::from_any)
    };

    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, PanicPayload>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let (next, slots, run_one) = (&next, &slots, &run_one);
        for w in 0..workers {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The leader (worker 0) bypasses the global budget so a
                // map always progresses even when other sweeps hold every
                // permit; followers queue on the shared semaphore.
                let _permit = (w != 0).then(|| shared().1.acquire());
                let r = run_one(i, &items[i]);
                *slots[i].lock().expect("pool slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = scoped_map(8, &items, |i, &x| {
            // Finish in scrambled order on purpose.
            std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) * 3));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_exactly() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E3779B9)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = scoped_map(jobs, &items, |_, &x| x.wrapping_mul(0x9E3779B9));
            assert_eq!(par, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_grids() {
        let none: Vec<i32> = scoped_map(4, &[], |_, &x: &i32| x);
        assert!(none.is_empty());
        assert_eq!(scoped_map(4, &[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn jobs_resolution_contract() {
        assert_eq!(resolve_jobs(Some(3)), Ok(3));
        assert_eq!(resolve_jobs(Some(0)), Err(JobsError::Zero));
        assert_eq!(resolve_jobs_from(None, Some(" 3 ")), Ok(3));
        assert_eq!(resolve_jobs_from(None, Some("0")), Err(JobsError::Zero));
        assert_eq!(
            resolve_jobs_from(None, Some("abc")),
            Err(JobsError::Invalid("abc".into()))
        );
        assert_eq!(
            resolve_jobs_from(Some(2), Some("abc")),
            Ok(2),
            "the flag wins"
        );
        assert_eq!(resolve_jobs_from(None, None), Ok(default_jobs()));
        assert!(default_jobs() >= 1);
        assert!(shared_limit() >= 1);
    }

    #[test]
    fn try_map_isolates_a_panicking_item() {
        // Regression: a panic used to propagate through the thread scope
        // and discard every completed item's result with it.
        let items: Vec<usize> = (0..32).collect();
        for jobs in [1, 4] {
            let out = scoped_try_map(jobs, &items, |_, &x| {
                if x == 13 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 32, "jobs = {jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.message, "poisoned item 13");
                    assert!(p.to_string().contains("panicked"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "jobs = {jobs}");
                }
            }
        }
    }

    #[test]
    fn try_map_preserves_str_and_reports_opaque_payloads() {
        let out = scoped_try_map(2, &[0u8, 1], |_, &x| {
            if x == 0 {
                std::panic::panic_any(42i32); // not a string payload
            }
            panic!("plain &str payload");
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "<non-string panic payload>"
        );
        assert_eq!(out[1].as_ref().unwrap_err().message, "plain &str payload");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn plain_map_still_propagates_panics() {
        scoped_map(2, &[1, 2, 3], |_, &x: &i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn concurrent_maps_share_the_budget() {
        // Two maps racing, each wider than the whole budget, on items
        // that overlap in time: both finish with their order preserved,
        // and no more items ever run at once than the shared permits
        // plus one budget-exempt leader per map. Other tests' maps may
        // hold permits too, which only lowers this peak.
        let jobs = shared_limit() + 2;
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let item = |x: usize| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(3));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            x + 1
        };
        let a: Vec<usize> = (0..4 * jobs).collect();
        let b: Vec<usize> = (4 * jobs..8 * jobs).collect();
        std::thread::scope(|s| {
            let ha = s.spawn(|| scoped_map(jobs, &a, |_, &x| item(x)));
            let hb = s.spawn(|| scoped_map(jobs, &b, |_, &x| item(x)));
            assert_eq!(ha.join().unwrap(), (1..=4 * jobs).collect::<Vec<_>>());
            assert_eq!(
                hb.join().unwrap(),
                (4 * jobs + 1..=8 * jobs).collect::<Vec<_>>()
            );
        });
        let peak = peak.into_inner();
        assert!(
            peak <= shared_limit() + 2,
            "{peak} items ran at once over {} permits and 2 leaders",
            shared_limit()
        );
    }
}
