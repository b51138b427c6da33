//! A calendar-queue event scheduler: O(1) amortised push/pop.
//!
//! A binary heap pays `O(log n)` per operation with a data-dependent
//! pointer chase through the heap array — about a fifth of simulator CPU
//! on the reference sweeps when the simulator ran on one. A discrete-event
//! simulator's schedule is overwhelmingly *near-future* — profiled on the
//! Table II reference sweep, the median inter-event gap is ~30 cycles and
//! 96 % of schedule deltas fall under 2¹⁴ cycles, peaking at 2¹¹ (DRAM
//! round-trips and sync-quantum resumes). That is the shape a calendar
//! queue [Brown 1988] exploits, provided the bucket granularity matches it:
//!
//! * **Ring of 32-cycle window buckets.** Each of `n_buckets` (a power of
//!   two, so the bucket index is one shift + [`FastDiv`] mask) consecutive
//!   [`WINDOW`]-cycle windows starting at `now`'s window owns a `Vec` of
//!   `(at, seq, event)` entries. Push = shift + masked index + `Vec` push.
//!   Single-cycle buckets would need a ring of tens of thousands of
//!   buckets to cover the measured horizon — far outside the host's own
//!   caches, which is exactly how a calendar queue loses to a 150-entry
//!   heap that fits in a few cache lines. 32-cycle windows put the whole
//!   horizon in a few hundred buckets (hot), at the cost of a small sort
//!   per refill (see batching below).
//! * **Occupancy bitmap.** One bit per bucket, scanned a word (64 buckets)
//!   at a time with `trailing_zeros`, so locating the next event costs
//!   `n_buckets / 64` word reads in the worst case and usually one or two.
//! * **Overflow heap.** Events beyond the ring horizon (`n_buckets`
//!   windows past `now`'s) wait in a small binary heap ordered by
//!   `(time, seq)`. Whenever `now` enters a new window, every overflow
//!   event that newly fits the horizon drains into its bucket. Ring and
//!   overflow therefore always hold *disjoint window ranges*, and — by the
//!   same argument one level down — any two pending events in one bucket
//!   share a single window: an entry for window `w + k·n_buckets` could
//!   only be pushed once `now`'s window passed `w`, which cannot happen
//!   while an event in window `w` is still pending. That invariant is what
//!   makes whole-bucket drains safe with no per-entry filtering.
//! * **Window batching.** Popping an occupied bucket swaps its `Vec` into
//!   a reusable scratch (`cur`) and sorts it descending by `(at, seq)` —
//!   seqs are globally unique, so this equals a stable sort by time and
//!   reproduces arrival order exactly — then serves pops from the back.
//!   The common "dispatch everything due now" phase costs one bitmap scan
//!   per *window*, not per event. Pushes that land in the live window
//!   (including same-cycle events scheduled mid-batch) binary-insert into
//!   `cur`, so they pop after their same-cycle elders and before any later
//!   cycle — global FIFO order is preserved exactly.
//! * **Resize.** Sustained overflow *traffic* — more spilled pushes since
//!   the last rebuild than the ring has buckets, so growth is O(1)
//!   amortised — doubles the ring until the horizon covers the schedule's
//!   real shape, capped at `MAX_BUCKETS`: past the cap the far tail
//!   (a fraction of a percent of traffic on the reference sweep) is
//!   cheaper to route through the small overflow heap than to serve from
//!   a ring too large to stay cache-resident. A long streak of batch
//!   refills with the queue nearly empty (`len * 8 < n_buckets` for
//!   `SHRINK_STREAK` consecutive refills, none of them spilling) halves
//!   the ring, floored at `MIN_BUCKETS`. Rebuilds re-slot entries by
//!   their timestamps with original seqs, so pop order is unchanged by
//!   any resize.
//!
//! The pop sequence is the one [`EventSched`] pins for every schedule:
//! the lockstep proptest in `tests/calendar_oracle.rs` checks it against a
//! plain binary-heap reference, kept there as the oracle.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::events::EventSched;
use crate::fastdiv::FastDiv;
use crate::time::SimTime;

/// Bucket granularity: each bucket covers `2^WINDOW_SHIFT` cycles.
const WINDOW_SHIFT: u32 = 5;
/// Cycles per bucket. 32 sits just above the measured median inter-event
/// gap (~30 cycles on the reference sweep), so a typical refill batches a
/// handful of events while the ring stays small enough to be cache-hot.
pub const WINDOW: u64 = 1 << WINDOW_SHIFT;

/// Smallest (and initial) ring size: 256 windows = 8192 cycles of horizon,
/// which covers the bulk of the measured schedule-delta distribution at
/// four bitmap words and a few KiB of bucket headers.
const MIN_BUCKETS: usize = 256;

/// Largest ring the grow policy will build: 4096 windows = 2¹⁷ cycles of
/// horizon. Beyond this the residual spill traffic is too rare to justify
/// a ring that no longer fits the host's fast caches.
const MAX_BUCKETS: usize = 4096;

/// Consecutive sparse batch refills (`len * 8 < n_buckets`) before the ring
/// halves. A streak long enough that a transient drain (a barrier, the end
/// of a miss burst) does not thrash the ring size.
const SHRINK_STREAK: u32 = 64;

/// `peek_cache` sentinel: cache invalid, recompute by scanning.
const PEEK_DIRTY: u64 = u64::MAX;
/// `peek_cache` sentinel: queue known empty (outside the current batch).
const PEEK_NONE: u64 = u64::MAX - 1;

/// An overflow-heap entry, ordered by reversed `(at, seq)` so the earliest
/// event with the lowest seq surfaces first.
struct Far<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority event queue bucketed by 32-cycle windows.
///
/// The simulator's event scheduler, popping in the `(time, arrival order)`
/// sequence the [`EventSched`] trait pins; see the module docs for the
/// data structure.
pub struct CalendarQueue<E> {
    /// `buckets[w & mask]` holds the events of exactly one window `w` in
    /// `[now_window, now_window + n_buckets)`, as `(at, seq, event)` in
    /// push order. The live window's events never sit here — they live in
    /// `cur` (see `schedule_at`).
    buckets: Vec<Vec<(u64, u64, E)>>,
    /// One occupancy bit per bucket, `n_buckets / 64` words.
    occ: Vec<u64>,
    /// Strength-reduced `% n_buckets` (a mask — the size is a power of two).
    slot: FastDiv,
    /// Events at or beyond `now_window + n_buckets` windows, by reversed
    /// `(at, seq)`.
    overflow: BinaryHeap<Far<E>>,
    /// The live window's events, sorted descending by `(at, seq)` so
    /// `Vec::pop` yields the earliest event in arrival order. Its capacity
    /// is recycled with the bucket it swaps against at each refill.
    cur: Vec<(u64, u64, E)>,
    now: SimTime,
    next_seq: u64,
    /// Pending events across `buckets`, `overflow` and `cur`.
    count: usize,
    max_len: usize,
    /// Earliest pending cycle in `buckets`/`overflow` (never `cur` — the
    /// batch short-circuits `peek_time` directly), or a sentinel. A `Cell`
    /// so the `&self` `peek_time` can lazily repair it.
    peek_cache: Cell<u64>,
    /// Consecutive sparse batch refills, for the shrink trigger.
    sparse_streak: u32,
    /// Pushes that spilled to `overflow` since the last rebuild, for the
    /// amortised grow trigger.
    overflow_pushes: usize,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> CalendarQueue<E> {
        CalendarQueue::with_buckets(MIN_BUCKETS)
    }

    /// Creates an empty queue with an explicit initial ring size —
    /// a power of two, at least 64 (one bitmap word). Exposed so the
    /// oracle/bench harnesses can force resizes cheaply.
    pub fn with_buckets(n: usize) -> CalendarQueue<E> {
        assert!(
            n.is_power_of_two() && n >= 64,
            "bucket count must be a power of two >= 64, got {n}"
        );
        CalendarQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            occ: vec![0; n / 64],
            slot: FastDiv::new(n as u64),
            overflow: BinaryHeap::new(),
            cur: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            count: 0,
            max_len: 0,
            peek_cache: Cell::new(PEEK_NONE),
            sparse_streak: 0,
            overflow_pushes: 0,
        }
    }

    /// Current ring size (test/bench visibility into the resize policy).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The window `cycle` belongs to.
    #[inline]
    fn window(cycle: u64) -> u64 {
        cycle >> WINDOW_SHIFT
    }

    #[inline]
    fn slot_of(&self, window: u64) -> usize {
        self.slot.rem(window) as usize
    }

    /// The earliest pending cycle outside the current batch, repairing the
    /// peek cache if a pop invalidated it.
    fn next_pending(&self) -> Option<u64> {
        let cached = self.peek_cache.get();
        if cached != PEEK_DIRTY {
            return (cached != PEEK_NONE).then_some(cached);
        }
        let n = self.buckets.len();
        let now_w = Self::window(self.now.cycles());
        let start = self.slot_of(now_w);
        let w0 = start >> 6;
        let words = self.occ.len();
        let mut found = None;
        // First word masked to bits >= start, then wrap one revolution;
        // the final iteration re-reads w0's low bits (indices before
        // `start`, i.e. windows near the far edge of the horizon).
        let first = self.occ[w0] & (!0u64 << (start & 63));
        if first != 0 {
            found = Some((w0 << 6) + first.trailing_zeros() as usize);
        } else {
            for k in 1..=words {
                let w = (w0 + k) & (words - 1);
                let word = if w == w0 {
                    self.occ[w] & !(!0u64 << (start & 63))
                } else {
                    self.occ[w]
                };
                if word != 0 {
                    found = Some((w << 6) + word.trailing_zeros() as usize);
                    break;
                }
            }
        }
        // Ring events are all inside the horizon, overflow events all
        // beyond it, so an occupied bucket always wins. Within the found
        // bucket every entry shares one window (module docs invariant), so
        // its earliest cycle is a short scan over co-resident entries.
        let next = match found {
            Some(i) => {
                debug_assert!({
                    let d = i.wrapping_sub(start) & (n - 1);
                    self.buckets[i]
                        .iter()
                        .all(|e| Self::window(e.0) == now_w + d as u64)
                });
                Some(
                    self.buckets[i]
                        .iter()
                        .map(|e| e.0)
                        .min()
                        .expect("occupancy bit set on an empty bucket"),
                )
            }
            None => self.overflow.peek().map(|f| f.at),
        };
        self.peek_cache.set(next.unwrap_or(PEEK_NONE));
        next
    }

    /// Moves every overflow event that fits the (possibly just advanced or
    /// resized) horizon into its bucket. Restores the disjoint-ranges
    /// invariant: afterwards `overflow` holds only windows >=
    /// `now_window + n_buckets`.
    fn drain_overflow(&mut self) {
        let horizon_w = Self::window(self.now.cycles()) + self.buckets.len() as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|f| Self::window(f.at) < horizon_w)
        {
            let f = self.overflow.pop().expect("peeked entry exists");
            let i = self.slot_of(Self::window(f.at));
            self.buckets[i].push((f.at, f.seq, f.event));
            self.occ[i >> 6] |= 1 << (i & 63);
        }
    }

    /// Rebuilds the ring at `n2` buckets, preserving pop order: entries
    /// re-slot by their own timestamps with their original seqs, and the
    /// refill sort re-establishes `(at, seq)` order within any bucket, so
    /// the pop sequence is unchanged by any resize.
    fn rebuild(&mut self, n2: usize) {
        let old_buckets =
            std::mem::replace(&mut self.buckets, (0..n2).map(|_| Vec::new()).collect());
        self.occ = vec![0; n2 / 64];
        self.slot = FastDiv::new(n2 as u64);
        let horizon_w = Self::window(self.now.cycles()) + n2 as u64;
        for bucket in old_buckets {
            for (at, seq, event) in bucket {
                let w = Self::window(at);
                if w < horizon_w {
                    let j = self.slot_of(w);
                    self.buckets[j].push((at, seq, event));
                    self.occ[j >> 6] |= 1 << (j & 63);
                } else {
                    self.overflow.push(Far { at, seq, event });
                }
            }
        }
        self.drain_overflow();
        self.overflow_pushes = 0;
        // The event set is unchanged, so the peek cache stays valid.
    }

    /// Shrink policy, evaluated once per batch refill (not per event).
    fn maybe_shrink(&mut self) {
        let n = self.buckets.len();
        if n > MIN_BUCKETS && self.count * 8 < n && self.overflow.is_empty() {
            self.sparse_streak += 1;
            if self.sparse_streak >= SHRINK_STREAK {
                self.sparse_streak = 0;
                self.rebuild(n / 2);
            }
        } else {
            self.sparse_streak = 0;
        }
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventSched<E> for CalendarQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let cycle = at.cycles();
        debug_assert!(cycle < PEEK_NONE, "cycle collides with peek sentinels");
        let seq = self.next_seq;
        self.next_seq += 1;
        let now_w = Self::window(self.now.cycles());
        let w = Self::window(cycle);
        if w == now_w {
            // The live window's events always reside in `cur`, so a bucket
            // never mixes the window in progress with a later wrap of the
            // same slot. The insert keeps `cur` sorted descending by
            // `(at, seq)`: this event lands after its same-cycle elders
            // and before any later cycle — exact global FIFO.
            let idx = self.cur.partition_point(|e| (e.0, e.1) > (cycle, seq));
            self.cur.insert(idx, (cycle, seq, event));
        } else if w - now_w < self.buckets.len() as u64 {
            let i = self.slot_of(w);
            self.buckets[i].push((cycle, seq, event));
            self.occ[i >> 6] |= 1 << (i & 63);
            let c = self.peek_cache.get();
            if c != PEEK_DIRTY && (c == PEEK_NONE || cycle < c) {
                self.peek_cache.set(cycle);
            }
        } else {
            self.overflow.push(Far {
                at: cycle,
                seq,
                event,
            });
            // Overflow *traffic* — not the standing population — is what
            // marks the horizon as too short: a queue of 150 pending
            // events can still route most of its throughput across the
            // heap twice. Double the ring once the pushes since the last
            // rebuild would pay for one (a rebuild is O(n_buckets), so
            // growth stays O(1) amortised), up to the cache-residency cap;
            // and a spill is evidence against sparsity, so it restarts the
            // shrink streak.
            self.overflow_pushes += 1;
            self.sparse_streak = 0;
            if self.overflow_pushes > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
                self.rebuild(self.buckets.len() * 2);
            }
            let c = self.peek_cache.get();
            if c != PEEK_DIRTY && (c == PEEK_NONE || cycle < c) {
                self.peek_cache.set(cycle);
            }
        }
        self.count += 1;
        if self.count > self.max_len {
            self.max_len = self.count;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some((at, _, event)) = self.cur.pop() {
            // Live-window fast path: no scan; the clock moves within the
            // window (the batch is sorted, so `at` is the global minimum).
            self.count -= 1;
            self.now = SimTime(at);
            return Some((self.now, event));
        }
        let next = self.next_pending()?;
        debug_assert!(next >= self.now.cycles(), "event queue ordering violated");
        self.now = SimTime(next);
        // The clock entered a new window: widen the horizon first, so any
        // overflow events of that very window join the bucket we refill
        // from.
        self.drain_overflow();
        let i = self.slot_of(Self::window(next));
        self.occ[i >> 6] &= !(1 << (i & 63));
        // Refill the batch: swap recycles both Vecs' capacities, and the
        // descending `(at, seq)` sort makes `Vec::pop` yield time order
        // with arrival order inside each cycle. Seqs are unique, so the
        // unstable sort is deterministic.
        std::mem::swap(&mut self.cur, &mut self.buckets[i]);
        self.cur
            .sort_unstable_by_key(|e| (std::cmp::Reverse(e.0), std::cmp::Reverse(e.1)));
        self.peek_cache.set(PEEK_DIRTY);
        self.maybe_shrink();
        let (at, _, event) = self.cur.pop().expect("occupied bucket was empty");
        debug_assert_eq!(at, next, "refilled batch must start at the peeked cycle");
        self.count -= 1;
        Some((self.now, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.cur.last() {
            return Some(SimTime(e.0));
        }
        self.next_pending().map(SimTime)
    }

    #[inline]
    fn len(&self) -> usize {
        self.count
    }

    #[inline]
    fn max_len(&self) -> usize {
        self.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn ties_break_fifo_across_interleaved_pops() {
        // Mid-batch schedules for the current cycle join the *end* of the
        // cycle's order — the batching path must not reorder them.
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(7), "a");
        q.schedule_at(SimTime(7), "b");
        assert_eq!(q.pop(), Some((SimTime(7), "a")));
        q.schedule_at(SimTime(7), "c");
        q.schedule_at(SimTime(7), "d");
        assert_eq!(q.pop(), Some((SimTime(7), "b")));
        assert_eq!(q.pop(), Some((SimTime(7), "c")));
        q.schedule_at(SimTime(7), "e");
        assert_eq!(q.pop(), Some((SimTime(7), "d")));
        assert_eq!(q.pop(), Some((SimTime(7), "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn within_window_cycle_order_is_exact() {
        // Cycles 2, 9, 17, 31 share the first 32-cycle window; a mid-drain
        // push between pending cycles must slot into exact time order.
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(31), "d");
        q.schedule_at(SimTime(2), "a");
        q.schedule_at(SimTime(2), "b");
        q.schedule_at(SimTime(17), "c");
        assert_eq!(q.pop(), Some((SimTime(2), "a")));
        q.schedule_at(SimTime(9), "x");
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert_eq!(q.pop(), Some((SimTime(9), "x")));
        assert_eq!(q.pop(), Some((SimTime(17), "c")));
        assert_eq!(q.pop(), Some((SimTime(31), "d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_refill_sorts_out_of_order_pushes() {
        // One future window receives pushes out of time order, including a
        // tie, some after the clock has moved and ahead of a later window's
        // pending event; the refill sort must restore time-then-arrival
        // order.
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(1), "start");
        q.schedule_at(SimTime(100), "later");
        q.schedule_at(SimTime(44), "b2");
        q.schedule_at(SimTime(35), "a");
        assert_eq!(q.pop(), Some((SimTime(1), "start")));
        q.schedule_at(SimTime(44), "b3");
        q.schedule_at(SimTime(40), "x");
        assert_eq!(q.pop(), Some((SimTime(35), "a")));
        assert_eq!(q.pop(), Some((SimTime(40), "x")));
        assert_eq!(q.pop(), Some((SimTime(44), "b2")));
        assert_eq!(q.pop(), Some((SimTime(44), "b3")));
        assert_eq!(q.pop(), Some((SimTime(100), "later")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_tracks_the_live_window() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(3), 0);
        q.schedule_at(SimTime(3), 1);
        q.schedule_at(SimTime(9), 2);
        assert_eq!(q.pop(), Some((SimTime(3), 0)));
        // One same-cycle batch member remains: next event is still "now".
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop(), Some((SimTime(3), 1)));
        // Cycle 9 shares the window, so it is visible without a scan.
        assert_eq!(q.peek_time(), Some(SimTime(9)));
        assert_eq!(q.pop(), Some((SimTime(9), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cross_the_overflow_heap() {
        let mut q = CalendarQueue::with_buckets(64);
        q.schedule_at(SimTime(1), "near");
        q.schedule_at(SimTime(1_000_000), "far");
        q.schedule_at(SimTime(500_000), "mid");
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((SimTime(500_000), "mid")));
        assert_eq!(q.pop(), Some((SimTime(1_000_000), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_pressure_grows_the_ring() {
        let mut q = CalendarQueue::with_buckets(64);
        // Far-future cycles spread past the 64-window horizon: overflow
        // traffic exceeds the ring size until it doubles enough to hold
        // the span.
        for i in 0..200u64 {
            q.schedule_at(SimTime(100_000 + i * WINDOW), i);
        }
        assert!(q.n_buckets() > 64, "sustained overflow must grow the ring");
        let mut last = None;
        for _ in 0..200 {
            let (t, _) = q.pop().expect("200 events pending");
            assert!(last.is_none_or(|p| p <= t));
            last = Some(t);
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_growth_stops_at_the_cache_residency_cap() {
        let mut q = CalendarQueue::with_buckets(64);
        // A pathological all-far-future storm: every push spills, but the
        // ring must stop doubling at MAX_BUCKETS and serve the tail from
        // the overflow heap instead.
        for i in 0..200_000u64 {
            q.schedule_at(SimTime((i + 2) * MAX_BUCKETS as u64 * WINDOW), i);
        }
        assert!(q.n_buckets() <= MAX_BUCKETS);
        let mut last = None;
        for _ in 0..1000 {
            let (t, _) = q.pop().expect("events pending");
            assert!(last.is_none_or(|p| p <= t));
            last = Some(t);
        }
    }

    #[test]
    fn sustained_sparsity_shrinks_the_ring() {
        let mut q = CalendarQueue::with_buckets(64);
        for i in 0..3000u64 {
            q.schedule_at(SimTime(i * 100), i);
        }
        let grown = q.n_buckets();
        assert!(grown > 64);
        // Drain almost dry, then tick a long sparse tail: one event in
        // flight per refill, far under an eighth of the ring.
        for _ in 0..3000 {
            q.pop();
        }
        for i in 0..(SHRINK_STREAK + 4) as u64 {
            q.schedule_after(WINDOW + 3, i);
            q.pop();
        }
        assert!(
            q.n_buckets() < grown,
            "sparse streak must shrink the ring: still {}",
            q.n_buckets()
        );
        assert!(q.n_buckets() >= MIN_BUCKETS.min(64));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(10));
        q.schedule_after(5, ());
        assert_eq!(q.peek_time(), Some(SimTime(15)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn len_and_max_len_track_contents() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.max_len(), 0);
        q.schedule_at(SimTime(1), 0);
        q.schedule_at(SimTime(1), 0);
        q.schedule_at(SimTime(2), 0);
        assert_eq!(q.len(), 3);
        q.pop();
        // Mid-batch: the un-popped batch members still count as pending.
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        q.schedule_at(SimTime(3), 0);
        assert_eq!(q.max_len(), 3);
    }
}
