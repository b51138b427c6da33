//! Lockstep oracle for the calendar-queue scheduler.
//!
//! The production [`CalendarQueue`] buckets events by cycle, batches
//! same-cycle pops, spills far-future events to an overflow heap, and
//! resizes its ring under pressure. This test pins all of that against
//! a plain binary-heap [`EventQueue`] — the simulator's original
//! scheduler, kept here as the oracle — by driving both through identical
//! randomized push/pop schedules and demanding the same pop sequence,
//! clock, peek, and occupancy at every step. The schedules deliberately
//! exercise the three regimes the unit tests cover individually: dense
//! same-cycle ties (FIFO order must hold), far-future pushes that cross
//! the overflow heap and force ring growth, and pushes interleaved into a
//! drain (arrivals landing in the cycle currently being batched).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use offchip_simcore::{CalendarQueue, EventSched, SimTime};
use proptest::prelude::*;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the BinaryHeap is a max-heap, we want earliest first,
        // then lowest sequence number. `seq` is assigned from a run-global
        // counter at schedule time, so insertion order is total even
        // across pops of the same instant.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference scheduler: a min-heap over `(time, arrival order)`.
struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    max_len: usize,
}

impl<E> EventQueue<E> {
    fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            max_len: 0,
        }
    }
}

impl<E> EventSched<E> for EventQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        if self.heap.len() > self.max_len {
            self.max_len = self.heap.len();
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue ordering violated");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn max_len(&self) -> usize {
        self.max_len
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every observable of the calendar queue must match the heap oracle
    /// after every operation, for any interleaving of pushes and pops.
    #[test]
    fn calendar_queue_matches_heap_oracle(
        ops in prop::collection::vec((0u8..6, 0u64..4096), 1..400),
        buckets_pow in 6u32..9,
    ) {
        let mut dut: CalendarQueue<u32> = CalendarQueue::with_buckets(1usize << buckets_pow);
        let mut oracle: EventQueue<u32> = EventQueue::new();
        let mut next_id = 0u32;

        for &(kind, delta) in &ops {
            match kind {
                // Dense pushes: tiny horizon, so many events share a cycle
                // and the FIFO tie-break is what orders them.
                0 | 1 => {
                    let at = oracle.now() + delta % 4;
                    dut.schedule_at(at, next_id);
                    oracle.schedule_at(at, next_id);
                    next_id += 1;
                }
                // Mid-range pushes: inside a 64-bucket ring some of the
                // time, outside it the rest.
                2 => {
                    let at = oracle.now() + delta;
                    dut.schedule_at(at, next_id);
                    oracle.schedule_at(at, next_id);
                    next_id += 1;
                }
                // Far-future pushes: land in the overflow heap for every
                // ring size in play, and in bulk they trip ring growth.
                3 => {
                    let at = oracle.now() + delta * 41;
                    dut.schedule_at(at, next_id);
                    oracle.schedule_at(at, next_id);
                    next_id += 1;
                }
                // Pops (a third of ops): advance both clocks together.
                _ => {
                    let a = dut.pop();
                    let b = oracle.pop();
                    prop_assert_eq!(a, b, "pop diverged at t={}", oracle.now().0);
                }
            }
            prop_assert_eq!(dut.now(), oracle.now());
            prop_assert_eq!(dut.len(), oracle.len());
            prop_assert_eq!(
                dut.peek_time(),
                oracle.peek_time(),
                "peek diverged at t={}", oracle.now().0
            );
        }

        // Drain both to the end: the full tail ordering must agree, and
        // the high-water marks (fed by the same push sequence) with it.
        loop {
            let a = dut.pop();
            let b = oracle.pop();
            prop_assert_eq!(a, b, "drain diverged at t={}", oracle.now().0);
            prop_assert_eq!(dut.now(), oracle.now());
            if b.is_none() {
                break;
            }
        }
        prop_assert_eq!(dut.len(), 0);
        prop_assert_eq!(dut.max_len(), oracle.max_len());
    }

    /// Timestamps strictly beyond the ring horizon at push time must
    /// still drain in exact oracle order — the overflow heap, the eager
    /// per-advance drain back into the ring, and any rebuilds in between
    /// must preserve the global (time, arrival) order.
    #[test]
    fn far_future_storms_drain_in_oracle_order(
        ats in prop::collection::vec(0u64..100_000, 1..300),
    ) {
        let mut dut: CalendarQueue<u32> = CalendarQueue::with_buckets(64);
        let mut oracle: EventQueue<u32> = EventQueue::new();
        for (i, &at) in ats.iter().enumerate() {
            dut.schedule_at(SimTime(at), i as u32);
            oracle.schedule_at(SimTime(at), i as u32);
        }
        for _ in 0..ats.len() {
            prop_assert_eq!(dut.pop(), oracle.pop());
        }
        prop_assert_eq!(dut.pop(), None);
        prop_assert_eq!(oracle.pop(), None);
    }
}
