//! The scheduler contract of the simulation kernel.
//!
//! A simulator needs a *min*-priority queue where events scheduled for the
//! same instant pop in insertion order, otherwise runs are not
//! reproducible. [`EventSched`] pins that order; [`crate::CalendarQueue`]
//! is the implementation the simulator runs on.
//!
//! # The ordering contract (pinned)
//!
//! Every scheduler behind [`EventSched`] pops events in ascending
//! `(timestamp, sequence number)` order, where the sequence number is the
//! **global arrival order across the whole run** — not per timestamp, not
//! per call site. Two consequences that downstream code depends on:
//!
//! * **FIFO within a cycle.** Events scheduled for the same instant pop in
//!   the order `schedule_at`/`schedule_after` was called, even when the
//!   calls are interleaved with pops of that same instant. Same-cycle
//!   batching and multi-seed lane sharing both assume this: a controller
//!   wake scheduled *while* a cycle's batch is being dispatched must run
//!   after the events that were already pending for that cycle.
//! * **One pop sequence per schedule.** The order is a function of the
//!   push/pop sequence alone, never of the data structure, so any two
//!   implementations agree event for event. `tests/calendar_oracle.rs`
//!   pins [`crate::CalendarQueue`] against a plain binary-heap reference
//!   in lockstep, which is what lets the calendar queue's buckets,
//!   batching and resizes change without changing an artefact byte.
//!
//! `ties_break_fifo` and `ties_break_fifo_across_interleaved_pops` in
//! `calendar.rs` are the regression tests for the first point.

use crate::time::SimTime;

/// The scheduler contract of the simulation kernel: a deterministic
/// min-priority queue over `(time, global arrival order)`.
///
/// See the module docs for the pinned ordering contract. The production
/// implementation is [`crate::CalendarQueue`] (bucketed calendar queue);
/// the binary-heap reference it is checked against lives in
/// `tests/calendar_oracle.rs`.
pub trait EventSched<E> {
    /// The current simulation time: the timestamp of the last popped event
    /// (or zero before any pop).
    fn now(&self) -> SimTime;

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality
    /// violation, always a simulator bug).
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` `delay` cycles after the current time.
    #[inline]
    fn schedule_after(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Timestamp of the next event without popping it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of pending events over the queue's lifetime — a
    /// cheap proxy for how much in-flight work the simulation carried.
    fn max_len(&self) -> usize;
}
