//! Admission control: a bounded connection queue that sheds load
//! instead of buffering it without limit.
//!
//! The paper's M/M/1 story (eq. 6) is exactly why the old unbounded
//! queue was wrong: as offered load approaches service capacity, queue
//! length — and therefore latency — diverges. Bounding the queue turns
//! that divergence into explicit, observable shedding: a connection
//! that would wait behind more than `max_queue` others, or push the
//! server past `max_conns` total, is answered `503 + Retry-After` at
//! accept time with an `X-Offchip-Shed` reason header, costing the
//! server one small write instead of a worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Admission limits, normally from the binary's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Most connections waiting for a worker before new ones shed.
    pub max_queue: usize,
    /// Most connections queued + being served before new ones shed.
    pub max_conns: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_queue: 128,
            max_conns: 1024,
        }
    }
}

impl AdmissionConfig {
    /// Queue depth above which `/readyz` reports not-ready (3/4 of the
    /// shed point, so orchestrators stop routing before shedding
    /// starts).
    pub fn high_water(&self) -> usize {
        (self.max_queue * 3 / 4).max(1)
    }
}

/// Why a connection was shed at accept time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue is at `max_queue`.
    QueueFull,
    /// Queued + active connections are at `max_conns`.
    ConnsFull,
}

impl ShedReason {
    /// Stable label for the `X-Offchip-Shed` header and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::ConnsFull => "conns-full",
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    active: usize,
    closed: bool,
}

/// The bounded handoff between the accept loop and the worker pool.
pub(crate) struct ConnQueue<T> {
    cfg: AdmissionConfig,
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> ConnQueue<T> {
    pub(crate) fn new(cfg: AdmissionConfig) -> ConnQueue<T> {
        ConnQueue {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                active: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Admits `conn` or sheds it. On admission returns the queue depth
    /// *after* the push (the queue-depth histogram's sample); on shed
    /// the connection comes back so the caller can answer 503 on it.
    pub(crate) fn admit(&self, conn: T) -> Result<usize, (T, ShedReason)> {
        let mut s = self.state.lock().unwrap();
        if s.queue.len() >= self.cfg.max_queue {
            return Err((conn, ShedReason::QueueFull));
        }
        if s.queue.len() + s.active >= self.cfg.max_conns {
            return Err((conn, ShedReason::ConnsFull));
        }
        s.queue.push_back(conn);
        let depth = s.queue.len();
        drop(s);
        self.cond.notify_one();
        Ok(depth)
    }

    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
    }

    /// Next connection (marking it active), or `None` when the queue is
    /// closed and drained. Pair every `Some` with one [`ConnQueue::done`].
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(conn) = s.queue.pop_front() {
                s.active += 1;
                return Some(conn);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap();
        }
    }

    /// Marks one popped connection finished.
    pub(crate) fn done(&self) {
        let mut s = self.state.lock().unwrap();
        s.active = s.active.saturating_sub(1);
    }

    /// `(queued, active)` right now — `/readyz` and the heartbeat.
    pub(crate) fn depth(&self) -> (usize, usize) {
        let s = self.state.lock().unwrap();
        (s.queue.len(), s.active)
    }

    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_queue: usize, max_conns: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_queue,
            max_conns,
        }
    }

    #[test]
    fn queue_full_sheds_with_the_right_reason() {
        let q: ConnQueue<u32> = ConnQueue::new(cfg(2, 10));
        assert_eq!(q.admit(1), Ok(1));
        assert_eq!(q.admit(2), Ok(2));
        assert_eq!(q.admit(3), Err((3, ShedReason::QueueFull)));
        // Draining one admits one more.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.admit(3), Ok(2));
    }

    #[test]
    fn conns_full_counts_queued_plus_active() {
        let q: ConnQueue<u32> = ConnQueue::new(cfg(10, 2));
        assert_eq!(q.admit(1), Ok(1));
        assert_eq!(q.pop(), Some(1)); // 0 queued, 1 active
        assert_eq!(q.admit(2), Ok(1)); // 1 queued, 1 active = at cap
        assert_eq!(q.admit(3), Err((3, ShedReason::ConnsFull)));
        q.done(); // active back to 0
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.admit(3), Ok(1));
    }

    #[test]
    fn close_drains_then_ends() {
        let q: ConnQueue<u32> = ConnQueue::new(cfg(4, 8));
        q.admit(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7), "queued work still drains");
        assert_eq!(q.pop(), None, "then the pool winds down");
        assert_eq!(
            q.admit(8),
            Ok(1),
            "close stops workers, not admission bookkeeping"
        );
    }

    #[test]
    fn high_water_sits_below_the_shed_point() {
        let c = cfg(128, 1024);
        assert!(c.high_water() < c.max_queue);
        assert_eq!(c.high_water(), 96);
        assert_eq!(cfg(1, 2).high_water(), 1, "never zero");
    }
}
