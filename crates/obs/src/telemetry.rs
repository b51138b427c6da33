//! Per-memory-controller observers: queue-wait and queue-depth
//! histograms, plus DRAM service spans when the run is traced.
//!
//! A [`McObs`] is owned by one memory-controller model for one run (so
//! recording is plain, non-atomic work) and drained at end of run into
//! the registry and the current trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::metrics::Histogram;
use crate::trace::Span;

/// Hard cap on per-controller DRAM service spans kept per traced run.
const MAX_MC_SPANS: usize = 1 << 18;

/// Per-run, per-controller observer: fed from the DRAM service path.
///
/// The controller calls [`McObs::record`] once per serviced request; the
/// observer maintains queue-wait and queue-depth histograms and (when
/// the run is traced) one `"dram"` span per request.
#[derive(Debug, Clone)]
pub struct McObs {
    mc: usize,
    /// Most DRAM spans kept; `None` collects none.
    span_cap: Option<usize>,
    queue_wait: Histogram,
    queue_depth: Histogram,
    /// Completion times of requests in flight, min-first.
    outstanding: BinaryHeap<Reverse<u64>>,
    spans: Vec<Span>,
    spans_dropped: u64,
}

impl McObs {
    /// A fresh observer for controller `mc`. `span_room` `Some(n)`
    /// additionally collects up to `n` DRAM service spans (the run
    /// trace's [`run_room`](crate::run_room)), and counts the rest as
    /// dropped.
    pub fn new(mc: usize, span_room: Option<usize>) -> McObs {
        McObs {
            mc,
            span_cap: span_room.map(|room| room.min(MAX_MC_SPANS)),
            queue_wait: Histogram::new(),
            queue_depth: Histogram::new(),
            outstanding: BinaryHeap::new(),
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Records one serviced request.
    ///
    /// `arrival` is when the request entered the controller, `now` the
    /// (non-decreasing) time the service decision was made, `wait` the
    /// queueing delay in cycles, and `completion` when the data leaves
    /// the controller.
    pub fn record(&mut self, arrival: u64, now: u64, wait: u64, completion: u64) {
        while let Some(&Reverse(done)) = self.outstanding.peek() {
            if done <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        self.outstanding.push(Reverse(completion));
        self.queue_wait.record(wait);
        self.queue_depth.record(self.outstanding.len() as u64);
        if let Some(cap) = self.span_cap {
            if self.spans.len() < cap {
                let dur = completion.saturating_sub(arrival);
                self.spans
                    .push(Span::run("dram", arrival, dur, self.mc as u32));
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    /// The queue-wait histogram (cycles each request queued).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// The queue-depth histogram (outstanding requests at each arrival).
    pub fn queue_depth(&self) -> &Histogram {
        &self.queue_depth
    }

    /// The collected DRAM spans (empty unless tracing) and the count
    /// discarded past the per-controller cap.
    pub fn spans(&self) -> (&[Span], u64) {
        (&self.spans, self.spans_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_waits_and_depths() {
        let mut o = McObs::new(0, None);
        // Two overlapping requests, then one after both completed.
        o.record(10, 10, 0, 50);
        o.record(20, 20, 5, 80);
        o.record(250, 255, 7, 300);
        assert_eq!(o.queue_wait().count(), 3);
        assert_eq!(o.queue_wait().max(), 7);
        // Second request saw both outstanding; third saw only itself.
        assert_eq!(o.queue_depth().max(), 2);
        assert_eq!(o.queue_depth().count(), 3);
    }

    #[test]
    fn trace_level_collects_dram_spans() {
        let mut o = McObs::new(2, Some(1));
        o.record(100, 100, 3, 180);
        o.record(200, 200, 0, 240);
        let (spans, dropped) = o.spans();
        assert_eq!((spans.len(), dropped), (1, 1), "room for one span");
        assert_eq!(spans[0].name, "dram");
        assert_eq!(spans[0].ts, 100);
        assert_eq!(spans[0].dur, 80);
        assert_eq!(spans[0].tid, 2);
    }
}
