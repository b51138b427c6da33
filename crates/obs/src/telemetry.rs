//! Per-memory-controller telemetry: queue histograms plus a windowed
//! time series generalising the 5 µs burst sampler.
//!
//! A [`McObs`] is owned by one memory-controller model for one run (so
//! recording is plain, non-atomic work) and drained at end of run into
//! the registry and the report's [`Telemetry`] section.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::metrics::Histogram;
use crate::trace::Span;

/// Hard cap on time-series windows per controller: beyond this the series
/// stops growing (the histograms keep counting), so a pathological window
/// size cannot balloon memory.
pub const MAX_WINDOWS: usize = 1 << 20;

/// Hard cap on per-controller DRAM service spans kept at `Trace` level.
const MAX_MC_SPANS: usize = 1 << 18;

/// One telemetry window of a controller's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryWindow {
    /// Requests that *arrived* in this window (bandwidth proxy: multiply
    /// by the line size and divide by the window length for bytes/cycle).
    pub requests: u64,
    /// Sum of queueing waits of those requests, in cycles.
    pub wait_sum: u64,
    /// Peak simultaneously outstanding requests observed in the window.
    pub peak_outstanding: u64,
}

/// The windowed series of one memory controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McSeries {
    /// Controller index (machine order).
    pub mc: usize,
    /// One cell per window, from cycle 0 upward.
    pub windows: Vec<TelemetryWindow>,
}

/// The `telemetry` section of a run report: every controller's series
/// under one window size.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Window length in core-clock cycles.
    pub window_cycles: u64,
    /// One series per memory controller.
    pub per_mc: Vec<McSeries>,
}

impl Telemetry {
    /// Total requests across all controllers and windows.
    pub fn total_requests(&self) -> u64 {
        self.per_mc
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.requests)
            .sum()
    }

    /// Renders the series as CSV (`mc,window,start_cycle,...`), one row
    /// per non-degenerate window.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("mc,window,start_cycle,requests,wait_sum,mean_wait,peak_outstanding\n");
        for series in &self.per_mc {
            for (i, w) in series.windows.iter().enumerate() {
                let mean = if w.requests == 0 {
                    0.0
                } else {
                    w.wait_sum as f64 / w.requests as f64
                };
                out.push_str(&format!(
                    "{},{},{},{},{},{:.3},{}\n",
                    series.mc,
                    i,
                    i as u64 * self.window_cycles,
                    w.requests,
                    w.wait_sum,
                    mean,
                    w.peak_outstanding
                ));
            }
        }
        out
    }
}

/// Per-run, per-controller observer: fed from the DRAM service path.
///
/// The controller calls [`McObs::record`] once per serviced request; the
/// observer maintains queue-wait and queue-depth histograms, the windowed
/// series, and (at `Trace` level) one `"dram"` span per request.
#[derive(Debug, Clone)]
pub struct McObs {
    mc: usize,
    window: u64,
    /// Most DRAM spans kept; `None` collects none.
    span_cap: Option<usize>,
    queue_wait: Histogram,
    queue_depth: Histogram,
    windows: Vec<TelemetryWindow>,
    /// Completion times of requests in flight, min-first.
    outstanding: BinaryHeap<Reverse<u64>>,
    spans: Vec<Span>,
    spans_dropped: u64,
}

impl McObs {
    /// A fresh observer for controller `mc`. `window_cycles == 0`
    /// disables the time series (histograms still record). `span_room`
    /// `Some(n)` additionally collects up to `n` DRAM service spans
    /// (the run trace's [`run_room`](crate::run_room)), and counts the
    /// rest as dropped.
    pub fn new(mc: usize, window_cycles: u64, span_room: Option<usize>) -> McObs {
        McObs {
            mc,
            window: window_cycles,
            span_cap: span_room.map(|room| room.min(MAX_MC_SPANS)),
            queue_wait: Histogram::new(),
            queue_depth: Histogram::new(),
            windows: Vec::new(),
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
        let depth = self.outstanding.len() as u64;
        self.queue_wait.record(wait);
        self.queue_depth.record(depth);
        if let Some(idx) = arrival.checked_div(self.window) {
            let idx = idx as usize;
            if idx < MAX_WINDOWS {
                if idx >= self.windows.len() {
                    self.windows.resize(idx + 1, TelemetryWindow::default());
                }
                let cell = &mut self.windows[idx];
                cell.requests += 1;
                cell.wait_sum += wait;
                cell.peak_outstanding = cell.peak_outstanding.max(depth);
            }
        }
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

    /// The windowed series recorded so far, padded to cover `end`.
    pub fn series(&self, end: u64) -> McSeries {
        let mut windows = self.windows.clone();
        if let Some(n) = end.checked_div(self.window) {
            let want = (n as usize + 1).min(MAX_WINDOWS);
            if windows.len() < want {
                windows.resize(want, TelemetryWindow::default());
            }
        }
        McSeries {
            mc: self.mc,
            windows,
        }
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
    fn record_tracks_waits_depths_and_windows() {
        let mut o = McObs::new(0, 100, None);
        // Two overlapping requests in window 0, one in window 2.
        o.record(10, 10, 0, 50);
        o.record(20, 20, 5, 80);
        o.record(250, 255, 7, 300);
        assert_eq!(o.queue_wait().count(), 3);
        assert_eq!(o.queue_wait().max(), 7);
        // Second request saw both outstanding; third saw only itself.
        assert_eq!(o.queue_depth().max(), 2);
        let s = o.series(299);
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.windows[0].requests, 2);
        assert_eq!(s.windows[0].wait_sum, 5);
        assert_eq!(s.windows[0].peak_outstanding, 2);
        assert_eq!(s.windows[1].requests, 0);
        assert_eq!(s.windows[2].requests, 1);
    }

    #[test]
    fn series_pads_idle_tail() {
        let mut o = McObs::new(1, 10, None);
        o.record(5, 5, 0, 9);
        let s = o.series(95);
        assert_eq!(s.windows.len(), 10);
        assert!(s.windows[9].requests == 0);
    }

    #[test]
    fn trace_level_collects_dram_spans() {
        let mut o = McObs::new(2, 0, Some(1));
        o.record(100, 100, 3, 180);
        o.record(200, 200, 0, 240);
        let (spans, dropped) = o.spans();
        assert_eq!((spans.len(), dropped), (1, 1), "room for one span");
        assert_eq!(spans[0].name, "dram");
        assert_eq!(spans[0].ts, 100);
        assert_eq!(spans[0].dur, 80);
        assert_eq!(spans[0].tid, 2);
    }

    #[test]
    fn telemetry_csv_has_one_row_per_window() {
        let t = Telemetry {
            window_cycles: 100,
            per_mc: vec![McSeries {
                mc: 0,
                windows: vec![
                    TelemetryWindow {
                        requests: 2,
                        wait_sum: 10,
                        peak_outstanding: 2,
                    },
                    TelemetryWindow::default(),
                ],
            }],
        };
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,0,0,2,10,5.000,2"));
        assert_eq!(t.total_requests(), 2);
    }
}
