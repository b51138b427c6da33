//! Span tracing with Chrome `trace_event` export.
//!
//! Runs collect [`Span`]s into per-run buffers (machine and DRAM layers)
//! and flush them into one bounded process-global ring; the CLI's
//! `--trace out.json` drains the ring into a JSON file that loads
//! directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The ring exists only while a consumer holds it open: from
//! [`open_trace_ring`] to [`take_spans`]. Outside that window
//! [`push_spans`] discards, so a process running at `ObsLevel::Trace`
//! that never drains the ring (a server, a campaign binary) keeps no
//! spans.
//!
//! Timestamps are **core-clock cycles**, not microseconds; the viewers
//! render them on a linear axis either way (documented in DESIGN.md §10).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// A completed-duration (`"ph":"X"`) trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Event name shown on the slice (static by design: span emission
    /// must not allocate).
    pub name: &'static str,
    /// Category (`"sim"`, `"dram"`).
    pub cat: &'static str,
    /// Start time in cycles.
    pub ts: u64,
    /// Duration in cycles.
    pub dur: u64,
    /// Process lane: the run index within the process (one sweep point =
    /// one lane group in the viewer).
    pub pid: u32,
    /// Thread lane: core index, or controller index for DRAM spans.
    pub tid: u32,
}

/// Upper bound on spans retained process-wide; later spans are counted
/// as dropped instead of growing without limit.
pub const TRACE_CAPACITY: usize = 1 << 20;

static RING: Mutex<Option<Vec<Span>>> = Mutex::new(None);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_PID: AtomicU32 = AtomicU32::new(0);

/// Allocates the next run lane (`pid`) for trace spans.
pub fn next_trace_pid() -> u32 {
    NEXT_PID.fetch_add(1, Ordering::Relaxed)
}

/// Appends a run's spans to the global ring, honouring
/// [`TRACE_CAPACITY`]; overflow increments the dropped count. Leaves
/// `spans` empty; with the ring closed the spans are simply discarded.
pub fn push_spans(spans: &mut Vec<Span>) {
    if spans.is_empty() {
        return;
    }
    let mut guard = RING.lock().expect("trace ring lock poisoned");
    let Some(ring) = guard.as_mut() else {
        spans.clear();
        return;
    };
    let room = TRACE_CAPACITY.saturating_sub(ring.len());
    let take = spans.len().min(room);
    ring.extend(spans.drain(..take));
    let overflow = spans.len() as u64;
    if overflow > 0 {
        DROPPED.fetch_add(overflow, Ordering::Relaxed);
        spans.clear();
    }
}

/// Drains every span collected since [`open_trace_ring`], sorted by
/// (pid, tid, ts), and closes the ring.
pub fn take_spans() -> Vec<Span> {
    let mut spans = RING
        .lock()
        .expect("trace ring lock poisoned")
        .take()
        .unwrap_or_default();
    spans.sort_by_key(|s| (s.pid, s.tid, s.ts, s.dur));
    spans
}

/// Spans discarded because the ring was full.
pub fn trace_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Opens an empty ring and zeroes the dropped count and the pid
/// allocator: the consumer's call before the runs it will drain with
/// [`take_spans`].
pub fn open_trace_ring() {
    *RING.lock().expect("trace ring lock poisoned") = Some(Vec::new());
    DROPPED.store(0, Ordering::Relaxed);
    NEXT_PID.store(0, Ordering::Relaxed);
}

/// Renders spans as a Chrome `trace_event` JSON document:
/// `{"traceEvents":[{"name":…,"ph":"X",…}, …]}`.
///
/// Span names/categories are static identifiers chosen in this codebase
/// (no quotes or escapes), so the literal embedding below is sound.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
            s.name, s.cat, s.ts, s.dur, s.pid, s.tid
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"cycles\"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(ts: u64) -> Span {
        Span {
            name: "mem_stall",
            cat: "sim",
            ts,
            dur: 10,
            pid: 0,
            tid: 1,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[span(5), span(20)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":5"));
        assert!(json.contains("\"dur\":10"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        // Use a local pattern: the global ring is shared across tests in
        // this binary, so exercise only relative behaviour.
        open_trace_ring();
        let mut spans: Vec<Span> = (0..10).map(span).collect();
        push_spans(&mut spans);
        assert!(spans.is_empty());
        let drained = take_spans();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Draining closed the ring: later spans are discarded.
        let mut late: Vec<Span> = (0..3).map(span).collect();
        push_spans(&mut late);
        assert!(late.is_empty());
        assert!(take_spans().is_empty());
        assert_eq!(trace_dropped(), 0, "discarding is not dropping");
    }

    #[test]
    fn pids_are_unique() {
        let a = next_trace_pid();
        let b = next_trace_pid();
        assert_ne!(a, b);
    }
}
