//! Request-scoped tracing: deterministic ids, a bounded cross-thread span
//! store, and per-trace Perfetto / span-tree rendering.
//!
//! [`trace`](crate::trace) records *one simulator run* into a global ring;
//! this module records *one request* into a per-trace buffer so a serving
//! process can answer "where did request `…1f4` spend its time" long after
//! the response was written. The two meet in the exports: a request's
//! buffer renders as the same Chrome `trace_event` JSON the CLI tracer
//! emits, so one Perfetto tab shows HTTP parse → queue wait → fill →
//! per-point sim → response write.
//!
//! # Determinism contract
//!
//! Trace **ids** contain no wall clock and no randomness: they are derived
//! with [`derive_trace_id`] from the accepting connection's counter and
//! the request's sequence number on that connection, so a traced run and
//! an untraced run produce byte-identical simulation artefacts and
//! response bodies (the id is metadata in headers/journals only).
//! Span **timestamps** are real microseconds ([`now_us`]) — they exist
//! only in trace exports, which are debug artefacts, never experiment
//! outputs.
//!
//! # Bounds
//!
//! The store keeps at most [`MAX_TRACES`] traces and [`MAX_SPANS`] spans
//! per trace; beyond that, the oldest finished trace is evicted and extra
//! spans are counted but dropped. A fill that outlives its request keeps
//! appending spans to the finished trace — post-mortem pulls of
//! `/debug/trace/<id>` see the full tree.

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::log::json_escape_into;

/// Maximum number of live + finished traces retained.
pub const MAX_TRACES: usize = 256;

/// Maximum spans buffered per trace; excess spans are dropped (counted).
pub const MAX_SPANS: usize = 4096;

/// Bits of the trace id carrying the per-connection request sequence.
const SEQ_BITS: u32 = 20;

/// Derives a deterministic trace id from the accepting connection's
/// counter (1-based) and the request's sequence on that connection
/// (0-based). No wall clock, no randomness — two runs of the same request
/// schedule derive the same ids. The result is never 0 (0 means "no
/// trace").
pub fn derive_trace_id(conn: u64, req_seq: u64) -> u64 {
    let id = (conn << SEQ_BITS) | (req_seq & ((1 << SEQ_BITS) - 1));
    if id == 0 {
        1 << SEQ_BITS
    } else {
        id
    }
}

/// A lightweight handle tying work done on behalf of a request (campaign
/// fills, sim points) back to its trace: the trace id plus the span the
/// work should parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Owning trace id (never 0).
    pub trace: u64,
    /// Parent span id within that trace.
    pub parent: u64,
}

impl TraceRef {
    /// The no-trace sentinel: every span call under it is a no-op.
    pub const NONE: TraceRef = TraceRef { trace: 0, parent: 0 };

    /// True when this handle points at a real trace.
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

/// One buffered span. `dur_us == 0` with a still-open span means "not yet
/// closed"; zero-duration instant spans (breaker decisions) close at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpan {
    /// Span id, unique within the trace (1-based; root is 1).
    pub id: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    /// Static span name (`request`, `http.parse`, `fill`, `sim.point`, …).
    pub name: &'static str,
    /// Free-form detail (`n=64 seed=1`, `key=uma/CG.S`, …).
    pub detail: String,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<ReqSpan>,
    next_span: u64,
    open: HashMap<u64, u64>, // span id → start_us of still-open spans
    finished: bool,
    dropped: u64,
}

#[derive(Debug, Default)]
struct Store {
    traces: HashMap<u64, TraceBuf>,
    order: VecDeque<u64>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

/// Microseconds since the process trace epoch (first call wins).
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Sets this thread's active trace id (0 clears). The JSON log format
/// stamps every record with it; campaign workers set it around each point
/// executed on behalf of a traced request.
pub fn set_current_trace(trace: u64) {
    CURRENT.with(|c| c.set(trace));
}

/// This thread's active trace id, 0 when none.
pub fn current_trace() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Guard restoring the previous thread-local trace id on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl TraceScope {
    /// Sets `trace` as the thread's active trace until the guard drops.
    pub fn enter(trace: u64) -> TraceScope {
        let prev = current_trace();
        set_current_trace(trace);
        TraceScope { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_current_trace(self.prev);
    }
}

fn evict_locked(s: &mut Store) {
    while s.traces.len() >= MAX_TRACES {
        // Prefer the oldest finished trace; fall back to the oldest.
        let victim = s
            .order
            .iter()
            .position(|id| s.traces.get(id).is_none_or(|t| t.finished))
            .unwrap_or(0);
        if let Some(id) = s.order.remove(victim) {
            s.traces.remove(&id);
        } else {
            break;
        }
    }
}

/// Creates the trace buffer and opens its root span, returning the root
/// span id (always 1). Idempotent: re-beginning an existing trace opens a
/// fresh root under it instead of clearing buffered spans.
pub fn trace_begin(trace: u64, name: &'static str, detail: String) -> u64 {
    span_open(trace, 0, name, detail)
}

/// Opens a span; returns its id for use as a parent / for [`span_close`].
/// Creates the trace buffer on first use.
pub fn span_open(trace: u64, parent: u64, name: &'static str, detail: String) -> u64 {
    if trace == 0 {
        return 0;
    }
    let t = now_us();
    let mut s = store().lock().unwrap();
    if !s.traces.contains_key(&trace) {
        evict_locked(&mut s);
        s.order.push_back(trace);
        s.traces.insert(trace, TraceBuf::default());
    }
    let buf = s.traces.get_mut(&trace).unwrap();
    buf.next_span += 1;
    let id = buf.next_span;
    if buf.spans.len() >= MAX_SPANS {
        buf.dropped += 1;
        return id;
    }
    buf.open.insert(id, t);
    buf.spans.push(ReqSpan {
        id,
        parent,
        name,
        detail,
        start_us: t,
        dur_us: 0,
    });
    id
}

/// Closes a span opened with [`span_open`], fixing its duration.
pub fn span_close(trace: u64, span: u64) {
    if trace == 0 || span == 0 {
        return;
    }
    let t = now_us();
    let mut s = store().lock().unwrap();
    if let Some(buf) = s.traces.get_mut(&trace) {
        if let Some(start) = buf.open.remove(&span) {
            if let Some(sp) = buf.spans.iter_mut().find(|sp| sp.id == span) {
                sp.dur_us = t.saturating_sub(start);
            }
        }
    }
}

/// Records a complete span in one shot (open + close). Pass `dur_us` 0
/// for instant events (breaker decisions, sheds).
pub fn span_event(trace: u64, parent: u64, name: &'static str, detail: String, dur_us: u64) -> u64 {
    if trace == 0 {
        return 0;
    }
    let id = span_open(trace, parent, name, detail);
    let mut s = store().lock().unwrap();
    if let Some(buf) = s.traces.get_mut(&trace) {
        buf.open.remove(&id);
        if let Some(sp) = buf.spans.iter_mut().find(|sp| sp.id == id) {
            sp.dur_us = dur_us;
            sp.start_us = sp.start_us.saturating_sub(dur_us);
        }
    }
    id
}

/// Marks the trace finished (eviction prefers finished traces). Spans are
/// still accepted afterwards — a fill outliving its request keeps
/// reporting into the finished trace.
pub fn trace_finish(trace: u64) {
    if trace == 0 {
        return;
    }
    let mut s = store().lock().unwrap();
    if let Some(buf) = s.traces.get_mut(&trace) {
        buf.finished = true;
    }
}

/// A copy of the trace's spans, in open order. `None` for unknown ids.
pub fn trace_spans(trace: u64) -> Option<Vec<ReqSpan>> {
    let s = store().lock().unwrap();
    s.traces.get(&trace).map(|b| b.spans.clone())
}

/// Renders a trace as a span-tree JSON document:
///
/// ```json
/// {"trace_id":"0000000000100000","spans":[{"id":1,"parent":0,...}]}
/// ```
///
/// `None` for unknown ids.
pub fn trace_tree_json(trace: u64) -> Option<String> {
    let spans = trace_spans(trace)?;
    let mut out = format!("{{\"trace_id\":\"{trace:016x}\",\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"",
            sp.id, sp.parent, sp.name
        ));
        json_escape_into(&mut out, &sp.detail);
        out.push_str(&format!(
            "\",\"start_us\":{},\"dur_us\":{}}}",
            sp.start_us, sp.dur_us
        ));
    }
    out.push_str("]}");
    Some(out)
}

/// Renders a trace as Chrome `trace_event` JSON (the same shape as
/// [`chrome_trace_json`](crate::chrome_trace_json)), loadable in Perfetto
/// / `chrome://tracing`. `None` for unknown ids.
pub fn trace_perfetto_json(trace: u64) -> Option<String> {
    let spans = trace_spans(trace)?;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut name = String::new();
        json_escape_into(&mut name, sp.name);
        let mut detail = String::new();
        json_escape_into(&mut detail, &sp.detail);
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{trace:016x}\",\"span\":{},\
             \"parent\":{},\"detail\":\"{detail}\"}}}}",
            sp.start_us, sp.dur_us, sp.parent, sp.id, sp.parent
        ));
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"trace_id\":\"{trace:016x}\",\
         \"clock\":\"us\"}}}}"
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_nonzero() {
        assert_eq!(derive_trace_id(1, 0), 1 << SEQ_BITS);
        assert_eq!(derive_trace_id(1, 0), derive_trace_id(1, 0));
        assert_ne!(derive_trace_id(1, 0), derive_trace_id(1, 1));
        assert_ne!(derive_trace_id(1, 1), derive_trace_id(2, 1));
        assert_ne!(derive_trace_id(0, 0), 0);
        // Sequence wraps into its field instead of bleeding into conn bits.
        assert_eq!(derive_trace_id(3, 1 << SEQ_BITS), derive_trace_id(3, 0));
    }

    #[test]
    fn span_tree_parentage_round_trips() {
        let id = derive_trace_id(900, 1);
        let root = trace_begin(id, "request", "POST /predict".into());
        assert_eq!(root, 1);
        let parse = span_open(id, root, "http.parse", String::new());
        span_close(id, parse);
        let fill = span_open(id, root, "fill", "key=uma/CG.S".into());
        span_event(id, fill, "sim.point", "n=8 seed=1".into(), 12);
        span_close(id, fill);
        span_close(id, root);
        trace_finish(id);
        let spans = trace_spans(id).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert!(spans
            .iter()
            .all(|s| s.parent == 0 || spans.iter().any(|p| p.id == s.parent)));
        let tree = trace_tree_json(id).unwrap();
        assert!(tree.contains("\"name\":\"sim.point\""));
        let perfetto = trace_perfetto_json(id).unwrap();
        assert!(perfetto.contains("\"ph\":\"X\""));
        assert!(perfetto.contains("\"traceEvents\":["));
    }

    #[test]
    fn spans_land_after_finish() {
        let id = derive_trace_id(901, 7);
        let root = trace_begin(id, "request", String::new());
        span_close(id, root);
        trace_finish(id);
        span_event(id, root, "sim.point", "late".into(), 3);
        assert_eq!(trace_spans(id).unwrap().len(), 2);
    }

    #[test]
    fn unknown_and_zero_traces_are_inert() {
        assert_eq!(span_open(0, 0, "x", String::new()), 0);
        span_close(0, 0);
        trace_finish(0);
        assert!(trace_spans(0xdead_beef_0000_0001).is_none());
        assert!(trace_tree_json(0xdead_beef_0000_0001).is_none());
    }

    #[test]
    fn scope_restores_previous_trace() {
        set_current_trace(0);
        {
            let _g = TraceScope::enter(42);
            assert_eq!(current_trace(), 42);
            {
                let _h = TraceScope::enter(43);
                assert_eq!(current_trace(), 43);
            }
            assert_eq!(current_trace(), 42);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn span_cap_drops_but_counts() {
        let id = derive_trace_id(902, 0);
        let root = trace_begin(id, "request", String::new());
        for _ in 0..(MAX_SPANS + 10) {
            span_event(id, root, "sim.point", String::new(), 1);
        }
        assert_eq!(trace_spans(id).unwrap().len(), MAX_SPANS);
    }
}
