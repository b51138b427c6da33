//! The span store: bounded cross-thread maps of traces, rendered as
//! Chrome `trace_event` JSON (Perfetto, `chrome://tracing`) or as a span
//! tree.
//!
//! A [`TraceStore`] is a value: a server owns one, the CLI builds one per
//! command (for its `--trace`), and each test builds its own. Whoever begins a trace
//! chooses what it holds ([`TraceStore::begin`]). A *request trace* (a
//! served request) holds a span tree. A *run trace* (the CLI's `--trace`)
//! holds a tree too, plus one *lane* of simulator spans per run that
//! finished under it. Work done for a trace finds it through the thread's
//! context, a [`TraceRef`] (which points into its store) entered with
//! [`TraceScope`]; a run collects spans only when that trace takes runs,
//! and only as many as it has room for ([`run_room`]).
//!
//! Trace ids contain no wall clock and no randomness
//! ([`derive_trace_id`]), so traced and untraced runs produce the same
//! artefacts and response bodies. Tree spans are wall-clock microseconds
//! since the store's creation, on `pid` 0 of the Chrome export; run spans
//! are core-clock cycles, the k-th run to finish on `pid` k.
//!
//! # Bounds
//!
//! Per store, at most [`MAX_TRACES`] traces: beginning another evicts the
//! oldest finished trace, or the oldest trace when none is finished. Per
//! trace, at most [`MAX_SPANS`] tree spans and [`MAX_RUN_SPANS`] run
//! spans: two budgets, so lanes cannot crowd out the tree. A trace counts
//! every span it refused and every span its runs dropped
//! (`otherData.dropped`). A trace is finished when a root span closes; it
//! still accepts spans, so a fill that outlives its request completes the
//! tree. Spans for an unknown (never begun or evicted) trace are
//! discarded.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::log::json_escape_into;

/// Most traces one store retains.
pub const MAX_TRACES: usize = 256;

/// Most tree spans one trace retains; later ones are counted as dropped.
pub const MAX_SPANS: usize = 4096;

/// Most run spans one run trace retains; later ones are counted as
/// dropped.
pub const MAX_RUN_SPANS: usize = 1 << 20;

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

/// Microseconds since `origin` (a store's creation).
fn micros_since(origin: Instant) -> u64 {
    origin.elapsed().as_micros() as u64
}

/// A completed-duration (`"ph":"X"`) span: a tree span (lane 0) or a run
/// span (lane ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name (static: recording a run span must not allocate).
    pub name: &'static str,
    /// Start: microseconds for tree spans, cycles for run spans.
    pub ts: u64,
    /// Duration, in the unit of `ts`.
    pub dur: u64,
    /// 0 for the tree; k for the trace's k-th finished run.
    pub lane: u32,
    /// Run spans: thread index, or controller index for `dram`.
    pub tid: u32,
    /// Tree spans: the id (1-based, in open order).
    pub id: u32,
    /// Tree spans: the parent's id, 0 for a root.
    pub parent: u32,
}

impl Span {
    /// A run span; [`push_run`] assigns its lane.
    pub const fn run(name: &'static str, ts: u64, dur: u64, tid: u32) -> Span {
        Span {
            name,
            ts,
            dur,
            lane: 0,
            tid,
            id: 0,
            parent: 0,
        }
    }
}

/// A place in a trace: its store and id, and the span that work done
/// there parents under. The thread's context is one of these.
#[derive(Debug, Clone)]
pub struct TraceRef {
    /// `None`: no trace.
    store: Option<TraceStore>,
    /// Trace id (0: no trace).
    pub trace: u64,
    /// Parent span id within that trace.
    pub parent: u32,
}

impl TraceRef {
    /// No trace: every span call under it is a no-op.
    pub const NONE: TraceRef = TraceRef {
        store: None,
        trace: 0,
        parent: 0,
    };
}

thread_local! {
    static CURRENT: RefCell<TraceRef> = const { RefCell::new(TraceRef::NONE) };
}

/// This thread's trace context ([`TraceRef::NONE`] outside any
/// [`TraceScope`]).
pub fn current() -> TraceRef {
    CURRENT.with(|c| c.borrow().clone())
}

/// Guard holding a thread's trace context; the previous one is restored
/// on drop. Log records carry the context's trace id, and simulator runs
/// push their lanes into its trace.
#[derive(Debug)]
#[must_use = "the context ends when the guard drops"]
pub struct TraceScope {
    prev: TraceRef,
}

impl TraceScope {
    /// Makes `ctx` the thread's trace context until the guard drops.
    pub fn enter(ctx: TraceRef) -> TraceScope {
        TraceScope {
            prev: CURRENT.with(|c| c.replace(ctx)),
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let prev = std::mem::replace(&mut self.prev, TraceRef::NONE);
        CURRENT.with(|c| c.replace(prev));
    }
}

#[derive(Debug)]
struct Trace {
    /// Tree spans in open order: span id k is at index k - 1.
    tree: Vec<Span>,
    /// Non-empty tree-span details, by span id.
    details: BTreeMap<u32, String>,
    /// Run spans; `None` for a trace that takes no runs.
    runs: Option<Vec<Span>>,
    lanes: u32,
    dropped: u64,
    /// A root span has closed: eviction takes finished traces first.
    finished: bool,
}

impl Trace {
    fn detail(&self, id: u32) -> &str {
        self.details.get(&id).map_or("", String::as_str)
    }

    fn tree_json(&self, trace: u64) -> String {
        let mut out = format!("{{\"trace_id\":\"{trace:016x}\",\"spans\":[");
        for (i, s) in self.tree.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"",
                s.id, s.parent, s.name
            );
            json_escape_into(&mut out, self.detail(s.id));
            let _ = write!(out, "\",\"start_us\":{},\"dur_us\":{}}}", s.ts, s.dur);
        }
        out + "]}"
    }

    /// Span names are static identifiers of this codebase (no quotes or
    /// escapes), so they are embedded literally.
    fn chrome_json(&self, trace: u64) -> String {
        let runs = self.runs.as_deref().unwrap_or_default();
        let mut out = String::with_capacity(128 + (self.tree.len() + runs.len()) * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.tree.iter().chain(runs).enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let (cat, tid) = match (s.lane, s.name) {
                (0, _) => ("request", s.parent),
                (_, "dram") => ("dram", s.tid),
                _ => ("sim", s.tid),
            };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{tid}",
                s.name, s.ts, s.dur, s.lane
            );
            if s.lane == 0 {
                let _ = write!(
                    out,
                    ",\"args\":{{\"trace\":\"{trace:016x}\",\"span\":{},\"parent\":{},\
                     \"detail\":\"",
                    s.id, s.parent
                );
                json_escape_into(&mut out, self.detail(s.id));
                out.push_str("\"}");
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"trace_id\":\"{trace:016x}\",\
             \"clock\":\"pid 0 in us, run pids in cycles\",\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }
}

/// A store's capacity limits.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    traces: usize,
    spans: usize,
    run_spans: usize,
}

#[derive(Debug)]
struct Store {
    bounds: Bounds,
    /// Tree timestamps count µs from here, the store's creation.
    origin: Instant,
    traces: BTreeMap<u64, Trace>,
    /// Trace ids in begin order: the eviction order.
    order: VecDeque<u64>,
}

const BOUNDS: Bounds = Bounds {
    traces: MAX_TRACES,
    spans: MAX_SPANS,
    run_spans: MAX_RUN_SPANS,
};

/// A bounded store of traces with its own clock (see the module docs).
/// Cloning shares the store, as every [`TraceRef`] into it does.
#[derive(Debug, Clone)]
pub struct TraceStore(Arc<Mutex<Store>>);

impl Default for TraceStore {
    /// An empty store whose clock starts now.
    fn default() -> TraceStore {
        TraceStore(Arc::new(Mutex::new(Store::new(BOUNDS))))
    }
}

impl Store {
    fn new(bounds: Bounds) -> Store {
        Store {
            bounds,
            origin: Instant::now(),
            traces: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Creates the trace if it is new, evicting to stay in bounds.
    fn begin(&mut self, trace: u64, runs: bool) {
        if self.traces.contains_key(&trace) {
            return;
        }
        while self.traces.len() >= self.bounds.traces {
            let finished = self.order.iter().position(|id| self.traces[id].finished);
            let Some(id) = self.order.remove(finished.unwrap_or(0)) else {
                break;
            };
            self.traces.remove(&id);
        }
        self.order.push_back(trace);
        let trace_buf = Trace {
            tree: Vec::new(),
            details: BTreeMap::new(),
            runs: runs.then(Vec::new),
            lanes: 0,
            dropped: 0,
            finished: false,
        };
        self.traces.insert(trace, trace_buf);
    }

    /// Records a tree span that started `dur` µs ago; returns its id, 0
    /// when the trace is unknown or its tree is full.
    fn record(&mut self, at: &TraceRef, name: &'static str, detail: String, dur: u64) -> u32 {
        let Some(t) = self.traces.get_mut(&at.trace) else {
            return 0;
        };
        if t.tree.len() >= self.bounds.spans {
            t.dropped += 1;
            return 0;
        }
        let id = t.tree.len() as u32 + 1;
        let ts = micros_since(self.origin).saturating_sub(dur);
        t.tree.push(Span {
            name,
            ts,
            dur,
            lane: 0,
            tid: 0,
            id,
            parent: at.parent,
        });
        if !detail.is_empty() {
            t.details.insert(id, detail);
        }
        id
    }

    fn close(&mut self, span: &TraceRef) {
        let Some(t) = self.traces.get_mut(&span.trace) else {
            return;
        };
        let i = (span.parent as usize).checked_sub(1);
        if let Some(s) = i.and_then(|i| t.tree.get_mut(i)) {
            s.dur = micros_since(self.origin).saturating_sub(s.ts);
            t.finished |= s.parent == 0;
        }
    }

    /// Appends one run's spans to a run trace as its next lane; a trace
    /// that takes no runs ignores them.
    fn push_run(&mut self, trace: u64, spans: &[Span], dropped: u64) {
        let Some(t) = self.traces.get_mut(&trace) else {
            return;
        };
        let Some(runs) = t.runs.as_mut() else {
            return;
        };
        t.lanes += 1;
        let lane = t.lanes;
        let take = spans
            .len()
            .min(self.bounds.run_spans.saturating_sub(runs.len()));
        runs.extend(spans[..take].iter().map(|s| Span { lane, ..*s }));
        t.dropped += dropped + (spans.len() - take) as u64;
    }
}

impl TraceStore {
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.0.lock().expect("span store lock poisoned")
    }

    /// Begins trace `trace` (creating it if new) with a root span, and
    /// returns the place under that root. `runs` chooses what a new trace
    /// holds: a run trace (`true`) takes one lane per simulator run
    /// finished under it, a request trace (`false`) takes none. `trace` 0
    /// is a no-op returning [`TraceRef::NONE`].
    pub fn begin(&self, trace: u64, name: &'static str, detail: String, runs: bool) -> TraceRef {
        if trace == 0 {
            return TraceRef::NONE;
        }
        let mut root = TraceRef {
            store: Some(self.clone()),
            trace,
            parent: 0,
        };
        let mut s = self.lock();
        s.begin(trace, runs);
        root.parent = s.record(&root, name, detail, 0);
        root
    }

    /// Spans trace `trace` refused or its runs dropped (0 for unknown ids).
    pub fn dropped(&self, trace: u64) -> u64 {
        self.lock().traces.get(&trace).map_or(0, |t| t.dropped)
    }

    /// Renders a trace's span tree as JSON:
    ///
    /// ```json
    /// {"trace_id":"0000000000100000","spans":[{"id":1,"parent":0,...}]}
    /// ```
    ///
    /// `None` for unknown ids.
    pub fn tree_json(&self, trace: u64) -> Option<String> {
        self.lock().traces.get(&trace).map(|t| t.tree_json(trace))
    }

    /// Renders a trace as Chrome `trace_event` JSON: the tree on `pid` 0
    /// in microseconds (`tid` = parent span, ids and details in `args`),
    /// each run lane on its own `pid` in cycles, and the drop count in
    /// `otherData.dropped`. `None` for unknown ids.
    pub fn chrome_json(&self, trace: u64) -> Option<String> {
        self.lock().traces.get(&trace).map(|t| t.chrome_json(trace))
    }
}

/// Opens a tree span at `at` and returns the place under it, for children
/// and for [`span_close`]. `detail` runs only when `at` is in a trace.
pub fn span_open(at: &TraceRef, name: &'static str, detail: impl FnOnce() -> String) -> TraceRef {
    let Some(store) = &at.store else {
        return TraceRef::NONE;
    };
    TraceRef {
        parent: store.lock().record(at, name, detail(), 0),
        ..at.clone()
    }
}

/// Closes the span `span` points under (as returned by [`span_open`] or
/// [`TraceStore::begin`]), fixing its duration. Closing a root finishes
/// the trace.
pub fn span_close(span: &TraceRef) {
    if let Some(store) = &span.store {
        store.lock().close(span);
    }
}

/// Records a tree span at `at` that ends now and lasted `dur_us` (0 for
/// instant events). `detail` runs only when `at` is in a trace.
pub fn span_event(at: &TraceRef, name: &'static str, detail: impl FnOnce() -> String, dur_us: u64) {
    if let Some(store) = &at.store {
        store.lock().record(at, name, detail(), dur_us);
    }
}

/// How many more run spans the thread's current trace keeps: `None` when
/// it takes no simulator runs (or there is no current trace). A run
/// collects spans only under `Some`, at most this many, and counts the
/// rest as dropped. Room only shrinks, so those are the spans
/// [`push_run`] would keep anyway.
pub fn run_room() -> Option<usize> {
    let ctx = current();
    let s = ctx.store.as_ref()?.lock();
    let runs = s.traces.get(&ctx.trace)?.runs.as_ref()?;
    Some(s.bounds.run_spans.saturating_sub(runs.len()))
}

/// Appends one finished run's spans to the thread's current trace as its
/// next lane; `dropped` counts the spans the run itself could not keep.
/// A no-op unless the current trace takes runs.
pub fn push_run(spans: &[Span], dropped: u64) {
    let ctx = current();
    if let Some(store) = &ctx.store {
        store.lock().push_run(ctx.trace, spans, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn events(store: &TraceStore, trace: u64) -> usize {
        store
            .chrome_json(trace)
            .unwrap()
            .matches("\"ph\":\"X\"")
            .count()
    }

    #[test]
    fn span_is_no_larger_than_the_old_run_span() {
        assert!(std::mem::size_of::<Span>() <= 56);
    }

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
        let store = TraceStore::default();
        let id = derive_trace_id(900, 1);
        let root = store.begin(id, "request", "POST /predict".into(), false);
        assert_eq!((root.trace, root.parent), (id, 1));
        span_close(&span_open(&root, "http.parse", String::new));
        let fill = span_open(&root, "fill", || "key=uma/CG.S".into());
        span_event(&fill, "sim.point", || "n=8 seed=1".into(), 12);
        span_close(&fill);
        span_close(&root);
        let tree = store.tree_json(id).unwrap();
        assert!(tree
            .contains("{\"id\":4,\"parent\":3,\"name\":\"sim.point\",\"detail\":\"n=8 seed=1\""));
        let chrome = store.chrome_json(id).unwrap();
        assert_eq!(events(&store, id), 4);
        // The tree is pid 0, with the parent as tid.
        assert!(chrome.contains("\"name\":\"sim.point\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":"));
        assert!(chrome.contains(
            "\"pid\":0,\"tid\":3,\"args\":{\"trace\":\"0000000038400001\",\"span\":4,\
             \"parent\":3,\"detail\":\"n=8 seed=1\"}}"
        ));
    }

    #[test]
    fn tree_times_count_from_the_store_origin() {
        // A span that began before its root keeps its true start: the
        // clock starts with the store, not with the first span.
        let store = TraceStore::default();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let root = store.begin(1, "request", String::new(), false);
        span_event(&root, "http.parse", String::new, 2_000);
        span_close(&root);
        let tree = store.tree_json(1).unwrap();
        assert!(!tree.contains("\"start_us\":0,"), "{tree}");
    }

    #[test]
    fn stores_keep_their_traces_apart() {
        let (a, b) = (TraceStore::default(), TraceStore::default());
        span_close(&a.begin(7, "request", String::new(), false));
        assert!(
            b.tree_json(7).is_none(),
            "a trace begun at a is unknown at b"
        );
        let at_b = b.begin(7, "request", String::new(), false);
        span_event(&at_b, "http.parse", String::new, 0);
        assert_eq!((events(&a, 7), events(&b, 7)), (1, 2));
    }

    #[test]
    fn spans_land_after_finish() {
        let store = TraceStore::default();
        let root = store.begin(1, "request", String::new(), false);
        span_close(&root);
        span_event(&root, "sim.point", || "late".into(), 3);
        assert_eq!(events(&store, 1), 2);
    }

    #[test]
    fn unknown_and_zero_traces_are_inert() {
        let store = TraceStore::default();
        let root = store.begin(1, "request", String::new(), false);
        let unknown = TraceRef {
            trace: 0xdead_beef_0000_0001,
            ..root
        };
        let under = span_open(&unknown, "x", String::new);
        assert_eq!((under.trace, under.parent), (unknown.trace, 0));
        assert!(store.tree_json(unknown.trace).is_none());
        assert_eq!(events(&store, 1), 1);
        span_event(
            &TraceRef::NONE,
            "x",
            || unreachable!("no detail built untraced"),
            0,
        );
        assert_eq!(store.begin(0, "x", String::new(), true).trace, 0);
    }

    #[test]
    fn scope_restores_previous_trace() {
        let store = TraceStore::default();
        let a = store.begin(42, "a", String::new(), false);
        let b = store.begin(43, "b", String::new(), false);
        let ids = || (current().trace, current().parent);
        assert_eq!(ids(), (0, 0));
        {
            let _g = TraceScope::enter(a);
            assert_eq!(ids(), (42, 1));
            {
                let _h = TraceScope::enter(b);
                assert_eq!(ids(), (43, 1));
            }
            assert_eq!(ids(), (42, 1));
        }
        assert_eq!(ids(), (0, 0));
    }

    #[test]
    fn runs_land_as_lanes_only_in_a_run_trace() {
        let store = TraceStore::default();
        let (run_trace, req_trace) = (1, 2);
        let spans = [Span::run("compute", 5, 10, 1), Span::run("dram", 7, 3, 0)];
        for (id, runs) in [(run_trace, true), (req_trace, false)] {
            let _g = TraceScope::enter(store.begin(id, "root", String::new(), runs));
            assert_eq!(run_room(), runs.then_some(MAX_RUN_SPANS));
            push_run(&spans, 4);
            push_run(&spans[..1], 0);
            assert_eq!(run_room(), runs.then_some(MAX_RUN_SPANS - 3));
        }
        let chrome = store.chrome_json(run_trace).unwrap();
        for lane in [
            "\"compute\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":1,\"tid\":1}",
            "\"dram\",\"cat\":\"dram\",\"ph\":\"X\",\"ts\":7,\"dur\":3,\"pid\":1,\"tid\":0}",
            "\"compute\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":2,\"tid\":1}",
        ] {
            assert!(chrome.contains(lane), "{lane} missing from {chrome}");
        }
        assert_eq!(events(&store, run_trace), 4);
        assert!(
            chrome.ends_with("\"dropped\":4}}"),
            "the runs' own drops count"
        );
        assert_eq!(
            (events(&store, req_trace), store.dropped(req_trace)),
            (1, 0)
        );
    }

    #[test]
    fn span_cap_drops_but_counts() {
        let store = TraceStore::default();
        let root = store.begin(1, "request", String::new(), false);
        for _ in 0..(MAX_SPANS + 10) {
            span_event(&root, "sim.point", String::new, 1);
        }
        assert_eq!(events(&store, 1), MAX_SPANS);
        assert_eq!(store.dropped(1), 11);
    }

    /// Small bounds, so a few hundred random operations overflow each.
    const SMALL: Bounds = Bounds {
        traces: 8,
        spans: 8,
        run_spans: 64,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of begin (request or run trace), record,
        /// close (of a root, which finishes the trace, or of a child) and
        /// push_run over more ids than the store holds: the bounds hold,
        /// every offered span is kept or counted, and eviction spares
        /// unfinished traces while a finished one exists.
        #[test]
        fn store_bounds_conserve_spans(
            ops in prop::collection::vec((0u8..5, 1u64..13, 0u32..40), 1..400),
        ) {
            let mut s = Store::new(SMALL);
            // Per live id: whether it takes runs, and the spans offered.
            let mut model: BTreeMap<u64, (bool, u64)> = BTreeMap::new();
            for (step, &(op, id, arg)) in ops.iter().enumerate() {
                let at = TraceRef { trace: id, parent: arg, ..TraceRef::NONE };
                let finished: Vec<u64> =
                    s.traces.iter().filter(|(_, t)| t.finished).map(|(&i, _)| i).collect();
                let live: Vec<u64> = s.traces.keys().copied().collect();
                match op {
                    0 | 1 => {
                        s.begin(id, op == 1);
                        let root = TraceRef { trace: id, parent: 0, ..TraceRef::NONE };
                        s.record(&root, "root", format!("{arg}"), 0);
                        model.entry(id).or_insert((op == 1, 0)).1 += 1;
                    }
                    2 => {
                        s.record(&at, "span", String::new(), u64::from(arg % 3));
                        if let Some(m) = model.get_mut(&id) {
                            m.1 += 1;
                        }
                    }
                    3 => {
                        // Closing a span finishes its trace exactly when
                        // the span is a root.
                        let span = arg % 3;
                        let want = s.traces.get(&id).map(|t| {
                            let i = (span as usize).checked_sub(1);
                            let span = i.and_then(|i| t.tree.get(i));
                            t.finished || span.is_some_and(|s| s.parent == 0)
                        });
                        s.close(&TraceRef { trace: id, parent: span, ..TraceRef::NONE });
                        prop_assert_eq!(s.traces.get(&id).map(|t| t.finished), want);
                    }
                    _ => {
                        let spans = vec![Span::run("compute", 0, 1, arg % 4); arg as usize];
                        s.push_run(id, &spans, u64::from(arg % 3));
                        if let Some(m) = model.get_mut(&id).filter(|m| m.0) {
                            m.1 += u64::from(arg + arg % 3);
                        }
                    }
                }
                // An evicted id starts over if it is begun again.
                model.retain(|id, _| s.traces.contains_key(id));

                prop_assert!(s.traces.len() <= SMALL.traces);
                prop_assert_eq!(s.order.len(), s.traces.len());
                for (id, t) in &s.traces {
                    let runs = t.runs.as_ref().map_or(0, Vec::len);
                    prop_assert!(t.tree.len() <= SMALL.spans && runs <= SMALL.run_spans);
                    let (takes_runs, offered) = model[id];
                    let kept = (t.tree.len() + runs) as u64;
                    prop_assert_eq!(kept + t.dropped, offered, "trace {} at step {}", id, step);
                    prop_assert!(takes_runs || t.runs.is_none(), "request trace {} holds runs", id);
                }
                for gone in live.iter().filter(|id| !s.traces.contains_key(id)) {
                    prop_assert!(
                        finished.is_empty() || finished.contains(gone),
                        "unfinished trace {} evicted while {:?} were finished",
                        gone,
                        finished
                    );
                }
            }
        }
    }
}
