//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions
//! (nothing inside the program is instrumented). They are kept in memory
//! and written once, at the end of a traced run, as Chrome `trace_event`
//! JSON — the format `offchip-obs` already emits — so Perfetto or
//! `chrome://tracing` open it directly. Each span carries its own id and
//! the id of the span that caused it in `args`, and one lane (`tid`) per
//! layer keeps the timeline readable.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    lane: Lane,
    start_ns: u64,
    dur_ns: u64,
    /// Extra `args` members, already rendered as `"key":value` pairs.
    args: String,
}

/// Timeline lanes, one per layer the benchmark calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The workload's own loop (repetitions, passes, phases).
    Bench = 1,
    /// `offchip-bench` campaign calls.
    Campaign = 2,
    /// `offchip-machine` runner calls.
    Machine = 3,
    /// `offchip-npb` op-stream drains.
    Npb = 4,
    /// `offchip-cache` replays.
    Cache = 5,
    /// `offchip-dram` replays.
    Dram = 6,
    /// `offchip-simcore` scheduler replays.
    Sched = 7,
    /// `offchip-model` fits.
    Model = 8,
    /// `offchip-serve` calls made in-process.
    Service = 9,
    /// HTTP requests sent to a server process.
    Client = 10,
}

/// Span store; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Records a finished span under `parent` (0 = root) and returns its
    /// id. `args` is rendered JSON members without braces, or empty.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        lane: Lane,
        start: Instant,
        end: Instant,
        args: String,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, name, parent, lane, start, end, args);
        id
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under an id from [`Tracer::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        lane: Lane,
        start: Instant,
        end: Instant,
        args: String,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            lane,
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            args,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as Chrome `trace_event` JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let sep = if s.args.is_empty() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}{sep}{}}}}}",
                s.name,
                s.lane as u32,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.args
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_trace_events() {
        let mut t = Tracer::new(true);
        let outer = t.reserve();
        let start = Instant::now();
        let inner = t.record(
            "inner",
            outer,
            Lane::Cache,
            start,
            start,
            "\"items\":3".into(),
        );
        t.record_as(
            outer,
            "outer",
            0,
            Lane::Bench,
            start,
            Instant::now(),
            String::new(),
        );
        assert_eq!(t.len(), 2);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = offchip_json::Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let inner_ev = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("inner"))
            .unwrap();
        let args = inner_ev.get("args").unwrap();
        assert_eq!(args.get("id").and_then(|v| v.as_u64()), Some(inner));
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(args.get("items").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, Lane::Bench, now, now, String::new()), 0);
        let id = t.reserve();
        t.record_as(id, "y", 0, Lane::Bench, now, now, String::new());
        assert_eq!(t.len(), 0);
    }
}
