//! Zero-overhead-when-off instrumentation for the offchip stack.
//!
//! Four independent pieces, all dependency-free:
//!
//! - [`level`](mod@level): the process-wide [`ObsLevel`] (`Off`/`Metrics`/`Trace`),
//!   resolved once per run from `--obs`/`OFFCHIP_OBS`. Every producer
//!   captures it at construction time, so the hot-path cost when off is a
//!   single well-predicted branch on an `Option` that is `None`.
//! - [`metrics`]: a process-global registry of counters, gauges and
//!   log2-bucketed [`Histogram`]s with p50/p95/p99/max. Hot paths never
//!   touch the registry; they record into plain per-run structs and merge
//!   once at end of run.
//! - [`telemetry`]: the per-memory-controller time-series sampler
//!   generalising the 5 µs burst windows ([`McObs`], [`Telemetry`]), plus
//!   queue-wait/queue-depth histograms fed from the DRAM service paths.
//! - [`trace`]: a bounded ring of [`Span`]s, open only while a consumer
//!   drains it, rendered as Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` / Perfetto.
//! - [`log`]: a leveled `key=value` logger on stderr (`--log-level`,
//!   `OFFCHIP_LOG`) with [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros,
//!   a structured JSON mode (`--log-format json`, `OFFCHIP_LOG_FORMAT`)
//!   and a [`warn_rate_limited!`] variant for flood-prone paths.
//! - [`reqtrace`]: request-scoped tracing — deterministic trace ids, a
//!   bounded cross-thread span store, per-trace span-tree and Perfetto
//!   exports backing the serving stack's `/debug/trace/<id>`.
//! - [`prom`]: Prometheus text exposition of the metrics registry
//!   (log2 histograms → cumulative `le` buckets).
//!
//! # The zero-cost contract
//!
//! Nothing in this crate allocates, locks, or formats unless the
//! corresponding level is enabled: at `ObsLevel::Off` the simulator
//! constructs no observer objects, experiment artefacts are byte-identical
//! to an uninstrumented build, and the perfstat gate bounds the residual
//! branch cost below 5 % normalised throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod level;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod reqtrace;
pub mod telemetry;
pub mod trace;

pub use level::{level, set_level, ObsLevel};
pub use log::{
    json_escape, json_escape_bytes, log_emit, log_enabled, log_format, log_level, set_log_format,
    set_log_level, LogFormat, LogLevel,
};
pub use metrics::{registry, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use prom::{prom_name, render_prometheus};
pub use reqtrace::{
    current_trace, derive_trace_id, span_close, span_event, span_open, trace_begin, trace_finish,
    trace_perfetto_json, trace_tree_json, TraceRef, TraceScope,
};
pub use telemetry::{McObs, McSeries, Telemetry, TelemetryWindow};
pub use trace::{
    chrome_trace_json, next_trace_pid, open_trace_ring, push_spans, take_spans, trace_dropped,
    Span, TRACE_CAPACITY,
};
