//! Zero-overhead-when-off instrumentation for the offchip stack.
//!
//! Five pieces, all dependency-free:
//!
//! - [`metrics`]: a [`Registry`] of counters, gauges and log2-bucketed
//!   [`Histogram`]s with p50/p95/p99/max. There is no process-global
//!   registry: whoever wants metrics builds one and hands it down (a
//!   simulator run records into `SimConfig.metrics`, a service into its
//!   own). Hot paths never touch a registry; they record into plain
//!   per-run structs and merge once at end of run.
//! - [`telemetry`]: per-memory-controller observers ([`McObs`]) feeding
//!   queue-wait/queue-depth histograms and DRAM service spans from the
//!   DRAM service paths.
//! - [`trace`]: the span store. A [`TraceStore`] is a value with its own
//!   bounds and clock: a server owns one, the CLI builds one for
//!   `--trace`, and each test builds its own. A trace holds a span tree
//!   and, when its beginner asks for runs, one lane of simulator
//!   [`Span`]s per run; the thread's [`TraceScope`] carries the context
//!   work is done for, and that context points into its store. Traces
//!   render as Chrome `trace_event` JSON (Perfetto, `chrome://tracing`)
//!   or as span trees (`/debug/trace/<id>`).
//! - [`log`]: a leveled `key=value` logger on stderr (`--log-level`,
//!   `OFFCHIP_LOG`) with [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros,
//!   a structured JSON mode (`--log-format json`, `OFFCHIP_LOG_FORMAT`)
//!   and a [`warn_rate_limited!`] variant for flood-prone paths.
//! - [`prom`]: Prometheus text exposition of a registry
//!   (log2 histograms → cumulative `le` buckets).
//!
//! # The zero-cost contract
//!
//! A run observes itself exactly when its caller hands it a registry:
//! without one the simulator constructs no observer objects, and its hot
//! paths pay one well-predicted branch on an `Option` that is `None`.
//! Two checks pin what being off costs: experiment artefacts are
//! byte-identical observed or not (the golden artefact tests, the
//! telemetry tests, and CI's `cmp` of a plain and an observed sweep),
//! and the repository benchmark (`perfbench`, unobserved) bounds every
//! end-to-end time at 0.25 of the parent's. The perfstat gate is coarser
//! still (25 %, and CI runs it in quick mode against a full-mode
//! baseline), so it cannot see a branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod prom;
pub mod telemetry;
pub mod trace;

pub use log::{
    log_emit, log_enabled, log_format, log_level, set_log_format, set_log_level, LogFormat,
    LogLevel,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use prom::{prom_name, render_prometheus};
pub use telemetry::McObs;
pub use trace::{
    current, derive_trace_id, push_run, run_room, span_close, span_event, span_open, Span,
    TraceRef, TraceScope, TraceStore,
};
