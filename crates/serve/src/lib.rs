//! Contention-prediction service: an HTTP front-end over the fitted
//! ICPP 2011 model.
//!
//! `offchip-serve` answers *what-if* questions — "what contention ω and
//! speedup does the model predict for CG.C on the AMD machine at
//! n = 31?" — without the caller touching the simulator, fitting code or
//! experiment binaries. The fitted model for each `(machine, program)`
//! pair is computed once, through the crash-safe campaign layer (so a
//! killed fill resumes from its journal instead of re-simulating), and
//! cached in memory by one model store: concurrent cache misses for the
//! same key coalesce into one campaign, with every waiter handed the same
//! [`std::sync::Arc`]'d entry, and the same store keeps each key's
//! circuit breaker.
//!
//! Endpoints (see DESIGN.md §12 for the wire format):
//!
//! * `POST /predict` — `C(n)`, `ω(n)` and speedup at one core count;
//! * `POST /sweep` — the same over an inclusive `n` range;
//! * `GET /metrics` — the service's metrics registry as CSV, or
//!   Prometheus text exposition with `?fmt=prom`;
//! * `GET /healthz` — liveness;
//! * `GET /readyz` — readiness (drain / admission high-water);
//! * `GET /statusz` — one human-readable page: uptime, request and
//!   cache counters, pressure, breaker states, and the slowest recent
//!   requests with their trace ids;
//! * `GET /debug/trace/<id>` — the span tree a traced request left
//!   behind (`?fmt=perfetto` for Chrome/Perfetto `trace_event` JSON).
//!
//! Responses are byte-identical between cold (campaign just ran) and warm
//! (model served from cache) calls; cache disposition travels only in the
//! `X-Offchip-Cache` response header. A cached [`FittedEntry`] renders
//! each answer once and serves the memoised bytes thereafter.
//!
//! Overload hardening (DESIGN.md §14): admission control sheds excess
//! connections with `503 + Retry-After` (`X-Offchip-Shed` reason
//! header), `GET /readyz` reports not-ready before shedding starts,
//! per-request deadlines turn a too-slow cold fill into `202 +
//! Retry-After` while the fill keeps warming the cache, and a per-key
//! circuit breaker over the fill path serves a degraded analytic model
//! (`"tier": "degraded-analytic"`, full breaker provenance) instead of
//! repeated 5xx. The chaos-net layer (`OFFCHIP_CHAOS_NET`) injects
//! socket-level stalls, resets and short reads to prove all of the
//! above under network misbehaviour.
//!
//! Observability plane (DESIGN.md §15): every request gets a
//! deterministic trace id — honoured from an inbound `X-Offchip-Trace`
//! header or derived from (connection, sequence) — and echoes it back in
//! the response. Traced requests buffer a span tree (HTTP parse, queue
//! wait, fill, per-point simulation, response write) that survives the
//! request and is served by `/debug/trace/<id>`; span timing never
//! feeds the model, so response bytes stay identical with tracing on or
//! off. `/statusz` keeps the slowest recent requests by trace id, which
//! is how an operator picks the trace to pull.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod degraded;
pub mod entry;
pub mod http;
pub mod server;
pub mod service;
pub mod signal;

pub use admission::{AdmissionConfig, ShedReason};
pub use cache::{BreakerInfo, BreakerState, Disposition, ModelOutcome};
pub use entry::{FitSummary, FittedEntry};
pub use http::{Request, Response};
pub use server::{Server, ServerOptions};
pub use service::{ModelKey, PredictService, ServiceConfig, ServiceError};
