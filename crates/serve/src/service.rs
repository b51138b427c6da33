//! The prediction service proper: request routing and the
//! campaign-backed fill path.
//!
//! A model is keyed by `(machine, program)`. The first request for a key
//! runs a measurement campaign — a core-count sweep at the paper's
//! protocol points plus the full machine — through the crash-safe
//! campaign layer, fits the analytical model robustly, and caches the
//! result. Every later request (and every concurrent request while the
//! fill runs, which waits on that one fill) is answered from the cached
//! fit in microseconds, simulator untouched. Because the fill is
//! journaled under a stable campaign name (`serve-<machine>-<program>`),
//! a server killed mid-fill resumes the campaign from the journal on the
//! next request instead of re-simulating completed points.
//!
//! The model store ([`crate::cache`]) decides what a key's fill history
//! means for its next request; this module routes requests and runs the
//! fill.

use crate::cache::{BreakerInfo, Disposition, ModelOutcome, ModelStore};
use crate::entry::{Field, FitSummary, FittedEntry};
use crate::http::{Request, Response};
use offchip_bench::{
    build_workload, experiment_machine, fit_sweep, loss_summary, Campaign, CampaignOptions,
    PointError, ProgramSpec,
};
use offchip_chaos::{ChaosSpec, ChaosVfs, Vfs};
use offchip_json::Json;
use offchip_model::FitProtocol;
use offchip_obs::Registry;
use offchip_topology::machines::Preset;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted core count for predictions and sweep bounds — a
/// sanity cap well above any modelled machine, not a model limit.
pub const MAX_N: usize = 4096;

/// Smallest and largest honoured `X-Offchip-Deadline-Ms` values; the
/// clamp keeps a typo from either busy-spinning (0) or pinning a worker
/// for a week.
pub const DEADLINE_CLAMP_MS: (u64, u64) = (1, 3_600_000);

/// The fill budget of a request that sends no `X-Offchip-Deadline-Ms`.
/// A request whose budget expires first gets `202 + Retry-After` while
/// the fill keeps warming the cache.
pub const DEFAULT_DEADLINE_MS: u64 = 600_000;

/// `Retry-After` seconds quoted on `202 Accepted` while a fill runs.
const PENDING_RETRY_AFTER_S: u64 = 5;

/// Cache key: machine preset and canonical program name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The machine, named by its key (`"uma"`, `"numa"` or `"amd"`).
    pub machine: Preset,
    /// Canonical program name (`CG.S`, `x264.native`).
    pub program: String,
}

/// Service tuning, normally from the binary's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Journal directory for fill campaigns (`None` = campaign default,
    /// `results/` or `OFFCHIP_JOURNAL_DIR`).
    pub journal_dir: Option<PathBuf>,
    /// Seeds averaged per sweep point (default: the 3 of
    /// `offchip_bench::seeds_from(None, None)`; the binary reads
    /// `OFFCHIP_SEEDS` and `OFFCHIP_QUICK` instead).
    pub seeds: Vec<u64>,
    /// Simulation worker budget for fill campaigns.
    pub jobs: usize,
    /// Filesystem fault schedule for the fill campaigns' journals
    /// (`OFFCHIP_CHAOS_IO`); `None` runs them on the real filesystem.
    pub chaos_io: Option<ChaosSpec>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            journal_dir: None,
            seeds: offchip_bench::seeds_from(None, None).expect("the default seed count"),
            jobs: offchip_pool::default_jobs(),
            chaos_io: None,
        }
    }
}

/// Why a request failed; maps onto HTTP statuses.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// Malformed request (unknown machine/program, bad JSON, bad n).
    BadRequest(String),
    /// The fill campaign lost points (deadline, budget, fault
    /// injection); the journal retains completed runs, so a retry
    /// resumes rather than restarts.
    CampaignLoss(String),
    /// The sweep completed but the model could not be fitted.
    Fit(String),
    /// Journal or filesystem failure opening the campaign.
    Internal(String),
}

impl ServiceError {
    fn status(&self) -> u16 {
        match self {
            ServiceError::BadRequest(_) => 400,
            ServiceError::CampaignLoss(_) => 503,
            ServiceError::Fit(_) | ServiceError::Internal(_) => 500,
        }
    }

    pub(crate) fn message(&self) -> &str {
        match self {
            ServiceError::BadRequest(m)
            | ServiceError::CampaignLoss(m)
            | ServiceError::Fit(m)
            | ServiceError::Internal(m) => m,
        }
    }

    /// Stable kind label for breaker provenance and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::BadRequest(_) => "bad-request",
            ServiceError::CampaignLoss(_) => "campaign-loss",
            ServiceError::Fit(_) => "fit",
            ServiceError::Internal(_) => "internal",
        }
    }
}

/// A model endpoint's body writer: the entry, the request document and
/// any extra members (the degraded tier's provenance) to merge in.
type RenderBody = fn(&FittedEntry, &Json, &[Field<'_>]) -> Result<Vec<u8>, ServiceError>;

/// The shared service state: the model store and the service's own
/// metrics registry.
pub struct PredictService {
    store: ModelStore,
    /// The `serve.*` metrics: what `/metrics`, `/statusz` and the
    /// heartbeat read. Fills record no simulator metrics into it.
    metrics: Arc<Registry>,
}

impl PredictService {
    /// A service with an empty model store and an empty registry.
    pub fn new(config: ServiceConfig) -> PredictService {
        let metrics = Arc::new(Registry::default());
        // Every fill campaign resumes from the journal directory, on the
        // service's one Vfs, so `chaos_io` fault indices count across
        // every fill.
        let vfs = config
            .chaos_io
            .clone()
            .map(|spec| -> Arc<dyn Vfs> { Arc::new(ChaosVfs::new(spec)) });
        let opts = CampaignOptions {
            resume: true,
            journal_dir: config.journal_dir.clone(),
            vfs,
            ..CampaignOptions::default()
        };
        // The store runs a fill in the trace context of the request that
        // started it. The fill opens its `fill` span there and enters it,
        // so its log lines stay stamped and the campaign's per-point
        // spans parent under it.
        let fill = move |key: &ModelKey| {
            let detail = || format!("key={}/{}", key.machine, key.program);
            let span = offchip_obs::span_open(&offchip_obs::current(), "fill", detail);
            let _scope = offchip_obs::TraceScope::enter(span.clone());
            let result = fill_model(&config, &opts, key);
            offchip_obs::span_close(&span);
            result
        };
        PredictService {
            store: ModelStore::new(Arc::clone(&metrics), fill),
            metrics,
        }
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Routes one parsed request to a handler. Infallible: errors become
    /// JSON error responses with the right status. Model-path work (cache
    /// decisions, fill waits, campaign points) records spans under the
    /// thread's trace context ([`offchip_obs::current`]), if any.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let reg = self.metrics();
        let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
        let resp = match (req.method.as_str(), path) {
            ("POST", "/predict") => {
                self.endpoint(req, "predict", "serve.requests.predict", predict)
            }
            ("POST", "/sweep") => self.endpoint(req, "sweep", "serve.requests.sweep", sweep),
            ("GET", "/metrics") => {
                reg.add("serve.requests.metrics", 1);
                if query.split('&').any(|kv| kv == "fmt=prom") {
                    let mut resp = Response::text(200, offchip_obs::render_prometheus(reg));
                    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
                    resp
                } else {
                    Response::text(200, reg.snapshot().to_csv())
                }
            }
            ("GET", "/healthz") => {
                reg.add("serve.requests.healthz", 1);
                Response::text(200, "ok\n")
            }
            ("POST", _) | ("GET", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        };
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        reg.observe("serve.request_latency_us", us);
        if resp.status >= 400 {
            reg.add("serve.responses.error", 1);
        }
        resp
    }

    /// Shared wrapper for the two model endpoints: count the request
    /// under `counter`, parse the key, get or fill the cached model, run
    /// the endpoint body, stamp the cache disposition header and metrics.
    fn endpoint(
        &self,
        req: &Request,
        name: &'static str,
        counter: &'static str,
        body: RenderBody,
    ) -> Response {
        let reg = self.metrics();
        reg.add(counter, 1);
        let budget_ms = req.deadline_ms.map_or(DEFAULT_DEADLINE_MS, |ms| {
            ms.clamp(DEADLINE_CLAMP_MS.0, DEADLINE_CLAMP_MS.1)
        });
        let deadline = Instant::now() + Duration::from_millis(budget_ms);
        let outcome = (|| {
            let doc = parse_body(&req.body)?;
            let key = parse_key(&doc)?;
            let outcome = self.model_for(&key, Some(deadline))?;
            let bytes = match &outcome {
                ModelOutcome::Fitted(entry, _) => Some(body(entry, &doc, &[])?),
                ModelOutcome::Degraded(entry, info) => {
                    // Degraded bodies carry their provenance in-band — a
                    // caller that drops headers still sees the tier.
                    let breaker = offchip_json::json_obj! {
                        "state" => info.state.as_str(),
                        "consecutive_failures" => u64::from(info.consecutive_failures),
                        "last_error_kind" => info.last_error_kind,
                        "last_error" => info.last_error,
                    }
                    .to_compact_string();
                    let extra = [("tier", "\"degraded-analytic\""), ("breaker", &breaker)];
                    Some(body(entry, &doc, &extra)?)
                }
                ModelOutcome::Pending => None,
            };
            Ok::<_, ServiceError>((bytes, outcome))
        })();
        match outcome {
            Ok((bytes, ModelOutcome::Fitted(_, disposition))) => {
                match disposition {
                    Disposition::Miss => reg.add("serve.cache.miss", 1),
                    Disposition::Hit | Disposition::Coalesced => reg.add("serve.cache.hit", 1),
                }
                // The disposition travels only in this header: cold and
                // warm response bodies must stay byte-identical.
                Response::json(200, bytes.expect("fitted body"))
                    .with_header("X-Offchip-Cache", disposition.as_str())
            }
            Ok((bytes, ModelOutcome::Degraded(..))) => {
                reg.add("serve.degraded", 1);
                Response::json(200, bytes.expect("degraded body"))
                    .with_header("X-Offchip-Cache", "degraded")
                    .with_header("X-Offchip-Tier", "degraded-analytic")
            }
            Ok((_, ModelOutcome::Pending)) => {
                reg.add("serve.deadline_miss", 1);
                let body = offchip_json::json_obj! {
                    "error" => "model fill in progress; the deadline expired — retry shortly",
                    "retry_after_s" => PENDING_RETRY_AFTER_S,
                };
                Response::json(202, format!("{}\n", body.to_compact_string()))
                    .with_header("Retry-After", &PENDING_RETRY_AFTER_S.to_string())
            }
            Err(e) => {
                offchip_obs::warn!("serve: {name} failed: {}", e.message());
                Response::error(e.status(), e.message())
            }
        }
    }

    /// Answers a model request for `key` from the model store: the
    /// cached or freshly filled model, the degraded tier while the key's
    /// breaker is open, or [`ModelOutcome::Pending`] once `deadline`
    /// (`None`: no limit) passes with the fill still running.
    pub fn model_for(
        &self,
        key: &ModelKey,
        deadline: Option<Instant>,
    ) -> Result<ModelOutcome, ServiceError> {
        self.store.get(key, deadline)
    }

    /// Number of fitted models currently cached.
    pub fn cached_models(&self) -> usize {
        self.store.len()
    }

    /// Breaker snapshot for `/statusz`: every key that ever recorded a
    /// fill failure, with its current state.
    pub fn breaker_entries(&self) -> Vec<(ModelKey, BreakerInfo)> {
        self.store.breakers()
    }
}

/// `POST /predict` body: one core count.
fn predict(entry: &FittedEntry, doc: &Json, extra: &[Field<'_>]) -> Result<Vec<u8>, ServiceError> {
    Ok(entry.predict_body(parse_n(doc, "n")?, extra))
}

/// `POST /sweep` body: an inclusive `n_from..=n_to` range.
fn sweep(entry: &FittedEntry, doc: &Json, extra: &[Field<'_>]) -> Result<Vec<u8>, ServiceError> {
    let from = parse_n(doc, "n_from")?;
    let to = parse_n(doc, "n_to")?;
    if from > to {
        return Err(ServiceError::BadRequest("n_from must be <= n_to".into()));
    }
    Ok(entry.sweep_body(from, to, extra))
}

/// The fill path: journaled sweep → robust fit → validation. A free
/// function (config, campaign options and key only) because it runs on
/// the store's background fill thread, which cannot borrow the service.
fn fill_model(
    config: &ServiceConfig,
    opts: &CampaignOptions,
    key: &ModelKey,
) -> Result<FittedEntry, ServiceError> {
    let spec = ProgramSpec::parse(&key.program).map_err(ServiceError::BadRequest)?;
    let machine = experiment_machine(key.machine);
    let total = machine.total_cores();
    let proto = FitProtocol::for_machine(&machine.name);

    // The paper's protocol points give the fit its inputs; the
    // full-machine point anchors validation at the far end.
    let mut ns = proto.input_cores.clone();
    ns.push(1);
    ns.push(total);
    ns.sort_unstable();
    ns.dedup();

    let campaign_name = format!("serve-{}-{}", key.machine, key.program);
    let campaign = Campaign::start(&campaign_name, opts)
        .map_err(|e| ServiceError::Internal(format!("campaign journal: {e}")))?;
    if let Some(fault) = campaign.journal_fault() {
        offchip_obs::warn!("serve: fill campaign {campaign_name}: {fault}");
    }

    offchip_obs::info!(
        "serve: cache miss — filling {}/{} via campaign {campaign_name} \
         (ns {ns:?}, {} seeds, {} jobs)",
        key.machine,
        key.program,
        config.seeds.len(),
        config.jobs
    );
    let w = build_workload(spec, total);
    let cs = campaign
        .run_sweep(&machine, w.as_ref(), &ns, &config.seeds, config.jobs)
        .map_err(|e| ServiceError::Internal(format!("sweep: {e}")))?;
    if !cs.errors.is_empty() {
        return Err(campaign_loss(&cs.errors));
    }
    offchip_obs::info!(
        "serve: fill {campaign_name} done — {} run(s) simulated, {} resumed from journal",
        cs.executed,
        cs.resumed
    );

    let (robust, v) =
        fit_sweep(&proto, &cs.sweep, None).map_err(|e| ServiceError::Fit(e.to_string()))?;

    Ok(FittedEntry::new(FitSummary {
        machine_name: machine.name.clone(),
        protocol: proto.name,
        total_cores: total,
        model: robust.model,
        quality: robust.quality,
        mean_relative_error: v.mean_relative_error,
        mean_absolute_error: v.mean_absolute_error,
    }))
}

/// The error a fill that lost points answers with. Its message is the
/// 503 body and the breaker's `last_error`, so it must not depend on
/// whether the fill was traced: the trace id stays on the log line.
fn campaign_loss(errors: &[PointError]) -> ServiceError {
    ServiceError::CampaignLoss(format!(
        "fill campaign lost {} point(s) ({}); completed runs are journaled — retry resumes",
        errors.len(),
        loss_summary(errors)
    ))
}

fn parse_body(body: &[u8]) -> Result<Json, ServiceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServiceError::BadRequest("body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServiceError::BadRequest(format!("body is not JSON: {e}")))
}

/// Extracts and canonicalises the cache key. The program may be given
/// as one field (`"program": "CG.S"`) or split (`"program": "CG",
/// "class": "S"`) — both normalise to the same key, so both share one
/// cache entry and one campaign journal.
fn parse_key(doc: &Json) -> Result<ModelKey, ServiceError> {
    let machine = doc
        .get("machine")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest("missing \"machine\" (uma|numa|amd)".into()))?;
    let machine = Preset::ALL
        .into_iter()
        .find(|p| p.key().eq_ignore_ascii_case(machine))
        .ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "unknown machine {:?} (expected uma, numa or amd)",
                machine.to_ascii_lowercase()
            ))
        })?;
    let program = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest("missing \"program\"".into()))?;
    let name = match doc.get("class").and_then(Json::as_str) {
        Some(class) if !program.contains('.') => format!("{program}.{class}"),
        _ => program.to_string(),
    };
    let spec = ProgramSpec::parse(&name).map_err(ServiceError::BadRequest)?;
    Ok(ModelKey {
        machine,
        // Canonical spelling ("cg.c" → "CG.C"), so case variants share
        // one cache entry.
        program: spec.name(),
    })
}

fn parse_n(doc: &Json, field: &str) -> Result<usize, ServiceError> {
    let n = doc
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| ServiceError::BadRequest(format!("missing or non-integer \"{field}\"")))?;
    if n < 1 || n > MAX_N as u64 {
        return Err(ServiceError::BadRequest(format!(
            "\"{field}\" must be in 1..={MAX_N}"
        )));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn keys_canonicalise_case_and_split_class() {
        let a = parse_key(&doc(r#"{"machine":"UMA","program":"cg.s"}"#)).unwrap();
        let b = parse_key(&doc(r#"{"machine":"uma","program":"CG","class":"S"}"#)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.program, "CG.S");
        assert_eq!(a.machine, Preset::Uma);
    }

    #[test]
    fn bad_keys_are_rejected_with_a_reason() {
        assert!(parse_key(&doc(r#"{"program":"CG.S"}"#)).is_err());
        assert!(parse_key(&doc(r#"{"machine":"vax","program":"CG.S"}"#)).is_err());
        assert!(parse_key(&doc(r#"{"machine":"uma","program":"QQ.S"}"#)).is_err());
    }

    #[test]
    fn campaign_loss_message_is_the_same_inside_a_trace() {
        let errors = [PointError::Panicked {
            payload: "x".into(),
            n: 1,
            seed: 2,
        }];
        let untraced = campaign_loss(&errors).message().to_string();
        let traces = offchip_obs::TraceStore::default();
        let _scope =
            offchip_obs::TraceScope::enter(traces.begin(1, "request", String::new(), false));
        assert_eq!(campaign_loss(&errors).message(), untraced);
        assert!(untraced.starts_with("fill campaign lost 1 point(s) (panicked=1);"));
    }

    #[test]
    fn n_bounds_are_enforced() {
        assert!(parse_n(&doc(r#"{"n":1}"#), "n").is_ok());
        assert!(parse_n(&doc(r#"{"n":0}"#), "n").is_err());
        assert!(parse_n(&doc(r#"{"n":4097}"#), "n").is_err());
        assert!(
            parse_n(&doc(r#"{"n":"8"}"#), "n").is_err(),
            "strings are not core counts"
        );
    }
}
