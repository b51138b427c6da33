//! `serve-cold` and `serve-warm`: a shipped `offchip-serve` process
//! driven over real sockets.
//!
//! * `serve-cold` — a fresh server with an empty journal directory, one
//!   keep-alive connection, closed loop: one `POST /predict` per key of
//!   {EP,IS,FT,CG,SP} × {S,W} × {uma,numa,amd}, in a seeded order with a
//!   seeded `n`. Every request is a real fill (campaign → sweep → fit).
//! * `serve-warm` — a fresh server whose set-up fills CG.S on each
//!   machine, then a seeded Poisson open loop over two keep-alive
//!   connections: 90 % `/predict` on a random warm key with `n` uniform
//!   over that machine's cores, 10 % `/sweep` over the full core range.
//!   Each request is timed from its due time, so a server stall is
//!   charged to every request queued behind it.
//!
//! The traced run adds the layer attribution: the same requests parsed,
//! handled and written in-process through `offchip-serve`'s public
//! functions, and the fill path's campaign, sweep and fit replayed with
//! each call timed.

use std::io::BufReader;
use std::time::{Duration, Instant};

use offchip_simcore::Rng;
use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};
use offchip_topology::MachineSpec;

use crate::check::{digest_of, Digest};
use crate::client::{gen_stats, open_loop, poisson_plan, post, Conn, Outcome, Planned, ServerProc};
use crate::layers::Layers;
use crate::stats::{median, peak, Samples};
use crate::trace::Lane;
use crate::{mix, Ctx, JOBS};

/// The service's machine keys with their specs.
pub fn machines() -> [(&'static str, MachineSpec); 3] {
    [
        (
            "uma",
            machines::intel_uma_8().scaled(DEFAULT_EXPERIMENT_SCALE),
        ),
        (
            "numa",
            machines::intel_numa_24().scaled(DEFAULT_EXPERIMENT_SCALE),
        ),
        (
            "amd",
            machines::amd_numa_48().scaled(DEFAULT_EXPERIMENT_SCALE),
        ),
    ]
}

/// Nominal host seconds of one `serve-cold` pass, which turns
/// `--seconds` into a fixed pass count.
const NOMINAL_PASS_S: f64 = 1.5;

/// Offered load of `serve-warm`, requests per second over all
/// connections.
const WARM_RATE: f64 = 5000.0;

/// Keep-alive connections of the `serve-warm` open loop.
const WARM_CONNS: usize = 2;

/// Fresh servers per `serve-warm` run; each is set up once.
const WARM_SERVERS: usize = 3;

/// Open-loop phases per `serve-warm` server.
const WARM_PHASES: usize = 5;

fn predict_body(machine: &str, program: &str, n: usize) -> String {
    format!("{{\"machine\":\"{machine}\",\"program\":\"{program}\",\"n\":{n}}}")
}

fn sweep_body(machine: &str, program: &str, to: usize) -> String {
    format!("{{\"machine\":\"{machine}\",\"program\":\"{program}\",\"n_from\":1,\"n_to\":{to}}}")
}

// ---------------------------------------------------------------- cold

/// One cold request: key, `n`, and its wire bytes.
#[derive(Debug, Clone)]
struct ColdReq {
    key: String,
    body: String,
    bytes: Vec<u8>,
}

/// The 30 cold keys in the seed's order, each with the seed's `n`.
fn cold_requests(seed: u64) -> Vec<ColdReq> {
    let mut rng = Rng::new(mix(seed, 0xC01D));
    let mut reqs = Vec::new();
    for program in ["EP", "IS", "FT", "CG", "SP"] {
        for class in ["S", "W"] {
            for (machine, spec) in machines() {
                let program = format!("{program}.{class}");
                let n = 1 + rng.next_below(spec.total_cores() as u64) as usize;
                let body = predict_body(machine, &program, n);
                reqs.push(ColdReq {
                    key: format!("{machine}/{program}"),
                    bytes: post("/predict", &body),
                    body,
                });
            }
        }
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// What one cold pass measured.
struct ColdPass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    /// Per request, send order: latency in µs, or `None` on failure.
    latency_us: Vec<Option<f64>>,
    /// Per request: status 200 and a cache miss.
    cold_ok: Vec<bool>,
    /// Cold requests the server answered from its cache.
    hits: usize,
    /// Per request: the warm repeat matched byte for byte, as a hit.
    warm_ok: Vec<bool>,
    /// Digest of (request, response) pairs in key order.
    digest: String,
    /// Gap between a response and the next send, ms (closed-loop
    /// generator lateness).
    late_max_ms: f64,
}

/// Starts a fresh server and sends every cold request once, closed loop
/// on one connection; then (untimed) repeats each request warm and
/// compares the bodies. With `traced_under`, each cold request is
/// recorded as a client span under that parent.
fn cold_pass(
    ctx: &mut Ctx,
    reqs: &[ColdReq],
    name: &str,
    traced_under: Option<u64>,
) -> Result<ColdPass, String> {
    let dir = ctx.scratch(name)?;
    let t_spawn = Instant::now();
    let server = ServerProc::start(&ctx.bin_dir, &dir, JOBS)?;
    let setup_s = t_spawn.elapsed().as_secs_f64();
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let cpu0 = server.cpu_s()?;
    let t0 = Instant::now();
    let mut bodies = Vec::with_capacity(reqs.len());
    let mut latency_us = Vec::with_capacity(reqs.len());
    let mut cold_ok = Vec::with_capacity(reqs.len());
    let mut late_max = Duration::ZERO;
    let mut prev_done = t0;
    let mut hits = 0;
    for r in reqs {
        let sent = Instant::now();
        late_max = late_max.max(sent - prev_done);
        let reply = conn.exchange(&r.bytes);
        let done = Instant::now();
        prev_done = done;
        let ok = reply
            .as_ref()
            .is_ok_and(|rep| rep.status == 200 && rep.cache == "miss");
        hits += usize::from(reply.as_ref().is_ok_and(|rep| rep.cache == "hit"));
        if let Some(parent) = traced_under {
            ctx.tracer.record(
                "POST /predict (cold)",
                parent,
                Lane::Client,
                sent,
                done,
                format!("\"key\":\"{}\",\"ok\":{ok}", r.key),
            );
        }
        latency_us.push(ok.then(|| (done - sent).as_secs_f64() * 1e6));
        cold_ok.push(ok);
        bodies.push(reply.map(|rep| rep.body).unwrap_or_default());
        if !ok {
            conn = Conn::connect(server.addr()).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = server.cpu_s()? - cpu0;

    let mut warm_ok = Vec::with_capacity(reqs.len());
    for (r, cold) in reqs.iter().zip(&bodies) {
        let warm = conn.exchange(&r.bytes);
        warm_ok.push(warm.is_ok_and(|w| w.status == 200 && w.cache == "hit" && &w.body == cold));
    }
    let peak_rss_mib = server.peak_rss_mib()?;
    drop(server);

    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by(|&a, &b| reqs[a].key.cmp(&reqs[b].key));
    let mut d = Digest::default();
    for i in order {
        d.field(reqs[i].body.as_bytes()).field(&bodies[i]);
    }
    Ok(ColdPass {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mib,
        latency_us,
        cold_ok,
        hits,
        warm_ok,
        digest: d.hex(),
        late_max_ms: late_max.as_secs_f64() * 1e3,
    })
}

/// Folds one pass's per-request outcomes into the checks and the
/// latency samples.
fn check_cold_pass(ctx: &mut Ctx, pass: &ColdPass, reqs: &[ColdReq], latencies: &mut Samples) {
    for (i, r) in reqs.iter().enumerate() {
        ctx.checks.op(pass.cold_ok[i], || {
            format!("cold {} failed (non-200, or not a fill)", r.key)
        });
        ctx.checks.op(pass.warm_ok[i], || {
            format!(
                "warm {} differs from its cold body (or was not a hit)",
                r.key
            )
        });
        match pass.latency_us[i] {
            Some(us) => latencies.push(us),
            None => latencies.push_failure(),
        }
    }
}

/// The measured `serve-cold` run.
pub fn cold(ctx: &mut Ctx) -> Result<(), String> {
    let reqs = cold_requests(ctx.seed);
    let mut passes: Vec<ColdPass> = Vec::new();
    let mut latencies = Samples::new();
    // A fixed pass count per --seconds, at least three so setup, wall,
    // CPU and RSS are medians.
    let count = ((ctx.seconds / NOMINAL_PASS_S).round() as usize).max(3);
    for i in 0..count {
        let pass = cold_pass(ctx, &reqs, &format!("cold-{i}"), None)?;
        check_cold_pass(ctx, &pass, &reqs, &mut latencies);
        println!(
            "serve-cold pass {}: setup {:.4} s, wall {:.4} s, server cpu {:.2} s, rss {:.1} MiB",
            passes.len() + 1,
            pass.setup_s,
            pass.wall_s,
            pass.cpu_s,
            pass.peak_rss_mib
        );
        passes.push(pass);
    }
    let covered = ctx.checks.attempted;
    if passes.iter().any(|p| p.digest != passes[0].digest) {
        ctx.checks
            .fail_covered(covered, "serve-cold bodies differ between passes".into());
    }
    let line = ctx
        .checks
        .digest("serve-cold", ctx.seed, &passes[0].digest, covered);
    println!("{line}");

    let col = |f: fn(&ColdPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let k = passes.len();
    let reqs_n = latencies.len();
    // Each request's median over the passes, summed: a host stall in one
    // pass moves this less than that pass's wall time.
    let wall = (0..reqs.len())
        .map(|i| {
            let per_pass: Vec<f64> = passes.iter().filter_map(|p| p.latency_us[i]).collect();
            (per_pass.len() == k).then(|| median(&per_pass)).flatten()
        })
        .sum::<Option<f64>>()
        .map(|us| us / 1e6);
    ctx.metric(
        "setup_s",
        median(&col(|p| p.setup_s)),
        "s",
        format!("median of {k} server starts"),
    );
    ctx.metric(
        "wall_s",
        wall,
        "s",
        format!("sum over 30 requests of each one's median over {k} passes"),
    );
    ctx.metric(
        "cpu_s",
        median(&col(|p| p.cpu_s)),
        "s",
        format!("server CPU, median of {k} passes"),
    );
    ctx.metric(
        "p50_us",
        latencies.median(),
        "us",
        format!("{reqs_n} cold requests"),
    );
    ctx.metric(
        "peak_rss_mib",
        peak(&col(|p| p.peak_rss_mib)),
        "MiB",
        format!("largest server VmHWM of {k} servers"),
    );
    ctx.metric(
        "error_frac",
        ctx.checks.error_frac(),
        "ratio",
        format!(
            "{} failed / {} requests",
            ctx.checks.failed, ctx.checks.attempted
        ),
    );
    Ok(())
}

/// The traced `serve-cold` run: an untraced and a traced pass through
/// the server, then the same requests in-process with each layer timed.
pub fn cold_traced(ctx: &mut Ctx) -> Result<(), String> {
    let reqs = cold_requests(ctx.seed);
    let mut latencies = Samples::new();
    let untraced = cold_pass(ctx, &reqs, "cold-untraced", None)?;
    let root = ctx.tracer.reserve();
    let t_root = Instant::now();
    let traced = cold_pass(ctx, &reqs, "cold-traced", Some(root))?;
    ctx.tracer.record_as(
        root,
        "serve-cold pass",
        0,
        Lane::Bench,
        t_root,
        Instant::now(),
        String::new(),
    );
    check_cold_pass(ctx, &untraced, &reqs, &mut latencies);
    check_cold_pass(ctx, &traced, &reqs, &mut latencies);
    let misses = traced.cold_ok.iter().filter(|&&ok| ok).count();

    // In-process: parse, handle (the fill) and write each request.
    let dir = ctx.scratch("cold-inprocess")?;
    let service = offchip_serve::PredictService::new(offchip_serve::ServiceConfig {
        journal_dir: Some(dir),
        jobs: JOBS,
        ..offchip_serve::ServiceConfig::default()
    });
    let mut http = HttpTimes::default();
    let mut overhead_ms = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let handle_us = http.time_request(ctx, &service, &r.bytes, true)?;
        if let Some(client_us) = traced.latency_us[i] {
            overhead_ms.push((client_us - handle_us) / 1e3);
        }
    }

    // The fill path's own layers, call by call.
    let mut layers = Layers::default();
    for r in &reqs {
        let (machine, program) = r.key.split_once('/').expect("keys are machine/program");
        layers.fill(ctx, machine, program)?;
    }
    layers.append_probe(ctx)?;
    layers.report(ctx);
    layers.report_model(ctx);
    let rtt: Vec<f64> = traced.latency_us.iter().flatten().copied().collect();
    http.report(ctx, &rtt);
    ctx.metric(
        "serve.hit_ratio",
        traced.hits as f64 / reqs.len() as f64,
        "ratio",
        format!("{} hits / {} traced cold requests", traced.hits, reqs.len()),
    );
    ctx.metric(
        "serve.miss_ratio",
        misses as f64 / reqs.len() as f64,
        "ratio",
        format!("{misses} misses / {} traced cold requests", reqs.len()),
    );
    ctx.metric(
        "serve.fill_overhead_ms",
        median(&overhead_ms),
        "ms",
        format!(
            "median over {} keys of client latency - in-process handle",
            overhead_ms.len()
        ),
    );
    ctx.metric(
        "gen.offered_rps",
        reqs.len() as f64 / traced.wall_s,
        "1/s",
        format!(
            "closed loop, {} requests in {:.3} s",
            reqs.len(),
            traced.wall_s
        ),
    );
    ctx.metric(
        "gen.late_max_ms",
        traced.late_max_ms,
        "ms",
        "largest response-to-next-send gap of the closed loop",
    );
    crate::trace_overhead(ctx, traced.wall_s, untraced.wall_s);
    Ok(())
}

/// In-process timings of the HTTP and service layers.
#[derive(Default)]
struct HttpTimes {
    parse_us: Samples,
    write_us: Samples,
    predict_us: Samples,
    sweep_us: Samples,
}

impl HttpTimes {
    /// Parses `bytes` with `http::read_request`, handles it with
    /// `PredictService::handle` and writes the response with
    /// `Response::write_to`, timing each. Returns the handle time in µs.
    fn time_request(
        &mut self,
        ctx: &mut Ctx,
        service: &offchip_serve::PredictService,
        bytes: &[u8],
        traced: bool,
    ) -> Result<f64, String> {
        let t0 = Instant::now();
        let req =
            offchip_serve::http::read_request(&mut BufReader::new(bytes), Duration::from_secs(5))
                .map_err(|e| format!("in-process parse: {e:?}"))?
                .ok_or("in-process parse: no request")?;
        let t1 = Instant::now();
        let resp = service.handle(&req);
        let t2 = Instant::now();
        let mut buf = Vec::with_capacity(resp.body.len() + 256);
        resp.write_to(&mut buf, false)
            .map_err(|e| format!("in-process write: {e}"))?;
        let t3 = Instant::now();
        std::hint::black_box(&buf);
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        self.parse_us.push(us(t0, t1));
        self.write_us.push(us(t2, t3));
        let handle_us = us(t1, t2);
        if req.path == "/sweep" {
            self.sweep_us.push(handle_us);
        } else {
            self.predict_us.push(handle_us);
        }
        ctx.checks.op(resp.status == 200, || {
            format!("in-process {} answered {}", req.path, resp.status)
        });
        if traced {
            let id = ctx.tracer.reserve();
            ctx.tracer.record(
                "http::read_request",
                id,
                Lane::Service,
                t0,
                t1,
                String::new(),
            );
            ctx.tracer.record(
                "PredictService::handle",
                id,
                Lane::Service,
                t1,
                t2,
                String::new(),
            );
            ctx.tracer.record(
                "Response::write_to",
                id,
                Lane::Service,
                t2,
                t3,
                String::new(),
            );
            ctx.tracer.record_as(
                id,
                "in-process request",
                0,
                Lane::Service,
                t0,
                t3,
                String::new(),
            );
        }
        Ok(handle_us)
    }

    fn report(&mut self, ctx: &mut Ctx, client_rtt_us: &[f64]) {
        let (np, nw) = (self.parse_us.len(), self.write_us.len());
        let parse = self.parse_us.median().unwrap_or(0.0);
        let write = self.write_us.median().unwrap_or(0.0);
        let mut handle = Samples::new();
        handle.extend(&self.predict_us);
        handle.extend(&self.sweep_us);
        let handle_med = handle.median().unwrap_or(0.0);
        ctx.metric(
            "http.parse_us",
            parse,
            "us",
            format!("median of {np} read_request calls"),
        );
        ctx.metric(
            "http.write_us",
            write,
            "us",
            format!("median of {nw} write_to calls"),
        );
        let (npr, nsw) = (self.predict_us.len(), self.sweep_us.len());
        ctx.metric(
            "service.predict_us",
            self.predict_us.median().unwrap_or(0.0),
            "us",
            format!("median of {npr} in-process /predict handles"),
        );
        ctx.metric(
            "service.sweep_us",
            self.sweep_us.median().unwrap_or(0.0),
            "us",
            format!("median of {nsw} in-process /sweep handles"),
        );
        let rtt = median(client_rtt_us).unwrap_or(0.0);
        ctx.metric(
            "serve.transport_us",
            rtt - parse - handle_med - write,
            "us",
            format!(
                "median round trip {rtt:.1} us of {} requests - medians of parse, handle, write",
                client_rtt_us.len()
            ),
        );
    }
}

// ---------------------------------------------------------------- warm

/// The warm request catalogue: every `/predict` the mix can send (each
/// warm key at every core count) and one `/sweep` per key.
struct Catalogue {
    bodies: Vec<String>,
    bytes: Vec<Vec<u8>>,
    /// Per machine: index of its `n = 1` predict, its core count, and its
    /// sweep's index.
    machines: Vec<(usize, usize, usize)>,
}

const WARM_PROGRAM: &str = "CG.S";

impl Catalogue {
    fn new() -> Catalogue {
        let (mut bodies, mut machines_idx) = (Vec::new(), Vec::new());
        for (m, spec) in machines() {
            let total = spec.total_cores();
            let first = bodies.len();
            for n in 1..=total {
                bodies.push(predict_body(m, WARM_PROGRAM, n));
            }
            bodies.push(sweep_body(m, WARM_PROGRAM, total));
            machines_idx.push((first, total, first + total));
        }
        let bytes = bodies
            .iter()
            .map(|b| {
                let path = if b.contains("n_from") {
                    "/sweep"
                } else {
                    "/predict"
                };
                post(path, b)
            })
            .collect();
        Catalogue {
            bodies,
            bytes,
            machines: machines_idx,
        }
    }

    /// 90 % predict on a random key at a uniform `n`, 10 % sweep.
    fn pick(&self, rng: &mut Rng) -> usize {
        let (first, total, sweep) = self.machines[rng.next_below(3) as usize];
        if rng.chance(0.1) {
            sweep
        } else {
            first + rng.next_below(total as u64) as usize
        }
    }
}

/// A server after the warm set-up, with the cold fill bodies.
struct WarmServer {
    server: ServerProc,
    setup_s: f64,
    /// Per machine: (catalogue index of the fill request, cold body).
    cold: Vec<(usize, Vec<u8>)>,
    /// Per machine: the fill's client latency, µs.
    fill_us: Vec<f64>,
}

/// Starts a fresh server and fills CG.S on each machine with one
/// `/predict` at a seeded `n`.
fn warm_setup(
    ctx: &mut Ctx,
    cat: &Catalogue,
    rng: &mut Rng,
    name: &str,
) -> Result<WarmServer, String> {
    let dir = ctx.scratch(name)?;
    let t0 = Instant::now();
    let server = ServerProc::start(&ctx.bin_dir, &dir, JOBS)?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let (mut cold, mut fill_us) = (Vec::new(), Vec::new());
    for &(first, total, _) in &cat.machines {
        let idx = first + rng.next_below(total as u64) as usize;
        let sent = Instant::now();
        let reply = conn.exchange(&cat.bytes[idx]);
        fill_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let ok = reply
            .as_ref()
            .is_ok_and(|r| r.status == 200 && r.cache == "miss");
        ctx.checks.op(ok, || {
            format!("warm set-up fill {} failed", cat.bodies[idx])
        });
        cold.push((idx, reply.map(|r| r.body).unwrap_or_default()));
    }
    Ok(WarmServer {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        cold,
        fill_us,
    })
}

/// One open-loop phase against a warm server.
struct WarmPhase {
    start: Instant,
    outcomes: Vec<Outcome>,
    span: Duration,
    wall_s: f64,
}

/// Runs one seeded open-loop phase of `span` against a warm server.
fn warm_phase(
    seed: u64,
    ws: &WarmServer,
    cat: &Catalogue,
    stream: u64,
    span: Duration,
) -> WarmPhase {
    let plans: Vec<Vec<Planned>> = (0..WARM_CONNS)
        .map(|c| {
            let mut rng = Rng::new(mix(seed, stream * 16 + c as u64));
            poisson_plan(&mut rng, WARM_RATE / WARM_CONNS as f64, span, |r| {
                cat.pick(r)
            })
        })
        .collect();
    let (start, outcomes) = open_loop(ws.server.addr(), &plans, &cat.bytes);
    let first_due = outcomes.iter().map(|o| o.due).min().unwrap_or_default();
    let last_done = outcomes.iter().map(|o| o.done).max().unwrap_or_default();
    WarmPhase {
        wall_s: last_done.saturating_sub(first_due).as_secs_f64(),
        start,
        outcomes,
        span,
    }
}

/// Fetches every catalogue body once (untimed) and checks the phases'
/// responses and the set-up's cold bodies against them. Returns the
/// catalogue digest.
fn warm_verify(
    ctx: &mut Ctx,
    ws: &WarmServer,
    cat: &Catalogue,
    phases: &[&WarmPhase],
) -> Result<String, String> {
    let mut conn = Conn::connect(ws.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut canonical = Vec::with_capacity(cat.bytes.len());
    let mut d = Digest::default();
    for (i, bytes) in cat.bytes.iter().enumerate() {
        let reply = conn.exchange(bytes);
        let ok = reply
            .as_ref()
            .is_ok_and(|r| r.status == 200 && r.cache == "hit");
        ctx.checks.op(ok, || {
            format!("warm catalogue request {} failed", cat.bodies[i])
        });
        let body = reply.map(|r| r.body).unwrap_or_default();
        d.field(cat.bodies[i].as_bytes()).field(&body);
        canonical.push(body);
    }
    for (idx, cold) in &ws.cold {
        ctx.checks.op(cold == &canonical[*idx], || {
            format!(
                "warm body differs from the cold body for {}",
                cat.bodies[*idx]
            )
        });
    }
    let digests: Vec<u64> = canonical.iter().map(|b| digest_of(b)).collect();
    for phase in phases {
        for o in &phase.outcomes {
            ctx.checks
                .op(o.ok && o.hit && o.body == digests[o.req], || {
                    format!("warm request {} failed or drifted", cat.bodies[o.req])
                });
        }
    }
    Ok(d.hex())
}

/// The measured `serve-warm` run: [`WARM_SERVERS`] fresh servers, each
/// loaded for [`WARM_PHASES`] back-to-back open-loop phases.
/// `p50_us` is the median of the phases' medians, so a host hiccup that
/// slows one phase cannot drag the whole run.
pub fn warm(ctx: &mut Ctx) -> Result<(), String> {
    let cat = Catalogue::new();
    let phases = WARM_SERVERS * WARM_PHASES;
    let span = Duration::from_secs_f64(ctx.seconds / phases as f64);
    let mut rng = Rng::new(mix(ctx.seed, 0x5E7));
    let (mut setups, mut walls, mut cpus, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut phase_p50 = Vec::new();
    let mut latency = Samples::new();
    let mut all: Vec<Outcome> = Vec::new();
    let mut digests = Vec::new();
    for s in 0..WARM_SERVERS {
        let ws = warm_setup(ctx, &cat, &mut rng, &format!("warm-{s}"))?;
        let cpu0 = ws.server.cpu_s()?;
        let mut loaded = Vec::with_capacity(WARM_PHASES);
        for p in 0..WARM_PHASES {
            let phase = warm_phase(ctx.seed, &ws, &cat, (s * WARM_PHASES + p) as u64, span);
            let mut lat = Samples::new();
            for o in &phase.outcomes {
                if o.ok {
                    lat.push(o.latency_ns as f64 / 1e3);
                } else {
                    lat.push_failure();
                }
            }
            latency.extend(&lat);
            phase_p50.push(lat.median().unwrap_or(f64::INFINITY));
            walls.push(phase.wall_s);
            loaded.push(phase);
        }
        let cpu = ws.server.cpu_s()? - cpu0;
        digests.push(warm_verify(
            ctx,
            &ws,
            &cat,
            &loaded.iter().collect::<Vec<_>>(),
        )?);
        rss.push(ws.server.peak_rss_mib()?);
        let outcomes: Vec<Outcome> = loaded.into_iter().flat_map(|p| p.outcomes).collect();
        let g = gen_stats(&outcomes, span * WARM_PHASES as u32);
        println!(
            "serve-warm server {}: setup {:.4} s, {} requests, phase p50 {:?} us, server cpu {:.2} s, \
             late {:.4}, late max {:.3} ms",
            s + 1,
            ws.setup_s,
            outcomes.len(),
            &phase_p50[s * WARM_PHASES..],
            cpu,
            g.late_frac,
            g.late_max_ms
        );
        setups.push(ws.setup_s);
        cpus.push(cpu);
        all.extend(outcomes);
    }
    let covered = ctx.checks.attempted;
    if digests.iter().any(|d| *d != digests[0]) {
        ctx.checks
            .fail_covered(covered, "serve-warm bodies differ between servers".into());
    }
    let line = ctx
        .checks
        .digest("serve-warm", ctx.seed, &digests[0], covered);
    println!("{line}");

    let n = latency.len();
    let g = gen_stats(&all, span * phases as u32);
    ctx.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {WARM_SERVERS} server starts + CG.S fills"),
    );
    ctx.metric(
        "wall_s",
        median(&walls),
        "s",
        format!("median of {phases} schedules, first due to last response"),
    );
    ctx.metric(
        "cpu_s",
        median(&cpus),
        "s",
        format!("server CPU over {WARM_PHASES} phases, median of {WARM_SERVERS} servers"),
    );
    ctx.metric(
        "p50_us",
        median(&phase_p50),
        "us",
        format!("median of {phases} phase medians over {n} requests, timed from due time"),
    );
    ctx.metric(
        "peak_rss_mib",
        peak(&rss),
        "MiB",
        format!("largest server VmHWM of {WARM_SERVERS} servers"),
    );
    let p99 = latency.percentile(0.99);
    ctx.metric(
        "p99_us",
        p99,
        "us",
        format!("{n} requests, timed from due time"),
    );
    ctx.metric(
        "late_frac",
        g.late_frac,
        "ratio",
        format!("{n} requests; late = sent > 1 ms after due"),
    );
    ctx.metric(
        "error_frac",
        ctx.checks.error_frac(),
        "ratio",
        format!(
            "{} failed / {} requests",
            ctx.checks.failed, ctx.checks.attempted
        ),
    );
    Ok(())
}

/// The traced `serve-warm` run: an untraced and a traced open-loop
/// phase on one warm server, then the traced phase's requests parsed,
/// handled and written in-process.
pub fn warm_traced(ctx: &mut Ctx) -> Result<(), String> {
    let cat = Catalogue::new();
    let span =
        Duration::from_secs_f64((ctx.seconds / (WARM_SERVERS * WARM_PHASES) as f64).max(1.0));
    let mut rng = Rng::new(mix(ctx.seed, 0x5E7));
    let ws = warm_setup(ctx, &cat, &mut rng, "warm-traced")?;
    let untraced = warm_phase(ctx.seed, &ws, &cat, 0, span);
    let traced = warm_phase(ctx.seed, &ws, &cat, 1, span);
    let root = ctx.tracer.reserve();
    for o in &traced.outcomes {
        let due = traced.start + o.due;
        let end = due + Duration::from_nanos(o.latency_ns);
        ctx.tracer.record(
            "POST (warm)",
            root,
            Lane::Client,
            due,
            end,
            format!("\"late_ns\":{},\"rtt_ns\":{}", o.late_ns, o.rtt_ns),
        );
    }
    let end = traced.start + traced.span;
    ctx.tracer.record_as(
        root,
        "serve-warm traced phase",
        0,
        Lane::Bench,
        traced.start,
        end,
        String::new(),
    );
    warm_verify(ctx, &ws, &cat, &[&untraced, &traced])?;
    let server_fill_us = ws.fill_us.clone();
    drop(ws);

    // In-process: a service warmed with the same fills, then every
    // request of the traced phase parsed, handled and written.
    let dir = ctx.scratch("warm-inprocess")?;
    let service = offchip_serve::PredictService::new(offchip_serve::ServiceConfig {
        journal_dir: Some(dir),
        jobs: JOBS,
        ..offchip_serve::ServiceConfig::default()
    });
    let mut fills = HttpTimes::default();
    let mut fill_overhead_ms = Vec::new();
    for (&(first, _, _), client_us) in cat.machines.iter().zip(server_fill_us) {
        let handle_us = fills.time_request(ctx, &service, &cat.bytes[first], false)?;
        fill_overhead_ms.push((client_us - handle_us) / 1e3);
    }
    let mut http = HttpTimes::default();
    for o in &traced.outcomes {
        http.time_request(ctx, &service, &cat.bytes[o.req], false)?;
    }
    let rtt: Vec<f64> = traced
        .outcomes
        .iter()
        .map(|o| o.rtt_ns as f64 / 1e3)
        .collect();
    http.report(ctx, &rtt);

    // The set-up fills are the only simulator work of this workload.
    let mut layers = Layers::default();
    for (m, _) in machines() {
        layers.fill(ctx, m, WARM_PROGRAM)?;
    }
    layers.append_probe(ctx)?;
    layers.report(ctx);
    layers.report_model(ctx);

    let n = traced.outcomes.len();
    let hits = traced.outcomes.iter().filter(|o| o.hit).count();
    let misses = traced.outcomes.iter().filter(|o| o.miss).count();
    ctx.metric(
        "serve.hit_ratio",
        hits as f64 / n.max(1) as f64,
        "ratio",
        format!("{hits} hits / {n} traced requests"),
    );
    ctx.metric(
        "serve.miss_ratio",
        misses as f64 / n.max(1) as f64,
        "ratio",
        format!("{misses} misses / {n} traced requests"),
    );
    ctx.metric(
        "serve.fill_overhead_ms",
        median(&fill_overhead_ms),
        "ms",
        format!(
            "median over {} set-up fills of client latency - in-process handle",
            fill_overhead_ms.len()
        ),
    );
    let g = gen_stats(&traced.outcomes, traced.span);
    ctx.metric(
        "gen.offered_rps",
        g.offered_rps,
        "1/s",
        format!("{n} requests over {:.3} s", traced.span.as_secs_f64()),
    );
    ctx.metric(
        "gen.late_max_ms",
        g.late_max_ms,
        "ms",
        format!("largest lateness of {n} requests"),
    );
    crate::trace_overhead(ctx, traced.wall_s, untraced.wall_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_requests_cover_every_key_once() {
        let reqs = cold_requests(1);
        assert_eq!(reqs.len(), 30);
        let mut keys: Vec<&str> = reqs.iter().map(|r| r.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 30);
        let again: Vec<String> = cold_requests(1).into_iter().map(|r| r.body).collect();
        assert_eq!(
            again,
            reqs.iter().map(|r| r.body.clone()).collect::<Vec<_>>()
        );
    }
}
