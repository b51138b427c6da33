//! The TCP front-end: accept loop, bounded admission queue, worker pool
//! and keep-alive connection handling.
//!
//! Deliberately plain `std::thread` workers feeding off the bounded
//! `ConnQueue` — *not* `offchip_pool::scoped_map`: the pool's workers
//! hold permits from the process-global parallelism budget, and
//! long-lived HTTP workers squatting on permits would starve the fill
//! campaigns that need them for simulation fan-out. The worker count is
//! small (HTTP handling is cheap; the expensive work happens in the
//! campaign layer under its own budget).
//!
//! Overload behaviour (DESIGN.md §14): a connection the queue cannot
//! take is answered `503 + Retry-After` with an `X-Offchip-Shed` reason
//! header right on the accept thread — one small write instead of a
//! worker. `GET /readyz` reports not-ready while draining or while the
//! queue sits above its high-water mark, so orchestrators stop routing
//! *before* shedding starts. A request that stalls mid-read (slow-loris,
//! chaos-net stall) gets a clean `408`; an idle keep-alive connection is
//! still closed silently.
//!
//! `GET /statusz` ends with the slowest recent requests and their trace
//! ids: the table an operator reads to pick which `/debug/trace/<id>` to
//! pull (DESIGN.md §15).

use crate::admission::{AdmissionConfig, ConnQueue};
use crate::http::{read_request, HttpError, Request, Response};
use crate::service::PredictService;
use offchip_chaos::{ChaosStream, NetFaultPlan, NetSpec};
use offchip_obs::{Registry, TraceRef, TraceStore};
use std::io::{BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-connection socket timeout: bounds how long an idle keep-alive
/// connection can delay worker exit during shutdown drain.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// How often the watcher thread reads the shutdown flag (and how long
/// the accept loop backs off after a failed accept).
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);
/// Heartbeat log cadence.
const HEARTBEAT: Duration = Duration::from_secs(10);
/// Connection-setup failures warn on the first, then once per this many.
const SETUP_WARN_EVERY: u64 = 64;
/// Slots in the slowest-recent-requests table on `/statusz`.
const SLOWEST_TRACKED: usize = 8;

/// Server tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port (CI does this).
    pub addr: String,
    /// HTTP worker threads. Each keep-alive connection pins one worker
    /// for its lifetime, so this bounds concurrent *connections*, not
    /// CPU: workers spend their time blocked in socket reads, which is
    /// why the default is a flat count rather than a per-core one — on
    /// a 1-core host, 2 core-derived workers would let a single idle
    /// keep-alive client starve every other connection for up to the
    /// socket timeout.
    pub workers: usize,
    /// Admission limits for the accept-to-worker queue.
    pub admission: AdmissionConfig,
    /// Wall-clock budget for reading one full request, measured from its
    /// first byte. A request that dribbles past it gets `408`; a
    /// keep-alive connection that sends nothing at all is closed
    /// silently at the socket timeout instead.
    pub header_deadline: Duration,
    /// Chaos-net fault schedule applied to every accepted connection
    /// (`--chaos-net` / `OFFCHIP_CHAOS_NET`).
    pub chaos_net: Option<NetSpec>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:7071".into(),
            workers: 8,
            admission: AdmissionConfig::default(),
            header_deadline: Duration::from_secs(10),
            chaos_net: None,
        }
    }
}

/// A connection as the workers see it: the raw socket, or the socket
/// behind the chaos-net fault layer.
pub(crate) enum ServeStream {
    Plain(TcpStream),
    Chaos(ChaosStream<TcpStream>),
}

impl Read for ServeStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServeStream::Plain(s) => s.read(buf),
            ServeStream::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for ServeStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServeStream::Plain(s) => s.write(buf),
            ServeStream::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServeStream::Plain(s) => s.flush(),
            ServeStream::Chaos(s) => s.flush(),
        }
    }
}

/// An admitted connection as the workers see it: the (possibly
/// chaos-wrapped) socket, the accept-order connection counter that seeds
/// deterministic trace ids, and the admission instant that prices the
/// `queue.wait` span.
pub(crate) struct Conn {
    stream: ServeStream,
    /// 1-based accept counter.
    id: u64,
    /// When the accept loop queued the connection.
    admitted: Instant,
}

/// One finished request in the `/statusz` slowest table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlowTrace {
    /// The id echoed in the response's `X-Offchip-Trace`: the inbound
    /// id of a traced request, the derived one of an untraced request.
    trace: u64,
    /// Total latency in microseconds.
    latency_us: u64,
    /// Response status.
    status: u16,
}

/// The [`SLOWEST_TRACKED`] slowest recent requests, slowest first.
/// "Recent" is enforced by displacement: new slow requests push old ones
/// out. A fixed-size table, so recording never grows memory.
#[derive(Debug, Default)]
struct Slowest(Mutex<Vec<SlowTrace>>);

impl Slowest {
    /// Offers one finished request to the table.
    fn record(&self, status: u16, latency_us: u64, trace: u64) {
        let mut table = self.0.lock().expect("slowest table lock poisoned");
        let pos = table.partition_point(|s| s.latency_us >= latency_us);
        if pos < SLOWEST_TRACKED {
            table.insert(
                pos,
                SlowTrace {
                    trace,
                    latency_us,
                    status,
                },
            );
            table.truncate(SLOWEST_TRACKED);
        }
    }

    /// The table as of now, slowest first.
    fn snapshot(&self) -> Vec<SlowTrace> {
        self.0.lock().expect("slowest table lock poisoned").clone()
    }
}

/// A bound listener plus the shared service.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<PredictService>,
    opts: ServerOptions,
    /// When the server bound: `/statusz` uptime.
    started: Instant,
    slowest: Slowest,
    /// Traced requests' span trees, for `/debug/trace/<id>`.
    traces: TraceStore,
}

impl Server {
    /// Binds the listener and wraps the service.
    pub fn bind(opts: &ServerOptions, service: PredictService) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let mut opts = opts.clone();
        opts.workers = opts.workers.max(1);
        Ok(Server {
            listener,
            addr,
            service: Arc::new(service),
            opts,
            started: Instant::now(),
            slowest: Slowest::default(),
            traces: TraceStore::default(),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's metrics registry, which the server's own counters
    /// (connections, shed, timeouts) share.
    pub fn metrics(&self) -> &Registry {
        self.service.metrics()
    }

    /// Wraps an accepted socket in the chaos-net layer when configured.
    fn wrap(&self, stream: TcpStream) -> ServeStream {
        match &self.opts.chaos_net {
            Some(spec) => ServeStream::Chaos(ChaosStream::new(
                stream,
                Arc::new(NetFaultPlan::new(spec.clone())),
            )),
            None => ServeStream::Plain(stream),
        }
    }

    /// Serves until `shutdown` reads true, then drains: stops accepting,
    /// lets workers finish in-flight requests, joins them and returns.
    ///
    /// The accept loop blocks in `accept`, so a fresh connection reaches a
    /// worker at once. A watcher thread reads `shutdown` every 20 ms,
    /// writes the heartbeat, and on shutdown connects to the listener to
    /// wake the blocked `accept`.
    pub fn run(&self, shutdown: &AtomicBool) {
        let queue: ConnQueue<Conn> = ConnQueue::new(self.opts.admission.clone());
        let reg = self.metrics();
        // 1-based accept counter: the high bits of every derived trace id
        // (DESIGN.md §15) — deterministic for a replayed accept order.
        let conn_counter = AtomicU64::new(0);
        let accepting = AtomicBool::new(true);
        std::thread::scope(|s| {
            for _ in 0..self.opts.workers {
                let queue = &queue;
                s.spawn(move || {
                    while let Some(conn) = queue.pop() {
                        handle_connection(conn, self, shutdown, queue);
                        queue.done();
                    }
                });
            }
            s.spawn(|| self.watch(shutdown, &accepting, &queue));

            while !shutdown.load(Ordering::SeqCst) {
                let stream = match self.listener.accept() {
                    // The watcher's wake-up, or a client arriving as the
                    // drain starts: either way, accept no more.
                    Ok(_) if shutdown.load(Ordering::SeqCst) => break,
                    Ok((stream, _peer)) => stream,
                    Err(e) => {
                        offchip_obs::warn!("serve: accept failed: {e}");
                        std::thread::sleep(SHUTDOWN_POLL);
                        continue;
                    }
                };
                reg.add("serve.connections", 1);
                // Workers use blocking reads with a timeout.
                let ok = stream
                    .set_read_timeout(Some(SOCKET_TIMEOUT))
                    .and_then(|_| stream.set_write_timeout(Some(SOCKET_TIMEOUT)))
                    .and_then(|_| stream.set_nodelay(true));
                if let Err(e) = ok {
                    // A connection we cannot configure would hang a
                    // worker without its timeouts; drop it, but never
                    // silently — the old accept loop ate these and the
                    // counter never moved.
                    reg.add("serve.conn_setup_failed", 1);
                    let n = reg.counter("serve.conn_setup_failed");
                    offchip_obs::warn_rate_limited!(
                        SETUP_WARN_EVERY,
                        "serve: connection setup failed ({n} so far): {e}"
                    );
                    continue;
                }
                let conn = Conn {
                    stream: self.wrap(stream),
                    id: conn_counter.fetch_add(1, Ordering::Relaxed) + 1,
                    admitted: Instant::now(),
                };
                match queue.admit(conn) {
                    Ok(depth) => reg.observe("serve.queue_depth", depth as u64),
                    Err((mut conn, reason)) => {
                        reg.add("serve.shed", 1);
                        // One small write on the accept thread; the
                        // worker pool never sees the connection.
                        let _ = Response::error(503, "server overloaded — retry shortly")
                            .with_header("Retry-After", "1")
                            .with_header("X-Offchip-Shed", reason.as_str())
                            .write_to(&mut conn.stream, true);
                    }
                }
            }
            accepting.store(false, Ordering::SeqCst);
            offchip_obs::info!("serve: shutdown requested — draining workers");
            queue.close();
        });
        offchip_obs::info!(
            "serve: drained — served {} connection(s), shed {}",
            reg.counter("serve.connections"),
            reg.counter("serve.shed")
        );
    }

    /// The watcher: writes the heartbeat every [`HEARTBEAT`] until
    /// `shutdown` reads true, then connects to the listener until the
    /// accept loop, woken by one of those connections, has stopped.
    fn watch(&self, shutdown: &AtomicBool, accepting: &AtomicBool, queue: &ConnQueue<Conn>) {
        let reg = self.metrics();
        let mut last_beat = Instant::now();
        while !shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(SHUTDOWN_POLL);
            if last_beat.elapsed() >= HEARTBEAT {
                last_beat = Instant::now();
                let (queued, active) = queue.depth();
                offchip_obs::info!(
                    "serve: heartbeat — {} connection(s), {} predict, {} sweep, \
                     cache {} hit / {} miss, {} model(s) cached, {} shed, \
                     queue {queued} waiting / {active} active",
                    reg.counter("serve.connections"),
                    reg.counter("serve.requests.predict"),
                    reg.counter("serve.requests.sweep"),
                    reg.counter("serve.cache.hit"),
                    reg.counter("serve.cache.miss"),
                    self.service.cached_models(),
                    reg.counter("serve.shed"),
                );
            }
        }
        // A listener bound to 0.0.0.0 or [::] is reached over loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while accepting.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&wake, SHUTDOWN_POLL);
            std::thread::sleep(SHUTDOWN_POLL);
        }
    }
}

/// `GET /readyz`: ready only while accepting and below high-water.
/// Server-level (unlike `/healthz` in the service) because readiness is
/// a property of the queue and the drain flag, which the service cannot
/// see.
fn readyz<T>(queue: &ConnQueue<T>, shutdown: &AtomicBool, reg: &Registry) -> Response {
    reg.add("serve.requests.readyz", 1);
    let (queued, _active) = queue.depth();
    if shutdown.load(Ordering::SeqCst) {
        Response::error(503, "draining")
    } else if queued >= queue.config().high_water() {
        Response::error(503, "queue above high-water")
    } else {
        Response::text(200, "ready\n")
    }
}

/// `GET /statusz`: the human-readable flight-recorder page — uptime,
/// traffic and cache counters, breaker states and the slowest recent
/// requests with their trace ids.
fn statusz<T>(server: &Server, queue: &ConnQueue<T>) -> Response {
    use std::fmt::Write as _;
    let reg = server.metrics();
    reg.add("serve.requests.statusz", 1);
    let (queued, active) = queue.depth();
    let hits = reg.counter("serve.cache.hit");
    let misses = reg.counter("serve.cache.miss");
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "offchip-serve statusz");
    let _ = writeln!(out, "uptime_s: {}", server.started.elapsed().as_secs());
    let _ = writeln!(
        out,
        "connections: {} (queue {queued} waiting / {active} active)",
        reg.counter("serve.connections")
    );
    let _ = writeln!(
        out,
        "requests: predict={} sweep={} metrics={} readyz={}",
        reg.counter("serve.requests.predict"),
        reg.counter("serve.requests.sweep"),
        reg.counter("serve.requests.metrics"),
        reg.counter("serve.requests.readyz"),
    );
    let _ = writeln!(
        out,
        "cache: hit={hits} miss={misses} hit_ratio={ratio:.3} entries={}",
        server.service.cached_models()
    );
    let _ = writeln!(
        out,
        "pressure: shed={} request_timeout={} deadline_miss={} degraded={}",
        reg.counter("serve.shed"),
        reg.counter("serve.request_timeout"),
        reg.counter("serve.deadline_miss"),
        reg.counter("serve.degraded"),
    );
    let breakers = server.service.breaker_entries();
    if breakers.is_empty() {
        let _ = writeln!(out, "breakers: all closed");
    } else {
        for (key, info) in breakers {
            let _ = writeln!(
                out,
                "breaker: {}/{} state={} consecutive_failures={} last_error_kind={}",
                key.machine,
                key.program,
                info.state.as_str(),
                info.consecutive_failures,
                info.last_error_kind.unwrap_or("none"),
            );
        }
    }
    let slowest = server.slowest.snapshot();
    if slowest.is_empty() {
        let _ = writeln!(out, "slowest: none recorded");
    } else {
        let _ = writeln!(out, "slowest ({} recent):", slowest.len());
        for s in slowest {
            let _ = writeln!(
                out,
                "  trace={:016x} latency_us={} status={}",
                s.trace, s.latency_us, s.status
            );
        }
    }
    Response::text(200, out)
}

/// `GET /debug/trace/<id>`: the buffered span tree of a recent request
/// this server traced — JSON by default, Chrome `trace_event` with
/// `?fmt=perfetto`.
fn debug_trace(id_hex: &str, query: &str, server: &Server) -> Response {
    server.metrics().add("serve.requests.debug_trace", 1);
    let Some(id) = crate::http::parse_hex_id(id_hex) else {
        return Response::error(400, "trace id must be hex");
    };
    let body = if query.split('&').any(|kv| kv == "fmt=perfetto") {
        server.traces.chrome_json(id)
    } else {
        server.traces.tree_json(id)
    };
    match body {
        Some(json) => Response::json(200, format!("{json}\n")),
        None => Response::error(404, "no such trace (expired or never traced)"),
    }
}

/// Routes one request: server-level endpoints (which need the queue, the
/// drain flag or the slowest table) here, everything else to the service.
fn route(
    req: &Request,
    server: &Server,
    shutdown: &AtomicBool,
    queue: &ConnQueue<Conn>,
) -> Response {
    let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    if req.method == "GET" {
        match path {
            "/readyz" => return readyz(queue, shutdown, server.metrics()),
            "/statusz" => return statusz(server, queue),
            _ => {
                if let Some(id_hex) = path.strip_prefix("/debug/trace/") {
                    return debug_trace(id_hex, query, server);
                }
            }
        }
    }
    server.service.handle(req)
}

/// Serves one connection: keep-alive request loop until the client
/// closes, errors, times out or shutdown is requested.
///
/// Per-request trace lifecycle (DESIGN.md §15): the id is the inbound
/// `X-Offchip-Trace` when present, else derived from
/// `(connection counter, request sequence)`; spans are buffered only when
/// the client asked for tracing by sending that header, but the id is
/// *echoed* on every response either way — correlation is free, buffering
/// is opt-in.
fn handle_connection(conn: Conn, server: &Server, shutdown: &AtomicBool, queue: &ConnQueue<Conn>) {
    let conn_id = conn.id;
    let queue_wait_us = conn.admitted.elapsed().as_micros() as u64;
    let mut reader = BufReader::new(conn.stream);
    let mut seq: u64 = 0;
    loop {
        let t_parse = Instant::now();
        match read_request(&mut reader, server.opts.header_deadline) {
            Ok(Some(req)) => {
                let parse_us = t_parse.elapsed().as_micros() as u64;
                let t0 = Instant::now();
                let id = req
                    .trace
                    .unwrap_or_else(|| offchip_obs::derive_trace_id(conn_id, seq));
                let root = if req.trace.is_some() {
                    let detail = format!("{} {} conn={conn_id} seq={seq}", req.method, req.path);
                    server.traces.begin(id, "request", detail, false)
                } else {
                    TraceRef::NONE
                };
                offchip_obs::span_event(&root, "http.parse", String::new, parse_us);
                if seq == 0 {
                    // Admission wait is a connection-level cost; bill it
                    // to the first request, which actually paid it.
                    offchip_obs::span_event(&root, "queue.wait", String::new, queue_wait_us);
                }
                seq += 1;
                // Work done for this request (log records, model-path
                // spans, a fill it leads) finds its trace here.
                let _scope = offchip_obs::TraceScope::enter(root.clone());
                // Close after this response if the client asked to or
                // the server is draining.
                let close = req.close || shutdown.load(Ordering::SeqCst);
                let resp = route(&req, server, shutdown, queue)
                    .with_header("X-Offchip-Trace", &format!("{id:016x}"));
                let write = offchip_obs::span_open(&root, "response.write", String::new);
                let wrote = resp.write_to(reader.get_mut(), close);
                offchip_obs::span_close(&write);
                offchip_obs::span_close(&root);
                let total_us = parse_us + t0.elapsed().as_micros() as u64;
                server.slowest.record(resp.status, total_us, id);
                if wrote.is_err() || close {
                    return;
                }
            }
            Ok(None) => return,
            Err(HttpError::BadRequest(what)) => {
                let _ = Response::error(400, what).write_to(reader.get_mut(), true);
                return;
            }
            Err(HttpError::TooLarge(what)) => {
                let _ = Response::error(413, what).write_to(reader.get_mut(), true);
                return;
            }
            Err(HttpError::Timeout(what)) => {
                // The request *started* and then stalled (slow-loris or
                // a chaos stall): a clean 408, distinct from the silent
                // close an idle keep-alive connection gets.
                server.metrics().add("serve.request_timeout", 1);
                let _ = Response::error(408, what).write_to(reader.get_mut(), true);
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readyz_reflects_drain_and_high_water() {
        let cfg = AdmissionConfig {
            max_queue: 4,
            max_conns: 8,
        };
        let queue: ConnQueue<u8> = ConnQueue::new(cfg.clone());
        let shutdown = AtomicBool::new(false);
        let reg = Registry::default();
        assert_eq!(readyz(&queue, &shutdown, &reg).status, 200);

        // Queue at the high-water mark: not ready, but still accepting.
        for i in 0..cfg.high_water() {
            queue.admit(i as u8).unwrap();
        }
        let resp = readyz(&queue, &shutdown, &reg);
        assert_eq!(resp.status, 503);
        assert!(
            String::from_utf8_lossy(&resp.body).contains("high-water"),
            "{:?}",
            resp.body
        );

        // Draining wins over everything else.
        shutdown.store(true, Ordering::SeqCst);
        let resp = readyz(&queue, &shutdown, &reg);
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8_lossy(&resp.body).contains("draining"));
    }

    #[test]
    fn slowest_table_is_sorted_bounded_and_keeps_traces() {
        let t = Slowest::default();
        for i in 0..50u64 {
            t.record(200, i * 100, 0x1000 + i);
        }
        let slowest = t.snapshot();
        assert_eq!(slowest.len(), SLOWEST_TRACKED);
        assert!(slowest
            .windows(2)
            .all(|w| w[0].latency_us >= w[1].latency_us));
        assert_eq!(slowest[0].latency_us, 4_900);
        assert_eq!(slowest[0].trace, 0x1000 + 49);
    }
}
