//! # blazer-serve
//!
//! A concurrent timing-channel analysis service: the decomposition driver
//! behind an HTTP/1.1 API, built on `std::net` only (the workspace has no
//! crates.io access).
//!
//! ```text
//! POST /analyze   {"source": "fn f(h: int #high) { ... }", "domain": "zone", ...}
//! POST /analyze   [{...}, {...}, ...]    batch: one array in, one array out
//! GET  /health    liveness probe
//! GET  /stats     connection, request, worker, and cache counters
//! ```
//!
//! Connections are persistent (HTTP/1.1 keep-alive with pipelining
//! support): a client analyzing a whole benchmark suite pays one TCP
//! handshake, not one per program, which is what lets the verdict cache's
//! microsecond hits actually arrive in microseconds.
//!
//! The architecture is the paper's Fig. 2 driver wrapped in four service
//! layers:
//!
//! 1. **Bounded job queue.** The accept loop pushes connections into a
//!    `sync_channel`; when the queue is full the connection is answered
//!    `503` immediately instead of piling up unbounded work.
//! 2. **Worker pool with per-request budgets.** Each worker owns one
//!    connection at a time and serves its requests in order, running every
//!    analysis under `catch_unwind` with its own installed
//!    [`blazer_core::Budget`] (deadline and LP-call caps from the request,
//!    clamped by the server's `max_timeout`). One pathological submission
//!    exhausts *its* budget — it can never take the server, or a sibling
//!    request, down. A batch submission fans its items out over
//!    [`pool::scoped_map`] and answers one array in submission order;
//!    per-item failures (400/422/500) never fail the batch.
//! 3. **Single-flight coalescing.** Concurrent identical submissions join
//!    one in-flight driver run ([`cache::SingleFlight`]) instead of
//!    stampeding past a shared cache miss.
//! 4. **Content-addressed verdict cache.** Verdicts are pure functions of
//!    `(source, config)`, so completed responses are memoized by content
//!    address ([`cache::CacheKey`]) and identical resubmissions are
//!    answered in microseconds, optionally surviving restarts via an
//!    append-only JSONL file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bench;
pub mod cache;
pub mod client;
pub mod pool;
pub mod report;
pub mod sync;

// The HTTP/1.1 subset itself moved to the shared `blazer-http` crate so
// the fleet router can speak the same wire format; the `http` path every
// existing caller uses is preserved by re-export.
pub use blazer_http as http;

pub use api::AnalyzeRequest;
pub use cache::{CacheKey, VerdictCache};

use blazer_ir::json::Json;
use cache::{FlightOutcome, Joined, SingleFlight};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Worker-pool width; `None` defers to `BLAZER_SERVE_WORKERS`, then
    /// the machine's available parallelism plus one spare connection
    /// worker ([`pool::serving_width`]).
    pub workers: Option<usize>,
    /// Bounded job-queue depth; a full queue answers `503`.
    pub queue_depth: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Server-side clamp on every request's wall-clock deadline (`None`
    /// leaves requests without a deadline unlimited).
    pub max_timeout: Option<Duration>,
    /// Verdict-cache persistence file (`None` keeps the cache in memory).
    pub cache_file: Option<PathBuf>,
    /// Trail-evaluation threads *within* one analysis. The default of 1
    /// lets the pool parallelize across requests instead of oversubscribing
    /// every core on each one.
    pub analysis_threads: usize,
    /// Requests served on one keep-alive connection before the server
    /// closes it (resource hygiene; the close is announced in the last
    /// response's `Connection: close`).
    pub max_requests_per_connection: u64,
    /// Token gating the `POST /shutdown` admin endpoint. `None` falls
    /// back to the `BLAZER_ADMIN_TOKEN` environment variable; with
    /// neither set the endpoint is disabled (403).
    pub admin_token: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8645".to_string(),
            workers: None,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            max_timeout: None,
            cache_file: None,
            analysis_threads: 1,
            max_requests_per_connection: http::DEFAULT_MAX_REQUESTS_PER_CONNECTION,
            admin_token: None,
        }
    }
}

/// Live service counters (monotonic except the two gauges,
/// [`Stats::queue_len`] and [`Stats::workers_busy`]).
#[derive(Debug, Default)]
pub struct Stats {
    /// TCP connections handled by a worker (each may carry many requests).
    pub connections: AtomicU64,
    /// HTTP requests served, across all connections and routes (batch
    /// submissions count as one request; their items are
    /// [`Stats::analyze_requests`]).
    pub requests: AtomicU64,
    /// `/analyze` submissions (cache hits and batch items included: a
    /// batch of N counts N).
    pub analyze_requests: AtomicU64,
    /// Analyses that actually ran the driver.
    pub analyses_run: AtomicU64,
    /// Submissions answered from a concurrent identical in-flight run
    /// instead of running the driver or hitting the cache themselves.
    pub coalesced: AtomicU64,
    /// Batch (array-bodied) `/analyze` requests.
    pub batch_requests: AtomicU64,
    /// Driver panics isolated into `500` responses.
    pub crashes: AtomicU64,
    /// Analyses priced under the `weighted` cost-model preset.
    pub cost_model_weighted: AtomicU64,
    /// Analyses priced under the cache-aware cost-model preset.
    pub cost_model_cache: AtomicU64,
    /// Analyses priced under a custom (non-preset) cost model.
    pub cost_model_custom: AtomicU64,
    /// Requests answered with a `4xx` status (batch items excluded: the
    /// batch transport itself succeeded).
    pub client_errors: AtomicU64,
    /// Connections rejected `503` by the full job queue.
    pub busy_rejections: AtomicU64,
    /// Gauge: connections accepted but not yet picked up by a worker.
    /// Saturation shows here (and in [`Stats::workers_busy`]) before the
    /// queue fills and 503s start.
    pub queue_len: AtomicU64,
    /// Gauge: workers currently serving a connection.
    pub workers_busy: AtomicU64,
}

struct Ctx {
    cache: VerdictCache,
    flights: SingleFlight,
    stats: Stats,
    started: Instant,
    workers: usize,
    queue_depth: usize,
    max_body_bytes: usize,
    max_timeout: Option<Duration>,
    analysis_threads: usize,
    max_requests_per_connection: u64,
    admin_token: Option<String>,
    /// Set by `stop()` or an authorized `POST /shutdown`: the accept loop
    /// exits at its next wake-up and the workers drain what is queued.
    shutdown: Arc<AtomicBool>,
    /// The bound address, so the shutdown handler can wake the accept
    /// loop out of its blocking `incoming()` call.
    addr: SocketAddr,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running service. Dropping the handle leaves the threads running;
/// call [`Server::stop`] for an orderly shutdown or [`Server::wait`] to
/// serve until the process dies.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns
    /// immediately.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let width = pool::serving_width(opts.workers, "BLAZER_SERVE_WORKERS");
        let cache = match opts.cache_file {
            Some(path) => VerdictCache::persistent(path),
            None => VerdictCache::in_memory(),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            cache,
            flights: SingleFlight::new(),
            stats: Stats::default(),
            started: Instant::now(),
            workers: width,
            queue_depth: opts.queue_depth,
            max_body_bytes: opts.max_body_bytes,
            max_timeout: opts.max_timeout,
            analysis_threads: opts.analysis_threads.max(1),
            max_requests_per_connection: opts.max_requests_per_connection.max(1),
            admin_token: opts
                .admin_token
                .or_else(|| std::env::var("BLAZER_ADMIN_TOKEN").ok().filter(|t| !t.is_empty())),
            shutdown: Arc::clone(&shutdown),
            addr,
        });
        let (tx, rx) = sync_channel::<TcpStream>(opts.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..width)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || worker_loop(&rx, &ctx))
            })
            .collect();
        let accept = {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are small; Nagle + the peer's delayed ACK
                    // would add ~40ms per exchange.
                    let _ = stream.set_nodelay(true);
                    // The gauge goes up *before* the send so a worker's
                    // decrement (strictly after a successful send) can
                    // never race it below zero.
                    ctx.stats.queue_len.fetch_add(1, Ordering::SeqCst);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            ctx.stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                            ctx.stats.busy_rejections.fetch_add(1, Ordering::SeqCst);
                            let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
                            http::write_json_response(
                                &mut &stream,
                                503,
                                &error_body("server busy: job queue full, retry later").to_string(),
                                true,
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            ctx.stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            })
        };
        Ok(Server { addr, shutdown, accept: Some(accept), workers, ctx })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live service counters.
    pub fn stats(&self) -> &Stats {
        &self.ctx.stats
    }

    /// The verdict cache (for in-process inspection).
    pub fn cache(&self) -> &VerdictCache {
        &self.ctx.cache
    }

    /// Blocks the calling thread until the service shuts down (the
    /// `blazer serve` foreground mode): serves until an authorized
    /// `POST /shutdown` (or [`Server::stop`] from another thread) flips
    /// the shutdown flag, then finishes every queued job, flushes the
    /// verdict cache, and returns — the graceful-drain exit path.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.ctx.cache.flush();
    }

    /// Orderly shutdown: stop accepting, drain the workers, join every
    /// thread, flush the verdict cache.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept call; the flag makes it exit, dropping
        // the queue sender, which in turn drains and stops the workers.
        let _ = TcpStream::connect(self.addr);
        self.wait();
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx) {
    loop {
        let received = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match received {
            Ok(mut stream) => {
                ctx.stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                ctx.stats.workers_busy.fetch_add(1, Ordering::SeqCst);
                handle_connection(&mut stream, ctx);
                ctx.stats.workers_busy.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => break, // queue sender dropped: shutdown drain is done
        }
    }
}

fn error_body(error: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(error.into()))])
}

/// Serves one connection to completion: a keep-alive request loop over a
/// single persistent `BufReader`, so pipelined bytes buffered past one
/// request's boundary become the next request instead of being dropped.
/// The loop ends when either side asks for `Connection: close`, the
/// request cap is reached, framing fails (the stream position is then
/// undefined), or the peer hangs up / idles out between requests.
fn handle_connection(stream: &mut TcpStream, ctx: &Ctx) {
    ctx.stats.connections.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
    let stream: &TcpStream = stream;
    let mut reader = BufReader::new(stream);
    for served in 1..=ctx.max_requests_per_connection {
        let request = match http::read_request(&mut reader, ctx.max_body_bytes) {
            Ok(r) => r,
            Err(http::ReadError::Closed) => return,
            Err(http::ReadError::Bad(e)) => {
                ctx.stats.requests.fetch_add(1, Ordering::SeqCst);
                ctx.stats.client_errors.fetch_add(1, Ordering::SeqCst);
                http::write_json_response(
                    &mut { stream },
                    e.status,
                    &error_body(e.message).to_string(),
                    true,
                );
                return;
            }
        };
        ctx.stats.requests.fetch_add(1, Ordering::SeqCst);
        let mut close = request.close || served == ctx.max_requests_per_connection;
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            // A draining server is still *serving* (it finishes queued
            // work) but must stop being picked: the probe flips to 503 so
            // a router's health checker ejects it cleanly instead of
            // seeing connection resets.
            ("GET", "/health") if ctx.draining() => (503, health_body(ctx).to_string()),
            ("GET", "/health") => (200, health_body(ctx).to_string()),
            ("GET", "/stats") => (200, stats_body(ctx).to_string()),
            ("POST", "/analyze") => handle_analyze(ctx, &request.body),
            ("POST", "/shutdown") => {
                let (status, body) = handle_shutdown(ctx, &request.body);
                if status == 200 {
                    // Don't let this keep-alive connection pin its worker
                    // through the drain.
                    close = true;
                }
                (status, body)
            }
            (_, "/health" | "/stats" | "/analyze" | "/shutdown") => {
                (405, error_body(format!("method {} not allowed here", request.method)).to_string())
            }
            (_, path) => (404, error_body(format!("no such route: {path}")).to_string()),
        };
        if (400..500).contains(&status) {
            ctx.stats.client_errors.fetch_add(1, Ordering::SeqCst);
        }
        http::write_json_response(&mut { stream }, status, &body, close);
        if close {
            return;
        }
    }
}

/// Routes an `/analyze` body: a JSON object is one submission, a JSON
/// array is a batch fanned out over the worker-pool primitive.
fn handle_analyze(ctx: &Ctx, body: &[u8]) -> (u16, String) {
    let doc = match std::str::from_utf8(body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(format!("bad request: {e}")).to_string()),
    };
    if let Json::Arr(items) = doc {
        return handle_batch(ctx, &items);
    }
    ctx.stats.analyze_requests.fetch_add(1, Ordering::SeqCst);
    match api::AnalyzeRequest::from_json(&doc) {
        Ok(req) => analyze_one(ctx, &req),
        Err(e) => (400, error_body(format!("bad request: {e}")).to_string()),
    }
}

/// A batch submission: every item is analyzed (misses fan out over
/// [`pool::scoped_map`] at the server's worker width), and the response is
/// one JSON array in submission order. Per-item failures stay per-item —
/// each element carries its own `status`, so a 400 or 422 item never
/// fails its siblings, and the batch itself answers `200`.
fn handle_batch(ctx: &Ctx, items: &[Json]) -> (u16, String) {
    ctx.stats.batch_requests.fetch_add(1, Ordering::SeqCst);
    ctx.stats.analyze_requests.fetch_add(items.len() as u64, Ordering::SeqCst);
    let width = pool::clamped_width(ctx.workers, items.len());
    let results: Vec<String> = pool::scoped_map(items, width, |_, item| {
        let (status, body) = match api::AnalyzeRequest::from_json(item) {
            Ok(req) => analyze_one(ctx, &req),
            Err(e) => (400, error_body(format!("bad request: {e}")).to_string()),
        };
        with_item_status(status, &body)
    });
    (200, format!("[{}]", results.join(", ")))
}

/// One submission through the full cache → single-flight → driver stack.
fn analyze_one(ctx: &Ctx, req: &api::AnalyzeRequest) -> (u16, String) {
    let key = req.cache_key();
    match ctx.flights.join(&key) {
        Joined::Follower(outcome) => {
            // An identical submission was already in the air: share its
            // result without touching the driver or the cache.
            ctx.stats.coalesced.fetch_add(1, Ordering::SeqCst);
            (outcome.status, with_cached_flag(&outcome.body, true))
        }
        Joined::Leader(token) => {
            if let Some(stored) = ctx.cache.get(&key) {
                token.complete(FlightOutcome { status: 200, body: stored.clone() });
                return (200, with_cached_flag(&stored, true));
            }
            let response = api::execute(req, ctx.max_timeout, ctx.analysis_threads);
            // A 400 from `execute` is a compile/lookup failure: the driver
            // never ran, so it doesn't count as an analysis.
            if response.status != 400 {
                ctx.stats.analyses_run.fetch_add(1, Ordering::SeqCst);
                {
                    use blazer_ir::cost::CostModel;
                    if req.cost_model == CostModel::weighted() {
                        ctx.stats.cost_model_weighted.fetch_add(1, Ordering::SeqCst);
                    } else if req.cost_model == CostModel::cache_aware() {
                        ctx.stats.cost_model_cache.fetch_add(1, Ordering::SeqCst);
                    } else if req.cost_model != CostModel::unit() {
                        ctx.stats.cost_model_custom.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            if response.status == 500 {
                ctx.stats.crashes.fetch_add(1, Ordering::SeqCst);
            }
            let body = response.body.to_string();
            if response.cacheable {
                ctx.cache.insert(&key, body.clone());
            }
            token.complete(FlightOutcome { status: response.status, body: body.clone() });
            (response.status, with_cached_flag(&body, false))
        }
    }
}

/// Annotates a stored/fresh response body with its cache provenance. A
/// body that is not a JSON object (nothing the server produces today, but
/// a hand-edited persistence file can hold anything) passes through
/// verbatim — rewrapping it would change the response shape.
fn with_cached_flag(body: &str, cached: bool) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut pairs)) => {
            pairs.retain(|(k, _)| k != "cached");
            let at = pairs.len().min(1);
            pairs.insert(at, ("cached".to_string(), Json::Bool(cached)));
            Json::Obj(pairs).to_string()
        }
        _ => body.to_string(),
    }
}

/// Prefixes a batch item's body with its per-item HTTP status.
fn with_item_status(status: u16, body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut pairs)) => {
            pairs.retain(|(k, _)| k != "status");
            pairs.insert(0, ("status".to_string(), Json::from(u64::from(status))));
            Json::Obj(pairs).to_string()
        }
        // Mirror the verbatim rule above: an exotic body is carried, not
        // rewrapped into a different shape.
        _ => body.to_string(),
    }
}

/// `POST /shutdown`: the graceful-drain admin endpoint. The body must be
/// `{"token": "..."}` matching the configured admin token; without a
/// configured token the endpoint is disabled outright. An authorized
/// request flips the shutdown flag (new connections stop being accepted,
/// `/health` answers 503), wakes the accept loop, and answers 200 — the
/// workers then finish everything already queued, the verdict cache is
/// flushed, and [`Server::wait`] returns so the process can exit 0.
fn handle_shutdown(ctx: &Ctx, body: &[u8]) -> (u16, String) {
    let Some(expected) = &ctx.admin_token else {
        return (
            403,
            error_body("shutdown disabled: no admin token configured (BLAZER_ADMIN_TOKEN)")
                .to_string(),
        );
    };
    let presented = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| doc.get("token").and_then(Json::as_str).map(str::to_string));
    if presented.as_deref() != Some(expected.as_str()) {
        return (403, error_body("shutdown refused: bad or missing admin token").to_string());
    }
    ctx.shutdown.store(true, Ordering::SeqCst);
    // Wake the accept loop out of its blocking `incoming()`; it sees the
    // flag, exits, and drops the queue sender, which drains the workers.
    let addr = ctx.addr;
    std::thread::spawn(move || {
        let _ = TcpStream::connect(addr);
    });
    (200, Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]).to_string())
}

fn health_body(ctx: &Ctx) -> Json {
    Json::obj([
        ("ok", Json::Bool(!ctx.draining())),
        ("service", Json::from("blazer-serve")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("draining", Json::Bool(ctx.draining())),
        ("uptime_s", Json::secs(ctx.started.elapsed().as_secs_f64())),
    ])
}

fn stats_body(ctx: &Ctx) -> Json {
    let s = &ctx.stats;
    Json::obj([
        ("ok", Json::Bool(true)),
        ("uptime_s", Json::secs(ctx.started.elapsed().as_secs_f64())),
        ("workers", Json::from(ctx.workers)),
        ("workers_busy", Json::from(s.workers_busy.load(Ordering::SeqCst))),
        ("queue_depth", Json::from(ctx.queue_depth)),
        ("queue_len", Json::from(s.queue_len.load(Ordering::SeqCst))),
        ("connections", Json::from(s.connections.load(Ordering::SeqCst))),
        ("requests", Json::from(s.requests.load(Ordering::SeqCst))),
        ("analyze_requests", Json::from(s.analyze_requests.load(Ordering::SeqCst))),
        ("batch_requests", Json::from(s.batch_requests.load(Ordering::SeqCst))),
        ("analyses_run", Json::from(s.analyses_run.load(Ordering::SeqCst))),
        ("coalesced", Json::from(s.coalesced.load(Ordering::SeqCst))),
        ("cache_hit_rate", Json::Num(ctx.cache.hit_rate())),
        (
            "cache",
            Json::obj([
                ("entries", Json::from(ctx.cache.len())),
                ("hits", Json::from(ctx.cache.hits())),
                ("misses", Json::from(ctx.cache.misses())),
                ("evictions", Json::from(ctx.cache.evictions())),
                ("shards", Json::from(ctx.cache.shards())),
                ("hit_rate", Json::Num(ctx.cache.hit_rate())),
            ]),
        ),
        (
            "cost_models",
            Json::obj([
                ("weighted", Json::from(s.cost_model_weighted.load(Ordering::SeqCst))),
                ("cache", Json::from(s.cost_model_cache.load(Ordering::SeqCst))),
                ("custom", Json::from(s.cost_model_custom.load(Ordering::SeqCst))),
            ]),
        ),
        ("crashes", Json::from(s.crashes.load(Ordering::SeqCst))),
        ("client_errors", Json::from(s.client_errors.load(Ordering::SeqCst))),
        ("busy_rejections", Json::from(s.busy_rejections.load(Ordering::SeqCst))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_flag_is_inserted_after_ok_and_replaces_stale_flags() {
        let flagged = with_cached_flag(r#"{"ok": true, "verdict": "safe", "cached": false}"#, true);
        let doc = Json::parse(&flagged).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("object in, object out") };
        assert_eq!(pairs[1].0, "cached");
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(pairs.iter().filter(|(k, _)| k == "cached").count(), 1);
    }

    #[test]
    fn cached_flag_passes_non_object_bodies_through_verbatim() {
        // A non-object body (only reachable via a hand-edited persistence
        // file) must keep its exact shape — the old behavior rewrapped it
        // as a JSON *string*, silently changing the response type.
        for body in ["[1, 2, 3]", "\"just a string\"", "17", "not json at all"] {
            assert_eq!(with_cached_flag(body, true), body);
            assert_eq!(with_cached_flag(body, false), body);
        }
    }

    #[test]
    fn item_status_is_prefixed_and_never_duplicated() {
        let item = with_item_status(422, r#"{"ok": false, "error": "budget"}"#);
        let doc = Json::parse(&item).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("object in, object out") };
        assert_eq!(pairs[0].0, "status");
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(422));
        let again = with_item_status(200, &item);
        let doc = Json::parse(&again).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
    }
}
