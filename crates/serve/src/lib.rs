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
//! 1. **Bounded job queue.** The shared serving loop
//!    ([`blazer_http::Server`], also the router's) queues accepted
//!    connections on a bounded channel; when the queue is full the
//!    connection is answered `503` immediately instead of piling up
//!    unbounded work.
//! 2. **Worker pool with per-request budgets.** Each worker owns one
//!    connection at a time and serves its requests in order through this
//!    crate's route table, running every analysis under `catch_unwind`
//!    with its own installed
//!    [`blazer_core::Budget`] (deadline and LP-call caps from the request,
//!    clamped by the server's `max_timeout`). One pathological submission
//!    exhausts *its* budget — it can never take the server, or a sibling
//!    request, down. A batch submission fans its items out over
//!    [`blazer_ir::fanout::scoped_map`] and answers one array in
//!    submission order;
//!    per-item failures (400/422/500) never fail the batch.
//! 3. **Content-addressed verdict cache.** Verdicts are pure functions of
//!    `(source, config)`, so completed responses are memoized by content
//!    address ([`cache::CacheKey`]) and identical resubmissions are
//!    answered in microseconds, optionally surviving restarts via an
//!    append-only JSONL file. A hit is one shard read and a copy of the
//!    stored [`api::Body`], shaped when it was stored.
//! 4. **Single-flight coalescing.** Concurrent identical submissions that
//!    miss the cache join one in-flight driver run
//!    ([`cache::SingleFlight`]) instead of stampeding past a shared miss.

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

use api::Body;
use blazer_ir::fanout;
use blazer_ir::json::Json;
use cache::{FlightOutcome, Joined, SingleFlight};
use http::{error_body, Limits, ServingStats, Shutdown};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Live service counters: the serving loop's own (connections, requests,
/// `4xx`s, busy `503`s and the two gauges, reached through `Deref` to
/// [`ServingStats`]) plus the analysis counters below (all monotonic).
#[derive(Debug, Default)]
pub struct Stats {
    serving: ServingStats,
    /// `/analyze` submissions (cache hits and batch items included: a
    /// batch of N counts N).
    pub analyze_requests: AtomicU64,
    /// Analyses that actually ran the driver.
    pub analyses_run: AtomicU64,
    /// Submissions that missed the cache and were answered from a
    /// concurrent identical in-flight run instead of running the driver.
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
}

impl std::ops::Deref for Stats {
    type Target = ServingStats;

    fn deref(&self) -> &ServingStats {
        &self.serving
    }
}

struct Ctx {
    cache: VerdictCache,
    flights: SingleFlight<Body>,
    stats: Stats,
    started: Instant,
    workers: usize,
    queue_depth: usize,
    max_timeout: Option<Duration>,
    analysis_threads: usize,
    admin_token: Option<String>,
    /// Triggered by `stop()` or an authorized `POST /shutdown`: the accept
    /// loop exits at its next wake-up and the workers drain what is queued.
    shutdown: Shutdown,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.shutdown.is_set()
    }
}

impl http::Service for Ctx {
    const BUSY: &'static str = "server busy: job queue full, retry later";

    fn serving_stats(&self) -> &ServingStats {
        &self.stats.serving
    }

    fn respond(&self, request: &http::Request) -> (u16, String, bool) {
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            // A draining server is still *serving* (it finishes queued
            // work) but must stop being picked: the probe flips to 503 so
            // a router's health checker ejects it cleanly instead of
            // seeing connection resets.
            ("GET", "/health") if self.draining() => (503, health_body(self).to_string()),
            ("GET", "/health") => (200, health_body(self).to_string()),
            ("GET", "/stats") => (200, stats_body(self).to_string()),
            ("POST", "/analyze") => handle_analyze(self, &request.body),
            ("POST", "/shutdown") => {
                // An accepted shutdown closes its connection, so this
                // keep-alive peer does not pin its worker through the drain.
                let (status, body) = handle_shutdown(self, &request.body);
                return (status, body, status == 200);
            }
            (_, "/health" | "/stats" | "/analyze" | "/shutdown") => {
                (405, error_body(format!("method {} not allowed here", request.method)).to_string())
            }
            (_, path) => (404, error_body(format!("no such route: {path}")).to_string()),
        };
        (status, body, false)
    }
}

/// A running service. Dropping the handle leaves the threads running;
/// call [`Server::stop`] for an orderly shutdown or [`Server::wait`] to
/// serve until the process dies.
pub struct Server {
    inner: http::Server<Ctx>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns
    /// immediately.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let workers = pool::serving_width(opts.workers, "BLAZER_SERVE_WORKERS");
        let limits = Limits {
            workers,
            queue_depth: opts.queue_depth,
            max_body_bytes: opts.max_body_bytes,
            max_requests_per_connection: opts.max_requests_per_connection,
        };
        let inner = http::Server::start(&opts.addr, limits, |shutdown| Ctx {
            cache: match opts.cache_file {
                Some(path) => VerdictCache::persistent(path),
                None => VerdictCache::in_memory(),
            },
            flights: SingleFlight::new(),
            stats: Stats::default(),
            started: Instant::now(),
            workers,
            queue_depth: opts.queue_depth,
            max_timeout: opts.max_timeout,
            analysis_threads: opts.analysis_threads.max(1),
            admin_token: opts
                .admin_token
                .or_else(|| std::env::var("BLAZER_ADMIN_TOKEN").ok().filter(|t| !t.is_empty())),
            shutdown,
        })?;
        Ok(Server { inner })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The live service counters.
    pub fn stats(&self) -> &Stats {
        &self.inner.service().stats
    }

    /// The verdict cache (for in-process inspection).
    pub fn cache(&self) -> &VerdictCache {
        &self.inner.service().cache
    }

    /// Blocks the calling thread until the service shuts down (the
    /// `blazer serve` foreground mode): serves until an authorized
    /// `POST /shutdown` (or [`Server::stop`] from another thread) triggers
    /// the shutdown, then finishes every queued job, flushes the verdict
    /// cache, and returns — the graceful-drain exit path.
    pub fn wait(mut self) {
        self.inner.wait();
        self.inner.service().cache.flush();
    }

    /// Orderly shutdown: stop accepting, drain the workers, join every
    /// thread, flush the verdict cache.
    pub fn stop(mut self) {
        self.inner.stop();
        self.wait();
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
        Ok(req) => {
            let (status, body, cached) = analyze_one(ctx, &req);
            (status, body.render(cached))
        }
        Err(e) => (400, error_body(format!("bad request: {e}")).to_string()),
    }
}

/// A batch submission: every item is analyzed (misses fan out over
/// [`fanout::scoped_map`] at the server's worker width), and the response is
/// one JSON array in submission order. Per-item failures stay per-item —
/// each element carries its own `status`, so a 400 or 422 item never
/// fails its siblings, and the batch itself answers `200`.
fn handle_batch(ctx: &Ctx, items: &[Json]) -> (u16, String) {
    ctx.stats.batch_requests.fetch_add(1, Ordering::SeqCst);
    ctx.stats.analyze_requests.fetch_add(items.len() as u64, Ordering::SeqCst);
    let width = fanout::clamped_width(ctx.workers, items.len());
    let results: Vec<String> =
        fanout::scoped_map(items, width, |_, item| match api::AnalyzeRequest::from_json(item) {
            Ok(req) => {
                let (status, body, cached) = analyze_one(ctx, &req);
                body.render_item(status, cached)
            }
            Err(e) => {
                api::with_item_status(400, &error_body(format!("bad request: {e}")).to_string())
            }
        });
    (200, format!("[{}]", results.join(", ")))
}

/// One submission through the cache → single-flight → driver stack: its
/// status, its shaped body, and whether that body answers as `cached` (a
/// hit or a follower) rather than as this request's own fresh run. Every
/// submission counts once: as a cache hit, a coalesced follower, or a
/// cache miss whose leader runs the driver.
fn analyze_one(ctx: &Ctx, req: &api::AnalyzeRequest) -> (u16, Body, bool) {
    let key = req.cache_key();
    // A hit takes one shard read lock and copies the stored body: it never
    // joins a flight, so it neither waits on a leader nor holds followers.
    if let Some(stored) = ctx.cache.hit(&key) {
        return (200, stored, true);
    }
    match ctx.flights.join(&key) {
        Joined::Follower(outcome) => {
            // An identical submission was already in the air: share its
            // result without touching the driver or the cache.
            ctx.stats.coalesced.fetch_add(1, Ordering::SeqCst);
            (outcome.status, outcome.body, true)
        }
        Joined::Leader(token) => {
            // A flight that retired between the lookup above and the join
            // left its verdict in the cache: answer from it rather than
            // analyse the program twice.
            if let Some(stored) = ctx.cache.get(&key) {
                token.complete(FlightOutcome { status: 200, body: stored.clone() });
                return (200, stored, true);
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
            let body = Body::shape(response.body);
            if response.cacheable {
                ctx.cache.insert(&key, body.clone());
            }
            token.complete(FlightOutcome { status: response.status, body: body.clone() });
            (response.status, body, false)
        }
    }
}

/// `POST /shutdown`: the graceful-drain admin endpoint. The body must be
/// `{"token": "..."}` matching the configured admin token; without a
/// configured token the endpoint is disabled outright. An authorized
/// request triggers the shutdown (new connections stop being accepted,
/// `/health` answers 503) and answers 200 — the
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
    ctx.shutdown.trigger();
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
