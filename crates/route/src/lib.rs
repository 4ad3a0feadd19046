//! # blazer-route
//!
//! A fault-tolerant router over a fleet of `blazer-serve` backends: one
//! HTTP/1.1 front door that shards submissions across the fleet by their
//! content-addressed cache key and keeps answering through backend
//! failures.
//!
//! ```text
//! POST /analyze   object or array body, exactly the backend API
//! GET  /health    router liveness + live-backend count
//! GET  /stats     router counters + per-backend health + fleet aggregates
//! ```
//!
//! The stack, front to back:
//!
//! 1. **Consistent-hash sharding.** A request's [`cache key`] hash picks
//!    its shard on a [`ring::Ring`] of 64 virtual nodes per backend, so
//!    identical submissions always land on the same backend — whose
//!    verdict cache and single-flight then do their work — and removing a
//!    backend remaps only the keys it owned.
//! 2. **Health-driven candidate filtering.** An active checker probes
//!    every backend's `/health` on an interval, and the request path
//!    reports every forward's outcome into the same
//!    [`health::FleetHealth`] state machine: consecutive failures eject,
//!    consecutive successes reinstate. Ejected backends are skipped, not
//!    removed — the ring never rebuilds.
//! 3. **Retry with failover.** A failed forward (connect failure, IO
//!    error, or a `5xx` answer) moves to the key's next ring candidate
//!    after a capped exponential backoff with deterministic jitter; the
//!    same backend is never retried for the same request. Only when every
//!    candidate has failed does the client see a `503`, with a structured
//!    `"fleet"` body listing every attempt.
//! 4. **Fleet-wide single-flight.** Concurrent identical submissions
//!    coalesce at the router ([`blazer_serve::cache::SingleFlight`]), so
//!    a stampede costs one backend run even when failover would otherwise
//!    scatter it.
//! 5. **Sharded batches.** An array body is split per shard, the
//!    sub-batches fan out concurrently ([`blazer_serve::pool::scoped_map`]),
//!    and the answers re-merge in submission order; a shard that fails its
//!    sub-batch degrades to per-item failover, so one dead backend costs
//!    a batch nothing but latency.
//!
//! Re-sent requests are safe by construction: a forward is only retried
//! when no response byte arrived, and analyses are pure functions of
//! `(source, config)`, so a duplicate run returns the identical verdict
//! (and usually hits the backend's cache).
//!
//! [`cache key`]: blazer_serve::cache::CacheKey

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod health;
pub mod ring;
pub mod sessions;

use blazer_http as http;
use blazer_ir::json::{fnv1a64, Json};
use blazer_serve::api::AnalyzeRequest;
use blazer_serve::cache::{CacheKey, FlightOutcome, Joined, SingleFlight};
use blazer_serve::client::Session;
use blazer_serve::pool;
use health::{FleetHealth, HealthOptions};
use ring::Ring;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Backoff policy for retries after a failed forward.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff; also the jitter modulus.
    pub base: Duration,
    /// Cap on the exponential component.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { base: Duration::from_millis(10), cap: Duration::from_millis(200) }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (1-based) for `key_hash`'s
    /// request: `min(cap, base·2^(attempt−1))` plus a deterministic jitter
    /// in `[0, base)` hashed from the key and the attempt number. The same
    /// request always retries on the same reproducible schedule (chaos
    /// tests stay deterministic), while different keys desynchronize
    /// instead of thundering onto the surviving backend in lockstep.
    pub fn delay(&self, key_hash: u64, attempt: u32) -> Duration {
        let base_ms = (self.base.as_millis() as u64).max(1);
        let cap_ms = self.cap.as_millis() as u64;
        let exponent = attempt.saturating_sub(1).min(16);
        let exponential = base_ms.saturating_mul(1u64 << exponent).min(cap_ms);
        let jitter = fnv1a64(format!("{key_hash:016x}:{attempt}").as_bytes()) % base_ms;
        Duration::from_millis(exponential + jitter)
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Backend `host:port` addresses — the shards. Order defines the
    /// backend indices reported by `/stats`.
    pub backends: Vec<String>,
    /// Worker-pool width; `None` defers to `BLAZER_ROUTE_WORKERS`, then
    /// the machine's available parallelism plus one spare connection
    /// worker ([`pool::serving_width`]).
    pub workers: Option<usize>,
    /// Bounded job-queue depth; a full queue answers `503`.
    pub queue_depth: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Requests served on one keep-alive client connection before the
    /// router closes it.
    pub max_requests_per_connection: u64,
    /// Active health-checker tuning.
    pub health: HealthOptions,
    /// Retry backoff tuning.
    pub retry: RetryPolicy,
    /// Router-layer fault injection; `None` reads `BLAZER_FAULT` (tests
    /// running in-process pass `Some` instead of mutating the process
    /// environment).
    pub fault: Option<fault::FaultPoints>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            addr: "127.0.0.1:8650".to_string(),
            backends: Vec::new(),
            workers: None,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            max_requests_per_connection: http::DEFAULT_MAX_REQUESTS_PER_CONNECTION,
            health: HealthOptions::default(),
            retry: RetryPolicy::default(),
            fault: None,
        }
    }
}

/// Live router counters (all monotonic).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Client TCP connections handled by a worker.
    pub connections: AtomicU64,
    /// HTTP requests served across all routes.
    pub requests: AtomicU64,
    /// `/analyze` submissions (batch items included).
    pub analyze_requests: AtomicU64,
    /// Batch (array-bodied) `/analyze` requests.
    pub batch_requests: AtomicU64,
    /// Forward attempts made after a failure (each is one backoff pause
    /// followed by a try on the next candidate).
    pub retries: AtomicU64,
    /// Requests ultimately answered by a backend other than their key's
    /// primary shard.
    pub failovers: AtomicU64,
    /// Submissions answered from a concurrent identical in-flight forward
    /// instead of reaching a backend themselves.
    pub coalesced: AtomicU64,
    /// Requests that exhausted every candidate and were answered with the
    /// structured fleet `503`.
    pub fleet_unavailable: AtomicU64,
    /// Requests answered with a `4xx` status (batch items excluded).
    pub client_errors: AtomicU64,
    /// Connections rejected `503` by the full job queue.
    pub busy_rejections: AtomicU64,
}

struct Ctx {
    backends: Vec<String>,
    ring: Ring,
    health: FleetHealth,
    health_opts: HealthOptions,
    retry: RetryPolicy,
    fault: fault::Armed,
    flights: SingleFlight,
    stats: RouterStats,
    /// One pool of parked keep-alive [`Session`]s per backend (capacity =
    /// the worker width, the most forwards that can be in flight at
    /// once): forwards check a session out, use it exclusively, and park
    /// it back, so concurrent requests hashing to the same shard each
    /// keep their *own* warm connection instead of serializing on — or
    /// thrashing — a single parked one.
    sessions: Vec<sessions::SessionPool>,
    started: Instant,
    workers: usize,
    queue_depth: usize,
    max_body_bytes: usize,
    max_requests_per_connection: u64,
    shutdown: Arc<AtomicBool>,
}

/// A running router. Call [`Router::stop`] for an orderly shutdown or
/// [`Router::wait`] to serve until the process dies.
pub struct Router {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    checker: Option<JoinHandle<()>>,
    ctx: Arc<Ctx>,
}

impl Router {
    /// Binds, spawns the worker pool, accept loop, and health checker, and
    /// returns immediately. Fails fast on an empty backend list — a router
    /// with nothing behind it can only ever answer `503`.
    pub fn start(opts: RouteOptions) -> std::io::Result<Router> {
        if opts.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let width = pool::serving_width(opts.workers, "BLAZER_ROUTE_WORKERS");
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            ring: Ring::new(&opts.backends),
            health: FleetHealth::new(
                opts.backends.len(),
                opts.health.eject_after,
                opts.health.reinstate_after,
            ),
            sessions: opts.backends.iter().map(|_| sessions::SessionPool::new(width)).collect(),
            backends: opts.backends,
            health_opts: opts.health,
            retry: opts.retry,
            fault: fault::Armed::new(opts.fault.unwrap_or_else(fault::FaultPoints::from_env)),
            flights: SingleFlight::new(),
            stats: RouterStats::default(),
            started: Instant::now(),
            workers: width,
            queue_depth: opts.queue_depth,
            max_body_bytes: opts.max_body_bytes,
            max_requests_per_connection: opts.max_requests_per_connection.max(1),
            shutdown: Arc::clone(&shutdown),
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
        let checker = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || checker_loop(&ctx))
        };
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
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            ctx.stats.busy_rejections.fetch_add(1, Ordering::SeqCst);
                            let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
                            http::write_json_response(
                                &mut &stream,
                                503,
                                &error_body("router busy: job queue full, retry later").to_string(),
                                true,
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
        };
        Ok(Router { addr, shutdown, accept: Some(accept), workers, checker: Some(checker), ctx })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live router counters.
    pub fn stats(&self) -> &RouterStats {
        &self.ctx.stats
    }

    /// The fleet health state (for in-process inspection).
    pub fn health(&self) -> &FleetHealth {
        &self.ctx.health
    }

    /// Blocks until the router shuts down, then joins every thread.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(checker) = self.checker.take() {
            let _ = checker.join();
        }
    }

    /// Orderly shutdown: stop accepting, drain queued connections, join
    /// every thread.
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
            Ok(mut stream) => handle_connection(&mut stream, ctx),
            Err(_) => break,
        }
    }
}

/// Probes every backend, sleeps the interval, repeats — in small slices so
/// shutdown is never delayed by a full interval.
fn checker_loop(ctx: &Ctx) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        for (index, addr) in ctx.backends.iter().enumerate() {
            if ctx.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match health::probe(addr, ctx.health_opts.timeout) {
                Ok(()) => {
                    ctx.health.record_success(index);
                }
                Err(error) => {
                    ctx.health.record_failure(index, &error);
                }
            }
        }
        let mut remaining = ctx.health_opts.interval;
        while !remaining.is_zero() && !ctx.shutdown.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

fn error_body(error: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(error.into()))])
}

/// Serves one client connection: the same persistent-reader keep-alive
/// loop as the backend itself, with the router's route table.
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
        let close = request.close || served == ctx.max_requests_per_connection;
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health") => health_route(ctx),
            ("GET", "/stats") => (200, stats_body(ctx).to_string()),
            ("POST", "/analyze") => handle_analyze(ctx, &request.body),
            (_, "/health" | "/stats" | "/analyze") => {
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

/// Router liveness: `200` while at least one backend is up, `503` once
/// the whole fleet is ejected (the router itself is alive either way —
/// the status is what *its* upstream health checks should see).
fn health_route(ctx: &Ctx) -> (u16, String) {
    let up = ctx.health.up_count();
    let body = Json::obj([
        ("ok", Json::Bool(up > 0)),
        ("service", Json::from("blazer-route")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("backends_up", Json::from(up)),
        ("backends_total", Json::from(ctx.backends.len())),
        ("uptime_s", Json::secs(ctx.started.elapsed().as_secs_f64())),
    ]);
    (if up > 0 { 200 } else { 503 }, body.to_string())
}

/// Routes an `/analyze` body: an object is one sharded submission, an
/// array is split per shard and re-merged.
fn handle_analyze(ctx: &Ctx, body: &[u8]) -> (u16, String) {
    let doc = match std::str::from_utf8(body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(format!("bad request: {e}")).to_string()),
    };
    let text = std::str::from_utf8(body).expect("checked just above");
    if let Json::Arr(items) = doc {
        return handle_batch(ctx, &items);
    }
    ctx.stats.analyze_requests.fetch_add(1, Ordering::SeqCst);
    match AnalyzeRequest::from_json(&doc) {
        Ok(req) => route_one(ctx, &req.cache_key(), text, None),
        // Not a well-formed request: the shard owns the 400 shape (the
        // router must not invent its own error dialect), routed by raw
        // body hash, with no single-flight (there is no canonical key).
        Err(_) => route_with_failover(ctx, fnv1a64(body), text, None),
    }
}

/// One planned batch item.
struct PlannedItem {
    /// Position in the submitted array (the merge slot).
    index: usize,
    /// The item re-serialized, for sub-batch and per-item forwards.
    body: String,
    /// Canonical key when the item parses as a request.
    key: Option<CacheKey>,
    /// Sharding hash: the key's hash, or the raw body's for malformed
    /// items (which still route *somewhere* so the shard can answer 400).
    hash: u64,
}

/// A batch: items are grouped by their primary live shard, the sub-batches
/// fan out concurrently, and the per-item answers re-merge in submission
/// order. A shard that fails its whole sub-batch (death mid-batch) is
/// excluded and its items degrade to individual failover, so a backend
/// loss costs latency, never answers.
fn handle_batch(ctx: &Ctx, items: &[Json]) -> (u16, String) {
    ctx.stats.batch_requests.fetch_add(1, Ordering::SeqCst);
    ctx.stats.analyze_requests.fetch_add(items.len() as u64, Ordering::SeqCst);
    if items.is_empty() {
        return (200, "[]".to_string());
    }
    let planned: Vec<PlannedItem> = items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            let body = item.to_string();
            match AnalyzeRequest::from_json(item) {
                Ok(req) => {
                    let key = req.cache_key();
                    let hash = fnv1a64(key.canonical().as_bytes());
                    PlannedItem { index, body, key: Some(key), hash }
                }
                Err(_) => {
                    let hash = fnv1a64(body.as_bytes());
                    PlannedItem { index, body, key: None, hash }
                }
            }
        })
        .collect();
    let mut groups: std::collections::BTreeMap<usize, Vec<PlannedItem>> = Default::default();
    for item in planned {
        let candidates = ctx.ring.candidates(item.hash);
        let shard = candidates
            .iter()
            .copied()
            .find(|&index| ctx.health.is_up(index))
            .or_else(|| candidates.first().copied())
            .unwrap_or(0);
        groups.entry(shard).or_default().push(item);
    }
    let groups: Vec<(usize, Vec<PlannedItem>)> = groups.into_iter().collect();
    let width = pool::clamped_width(ctx.workers, groups.len());
    let group_results =
        pool::scoped_map(&groups, width, |_, (shard, group)| route_group(ctx, *shard, group));
    let mut slots: Vec<Option<String>> = (0..items.len()).map(|_| None).collect();
    for (position, result) in group_results.into_iter().flatten() {
        slots[position] = Some(result);
    }
    let merged: Vec<String> =
        slots.into_iter().map(|s| s.expect("every item lands in exactly one group")).collect();
    (200, format!("[{}]", merged.join(", ")))
}

/// One shard's slice of a batch: a single sub-batch POST when the shard
/// cooperates, per-item failover (with the failed shard excluded) when it
/// does not.
fn route_group(ctx: &Ctx, shard: usize, group: &[PlannedItem]) -> Vec<(usize, String)> {
    if let Some(bodies) = try_sub_batch(ctx, shard, group) {
        return group.iter().map(|item| item.index).zip(bodies).collect();
    }
    group
        .iter()
        .map(|item| {
            let (status, response) = match &item.key {
                Some(key) => route_one(ctx, key, &item.body, Some(shard)),
                None => route_with_failover(ctx, item.hash, &item.body, Some(shard)),
            };
            (item.index, with_item_status(status, &response))
        })
        .collect()
}

/// Forwards one sub-batch to its shard. `None` means the shard could not
/// answer it (transport failure, a non-`200` envelope, or a shape the
/// router doesn't recognize) and the caller must fail the items over.
fn try_sub_batch(ctx: &Ctx, shard: usize, group: &[PlannedItem]) -> Option<Vec<String>> {
    let bodies: Vec<&str> = group.iter().map(|item| item.body.as_str()).collect();
    let batch = format!("[{}]", bodies.join(", "));
    match forward(ctx, shard, &batch) {
        Ok((200, response)) => {
            ctx.health.record_success(shard);
            match Json::parse(&response) {
                Ok(Json::Arr(results)) if results.len() == group.len() => {
                    Some(results.iter().map(Json::to_string).collect())
                }
                // An unrecognizable envelope: treat as a failed sub-batch.
                // The per-item retries are safe (verdicts are pure) and
                // usually hit the shard-run's cache.
                _ => None,
            }
        }
        Ok((status, _response)) => {
            ctx.health.record_failure(shard, &format!("batch answered {status}"));
            None
        }
        Err(error) => {
            ctx.health.record_failure(shard, &error.to_string());
            None
        }
    }
}

/// One keyed submission through the router's single-flight: concurrent
/// identical submissions ride one forward, even across failover.
fn route_one(ctx: &Ctx, key: &CacheKey, body: &str, exclude: Option<usize>) -> (u16, String) {
    let hash = fnv1a64(key.canonical().as_bytes());
    match ctx.flights.join(key) {
        Joined::Follower(outcome) => {
            ctx.stats.coalesced.fetch_add(1, Ordering::SeqCst);
            (outcome.status, outcome.body)
        }
        Joined::Leader(token) => {
            let (status, response) = route_with_failover(ctx, hash, body, exclude);
            token.complete(FlightOutcome { status, body: response.clone() });
            (status, response)
        }
    }
}

/// The failover core: try the key's candidates in ring order — live ones
/// first, every candidate as a last resort when health has ejected them
/// all — never the same backend twice, with a backoff pause before every
/// retry. A non-`5xx` answer wins immediately (a backend's `400`/`422` is
/// a *verdict about the request*, identical on every backend); `5xx` and
/// transport errors advance to the next candidate. Exhaustion answers the
/// structured fleet `503`.
fn route_with_failover(
    ctx: &Ctx,
    key_hash: u64,
    body: &str,
    exclude: Option<usize>,
) -> (u16, String) {
    let candidates = ctx.ring.candidates(key_hash);
    let primary = candidates.first().copied();
    let mut order: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&index| ctx.health.is_up(index) && Some(index) != exclude)
        .collect();
    if order.is_empty() {
        // Stale health data must not become a refusal to even try.
        order = candidates.iter().copied().filter(|&index| Some(index) != exclude).collect();
    }
    if order.is_empty() {
        // A one-backend fleet whose only shard was excluded: retrying it
        // beats answering nothing.
        order = candidates;
    }
    let mut attempts: Vec<(String, String)> = Vec::new();
    for (attempt, &index) in order.iter().enumerate() {
        if attempt > 0 {
            ctx.stats.retries.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(ctx.retry.delay(key_hash, attempt as u32));
        }
        match forward(ctx, index, body) {
            Ok((status, response)) if status < 500 => {
                ctx.health.record_success(index);
                if Some(index) != primary {
                    ctx.stats.failovers.fetch_add(1, Ordering::SeqCst);
                }
                return (status, response);
            }
            Ok((status, _response)) => {
                ctx.health.record_failure(index, &format!("answered {status}"));
                attempts.push((ctx.backends[index].clone(), format!("answered {status}")));
            }
            Err(error) => {
                ctx.health.record_failure(index, &error.to_string());
                attempts.push((ctx.backends[index].clone(), error.to_string()));
            }
        }
    }
    ctx.stats.fleet_unavailable.fetch_add(1, Ordering::SeqCst);
    (503, fleet_error_body(key_hash, &attempts).to_string())
}

/// One forward to one backend: check out (or dial) a pooled session,
/// exchange one request, park the session back on success. On any error
/// the session is dropped — its connection state is unknown — and the
/// next forward dials fresh. The pool is per-backend and holds up to the
/// worker width of warm sessions, so concurrent forwards to one shard
/// never queue on (or discard) each other's connections.
fn forward(ctx: &Ctx, index: usize, body: &str) -> std::io::Result<(u16, String)> {
    if ctx.fault.take_connect() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "injected route-connect fault",
        ));
    }
    let mut session = match ctx.sessions[index].checkout() {
        Some(session) => session,
        None => dial(ctx, index)?,
    };
    if ctx.fault.take_read() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected route-read fault",
        ));
    }
    let (status, response) = session.request("POST", "/analyze", Some(body))?;
    ctx.sessions[index].park(session);
    Ok((status, response))
}

/// Dials backend `index` with the health timeout bounding the connect (a
/// dead host must cost one timeout, not the OS's multi-minute default).
fn dial(ctx: &Ctx, index: usize) -> std::io::Result<Session> {
    let addr = &ctx.backends[index];
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "address resolved to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&target, ctx.health_opts.timeout)?;
    let _ = stream.set_nodelay(true);
    Ok(Session::from_stream(stream, addr))
}

/// The structured body behind the router's `503`: which key failed, and
/// what every candidate answered, so "the fleet is down" is diagnosable
/// from the client side alone.
fn fleet_error_body(key_hash: u64, attempts: &[(String, String)]) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from("fleet: every candidate backend failed")),
        (
            "fleet",
            Json::obj([
                ("key", Json::from(format!("{key_hash:016x}"))),
                (
                    "attempts",
                    Json::Arr(
                        attempts
                            .iter()
                            .map(|(backend, error)| {
                                Json::obj([
                                    ("backend", Json::from(backend.clone())),
                                    ("error", Json::from(error.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// Prefixes a batch item's body with its per-item HTTP status (the same
/// shape the backend gives its own batch items; bodies that already carry
/// one — sub-batch answers — pass through [`try_sub_batch`] untouched).
fn with_item_status(status: u16, body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut pairs)) => {
            pairs.retain(|(k, _)| k != "status");
            pairs.insert(0, ("status".to_string(), Json::from(u64::from(status))));
            Json::Obj(pairs).to_string()
        }
        _ => body.to_string(),
    }
}

/// `GET /stats`: router counters, per-backend health + forwarded backend
/// stats (fetched concurrently on one-shot bounded connections, so a dead
/// backend delays the answer by one timeout, not forever), and fleet-wide
/// sums of the counters that prove end-to-end properties (`analyses_run`
/// across the fleet is how the chaos tests assert "no duplicate runs").
fn stats_body(ctx: &Ctx) -> Json {
    let snapshots = ctx.health.snapshot();
    let indices: Vec<usize> = (0..ctx.backends.len()).collect();
    let fetched =
        pool::scoped_map(&indices, indices.len(), |_, &index| fetch_backend_stats(ctx, index));
    let mut fleet = FleetSums::default();
    let backends: Vec<Json> = indices
        .iter()
        .map(|&index| {
            let snapshot = &snapshots[index];
            let mut pairs = vec![
                ("addr".to_string(), Json::from(ctx.backends[index].clone())),
                ("health".to_string(), Json::from(if snapshot.up { "up" } else { "down" })),
                (
                    "consecutive_failures".to_string(),
                    Json::from(snapshot.consecutive_failures as u64),
                ),
                (
                    "consecutive_successes".to_string(),
                    Json::from(snapshot.consecutive_successes as u64),
                ),
                (
                    "last_error".to_string(),
                    snapshot.last_error.clone().map_or(Json::Null, Json::from),
                ),
            ];
            match &fetched[index] {
                Ok(stats) => {
                    fleet.absorb(stats);
                    pairs.push(("stats".to_string(), stats.clone()));
                }
                Err(error) => pairs.push(("error".to_string(), Json::from(error.clone()))),
            }
            Json::Obj(pairs)
        })
        .collect();
    let s = &ctx.stats;
    Json::obj([
        ("ok", Json::Bool(true)),
        ("service", Json::from("blazer-route")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", Json::secs(ctx.started.elapsed().as_secs_f64())),
        ("backends_up", Json::from(snapshots.iter().filter(|b| b.up).count())),
        ("backends_total", Json::from(ctx.backends.len())),
        (
            "router",
            Json::obj([
                ("workers", Json::from(ctx.workers)),
                ("queue_depth", Json::from(ctx.queue_depth)),
                ("connections", Json::from(s.connections.load(Ordering::SeqCst))),
                ("requests", Json::from(s.requests.load(Ordering::SeqCst))),
                ("analyze_requests", Json::from(s.analyze_requests.load(Ordering::SeqCst))),
                ("batch_requests", Json::from(s.batch_requests.load(Ordering::SeqCst))),
                ("retries", Json::from(s.retries.load(Ordering::SeqCst))),
                ("failovers", Json::from(s.failovers.load(Ordering::SeqCst))),
                ("ejections", Json::from(ctx.health.ejections.load(Ordering::SeqCst))),
                ("reinstatements", Json::from(ctx.health.reinstatements.load(Ordering::SeqCst))),
                ("coalesced", Json::from(s.coalesced.load(Ordering::SeqCst))),
                ("fleet_unavailable", Json::from(s.fleet_unavailable.load(Ordering::SeqCst))),
                ("client_errors", Json::from(s.client_errors.load(Ordering::SeqCst))),
                ("busy_rejections", Json::from(s.busy_rejections.load(Ordering::SeqCst))),
            ]),
        ),
        (
            "fleet",
            Json::obj([
                ("analyses_run", Json::from(fleet.analyses_run)),
                ("analyze_requests", Json::from(fleet.analyze_requests)),
                ("coalesced", Json::from(fleet.coalesced)),
                ("cache_entries", Json::from(fleet.cache_entries)),
                ("cache_hits", Json::from(fleet.cache_hits)),
                ("cache_misses", Json::from(fleet.cache_misses)),
                ("cache_evictions", Json::from(fleet.cache_evictions)),
                ("cache_hit_rate", Json::Num(fleet.hit_rate())),
            ]),
        ),
        ("backends", Json::Arr(backends)),
    ])
}

/// Fleet-wide sums over reachable backends' `/stats`.
#[derive(Default)]
struct FleetSums {
    analyses_run: u64,
    analyze_requests: u64,
    coalesced: u64,
    cache_entries: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl FleetSums {
    fn absorb(&mut self, stats: &Json) {
        let n = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        self.analyses_run += n(stats, "analyses_run");
        self.analyze_requests += n(stats, "analyze_requests");
        self.coalesced += n(stats, "coalesced");
        if let Some(cache) = stats.get("cache") {
            self.cache_entries += n(cache, "entries");
            self.cache_hits += n(cache, "hits");
            self.cache_misses += n(cache, "misses");
            self.cache_evictions += n(cache, "evictions");
        }
    }

    /// Fleet-wide hit rate over the summed counters (not an average of
    /// per-backend rates, which would overweight idle backends).
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One-shot `GET /stats` against backend `index`, bounded by the health
/// timeout at every phase — deliberately *not* the pooled session, which
/// an analyze forward may be holding for seconds.
fn fetch_backend_stats(ctx: &Ctx, index: usize) -> Result<Json, String> {
    use std::io::Write;
    let addr = &ctx.backends[index];
    let timeout = ctx.health_opts.timeout;
    let target = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve: {e}"))?
        .next()
        .ok_or_else(|| "resolve: no addresses".to_string())?;
    let mut stream =
        TcpStream::connect_timeout(&target, timeout).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    stream
        .write_all(http::format_request("GET", "/stats", addr, "", true).as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write: {e}"))?;
    let (status, body, _closes) = blazer_serve::client::read_response(&mut BufReader::new(stream))
        .map_err(|e| format!("read: {e}"))?;
    if status != 200 {
        return Err(format!("stats answered {status}"));
    }
    Json::parse(&body).map_err(|e| format!("parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        let key = fnv1a64(b"some canonical key");
        // Deterministic: the same (key, attempt) always sleeps the same.
        assert_eq!(policy.delay(key, 1), policy.delay(key, 1));
        assert_eq!(policy.delay(key, 3), policy.delay(key, 3));
        for attempt in 1..=12 {
            let d = policy.delay(key, attempt);
            // exponential ≤ cap, jitter < base.
            assert!(d <= policy.cap + policy.base, "attempt {attempt} slept {d:?}");
            assert!(d >= policy.base, "attempt {attempt} slept {d:?} under the base");
        }
        // The exponential component actually grows before the cap bites.
        let strip_jitter = |attempt: u32| {
            let jitter = fnv1a64(format!("{key:016x}:{attempt}").as_bytes()) % 10;
            policy.delay(key, attempt).as_millis() as u64 - jitter
        };
        assert_eq!(strip_jitter(1), 10);
        assert_eq!(strip_jitter(2), 20);
        assert_eq!(strip_jitter(3), 40);
        assert_eq!(strip_jitter(10), 200, "capped");
        // Different keys desynchronize.
        let other = fnv1a64(b"a different key");
        assert_ne!(
            policy.delay(key, 1).as_millis() * 1000 + policy.delay(key, 2).as_millis(),
            policy.delay(other, 1).as_millis() * 1000 + policy.delay(other, 2).as_millis(),
        );
    }

    #[test]
    fn starting_with_no_backends_fails_fast() {
        let opts = RouteOptions { addr: "127.0.0.1:0".to_string(), ..RouteOptions::default() };
        let Err(err) = Router::start(opts).map(|_| ()) else { panic!("must refuse to start") };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fleet_error_body_is_structured() {
        let body = fleet_error_body(
            0xdead_beef,
            &[
                ("127.0.0.1:1".to_string(), "connect: refused".to_string()),
                ("127.0.0.1:2".to_string(), "answered 500".to_string()),
            ],
        );
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
        let fleet = body.get("fleet").expect("fleet member");
        assert_eq!(fleet.get("key").and_then(Json::as_str), Some("00000000deadbeef"));
        let Some(Json::Arr(attempts)) = fleet.get("attempts") else { panic!("attempts array") };
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[1].get("error").and_then(Json::as_str), Some("answered 500"));
    }

    #[test]
    fn item_status_is_prefixed_once() {
        let wrapped = with_item_status(503, r#"{"ok": false, "error": "fleet"}"#);
        let doc = Json::parse(&wrapped).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("object") };
        assert_eq!(pairs[0].0, "status");
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(503));
    }
}
