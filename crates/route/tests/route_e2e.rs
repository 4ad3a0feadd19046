//! End-to-end router tests: a real `Router` fronting real `Server`
//! backends on ephemeral ports, spoken to over TCP by the real client —
//! the same path `blazer client` takes against a fleet.

use blazer_core::{Blazer, Config, Verdict};
use blazer_ir::json::{fnv1a64, Json};
use blazer_route::fault::FaultPoints;
use blazer_route::health::HealthOptions;
use blazer_route::ring::Ring;
use blazer_route::{RetryPolicy, RouteOptions, Router};
use blazer_serve::{client, http, AnalyzeRequest, ServeOptions, Server};
use std::sync::atomic::Ordering;
use std::time::Duration;

const SAFE_SRC: &str = "fn check(high: int #high, low: int) { \
    if (high == 0) { let i: int = 0; while (i < low) { i = i + 1; } } \
    else { let i: int = low; while (i > 0) { i = i - 1; } } }";

const UNSAFE_SRC: &str = "fn leak(h: int #high) { if (h == 0) { tick(90); } else { tick(1); } }";

fn start_backend() -> Server {
    Server::start(ServeOptions { addr: "127.0.0.1:0".to_string(), ..ServeOptions::default() })
        .expect("bind backend")
}

/// Router options for tests: ephemeral port, fast retries, and a parked
/// health checker (interval measured in minutes) so the request path alone
/// drives the health state machine deterministically.
fn route_opts(backends: Vec<String>) -> RouteOptions {
    RouteOptions {
        addr: "127.0.0.1:0".to_string(),
        backends,
        retry: RetryPolicy { base: Duration::from_millis(1), cap: Duration::from_millis(4) },
        health: HealthOptions { interval: Duration::from_secs(300), ..HealthOptions::default() },
        ..RouteOptions::default()
    }
}

/// The ring hash the router shards this request by.
fn shard_hash(req: &AnalyzeRequest) -> u64 {
    fnv1a64(req.cache_key().canonical().as_bytes())
}

/// A trivially-safe request whose primary shard is backend `want` — found
/// by walking distinct sources, so the test controls placement without
/// reaching into the router.
fn request_with_primary(backends: &[String], want: usize, salt: u64) -> AnalyzeRequest {
    let ring = Ring::new(backends);
    (salt..salt + 100_000)
        .map(|n| AnalyzeRequest::new(format!("fn f(h: int #high) {{ tick({n}); }}")))
        .find(|req| ring.primary(shard_hash(req)) == Some(want))
        .expect("some source must hash to the wanted shard")
}

fn direct_verdict(source: &str, function: &str) -> Verdict {
    let program = blazer_lang::compile(source).expect("test source compiles");
    Blazer::new(Config::microbench()).analyze(&program, function).expect("analysis runs").verdict
}

#[test]
fn routed_verdicts_match_the_direct_driver() {
    let backends = [start_backend(), start_backend()];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::start(route_opts(addrs)).expect("router starts");
    let addr = router.addr().to_string();
    for (source, function) in [(SAFE_SRC, "check"), (UNSAFE_SRC, "leak")] {
        let (status, doc) =
            client::analyze(&addr, &AnalyzeRequest::new(source)).expect("routed request");
        assert_eq!(status, 200, "{doc}");
        let direct = direct_verdict(source, function);
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some(direct.code()));
        assert_eq!(doc.get("function").and_then(Json::as_str), Some(function));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
    // The same submissions again are verbatim re-answers (backend cache),
    // still through the router.
    let (status, doc) =
        client::analyze(&addr, &AnalyzeRequest::new(UNSAFE_SRC)).expect("cached request");
    assert_eq!(status, 200);
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(router.stats().fleet_unavailable.load(Ordering::SeqCst), 0);
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn identical_submissions_coalesce_to_one_fleet_run() {
    let backends = [start_backend(), start_backend()];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::start(route_opts(addrs.clone())).expect("router starts");
    let addr = router.addr().to_string();
    let req = AnalyzeRequest::new(UNSAFE_SRC);
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                let req = req.clone();
                scope.spawn(move || client::analyze(&addr, &req).expect("routed request"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect::<Vec<_>>()
    });
    for (status, doc) in &answers {
        assert_eq!(*status, 200, "{doc}");
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("attack"));
    }
    // However the stampede was sliced between the router's single-flight
    // and the backends' own, the driver ran exactly once fleet-wide.
    let mut fleet_analyses = 0;
    for backend_addr in &addrs {
        let (_, stats) = client::stats(backend_addr).expect("backend stats");
        fleet_analyses += stats.get("analyses_run").and_then(Json::as_u64).unwrap_or(0);
    }
    assert_eq!(fleet_analyses, 1, "identical submissions must not duplicate driver runs");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn a_dead_backend_is_ejected_and_its_keys_fail_over() {
    let alive = start_backend();
    // The dead shard is a blackhole address that never serves: every
    // connect fails outright (or times out at the health timeout), which
    // is deterministic in a way a stopped in-process server is not — a
    // freed ephemeral port can be rebound by a concurrent test.
    let addrs = vec![alive.addr().to_string(), "10.255.255.1:9".to_string()];
    let mut opts = route_opts(addrs.clone());
    opts.health.eject_after = 1;
    opts.health.timeout = Duration::from_millis(250);
    let router = Router::start(opts).expect("router starts");
    let addr = router.addr().to_string();
    // A dead-primary key fails over to the survivor: the client still
    // sees 200, the router counts the retry and ejects the corpse.
    let (status, doc) =
        client::analyze(&addr, &request_with_primary(&addrs, 1, 0)).expect("failover");
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("safe"));
    let stats = router.stats();
    assert!(stats.retries.load(Ordering::SeqCst) >= 1);
    assert!(stats.failovers.load(Ordering::SeqCst) >= 1);
    assert!(!router.health().is_up(1), "one connect failure must eject at eject_after = 1");
    assert!(router.health().ejections.load(Ordering::SeqCst) >= 1);
    // With the backend ejected, its next key skips straight to the
    // survivor — a failover without a retry.
    let retries_before = stats.retries.load(Ordering::SeqCst);
    let (status, _) =
        client::analyze(&addr, &request_with_primary(&addrs, 1, 1_000_000)).expect("ejected");
    assert_eq!(status, 200);
    assert_eq!(stats.retries.load(Ordering::SeqCst), retries_before, "no retry once ejected");
    assert_eq!(stats.fleet_unavailable.load(Ordering::SeqCst), 0);
    // The router's own health reflects the half-dead fleet but stays up.
    let (status, health) = client::health(&addr).expect("router health");
    assert_eq!(status, 200);
    assert_eq!(health.get("backends_up").and_then(Json::as_u64), Some(1));
    assert_eq!(health.get("backends_total").and_then(Json::as_u64), Some(2));
    router.stop();
    alive.stop();
}

/// One submission against a two-backend fleet with a single armed fault:
/// returns the router's (retries, failovers) counters after it answers.
fn run_one_fault_scenario(fault: FaultPoints) -> (u64, u64) {
    let backends = [start_backend(), start_backend()];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let mut opts = route_opts(addrs);
    opts.fault = Some(fault);
    let router = Router::start(opts).expect("router starts");
    let addr = router.addr().to_string();
    let (status, doc) = client::analyze(&addr, &AnalyzeRequest::new(UNSAFE_SRC)).expect("request");
    assert_eq!(status, 200, "one fault must not surface: {doc}");
    let stats = router.stats();
    assert_eq!(stats.fleet_unavailable.load(Ordering::SeqCst), 0);
    // One isolated failure per backend at most: nobody was ejected.
    assert_eq!(router.health().ejections.load(Ordering::SeqCst), 0);
    let counters = (stats.retries.load(Ordering::SeqCst), stats.failovers.load(Ordering::SeqCst));
    router.stop();
    for backend in backends {
        backend.stop();
    }
    counters
}

#[test]
fn injected_faults_are_retried_onto_the_next_candidate() {
    // A connect fault (refused dial) and a read fault (mid-request death)
    // each cost exactly one retry onto the next ring candidate.
    for fault in [FaultPoints { connect: 1, read: 0 }, FaultPoints { connect: 0, read: 1 }] {
        let (retries, failovers) = run_one_fault_scenario(fault);
        assert_eq!(retries, 1, "{fault:?}");
        assert_eq!(failovers, 1, "{fault:?}");
    }
}

#[test]
fn an_unreachable_fleet_answers_a_structured_503() {
    // Two addresses that were never served: bind-and-drop reserves them.
    let addrs: Vec<String> = (0..2)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
            listener.local_addr().expect("addr").to_string()
        })
        .collect();
    let mut opts = route_opts(addrs);
    opts.health.eject_after = 1;
    let router = Router::start(opts).expect("router starts");
    let addr = router.addr().to_string();
    let (status, body) = http::one_shot(
        &addr,
        "POST",
        "/analyze",
        &AnalyzeRequest::new(UNSAFE_SRC).to_json().to_string(),
        None,
    )
    .expect("round-trips");
    assert_eq!(status, 503, "{body}");
    let doc = Json::parse(&body).expect("structured error");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert!(doc.get("error").and_then(Json::as_str).unwrap_or("").starts_with("fleet:"));
    let fleet = doc.get("fleet").expect("fleet block");
    assert!(fleet.get("key").and_then(Json::as_str).is_some());
    let attempts = match fleet.get("attempts") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("attempts must be an array, got {other:?}"),
    };
    assert_eq!(attempts.len(), 2, "every candidate was tried exactly once");
    for attempt in &attempts {
        assert!(attempt.get("backend").and_then(Json::as_str).is_some());
        assert!(attempt.get("error").and_then(Json::as_str).is_some());
    }
    assert_eq!(router.stats().fleet_unavailable.load(Ordering::SeqCst), 1);
    // With every backend ejected the router's own health goes 503.
    let (status, health) = client::health(&addr).expect("router health");
    assert_eq!(status, 503);
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(health.get("backends_up").and_then(Json::as_u64), Some(0));
    router.stop();
}

#[test]
fn batches_split_across_shards_and_remerge_in_submission_order() {
    let backends = [start_backend(), start_backend()];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::start(route_opts(addrs)).expect("router starts");
    let addr = router.addr().to_string();
    let attack = AnalyzeRequest::new(UNSAFE_SRC).to_json().to_string();
    let safe = AnalyzeRequest::new(SAFE_SRC).to_json().to_string();
    let body = format!("[{attack}, {{\"frobnicate\": 1}}, {safe}, {attack}]");
    let (status, response) = http::one_shot(&addr, "POST", "/analyze", &body, None).expect("batch");
    assert_eq!(status, 200, "{response}");
    let items = match Json::parse(&response) {
        Ok(Json::Arr(items)) => items,
        other => panic!("batch answer must be an array, got {other:?}"),
    };
    assert_eq!(items.len(), 4);
    let statuses: Vec<u64> =
        items.iter().map(|i| i.get("status").and_then(Json::as_u64).unwrap_or(0)).collect();
    assert_eq!(statuses, vec![200, 400, 200, 200], "{response}");
    // Submission order survived the shard split: the verdicts and analyzed
    // functions line up with the submitted positions.
    assert_eq!(items[0].get("verdict").and_then(Json::as_str), Some("attack"));
    assert_eq!(items[0].get("function").and_then(Json::as_str), Some("leak"));
    assert_eq!(items[2].get("verdict").and_then(Json::as_str), Some("safe"));
    assert_eq!(items[2].get("function").and_then(Json::as_str), Some("check"));
    assert_eq!(items[3].get("verdict").and_then(Json::as_str), Some("attack"));
    assert!(items[1].get("error").and_then(Json::as_str).is_some(), "{response}");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn a_batch_survives_losing_a_backend_between_rounds() {
    let alive = start_backend();
    // The doomed backend closes every connection after one request so the
    // router never holds a parked session into it and `stop()` below
    // returns without waiting out an idle keep-alive timeout.
    let doomed = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_requests_per_connection: 1,
        ..ServeOptions::default()
    })
    .expect("bind backend");
    let addrs = vec![alive.addr().to_string(), doomed.addr().to_string()];
    let mut opts = route_opts(addrs);
    opts.health.eject_after = 1;
    let router = Router::start(opts).expect("router starts");
    let addr = router.addr().to_string();
    let round = |salt: u64| -> Vec<AnalyzeRequest> {
        (0..8)
            .map(|n| AnalyzeRequest::new(format!("fn f(h: int #high) {{ tick({}); }}", salt + n)))
            .collect()
    };
    let (status, doc) = client::analyze_batch(&addr, &round(100)).expect("round 1");
    assert_eq!(status, 200, "{doc}");
    doomed.stop();
    // Round 2: whatever lands on the doomed shard fails over per item —
    // every item still answers 200, nothing surfaces a 5xx.
    let (status, doc) = client::analyze_batch(&addr, &round(200)).expect("round 2");
    assert_eq!(status, 200, "{doc}");
    let items = match doc {
        Json::Arr(items) => items,
        other => panic!("batch answer must be an array, got {other:?}"),
    };
    assert_eq!(items.len(), 8);
    for (n, item) in items.iter().enumerate() {
        assert_eq!(item.get("status").and_then(Json::as_u64), Some(200), "item {n}: {item}");
        assert_eq!(item.get("verdict").and_then(Json::as_str), Some("safe"), "item {n}");
    }
    assert_eq!(router.stats().fleet_unavailable.load(Ordering::SeqCst), 0);
    router.stop();
    alive.stop();
}

#[test]
fn router_stats_aggregate_the_fleet() {
    let backends = [start_backend(), start_backend()];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::start(route_opts(addrs.clone())).expect("router starts");
    let addr = router.addr().to_string();
    let (status, _) = client::analyze(&addr, &AnalyzeRequest::new(UNSAFE_SRC)).expect("analyze");
    assert_eq!(status, 200);
    let reqs = [AnalyzeRequest::new(SAFE_SRC), AnalyzeRequest::new(UNSAFE_SRC)];
    let (status, _) = client::analyze_batch(&addr, &reqs).expect("batch");
    assert_eq!(status, 200);
    let (status, stats) = client::stats(&addr).expect("router stats");
    assert_eq!(status, 200);
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get("service").and_then(Json::as_str), Some("blazer-route"));
    assert_eq!(stats.get("backends_total").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("backends_up").and_then(Json::as_u64), Some(2));
    let router_block = stats.get("router").expect("router block");
    for field in [
        "workers",
        "queue_depth",
        "connections",
        "requests",
        "analyze_requests",
        "batch_requests",
        "retries",
        "failovers",
        "ejections",
        "reinstatements",
        "coalesced",
        "fleet_unavailable",
        "client_errors",
        "busy_rejections",
    ] {
        assert!(router_block.get(field).is_some(), "missing router.{field}: {stats}");
    }
    assert_eq!(router_block.get("analyze_requests").and_then(Json::as_u64), Some(3));
    assert_eq!(router_block.get("batch_requests").and_then(Json::as_u64), Some(1));
    // The fleet block sums what the backends report; both distinct
    // analyses ran exactly once somewhere in the fleet.
    let fleet = stats.get("fleet").expect("fleet block");
    assert_eq!(fleet.get("analyses_run").and_then(Json::as_u64), Some(2), "{stats}");
    assert!(fleet.get("cache_hits").and_then(Json::as_u64).unwrap_or(0) >= 1);
    // Fleet-wide cache aggregates computed over the summed counters.
    assert!(fleet.get("cache_evictions").and_then(Json::as_u64).is_some(), "{stats}");
    let hit_rate = fleet.get("cache_hit_rate").and_then(Json::as_f64).expect("fleet hit rate");
    assert!((0.0..=1.0).contains(&hit_rate), "{stats}");
    assert!(hit_rate > 0.0, "at least one hit was recorded: {stats}");
    // Per-backend entries carry health and the backend's own stats.
    let listed = match stats.get("backends") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("backends must be an array, got {other:?}"),
    };
    assert_eq!(listed.len(), 2);
    for (index, entry) in listed.iter().enumerate() {
        assert_eq!(entry.get("addr").and_then(Json::as_str), Some(addrs[index].as_str()));
        assert_eq!(entry.get("health").and_then(Json::as_str), Some("up"));
        let backend_stats = entry.get("stats").expect("reachable backend stats");
        assert!(backend_stats.get("analyses_run").and_then(Json::as_u64).is_some());
    }
    router.stop();
    for backend in backends {
        backend.stop();
    }
}
