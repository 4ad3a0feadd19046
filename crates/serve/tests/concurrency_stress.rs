//! Concurrency stress tests for the sharded verdict cache and the
//! service-level single-flight: the committed evidence that the lock
//! refactor loses no inserts, double-counts no evictions, coalesces
//! duplicate work, and never lets persistence I/O delay a read.

use blazer_serve::cache::{CacheKey, VerdictCache};
use blazer_serve::sync::ShardedMap;
use blazer_serve::{client, AnalyzeRequest, ServeOptions, Server};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

fn key(tag: u64) -> CacheKey {
    CacheKey::new(&format!("fn f() {{ tick({tag}); }}"), None, "stress-fingerprint")
}

/// 8 threads hammer one sharded cache with interleaved inserts and gets
/// over distinct keys. Each key is inserted exactly once, so every fresh
/// insert adds one live entry and every eviction retires one: the
/// accounting invariant `live entries + evictions == inserts` catches
/// both lost inserts (an entry vanishing without an eviction tick) and
/// double evictions (one departure counted twice). The size bound checks
/// the soft cap's documented overshoot of at most one entry per shard.
#[test]
fn stress_no_lost_inserts_and_no_double_evictions() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200;
    const CAP: usize = 64;
    const SHARDS: usize = 8;
    let cache = Arc::new(VerdictCache::in_memory_with(CAP, SHARDS));
    let gate = Arc::new(Barrier::new(THREADS as usize));
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            scope.spawn(move || {
                gate.wait();
                for i in 0..PER_THREAD {
                    let tag = worker * PER_THREAD + i;
                    cache.insert(&key(tag), format!("body-{tag}").as_str().into());
                    // Interleaved hit/miss traffic on a neighbour key.
                    let _ = cache.get(&key(tag.saturating_sub(3)));
                }
            });
        }
    });
    let unique = THREADS * PER_THREAD;
    assert_eq!(
        cache.len() as u64 + cache.evictions(),
        unique,
        "every insert is either live or counted as exactly one eviction"
    );
    assert!(
        cache.len() <= CAP + SHARDS,
        "soft cap overshoots by at most one entry per shard: len={} cap={CAP} shards={SHARDS}",
        cache.len()
    );
    assert!(cache.hits() + cache.misses() == unique, "every get was counted once");
}

/// The same accounting invariant under *replacement* pressure, at the
/// layer that reports freshness. A re-insert of a key that was evicted
/// in between is legitimately fresh again, so the invariant must count
/// fresh-insert events (the `insert -> true` returns), not unique keys —
/// this is exactly the distinction a lost-insert bug would blur.
#[test]
fn stress_replacements_keep_the_accounting_exact() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200;
    const CAP: usize = 64;
    const SHARDS: usize = 8;
    let map: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::new(CAP, SHARDS));
    let gate = Arc::new(Barrier::new(THREADS as usize));
    let fresh_events = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let map = Arc::clone(&map);
            let gate = Arc::clone(&gate);
            let fresh_events = Arc::clone(&fresh_events);
            scope.spawn(move || {
                gate.wait();
                for i in 0..PER_THREAD {
                    let tag = worker * PER_THREAD + i;
                    let k = format!("key-{tag}");
                    for _ in 0..2 {
                        if map.insert(&k, tag) {
                            fresh_events.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let _ = map.get(&k);
                }
            });
        }
    });
    assert_eq!(
        map.len() as u64 + map.evictions(),
        fresh_events.load(Ordering::SeqCst),
        "every fresh-insert event is either live or counted as exactly one eviction"
    );
    assert!(
        fresh_events.load(Ordering::SeqCst) >= THREADS * PER_THREAD,
        "each distinct key was fresh at least once"
    );
    assert!(map.len() <= CAP + SHARDS);
}

/// 8 client threads race the same 4 tiny programs against a live server:
/// the driver must run exactly once per distinct program — every other
/// submission is either coalesced onto an in-flight leader or a cache
/// hit, and each submission counts as exactly one of the three. This is
/// the service-level proof that sharding the single-flight kept its
/// exactly-once guarantee, and that a hit checked before the flight (with
/// the leader checking again) neither runs a program twice nor counts a
/// request twice.
#[test]
fn single_flight_runs_each_distinct_program_once_under_contention() {
    const THREADS: usize = 8;
    const PROGRAMS: u64 = 4;
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(THREADS),
        queue_depth: THREADS * 2,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let gate = Barrier::new(THREADS);
    let submitted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let addr = &addr;
            let gate = &gate;
            let submitted = &submitted;
            scope.spawn(move || {
                gate.wait();
                for round in 0..PROGRAMS {
                    // Rotate the start program per worker so every program
                    // sees concurrent duplicate submissions.
                    let tag = (worker as u64 + round) % PROGRAMS;
                    let source = format!("fn f(h: int #high) {{ tick({}); }}", 7 + tag);
                    let (status, doc) = client::analyze(addr, &AnalyzeRequest::new(source))
                        .expect("request round-trips");
                    assert_eq!(status, 200, "{doc}");
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    let total = submitted.load(Ordering::SeqCst);
    assert_eq!(total, (THREADS as u64) * PROGRAMS);
    let stats = server.stats();
    let runs = stats.analyses_run.load(Ordering::SeqCst);
    let coalesced = stats.coalesced.load(Ordering::SeqCst);
    let hits = server.cache().hits();
    assert_eq!(runs, PROGRAMS, "exactly one driver run per distinct program");
    assert_eq!(server.cache().misses(), runs, "a cache miss is a lookup that ran the driver");
    assert_eq!(
        coalesced + hits + runs,
        total,
        "every submission was a run, a coalesce, or a cache hit"
    );
    server.stop();
}

/// A writer whose `write` parks on a condvar gate: it signals that an
/// append has entered the sink, then blocks until released. While it is
/// blocked, the persistence mutex is held — the test then proves reads
/// (including of the very entry whose append is stalled) still complete.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    signal: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: bool,
    released: bool,
}

struct GateWriter(Arc<Gate>);

impl Write for GateWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self.0.state.lock().unwrap();
        state.entered = true;
        self.0.signal.notify_all();
        while !state.released {
            state = self.0.signal.wait(state).unwrap();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn stalled_append_never_delays_reads() {
    let gate = Arc::new(Gate::default());
    let cache =
        Arc::new(VerdictCache::with_append_sink(Box::new(GateWriter(Arc::clone(&gate))), 16, 4));
    let stalled = key(1);
    let writer = {
        let cache = Arc::clone(&cache);
        let stalled = stalled.clone();
        std::thread::spawn(move || cache.insert(&stalled, "stalled-body".into()))
    };
    // Wait until the insert is provably parked *inside* the append.
    {
        let mut state = gate.state.lock().unwrap();
        while !state.entered {
            state = gate.signal.wait(state).unwrap();
        }
    }
    // The entry went into the map before the append began: it is readable
    // even though its own persistence record is still stalled.
    assert_eq!(cache.get(&stalled).as_deref(), Some("stalled-body"));
    assert_eq!(cache.get(&key(2)), None, "misses don't touch the persist mutex either");
    // Release the writer so the insert can finish.
    {
        let mut state = gate.state.lock().unwrap();
        state.released = true;
        gate.signal.notify_all();
    }
    writer.join().expect("stalled insert completes");
}

/// A sink that fails every append: persistence trouble must cost a log
/// line, never correctness — the cache keeps serving from memory.
struct BrokenWriter;

impl Write for BrokenWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("injected append failure"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("injected flush failure"))
    }
}

#[test]
fn failing_append_sink_leaves_the_cache_serving() {
    let cache = VerdictCache::with_append_sink(Box::new(BrokenWriter), 16, 4);
    for tag in 0..8 {
        cache.insert(&key(tag), format!("body-{tag}").as_str().into());
    }
    assert_eq!(cache.len(), 8);
    for tag in 0..8 {
        assert_eq!(cache.get(&key(tag)).as_deref(), Some(format!("body-{tag}").as_str()));
    }
    assert_eq!(cache.hits(), 8);
}
