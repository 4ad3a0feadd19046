//! The content-addressed verdict cache.
//!
//! A verdict is a pure function of `(source text, analysis configuration)`:
//! the driver is deterministic at every thread width, so two submissions
//! with the same canonical key *must* produce the same response. The cache
//! exploits that — a resubmission of an already-proven program is answered
//! in microseconds instead of re-running refinement.
//!
//! Keys are canonical strings (`function`, config fingerprint, and the
//! full source) — the reported *content address* is the FNV-1a hash of
//! that string, but lookups compare the canonical string itself, so a
//! hash collision can never serve the wrong verdict.
//!
//! Budget-exhausted and crashed analyses are **never** cached: they
//! describe what one request's budget allowed, not what the program is.
//!
//! A stored body is an [`api::Body`](crate::api::Body): shaped once, on
//! insert or when the persistence file loads, and answered as a hit by a
//! copy of its text.
//!
//! ## Concurrency (see DESIGN.md §12)
//!
//! The store is a [`ShardedMap`]: the key's FNV-1a hash picks one of N
//! shards, and a **hit takes no exclusive lock** — one shard read lock
//! plus relaxed atomic stamp/counter bumps, so concurrent hits (the
//! fleet's dominant workload) proceed fully in parallel. Inserts
//! write-lock one shard only; eviction is per-shard approximate LRU
//! driven by the stamps, bounded by a soft global capacity
//! ([`VerdictCache::DEFAULT_MAX_ENTRIES`] by default).
//!
//! ## Persistence
//!
//! With a persistence path configured, every fresh insert appends one
//! JSONL record — **outside every shard lock**, behind the persistence
//! sink's own narrow mutex, so a disk stall can never delay a hit (only
//! sibling appends). A restarted server reloads the file, keeping the
//! most recent record per key and at most the cap's worth of newest
//! entries, then **compacts** it in place; the same compaction also runs
//! in the background of a long-lived server once the append log grows
//! past twice the capacity, so eviction-heavy workloads cannot grow the
//! log without bound between restarts. A torn trailing line (a crash
//! mid-append) is skipped on reload and dropped by compaction.

use crate::api::Body;
use crate::sync::{default_shard_count, fnv1a64, shard_index, ShardedMap};
use blazer_ir::json::{escape, Json};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The canonical identity of one analysis request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    canonical: String,
}

impl CacheKey {
    /// Builds the key from the request's source text, target function, and
    /// the configuration fingerprint (domain, observer, budget caps, attack
    /// synthesis — everything that can change the response except thread
    /// width, which provably cannot).
    pub fn new(source: &str, function: Option<&str>, fingerprint: &str) -> CacheKey {
        CacheKey {
            canonical: format!(
                "fn={}\u{1}cfg={fingerprint}\u{1}src={source}",
                function.unwrap_or("")
            ),
        }
    }

    /// The 16-hex-digit content address reported to clients.
    pub fn address(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// The FNV-1a 64 hash of the canonical string — the content address,
    /// and the hash sharded structures route by.
    pub fn hash(&self) -> u64 {
        fnv1a64(self.canonical.as_bytes())
    }

    /// The full canonical string (the exact-compare identity).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

// ------------------------------------------------------------ single-flight

/// The finished result of one coalesced run, shared with every request
/// that joined the flight while it was in the air. The body type is the
/// caller's: the service shares shaped [`Body`]s, the router the backend's
/// text.
#[derive(Debug, Clone)]
pub struct FlightOutcome<B = String> {
    /// HTTP status the leader produced.
    pub status: u16,
    /// The body, as the leader produced it.
    pub body: B,
}

/// What followers of a leader that died without publishing are answered,
/// with a `500`.
const ABANDONED: &str = "{\"ok\": false, \"error\": \"analysis abandoned by its worker\"}";

#[derive(Debug)]
struct Flight<B> {
    result: Mutex<Option<FlightOutcome<B>>>,
    ready: Condvar,
}

/// What [`SingleFlight::join`] made of a request.
pub enum Joined<'a, B: From<&'static str> = String> {
    /// First in: this request must run the analysis and publish the result
    /// through [`FlightToken::complete`].
    Leader(FlightToken<'a, B>),
    /// An identical request was already in the air; this is its result.
    Follower(FlightOutcome<B>),
}

/// The leader's obligation to publish. If the token is dropped without
/// [`FlightToken::complete`] (a panic escaping the leader's path), waiting
/// followers are released with a `500` instead of blocking forever.
pub struct FlightToken<'a, B: From<&'static str> = String> {
    owner: &'a SingleFlight<B>,
    shard: usize,
    key: String,
    flight: Arc<Flight<B>>,
    published: bool,
}

impl<B: From<&'static str>> FlightToken<'_, B> {
    /// Publishes the leader's result to every follower and retires the
    /// flight so later identical requests start fresh (or hit the cache).
    pub fn complete(mut self, outcome: FlightOutcome<B>) {
        self.publish(outcome);
    }

    fn publish(&mut self, outcome: FlightOutcome<B>) {
        if self.published {
            return;
        }
        self.published = true;
        *self.flight.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.flight.ready.notify_all();
        self.owner.shards[self.shard].lock().unwrap_or_else(|e| e.into_inner()).remove(&self.key);
    }
}

impl<B: From<&'static str>> Drop for FlightToken<'_, B> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(FlightOutcome { status: 500, body: B::from(ABANDONED) });
        }
    }
}

/// Coalesces concurrent identical submissions onto one driver run.
///
/// Sits *behind* the verdict cache: a hit never joins a flight. Without
/// it, N simultaneous POSTs of the same uncached program all miss and all
/// run the full analysis (a cache stampede — the cache only helps once
/// somebody has finished). With it, the first request to miss becomes the
/// flight's *leader*; the other N−1 block on its condvar and are answered
/// from the leader's single run.
/// Non-cacheable outcomes (`422`/`500`) are shared with concurrent
/// followers too — they asked the exact same question at the same time —
/// but are still never inserted into the cache.
///
/// The flight table is sharded the same way as the verdict cache (the
/// key's FNV-1a hash picks the shard), so joins for unrelated keys never
/// contend on one registry mutex; each join locks its own shard only, and
/// the leader/follower Condvar protocol and the poison-on-drop token are
/// unchanged.
#[derive(Debug)]
pub struct SingleFlight<B = String> {
    shards: Box<[FlightShard<B>]>,
}

/// One shard of the flight registry: the in-flight leaders whose keys
/// hash here.
type FlightShard<B> = Mutex<HashMap<String, Arc<Flight<B>>>>;

impl<B: Clone + From<&'static str>> Default for SingleFlight<B> {
    fn default() -> SingleFlight<B> {
        SingleFlight::new()
    }
}

impl<B: Clone + From<&'static str>> SingleFlight<B> {
    /// An empty flight registry with the default shard count.
    pub fn new() -> SingleFlight<B> {
        SingleFlight::with_shards(default_shard_count())
    }

    /// An empty flight registry with `shards` shards (rounded up to a
    /// power of two).
    pub fn with_shards(shards: usize) -> SingleFlight<B> {
        let shards = shards.max(1).next_power_of_two();
        SingleFlight { shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// Joins the flight for `key`: the first caller becomes the leader and
    /// returns immediately; every other caller blocks until the leader
    /// publishes, then gets the shared outcome.
    pub fn join(&self, key: &CacheKey) -> Joined<'_, B> {
        let shard = shard_index(key.hash(), self.shards.len());
        let flight = {
            let mut flights = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
            match flights.get(key.canonical()) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight =
                        Arc::new(Flight { result: Mutex::new(None), ready: Condvar::new() });
                    flights.insert(key.canonical().to_string(), Arc::clone(&flight));
                    return Joined::Leader(FlightToken {
                        owner: self,
                        shard,
                        key: key.canonical().to_string(),
                        flight,
                        published: false,
                    });
                }
            }
        };
        let mut slot = flight.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*slot {
                Some(outcome) => return Joined::Follower(outcome.clone()),
                None => slot = flight.ready.wait(slot).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Number of flights currently in the air (tests/metrics).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }
}

// ------------------------------------------------------------- persistence

/// Where appended records go: the JSONL file, or an arbitrary writer (the
/// instrumentation hook the slow/failing-append tests use).
enum Sink {
    File {
        path: PathBuf,
        /// Kept open across appends; reopened after a compaction replaces
        /// the inode.
        handle: Option<File>,
    },
    Writer(Box<dyn Write + Send>),
}

/// Everything behind the persistence mutex — deliberately narrow: one
/// append (or one compaction) at a time, never a map operation.
struct Persist {
    sink: Sink,
    /// Appends since the last compaction; when this outgrows twice the
    /// capacity the log is rewritten from the live entries.
    appended: u64,
}

impl std::fmt::Debug for Persist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Sink::File { path, .. } => write!(f, "Persist({})", path.display()),
            Sink::Writer(_) => write!(f, "Persist(<writer>)"),
        }
    }
}

/// Thread-safe verdict store with hit/miss/eviction counters, a sharded
/// lock-light read path, a soft entry cap, and optional append-only
/// persistence (compacted on reload and periodically in place).
#[derive(Debug)]
pub struct VerdictCache {
    map: ShardedMap<Body>,
    hits: AtomicU64,
    misses: AtomicU64,
    persist: Option<Mutex<Persist>>,
}

impl VerdictCache {
    /// Default retention cap. Each entry is one source program plus one
    /// JSON response (a few KiB); thousands fit comfortably while still
    /// bounding a server fed an endless stream of unique submissions.
    pub const DEFAULT_MAX_ENTRIES: usize = 4096;

    /// An empty in-memory cache with the default cap and shard count.
    pub fn in_memory() -> VerdictCache {
        VerdictCache::in_memory_with_cap(VerdictCache::DEFAULT_MAX_ENTRIES)
    }

    /// An empty in-memory cache retaining about `max_entries` verdicts
    /// (a zero cap is promoted to one: the entry being inserted).
    pub fn in_memory_with_cap(max_entries: usize) -> VerdictCache {
        VerdictCache::in_memory_with(max_entries, default_shard_count())
    }

    /// An empty in-memory cache with an explicit shard count. One shard
    /// gives exact LRU (the sequential tests pin this); more shards trade
    /// eviction exactness for a contention-free read path.
    pub fn in_memory_with(max_entries: usize, shards: usize) -> VerdictCache {
        VerdictCache {
            map: ShardedMap::new(max_entries, shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persist: None,
        }
    }

    /// An in-memory cache whose appends go to an arbitrary writer instead
    /// of a file — the instrumentation hook for proving that a slow or
    /// failing append can never delay a read (no reload, no compaction).
    pub fn with_append_sink(
        sink: Box<dyn Write + Send>,
        max_entries: usize,
        shards: usize,
    ) -> VerdictCache {
        VerdictCache {
            map: ShardedMap::new(max_entries, shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persist: Some(Mutex::new(Persist { sink: Sink::Writer(sink), appended: 0 })),
        }
    }

    /// A cache backed by `path` with the default cap: existing records are
    /// loaded eagerly and every insert appends one record.
    pub fn persistent(path: PathBuf) -> VerdictCache {
        VerdictCache::persistent_with_cap(path, VerdictCache::DEFAULT_MAX_ENTRIES)
    }

    /// A cache backed by `path` retaining about `max_entries` verdicts,
    /// with the default shard count.
    pub fn persistent_with_cap(path: PathBuf, max_entries: usize) -> VerdictCache {
        VerdictCache::persistent_with(path, max_entries, default_shard_count())
    }

    /// A cache backed by `path` with explicit cap and shard count.
    ///
    /// Reload keeps the newest record per key, newest-first up to the cap
    /// (unreadable or malformed lines — a torn final append — are skipped;
    /// they must not brick the server), shapes each surviving body once
    /// (a record written before bodies were stored shaped, or edited by
    /// hand, answers exactly as it always did), then rewrites the file
    /// from the survivors so duplicates, evictees, and the torn line don't
    /// replay on every future restart.
    pub fn persistent_with(path: PathBuf, max_entries: usize, shards: usize) -> VerdictCache {
        let max_entries = max_entries.max(1);
        let mut records: Vec<(String, String)> = Vec::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let Ok(record) = Json::parse(line) else { continue };
                let (Some(key), Some(response)) = (
                    record.get("key").and_then(Json::as_str),
                    record.get("response").and_then(Json::as_str),
                ) else {
                    continue;
                };
                records.push((key.to_string(), response.to_string()));
            }
        }
        // Newest record per key wins; newest keys win the cap. Walking the
        // log backwards makes both "first seen survives".
        let mut seen: HashSet<&str> = HashSet::new();
        let mut survivors: Vec<&(String, String)> = Vec::new();
        for pair in records.iter().rev() {
            if survivors.len() == max_entries {
                break;
            }
            if seen.insert(pair.0.as_str()) {
                survivors.push(pair);
            }
        }
        let survivors: Vec<(String, Body)> = survivors
            .into_iter()
            .rev()
            .map(|(key, response)| (key.clone(), Body::from(response.as_str())))
            .collect();
        compact(&path, &survivors);
        let map = ShardedMap::new(max_entries, shards);
        for (key, body) in survivors {
            // Oldest first: insertion order doubles as the recency order,
            // so a reloaded cache evicts in the same sequence the flushed
            // one would have. Survivors fit the global cap by
            // construction, so no insert here can trigger an eviction.
            map.insert(&key, body);
        }
        VerdictCache {
            map,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persist: Some(Mutex::new(Persist {
                sink: Sink::File { path, handle: None },
                appended: 0,
            })),
        }
    }

    /// Looks up a response body, counting a hit and refreshing the
    /// entry's recency; a miss is not counted. This is the lookup a
    /// request makes before it joins a flight, which may still answer it
    /// without running the driver. **No exclusive lock anywhere on this
    /// path**: one shard read lock plus atomic counter bumps (see
    /// [`ShardedMap::get`]) — concurrent hits never serialize, and a
    /// stalled persistence append never delays them.
    pub fn hit(&self, key: &CacheKey) -> Option<Body> {
        let body = self.map.get(&key.canonical)?;
        self.hits.fetch_add(1, Ordering::SeqCst);
        Some(body)
    }

    /// [`VerdictCache::hit`], counting a miss too: the lookup that decides
    /// whether the driver runs.
    pub fn get(&self, key: &CacheKey) -> Option<Body> {
        let body = self.hit(key);
        if body.is_none() {
            self.misses.fetch_add(1, Ordering::SeqCst);
        }
        body
    }

    /// Stores a response body, evicting a least-recently-used entry of the
    /// key's shard when the soft cap is exceeded, then appends the record
    /// to the persistence sink, if any — **after** the shard lock is
    /// released, so persistence I/O (and its stalls) happen outside every
    /// map lock. Concurrent duplicate inserts (two identical submissions
    /// racing past the same miss) are benign: both compute the same body.
    ///
    /// Evictions only drop the in-memory entry; their stale log records
    /// are swept by the periodic compaction or the next reload.
    pub fn insert(&self, key: &CacheKey, body: Body) {
        if !self.map.insert(&key.canonical, body.clone()) {
            // A replacement: same key, same (deterministic) body — the log
            // already has the record.
            return;
        }
        let Some(persist) = &self.persist else { return };
        let mut persist = persist.lock().unwrap_or_else(|e| e.into_inner());
        let Persist { sink, appended } = &mut *persist;
        *appended += 1;
        let line = record_line(&key.canonical, &body);
        match sink {
            Sink::Writer(w) => {
                if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.flush()) {
                    eprintln!("verdict cache: could not persist record: {e}");
                }
            }
            Sink::File { path, handle } => {
                if handle.is_none() {
                    match std::fs::OpenOptions::new().create(true).append(true).open(&*path) {
                        Ok(file) => *handle = Some(file),
                        Err(e) => {
                            eprintln!(
                                "verdict cache: could not persist to {}: {e}",
                                path.display()
                            );
                            return;
                        }
                    }
                }
                // One write per record keeps the crash-tolerant JSONL
                // framing: a crash tears at most the final line, which
                // reload skips.
                if let Err(e) = handle.as_mut().expect("opened above").write_all(line.as_bytes()) {
                    eprintln!("verdict cache: could not persist to {}: {e}", path.display());
                    *handle = None;
                    return;
                }
                // Eviction-heavy workloads append far more records than
                // stay live: once the log doubles the capacity, rewrite it
                // from the live entries. Holds only the persistence mutex
                // plus shard *read* locks — hits are never delayed.
                if *appended >= 2 * self.map.capacity() as u64 {
                    *appended = 0;
                    compact(path, &self.live_entries_lru_first());
                    *handle = None; // the rename replaced the inode
                }
            }
        }
    }

    /// The live entries, least-recently-used first (compaction/flush
    /// order, so a reload reconstructs the same eviction sequence).
    fn live_entries_lru_first(&self) -> Vec<(String, Body)> {
        let mut entries = self.map.entries();
        entries.sort_by_key(|(_, _, stamp)| *stamp);
        entries.into_iter().map(|(k, v, _)| (k, v)).collect()
    }

    /// Flushes the persistence file to exactly the live in-memory entries:
    /// the graceful-shutdown path, which leaves a compact log behind
    /// instead of an append-only one that replays duplicates and evictees
    /// on the next start. A no-op for in-memory caches; failure is
    /// non-fatal (the append-only log still exists).
    pub fn flush(&self) {
        let Some(persist) = &self.persist else { return };
        let mut persist = persist.lock().unwrap_or_else(|e| e.into_inner());
        let Sink::File { path, handle } = &mut persist.sink else { return };
        compact(path, &self.live_entries_lru_first());
        *handle = None;
        persist.appended = 0;
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    /// Lookups that had to run the driver.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::SeqCst)
    }

    /// Entries evicted to stay within the cap.
    pub fn evictions(&self) -> u64 {
        self.map.evictions()
    }

    /// Number of shards the store spreads over.
    pub fn shards(&self) -> usize {
        self.map.shard_count()
    }

    /// The fraction of lookups served from the cache, in `[0, 1]`
    /// (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = (self.hits() as f64, self.misses() as f64);
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// One JSONL record, newline-terminated.
fn record_line(canonical: &str, body: &str) -> String {
    format!(
        "{{\"key\": \"{}\", \"address\": \"{:016x}\", \"response\": \"{}\"}}\n",
        escape(canonical),
        fnv1a64(canonical.as_bytes()),
        escape(body),
    )
}

/// Rewrites the persistence file to exactly `survivors`, via a sibling
/// temp file and rename so a crash mid-compaction leaves either the old
/// or the new log, never a half-written one. Failure is non-fatal: the
/// server runs on, merely without the compaction.
fn compact(path: &PathBuf, survivors: &[(String, Body)]) {
    if !path.exists() && survivors.is_empty() {
        return;
    }
    let mut text = String::new();
    for (key, response) in survivors {
        text.push_str(&record_line(key, response));
    }
    let tmp = path.with_extension("compact.tmp");
    let written = std::fs::write(&tmp, text.as_bytes()).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        eprintln!("verdict cache: could not compact {}: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_configs_do_not_collide() {
        let a = CacheKey::new("fn f() { }", Some("f"), "domain=polyhedra");
        let b = CacheKey::new("fn f() { }", Some("f"), "domain=zone");
        assert_ne!(a, b);
        assert_ne!(a.address(), b.address());
        assert_eq!(a.address().len(), 16);
        assert_eq!(a.address(), format!("{:016x}", a.hash()));
    }

    #[test]
    fn counts_hits_and_misses() {
        let cache = VerdictCache::in_memory();
        let key = CacheKey::new("src", None, "cfg");
        assert!(cache.get(&key).is_none());
        // A hit that does not count a miss: the lookup before a flight.
        assert!(cache.hit(&key).is_none());
        cache.insert(&key, "{\"ok\": true}".into());
        assert_eq!(cache.get(&key).as_deref(), Some("{\"ok\": true, \"cached\": true}"));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(cache.hit_rate(), 0.5);
        assert!(cache.shards() >= 4);
    }

    #[test]
    fn evicts_least_recently_used_at_cap() {
        // One shard pins the exact-LRU behavior; multi-shard eviction
        // exactness is covered by the soft-cap invariant tests.
        let cache = VerdictCache::in_memory_with(2, 1);
        let (a, b, c) = (
            CacheKey::new("a", None, ""),
            CacheKey::new("b", None, ""),
            CacheKey::new("c", None, ""),
        );
        cache.insert(&a, "ra".into());
        cache.insert(&b, "rb".into());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&a).is_some());
        cache.insert(&c, "rc".into());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "recently-used entry must survive");
        assert!(cache.get(&b).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.evictions(), 1);
        // Re-inserting an existing key neither grows nor evicts.
        cache.insert(&c, "rc".into());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
    }

    #[test]
    fn single_flight_coalesces_concurrent_joiners() {
        use std::sync::atomic::AtomicUsize;
        let sf: SingleFlight = SingleFlight::new();
        let key = CacheKey::new("src", None, "cfg");
        let leads = AtomicUsize::new(0);
        let follows = AtomicUsize::new(0);
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    gate.wait();
                    match sf.join(&key) {
                        Joined::Leader(token) => {
                            leads.fetch_add(1, Ordering::SeqCst);
                            // Linger so the siblings pile up as followers.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            token.complete(FlightOutcome { status: 200, body: "r".into() });
                        }
                        Joined::Follower(outcome) => {
                            follows.fetch_add(1, Ordering::SeqCst);
                            assert_eq!((outcome.status, outcome.body.as_str()), (200, "r"));
                        }
                    }
                });
            }
        });
        // Exactly one leader; everyone else either followed the live
        // flight or (having joined after retirement) led a fresh one —
        // with the 50ms linger the race window for the latter is tiny,
        // but the invariant that matters is leaders + followers == 8.
        assert_eq!(leads.load(Ordering::SeqCst) + follows.load(Ordering::SeqCst), 8);
        assert!(leads.load(Ordering::SeqCst) >= 1);
        assert_eq!(sf.in_flight(), 0, "completed flights retire");
    }

    #[test]
    fn single_flight_shards_keys_independently() {
        // Leaders for distinct keys coexist without contending: every key
        // gets its own flight regardless of which shard it lands in.
        let sf: SingleFlight = SingleFlight::with_shards(4);
        let keys: Vec<CacheKey> =
            (0..16).map(|i| CacheKey::new(&format!("src{i}"), None, "cfg")).collect();
        let tokens: Vec<FlightToken> = keys
            .iter()
            .map(|k| match sf.join(k) {
                Joined::Leader(t) => t,
                Joined::Follower(_) => panic!("first joiner of a distinct key must lead"),
            })
            .collect();
        assert_eq!(sf.in_flight(), 16);
        for (token, _key) in tokens.into_iter().zip(&keys) {
            token.complete(FlightOutcome { status: 200, body: "r".into() });
        }
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn single_flight_releases_followers_when_the_leader_is_dropped() {
        let sf: SingleFlight = SingleFlight::new();
        let key = CacheKey::new("src", None, "cfg");
        let Joined::Leader(token) = sf.join(&key) else { panic!("first joiner leads") };
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| match sf.join(&key) {
                Joined::Follower(outcome) => outcome.status,
                Joined::Leader(_) => panic!("flight is already in the air"),
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(token); // leader dies without completing
            assert_eq!(follower.join().unwrap(), 500);
        });
        assert_eq!(sf.in_flight(), 0);
        // Shaped bodies are released with the same error, in their shape.
        let sf: SingleFlight<Body> = SingleFlight::new();
        let Joined::Leader(token) = sf.join(&key) else { panic!("first joiner leads") };
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| match sf.join(&key) {
                Joined::Follower(outcome) => outcome.body.render(true),
                Joined::Leader(_) => panic!("flight is already in the air"),
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(token);
            assert_eq!(
                follower.join().unwrap(),
                r#"{"ok": false, "cached": true, "error": "analysis abandoned by its worker"}"#
            );
        });
    }

    #[test]
    fn single_flight_retires_flights_for_reuse() {
        let sf: SingleFlight = SingleFlight::new();
        let key = CacheKey::new("src", None, "cfg");
        let Joined::Leader(first) = sf.join(&key) else { panic!("leads") };
        first.complete(FlightOutcome { status: 200, body: "a".into() });
        // After completion the next identical submission is a fresh flight
        // (the verdict cache, not the flight registry, serves repeats).
        assert!(matches!(sf.join(&key), Joined::Leader(_)));
    }

    #[test]
    fn persists_across_reload() {
        let path = std::env::temp_dir().join("blazer_serve_cache_test.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let cache = VerdictCache::persistent(path.clone());
            cache.insert(&CacheKey::new("s1", Some("f"), "c"), "{\"v\": \"safe\"}".into());
            cache.insert(&CacheKey::new("s2", Some("g"), "c"), "{\"v\": \"attack\"}".into());
        }
        // Corrupt tail (a torn append) must not poison the reload.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(b"{\"key\": \"torn"))
            .unwrap();
        let reloaded = VerdictCache::persistent(path.clone());
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.get(&CacheKey::new("s1", Some("f"), "c")).as_deref(),
            Some("{\"v\": \"safe\", \"cached\": true}")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_respects_cap_and_compacts() {
        let path = std::env::temp_dir().join("blazer_serve_cache_compact_test.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let cache = VerdictCache::persistent_with_cap(path.clone(), 10);
            for i in 0..5 {
                cache.insert(
                    &CacheKey::new(&format!("s{i}"), None, "c"),
                    format!("r{i}").as_str().into(),
                );
            }
        }
        // A duplicate record for an old key (as an eviction + reinsert
        // leaves behind), some garbage, and a torn final append: the
        // duplicate's newest body must win, the rest must be skipped.
        let dup = CacheKey::new("s0", None, "c");
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                f.write_all(record_line(&dup.canonical, "r0-updated").as_bytes())?;
                f.write_all(b"not json at all\n{\"key\": \"torn")
            })
            .unwrap();
        // Reload with a cap of 3: only the newest three unique keys
        // (s3, s4, and the re-appended s0) survive, and the file is
        // compacted down to exactly those.
        let reloaded = VerdictCache::persistent_with_cap(path.clone(), 3);
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.get(&CacheKey::new("s1", None, "c")).is_none());
        assert!(reloaded.get(&CacheKey::new("s2", None, "c")).is_none());
        assert_eq!(reloaded.get(&dup).as_deref(), Some("r0-updated"));
        for i in 3..5 {
            assert_eq!(
                reloaded.get(&CacheKey::new(&format!("s{i}"), None, "c")).as_deref(),
                Some(format!("r{i}").as_str()),
            );
        }
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert_eq!(compacted.lines().count(), 3, "compaction must rewrite the log");
        assert!(!compacted.contains("torn"));
        assert!(compacted.contains("r0-updated"));
        assert!(!compacted.contains("\"r0\""));
        // And the compacted file reloads identically.
        let again = VerdictCache::persistent_with_cap(path.clone(), 3);
        assert_eq!(again.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_compaction_bounds_the_log() {
        let path = std::env::temp_dir().join("blazer_serve_cache_periodic_test.jsonl");
        let _ = std::fs::remove_file(&path);
        // Cap 4, one shard: every fresh insert past four appends a record
        // and evicts an entry; at 2×cap appends the log self-compacts.
        let cache = VerdictCache::persistent_with(path.clone(), 4, 1);
        for i in 0..64 {
            cache.insert(
                &CacheKey::new(&format!("s{i}"), None, "c"),
                format!("r{i}").as_str().into(),
            );
        }
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(
            lines <= 2 * 4 + 4,
            "append log must be periodically compacted, found {lines} lines"
        );
        // The live entries survive: the newest four keys are the cache.
        assert_eq!(cache.len(), 4);
        drop(cache);
        let reloaded = VerdictCache::persistent_with(path.clone(), 4, 1);
        assert_eq!(reloaded.get(&CacheKey::new("s63", None, "c")).as_deref(), Some("r63"));
        let _ = std::fs::remove_file(&path);
    }
}
