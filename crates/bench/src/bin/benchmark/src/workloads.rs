//! The four workloads: what each runs, what it times, and how it checks
//! every verdict. README.md records why each workload was chosen.
//!
//! A workload is a fixed list of inputs (a row under an observer, or a
//! request to the service) run in *rounds*: every round runs each input
//! once, in an order drawn from the seed, and rounds repeat until the next
//! one would overrun the run's time budget. Every operation's time to
//! verdict is kept (`report` reduces them); work counters are summed per
//! round, so they must repeat exactly from round to round and run to run.

use crate::stats::percentile;
use crate::trace::Tracer;
use blazer_absint::transfer::entry_state;
use blazer_absint::{DimMap, EdgeAlphabet, ProductGraph};
use blazer_automata::Dfa;
use blazer_benchmarks::{Benchmark, Expected, Group};
use blazer_core::attack::concretize;
use blazer_core::mgt::most_general_trail;
use blazer_core::{AnalysisOutcome, Blazer, Budget, Config, Verdict};
use blazer_domains::Polyhedron;
use blazer_ir::cost::CostModel;
use blazer_ir::json::Json;
use blazer_ir::{budget, Cfg, Program};
use blazer_serve::api::AnalyzeRequest;
use blazer_serve::client::Session;
use blazer_serve::{ServeOptions, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Deadline of every analysis, in process and in the service.
const ANALYSIS_TIMEOUT: Duration = Duration::from_secs(120);
/// Random input pairs tried when confirming an attack with a witness.
const WITNESS_ATTEMPTS: u32 = 500;
const WITNESS_SEED: u64 = 0xB1A2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Whether the next set-up is due. Set-ups are spread over the run rather
/// than run back to back, so one slow moment of a shared machine does not
/// decide `setup_s`: the first runs before any round (its result is the
/// one measured), the others between rounds as the run passes each further
/// fifth of its time budget, and any still missing when the rounds end run
/// then.
fn setup_due(done: usize, started: Instant, seconds: f64) -> bool {
    done < SETUP_REPS
        && started.elapsed().as_secs_f64() >= seconds * done as f64 / SETUP_REPS as f64
}

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SafetyProofs,
    AttackSynthesis,
    ObserverSweep,
    ServeMixed,
}

/// Every workload, in the order a full run executes them.
pub const ALL: [Workload; 4] = [
    Workload::SafetyProofs,
    Workload::AttackSynthesis,
    Workload::ObserverSweep,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SafetyProofs => "safety-proofs",
            Workload::AttackSynthesis => "attack-synthesis",
            Workload::ObserverSweep => "observer-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The Table-1 rows a workload analyses or requests, and the observer
    /// presets each row is analysed under (in this order, back to back).
    /// Every analysis takes at most a few seconds at width 1, so a run
    /// holds several rounds (README.md says why that matters).
    fn rows(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            Workload::SafetyProofs => (
                &[
                    "array_safe",
                    "loopBranch_safe",
                    "nosecret_safe",
                    "sanity_safe",
                    "straightline_safe",
                    "unixlogin_safe",
                    "gpt14_safe",
                ],
                &["unit"],
            ),
            Workload::AttackSynthesis => (
                &[
                    "loopBranch_unsafe",
                    "notaint_unsafe",
                    "sanity_unsafe",
                    "straightline_unsafe",
                    "unixlogin_unsafe",
                    "k96_unsafe",
                ],
                &["unit"],
            ),
            Workload::ObserverSweep => (
                &["sanity_unsafe", "straightline_unsafe", "unixlogin_safe", "gpt14_safe"],
                &["unit", "weighted", "cache"],
            ),
            Workload::ServeMixed => (&SERVE_ROWS, &["unit"]),
        }
    }
}

/// Verdicts the `cache` observer changes, pinned from measurement: its L1D
/// model prices secret-dependent memory traffic that the two
/// instruction-count observers price identically. Every other row keeps
/// its Table-1 verdict under every observer.
const CACHE_VERDICTS: &[(&str, Expected)] = &[("gpt14_safe", Expected::Attack)];

fn cost_model(preset: &str) -> CostModel {
    preset.parse().expect("observer presets are fixed names")
}

fn expected_verdict(bench: &Benchmark, model: &str) -> &'static str {
    let expected = CACHE_VERDICTS
        .iter()
        .find(|(name, _)| model == "cache" && *name == bench.name)
        .map_or(bench.expected, |&(_, e)| e);
    match expected {
        Expected::Safe => "safe",
        Expected::Attack => "attack",
        Expected::Unknown => "unknown",
    }
}

/// Run settings taken from the command line.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
}

/// Per-layer values of one round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn bump(layers: &mut Layers, name: &'static str, by: f64) {
    *layers.entry(name).or_default() += by;
}

/// Derives each ratio from its base once a round's counts are summed.
fn finish_round(layers: &mut Layers) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let get = |layers: &Layers, name: &str| layers.get(name).copied().unwrap_or(0.0);
    let seeded = get(layers, "absint.trails_seeded");
    let evaluated = get(layers, "absint.trails_evaluated");
    layers.remove("absint.trails_seeded");
    layers.insert("absint.seeded_trail_ratio", ratio(seeded, evaluated));
    let prunes = get(layers, "automata.prunes");
    let generated = prunes + get(layers, "automata.macro_states");
    layers.insert("automata.prune_ratio", ratio(prunes, generated));
    if layers.contains_key("serve.requests") {
        let hits = get(layers, "serve.cache_hits");
        let lookups = hits + get(layers, "serve.cache_misses");
        layers.insert("serve.hit_ratio", ratio(hits, lookups));
    }
}

/// Everything one run of a workload measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The inputs `ops` refers to by index: a row under an observer, or a
    /// row requested as a cache hit or as a miss.
    pub inputs: Vec<String>,
    /// Every operation: its input and its time to verdict in seconds.
    pub ops: Vec<(usize, f64)>,
    /// Per-layer values of every round.
    pub rounds: Vec<Layers>,
}

/// Runs one workload for about `settings.seconds` of measured rounds.
pub fn run(w: Workload, settings: &Settings, tracer: &mut Tracer) -> Result<Run, String> {
    let (rows, models) = w.rows();
    match w {
        Workload::ServeMixed => run_serve(rows, settings, tracer),
        _ => run_decide(rows, models, settings, tracer),
    }
}

/// Whether another round fits: the first always runs, later ones only if
/// the previous round's length still fits in the budget.
fn another_round(started: Instant, last_round: f64, rounds: usize, seconds: f64) -> bool {
    rounds == 0 || started.elapsed().as_secs_f64() + last_round <= seconds
}

/// splitmix64: inputs and orders derive from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly drawn order of `0..n` (Fisher-Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

fn bench(name: &str) -> Result<Benchmark, String> {
    blazer_benchmarks::by_name(name).ok_or_else(|| format!("no Table-1 row named {name}"))
}

fn compile(b: &Benchmark) -> Result<Program, String> {
    blazer_lang::compile(b.source).map_err(|e| format!("{} does not compile: {e}", b.name))
}

// ---------------------------------------------------------------------------
// In-process analyses: safety-proofs, attack-synthesis, observer-sweep.

/// One analysis of one row under one observer.
struct Item {
    bench: Benchmark,
    program: Program,
    model: &'static str,
    expected: &'static str,
}

impl Item {
    fn config(&self) -> Config {
        let base = match self.bench.group {
            Group::MicroBench => Config::microbench(),
            Group::Stac | Group::Literature => Config::stac(),
        };
        base.with_threads(1).with_cost_model(cost_model(self.model)).with_timeout(ANALYSIS_TIMEOUT)
    }

    fn label(&self) -> String {
        format!("{}/{}", self.bench.name, self.model)
    }
}

/// Set-up of an in-process workload: compile every row, then analyse one
/// warm-up program so lazy initialisation is not charged to the first
/// measured analysis. Returns one group of items per row.
fn set_up_decide(rows: &[&str], models: &[&'static str]) -> Result<Vec<Vec<Item>>, String> {
    let mut groups = Vec::with_capacity(rows.len());
    for row in rows {
        let bench = bench(row)?;
        let program = compile(&bench)?;
        let items = models
            .iter()
            .map(|&model| Item {
                bench,
                program: program.clone(),
                model,
                expected: expected_verdict(&bench, model),
            })
            .collect();
        groups.push(items);
    }
    let warm_up = blazer_lang::compile(blazer_benchmarks::extra::EXAMPLE1_FOO)
        .map_err(|e| format!("warm-up program does not compile: {e}"))?;
    let outcome = Blazer::new(Config::microbench().with_threads(1))
        .analyze(&warm_up, "foo")
        .map_err(|e| format!("warm-up analysis: {e}"))?;
    if !outcome.verdict.is_safe() {
        return Err(format!("warm-up analysis answered {}", outcome.verdict.code()));
    }
    Ok(groups)
}

/// safety-proofs, attack-synthesis and observer-sweep: each row under each
/// observer, analysed in this thread.
pub(crate) fn run_decide(
    rows: &[&str],
    models: &[&'static str],
    settings: &Settings,
    tracer: &mut Tracer,
) -> Result<Run, String> {
    let (groups, first_setup) = timed(|| set_up_decide(rows, models))?;
    let mut run = Run {
        setup_s: vec![first_setup],
        failures: Vec::new(),
        inputs: groups.iter().flatten().map(Item::label).collect(),
        ops: Vec::new(),
        rounds: Vec::new(),
    };
    let mut rng = Rng::new(settings.seed);
    let workload_span = tracer.start(0, None, "workload");
    let started = Instant::now();
    let mut last_round = 0.0;
    let mut trace_id = 0;
    while another_round(started, last_round, run.rounds.len(), settings.seconds) {
        if setup_due(run.setup_s.len(), started, settings.seconds) {
            run.setup_s.push(timed(|| set_up_decide(rows, models))?.1);
        }
        let round_started = Instant::now();
        let mut layers = Layers::new();
        for g in rng.permutation(groups.len()) {
            for (m, item) in groups[g].iter().enumerate() {
                trace_id += 1;
                let parent = Some(workload_span.id());
                let secs = analyse(item, &mut layers, &mut run.failures, tracer, trace_id, parent);
                run.ops.push((g * groups[g].len() + m, secs));
                if tracer.enabled() {
                    probe_root_trail(item, &mut layers, tracer, trace_id, parent);
                }
            }
        }
        finish_round(&mut layers);
        run.rounds.push(layers);
        last_round = round_started.elapsed().as_secs_f64();
    }
    tracer.end(workload_span, Vec::new);
    while run.setup_s.len() < SETUP_REPS {
        run.setup_s.push(timed(|| set_up_decide(rows, models))?.1);
    }
    Ok(run)
}

/// One timed analysis, then its oracle. Returns the analysis' wall time;
/// a wrong, crashed or unconfirmed verdict is recorded in `failures`.
fn analyse(
    item: &Item,
    layers: &mut Layers,
    failures: &mut Vec<String>,
    tracer: &mut Tracer,
    trace_id: u64,
    parent: Option<u64>,
) -> f64 {
    let blazer = Blazer::new(item.config());
    let verdict_span = tracer.start(trace_id, parent, "verdict");
    let span = tracer.start(trace_id, Some(verdict_span.id()), "core.analyze");
    let t = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        blazer.analyze(&item.program, item.bench.function)
    }));
    let secs = t.elapsed().as_secs_f64();
    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        failed => {
            let why = match failed {
                Ok(Err(e)) => e.to_string(),
                _ => "analysis panicked".to_string(),
            };
            failures.push(format!("{}: {why}", item.label()));
            tracer.end(span, Vec::new);
            tracer.end(verdict_span, Vec::new);
            return secs;
        }
    };
    count_outcome(&outcome, layers);
    bump(layers, "core.analyze_s", secs);
    tracer.end(span, || {
        vec![
            ("row", Json::from(item.bench.name)),
            ("observer", Json::from(item.model)),
            ("verdict", Json::from(outcome.verdict.code())),
            ("safety_s", Json::Num(outcome.safety_time.as_secs_f64())),
            ("attack_s", outcome.attack_time.map_or(Json::Null, |d| Json::Num(d.as_secs_f64()))),
            ("lp_calls", Json::from(outcome.budget_report.lp_calls)),
            ("fixpoint_passes", Json::from(outcome.budget_report.fixpoint_passes)),
            ("trails", Json::from(outcome.tree.len())),
        ]
    });
    if let Err(why) = confirm(item, &outcome, layers, tracer, trace_id, verdict_span.id()) {
        failures.push(format!("{}: {why}", item.label()));
    }
    tracer.end(verdict_span, Vec::new);
    secs
}

/// Adds one outcome's work counters to the round.
fn count_outcome(o: &AnalysisOutcome, layers: &mut Layers) {
    let b = &o.budget_report;
    let s = &o.seed_stats;
    let a = &o.antichain_stats;
    for (name, value) in [
        ("core.analyses", 1),
        ("core.trails", o.tree.len() as u64),
        ("core.refinement_steps", b.refinement_steps),
        ("core.degradations", o.degradations.len() as u64),
        ("domains.lp_calls", b.lp_calls),
        ("domains.overflow_events", b.overflow_events),
        ("absint.fixpoint_passes", b.fixpoint_passes),
        ("absint.seeded_passes", s.seeded_passes),
        ("absint.unseeded_passes", s.unseeded_passes),
        ("absint.trails_seeded", s.trails_seeded),
        ("absint.trails_evaluated", s.trails_seeded + s.trails_unseeded),
        ("automata.macro_states", a.macro_states_explored),
        ("automata.prunes", a.antichain_prunes),
    ] {
        bump(layers, name, value as f64);
    }
    bump(layers, "core.safety_s", o.safety_time.as_secs_f64());
    bump(layers, "core.attack_s", o.attack_time.map_or(0.0, |d| d.as_secs_f64()));
}

/// The verdict oracle: the verdict class must match the pinned expectation,
/// and an attack must be confirmed by a concrete witness pair measured
/// under the analysis' own observer, with equal low inputs and different
/// costs (both checked here, not taken on trust from the search).
fn confirm(
    item: &Item,
    outcome: &AnalysisOutcome,
    layers: &mut Layers,
    tracer: &mut Tracer,
    trace_id: u64,
    parent: u64,
) -> Result<(), String> {
    let got = outcome.verdict.code();
    if got != item.expected {
        return Err(format!("verdict {got}, expected {}", item.expected));
    }
    let Verdict::Attack(spec) = &outcome.verdict else { return Ok(()) };
    let span = tracer.start(trace_id, Some(parent), "interp.concretize");
    let t = Instant::now();
    let witness = concretize(
        &item.program,
        item.bench.function,
        Some(spec),
        &outcome.cost_model,
        0,
        WITNESS_ATTEMPTS,
        WITNESS_SEED,
    );
    bump(layers, "interp.witness_ms", t.elapsed().as_secs_f64() * 1e3);
    tracer.end(span, || vec![("found", Json::Bool(witness.is_some()))]);
    let w = witness.ok_or("attack not confirmed: no witness pair found")?;
    let f = item.program.function(item.bench.function).ok_or("analysed function vanished")?;
    let lows_equal = f.params().iter().enumerate().all(|(i, p)| {
        p.label.is_high() || w.inputs_a.get(i).is_some_and(|a| Some(a) == w.inputs_b.get(i))
    });
    if !lows_equal {
        return Err("witness pair differs on a low input".to_string());
    }
    if w.cost_a == w.cost_b {
        return Err(format!("witness pair costs are equal ({})", w.cost_a));
    }
    bump(layers, "interp.witnesses", 1.0);
    Ok(())
}

/// The traced run's per-layer split: the root trail's steps, repeated
/// outside the driver through each layer's public API, in the order the
/// driver runs them.
fn probe_root_trail(
    item: &Item,
    layers: &mut Layers,
    tracer: &mut Tracer,
    trace_id: u64,
    parent: Option<u64>,
) {
    let probe = tracer.start(trace_id, parent, "probe");
    let at = Some(probe.id());
    let span = tracer.start(trace_id, at, "lang");
    let t = Instant::now();
    let program = blazer_lang::compile(item.bench.source).expect("compiled at set-up");
    bump(layers, "lang.compile_us", t.elapsed().as_secs_f64() * 1e6);
    tracer.end(span, Vec::new);
    let f = program.function(item.bench.function).expect("function checked at set-up");

    let span = tracer.start(trace_id, at, "taint");
    let t = Instant::now();
    std::hint::black_box(blazer_taint::analyze_function(&program, f));
    bump(layers, "taint.analyze_us", t.elapsed().as_secs_f64() * 1e6);
    tracer.end(span, Vec::new);

    let span = tracer.start(trace_id, at, "automata");
    let t = Instant::now();
    let cfg = Cfg::new(f);
    let alphabet = EdgeAlphabet::new(&cfg);
    let root = most_general_trail(&cfg, &alphabet);
    let dfa = Dfa::from_regex(&root, alphabet.len() as u32).minimize();
    bump(layers, "automata.root_dfa_us", t.elapsed().as_secs_f64() * 1e6);
    tracer.end(span, Vec::new);

    let span = tracer.start(trace_id, at, "absint");
    let t = Instant::now();
    let graph = ProductGraph::restricted(f, &cfg, &dfa, &alphabet);
    bump(layers, "absint.root_product_us", t.elapsed().as_secs_f64() * 1e6);
    tracer.end(span, || vec![("product_nodes", Json::from(graph.len()))]);

    let span = tracer.start(trace_id, at, "bounds");
    let _ledger = Budget::unlimited().install();
    let t = Instant::now();
    let dims = DimMap::new(f);
    let init: Polyhedron = entry_state(f, &dims);
    let seeds: BTreeSet<usize> = dims.seeds().collect();
    let model = cost_model(item.model);
    std::hint::black_box(blazer_bounds::graph_bounds(
        &program, f, &dims, &graph, &init, &model, &seeds,
    ));
    let secs = t.elapsed().as_secs_f64();
    let report = budget::report();
    bump(layers, "bounds.root_eval_s", secs);
    bump(layers, "bounds.root_lp_calls", report.lp_calls as f64);
    bump(layers, "bounds.root_fixpoint_passes", report.fixpoint_passes as f64);
    tracer.end(span, || {
        vec![
            ("lp_calls", Json::from(report.lp_calls)),
            ("fixpoint_passes", Json::from(report.fixpoint_passes)),
        ]
    });
    tracer.end(probe, || vec![("row", Json::from(item.bench.name))]);
}

// ---------------------------------------------------------------------------
// The service: serve-mixed.

/// The fast MicroBench rows: preloaded into the verdict cache as the hit
/// set, and resubmitted with a unique trailing comment as the misses.
const SERVE_ROWS: [&str; 8] = [
    "nosecret_safe",
    "notaint_unsafe",
    "sanity_safe",
    "sanity_unsafe",
    "straightline_safe",
    "straightline_unsafe",
    "unixlogin_safe",
    "unixlogin_unsafe",
];
/// Closed-loop clients, each on one keep-alive session.
const CLIENTS: usize = 2;
/// One worker per client session, plus a spare.
const SERVER_WORKERS: usize = CLIENTS + 1;
/// Per client and round, every row is requested this many times as a hit
/// and once as a miss: 90% hits.
const HITS_PER_MISS: usize = 9;

struct ServeRow {
    name: &'static str,
    source: &'static str,
    body: String,
    expected: &'static str,
}

fn request_body(source: &str) -> String {
    let mut req = AnalyzeRequest::new(source);
    req.timeout_s = Some(ANALYSIS_TIMEOUT.as_secs_f64());
    req.to_json().to_string()
}

/// Set-up of serve-mixed: start a server and preload the hit set.
fn start_server(rows: &[ServeRow]) -> Result<Server, String> {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(SERVER_WORKERS),
        analysis_threads: 1,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut session =
        Session::connect(&server.addr().to_string()).map_err(|e| format!("preload: {e}"))?;
    for row in rows {
        let (status, body) = session
            .request("POST", "/analyze", Some(&row.body))
            .map_err(|e| format!("preload {}: {e}", row.name))?;
        let verdict =
            Json::parse(&body).ok().and_then(|d| d.get("verdict")?.as_str().map(str::to_string));
        if status != 200 || verdict.as_deref() != Some(row.expected) {
            return Err(format!("preload {} answered {status} {verdict:?}", row.name));
        }
    }
    Ok(server)
}

/// What one client saw of one request.
struct Reply {
    round: usize,
    row: usize,
    latency: f64,
    miss: bool,
    bytes: usize,
    parse_us: Option<f64>,
    /// The server's own time for a miss' analysis (`wall_s`), and the work
    /// counters its response reports.
    analysis_ms: Option<f64>,
    work: Layers,
    failure: Option<String>,
}

/// The server's own counters, read between rounds.
#[derive(Clone, Copy)]
struct ServerCounts([u64; 5]);

impl ServerCounts {
    const NAMES: [&'static str; 5] = [
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.analyses_run",
        "serve.coalesced",
        "serve.busy_rejections",
    ];

    fn read(server: &Server) -> ServerCounts {
        let s = server.stats();
        ServerCounts([
            server.cache().hits(),
            server.cache().misses(),
            s.analyses_run.load(Ordering::SeqCst),
            s.coalesced.load(Ordering::SeqCst),
            s.busy_rejections.load(Ordering::SeqCst),
        ])
    }
}

/// How the coordinator starts and ends the clients' rounds: every client
/// waits at `start`, runs its round if `go` is set, then waits at `done`.
struct RoundSync {
    go: AtomicBool,
    start: Barrier,
    done: Barrier,
}

/// One closed-loop client on one keep-alive session. Per round it requests
/// every row `HITS_PER_MISS` times as a hit and once as a miss, in an order
/// drawn from the seed and the client's number.
fn run_client(
    client: usize,
    seed: u64,
    rows: &[ServeRow],
    addr: &str,
    sync: &RoundSync,
    mut tracer: Tracer,
    parent: u64,
) -> (Vec<Reply>, Tracer) {
    let mut session = Session::connect(addr).ok();
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut replies = Vec::new();
    let mut misses = 0u64;
    for round in 0.. {
        sync.start.wait();
        if !sync.go.load(Ordering::SeqCst) {
            break;
        }
        for slot in rng.permutation(rows.len() * (HITS_PER_MISS + 1)) {
            let row = &rows[slot % rows.len()];
            let miss = slot < rows.len();
            let body = if miss {
                misses += 1;
                request_body(&format!("{}// miss {seed}-{client}-{misses}\n", row.source))
            } else {
                row.body.clone()
            };
            let trace_id = ((client as u64 + 1) << 32) | replies.len() as u64;
            let span = tracer.start(trace_id, Some(parent), "serve.request");
            let mut reply = request(&mut session, addr, row, &body, tracer.enabled());
            reply.round = round;
            reply.row = slot % rows.len();
            reply.miss = miss;
            tracer.end(span, || {
                vec![
                    ("row", Json::from(row.name)),
                    ("miss", Json::Bool(miss)),
                    ("ok", Json::Bool(reply.failure.is_none())),
                    ("analysis_ms", reply.analysis_ms.map_or(Json::Null, Json::Num)),
                ]
            });
            replies.push(reply);
        }
        sync.done.wait();
    }
    (replies, tracer)
}

/// serve-mixed: the in-process server and its closed-loop clients, the
/// server's counters read between rounds.
pub(crate) fn run_serve(
    names: &[&str],
    settings: &Settings,
    tracer: &mut Tracer,
) -> Result<Run, String> {
    let rows: Vec<ServeRow> = names
        .iter()
        .map(|name| {
            let b = bench(name)?;
            Ok(ServeRow {
                name: b.name,
                source: b.source,
                body: request_body(b.source),
                expected: expected_verdict(&b, "unit"),
            })
        })
        .collect::<Result<_, String>>()?;
    let (server, first_setup) = timed(|| start_server(&rows))?;
    let mut setup_s = vec![first_setup];
    let mut setup_error = None;
    let addr = server.addr().to_string();

    let workload_span = tracer.start(0, None, "workload");
    let sync = RoundSync {
        go: AtomicBool::new(true),
        start: Barrier::new(CLIENTS + 1),
        done: Barrier::new(CLIENTS + 1),
    };
    let mut deltas: Vec<ServerCounts> = Vec::new();
    let replies: Vec<(Vec<Reply>, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let client_tracer = tracer.fork();
                let (rows, addr, sync) = (&rows, &addr, &sync);
                let parent = workload_span.id();
                scope.spawn(move || {
                    run_client(client, settings.seed, rows, addr, sync, client_tracer, parent)
                })
            })
            .collect();
        let started = Instant::now();
        let mut last_round = 0.0;
        let mut before = ServerCounts::read(&server);
        loop {
            // A spread-out set-up starts, preloads and stops a second
            // server while the clients wait between rounds.
            if setup_due(setup_s.len(), started, settings.seconds) {
                match timed(|| start_server(&rows)) {
                    Ok((extra, secs)) => {
                        extra.stop();
                        setup_s.push(secs);
                    }
                    Err(e) => setup_error = Some(e),
                }
            }
            let more = setup_error.is_none()
                && another_round(started, last_round, deltas.len(), settings.seconds);
            sync.go.store(more, Ordering::SeqCst);
            sync.start.wait();
            if !more {
                break;
            }
            let t = Instant::now();
            sync.done.wait();
            last_round = t.elapsed().as_secs_f64();
            let after = ServerCounts::read(&server);
            deltas.push(ServerCounts(std::array::from_fn(|i| after.0[i] - before.0[i])));
            before = after;
        }
        clients.into_iter().map(|c| c.join().expect("client threads do not panic")).collect()
    });
    server.stop();
    if let Some(e) = setup_error {
        return Err(e);
    }
    while setup_s.len() < SETUP_REPS {
        let (extra, secs) = timed(|| start_server(&rows))?;
        extra.stop();
        setup_s.push(secs);
    }

    let mut run = Run {
        setup_s,
        failures: Vec::new(),
        inputs: rows
            .iter()
            .flat_map(|r| [format!("{}/hit", r.name), format!("{}/miss", r.name)])
            .collect(),
        ops: Vec::new(),
        rounds: deltas
            .iter()
            .map(|d| {
                let mut layers = Layers::new();
                for (name, value) in ServerCounts::NAMES.iter().zip(d.0) {
                    layers.insert(name, value as f64);
                }
                layers
            })
            .collect(),
    };
    let mut per_round: Vec<Vec<&Reply>> = (0..run.rounds.len()).map(|_| Vec::new()).collect();
    for reply in replies.iter().flat_map(|(r, _)| r) {
        per_round[reply.round].push(reply);
    }
    for (layers, replies) in run.rounds.iter_mut().zip(&per_round) {
        let mut miss_ms = Vec::new();
        let mut hit_bytes = Vec::new();
        let mut parse_us = Vec::new();
        for reply in replies {
            run.ops.push((reply.row * 2 + usize::from(reply.miss), reply.latency));
            if let Some(why) = &reply.failure {
                run.failures.push(why.clone());
            }
            bump(layers, "serve.requests", 1.0);
            bump(layers, "core.analyze_s", reply.latency);
            for (name, value) in &reply.work {
                bump(layers, name, *value);
            }
            miss_ms.extend(reply.analysis_ms);
            if !reply.miss {
                hit_bytes.push(reply.bytes as f64);
            }
            parse_us.extend(reply.parse_us);
        }
        if !miss_ms.is_empty() {
            layers.insert("serve.miss_analysis_ms_p50", percentile(&miss_ms, 50.0));
        }
        if !hit_bytes.is_empty() {
            layers.insert("serve.hit_body_bytes_p50", percentile(&hit_bytes, 50.0));
        }
        if !parse_us.is_empty() {
            layers.insert("ir.json_parse_us_p50", percentile(&parse_us, 50.0));
        }
        finish_round(layers);
    }
    for (_, client_tracer) in replies {
        tracer.absorb(client_tracer);
    }
    tracer.end(workload_span, Vec::new);
    Ok(run)
}

/// One closed-loop request: send, read, parse, check the verdict. Latency
/// covers all four, as a client of the service sees it.
fn request(
    session: &mut Option<Session>,
    addr: &str,
    row: &ServeRow,
    body: &str,
    time_parse: bool,
) -> Reply {
    let mut reply = Reply {
        round: 0,
        row: 0,
        latency: 0.0,
        miss: false,
        bytes: 0,
        parse_us: None,
        analysis_ms: None,
        work: Layers::new(),
        failure: None,
    };
    let t = Instant::now();
    if session.is_none() {
        *session = Session::connect(addr).ok();
    }
    let sent = match session.as_mut() {
        Some(s) => s.request("POST", "/analyze", Some(body)).map_err(|e| e.to_string()),
        None => Err("cannot connect".to_string()),
    };
    let parsed = sent.and_then(|(status, text)| {
        reply.bytes = text.len();
        let p = Instant::now();
        let doc = Json::parse(&text).map_err(|e| e.to_string());
        if time_parse {
            reply.parse_us = Some(p.elapsed().as_secs_f64() * 1e6);
        }
        Ok((status, doc?))
    });
    reply.latency = t.elapsed().as_secs_f64();
    match parsed {
        Err(e) => {
            *session = None;
            reply.failure = Some(format!("{}: request failed: {e}", row.name));
        }
        Ok((status, doc)) => {
            let verdict = doc.get("verdict").and_then(Json::as_str);
            if status != 200 || verdict != Some(row.expected) {
                reply.failure = Some(format!(
                    "{}: answered {status} with verdict {verdict:?}, expected {}",
                    row.name, row.expected
                ));
            } else if doc.get("cached").and_then(Json::as_bool) == Some(false) {
                count_response(&doc, &mut reply.work);
                reply.analysis_ms = doc.get("wall_s").and_then(Json::as_f64).map(|s| s * 1e3);
            }
        }
    }
    reply
}

/// Adds the work counters a fresh (uncached) response reports.
fn count_response(doc: &Json, layers: &mut Layers) {
    let num = |path: &[&str]| {
        let mut at = doc;
        for key in path {
            match at.get(key) {
                Some(next) => at = next,
                None => return 0.0,
            }
        }
        at.as_f64().unwrap_or(0.0)
    };
    for (name, path) in [
        ("domains.lp_calls", &["budget", "lp_calls"][..]),
        ("domains.overflow_events", &["budget", "overflow_events"]),
        ("absint.fixpoint_passes", &["budget", "fixpoint_passes"]),
        ("core.refinement_steps", &["budget", "refinement_steps"]),
        ("absint.seeded_passes", &["seeds", "seeded_passes"]),
        ("absint.unseeded_passes", &["seeds", "unseeded_passes"]),
        ("absint.trails_seeded", &["seeds", "trails_seeded"]),
        ("automata.macro_states", &["antichain", "macro_states_explored"]),
        ("automata.prunes", &["antichain", "antichain_prunes"]),
        ("core.safety_s", &["safety_s"]),
        ("core.attack_s", &["attack_s"]),
    ] {
        bump(layers, name, num(path));
    }
    let evaluated = num(&["seeds", "trails_seeded"]) + num(&["seeds", "trails_unseeded"]);
    bump(layers, "absint.trails_evaluated", evaluated);
    bump(layers, "core.analyses", 1.0);
    let degradations = doc.get("degradations").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    bump(layers, "core.degradations", degradations as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_depend_only_on_the_seed() {
        let a = Rng::new(7).permutation(9);
        assert_eq!(a, Rng::new(7).permutation(9));
        assert_ne!(a, Rng::new(8).permutation(9));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn every_row_exists_and_pinned_exceptions_are_exercised() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for row in w.rows().0 {
                assert!(blazer_benchmarks::by_name(row).is_some(), "{row}");
            }
        }
        let (sweep_rows, _) = Workload::ObserverSweep.rows();
        for (name, _) in CACHE_VERDICTS {
            assert!(sweep_rows.contains(name), "{name} is pinned but never analysed under cache");
        }
    }
}
