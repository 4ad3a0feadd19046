//! Regenerates Table 1: per-benchmark size, verdict, median safety time,
//! and median safety+attack time.
//!
//! Benchmarks run concurrently on the ordered fan-out the driver and the
//! analysis service use (`blazer_ir::fanout::scoped_map`); each analysis
//! installs its own budget, so runs are isolated and verdicts are identical
//! to a sequential run. Rows print in table order regardless of completion
//! order. The fan-out width comes from `BLAZER_BENCH_JOBS` (default:
//! machine parallelism); set `BLAZER_BENCH_JOBS=1` when the per-row wall
//! times themselves are the measurement, since concurrent rows contend for
//! cores.
//!
//! Each benchmark runs under `catch_unwind` isolation: a crash (a bug, or a
//! `BLAZER_FAULT` panic injection) prints a diagnostic row and the table
//! keeps going. Set `BLAZER_ONLY=name1,name2` to restrict the run to
//! benchmarks whose names contain one of the given substrings.
//!
//! Besides the human-readable table, the run is written as machine-readable
//! JSON (default `BENCH_table1.json`, override with `BLAZER_BENCH_JSON`)
//! recording per-benchmark verdicts and wall times plus the evaluation
//! thread count, so the perf trajectory is trackable across commits:
//! compare `BLAZER_THREADS=1` against `BLAZER_THREADS=4` runs. Those two
//! variables, `BLAZER_THREADS` (evaluation width) and `BLAZER_FAULT`
//! (fault injection), are read by [`config_for`] into each row's `Config`;
//! the analysis library itself reads no environment.

use blazer_bench::{config_for, try_run_benchmark, Row};
use blazer_core::{AntichainStats, SeedStats, Verdict};
use blazer_ir::fanout;
use blazer_ir::json::Json;
use blazer_serve::pool;
use std::time::Instant;

/// One emitted row, kept for the JSON report (including crash rows, which
/// carry no timings).
struct JsonRow {
    name: String,
    group: String,
    size: Option<usize>,
    verdict: &'static str,
    matches_paper: bool,
    safety_s: Option<f64>,
    with_attack_s: Option<f64>,
    /// Deterministic work counters (`None` for crash rows): total fixpoint
    /// passes plus the per-trail seeding split and the antichain engine's
    /// counters. Wall times are noisy across machines; these are the
    /// numbers the snapshot diff can trust.
    counters: Option<(u64, SeedStats, AntichainStats)>,
    /// Quantified leakage in bits (`None` for crash rows).
    leakage_bits: Option<f64>,
    /// Observer cost model the row was priced under (table-wide; set with
    /// `BLAZER_COST_MODEL`, default `unit`).
    cost_model: String,
}

impl JsonRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("group", Json::from(self.group.as_str())),
            ("size", Json::from(self.size)),
            ("verdict", Json::from(self.verdict)),
            ("matches_paper", Json::from(self.matches_paper)),
            ("safety_s", self.safety_s.map_or(Json::Null, Json::secs)),
            ("with_attack_s", self.with_attack_s.map_or(Json::Null, Json::secs)),
            ("fixpoint_passes", self.counters.map_or(Json::Null, |(p, _, _)| Json::from(p))),
            (
                "seeds",
                self.counters.map_or(Json::Null, |(_, s, _)| {
                    Json::obj([
                        ("trails_seeded", Json::from(s.trails_seeded)),
                        ("trails_unseeded", Json::from(s.trails_unseeded)),
                        ("seeded_passes", Json::from(s.seeded_passes)),
                        ("unseeded_passes", Json::from(s.unseeded_passes)),
                    ])
                }),
            ),
            (
                "antichain",
                self.counters.map_or(Json::Null, |(_, _, a)| {
                    Json::obj([
                        ("macro_states_explored", Json::from(a.macro_states_explored)),
                        ("antichain_prunes", Json::from(a.antichain_prunes)),
                    ])
                }),
            ),
            ("leakage_bits", self.leakage_bits.map(Json::Num).unwrap_or(Json::Null)),
            ("cost_model", Json::from(self.cost_model.as_str())),
        ])
    }
}

fn write_json(
    path: &str,
    threads: usize,
    jobs: usize,
    runs: usize,
    total_wall_s: f64,
    rows: &[JsonRow],
) {
    let doc = Json::obj([
        ("threads", Json::from(threads)),
        ("jobs", Json::from(jobs)),
        ("runs", Json::from(runs)),
        ("total_wall_s", Json::secs(total_wall_s)),
        ("benchmarks", Json::arr(rows.iter().map(JsonRow::to_json))),
    ]);
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let runs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let only: Option<Vec<String>> = std::env::var("BLAZER_ONLY")
        .ok()
        .map(|s| s.split(',').map(|p| p.trim().to_string()).collect());
    // All groups share the same width policy; report what the analyses use.
    let threads = config_for(blazer_benchmarks::Group::MicroBench).effective_threads();
    // The model is table-wide (config_for applies the same BLAZER_COST_MODEL
    // override to every group), but recorded per row so snapshot diffs can
    // refuse to compare rows priced under different observers.
    let cost_model = config_for(blazer_benchmarks::Group::MicroBench).cost_model.to_string();
    if cost_model != "unit" {
        println!("cost model: {cost_model} (BLAZER_COST_MODEL)");
    }
    let selected: Vec<_> = blazer_benchmarks::all()
        .into_iter()
        .filter(|b| {
            only.as_ref().is_none_or(|only| only.iter().any(|p| b.name.contains(p.as_str())))
        })
        .collect();
    let jobs =
        fanout::clamped_width(pool::effective_width(None, "BLAZER_BENCH_JOBS"), selected.len());
    println!(
        "{:<22} {:>5} {:>12} {:>12}   {:<8} matches paper?  \
         ({jobs} job(s) x {threads} thread(s))",
        "Benchmark", "Size", "Safety (s)", "w/Attack(s)", "Verdict"
    );
    let started = Instant::now();
    let results: Vec<Result<Row, String>> =
        fanout::scoped_map(&selected, jobs, |_, b| try_run_benchmark(b, runs));
    let mut all_match = true;
    let mut crashes = 0usize;
    let mut group = None;
    let mut json_rows: Vec<JsonRow> = Vec::new();
    for (b, result) in selected.iter().zip(results) {
        if group != Some(b.group) {
            println!("--- {} ---", b.group);
            group = Some(b.group);
        }
        let row: Row = match result {
            Ok(row) => row,
            Err(panic_msg) => {
                crashes += 1;
                all_match = false;
                println!(
                    "{:<22} {:>5} {:>12} {:>12}   {:<8} CRASHED: {panic_msg}",
                    b.name, "-", "-", "-", "crash"
                );
                json_rows.push(JsonRow {
                    name: b.name.to_string(),
                    group: b.group.to_string(),
                    size: None,
                    verdict: "crash",
                    matches_paper: false,
                    safety_s: None,
                    with_attack_s: None,
                    counters: None,
                    leakage_bits: None,
                    cost_model: cost_model.clone(),
                });
                continue;
            }
        };
        let verdict = match row.verdict {
            Verdict::Safe => "safe",
            Verdict::Attack(_) => "attack",
            Verdict::Unknown(_) => "gave up",
        };
        let attack_time = row
            .with_attack_time
            .map(|d| format!("{:.2}", d.as_secs_f64()))
            .unwrap_or_else(|| "-".to_string());
        let ok = row.matches_paper();
        all_match &= ok;
        println!(
            "{:<22} {:>5} {:>12.2} {:>12}   {:<8} {}  [{:.2} bits]",
            row.name,
            row.size,
            row.safety_time.as_secs_f64(),
            attack_time,
            verdict,
            if ok { "yes" } else { "NO" },
            row.leakage_bits
        );
        json_rows.push(JsonRow {
            name: row.name.to_string(),
            group: row.group.to_string(),
            size: Some(row.size),
            verdict,
            matches_paper: ok,
            safety_s: Some(row.safety_time.as_secs_f64()),
            with_attack_s: row.with_attack_time.map(|d| d.as_secs_f64()),
            counters: Some((row.fixpoint_passes, row.seed_stats, row.antichain_stats)),
            leakage_bits: Some(row.leakage_bits),
            cost_model: cost_model.clone(),
        });
    }
    let total_wall_s = started.elapsed().as_secs_f64();
    println!();
    println!("total wall time: {total_wall_s:.2}s with {jobs} job(s) x {threads} thread(s)");
    let json_path =
        std::env::var("BLAZER_BENCH_JSON").unwrap_or_else(|_| "BENCH_table1.json".to_string());
    write_json(&json_path, threads, jobs, runs, total_wall_s, &json_rows);
    if crashes > 0 {
        println!("{crashes} benchmark(s) crashed (isolated; see rows above)");
    }
    if all_match && only.is_none() {
        println!("all 24 verdicts match Table 1");
    } else if all_match {
        println!("all {} selected verdicts match Table 1", selected.len());
    } else {
        println!("MISMATCHES against Table 1 detected");
        std::process::exit(1);
    }
}
