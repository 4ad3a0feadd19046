//! Compares two Table-1 JSON snapshots and fails on any verdict drift.
//!
//! Usage: `snapshot_diff <committed.json> <fresh.json>`.
//!
//! The committed snapshot (`BENCH_table1.json` at the repo root) is the
//! contract: every benchmark it names must appear in the fresh run with
//! the same verdict and the same `matches_paper` flag, and the fresh run
//! must not invent or drop benchmarks. Wall times are noisy across
//! machines and are never compared. The deterministic work counters
//! (`fixpoint_passes`, seeding split) are *reported* when they move —
//! that's the perf trajectory the snapshot exists to track — but only
//! verdict changes fail the diff, so a pure perf change still needs a
//! human to re-commit the snapshot deliberately. Rows must also agree on
//! the observer cost model they were priced under (comparing verdicts
//! across models is a setup error); leakage drift under a stable verdict
//! is informational, like the counters. Leakage *polarity* is not: a
//! `safe` row in either snapshot must report exactly 0 bits and an
//! `attack` row at least 1 bit, or the diff fails.

use blazer_ir::json::Json;
use std::process::ExitCode;

/// One row distilled to the fields the diff cares about.
struct RowView {
    name: String,
    verdict: String,
    matches_paper: bool,
    fixpoint_passes: Option<u64>,
    trails_seeded: Option<u64>,
    macro_states_explored: Option<u64>,
    antichain_prunes: Option<u64>,
    /// Observer cost model the row was priced under (absent in snapshots
    /// predating pluggable models, which were always unit-priced).
    cost_model: Option<String>,
    /// Quantified leakage under the row's cost model (absent in snapshots
    /// predating per-verdict leakage).
    leakage_bits: Option<f64>,
}

impl RowView {
    /// The row's leakage when it contradicts its verdict: a proof of
    /// safety leaks nothing, and an attack distinguishes at least two
    /// cost classes. Verdicts that gave up are not gated.
    fn contradicting_leakage(&self) -> Option<f64> {
        let bits = self.leakage_bits?;
        match self.verdict.as_str() {
            "safe" if bits != 0.0 => Some(bits),
            "attack" if bits < 1.0 => Some(bits),
            _ => None,
        }
    }
}

fn load(path: &str) -> Result<Vec<RowView>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let rows = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"benchmarks\" array"))?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path}: row missing \"{k}\""))
            };
            Ok(RowView {
                name: field("name")?,
                verdict: field("verdict")?,
                matches_paper: row
                    .get("matches_paper")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("{path}: row missing \"matches_paper\""))?,
                fixpoint_passes: row.get("fixpoint_passes").and_then(Json::as_u64),
                trails_seeded: row
                    .get("seeds")
                    .and_then(|s| s.get("trails_seeded"))
                    .and_then(Json::as_u64),
                macro_states_explored: row
                    .get("antichain")
                    .and_then(|a| a.get("macro_states_explored"))
                    .and_then(Json::as_u64),
                antichain_prunes: row
                    .get("antichain")
                    .and_then(|a| a.get("antichain_prunes"))
                    .and_then(Json::as_u64),
                cost_model: row.get("cost_model").and_then(Json::as_str).map(str::to_string),
                leakage_bits: row.get("leakage_bits").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(committed_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: snapshot_diff <committed.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (committed, fresh) = match (load(&committed_path), load(&fresh_path)) {
        (Ok(c), Ok(f)) => (c, f),
        (c, f) => {
            for e in [c.err(), f.err()].into_iter().flatten() {
                eprintln!("snapshot_diff: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut perf_moves = 0usize;
    for (path, rows) in [(&committed_path, &committed), (&fresh_path, &fresh)] {
        for row in rows {
            if let Some(bits) = row.contradicting_leakage() {
                println!(
                    "LEAKAGE   {:<22} {} with {bits:.3} bits in {path}",
                    row.name, row.verdict
                );
                failures += 1;
            }
        }
    }
    for want in &committed {
        let Some(got) = fresh.iter().find(|r| r.name == want.name) else {
            println!("MISSING   {:<22} absent from {fresh_path}", want.name);
            failures += 1;
            continue;
        };
        // Rows priced under different cost models are not comparable:
        // bounds, leakage, and even verdicts are model-relative, so a
        // model mismatch is a setup error, not drift. A missing field
        // (pre-pluggable-model snapshot) means unit.
        let want_model = want.cost_model.as_deref().unwrap_or("unit");
        let got_model = got.cost_model.as_deref().unwrap_or("unit");
        if want_model != got_model {
            println!("MODEL     {:<22} priced under {want_model} -> {got_model}", want.name);
            failures += 1;
            continue;
        }
        if got.verdict != want.verdict || got.matches_paper != want.matches_paper {
            println!(
                "VERDICT   {:<22} {} (matches_paper={}) -> {} (matches_paper={})",
                want.name, want.verdict, want.matches_paper, got.verdict, got.matches_paper
            );
            failures += 1;
            continue;
        }
        // Leakage (a cost-bound summary) drifting under a *stable* verdict
        // and model is informational: bounds tighten and loosen with
        // analysis changes without the verdict moving.
        if let (Some(a), Some(b)) = (want.leakage_bits, got.leakage_bits) {
            if (a - b).abs() > 1e-9 {
                println!("leakage   {:<22} {a:.3} bits -> {b:.3} bits", want.name);
                perf_moves += 1;
            }
        }
        // Counter drift is informational: print it so the perf trajectory
        // is visible in CI logs, but let verdict-stable runs pass.
        if let (Some(a), Some(b)) = (want.fixpoint_passes, got.fixpoint_passes) {
            if a != b {
                let seeds = match (want.trails_seeded, got.trails_seeded) {
                    (Some(sa), Some(sb)) if sa != sb => {
                        format!(" (trails seeded {sa} -> {sb})")
                    }
                    _ => String::new(),
                };
                println!("passes    {:<22} {a} -> {b}{seeds}", want.name);
                perf_moves += 1;
            }
        }
        // Antichain engine drift is likewise informational: the counters
        // move with refinement-path changes.
        if let (Some(a), Some(b)) = (want.macro_states_explored, got.macro_states_explored) {
            if a != b {
                let prunes = match (want.antichain_prunes, got.antichain_prunes) {
                    (Some(pa), Some(pb)) if pa != pb => format!(" (prunes {pa} -> {pb})"),
                    _ => String::new(),
                };
                println!("antichain {:<22} {a} -> {b}{prunes}", want.name);
                perf_moves += 1;
            }
        }
    }
    for extra in fresh.iter().filter(|r| !committed.iter().any(|c| c.name == r.name)) {
        println!("EXTRA     {:<22} not in {committed_path}", extra.name);
        failures += 1;
    }

    println!(
        "{} benchmark(s) compared, {failures} verdict failure(s), {perf_moves} counter move(s)",
        committed.len()
    );
    if failures > 0 {
        println!("snapshot diff FAILED against {committed_path}");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
