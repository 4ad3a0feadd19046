//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: judges a change against
//! its parent from run records (`--out` files, or captured stdout).
//!
//! Each end-to-end metric of each workload gets the median and quartiles
//! of both sides and one verdict, with the metric's bound and direction
//! from BENCHMARK.json:
//!
//! * `unresolved` when either side's spread (quartile distance over
//!   median) exceeds the bound, unless every change run beats every parent
//!   run;
//! * `worse` when the change's median is worse by more than the bound;
//! * `better` when the medians differ by more than the parent's own
//!   quartile distance and the change wins at least 9 of 10 pairs (runs
//!   paired in order when both sides have the same number of runs; without
//!   pairs, every change run must beat every parent run);
//! * `unchanged` otherwise.
//!
//! Exact counters must repeat within each side and agree between sides:
//! any difference is reported and fails the comparison, as does a `worse`
//! metric.

use crate::stats::quartiles;
use blazer_ir::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// The comparison rule for one metric (see the module docs).
pub fn judge(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Judgement {
    let [p1, pm, p3] = quartiles(parent);
    let [c1, cm, c3] = quartiles(change);
    let beats = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let spread = |q1: f64, q3: f64, m: f64| (q3 - q1).abs() / m.abs().max(f64::MIN_POSITIVE);
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    if spread(p1, p3, pm).max(spread(c1, c3, cm)) > bound {
        return if all_beat { Judgement::Better } else { Judgement::Unresolved };
    }
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    if worse_by > bound * pm.abs() {
        return Judgement::Worse;
    }
    let wins = if parent.len() == change.len() {
        let won = parent.iter().zip(change).filter(|&(&p, &c)| beats(c, p)).count();
        won * 10 >= parent.len() * 9
    } else {
        all_beat
    };
    if -worse_by > (p3 - p1).abs() && wins {
        Judgement::Better
    } else {
        Judgement::Unchanged
    }
}

struct Record {
    workload: String,
    trace: bool,
    metrics: BTreeMap<String, f64>,
    counters: BTreeMap<String, f64>,
}

fn numbers(doc: &Json, key: &str) -> BTreeMap<String, f64> {
    match doc.get(key) {
        Some(Json::Obj(pairs)) => {
            pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
        }
        _ => BTreeMap::new(),
    }
}

/// Every run record in `path`; other lines (result lines) are skipped.
fn load_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<Record> = text
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter_map(|doc| {
            Some(Record {
                workload: doc.get("workload")?.as_str()?.to_string(),
                trace: doc.get("trace")?.as_bool()?,
                metrics: numbers(&doc, "metrics"),
                counters: numbers(&doc, "counters"),
            })
        })
        .collect();
    if records.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(records)
}

/// `(name, bound, lower_is_better)` of every end-to-end metric.
fn load_bounds(path: &str) -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(d)) => Ok((n.to_string(), b, d == "lower")),
                _ => Err(format!("{path}: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bounds_path = Some("BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds_path = it.next().cloned(),
            _ => files.push(arg.clone()),
        }
    }
    let ([parent_path, change_path], Some(bounds_path)) = (files.as_slice(), bounds_path) else {
        eprintln!("usage: benchmark compare PARENT.jsonl CHANGE.jsonl [--bounds BENCHMARK.json]");
        return 2;
    };
    let loaded = load_bounds(&bounds_path)
        .and_then(|b| Ok((b, load_records(parent_path)?, load_records(change_path)?)));
    let (bounds, parent, change) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let mut failed = false;
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(&change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }

    println!(
        "{:<17} {:<15} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    for w in &workloads {
        let side = |records: &[Record], name: &str| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.workload == *w && !r.trace)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for (name, bound, lower) in &bounds {
            let (p, c) = (side(&parent, name), side(&change, name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let verdict = judge(&p, &c, *bound, *lower);
            failed |= verdict == Judgement::Worse;
            let fmt = |v: &[f64]| {
                let [q1, m, q3] = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
            };
            let delta = (quartiles(&c)[1] / quartiles(&p)[1] - 1.0) * 100.0;
            println!(
                "{w:<17} {name:<15} {:>36} {:>36} {delta:>+7.1}%  {verdict:?} (bound {:.0}%)",
                fmt(&p),
                fmt(&c),
                bound * 100.0
            );
        }
        for trace in [false, true] {
            let group = |records: &[Record]| -> Vec<BTreeMap<String, f64>> {
                records
                    .iter()
                    .filter(|r| r.workload == *w && r.trace == trace)
                    .map(|r| r.counters.clone())
                    .collect()
            };
            let (p, c) = (group(&parent), group(&change));
            let label = if trace { "traced" } else { "untraced" };
            for (side, runs) in [("parent", &p), ("change", &c)] {
                if runs.windows(2).any(|pair| pair[0] != pair[1]) {
                    println!("{w:<17} {label} counters differ between {side} runs");
                    failed = true;
                }
            }
            if let (Some(pc), Some(cc)) = (p.first(), c.first()) {
                for (name, pv) in pc {
                    match cc.get(name) {
                        Some(cv) if cv == pv => {}
                        cv => {
                            println!("{w:<17} {label} counter {name}: parent {pv}, change {cv:?}");
                            failed = true;
                        }
                    }
                }
            }
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shift_beyond_the_bound_is_worse() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let change = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(judge(&parent, &change, 0.1, true), Judgement::Worse);
        // The same numbers for a higher-is-better metric are a gain.
        assert_eq!(judge(&parent, &change, 0.1, false), Judgement::Better);
    }

    #[test]
    fn a_shift_within_the_bound_is_unchanged_unless_it_wins_nine_of_ten() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 10.0, 9.95, 10.1, 10.0, 9.9];
        // Slower, but inside the 10% bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(&parent, &slower, 0.1, true), Judgement::Unchanged);
        // Faster in every pair, by more than the parent's quartile distance.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.95).collect();
        assert_eq!(judge(&parent, &faster, 0.1, true), Judgement::Better);
        // Faster in 8 of 10 pairs only: not a claimable gain.
        let mut mixed = faster.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(judge(&parent, &mixed, 0.5, true), Judgement::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [8.0, 10.0, 12.0, 9.0, 11.0];
        let change = [8.5, 10.5, 12.5, 9.5, 11.5];
        assert_eq!(judge(&parent, &change, 0.1, true), Judgement::Unresolved);
        // ... unless every change run beats every parent run.
        let far = [1.0, 1.2, 1.4, 1.1, 1.3];
        assert_eq!(judge(&parent, &far, 0.1, true), Judgement::Better);
    }
}
