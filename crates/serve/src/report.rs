//! Shared JSON serialization of analysis outcomes.
//!
//! One [`AnalysisOutcome`] → [`Json`] conversion, used verbatim by the
//! HTTP service's `POST /analyze` responses and the CLI's `--json` mode,
//! so the two surfaces can never drift apart.

use blazer_core::{AnalysisOutcome, BudgetReport, Verdict};
use blazer_ir::json::Json;
use blazer_ir::Program;
use blazer_portfolio::{Backend, BackendCost, PortfolioReport};

/// Serializes a full outcome. `wall_s` is the caller-observed wall-clock
/// time for the whole request (compile + analysis), distinct from the
/// driver's own phase timings.
pub fn outcome_json(program: &Program, outcome: &AnalysisOutcome, wall_s: f64) -> Json {
    let attack = match &outcome.verdict {
        Verdict::Attack(spec) => Json::obj([
            ("trail_a", Json::from(spec.trail_a.to_string())),
            ("trail_b", Json::from(spec.trail_b.to_string())),
            ("bounds_a", bounds_pair(&spec.bounds_a)),
            ("bounds_b", bounds_pair(&spec.bounds_b)),
        ]),
        _ => Json::Null,
    };
    let trails = Json::Arr(
        outcome
            .tree
            .leaves()
            .into_iter()
            .map(|i| {
                let node = outcome.tree.node(i);
                Json::obj([
                    ("node", Json::from(i)),
                    ("trail", Json::from(node.trail.to_string())),
                    ("status", Json::from(node.status.to_string())),
                    (
                        "lower",
                        node.bounds
                            .as_ref()
                            .and_then(|b| b.lower.as_ref())
                            .map(|e| e.to_string())
                            .into(),
                    ),
                    (
                        "upper",
                        node.bounds
                            .as_ref()
                            .and_then(|b| b.upper.as_ref())
                            .map(|e| e.to_string())
                            .into(),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("function", Json::from(outcome.function.clone())),
        ("verdict", Json::from(outcome.verdict.code())),
        ("cost_model", outcome.cost_model.to_json()),
        ("unknown_reason", outcome.verdict.unknown_reason().map(|r| r.to_string()).into()),
        ("n_blocks", Json::from(outcome.n_blocks)),
        ("safety_s", Json::secs(outcome.safety_time.as_secs_f64())),
        ("attack_s", outcome.attack_time.map(|d| Json::secs(d.as_secs_f64())).into()),
        ("wall_s", Json::secs(wall_s)),
        ("trails", trails),
        ("attack", attack),
        ("degradations", Json::arr(outcome.degradations.iter().map(|d| d.to_string()))),
        (
            "seeds",
            Json::obj([
                ("trails_seeded", Json::from(outcome.seed_stats.trails_seeded)),
                ("trails_unseeded", Json::from(outcome.seed_stats.trails_unseeded)),
                ("seeds_rejected", Json::from(outcome.seed_stats.seeds_rejected)),
                ("seeded_passes", Json::from(outcome.seed_stats.seeded_passes)),
                ("unseeded_passes", Json::from(outcome.seed_stats.unseeded_passes)),
            ]),
        ),
        (
            "antichain",
            Json::obj([
                (
                    "macro_states_explored",
                    Json::from(outcome.antichain_stats.macro_states_explored),
                ),
                ("antichain_prunes", Json::from(outcome.antichain_stats.antichain_prunes)),
            ]),
        ),
        ("budget", budget_json(&outcome.budget_report)),
        ("tree", Json::from(outcome.render_tree(program))),
    ])
}

fn bounds_pair(bounds: &(blazer_bounds::CostExpr, Option<blazer_bounds::CostExpr>)) -> Json {
    Json::obj([
        ("lower", Json::from(bounds.0.to_string())),
        ("upper", bounds.1.as_ref().map(|e| e.to_string()).into()),
    ])
}

/// Sets `key` to `value`, replacing an existing member or appending.
fn set(pairs: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key.to_string(), value)),
    }
}

fn backend_cost_json(cost: &BackendCost) -> Json {
    Json::obj([
        ("wall_s", Json::secs(cost.wall.as_secs_f64())),
        ("lp_calls", Json::from(cost.lp_calls)),
        ("fixpoint_passes", Json::from(cost.fixpoint_passes)),
        ("completed", Json::Bool(cost.completed)),
        ("crashed", Json::Bool(cost.crashed)),
    ])
}

/// Serializes a portfolio race: the winning outcome's document (when the
/// decomposition produced one) extended with the race verdict, the
/// quantified leakage, and per-backend cost attribution.
pub fn portfolio_json(
    program: &Program,
    function: &str,
    report: &PortfolioReport,
    wall_s: f64,
) -> Json {
    let mut pairs = match &report.outcome {
        Some(outcome) => {
            let Json::Obj(pairs) = outcome_json(program, outcome, wall_s) else {
                unreachable!("outcome_json returns an object");
            };
            pairs
        }
        // The decomposition crashed but the baseline soundly verified:
        // there is no partition to render, only the race verdict.
        None => vec![
            ("function".to_string(), Json::from(function)),
            ("wall_s".to_string(), Json::secs(wall_s)),
        ],
    };
    // The race's verdict overrides the decomposition's own: a baseline win
    // turns a revoked/unfinished decomposition `unknown` into `safe`.
    set(&mut pairs, "verdict", Json::from(report.verdict.code()));
    set(
        &mut pairs,
        "unknown_reason",
        report.verdict.unknown_reason().map(|r| r.to_string()).into(),
    );
    // The decomposition's budget snapshot is superseded by the whole
    // race's final ledger totals.
    set(&mut pairs, "budget", budget_json(&report.budget_report));
    set(&mut pairs, "backend", Json::from(Backend::Portfolio.as_str()));
    set(&mut pairs, "winner", report.winner.map(|b| b.as_str().to_string()).into());
    set(&mut pairs, "leakage_bits", Json::Num(report.leakage.bits));
    set(
        &mut pairs,
        "leakage",
        Json::obj([
            ("bits", Json::Num(report.leakage.bits)),
            ("classes", Json::from(report.leakage.classes)),
            ("feasible_leaves", Json::from(report.leakage.feasible_leaves)),
            ("wide_leaves", Json::from(report.leakage.wide_leaves)),
            ("max_gap", report.leakage.max_gap.map(Json::Num).unwrap_or(Json::Null)),
        ]),
    );
    set(
        &mut pairs,
        "portfolio",
        Json::obj([
            ("winner", report.winner.map(|b| b.as_str().to_string()).into()),
            ("revoked", Json::Bool(report.revoked)),
            ("selfcomp_verified", report.selfcomp_verified.map(Json::Bool).unwrap_or(Json::Null)),
            ("decomp", backend_cost_json(&report.decomp)),
            ("selfcomp", backend_cost_json(&report.selfcomp)),
            ("race_wall_s", Json::secs(report.wall.as_secs_f64())),
        ]),
    );
    Json::Obj(pairs)
}

/// Serializes what one analysis consumed against its budget.
pub fn budget_json(report: &BudgetReport) -> Json {
    Json::obj([
        ("lp_calls", Json::from(report.lp_calls)),
        ("fixpoint_passes", Json::from(report.fixpoint_passes)),
        ("refinement_steps", Json::from(report.refinement_steps)),
        ("overflow_events", Json::from(report.overflow_events)),
        ("elapsed_s", Json::secs(report.elapsed.as_secs_f64())),
        ("exhausted", report.exhausted.map(|r| r.to_string()).into()),
        ("notes", Json::arr(report.degradations.iter().map(String::as_str))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_core::{Blazer, Config};

    #[test]
    fn outcome_json_covers_safe_and_attack() {
        let safe_src = "fn f(h: int #high) { if (h > 0) { tick(2); } else { tick(2); } }";
        let attack_src = "fn f(h: int #high) { if (h > 0) { tick(900); } else { tick(1); } }";
        for (src, verdict, has_attack) in [(safe_src, "safe", false), (attack_src, "attack", true)]
        {
            let program = blazer_lang::compile(src).unwrap();
            let outcome = Blazer::new(Config::microbench()).analyze(&program, "f").unwrap();
            let doc = outcome_json(&program, &outcome, 0.5);
            assert_eq!(doc.get("verdict").and_then(Json::as_str), Some(verdict));
            assert_eq!(doc.get("attack").map(Json::is_null), Some(!has_attack));
            assert_eq!(doc.get("wall_s").and_then(Json::as_f64), Some(0.5));
            assert!(doc.get("trails").and_then(Json::as_arr).is_some_and(|t| !t.is_empty()));
            // The seeding counters round-trip; the initial trail is never
            // seeded (it has no parent), so at least one from-⊥ run shows.
            assert!(doc
                .get("seeds")
                .and_then(|s| s.get("trails_unseeded"))
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            // The antichain counters are present (only shape is asserted).
            for key in ["macro_states_explored", "antichain_prunes"] {
                assert!(doc
                    .get("antichain")
                    .and_then(|a| a.get(key))
                    .and_then(Json::as_u64)
                    .is_some());
            }
            // The document is valid JSON end to end.
            let text = doc.to_string();
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }
}
