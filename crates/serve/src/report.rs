//! Shared JSON serialization of analysis outcomes.
//!
//! One [`AnalysisOutcome`] → [`Json`] conversion, used verbatim by the
//! HTTP service's `POST /analyze` responses and the CLI's `--json` mode,
//! so the two surfaces can never drift apart.

use blazer_core::{AnalysisOutcome, BudgetReport, Verdict};
use blazer_ir::json::Json;
use blazer_ir::Program;

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
        ("leakage_bits", Json::Num(outcome.leakage.bits)),
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
            let bits = doc.get("leakage_bits").and_then(Json::as_f64).unwrap();
            assert!(if has_attack { bits >= 1.0 } else { bits == 0.0 }, "{verdict}: {bits}");
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
