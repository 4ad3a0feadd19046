//! Parallel trail evaluation must be a pure wall-clock optimization: the
//! verdict, the tree of trails, every per-node bound, the degradation list,
//! and even the budget consumption totals are required to be identical at
//! every thread width. These tests pin that by replaying analyses at
//! `threads = 1` (strictly sequential, no workers spawned) and
//! `threads = 4` and comparing full outcome signatures.

use blazer::benchmarks::{by_name, Group};
use blazer::core::{AnalysisOutcome, Blazer, Config, Verdict};

/// A canonical, order-sensitive rendering of everything observable about an
/// outcome except wall-clock times.
fn signature(out: &AnalysisOutcome) -> String {
    let mut s = String::new();
    match &out.verdict {
        Verdict::Safe => s.push_str("verdict: safe\n"),
        Verdict::Attack(spec) => {
            s.push_str(&format!(
                "verdict: attack {} vs {} [{} ||| {}]\n",
                spec.node_a, spec.node_b, spec.trail_a, spec.trail_b
            ));
        }
        Verdict::Unknown(r) => s.push_str(&format!("verdict: unknown ({r})\n")),
    }
    s.push_str(&format!("blocks: {}\n", out.n_blocks));
    s.push_str(&format!("tree: {} nodes\n", out.tree.len()));
    for i in 0..out.tree.len() {
        let n = out.tree.node(i);
        let bounds = match &n.bounds {
            Some(b) => format!(
                "[{}, {}]",
                b.lower.as_ref().map(|e| e.to_string()).unwrap_or_else(|| "-".into()),
                b.upper.as_ref().map(|e| e.to_string()).unwrap_or_else(|| "inf".into())
            ),
            None => "-".to_string(),
        };
        s.push_str(&format!(
            "  node {i}: parent={:?} kind={:?} status={} bounds={bounds} trail={}\n",
            n.parent,
            n.split_kind.map(|k| k.to_string()),
            n.status,
            n.trail
        ));
    }
    s.push_str("degradations:\n");
    for d in &out.degradations {
        s.push_str(&format!("  {d}\n"));
    }
    let r = &out.budget_report;
    s.push_str(&format!(
        "budget: lp={} fixpoint={} refine={} overflow={} exhausted={:?}\n",
        r.lp_calls, r.fixpoint_passes, r.refinement_steps, r.overflow_events, r.exhausted
    ));
    s
}

fn config_for_group(group: Group) -> Config {
    match group {
        Group::MicroBench => Config::microbench(),
        Group::Stac | Group::Literature => Config::stac(),
    }
}

fn analyze_benchmark_at_width(name: &str, threads: usize) -> AnalysisOutcome {
    let b = by_name(name).unwrap_or_else(|| panic!("no benchmark named {name}"));
    let program = b.compile();
    Blazer::new(config_for_group(b.group).with_threads(threads))
        .analyze(&program, b.function)
        .expect("benchmark analyzes")
}

#[test]
fn benchmark_outcomes_identical_at_1_and_4_threads() {
    // A handful of cheap Table-1 programs covering all three verdict kinds
    // and both observer models.
    for name in ["sanity_safe", "sanity_unsafe", "notaint_unsafe", "straightline_unsafe"] {
        let seq = signature(&analyze_benchmark_at_width(name, 1));
        let par = signature(&analyze_benchmark_at_width(name, 4));
        assert_eq!(seq, par, "{name}: outcome diverged between 1 and 4 threads");
    }
}

#[test]
fn toy_programs_identical_at_1_and_4_threads() {
    // Exercise both driver loops: a safe case needing a taint split and an
    // attack case needing secret splits (multiple leaves per round, so the
    // 4-thread run genuinely fans out).
    let cases = [
        (
            "fn bar(high: int #high, low: int) { \
                if (low > 0) { \
                    let i: int = 0; \
                    while (i < low) { i = i + 1; } \
                    while (i > 0) { i = i - 1; } \
                } else { \
                    if (high == 0) { let i: int = 5; i = i; } \
                    else { let i: int = 0; i = i + 1; } \
                } \
            }",
            "bar",
        ),
        (
            "fn f(high: int #high, low: int) { \
                if (high == 0) { tick(1); } else { \
                    let i: int = 0; \
                    while (i < low) { i = i + 1; } \
                } \
            }",
            "f",
        ),
    ];
    for (src, func) in cases {
        let p = blazer::lang::compile(src).unwrap();
        let seq = signature(
            &Blazer::new(Config::microbench().with_threads(1)).analyze(&p, func).unwrap(),
        );
        let par = signature(
            &Blazer::new(Config::microbench().with_threads(4)).analyze(&p, func).unwrap(),
        );
        assert_eq!(seq, par, "{func}: outcome diverged between 1 and 4 threads");
    }
}

#[test]
fn width_resolution_prefers_explicit_config() {
    assert_eq!(Config::microbench().with_threads(3).effective_threads(), 3);
    // `with_threads` clamps to at least one worker.
    assert_eq!(Config::microbench().with_threads(1).effective_threads(), 1);
    // Unset, the width is the machine's: the library reads no environment.
    let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    assert_eq!(Config::microbench().effective_threads(), machine);
}
