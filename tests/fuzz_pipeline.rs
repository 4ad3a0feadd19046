//! Pipeline fuzzing: generate random (terminating, well-typed) programs,
//! run BOUNDANALYSIS, and check the concrete interpreter's measured cost
//! always lies within the symbolic bounds. This exercises the whole stack —
//! parser, lowering, taint, abstract interpretation, loop summarization,
//! cost algebra — against ground truth.

use blazer::absint::transfer::entry_state;
use blazer::absint::{DimMap, ProductGraph};
use blazer::bounds::graph_bounds;
use blazer::domains::{Polyhedron, Rat};
use blazer::interp::{Interp, SeededOracle, Value};
use blazer::ir::cost::CostModel;
use blazer::ir::Cfg;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `tiny_budget_always_yields_a_verdict` times every case against its
/// deadline, so it runs each case alone (the write side); the untimed
/// properties hold the read side, so they never compete with a timed case
/// for this binary's cores.
static TIMING: RwLock<()> = RwLock::new(());

fn untimed() -> RwLockReadGuard<'static, ()> {
    TIMING.read().unwrap_or_else(|e| e.into_inner())
}

fn timed() -> RwLockWriteGuard<'static, ()> {
    TIMING.write().unwrap_or_else(|e| e.into_inner())
}

/// A deterministic mini-RNG for program synthesis.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random statement list over the variable pool. Loops are always
/// of the shape `while (fresh < bound) { ...; fresh = fresh + k; }` with
/// `k ≥ 1` and a body that never reassigns the counter, so termination is
/// guaranteed by construction.
fn gen_stmts(g: &mut Gen, depth: u32, fresh: &mut u32, vars: &[String], out: &mut String) {
    let n = 1 + g.pick(3);
    for _ in 0..n {
        match g.pick(if depth == 0 { 2 } else { 4 }) {
            // Linear assignment to a mutable local (never to the loop
            // bound `l` or the secret `h`, so loop termination and input
            // seeds stay intact).
            0 | 1 => {
                let dst = ["x", "y"][g.pick(2) as usize];
                let a = &vars[g.pick(vars.len() as u64) as usize];
                let op = ["+", "-"][g.pick(2) as usize];
                let k = g.pick(5);
                out.push_str(&format!("{dst} = {a} {op} {k};\n"));
            }
            // Conditional.
            2 => {
                let a = &vars[g.pick(vars.len() as u64) as usize];
                let cmp = ["<", "<=", ">", ">=", "=="][g.pick(5) as usize];
                let k = g.pick(7) as i64 - 3;
                out.push_str(&format!("if ({a} {cmp} {k}) {{\n"));
                gen_stmts(g, depth - 1, fresh, vars, out);
                out.push_str("} else {\n");
                gen_stmts(g, depth - 1, fresh, vars, out);
                out.push_str("}\n");
            }
            // Bounded counting loop.
            _ => {
                let c = format!("c{}", *fresh);
                *fresh += 1;
                let bound = ["l", "7"][g.pick(2) as usize];
                let k = 1 + g.pick(2);
                out.push_str(&format!("let {c}: int = 0;\nwhile ({c} < {bound}) {{\n"));
                gen_stmts(g, depth - 1, fresh, vars, out);
                out.push_str(&format!("{c} = {c} + {k};\n}}\n"));
            }
        }
    }
}

fn gen_program(seed: u64) -> String {
    let mut g = Gen(seed);
    let vars: Vec<String> = vec!["x".into(), "y".into(), "h".into(), "l".into()];
    let mut body = String::new();
    let mut fresh = 0;
    gen_stmts(&mut g, 2, &mut fresh, &vars, &mut body);
    format!("fn f(h: int #high, l: int) {{\nlet x: int = 0;\nlet y: int = 1;\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The measured cost of every run lies within the computed bounds.
    #[test]
    fn bounds_contain_measured_costs(seed in 0u64..5000, h in -6i64..12, l in -3i64..10) {
        let _untimed = untimed();
        let src = gen_program(seed);
        let program = blazer::lang::compile(&src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let f = program.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dims = DimMap::new(f);
        let graph = ProductGraph::full(f, &cfg);
        let init: Polyhedron = entry_state(f, &dims);
        let seeds: BTreeSet<usize> = dims.seeds().collect();
        let b = graph_bounds(&program, f, &dims, &graph, &init, &CostModel::unit(), &seeds);
        let lower = b.lower.expect("generated programs always terminate");

        let t = Interp::new(&program)
            .run("f", &[Value::Int(h), Value::Int(l)], &mut SeededOracle::new(0))
            .expect("runs");

        let eval = |e: &blazer::bounds::CostExpr| -> i64 {
            let v = e.eval(&|d| {
                if d == dims.seed(0) {
                    Rat::int(h as i128)
                } else {
                    Rat::int(l as i128)
                }
            });
            // Bounds may be fractional; round outward conservatively when
            // comparing.
            v.floor() as i64
        };
        let lo = eval(&lower);
        prop_assert!(
            lo as i128 <= t.cost as i128,
            "lower bound {lo} exceeds measured {} for seed {seed} h={h} l={l}\n{src}",
            t.cost
        );
        if let Some(upper) = &b.upper {
            let hi = upper.eval(&|d| {
                if d == dims.seed(0) { Rat::int(h as i128) } else { Rat::int(l as i128) }
            });
            prop_assert!(
                Rat::int(t.cost as i128) <= hi.ceil_rat(),
                "upper bound {hi} below measured {} for seed {seed} h={h} l={l}\n{src}",
                t.cost
            );
        }
    }

    /// Under a tiny resource budget the driver still always returns a
    /// verdict — never panics, never hangs past ~2× the deadline — and an
    /// exhausted budget is surfaced as a machine-readable Unknown reason.
    #[test]
    fn tiny_budget_always_yields_a_verdict(seed in 0u64..5000, cap in 0u64..24) {
        use blazer::core::{Blazer, Budget, Config, UnknownReason, Verdict};
        use std::time::Duration;
        let _timed = timed();
        let src = gen_program(seed);
        let program = blazer::lang::compile(&src).unwrap();
        let deadline = Duration::from_millis(200);
        let budget = Budget::unlimited()
            .with_deadline(deadline)
            .with_max_lp_calls(cap)
            .with_max_fixpoint_passes(cap.max(1))
            .with_max_refinement_steps(cap.max(1));
        let start = std::time::Instant::now();
        let outcome = Blazer::new(Config::microbench().with_budget(budget))
            .analyze(&program, "f")
            .expect("a verdict, not a panic");
        let elapsed = start.elapsed();
        // ~2× deadline plus scheduling fudge: exhaustion is cooperative,
        // so a small overshoot is expected but a hang is a bug.
        prop_assert!(
            elapsed <= 2 * deadline + Duration::from_millis(500),
            "took {elapsed:?} against a {deadline:?} deadline\n{src}"
        );
        if let Verdict::Unknown(reason) = &outcome.verdict {
            if outcome.budget_report.exhausted.is_some() {
                prop_assert!(
                    matches!(reason, UnknownReason::BudgetExhausted(_))
                        || matches!(reason, UnknownReason::SearchExhausted),
                    "budget ran out but reason is {reason}\n{src}"
                );
            }
        }
    }

    /// Blazer's verdict machinery never panics on generated programs, and
    /// safe verdicts are consistent with quick concrete fuzzing.
    #[test]
    fn analysis_never_panics_and_safe_is_plausible(seed in 0u64..500) {
        use blazer::core::{Blazer, Config};
        let _untimed = untimed();
        let src = gen_program(seed);
        let program = blazer::lang::compile(&src).unwrap();
        let mut config = Config::microbench();
        config.max_trails = 12; // keep the fuzz cheap
        let outcome = Blazer::new(config).analyze(&program, "f").unwrap();
        if outcome.verdict.is_safe() {
            // Sample a few input pairs with equal lows.
            let interp = Interp::new(&program);
            for l in [0i64, 3] {
                let mut costs = BTreeSet::new();
                for h in [-2i64, 0, 5] {
                    let t = interp
                        .run("f", &[Value::Int(h), Value::Int(l)], &mut SeededOracle::new(0))
                        .unwrap();
                    costs.insert(t.cost);
                }
                let spread = costs.iter().max().unwrap() - costs.iter().min().unwrap();
                prop_assert!(
                    spread <= 32,
                    "declared safe but spread {spread} at l={l}\n{src}"
                );
            }
        }
    }
}
