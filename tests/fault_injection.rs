//! Deterministic fault injection ([`FaultSpec`]): every layer of the stack
//! absorbs its failure mode as a sound degradation instead of crashing —
//! rational overflow in the domains, LP-call denial in simplex, fixpoint
//! starvation in the engine, refinement starvation and dead deadlines in
//! the driver.

use blazer::core::{Blazer, Budget, Config, FaultSpec, Resource, UnknownReason, Verdict};
use std::time::Duration;

/// A program with genuine secret influence (no fast-path exit) whose
/// undisturbed verdict is an attack.
const LEAKY: &str = "fn f(high: int #high, low: int) {
    if (high == 0) { tick(1); } else {
        let i: int = 0;
        while (i < low) { i = i + 1; }
    }
}";

/// Balanced on both branches; undisturbed verdict: safe.
const BALANCED: &str = "fn g(high: int #high, low: int) {
    let i: int = 0;
    while (i < low) { i = i + 1; }
}";

fn analyze_src(src: &str, func: &str, budget: Budget) -> blazer::core::AnalysisOutcome {
    let program = blazer::lang::compile(src).unwrap();
    Blazer::new(Config::microbench().with_budget(budget))
        .analyze(&program, func)
        .expect("analysis returns a verdict, never panics")
}

fn analyze_with(budget: Budget) -> blazer::core::AnalysisOutcome {
    analyze_src(LEAKY, "f", budget)
}

#[test]
fn overflow_fault_is_absorbed_as_precision_loss() {
    let fault = FaultSpec { overflow: Some(0), ..FaultSpec::default() };
    let out = analyze_with(Budget::unlimited().with_fault(fault));
    assert!(
        out.budget_report.overflow_events > 0,
        "the always-on overflow fault must have been absorbed somewhere"
    );
    // Soundness: with every rational operation degraded the analysis may
    // not conclude anything — but it must never claim Safe for a leaky
    // program.
    assert!(!out.verdict.is_safe(), "unsound verdict: {}", out.verdict);
}

#[test]
fn lp_call_fault_degrades_down_the_domain_ladder() {
    let fault = FaultSpec { lp_call: Some(0), ..FaultSpec::default() };
    let out = analyze_with(Budget::unlimited().with_fault(fault));
    // Every LP call is denied, so the first trail exhausts the budget and
    // the driver's rescue-and-retry ladder must have engaged.
    assert!(
        !out.degradations.is_empty(),
        "expected domain fallbacks, report: {:?}",
        out.budget_report
    );
    assert!(!out.verdict.is_safe(), "unsound verdict: {}", out.verdict);
}

#[test]
fn dead_deadline_yields_budget_unknown() {
    let fault = FaultSpec { deadline: Some(Duration::ZERO), ..FaultSpec::default() };
    let out = analyze_with(Budget::unlimited().with_fault(fault));
    assert!(
        matches!(
            out.verdict,
            Verdict::Unknown(UnknownReason::BudgetExhausted(Resource::WallClock))
        ),
        "verdict: {}",
        out.verdict
    );
    assert_eq!(out.budget_report.exhausted, Some(Resource::WallClock));
}

#[test]
fn fixpoint_pass_cap_widens_to_top_instead_of_diverging() {
    let out = analyze_with(Budget::unlimited().with_max_fixpoint_passes(1));
    assert!(out.budget_report.fixpoint_passes >= 1);
    assert!(!out.verdict.is_safe(), "unsound verdict: {}", out.verdict);
    assert!(
        matches!(out.verdict, Verdict::Unknown(UnknownReason::BudgetExhausted(_))),
        "verdict: {}",
        out.verdict
    );
}

#[test]
fn refinement_step_cap_stops_the_driver() {
    let out = analyze_with(Budget::unlimited().with_max_refinement_steps(1));
    assert!(
        matches!(
            out.verdict,
            Verdict::Unknown(UnknownReason::BudgetExhausted(Resource::RefinementSteps))
        ),
        "verdict: {}",
        out.verdict
    );
}

#[test]
fn automata_phase_cooperates_with_an_exhausted_budget() {
    use blazer::automata::{antichain, kleene, ops, Dfa, Nfa, Regex};
    // Every automata-phase entry point the driver exercises — subset
    // construction, eager products, state elimination, and the antichain
    // search — must poll the installed budget and surface exhaustion as an
    // `Err` instead of completing (or diverging) under a dead deadline.
    let r = Regex::symbol(0).star().then(Regex::symbol(1));
    let a = Dfa::from_regex(&r, 2);
    let b = Dfa::from_regex(&Regex::symbol(1).star(), 2);
    let nfa = Nfa::from_regex(&r, 2);
    let _dead = Budget::unlimited().with_deadline(Duration::ZERO).install();
    assert!(Dfa::try_from_regex(&r, 2).is_err(), "subset construction ignored the deadline");
    assert!(ops::try_intersection(&a, &b).is_err(), "eager product ignored the deadline");
    assert!(kleene::try_dfa_to_regex(&a).is_err(), "state elimination ignored the deadline");
    assert!(antichain::dfa_included(&a, &b).is_err(), "antichain inclusion ignored the deadline");
    assert!(antichain::nfa_is_empty(&nfa).is_err(), "antichain emptiness ignored the deadline");
}

#[test]
fn dead_deadline_is_sound_in_both_automata_engine_modes() {
    // End to end: with the whole analysis under a dead deadline, the
    // antichain engine (the only automata engine left) absorbs the
    // exhaustion — a budget-Unknown verdict, never a panic and never Safe
    // for the leaky program — and does so identically on every run.
    let run = || {
        let fault = FaultSpec { deadline: Some(Duration::ZERO), ..FaultSpec::default() };
        analyze_with(Budget::unlimited().with_fault(fault))
    };
    let out = run();
    assert!(
        matches!(
            out.verdict,
            Verdict::Unknown(UnknownReason::BudgetExhausted(Resource::WallClock))
        ),
        "verdict: {}",
        out.verdict
    );
    assert!(!out.verdict.is_safe(), "unsound verdict: {}", out.verdict);
    assert_eq!(out.budget_report.exhausted, Some(Resource::WallClock));
    let again = run();
    assert_eq!(again.verdict.to_string(), out.verdict.to_string());
    assert_eq!(again.antichain_stats, out.antichain_stats);
}

#[test]
fn unlimited_budget_is_the_undisturbed_attack_verdict() {
    // Control: the same program without faults still finds its attack, and
    // reports no degradations.
    let out = analyze_with(Budget::unlimited());
    assert!(out.verdict.is_attack(), "verdict: {}", out.verdict);
    assert!(out.degradations.is_empty());
    assert_eq!(out.budget_report.exhausted, None);
    assert_eq!(out.budget_report.overflow_events, 0);
}

#[test]
fn tiny_budget_fuzz_never_panics_and_stays_sound() {
    // Sweep starvation levels across both verdict polarities. Every
    // analysis must answer (no panic, no error), and no starvation level
    // may flip a verdict to the unsound side: leaky never Safe, balanced
    // never Attack. The deadline is a backstop so an under-starved run
    // cannot stretch the sweep.
    for cap in [0u64, 1, 2, 3, 5, 8, 13, 21] {
        for (src, func, leaky) in [(LEAKY, "f", true), (BALANCED, "g", false)] {
            let budget =
                Budget::unlimited().with_max_lp_calls(cap).with_deadline(Duration::from_secs(10));
            let out = analyze_src(src, func, budget);
            if leaky {
                assert!(!out.verdict.is_safe(), "lp cap {cap}: leaky verdict {}", out.verdict);
            } else {
                assert!(!out.verdict.is_attack(), "lp cap {cap}: balanced verdict {}", out.verdict);
            }
        }
    }
}
