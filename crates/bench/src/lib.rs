//! # blazer-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. 6). See the `table1`, `figure1`, and
//! `selfcomp_compare` binaries plus the Criterion benches under `benches/`.

#![forbid(unsafe_code)]

use blazer_benchmarks::{Benchmark, Expected, Group};
use blazer_core::{AnalysisOutcome, AntichainStats, Blazer, Config, SeedStats, Verdict};
use std::time::Duration;

/// The analysis configuration for a benchmark group (the two observer
/// models of Sec. 6.1).
pub fn config_for(group: Group) -> Config {
    let mut c = match group {
        Group::MicroBench => Config::microbench(),
        Group::Stac | Group::Literature => Config::stac(),
    };
    // Domain override for ablation experiments: BLAZER_DOMAIN=interval|zone|octagon|polyhedra.
    if let Ok(d) = std::env::var("BLAZER_DOMAIN") {
        c.domain = match d.as_str() {
            "interval" => blazer_core::DomainKind::Interval,
            "zone" => blazer_core::DomainKind::Zone,
            "octagon" => blazer_core::DomainKind::Octagon,
            _ => blazer_core::DomainKind::Polyhedra,
        };
    }
    // Observer cost-model override for the cross-model oracle sweeps:
    // BLAZER_COST_MODEL=unit|weighted|cache. Unset or unrecognized values
    // keep the default unit model, so existing snapshots are unaffected.
    if let Ok(m) = std::env::var("BLAZER_COST_MODEL") {
        if let Ok(model) = m.parse::<blazer_ir::cost::CostModel>() {
            c.cost_model = model;
        }
    }
    c
}

/// One Table-1 row.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub group: Group,
    pub size: usize,
    pub verdict: Verdict,
    pub expected: Expected,
    pub safety_time: Duration,
    pub with_attack_time: Option<Duration>,
    /// Total fixpoint passes the analysis consumed (from the budget
    /// ledger: top-level trail fixpoints, nested loop summaries, and the
    /// attack phase alike). Deterministic at every thread width, so the
    /// snapshot can track the incremental-seeding savings across commits.
    pub fixpoint_passes: u64,
    /// Per-trail seeding counters (trails seeded vs from-⊥, top-level pass
    /// split, rejected seeds).
    pub seed_stats: SeedStats,
    /// Antichain automata-engine counters (macro-states explored and
    /// prunes).
    pub antichain_stats: AntichainStats,
    /// Quantified leakage in bits under the group's observer.
    pub leakage_bits: f64,
}

impl Row {
    /// Whether the verdict matches the paper's.
    pub fn matches_paper(&self) -> bool {
        matches!(
            (&self.verdict, self.expected),
            (Verdict::Safe, Expected::Safe)
                | (Verdict::Attack(_), Expected::Attack)
                | (Verdict::Unknown(_), Expected::Unknown)
        )
    }
}

/// Analyzes one benchmark `runs` times and reports the median-timing run
/// (the paper takes the median of five runs).
pub fn run_benchmark(b: &Benchmark, runs: usize) -> Row {
    let program = b.compile();
    let blazer = Blazer::new(config_for(b.group));
    let mut outcomes: Vec<AnalysisOutcome> = (0..runs.max(1))
        .map(|_| blazer.analyze(&program, b.function).expect("benchmark analyzes"))
        .collect();
    outcomes.sort_by_key(|o| o.safety_time);
    let o = outcomes.swap_remove(outcomes.len() / 2);
    Row {
        name: b.name,
        group: b.group,
        size: o.n_blocks,
        with_attack_time: o.attack_time.map(|a| o.safety_time + a),
        fixpoint_passes: o.budget_report.fixpoint_passes,
        seed_stats: o.seed_stats,
        antichain_stats: o.antichain_stats,
        leakage_bits: o.leakage.bits,
        verdict: o.verdict,
        expected: b.expected,
        safety_time: o.safety_time,
    }
}

/// Like [`run_benchmark`], but isolates panics (injected faults, genuine
/// bugs) so one crashing benchmark cannot abort a whole table run. Returns
/// the panic payload as the error.
pub fn try_run_benchmark(b: &Benchmark, runs: usize) -> Result<Row, String> {
    std::panic::catch_unwind(|| run_benchmark(b, runs)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_core::Verdict;

    #[test]
    fn config_selection_by_group() {
        // MicroBench gets the degree observer; STAC/Literature the
        // threshold observer.
        let micro = config_for(Group::MicroBench);
        assert!(matches!(micro.observer, blazer_bounds::Observer::DegreeEquivalence { .. }));
        for g in [Group::Stac, Group::Literature] {
            let c = config_for(g);
            assert!(matches!(c.observer, blazer_bounds::Observer::ConcreteThreshold { .. }));
        }
    }

    #[test]
    fn rows_compare_verdicts_to_expectations() {
        let row = |verdict: Verdict, expected: Expected| Row {
            name: "x",
            group: Group::MicroBench,
            size: 1,
            verdict,
            expected,
            safety_time: Duration::from_millis(1),
            with_attack_time: None,
            fixpoint_passes: 0,
            seed_stats: SeedStats::default(),
            antichain_stats: AntichainStats::default(),
            leakage_bits: 0.0,
        };
        let unknown = || Verdict::Unknown(blazer_core::UnknownReason::SearchExhausted);
        assert!(row(Verdict::Safe, Expected::Safe).matches_paper());
        assert!(row(unknown(), Expected::Unknown).matches_paper());
        assert!(!row(Verdict::Safe, Expected::Attack).matches_paper());
        assert!(!row(unknown(), Expected::Safe).matches_paper());
    }

    #[test]
    fn run_benchmark_fast_case() {
        let b = blazer_benchmarks::by_name("nosecret_safe").unwrap();
        let row = run_benchmark(&b, 3);
        assert!(row.matches_paper());
        assert!(row.with_attack_time.is_none());
        assert_eq!(row.size, 4);
    }
}
