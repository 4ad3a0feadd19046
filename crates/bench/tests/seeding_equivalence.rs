//! Seeded vs from-⊤ fixpoint equivalence over the benchmark suite.
//!
//! Incremental fixpoint seeding is a pure pass-count optimization: starting
//! a child trail's fixpoint from its parent's converged post-states must
//! never change a verdict. These tests run benchmarks twice — seeding on
//! (the default) and off ([`blazer_core::Config::with_seeding`]) — and
//! demand identical verdicts and identical refinement trees node by node
//! (trail, split kind and status), plus a non-increasing total fixpoint
//! pass count. Bounds are not compared: narrowing from a parent's seed may
//! land on a different, equally sound post-fixpoint (array_unsafe's node 8
//! gets the lower bound 56 seeded and 97 from ⊥, Wide either way).

use blazer_bench::config_for;
use blazer_benchmarks::{Benchmark, Group};
use blazer_core::{Blazer, SeedStats};

fn check_equivalence(benchmarks: &[Benchmark]) {
    let mut totals = (SeedStats::default(), SeedStats::default());
    for b in benchmarks {
        let program = b.compile();
        let base = config_for(b.group).with_threads(1);
        let seeded = Blazer::new(base.clone().with_seeding(true))
            .analyze(&program, b.function)
            .expect("seeded analysis succeeds");
        let unseeded = Blazer::new(base.with_seeding(false))
            .analyze(&program, b.function)
            .expect("unseeded analysis succeeds");

        assert_eq!(
            format!("{:?}", seeded.verdict),
            format!("{:?}", unseeded.verdict),
            "{}: seeding changed the verdict",
            b.name
        );
        assert_eq!(
            seeded.tree.len(),
            unseeded.tree.len(),
            "{}: seeding changed the refinement tree",
            b.name
        );
        for i in 0..seeded.tree.len() {
            let (s, u) = (seeded.tree.node(i), unseeded.tree.node(i));
            assert_eq!(s.trail.to_string(), u.trail.to_string(), "{}: node {i} trail", b.name);
            assert_eq!(s.split_kind, u.split_kind, "{}: node {i} split kind", b.name);
            assert_eq!(s.status, u.status, "{}: node {i} status", b.name);
        }
        assert_eq!(
            unseeded.seed_stats.trails_seeded, 0,
            "{}: with_seeding(false) must not seed",
            b.name
        );
        let passes = |s: &SeedStats| s.seeded_passes + s.unseeded_passes;
        assert!(
            passes(&seeded.seed_stats) <= passes(&unseeded.seed_stats),
            "{}: seeding increased fixpoint passes ({:?} vs {:?})",
            b.name,
            seeded.seed_stats,
            unseeded.seed_stats
        );

        let acc = |t: &mut SeedStats, s: &SeedStats| {
            t.trails_seeded += s.trails_seeded;
            t.trails_unseeded += s.trails_unseeded;
            t.seeded_passes += s.seeded_passes;
            t.unseeded_passes += s.unseeded_passes;
        };
        acc(&mut totals.0, &seeded.seed_stats);
        acc(&mut totals.1, &unseeded.seed_stats);
    }

    // The run must actually exercise the seeding path: plenty of trails
    // have parents (every refinement split produces two), so a zero here
    // means the plumbing silently fell back to ⊥ everywhere.
    assert!(totals.0.trails_seeded > 0, "no trail was seeded: {:?}", totals.0);
    let total = |s: &SeedStats| s.seeded_passes + s.unseeded_passes;
    assert!(
        total(&totals.0) < total(&totals.1),
        "seeding saved no passes: {:?} vs {:?}",
        totals.0,
        totals.1
    );
}

/// The MicroBench group — every program whose refinement actually splits
/// trails finishes quickly, so this stays in the default (tier-1) run.
#[test]
fn seeding_never_changes_a_microbench_verdict() {
    let micro: Vec<Benchmark> =
        blazer_benchmarks::all().into_iter().filter(|b| b.group == Group::MicroBench).collect();
    assert!(!micro.is_empty());
    check_equivalence(&micro);
}

/// The full 24-benchmark Table-1 suite. Ignored by default — the STAC and
/// literature programs are expensive to analyze twice in a debug build —
/// and run explicitly by CI (and by hand) via
/// `cargo test -p blazer-bench --test seeding_equivalence -- --ignored`.
#[test]
#[ignore = "runs the full suite twice; minutes in debug builds"]
fn seeding_never_changes_any_table1_verdict() {
    check_equivalence(&blazer_benchmarks::all());
}
