//! The headline result: Blazer's verdict on every Table-1 benchmark matches
//! the paper. The full 24-benchmark sweep takes a few minutes in release
//! mode, so the always-on test covers a fast representative subset and the
//! complete sweep runs with `cargo test --release -- --ignored`.

use blazer::benchmarks::{all, by_name, Expected, Group};
use blazer::core::{Blazer, Config, Verdict};

fn config_for(group: Group) -> Config {
    match group {
        Group::MicroBench => Config::microbench(),
        _ => Config::stac(),
    }
}

fn matches_paper(name: &str) -> bool {
    let b = by_name(name).expect("benchmark exists");
    let program = b.compile();
    let outcome = Blazer::new(config_for(b.group)).analyze(&program, b.function).expect("analyzes");
    // Every verdict carries its leakage, pinned by polarity: a proof of
    // safety leaks exactly 0 bits, an attack at least 1 bit.
    let bits = outcome.leakage.bits;
    match outcome.verdict {
        Verdict::Safe => assert_eq!(bits, 0.0, "{name}: safe verdict leaks {bits} bits"),
        Verdict::Attack(_) => assert!(bits >= 1.0, "{name}: attack leaks only {bits} bits"),
        Verdict::Unknown(_) => {}
    }
    matches!(
        (&outcome.verdict, b.expected),
        (Verdict::Safe, Expected::Safe)
            | (Verdict::Attack(_), Expected::Attack)
            | (Verdict::Unknown(_), Expected::Unknown)
    )
}

#[test]
fn representative_subset_matches_table_1() {
    for name in [
        "nosecret_safe",
        "notaint_unsafe",
        "sanity_safe",
        "sanity_unsafe",
        "straightline_safe",
        "straightline_unsafe",
        "unixlogin_safe",
        "unixlogin_unsafe",
    ] {
        assert!(matches_paper(name), "{name} disagrees with Table 1");
    }
}

#[test]
#[ignore = "full Table-1 sweep: minutes in release mode; run with --ignored"]
fn all_24_verdicts_match_table_1() {
    let mut mismatches = Vec::new();
    for b in all() {
        if !matches_paper(b.name) {
            mismatches.push(b.name);
        }
    }
    assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
}
