//! Quantified leakage from the decomposition's partition structure.
//!
//! The driver's verdict is binary: safe or attack. But its trail tree
//! already contains a *quantitative* object — the partition of executions
//! into trail classes, each with symbolic `[lo, hi]` running-time bounds.
//! Following the information-theoretic reading of probabilistic
//! confinement (Di Pierro–Hankin–Wiklicky), the leakage of the partition
//! is `log2` of the number of *attacker-distinguishable* observation
//! classes: an attacker who can tell `n` cost classes apart learns at most
//! `log2(n)` bits about the secret per observed run.
//!
//! Two trail classes are merged when the active [`Observer`] cannot tell
//! their bound ranges apart. Distinguishability is not transitive (A≈B and
//! B≈C do not imply A≈C), so classes are built by *complete-linkage*
//! greedy clustering: a leaf joins a class only when it is indistinguishable
//! from **every** member. This keeps the count conservative in the right
//! direction — any pair the observer can distinguish is guaranteed to end
//! up in different classes, so an attack's witnessing pair always yields at
//! least two classes (≥ 1 bit).
//!
//! A *wide* leaf (its own `[lo, hi]` spread exceeds what the observer
//! dismisses as noise) is itself a leaking object: executions inside the
//! same trail class are mutually distinguishable. Each wide leaf therefore
//! contributes one extra distinguishable class beyond the clustering.
//!
//! A `Safe` verdict means the partition proves every pair of secret-split
//! siblings indistinguishable and every class narrow: the attacker learns
//! nothing, and the report is pinned to one class / 0 bits by definition.

use crate::{AnalysisOutcome, NodeStatus};
use blazer_bounds::{CostExpr, Observer};
use blazer_domains::Rat;

/// The quantified-leakage estimate attached to every verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Leakage {
    /// Leakage in bits: `log2` of [`Leakage::classes`].
    pub bits: f64,
    /// Number of attacker-distinguishable observation classes (≥ 1).
    pub classes: usize,
    /// Feasible (non-empty-language) leaves the partition was built from.
    pub feasible_leaves: usize,
    /// Leaves whose own bound spread is observable (each adds one class).
    pub wide_leaves: usize,
    /// Largest observable gap between class representatives, in the
    /// observer's units (evaluated at its canonical input magnitudes);
    /// `None` with fewer than two bounded classes.
    pub max_gap: Option<f64>,
}

impl Leakage {
    /// The zero-leakage report of a proven-safe partition.
    pub fn none() -> Leakage {
        Leakage { bits: 0.0, classes: 1, feasible_leaves: 0, wide_leaves: 0, max_gap: None }
    }
}

/// A leaf's bound range as the observer comparison functions want it.
type Range<'a> = (&'a CostExpr, Option<&'a CostExpr>);

/// The representative concrete cost of a range: its upper bound (falling
/// back to the lower for unbounded leaves) evaluated at the observer's
/// canonical input point — the same point its distinguishability criterion
/// evaluates at.
fn representative(observer: &Observer, (lo, hi): Range<'_>) -> f64 {
    let expr = hi.unwrap_or(lo);
    match observer {
        Observer::DegreeEquivalence { .. } => expr.eval(&|_| Rat::int(1009)).to_f64(),
        Observer::ConcreteThreshold { assumed, .. } => assumed.eval(expr).to_f64(),
    }
}

/// Computes the leakage estimate for one analysis outcome under `observer`.
///
/// Safe verdicts report 0 bits unconditionally (the proof says the classes
/// are indistinguishable). Otherwise the estimate is built from the
/// feasible leaves of the trail partition as described in the module docs;
/// a partial tree (budget exhaustion) yields a *lower* bound on
/// the leakage of the full partition, which is the sound direction for an
/// estimate that answers "at least how bad is it".
pub fn measure(outcome: &AnalysisOutcome, observer: &Observer) -> Leakage {
    if outcome.verdict.is_safe() {
        return Leakage::none();
    }
    let tree = &outcome.tree;
    let mut ranges: Vec<Range<'_>> = Vec::new();
    let mut wide_leaves = 0usize;
    for id in tree.leaves() {
        let node = tree.node(id);
        let Some(bounds) = &node.bounds else { continue };
        let Some(lo) = &bounds.lower else { continue }; // infeasible: L(trail) = ∅
        ranges.push((lo, bounds.upper.as_ref()));
        if matches!(node.status, NodeStatus::Wide | NodeStatus::Attack) {
            wide_leaves += 1;
        }
    }
    // Complete-linkage greedy clustering over the observer's (symmetric,
    // non-transitive) distinguishability relation.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (i, range) in ranges.iter().enumerate() {
        let home = classes
            .iter_mut()
            .find(|class| class.iter().all(|&j| !observer.observably_different(*range, ranges[j])));
        match home {
            Some(class) => class.push(i),
            None => classes.push(vec![i]),
        }
    }
    let distinguishable = (classes.len() + wide_leaves).max(1);
    let reps: Vec<f64> =
        classes.iter().map(|class| representative(observer, ranges[class[0]])).collect();
    let max_gap = reps
        .iter()
        .cloned()
        .reduce(f64::max)
        .zip(reps.iter().cloned().reduce(f64::min))
        .filter(|_| reps.len() >= 2)
        .map(|(max, min)| max - min);
    Leakage {
        bits: (distinguishable as f64).log2(),
        classes: distinguishable,
        feasible_leaves: ranges.len(),
        wide_leaves,
        max_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blazer, Config};

    fn analyze(src: &str, func: &str, config: Config) -> AnalysisOutcome {
        let p = blazer_lang::compile(src).unwrap();
        Blazer::new(config).analyze(&p, func).unwrap()
    }

    #[test]
    fn safe_program_leaks_nothing() {
        let out = analyze(
            "fn f(h: int #high, low: int) { \
                if (h == 0) { \
                    let i: int = 0; \
                    while (i < low) { i = i + 1; } \
                } else { \
                    let i: int = low; \
                    while (i > 0) { i = i - 1; } \
                } \
            }",
            "f",
            Config::microbench(),
        );
        assert!(out.verdict.is_safe());
        let l = measure(&out, &Observer::degree());
        assert_eq!((l.bits, l.classes), (0.0, 1));
    }

    #[test]
    fn attack_program_leaks_at_least_one_bit() {
        let out = analyze(
            "fn f(h: int #high) { if (h == 0) { tick(500); } else { tick(1); } }",
            "f",
            Config::microbench(),
        );
        assert!(out.verdict.is_attack());
        let l = measure(&out, &Observer::degree());
        assert!(l.bits >= 1.0, "attack must leak ≥ 1 bit, got {l:?}");
        assert!(l.classes >= 2);
        assert!(l.max_gap.is_some_and(|g| g > 32.0), "gap exceeds epsilon: {l:?}");
    }

    #[test]
    fn multiway_branching_leaks_more_than_one_bit() {
        // Four observably distinct costs keyed on the secret: ~2 bits.
        let out = analyze(
            "fn f(h: int #high) { \
                if (h == 0) { tick(100); } else { \
                    if (h == 1) { tick(500); } else { \
                        if (h == 2) { tick(900); } else { tick(1300); } \
                    } \
                } \
            }",
            "f",
            Config::microbench(),
        );
        assert!(out.verdict.is_attack());
        let l = measure(&out, &Observer::degree());
        assert!(l.classes >= 3, "four separated costs collapse too far: {l:?}");
        assert!(l.bits > 1.0);
        assert!(l.max_gap.is_some_and(|g| g.is_finite() && g > 0.0));
    }
}
