//! `RefinePartition` (Sec. 4.3): splitting trails at annotated constructors.

use crate::trail::{annotate, replace, subterm, BranchSyms, Path};
use blazer_automata::Regex;
use blazer_taint::Taint;

/// The refinement mode of Fig. 2's two loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineMode {
    /// Split only at constructors that depend on low data *only* —
    /// "partitioning is only permitted on low data" when proving safety.
    Safe,
    /// Split at secret-dependent constructors to synthesize an attack.
    Vulnerable,
}

/// The result of splitting one trail.
#[derive(Debug, Clone)]
pub struct Split {
    /// The sub-trails produced (two for both union and star splits).
    pub parts: Vec<Regex>,
    /// The taint of the constructor that was split.
    pub taint: Taint,
    /// Where in the parent the split happened.
    pub path: Path,
    /// Whether a star was unrolled (drives the driver's unrolling cap).
    pub is_star: bool,
}

/// Finds the preferred split point of `trail` under `mode` and performs it.
/// Returns `None` when no constructor with a suitable annotation exists.
///
/// Union constructors split into their two sides; star constructors split
/// into the zero-iteration case and the at-least-once unrolling
/// (`tr* = ε | tr·tr*`).
///
/// **Coverage.** In [`RefineMode::Safe`] the parts must cover the parent's
/// language (a ψ-quotient partition requirement), so only constructors *not
/// nested under a star* are eligible: splitting a union inside a loop body
/// would drop all mixed-iteration traces. Unrolling the star first exposes
/// the first iteration's copy of such a union at a coverable position —
/// this is the paper's "more complicated forms of loop unrolling"
/// (Sec. 7). Star splits themselves always cover. In
/// [`RefineMode::Vulnerable`] coverage is not required (the paper's tr3/tr4
/// are not a partition either), so any annotated constructor is eligible.
///
/// `allow_star` lets the driver cap repeated unrolling of the same loop.
pub fn refine_partition(
    trail: &Regex,
    branches: &[BranchSyms],
    mode: RefineMode,
    allow_star: bool,
) -> Option<Split> {
    let ann = annotate(trail, branches);
    let eligible = |t: Taint| match mode {
        RefineMode::Safe => t.is_low_only(),
        RefineMode::Vulnerable => t.is_high(),
    };
    // Candidate preference: unions before stars (splitting a union
    // separates the two behaviors directly, while unrolling a star rarely
    // changes bound shapes), then outermost-leftmost.
    let (path, taint) = ann
        .iter()
        .filter(|(_, &t)| eligible(t))
        .filter(|(p, _)| {
            if mode == RefineMode::Safe && path_under_star(trail, p) {
                return false;
            }
            allow_star || !matches!(subterm(trail, p), Regex::Star(_))
        })
        .min_by_key(|(p, _)| {
            let is_star = matches!(subterm(trail, p), Regex::Star(_));
            (is_star, p.len(), (*p).clone())
        })
        .map(|(p, &t)| (p.clone(), t))?;
    let (parts, is_star) = match subterm(trail, &path) {
        Regex::Union(a, b) => (
            vec![replace(trail, &path, (**a).clone()), replace(trail, &path, (**b).clone())],
            false,
        ),
        Regex::Star(a) => {
            let once = (**a).clone().then((**a).clone().star());
            (vec![replace(trail, &path, Regex::Epsilon), replace(trail, &path, once)], true)
        }
        other => unreachable!("annotations only mark unions and stars, got {other}"),
    };
    Some(Split { parts, taint, path, is_star })
}

/// Block-based refinement, the second pluggable `RefinePartition` strategy
/// (Sec. 4.3 explicitly allows "a collection of pluggable strategies").
///
/// Given a branch block with edges `e₁`/`e₂`, split the trail with automata
/// operations instead of at a constructor:
///
/// * **Safe mode** (requires a low-only branch): parts are "never uses e₂"
///   and "never uses e₁". The parts cover the parent iff no trace uses
///   *both* edges, which is checked and required (loop guards are therefore
///   excluded automatically). ψ-quotientness holds because two traces with
///   equal lows that reach the branch take the same (low-determined) edge,
///   and traces that never reach it belong to both parts.
/// * **Vulnerable mode**: parts are "uses e₁ somewhere" and "never uses
///   e₁" — exactly the paper's tr3 ("can take early exits") / tr4
///   ("cannot") shape from Fig. 1. No coverage requirement.
///
/// Returns `None` when the split does not apply (uses-both non-empty in
/// safe mode, or a part is empty / oversized), and also when the installed
/// `blazer_ir::budget` exhausts mid-split — refinement then simply makes no
/// progress on this trail, which the driver reports as a degradation.
///
/// All feasibility questions — coverage, part non-emptiness, progress — are
/// decided *lazily* through [`blazer_automata::antichain`] without
/// materializing any product DFA; only the parts of a split that survives
/// every check are materialized (they must be converted back to trail
/// regexes anyway).
pub fn block_split(
    trail: &Regex,
    branch: &BranchSyms,
    alphabet_size: u32,
    mode: RefineMode,
    max_part_size: usize,
) -> Option<Split> {
    use blazer_automata::{antichain, kleene, ops, Dfa, Nfa};
    let eligible = match mode {
        RefineMode::Safe => branch.taint.is_low_only(),
        RefineMode::Vulnerable => branch.taint.is_high(),
    };
    if !eligible {
        return None;
    }
    let any =
        (0..alphabet_size).map(Regex::symbol).reduce(Regex::or).unwrap_or(Regex::Empty).star();
    let contains =
        |sym: blazer_automata::Sym| any.clone().then(Regex::symbol(sym)).then(any.clone());
    let with_e1 = contains(branch.then_sym);
    let with_e2 = contains(branch.else_sym);

    // Lazy feasibility: every yes/no question collapses to an antichain
    // emptiness check over NFA views, so infeasible splits are rejected
    // without ever determinizing or building a product. The algebra:
    //   tr \ X = ∅   ⟺  tr ⊆ X        (part emptiness)
    //   tr \ X = tr  ⟺  tr ∩ X = ∅    (no progress)
    //   tr ∩ X = ∅   ⟺  disjoint      (part emptiness, ∩-part)
    //   tr ∩ X = tr  ⟺  tr ⊆ X        (no progress, ∩-part)
    let tr_nfa = Nfa::from_regex(trail, alphabet_size);
    let e1_nfa = Nfa::from_regex(&with_e1, alphabet_size);
    let e2_nfa = Nfa::from_regex(&with_e2, alphabet_size);
    match mode {
        RefineMode::Safe => {
            // Coverage requires that no trace uses both edges.
            if !antichain::nfa_intersect3_empty(&tr_nfa, &e1_nfa, &e2_nfa).ok()? {
                return None;
            }
            for x in [&e2_nfa, &e1_nfa] {
                if antichain::nfa_included(&tr_nfa, x).ok()? {
                    return None; // part tr \ x is empty
                }
                if antichain::nfa_disjoint(&tr_nfa, x).ok()? {
                    return None; // part tr \ x equals the parent
                }
            }
        }
        RefineMode::Vulnerable => {
            if antichain::nfa_disjoint(&tr_nfa, &e1_nfa).ok()? {
                return None; // "uses e₁" part is empty ("never" = parent)
            }
            if antichain::nfa_included(&tr_nfa, &e1_nfa).ok()? {
                return None; // "never uses e₁" part is empty ("uses" = parent)
            }
        }
    }
    // The split is feasible: materialize only the surviving parts.
    let tr = Dfa::try_from_regex(trail, alphabet_size).ok()?;
    let d1 = Dfa::try_from_regex(&with_e1, alphabet_size).ok()?;
    let parts_dfa = match mode {
        RefineMode::Safe => {
            let d2 = Dfa::try_from_regex(&with_e2, alphabet_size).ok()?;
            vec![ops::try_difference(&tr, &d2).ok()?, ops::try_difference(&tr, &d1).ok()?]
        }
        RefineMode::Vulnerable => {
            vec![ops::try_intersection(&tr, &d1).ok()?, ops::try_difference(&tr, &d1).ok()?]
        }
    };
    let parts: Vec<Regex> = parts_dfa
        .iter()
        .map(|d| kleene::try_dfa_to_regex(&d.minimize()))
        .collect::<Result<_, _>>()
        .ok()?;
    if parts.iter().any(|p| p.size() > max_part_size) {
        return None;
    }
    Some(Split { parts, taint: branch.taint, path: Vec::new(), is_star: false })
}

/// Whether the node at `path` lies (strictly) below some star constructor.
fn path_under_star(trail: &Regex, path: &[usize]) -> bool {
    let mut cur = trail;
    for &step in path {
        if matches!(cur, Regex::Star(_)) {
            return true;
        }
        cur = match (cur, step) {
            (Regex::Concat(a, _), 0) | (Regex::Union(a, _), 0) | (Regex::Star(a), 0) => a,
            (Regex::Concat(_, b), 1) | (Regex::Union(_, b), 1) => b,
            _ => unreachable!("path addresses a subterm"),
        };
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_automata::{ops, Dfa};

    fn sym(s: u32) -> Regex {
        Regex::symbol(s)
    }

    /// The eager reference for [`block_split`]: the same feasibility checks
    /// decided by materializing every product DFA and testing it, returning
    /// the parts as DFAs. The lazy antichain algebra must agree with it.
    fn block_split_eager(
        trail: &Regex,
        branch: &BranchSyms,
        alphabet_size: u32,
        mode: RefineMode,
    ) -> Option<Vec<Dfa>> {
        let any =
            (0..alphabet_size).map(Regex::symbol).reduce(Regex::or).unwrap_or(Regex::Empty).star();
        let contains =
            |sym| Dfa::from_regex(&any.clone().then(sym).then(any.clone()), alphabet_size);
        let tr = Dfa::from_regex(trail, alphabet_size);
        let d1 = contains(Regex::symbol(branch.then_sym));
        let d2 = contains(Regex::symbol(branch.else_sym));
        let parts = match mode {
            RefineMode::Safe => {
                // Coverage requires that no trace uses both edges.
                if !ops::intersection(&tr, &ops::intersection(&d1, &d2)).is_empty() {
                    return None;
                }
                vec![ops::difference(&tr, &d2), ops::difference(&tr, &d1)]
            }
            RefineMode::Vulnerable => vec![ops::intersection(&tr, &d1), ops::difference(&tr, &d1)],
        };
        if parts.iter().any(Dfa::is_empty) {
            return None; // a degenerate split refines nothing
        }
        // No progress when a part equals the parent.
        if parts
            .iter()
            .any(|d| ops::difference(d, &tr).is_empty() && ops::difference(&tr, d).is_empty())
        {
            return None;
        }
        Some(parts)
    }

    /// The union of the parts must cover the parent's language (the
    /// ψ-quotient partition requirement of Sec. 4.3).
    fn assert_covers(parent: &Regex, parts: &[Regex], alphabet: u32) {
        let parent_dfa = Dfa::from_regex(parent, alphabet);
        let mut union = Dfa::from_regex(&Regex::Empty, alphabet);
        for p in parts {
            union = ops::union(&union, &Dfa::from_regex(p, alphabet));
        }
        assert!(ops::equivalent(&parent_dfa, &union), "parts must cover the parent");
    }

    #[test]
    fn safe_mode_splits_low_union() {
        let r = sym(0).then(sym(2)).or(sym(1).then(sym(3)));
        let b = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::LOW };
        let split = refine_partition(&r, &[b], RefineMode::Safe, true).expect("low split");
        assert_eq!(split.parts.len(), 2);
        assert_eq!(split.taint, Taint::LOW);
        assert_covers(&r, &split.parts, 4);
    }

    #[test]
    fn safe_mode_refuses_high_and_mixed() {
        let r = sym(0).or(sym(1));
        for taint in [Taint::HIGH, Taint::BOTH] {
            let b = BranchSyms { then_sym: 0, else_sym: 1, taint };
            assert!(refine_partition(&r, &[b], RefineMode::Safe, true).is_none());
        }
    }

    #[test]
    fn vulnerable_mode_splits_high() {
        let r = sym(0).or(sym(1));
        let b = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::HIGH };
        let split = refine_partition(&r, &[b], RefineMode::Vulnerable, true).expect("high split");
        assert_eq!(split.parts, vec![sym(0), sym(1)]);
        assert_covers(&r, &split.parts, 2);
    }

    #[test]
    fn star_split_unrolls() {
        // 0·(1·2)*·3, loop guard edges {1, 3}.
        let r = sym(0).then(sym(1).then(sym(2)).star()).then(sym(3));
        let b = BranchSyms { then_sym: 1, else_sym: 3, taint: Taint::LOW };
        let split = refine_partition(&r, &[b], RefineMode::Safe, true).expect("star split");
        assert_eq!(split.parts.len(), 2);
        assert_covers(&r, &split.parts, 4);
        // Zero-iteration part accepts 0·3; at-least-once accepts 0·1·2·3.
        let d0 = Dfa::from_regex(&split.parts[0], 4);
        let d1 = Dfa::from_regex(&split.parts[1], 4);
        assert!(d0.accepts(&[0, 3]));
        assert!(!d0.accepts(&[0, 1, 2, 3]));
        assert!(d1.accepts(&[0, 1, 2, 3]));
        assert!(!d1.accepts(&[0, 3]));
    }

    #[test]
    fn outermost_split_preferred() {
        // Outer union splits block A (low), inner splits block B (low):
        // the outer one is chosen.
        let inner = sym(2).or(sym(3));
        let r = sym(0).then(inner).or(sym(1).then(sym(4)));
        let a = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::LOW };
        let b = BranchSyms { then_sym: 2, else_sym: 3, taint: Taint::LOW };
        let split = refine_partition(&r, &[a, b], RefineMode::Safe, true).unwrap();
        assert_eq!(split.path, Vec::<usize>::new());
        assert_covers(&r, &split.parts, 5);
    }

    #[test]
    fn no_annotations_means_no_split() {
        let r = sym(0).then(sym(1));
        assert!(refine_partition(&r, &[], RefineMode::Safe, true).is_none());
        assert!(refine_partition(&r, &[], RefineMode::Vulnerable, true).is_none());
    }

    #[test]
    fn block_split_safe_mode_partitions_once_executed_branch() {
        // 0·(1·2 | 3·4): branch edges {1, 3} are used at most once per
        // trace, so the safe block split applies and covers.
        let r = sym(0).then(sym(1).then(sym(2)).or(sym(3).then(sym(4))));
        let b = BranchSyms { then_sym: 1, else_sym: 3, taint: Taint::LOW };
        let split = block_split(&r, &b, 5, RefineMode::Safe, 10_000).expect("applies");
        assert_eq!(split.parts.len(), 2);
        assert_covers(&r, &split.parts, 5);
        let d0 = Dfa::from_regex(&split.parts[0], 5);
        let d1 = Dfa::from_regex(&split.parts[1], 5);
        assert!(d0.accepts(&[0, 1, 2]) && !d0.accepts(&[0, 3, 4]));
        assert!(d1.accepts(&[0, 3, 4]) && !d1.accepts(&[0, 1, 2]));
    }

    #[test]
    fn block_split_safe_mode_rejects_loop_guards() {
        // (1·2)*·3: traces can use both edge 1 (stay) and edge 3 (exit),
        // so a covering block split is impossible.
        let r = sym(1).then(sym(2)).star().then(sym(3));
        let b = BranchSyms { then_sym: 1, else_sym: 3, taint: Taint::LOW };
        assert!(block_split(&r, &b, 4, RefineMode::Safe, 10_000).is_none());
    }

    #[test]
    fn block_split_vulnerable_mode_is_uses_vs_never() {
        // The Fig. 1 tr3/tr4 shape: "can take the early exit" vs "cannot".
        let r = sym(0).or(sym(1)).star().then(sym(2));
        let b = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::HIGH };
        let split = block_split(&r, &b, 3, RefineMode::Vulnerable, 10_000).expect("applies");
        let uses = Dfa::from_regex(&split.parts[0], 3);
        let never = Dfa::from_regex(&split.parts[1], 3);
        assert!(uses.accepts(&[0, 2]) && uses.accepts(&[1, 0, 2]));
        assert!(!uses.accepts(&[1, 1, 2]));
        assert!(never.accepts(&[2]) && never.accepts(&[1, 1, 2]));
        assert!(!never.accepts(&[0, 2]));
    }

    #[test]
    fn block_split_requires_matching_taint() {
        let r = sym(0).or(sym(1));
        let high = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::HIGH };
        let low = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::LOW };
        let both = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::BOTH };
        assert!(block_split(&r, &high, 2, RefineMode::Safe, 10_000).is_none());
        assert!(block_split(&r, &both, 2, RefineMode::Safe, 10_000).is_none());
        assert!(block_split(&r, &low, 2, RefineMode::Vulnerable, 10_000).is_none());
        assert!(block_split(&r, &both, 2, RefineMode::Vulnerable, 10_000).is_some());
    }

    #[test]
    fn block_split_refuses_no_progress() {
        // The trail never uses either edge of the branch: both candidate
        // parts equal the parent (or are empty) — no split.
        let r = sym(2).then(sym(2));
        let b = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::LOW };
        assert!(block_split(&r, &b, 3, RefineMode::Safe, 10_000).is_none());
    }

    #[test]
    fn block_split_engines_produce_equivalent_parts() {
        // The lazy feasibility algebra must accept exactly the splits the
        // eager reference accepts, with language-identical parts in the
        // same order.
        let cases = [
            (sym(0).then(sym(1).then(sym(2)).or(sym(3).then(sym(4)))), 1u32, 3u32, 5u32),
            (sym(0).or(sym(1)).star().then(sym(2)), 0, 1, 3),
            (sym(0).then(sym(1)).or(sym(2)), 0, 2, 3),
        ];
        for (r, e1, e2, alpha) in cases {
            for (mode, taint) in
                [(RefineMode::Safe, Taint::LOW), (RefineMode::Vulnerable, Taint::HIGH)]
            {
                let b = BranchSyms { then_sym: e1, else_sym: e2, taint };
                let lazy = block_split(&r, &b, alpha, mode, 10_000);
                let eager = block_split_eager(&r, &b, alpha, mode);
                match (&lazy, &eager) {
                    (None, None) => {}
                    (Some(l), Some(e)) => {
                        assert_eq!(l.parts.len(), e.len());
                        for (lp, ed) in l.parts.iter().zip(e) {
                            let ld = Dfa::from_regex(lp, alpha);
                            assert!(ops::equivalent(&ld, ed), "parts diverge for {r}");
                        }
                    }
                    _ => panic!("lazy and eager disagree on applicability for {r} in {mode:?}"),
                }
            }
        }
    }

    #[test]
    fn vulnerable_mode_accepts_mixed_taint() {
        let r = sym(0).or(sym(1));
        let b = BranchSyms { then_sym: 0, else_sym: 1, taint: Taint::BOTH };
        let split = refine_partition(&r, &[b], RefineMode::Vulnerable, true).expect("mixed split");
        assert_eq!(split.taint, Taint::BOTH);
    }
}
