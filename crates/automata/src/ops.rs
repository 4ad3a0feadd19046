//! Boolean operations and decision procedures on DFAs.
//!
//! The *constructions* (`intersection`/`union`/`difference`) materialize a
//! product DFA, with `try_` variants that cooperate with the installed
//! `blazer_ir::budget`. The *decision procedures*
//! (`included`/`equivalent`/`disjoint`/`counterexample`) answer on the fly
//! through [`crate::antichain`] without ever building the product; the
//! budgeted forms are the `antichain::dfa_*` functions.

use crate::antichain;
use crate::dfa::{Dfa, BUDGET_POLL_PERIOD};
use crate::Sym;
use blazer_ir::budget::{self, Exhausted};
use std::collections::BTreeMap;

/// How the product construction combines acceptance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Combine {
    And,
    Or,
    AndNot,
}

fn product(a: &Dfa, b: &Dfa, combine: Combine) -> Dfa {
    product_impl(a, b, combine, false).expect("unbudgeted product cannot exhaust")
}

fn try_product(a: &Dfa, b: &Dfa, combine: Combine) -> Result<Dfa, Exhausted> {
    product_impl(a, b, combine, true)
}

fn product_impl(a: &Dfa, b: &Dfa, combine: Combine, budgeted: bool) -> Result<Dfa, Exhausted> {
    assert_eq!(a.alphabet_size(), b.alphabet_size(), "alphabet mismatch in product");
    let alpha = a.alphabet_size();
    let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut trans: Vec<usize> = Vec::new();
    let start = (a.start(), b.start());
    index.insert(start, 0);
    pairs.push(start);
    let mut work = vec![0usize];
    let mut pops = 0usize;
    while let Some(q) = work.pop() {
        pops += 1;
        if budgeted && pops % BUDGET_POLL_PERIOD == 1 {
            budget::check()?;
        }
        let (qa, qb) = pairs[q];
        while trans.len() < (q + 1) * alpha as usize {
            trans.push(usize::MAX);
        }
        for sym in 0..alpha {
            let next = (a.next(qa, sym), b.next(qb, sym));
            let target = match index.get(&next) {
                Some(&t) => t,
                None => {
                    let t = pairs.len();
                    index.insert(next, t);
                    pairs.push(next);
                    work.push(t);
                    t
                }
            };
            trans[q * alpha as usize + sym as usize] = target;
        }
    }
    while trans.len() < pairs.len() * alpha as usize {
        trans.push(usize::MAX);
    }
    let accepting: Vec<bool> = pairs
        .iter()
        .map(|&(qa, qb)| match combine {
            Combine::And => a.is_accepting(qa) && b.is_accepting(qb),
            Combine::Or => a.is_accepting(qa) || b.is_accepting(qb),
            Combine::AndNot => a.is_accepting(qa) && !b.is_accepting(qb),
        })
        .collect();
    Ok(Dfa::from_parts(alpha, trans, 0, accepting))
}

impl Dfa {
    /// Assembles a DFA from raw parts (used by the product construction).
    ///
    /// # Panics
    ///
    /// Panics if the transition table shape does not match.
    pub fn from_parts(
        alphabet_size: u32,
        trans: Vec<usize>,
        start: usize,
        accepting: Vec<bool>,
    ) -> Dfa {
        assert_eq!(trans.len(), accepting.len() * alphabet_size as usize);
        assert!(start < accepting.len());
        assert!(trans.iter().all(|&t| t < accepting.len()));
        Dfa::from_raw_parts(alphabet_size, trans, start, accepting)
    }
}

/// `L(a) ∩ L(b)`.
pub fn intersection(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, Combine::And)
}

/// `L(a) ∪ L(b)`.
pub fn union(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, Combine::Or)
}

/// `L(a) \ L(b)`.
pub fn difference(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, Combine::AndNot)
}

/// [`intersection`] cooperating with the installed budget.
pub fn try_intersection(a: &Dfa, b: &Dfa) -> Result<Dfa, Exhausted> {
    try_product(a, b, Combine::And)
}

/// [`union`] cooperating with the installed budget.
pub fn try_union(a: &Dfa, b: &Dfa) -> Result<Dfa, Exhausted> {
    try_product(a, b, Combine::Or)
}

/// [`difference`] cooperating with the installed budget.
pub fn try_difference(a: &Dfa, b: &Dfa) -> Result<Dfa, Exhausted> {
    try_product(a, b, Combine::AndNot)
}

/// Whether `L(a) ⊆ L(b)`, on the fly via the antichain engine.
pub fn included(a: &Dfa, b: &Dfa) -> bool {
    antichain::dfa_counterexample_unbudgeted(a, b).is_none()
}

/// Whether `L(a) = L(b)`.
pub fn equivalent(a: &Dfa, b: &Dfa) -> bool {
    included(a, b) && included(b, a)
}

/// Whether `L(a) ∩ L(b) = ∅`, on the fly via the antichain engine.
pub fn disjoint(a: &Dfa, b: &Dfa) -> bool {
    antichain::dfa_disjoint_unbudgeted(a, b)
}

/// A word in `L(a) \ L(b)`, if any (witness for non-inclusion). The
/// antichain search early-exits on the first witness it generates, so the
/// word is genuinely in the difference but not necessarily the shortest.
pub fn counterexample(a: &Dfa, b: &Dfa) -> Option<Vec<Sym>> {
    antichain::dfa_counterexample_unbudgeted(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn dfa(r: &Regex) -> Dfa {
        Dfa::from_regex(r, 2)
    }

    fn starts_with_0() -> Regex {
        Regex::symbol(0).then(Regex::symbol(0).or(Regex::symbol(1)).star())
    }

    fn ends_with_1() -> Regex {
        Regex::symbol(0).or(Regex::symbol(1)).star().then(Regex::symbol(1))
    }

    #[test]
    fn intersection_checks_both() {
        let d = intersection(&dfa(&starts_with_0()), &dfa(&ends_with_1()));
        assert!(d.accepts(&[0, 1]));
        assert!(d.accepts(&[0, 0, 1]));
        assert!(!d.accepts(&[0]));
        assert!(!d.accepts(&[1, 1]));
    }

    #[test]
    fn union_checks_either() {
        let d = union(&dfa(&starts_with_0()), &dfa(&ends_with_1()));
        assert!(d.accepts(&[0]));
        assert!(d.accepts(&[1, 1]));
        assert!(!d.accepts(&[1, 0]));
    }

    #[test]
    fn difference_and_counterexample() {
        let a = dfa(&starts_with_0());
        let b = dfa(&ends_with_1());
        let d = difference(&a, &b);
        assert!(d.accepts(&[0]));
        assert!(!d.accepts(&[0, 1]));
        let cex = counterexample(&a, &b).expect("not included");
        assert!(a.accepts(&cex) && !b.accepts(&cex));
    }

    #[test]
    fn inclusion() {
        // 0·1 ⊆ starts-with-0.
        let small = dfa(&Regex::symbol(0).then(Regex::symbol(1)));
        assert!(included(&small, &dfa(&starts_with_0())));
        assert!(!included(&dfa(&starts_with_0()), &small));
    }

    #[test]
    fn equivalence_of_different_syntax() {
        // (0*)* ≡ 0*.
        let a = dfa(&Regex::symbol(0).star());
        let b =
            dfa(&Regex::Star(std::sync::Arc::new(Regex::Star(std::sync::Arc::new(Regex::Sym(0))))));
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn union_covers_the_split_pieces() {
        // Splitting r = a|b into pieces and unioning them back is the
        // identity — the invariant REFINEPARTITION relies on.
        let a = Regex::symbol(0).then(Regex::symbol(1));
        let b = Regex::symbol(1).then(Regex::symbol(0));
        let whole = dfa(&a.clone().or(b.clone()));
        let back = union(&dfa(&a), &dfa(&b));
        assert!(equivalent(&whole, &back));
    }

    #[test]
    fn star_split_covers() {
        // r* = ε | r·r* — the loop-splitting invariant.
        let r = Regex::symbol(0).then(Regex::symbol(1));
        let star = dfa(&r.clone().star());
        let eps_side = dfa(&Regex::Epsilon);
        let unrolled = dfa(&r.clone().then(r.star()));
        assert!(equivalent(&star, &union(&eps_side, &unrolled)));
    }

    #[test]
    fn disjointness() {
        let a = dfa(&Regex::symbol(0));
        let b = dfa(&Regex::symbol(1));
        assert!(disjoint(&a, &b));
        assert!(!disjoint(&a, &dfa(&starts_with_0())));
    }
}
