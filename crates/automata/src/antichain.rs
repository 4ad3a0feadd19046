//! Antichain-based emptiness, inclusion, and equivalence over *lazy*
//! automata.
//!
//! Answering a yes/no question by *materializing* a product DFA and testing
//! it pays a full subset construction (and often a Moore minimization
//! downstream) even when the answer is decidable after visiting a handful of
//! states. This module decides on the fly instead, following the antichain
//! refinement-checking algorithms of Laveaux, Groote, and Willemse (LMCS
//! 2021, the algorithmic basis of mCRL2's refinement checker): explore the
//! macro-state space of a *lazily determinized* automaton, and prune every
//! macro-state that is *dominated* by one already explored.
//!
//! # The lazy automaton abstraction
//!
//! [`LazyDfa`] is a deterministic, complete automaton whose states are
//! produced on demand. Implementations:
//!
//! * [`NfaView`] — subset construction on demand: states are ε-closed
//!   NFA state sets, ordered by `⊇`;
//! * [`DfaView`] — a materialized [`Dfa`] viewed lazily (states are plain
//!   indices, domination is equality);
//! * [`ComplementView`] — flips acceptance *and the domination order* of an
//!   inner view;
//! * [`ProductAndView`] — the pairwise intersection of two views.
//!
//! `L(A) ⊆ L(B)` is emptiness of `And(A, Complement(B))`; disjointness is
//! emptiness of `And(A, B)`. Neither ever builds a full product table.
//!
//! # Soundness of the pruning
//!
//! [`LazyDfa::dominates`]`(x, y)` must imply `L(x) ⊇ L(y)`, where `L(q)` is
//! the set of words accepted *from* `q`. The search maintains the invariant
//! that every discarded state is dominated by some state that stays alive
//! (domination — language containment — is transitive, so a chain of kills
//! always terminates in a live dominator). Any accepting path from a
//! discarded state therefore also exists from its live dominator, so
//! pruning never changes the emptiness answer; and because witnesses are
//! read off real `step` paths, a returned word is always genuinely accepted.
//! Termination: a kill requires *strict* domination (a dominated candidate
//! is never inserted in the first place), so no state is ever re-inserted,
//! and the state space is finite.
//!
//! # Counters
//!
//! Every search adds its macro-states explored and prunes to the installed
//! `blazer_ir::budget` ledger, the one the driver installs per analysis and
//! every worker thread re-installs, so counts aggregate across workers.
//! [`AntichainStats`] is the per-analysis view of those two counters.

use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::Sym;
use blazer_ir::budget::{self, Exhausted};
use std::collections::{BTreeSet, VecDeque};

/// A deterministic, complete automaton whose states are produced on demand.
///
/// Implementations must keep [`LazyDfa::dominates`] consistent with the
/// language order: `dominates(x, y)` must imply that every word accepted
/// from `y` is also accepted from `x`. Returning plain equality is always
/// sound (it degrades the antichain to ordinary visited-set deduplication).
pub trait LazyDfa {
    /// The on-demand state representation.
    type State: Clone + Ord;

    /// The alphabet size; symbols range over `0..alphabet_size`.
    fn alphabet_size(&self) -> u32;

    /// The initial state.
    fn start(&self) -> Self::State;

    /// The unique successor of `q` on `sym`.
    fn step(&self, q: &Self::State, sym: Sym) -> Self::State;

    /// Whether `q` is accepting.
    fn accepting(&self, q: &Self::State) -> bool;

    /// Whether `x` subsumes `y`: `L(x) ⊇ L(y)` for the forward languages.
    fn dominates(&self, x: &Self::State, y: &Self::State) -> bool;
}

/// Subset construction on demand: the deterministic view of an [`Nfa`]
/// whose states are ε-closed state sets, never materialized into a table.
#[derive(Debug, Clone, Copy)]
pub struct NfaView<'a> {
    nfa: &'a Nfa,
}

impl<'a> NfaView<'a> {
    /// Wraps `nfa`.
    pub fn new(nfa: &'a Nfa) -> Self {
        NfaView { nfa }
    }
}

impl LazyDfa for NfaView<'_> {
    type State = BTreeSet<usize>;

    fn alphabet_size(&self) -> u32 {
        self.nfa.alphabet_size()
    }

    fn start(&self) -> BTreeSet<usize> {
        self.nfa.eps_closure(&BTreeSet::from([self.nfa.start()]))
    }

    fn step(&self, q: &BTreeSet<usize>, sym: Sym) -> BTreeSet<usize> {
        self.nfa.eps_closure(&self.nfa.step(q, sym))
    }

    fn accepting(&self, q: &BTreeSet<usize>) -> bool {
        q.iter().any(|s| self.nfa.accepting().contains(s))
    }

    fn dominates(&self, x: &Self::State, y: &Self::State) -> bool {
        x.is_superset(y)
    }
}

/// A materialized [`Dfa`] viewed lazily. Domination is equality: a DFA
/// state's forward language is canonical only after minimization, which is
/// exactly what this engine avoids running.
#[derive(Debug, Clone, Copy)]
pub struct DfaView<'a> {
    dfa: &'a Dfa,
}

impl<'a> DfaView<'a> {
    /// Wraps `dfa`.
    pub fn new(dfa: &'a Dfa) -> Self {
        DfaView { dfa }
    }
}

impl LazyDfa for DfaView<'_> {
    type State = usize;

    fn alphabet_size(&self) -> u32 {
        self.dfa.alphabet_size()
    }

    fn start(&self) -> usize {
        self.dfa.start()
    }

    fn step(&self, q: &usize, sym: Sym) -> usize {
        self.dfa.next(*q, sym)
    }

    fn accepting(&self, q: &usize) -> bool {
        self.dfa.is_accepting(*q)
    }

    fn dominates(&self, x: &usize, y: &usize) -> bool {
        x == y
    }
}

/// The complement of a lazy automaton: acceptance is flipped, and so is the
/// domination order (`L(x) ⊆ L(y)` iff `Σ* \ L(x) ⊇ Σ* \ L(y)`).
#[derive(Debug, Clone, Copy)]
pub struct ComplementView<A> {
    inner: A,
}

impl<A: LazyDfa> ComplementView<A> {
    /// Wraps `inner`. Sound because every [`LazyDfa`] is deterministic and
    /// complete by contract.
    pub fn new(inner: A) -> Self {
        ComplementView { inner }
    }
}

impl<A: LazyDfa> LazyDfa for ComplementView<A> {
    type State = A::State;

    fn alphabet_size(&self) -> u32 {
        self.inner.alphabet_size()
    }

    fn start(&self) -> A::State {
        self.inner.start()
    }

    fn step(&self, q: &A::State, sym: Sym) -> A::State {
        self.inner.step(q, sym)
    }

    fn accepting(&self, q: &A::State) -> bool {
        !self.inner.accepting(q)
    }

    fn dominates(&self, x: &A::State, y: &A::State) -> bool {
        self.inner.dominates(y, x)
    }
}

/// The intersection of two lazy automata: pairwise steps, conjunctive
/// acceptance, pairwise domination.
#[derive(Debug, Clone, Copy)]
pub struct ProductAndView<A, B> {
    a: A,
    b: B,
}

impl<A: LazyDfa, B: LazyDfa> ProductAndView<A, B> {
    /// Combines `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(a.alphabet_size(), b.alphabet_size(), "alphabet mismatch in lazy product");
        ProductAndView { a, b }
    }
}

impl<A: LazyDfa, B: LazyDfa> LazyDfa for ProductAndView<A, B> {
    type State = (A::State, B::State);

    fn alphabet_size(&self) -> u32 {
        self.a.alphabet_size()
    }

    fn start(&self) -> Self::State {
        (self.a.start(), self.b.start())
    }

    fn step(&self, q: &Self::State, sym: Sym) -> Self::State {
        (self.a.step(&q.0, sym), self.b.step(&q.1, sym))
    }

    fn accepting(&self, q: &Self::State) -> bool {
        self.a.accepting(&q.0) && self.b.accepting(&q.1)
    }

    fn dominates(&self, x: &Self::State, y: &Self::State) -> bool {
        self.a.dominates(&x.0, &y.0) && self.b.dominates(&x.1, &y.1)
    }
}

/// A shortest-ish accepted word of `a`, or `None` when `L(a) = ∅`.
///
/// Breadth-first over the macro-state space with antichain pruning and
/// early exit on the first accepting state generated. The word is read off
/// the real search path, so it is always genuinely accepted; with pruning
/// it is not guaranteed to be *the* shortest. Cooperates with the installed
/// `blazer_ir::budget` (checked once per expanded macro-state).
pub fn find_accepted_word<A: LazyDfa>(a: &A) -> Result<Option<Vec<Sym>>, Exhausted> {
    search(a, true)
}

/// [`find_accepted_word`] without budget cooperation, for callers that must
/// stay infallible (the [`crate::ops`] decision procedures, tests).
pub(crate) fn find_accepted_word_unbudgeted<A: LazyDfa>(a: &A) -> Option<Vec<Sym>> {
    search(a, false).expect("unbudgeted search cannot exhaust")
}

struct SearchNode<S> {
    state: S,
    /// Index of the parent node, or `usize::MAX` for the root.
    parent: usize,
    /// Symbol taken from the parent (meaningless for the root).
    sym: Sym,
    alive: bool,
}

fn search<A: LazyDfa>(a: &A, budgeted: bool) -> Result<Option<Vec<Sym>>, Exhausted> {
    let mut explored = 0u64;
    let mut prunes = 0u64;
    let out = search_inner(a, budgeted, &mut explored, &mut prunes);
    budget::note_macro_states(explored);
    budget::note_antichain_prunes(prunes);
    out
}

fn search_inner<A: LazyDfa>(
    a: &A,
    budgeted: bool,
    explored: &mut u64,
    prunes: &mut u64,
) -> Result<Option<Vec<Sym>>, Exhausted> {
    let alpha = a.alphabet_size();
    let start = a.start();
    *explored += 1;
    if a.accepting(&start) {
        return Ok(Some(Vec::new()));
    }
    let mut nodes = vec![SearchNode { state: start, parent: usize::MAX, sym: 0, alive: true }];
    let mut queue = VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        if !nodes[i].alive {
            continue;
        }
        if budgeted {
            budget::check()?;
        }
        *explored += 1;
        for sym in 0..alpha {
            let next = a.step(&nodes[i].state, sym);
            if a.accepting(&next) {
                let mut word = vec![sym];
                let mut cur = i;
                while nodes[cur].parent != usize::MAX {
                    word.push(nodes[cur].sym);
                    cur = nodes[cur].parent;
                }
                word.reverse();
                return Ok(Some(word));
            }
            // Antichain insertion: skip a candidate dominated by any live
            // state; kill live states the candidate strictly dominates.
            if nodes.iter().any(|n| n.alive && a.dominates(&n.state, &next)) {
                *prunes += 1;
                continue;
            }
            for n in nodes.iter_mut() {
                if n.alive && a.dominates(&next, &n.state) {
                    n.alive = false;
                    *prunes += 1;
                }
            }
            nodes.push(SearchNode { state: next, parent: i, sym, alive: true });
            queue.push_back(nodes.len() - 1);
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Decision procedures over NFAs (fully lazy: no DFA is ever materialized).
// ---------------------------------------------------------------------------

/// Whether `L(a) = ∅`, on the fly.
pub fn nfa_is_empty(a: &Nfa) -> Result<bool, Exhausted> {
    Ok(find_accepted_word(&NfaView::new(a))?.is_none())
}

/// A shortest-ish word of `L(a)`, if any.
pub fn nfa_example_word(a: &Nfa) -> Result<Option<Vec<Sym>>, Exhausted> {
    find_accepted_word(&NfaView::new(a))
}

/// Whether `L(a) ⊆ L(b)`, on the fly.
pub fn nfa_included(a: &Nfa, b: &Nfa) -> Result<bool, Exhausted> {
    Ok(nfa_counterexample(a, b)?.is_none())
}

/// A word in `L(a) \ L(b)`, if any (witness for non-inclusion).
pub fn nfa_counterexample(a: &Nfa, b: &Nfa) -> Result<Option<Vec<Sym>>, Exhausted> {
    let view = ProductAndView::new(NfaView::new(a), ComplementView::new(NfaView::new(b)));
    find_accepted_word(&view)
}

/// Whether `L(a) ∩ L(b) = ∅`, on the fly.
pub fn nfa_disjoint(a: &Nfa, b: &Nfa) -> Result<bool, Exhausted> {
    let view = ProductAndView::new(NfaView::new(a), NfaView::new(b));
    Ok(find_accepted_word(&view)?.is_none())
}

/// Whether `L(a) = L(b)`, on the fly (two inclusion checks).
pub fn nfa_equivalent(a: &Nfa, b: &Nfa) -> Result<bool, Exhausted> {
    Ok(nfa_included(a, b)? && nfa_included(b, a)?)
}

/// Whether `L(a) ∩ L(b) ∩ L(c) = ∅`, on the fly (the cover check of the
/// block-split refinement strategy).
pub fn nfa_intersect3_empty(a: &Nfa, b: &Nfa, c: &Nfa) -> Result<bool, Exhausted> {
    let view =
        ProductAndView::new(ProductAndView::new(NfaView::new(a), NfaView::new(b)), NfaView::new(c));
    Ok(find_accepted_word(&view)?.is_none())
}

// ---------------------------------------------------------------------------
// Decision procedures over materialized DFAs (no product is materialized).
// ---------------------------------------------------------------------------

/// Whether `L(a) ⊆ L(b)` without materializing the difference product.
pub fn dfa_included(a: &Dfa, b: &Dfa) -> Result<bool, Exhausted> {
    Ok(dfa_counterexample(a, b)?.is_none())
}

/// A word in `L(a) \ L(b)`, if any, without materializing the product.
pub fn dfa_counterexample(a: &Dfa, b: &Dfa) -> Result<Option<Vec<Sym>>, Exhausted> {
    let view = ProductAndView::new(DfaView::new(a), ComplementView::new(DfaView::new(b)));
    find_accepted_word(&view)
}

/// Whether `L(a) ∩ L(b) = ∅` without materializing the product.
pub fn dfa_disjoint(a: &Dfa, b: &Dfa) -> Result<bool, Exhausted> {
    let view = ProductAndView::new(DfaView::new(a), DfaView::new(b));
    Ok(find_accepted_word(&view)?.is_none())
}

/// Whether `L(a) = L(b)` without materializing either difference product.
pub fn dfa_equivalent(a: &Dfa, b: &Dfa) -> Result<bool, Exhausted> {
    Ok(dfa_included(a, b)? && dfa_included(b, a)?)
}

pub(crate) fn dfa_counterexample_unbudgeted(a: &Dfa, b: &Dfa) -> Option<Vec<Sym>> {
    let view = ProductAndView::new(DfaView::new(a), ComplementView::new(DfaView::new(b)));
    find_accepted_word_unbudgeted(&view)
}

pub(crate) fn dfa_disjoint_unbudgeted(a: &Dfa, b: &Dfa) -> bool {
    let view = ProductAndView::new(DfaView::new(a), DfaView::new(b));
    find_accepted_word_unbudgeted(&view).is_none()
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// The antichain engine's work counters for one analysis, as read off the
/// budget ledger ([`blazer_ir::budget::BudgetReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntichainStats {
    /// Macro-states expanded by the lazy searches.
    pub macro_states_explored: u64,
    /// Candidate macro-states discarded (or live states killed) by
    /// ⊆-domination.
    pub antichain_prunes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::regex::Regex;
    use blazer_ir::budget::{self, Budget, Resource};
    use std::time::Duration;

    fn nfa(r: &Regex, alpha: u32) -> Nfa {
        Nfa::from_regex(r, alpha)
    }

    fn dfa(r: &Regex, alpha: u32) -> Dfa {
        Dfa::from_regex(r, alpha)
    }

    fn starts_with_0() -> Regex {
        Regex::symbol(0).then(Regex::symbol(0).or(Regex::symbol(1)).star())
    }

    fn ends_with_1() -> Regex {
        Regex::symbol(0).or(Regex::symbol(1)).star().then(Regex::symbol(1))
    }

    #[test]
    fn lazy_emptiness_matches_eager() {
        for (r, empty) in [
            (Regex::Empty, true),
            (Regex::Epsilon, false),
            (starts_with_0(), false),
            (Regex::symbol(0).then(Regex::Empty), true),
        ] {
            assert_eq!(nfa_is_empty(&nfa(&r, 2)).unwrap(), empty, "{r}");
            assert_eq!(dfa(&r, 2).is_empty(), empty, "{r}");
        }
    }

    #[test]
    fn lazy_inclusion_and_witnesses() {
        let a = nfa(&Regex::symbol(0).then(Regex::symbol(1)), 2);
        let b = nfa(&starts_with_0(), 2);
        assert!(nfa_included(&a, &b).unwrap());
        assert!(!nfa_included(&b, &a).unwrap());
        let w = nfa_counterexample(&b, &a).unwrap().expect("not included");
        assert!(b.accepts(&w) && !a.accepts(&w), "{w:?}");
    }

    #[test]
    fn lazy_disjointness() {
        let a = nfa(&Regex::symbol(0), 2);
        let b = nfa(&Regex::symbol(1), 2);
        assert!(nfa_disjoint(&a, &b).unwrap());
        assert!(!nfa_disjoint(&a, &nfa(&starts_with_0(), 2)).unwrap());
    }

    #[test]
    fn lazy_equivalence_of_different_syntax() {
        // (0*)* ≡ 0*.
        let a = nfa(&Regex::symbol(0).star(), 1);
        let b = nfa(&Regex::symbol(0).star().star(), 1);
        assert!(nfa_equivalent(&a, &b).unwrap());
        assert!(!nfa_equivalent(&a, &nfa(&Regex::symbol(0), 1)).unwrap());
    }

    #[test]
    fn triple_intersection_emptiness() {
        let a = nfa(&starts_with_0(), 2);
        let b = nfa(&ends_with_1(), 2);
        let only_zeros = nfa(&Regex::symbol(0).star(), 2);
        assert!(nfa_intersect3_empty(&a, &b, &only_zeros).unwrap());
        assert!(!nfa_intersect3_empty(&a, &b, &nfa(&starts_with_0(), 2)).unwrap());
    }

    #[test]
    fn dfa_level_procedures_match_classic_products() {
        let a = dfa(&starts_with_0(), 2);
        let b = dfa(&ends_with_1(), 2);
        assert_eq!(dfa_included(&a, &b).unwrap(), ops::difference(&a, &b).is_empty());
        assert_eq!(dfa_disjoint(&a, &b).unwrap(), ops::intersection(&a, &b).is_empty());
        let w = dfa_counterexample(&a, &b).unwrap().expect("not included");
        assert!(a.accepts(&w) && !b.accepts(&w));
        assert!(dfa_equivalent(&a, &dfa(&starts_with_0(), 2)).unwrap());
    }

    /// The adversarial inclusion family `(0|1)*·1·(0|1)ⁿ ⊆ Σ*`: the eager
    /// engine determinizes the left side into 2ⁿ⁺¹ states before it can
    /// even ask the question; the ⊇-antichain collapses each BFS level to
    /// its maximal subset state and answers in O(n) macro-states.
    #[test]
    fn antichain_beats_eager_subset_construction() {
        const N: usize = 11;
        let any = Regex::symbol(0).or(Regex::symbol(1));
        let mut family = any.clone().star().then(Regex::symbol(1));
        for _ in 0..N {
            family = family.then(any.clone());
        }
        let sigma_star = any.star();
        let left = nfa(&family, 2);
        let right = nfa(&sigma_star, 2);
        let _guard = Budget::unlimited().install();
        assert!(nfa_included(&left, &right).unwrap());
        let report = budget::report();
        // The eager engine pays the full exponential determinization.
        assert!(dfa(&family, 2).n_states() as u64 > 1 << N);
        // The antichain stays linear (with comfortable slack).
        assert!(
            report.macro_states_explored < 16 * (N as u64 + 2),
            "explored {} macro-states",
            report.macro_states_explored
        );
        assert!(report.antichain_prunes > 0);
    }

    #[test]
    fn stats_ledger_installs_stack_and_aggregate_across_threads() {
        // `(0|1)*·1·(0|1)² ⊆ Σ*` both explores and prunes.
        let any = Regex::symbol(0).or(Regex::symbol(1));
        let a =
            nfa(&any.clone().star().then(Regex::symbol(1)).then(any.clone()).then(any.clone()), 2);
        let b = nfa(&any.star(), 2);
        let search = || assert!(nfa_included(&a, &b).unwrap());
        // One search's counts, on a ledger of its own.
        let one = {
            let _guard = Budget::unlimited().install();
            search();
            budget::report()
        };
        assert!(one.macro_states_explored > 0 && one.antichain_prunes > 0, "{one:?}");
        let _outer_guard = Budget::unlimited().install();
        {
            // A nested install takes the counts while its guard lives.
            let _inner_guard = Budget::unlimited().install();
            search();
            assert_eq!(budget::report().macro_states_explored, one.macro_states_explored);
        }
        // Outer ledger restored and untouched; two worker threads land on
        // it through the shared handle and their counts add up.
        assert_eq!(budget::report().macro_states_explored, 0);
        let handle = budget::handle().expect("ledger installed");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = handle.install();
                    search();
                });
            }
        });
        let both = budget::report();
        assert_eq!(both.macro_states_explored, 2 * one.macro_states_explored);
        assert_eq!(both.antichain_prunes, 2 * one.antichain_prunes);
    }

    #[test]
    fn searches_cooperate_with_the_budget() {
        let _guard = Budget::unlimited().with_deadline(Duration::ZERO).install();
        let a = nfa(&starts_with_0(), 2);
        let err = nfa_included(&a, &nfa(&ends_with_1(), 2)).unwrap_err();
        assert_eq!(err.resource, Resource::WallClock);
        // The unbudgeted path stays infallible under the same dead budget.
        assert!(find_accepted_word_unbudgeted(&NfaView::new(&a)).is_some());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Builds a small random regex over {0, 1} from a stack-machine
        /// program (shrinks nicely and never parses).
        fn build(prog: &[(usize, usize)]) -> Regex {
            let mut stack: Vec<Regex> = Vec::new();
            for &(op, s) in prog {
                match op {
                    0 | 1 => stack.push(Regex::symbol(s as Sym)),
                    2 => {
                        if let (Some(b), Some(a)) = (stack.pop(), stack.pop()) {
                            stack.push(a.or(b));
                        }
                    }
                    3 => {
                        if let (Some(b), Some(a)) = (stack.pop(), stack.pop()) {
                            stack.push(a.then(b));
                        }
                    }
                    _ => {
                        if let Some(a) = stack.pop() {
                            stack.push(a.star());
                        }
                    }
                }
            }
            stack.into_iter().reduce(Regex::or).unwrap_or(Regex::Epsilon)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Antichain inclusion/disjointness/counterexamples agree with
            /// the classic difference-product implementation on random
            /// regex pairs, and every witness word is validated against
            /// both eager DFAs.
            #[test]
            fn antichain_agrees_with_classic_products(
                pa in proptest::collection::vec((0usize..5, 0usize..2), 1..12),
                pb in proptest::collection::vec((0usize..5, 0usize..2), 1..12),
            ) {
                let (ra, rb) = (build(&pa), build(&pb));
                let (da, db) = (dfa(&ra, 2), dfa(&rb, 2));
                let (na, nb) = (nfa(&ra, 2), nfa(&rb, 2));

                let classic_inc = ops::difference(&da, &db).is_empty();
                prop_assert_eq!(dfa_included(&da, &db).unwrap(), classic_inc);
                prop_assert_eq!(nfa_included(&na, &nb).unwrap(), classic_inc);

                let classic_dis = ops::intersection(&da, &db).is_empty();
                prop_assert_eq!(dfa_disjoint(&da, &db).unwrap(), classic_dis);
                prop_assert_eq!(nfa_disjoint(&na, &nb).unwrap(), classic_dis);

                match dfa_counterexample(&da, &db).unwrap() {
                    Some(w) => {
                        prop_assert!(!classic_inc);
                        prop_assert!(da.accepts(&w) && !db.accepts(&w));
                    }
                    None => prop_assert!(classic_inc),
                }
                match nfa_counterexample(&na, &nb).unwrap() {
                    Some(w) => {
                        prop_assert!(!classic_inc);
                        prop_assert!(na.accepts(&w) && !nb.accepts(&w));
                    }
                    None => prop_assert!(classic_inc),
                }

                prop_assert_eq!(
                    nfa_is_empty(&na).unwrap(),
                    da.is_empty()
                );
            }
        }
    }
}
