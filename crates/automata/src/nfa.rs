//! Nondeterministic finite automata with ε-transitions.

use crate::regex::Regex;
use crate::Sym;
use std::collections::BTreeSet;

/// An NFA over the alphabet `0..alphabet_size` with ε-transitions.
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet_size: u32,
    /// `trans[q]` = labeled edges out of state `q`.
    trans: Vec<Vec<(Sym, usize)>>,
    /// `eps[q]` = ε-successors of `q`.
    eps: Vec<Vec<usize>>,
    start: usize,
    accepting: BTreeSet<usize>,
}

impl Nfa {
    /// An NFA with `n_states` unconnected states accepting nothing.
    pub fn new(alphabet_size: u32, n_states: usize, start: usize) -> Self {
        Nfa {
            alphabet_size,
            trans: vec![Vec::new(); n_states],
            eps: vec![Vec::new(); n_states],
            start,
            accepting: BTreeSet::new(),
        }
    }

    /// Builds an NFA from a regex via Thompson's construction.
    pub fn from_regex(r: &Regex, alphabet_size: u32) -> Self {
        let mut nfa = Nfa::new(alphabet_size, 0, 0);
        let (s, f) = nfa.thompson(r);
        nfa.start = s;
        nfa.accepting.insert(f);
        nfa
    }

    /// Thompson fragment for `r`, returning `(start, accept)`.
    fn thompson(&mut self, r: &Regex) -> (usize, usize) {
        match r {
            Regex::Empty => {
                let s = self.add_state();
                let f = self.add_state();
                (s, f)
            }
            Regex::Epsilon => {
                let s = self.add_state();
                let f = self.add_state();
                self.eps[s].push(f);
                (s, f)
            }
            Regex::Sym(sym) => {
                let s = self.add_state();
                let f = self.add_state();
                self.trans[s].push((*sym, f));
                (s, f)
            }
            Regex::Concat(a, b) => {
                let (sa, fa) = self.thompson(a);
                let (sb, fb) = self.thompson(b);
                self.eps[fa].push(sb);
                (sa, fb)
            }
            Regex::Union(a, b) => {
                let s = self.add_state();
                let f = self.add_state();
                let (sa, fa) = self.thompson(a);
                let (sb, fb) = self.thompson(b);
                self.eps[s].push(sa);
                self.eps[s].push(sb);
                self.eps[fa].push(f);
                self.eps[fb].push(f);
                (s, f)
            }
            Regex::Star(a) => {
                let s = self.add_state();
                let f = self.add_state();
                let (sa, fa) = self.thompson(a);
                self.eps[s].push(sa);
                self.eps[s].push(f);
                self.eps[fa].push(sa);
                self.eps[fa].push(f);
                (s, f)
            }
        }
    }

    /// Builds an NFA directly from a labeled graph: one automaton state per
    /// graph node, transition `from --sym--> to` per edge. Used for CFG
    /// automata, whose final state is the exit node (Sec. 4.1).
    pub fn from_graph(
        alphabet_size: u32,
        n_nodes: usize,
        edges: &[(usize, Sym, usize)],
        start: usize,
        accepting: &[usize],
    ) -> Self {
        let mut nfa = Nfa::new(alphabet_size, n_nodes, start);
        for &(from, sym, to) in edges {
            nfa.trans[from].push((sym, to));
        }
        nfa.accepting.extend(accepting.iter().copied());
        nfa
    }

    fn add_state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    /// Adds a labeled transition.
    pub fn add_transition(&mut self, from: usize, sym: Sym, to: usize) {
        assert!(sym < self.alphabet_size, "symbol out of alphabet");
        self.trans[from].push((sym, to));
    }

    /// Marks a state as accepting.
    pub fn set_accepting(&mut self, q: usize) {
        self.accepting.insert(q);
    }

    /// The alphabet size.
    pub fn alphabet_size(&self) -> u32 {
        self.alphabet_size
    }

    /// The number of states.
    pub fn n_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The accepting states.
    pub fn accepting(&self) -> &BTreeSet<usize> {
        &self.accepting
    }

    /// ε-closure of a set of states.
    pub fn eps_closure(&self, states: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut out = states.clone();
        let mut stack: Vec<usize> = states.iter().copied().collect();
        while let Some(q) = stack.pop() {
            for &t in &self.eps[q] {
                if out.insert(t) {
                    stack.push(t);
                }
            }
        }
        out
    }

    /// The set reached from `states` on `sym` (before ε-closure).
    pub fn step(&self, states: &BTreeSet<usize>, sym: Sym) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &q in states {
            for &(s, t) in &self.trans[q] {
                if s == sym {
                    out.insert(t);
                }
            }
        }
        out
    }

    /// Whether the NFA accepts `word`.
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut cur = self.eps_closure(&BTreeSet::from([self.start]));
        for &sym in word {
            cur = self.eps_closure(&self.step(&cur, sym));
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|q| self.accepting.contains(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thompson_basic() {
        let r = Regex::symbol(0).then(Regex::symbol(1));
        let n = Nfa::from_regex(&r, 2);
        assert!(n.accepts(&[0, 1]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[1, 0]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn thompson_star_and_union() {
        // (0|1)* 1
        let r = Regex::symbol(0).or(Regex::symbol(1)).star().then(Regex::symbol(1));
        let n = Nfa::from_regex(&r, 2);
        assert!(n.accepts(&[1]));
        assert!(n.accepts(&[0, 0, 1]));
        assert!(n.accepts(&[1, 1]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn empty_regex_accepts_nothing() {
        let n = Nfa::from_regex(&Regex::Empty, 1);
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[0]));
    }

    #[test]
    fn graph_automaton() {
        // 0 --a--> 1 --b--> 2 (accepting), plus loop 1 --c--> 1.
        let n = Nfa::from_graph(3, 3, &[(0, 0, 1), (1, 1, 2), (1, 2, 1)], 0, &[2]);
        assert!(n.accepts(&[0, 1]));
        assert!(n.accepts(&[0, 2, 2, 1]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[1]));
    }

    #[test]
    fn eps_closure_is_transitive() {
        let mut n = Nfa::new(1, 3, 0);
        n.eps[0].push(1);
        n.eps[1].push(2);
        let c = n.eps_closure(&BTreeSet::from([0]));
        assert_eq!(c, BTreeSet::from([0, 1, 2]));
    }
}
