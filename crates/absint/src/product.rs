//! The synchronous product of a CFG with a trail DFA.
//!
//! "We equip a standard abstract interpreter with the ability to consult an
//! oracle (the synthesized trails) to decide which CFG arcs to follow"
//! (Sec. 1). Here the oracle is compiled away: analyzing the product graph
//! *is* following only the arcs the trail allows.

use crate::alphabet::EdgeAlphabet;
use blazer_automata::Dfa;
use blazer_ir::{Cfg, Cond, Edge, Function, NodeId};
use std::collections::BTreeMap;

/// Index of a node in a [`ProductGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProductNodeId(pub usize);

/// A node of the product graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductNode {
    /// The underlying CFG node (block or virtual exit).
    pub cfg_node: NodeId,
    /// The trail-DFA state, or `None` for the unrestricted graph.
    pub dfa_state: Option<usize>,
}

/// An edge of the product graph.
#[derive(Debug, Clone)]
pub struct ProductEdge {
    /// Source node.
    pub from: ProductNodeId,
    /// Target node.
    pub to: ProductNodeId,
    /// The CFG edge this product edge projects to.
    pub cfg_edge: Edge,
    /// For branch edges: the condition and whether this is the taken arm.
    pub cond: Option<(Cond, bool)>,
}

/// A (possibly trail-restricted) product graph ready for abstract
/// interpretation and bound analysis.
#[derive(Debug, Clone)]
pub struct ProductGraph {
    nodes: Vec<ProductNode>,
    edges: Vec<ProductEdge>,
    entry: ProductNodeId,
    /// Nodes representing an *accepted* exit (CFG exit + accepting DFA
    /// state).
    exits: Vec<ProductNodeId>,
    succs: Vec<Vec<usize>>, // edge indices
    preds: Vec<Vec<usize>>, // edge indices
}

impl ProductGraph {
    /// The unrestricted graph: isomorphic to the CFG itself.
    pub fn full(f: &Function, cfg: &Cfg) -> Self {
        let nodes: Vec<ProductNode> =
            cfg.nodes().map(|n| ProductNode { cfg_node: n, dfa_state: None }).collect();
        let mut edges = Vec::new();
        for e in cfg.edges() {
            edges.push(ProductEdge {
                from: ProductNodeId(e.from.index()),
                to: ProductNodeId(e.to.index()),
                cfg_edge: e,
                cond: branch_info(f, cfg, e),
            });
        }
        Self::assemble(
            nodes,
            edges,
            ProductNodeId(cfg.entry().index()),
            vec![ProductNodeId(cfg.exit().index())],
        )
    }

    /// The product of the CFG with a trail DFA over `alphabet`.
    ///
    /// Product states whose DFA component cannot reach an accepting state
    /// are pruned (an execution prefix that can no longer match the trail is
    /// not in the trail's language).
    pub fn restricted(f: &Function, cfg: &Cfg, dfa: &Dfa, alphabet: &EdgeAlphabet) -> Self {
        assert_eq!(
            dfa.alphabet_size() as usize,
            alphabet.len(),
            "trail DFA alphabet must match the CFG edge alphabet"
        );
        let live = coaccessible(dfa);
        let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut nodes: Vec<ProductNode> = Vec::new();
        let mut edges: Vec<ProductEdge> = Vec::new();
        let start = (cfg.entry().index(), dfa.start());
        if !live[dfa.start()] {
            // The trail is empty: produce a graph with just the entry.
            let nodes = vec![ProductNode { cfg_node: cfg.entry(), dfa_state: Some(dfa.start()) }];
            return Self::assemble(nodes, Vec::new(), ProductNodeId(0), Vec::new());
        }
        index.insert(start, 0);
        nodes.push(ProductNode { cfg_node: cfg.entry(), dfa_state: Some(dfa.start()) });
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            let (cn_idx, q) = {
                let n = nodes[i];
                (n.cfg_node, n.dfa_state.unwrap())
            };
            for &succ in cfg.succs(cn_idx) {
                let e = Edge::new(cn_idx, succ);
                let q2 = dfa.next(q, alphabet.sym(e));
                if !live[q2] {
                    continue;
                }
                let key = (succ.index(), q2);
                let j = match index.get(&key) {
                    Some(&j) => j,
                    None => {
                        let j = nodes.len();
                        index.insert(key, j);
                        nodes.push(ProductNode { cfg_node: succ, dfa_state: Some(q2) });
                        work.push(j);
                        j
                    }
                };
                edges.push(ProductEdge {
                    from: ProductNodeId(i),
                    to: ProductNodeId(j),
                    cfg_edge: e,
                    cond: branch_info(f, cfg, e),
                });
            }
        }
        let exits = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.cfg_node == cfg.exit() && n.dfa_state.is_some_and(|q| dfa.is_accepting(q))
            })
            .map(|(i, _)| ProductNodeId(i))
            .collect();
        Self::assemble(nodes, edges, ProductNodeId(0), exits)
    }

    /// Assembles a graph from explicit parts (used by the seeding module to
    /// build header-split loop bodies).
    pub fn from_parts(
        nodes: Vec<ProductNode>,
        edges: Vec<ProductEdge>,
        entry: ProductNodeId,
        exits: Vec<ProductNodeId>,
    ) -> Self {
        Self::assemble(nodes, edges, entry, exits)
    }

    fn assemble(
        nodes: Vec<ProductNode>,
        edges: Vec<ProductEdge>,
        entry: ProductNodeId,
        exits: Vec<ProductNodeId>,
    ) -> Self {
        let mut succs = vec![Vec::new(); nodes.len()];
        let mut preds = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            succs[e.from.0].push(i);
            preds[e.to.0].push(i);
        }
        ProductGraph { nodes, edges, entry, exits, succs, preds }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ProductNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[ProductEdge] {
        &self.edges
    }

    /// One node.
    pub fn node(&self, id: ProductNodeId) -> ProductNode {
        self.nodes[id.0]
    }

    /// The entry node.
    pub fn entry(&self) -> ProductNodeId {
        self.entry
    }

    /// Accepted exit nodes.
    pub fn exits(&self) -> &[ProductNodeId] {
        &self.exits
    }

    /// Indices into [`ProductGraph::edges`] of edges leaving `n`.
    pub fn succ_edges(&self, n: ProductNodeId) -> &[usize] {
        &self.succs[n.0]
    }

    /// Indices into [`ProductGraph::edges`] of edges entering `n`.
    pub fn pred_edges(&self, n: ProductNodeId) -> &[usize] {
        &self.preds[n.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true: entry always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> Vec<ProductNodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(usize, usize)> = vec![(self.entry.0, 0)];
        visited[self.entry.0] = true;
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            if *i < self.succs[n].len() {
                let t = self.edges[self.succs[n][*i]].to.0;
                *i += 1;
                if !visited[t] {
                    visited[t] = true;
                    stack.push((t, 0));
                }
            } else {
                order.push(ProductNodeId(n));
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Targets of back edges with respect to a DFS from the entry — the
    /// widening points.
    pub fn back_edge_targets(&self) -> Vec<ProductNodeId> {
        let rpo = self.reverse_postorder();
        let mut pos = vec![usize::MAX; self.nodes.len()];
        for (i, n) in rpo.iter().enumerate() {
            pos[n.0] = i;
        }
        let mut targets = Vec::new();
        for e in &self.edges {
            if pos[e.from.0] != usize::MAX
                && pos[e.to.0] != usize::MAX
                && pos[e.to.0] <= pos[e.from.0]
                && !targets.contains(&e.to)
            {
                targets.push(e.to);
            }
        }
        targets
    }

    /// Strongly connected components with more than one node or a self
    /// loop (i.e., the loops), in reverse topological order of Tarjan's
    /// algorithm (inner-to-outer is *not* guaranteed; the bound analysis
    /// recurses explicitly).
    pub fn cyclic_sccs(&self) -> Vec<Vec<ProductNodeId>> {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<ProductNodeId>> = Vec::new();

        // Iterative Tarjan.
        #[derive(Debug)]
        struct Frame {
            node: usize,
            succ_pos: usize,
        }
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut frames = vec![Frame { node: root, succ_pos: 0 }];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(frame) = frames.last_mut() {
                let v = frame.node;
                if frame.succ_pos < self.succs[v].len() {
                    let w = self.edges[self.succs[v][frame.succ_pos]].to.0;
                    frame.succ_pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push(Frame { node: w, succ_pos: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            comp.push(ProductNodeId(w));
                            if w == v {
                                break;
                            }
                        }
                        let cyclic = comp.len() > 1
                            || self.succs[v].iter().any(|&ei| self.edges[ei].to.0 == v);
                        if cyclic {
                            comp.sort();
                            sccs.push(comp);
                        }
                    }
                    let finished = frames.pop().unwrap().node;
                    if let Some(parent) = frames.last() {
                        low[parent.node] = low[parent.node].min(low[finished]);
                    }
                }
            }
        }
        sccs
    }
}

/// DFA states from which some accepting state is reachable.
fn coaccessible(dfa: &Dfa) -> Vec<bool> {
    let n = dfa.n_states();
    // Reverse edges.
    let mut rev = vec![Vec::new(); n];
    for q in 0..n {
        for s in 0..dfa.alphabet_size() {
            rev[dfa.next(q, s)].push(q);
        }
    }
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&q| dfa.is_accepting(q)).collect();
    for &q in &stack {
        live[q] = true;
    }
    while let Some(q) = stack.pop() {
        for &p in &rev[q] {
            if !live[p] {
                live[p] = true;
                stack.push(p);
            }
        }
    }
    live
}

/// The branch condition attached to a CFG edge, if its source is a branch.
fn branch_info(f: &Function, cfg: &Cfg, e: Edge) -> Option<(Cond, bool)> {
    let bid = e.from.as_block(cfg.n_blocks())?;
    match &f.block(bid).term {
        blazer_ir::Terminator::Branch { cond, then_bb, else_bb } => {
            if then_bb == else_bb {
                // Both arms coincide: the edge carries no information.
                return None;
            }
            let taken = NodeId::block(*then_bb) == e.to;
            Some((cond.clone(), taken))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::EdgeAlphabet;
    use blazer_automata::{graph_to_regex, Dfa, Regex};
    use blazer_lang::compile;

    fn loop_fn() -> (blazer_ir::Program, String) {
        let src = "fn f(n: int) { let i: int = 0; while (i < n) { i = i + 1; } }";
        (compile(src).unwrap(), "f".to_string())
    }

    #[test]
    fn full_graph_mirrors_cfg() {
        let (p, name) = loop_fn();
        let f = p.function(&name).unwrap();
        let cfg = Cfg::new(f);
        let g = ProductGraph::full(f, &cfg);
        assert_eq!(g.len(), cfg.n_nodes());
        assert_eq!(g.edges().len(), cfg.edges().len());
        assert_eq!(g.exits().len(), 1);
        // Branch edges carry their conditions.
        let n_cond = g.edges().iter().filter(|e| e.cond.is_some()).count();
        assert_eq!(n_cond, 2);
    }

    #[test]
    fn back_edges_and_sccs_found() {
        let (p, name) = loop_fn();
        let f = p.function(&name).unwrap();
        let cfg = Cfg::new(f);
        let g = ProductGraph::full(f, &cfg);
        assert_eq!(g.back_edge_targets().len(), 1);
        let sccs = g.cyclic_sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 2); // loop head + body
    }

    #[test]
    fn restriction_to_most_general_trail_is_identity_like() {
        let (p, name) = loop_fn();
        let f = p.function(&name).unwrap();
        let cfg = Cfg::new(f);
        let alpha = EdgeAlphabet::new(&cfg);
        // Most general trail: the CFG automaton's own language.
        let edges: Vec<(usize, blazer_automata::Sym, usize)> =
            cfg.edges().into_iter().map(|e| (e.from.index(), alpha.sym(e), e.to.index())).collect();
        let r = graph_to_regex(cfg.n_nodes(), &edges, cfg.entry().index(), &[cfg.exit().index()]);
        let dfa = Dfa::from_regex(&r, alpha.len() as u32).minimize();
        let g = ProductGraph::restricted(f, &cfg, &dfa, &alpha);
        // Every CFG node appears, and there is at least one accepted exit.
        assert!(g.len() >= cfg.n_nodes());
        assert!(!g.exits().is_empty());
        assert_eq!(g.cyclic_sccs().len(), 1);
    }

    #[test]
    fn restriction_to_empty_trail_has_no_exit() {
        let (p, name) = loop_fn();
        let f = p.function(&name).unwrap();
        let cfg = Cfg::new(f);
        let alpha = EdgeAlphabet::new(&cfg);
        let dfa = Dfa::from_regex(&Regex::Empty, alpha.len() as u32);
        let g = ProductGraph::restricted(f, &cfg, &dfa, &alpha);
        assert!(g.exits().is_empty());
    }

    #[test]
    fn restriction_unrolls_loops() {
        // Trail taking the loop exactly once: product duplicates the head.
        let (p, name) = loop_fn();
        let f = p.function(&name).unwrap();
        let cfg = Cfg::new(f);
        let alpha = EdgeAlphabet::new(&cfg);
        // Build the trail: entry→head (head→body body→head) head→after
        // after→exit, i.e. exactly one iteration.
        let find = |from: usize, to: usize| {
            alpha.sym(Edge::new(
                NodeId::block(blazer_ir::BlockId::new(from as u32)),
                if to == cfg.n_blocks() {
                    cfg.exit()
                } else {
                    NodeId::block(blazer_ir::BlockId::new(to as u32))
                },
            ))
        };
        let r = Regex::symbol(find(0, 1))
            .then(Regex::symbol(find(1, 2)))
            .then(Regex::symbol(find(2, 1)))
            .then(Regex::symbol(find(1, 3)))
            .then(Regex::symbol(find(3, 4)));
        let dfa = Dfa::from_regex(&r, alpha.len() as u32).minimize();
        let g = ProductGraph::restricted(f, &cfg, &dfa, &alpha);
        // The loop head appears twice (before and after the iteration), and
        // the product graph is acyclic.
        let head_copies = g
            .nodes()
            .iter()
            .filter(|n| n.cfg_node == NodeId::block(blazer_ir::BlockId::new(1)))
            .count();
        assert_eq!(head_copies, 2);
        assert!(g.cyclic_sccs().is_empty());
        assert_eq!(g.exits().len(), 1);
    }
}
