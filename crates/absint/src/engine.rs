//! The worklist fixpoint engine over product graphs.

use crate::dims::DimMap;
use crate::product::{ProductGraph, ProductNodeId};
use crate::transfer::{apply_cond, transfer_block};
use blazer_domains::AbstractDomain;
use blazer_ir::{Function, Program};

/// How many joins a widening point absorbs before widening kicks in.
const WIDENING_DELAY: usize = 2;

/// How many decreasing (narrowing) passes run after stabilization.
const NARROWING_PASSES: usize = 2;

/// The result of an abstract interpretation run.
#[derive(Debug, Clone)]
pub struct AnalysisResult<D> {
    /// Abstract state at each product node, *before* the node's block
    /// executes. Unreachable nodes are bottom.
    pub states: Vec<D>,
}

impl<D: AbstractDomain> AnalysisResult<D> {
    /// The state at `n`.
    pub fn state(&self, n: ProductNodeId) -> &D {
        &self.states[n.0]
    }

    /// The state flowing along edge `edge_idx`: the source state pushed
    /// through the source block and refined by the edge's branch condition.
    pub fn edge_output(
        &self,
        program: &Program,
        f: &Function,
        dims: &DimMap,
        graph: &ProductGraph,
        edge_idx: usize,
    ) -> D {
        let e = &graph.edges()[edge_idx];
        let mut d = self.states[e.from.0].clone();
        if let Some(bid) = graph
            .node(e.from)
            .cfg_node
            .as_block(usize::MAX)
            .filter(|b| b.index() < f.blocks().len())
        {
            transfer_block(program, f, dims, bid, &mut d);
        }
        if let Some((cond, taken)) = &e.cond {
            apply_cond(dims, cond, *taken, &mut d);
        }
        d
    }

    /// Whether an edge can ever be taken (its output is non-bottom). This
    /// is the infeasible-path pruning that lets Blazer verify examples like
    /// `loopAndBranch` where "the potentially vulnerable trail is
    /// infeasible, which is caught by the abstract interpreter" (Sec. 6).
    pub fn edge_feasible(
        &self,
        program: &Program,
        f: &Function,
        dims: &DimMap,
        graph: &ProductGraph,
        edge_idx: usize,
    ) -> bool {
        !self.edge_output(program, f, dims, graph, edge_idx).is_bottom()
    }
}

/// What one fixpoint run cost and how it started — surfaced so the driver
/// can report the pass savings of incremental seeding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Iteration passes consumed: increasing (widening) plus decreasing
    /// (narrowing) sweeps over the graph.
    pub passes: u64,
    /// Whether the run started from a non-⊥ seed iterate.
    pub seeded: bool,
}

/// Runs the fixpoint on `graph` starting from `init` at the entry node.
///
/// Widening (with a small delay counted in back-edge-contributing joins) is
/// applied at targets of back edges; after stabilization, two decreasing
/// passes recover precision lost to widening (e.g. loop exit bounds).
pub fn analyze<D: AbstractDomain>(
    program: &Program,
    f: &Function,
    dims: &DimMap,
    graph: &ProductGraph,
    init: D,
) -> AnalysisResult<D> {
    analyze_from(program, f, dims, graph, init, None).0
}

/// [`analyze`], but starting the increasing iteration from `seed` (one
/// state per product node) instead of ⊥-everywhere, and reporting pass
/// counts.
///
/// Any seed is sound: the increasing loop is inflationary (each update
/// joins the previous iterate), so whatever it starts from, the converged
/// states satisfy `state ⊇ F(state)` at every node — a post-fixpoint of
/// the abstract transition function, which over-approximates concrete
/// reachability — and narrowing preserves that. A seed *above* the least
/// fixpoint (e.g. a parent trail's post-states) converges in fewer passes;
/// a seed unrelated to it merely wastes precision, never soundness.
pub fn analyze_from<D: AbstractDomain>(
    program: &Program,
    f: &Function,
    dims: &DimMap,
    graph: &ProductGraph,
    init: D,
    seed: Option<Vec<D>>,
) -> (AnalysisResult<D>, FixpointStats) {
    let n = graph.len();
    let mut stats = FixpointStats { passes: 0, seeded: seed.is_some() };
    let mut states: Vec<D> = match seed {
        Some(seed) => {
            debug_assert_eq!(seed.len(), n, "seed must cover every product node");
            seed
        }
        None => (0..n).map(|_| D::bottom(dims.n_dims())).collect(),
    };
    states[graph.entry().0] = if stats.seeded {
        // Keep the seeded entry state too: the iterate may only grow.
        states[graph.entry().0].join(&init)
    } else {
        init.clone()
    };

    let widen_at: Vec<bool> = {
        let mut v = vec![false; n];
        for t in graph.back_edge_targets() {
            v[t.0] = true;
        }
        v
    };
    let rpo = graph.reverse_postorder();
    // Back edges: source at or after the target in reverse postorder.
    let mut rpo_pos = vec![usize::MAX; n];
    for (i, nd) in rpo.iter().enumerate() {
        rpo_pos[nd.0] = i;
    }
    let is_back_edge = |ei: usize| {
        let e = &graph.edges()[ei];
        rpo_pos[e.from.0] != usize::MAX
            && rpo_pos[e.to.0] != usize::MAX
            && rpo_pos[e.to.0] <= rpo_pos[e.from.0]
    };
    // The widening delay counts only updates where a back edge actually
    // contributes: churn from upstream stabilization must not exhaust the
    // delay before the loop's own relation has a chance to form.
    let mut join_counts = vec![0usize; n];

    // Increasing iteration with widening. The pass cap is a safety valve:
    // saturated widening stabilizes in a handful of passes in practice, but
    // if it ever oscillated we fall back to widening straight to top
    // (always sound).
    const MAX_PASSES: usize = 64;
    let mut result = AnalysisResult { states };
    // Edge-output memoization: a transfer only needs recomputing when its
    // source state changed.
    let mut node_version: Vec<u64> = vec![0; n];
    let mut edge_cache: Vec<Option<(u64, D)>> = vec![None; graph.edges().len()];
    let mut passes = 0usize;
    loop {
        if blazer_ir::budget::consume_fixpoint_pass().is_err() {
            // Budget exhausted mid-fixpoint: the current iterate is not yet a
            // post-fixpoint, so it cannot be used as an invariant. Widen every
            // state to top — trivially sound — and skip narrowing.
            blazer_ir::budget::note_degradation(
                "absint: fixpoint aborted by exhausted budget; states widened to top",
            );
            for s in result.states.iter_mut() {
                *s = D::top(dims.n_dims());
            }
            return (result, stats);
        }
        passes += 1;
        stats.passes += 1;
        let mut changed = false;
        for &node in &rpo {
            // A single pass over an expensive domain can outlive the whole
            // wall-clock budget; poll the deadline per node so one pass
            // cannot overshoot by more than one transfer's work. (Softer
            // caps — LP calls etc. — deny work at their own call sites.)
            if blazer_ir::budget::deadline_exceeded() {
                blazer_ir::budget::note_degradation(
                    "absint: fixpoint aborted by deadline mid-pass; states widened to top",
                );
                for s in result.states.iter_mut() {
                    *s = D::top(dims.n_dims());
                }
                return (result, stats);
            }
            let mut incoming =
                if node == graph.entry() { init.clone() } else { D::bottom(dims.n_dims()) };
            let mut back_contributes = false;
            for &ei in graph.pred_edges(node) {
                let from = graph.edges()[ei].from;
                let out = match &edge_cache[ei] {
                    Some((v, cached)) if *v == node_version[from.0] => cached.clone(),
                    _ => {
                        let out = result.edge_output(program, f, dims, graph, ei);
                        edge_cache[ei] = Some((node_version[from.0], out.clone()));
                        out
                    }
                };
                if !out.is_bottom() && is_back_edge(ei) {
                    back_contributes = true;
                }
                incoming = if widen_at[node.0] {
                    incoming.join_widen_point(&out)
                } else {
                    incoming.join(&out)
                };
            }
            let old = &result.states[node.0];
            let new = if widen_at[node.0] && join_counts[node.0] >= WIDENING_DELAY {
                if passes > MAX_PASSES {
                    D::top(dims.n_dims())
                } else {
                    old.widen(&old.join_widen_point(&incoming))
                }
            } else if widen_at[node.0] {
                old.join_widen_point(&incoming)
            } else {
                old.join(&incoming)
            };
            if !old.includes(&new) {
                node_version[node.0] += 1;
                if back_contributes {
                    join_counts[node.0] += 1;
                }
                result.states[node.0] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Decreasing iteration (narrowing): recompute states from scratch
    // inflow and *meet* with the previous iterate. The meet keeps the pass
    // sound and monotonically improving even though the weak join is not a
    // precise least upper bound.
    for _ in 0..NARROWING_PASSES {
        if blazer_ir::budget::consume_fixpoint_pass().is_err() {
            // The increasing phase converged, so `result` is already a sound
            // post-fixpoint; narrowing only refines it. Stop here.
            blazer_ir::budget::note_degradation("absint: narrowing skipped by exhausted budget");
            return (result, stats);
        }
        stats.passes += 1;
        for &node in &rpo {
            // As in the increasing phase: the converged iterate is already
            // sound, so a mid-pass deadline just stops refinement here.
            if blazer_ir::budget::deadline_exceeded() {
                blazer_ir::budget::note_degradation(
                    "absint: narrowing stopped by deadline mid-pass",
                );
                return (result, stats);
            }
            let mut incoming =
                if node == graph.entry() { init.clone() } else { D::bottom(dims.n_dims()) };
            for &ei in graph.pred_edges(node) {
                let out = result.edge_output(program, f, dims, graph, ei);
                incoming = incoming.join(&out);
            }
            if !incoming.is_bottom() {
                let old = result.states[node.0].to_polyhedron();
                for c in old.constraints() {
                    incoming.meet_constraint(c);
                }
            }
            result.states[node.0] = incoming;
        }
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::EdgeAlphabet;
    use crate::transfer::entry_state;
    use blazer_domains::{Constraint, IntervalVec, LinExpr, Polyhedron, Rat};
    use blazer_ir::{Cfg, NodeId};
    use blazer_lang::compile;

    fn analyze_full(
        src: &str,
    ) -> (blazer_ir::Program, DimMap, ProductGraph, AnalysisResult<Polyhedron>) {
        let p = compile(src).unwrap();
        let f = p.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dims = DimMap::new(f);
        let g = ProductGraph::full(f, &cfg);
        let init: Polyhedron = entry_state(f, &dims);
        let r = analyze(&p, f, &dims, &g, init);
        (p, dims, g, r)
    }

    /// Find the product node for a CFG node.
    fn node_for(g: &ProductGraph, n: NodeId) -> ProductNodeId {
        ProductNodeId(g.nodes().iter().position(|pn| pn.cfg_node == n).expect("node present"))
    }

    #[test]
    fn loop_invariant_bounds_counter() {
        let (p, dims, g, r) =
            analyze_full("fn f(n: int) { let i: int = 0; while (i < n) { i = i + 1; } }");
        let f = p.function("f").unwrap();
        let i = dims.var(f.var_by_name("i").unwrap());
        let n_seed = dims.seed(0);
        // At the exit, i == n when n ≥ 0 — narrowing must recover i ≤ n and
        // the loop exit gives i ≥ n.
        let cfg = Cfg::new(f);
        let exit_state = r.state(node_for(&g, cfg.exit()));
        assert!(!exit_state.is_bottom());
        assert!(exit_state.entails(&Constraint::ge(&LinExpr::var(i), &LinExpr::var(n_seed))));
        // Inside the loop the counter stays below n.
        let body = node_for(&g, NodeId::block(blazer_ir::BlockId::new(2)));
        let body_state = r.state(body);
        assert!(body_state.entails(&Constraint::ge(&LinExpr::var(n_seed), &LinExpr::var(i))));
        assert!(body_state.entails(&Constraint::ge(&LinExpr::var(i), &LinExpr::zero())));
    }

    #[test]
    fn infeasible_branch_detected() {
        // x = 5 then branch x > 9: the then-edge is infeasible.
        let (p, dims, g, r) = analyze_full("fn f() { let x: int = 5; if (x > 9) { tick(1); } }");
        let f = p.function("f").unwrap();
        let feasible: Vec<bool> =
            (0..g.edges().len()).map(|ei| r.edge_feasible(&p, f, &dims, &g, ei)).collect();
        assert!(feasible.iter().any(|&b| !b), "one edge must be infeasible");
        // The then-block (which contains tick) is unreachable: its state is
        // bottom.
        let tick_block = f
            .iter_blocks()
            .find(|(_, b)| b.insts.iter().any(|i| matches!(i, blazer_ir::Inst::Tick(_))))
            .map(|(bid, _)| bid)
            .unwrap();
        assert!(r.state(node_for(&g, NodeId::block(tick_block))).is_bottom());
    }

    #[test]
    fn paper_ex1_dead_code_is_unreachable() {
        // Sec. 7 ex1: `if false { while (h < x) h++ }` — the loop is dead.
        let (p, _, g, r) = analyze_full(
            "fn f(x: int, h: int #high) { \
                let c: int = 0; \
                if (c == 1) { while (h < x) { h = h + 1; } } \
            }",
        );
        let f = p.function("f").unwrap();
        // The loop head is unreachable.
        let loop_head =
            f.iter_blocks().filter(|(_, b)| b.term.is_branch()).nth(1).map(|(bid, _)| bid).unwrap();
        let _ = &p;
        assert!(r.state(node_for(&g, NodeId::block(loop_head))).is_bottom());
    }

    #[test]
    fn trail_restriction_refines_invariants() {
        // Restricting to the path that skips the loop forces i = 0 at exit.
        let src = "fn f(n: int) { let i: int = 0; while (i < n) { i = i + 1; } }";
        let p = compile(src).unwrap();
        let f = p.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dims = DimMap::new(f);
        let alpha = EdgeAlphabet::new(&cfg);
        // Trail: entry→head, head→after, after→exit (zero iterations).
        let b = |i: u32| NodeId::block(blazer_ir::BlockId::new(i));
        let r_trail = blazer_automata::Regex::symbol(alpha.sym(blazer_ir::Edge::new(b(0), b(1))))
            .then(blazer_automata::Regex::symbol(alpha.sym(blazer_ir::Edge::new(b(1), b(3)))))
            .then(blazer_automata::Regex::symbol(
                alpha.sym(blazer_ir::Edge::new(b(3), cfg.exit())),
            ));
        let dfa = blazer_automata::Dfa::from_regex(&r_trail, alpha.len() as u32).minimize();
        let g = ProductGraph::restricted(f, &cfg, &dfa, &alpha);
        let init: Polyhedron = entry_state(f, &dims);
        let r = analyze(&p, f, &dims, &g, init);
        let exit = g.exits()[0];
        let i = dims.var(f.var_by_name("i").unwrap());
        let st = r.state(exit);
        assert!(st.entails(&Constraint::eq(&LinExpr::var(i), &LinExpr::zero())));
        // And the zero-iteration path implies n ≤ 0.
        assert!(st.entails(&Constraint::le(&LinExpr::var(dims.seed(0)), &LinExpr::zero())));
    }

    #[test]
    fn interval_domain_also_works() {
        let src = "fn f(n: int) { let i: int = 0; while (i < n) { i = i + 1; } }";
        let p = compile(src).unwrap();
        let f = p.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dims = DimMap::new(f);
        let g = ProductGraph::full(f, &cfg);
        let init: IntervalVec = entry_state(f, &dims);
        let r = analyze(&p, f, &dims, &g, init);
        let i = dims.var(f.var_by_name("i").unwrap());
        let exit = node_for(&g, cfg.exit());
        // Intervals at least learn i ≥ 0 (they cannot relate i to n).
        let (lo, _) = r.state(exit).bounds(&LinExpr::var(i));
        assert_eq!(lo, Some(Rat::ZERO));
    }

    #[test]
    fn nested_loops_terminate_and_bound() {
        let (p, dims, g, r) = analyze_full(
            "fn f(n: int) { \
                let i: int = 0; \
                while (i < n) { \
                    let j: int = 0; \
                    while (j < i) { j = j + 1; } \
                    i = i + 1; \
                } \
            }",
        );
        let f = p.function("f").unwrap();
        let cfg = Cfg::new(f);
        let exit = node_for(&g, cfg.exit());
        assert!(!r.state(exit).is_bottom());
        let i = dims.var(f.var_by_name("i").unwrap());
        assert!(r.state(exit).entails(&Constraint::ge(&LinExpr::var(i), &LinExpr::zero())));
        let _ = p;
    }
}
