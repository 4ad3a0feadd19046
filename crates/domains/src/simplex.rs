//! An exact two-phase simplex solver over rationals.
//!
//! This is the optimization engine behind [`crate::Polyhedron`]: emptiness is
//! a feasibility question, entailment of `e ≥ 0` is `min e ≥ 0`, and the
//! symbolic bound extraction in `blazer-bounds` asks for suprema/infima of
//! cost expressions. Everything is exact rational arithmetic with Bland's
//! anti-cycling rule, so results are never approximate and the solver always
//! terminates.

use crate::linexpr::{Constraint, ConstraintKind, LinExpr};
use crate::rational::Rat;
use std::collections::BTreeSet;

/// The outcome of a linear program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpResult {
    /// The constraint system has no solution.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
    /// The optimum value.
    Optimal(Rat),
}

impl LpResult {
    /// The optimum, if one exists.
    pub fn optimal(self) -> Option<Rat> {
        match self {
            LpResult::Optimal(v) => Some(v),
            _ => None,
        }
    }
}

/// A dense simplex tableau. Construct one per query via
/// [`Simplex::maximize`] / [`Simplex::minimize`].
#[derive(Debug)]
pub struct Simplex {
    /// m rows × (n_cols + 1); last column is the right-hand side.
    rows: Vec<Vec<Rat>>,
    /// Objective row (reduced costs); last entry is minus the current value.
    obj: Vec<Rat>,
    /// Basis column index per row.
    basis: Vec<usize>,
    n_cols: usize,
    /// Columns that may not re-enter the basis (artificials in phase 2).
    banned: Vec<bool>,
}

impl Simplex {
    /// Maximizes `objective` subject to `constraints` (dimensions are
    /// unrestricted in sign).
    pub fn maximize(objective: &LinExpr, constraints: &[Constraint]) -> LpResult {
        solve(objective, constraints, true)
    }

    /// Minimizes `objective` subject to `constraints`.
    pub fn minimize(objective: &LinExpr, constraints: &[Constraint]) -> LpResult {
        match solve(&objective.scale(-Rat::ONE), constraints, true) {
            LpResult::Optimal(v) => LpResult::Optimal(-v),
            other => other,
        }
    }

    /// Whether the constraint system has any solution.
    pub fn feasible(constraints: &[Constraint]) -> bool {
        !matches!(solve(&LinExpr::zero(), constraints, true), LpResult::Infeasible)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(!pivot_val.is_zero());
        let inv = pivot_val.recip();
        for v in self.rows[row].iter_mut() {
            *v = *v * inv;
        }
        let pivot_row = self.rows[row].clone();
        for (r, other) in self.rows.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = other[col];
            if factor.is_zero() {
                continue;
            }
            for (v, p) in other.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * *p;
            }
        }
        let factor = self.obj[col];
        if !factor.is_zero() {
            for (v, p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * *p;
            }
        }
        self.basis[row] = col;
    }

    /// Canonicalizes the objective row against the current basis.
    fn price_out(&mut self) {
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            let factor = self.obj[b];
            if factor.is_zero() {
                continue;
            }
            let row = self.rows[r].clone();
            for (v, p) in self.obj.iter_mut().zip(row.iter()) {
                *v -= factor * *p;
            }
        }
    }

    /// Runs simplex iterations (maximization) until optimal (`Ok(true)`),
    /// unbounded (`Ok(false)`), or aborted by the analysis budget (`Err`).
    fn optimize(&mut self) -> Result<bool, blazer_ir::budget::Exhausted> {
        let mut pivots = 0u32;
        loop {
            // Pivots are the expensive inner unit of work: poll the budget
            // deadline every few of them so a single pathological solve
            // cannot blow past the deadline unnoticed. Saturated (overflowed)
            // arithmetic voids Bland's termination guarantee, so once the
            // overflow flag is up the tableau is garbage anyway — stop and
            // let the caller absorb the solve as a degraded answer.
            pivots += 1;
            if pivots.is_multiple_of(16) {
                blazer_ir::budget::check()?;
                if crate::rational::overflow_occurred() {
                    return Ok(false);
                }
            }
            // Bland's rule: smallest-index improving column.
            let enter = (0..self.n_cols).find(|&j| !self.banned[j] && self.obj[j] > Rat::ZERO);
            let Some(j) = enter else { return Ok(true) };
            // Ratio test: smallest rhs/coeff over positive coefficients,
            // ties broken by smallest basis index (Bland).
            let mut best: Option<(usize, Rat)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][j];
                if a > Rat::ZERO {
                    let ratio = self.rows[r][self.n_cols] / a;
                    let better = match &best {
                        None => true,
                        Some((br, bratio)) => {
                            ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                        }
                    };
                    if better {
                        best = Some((r, ratio));
                    }
                }
            }
            match best {
                Some((r, _)) => self.pivot(r, j),
                None => return Ok(false), // unbounded
            }
        }
    }

    /// Current objective value (the rhs entry of the objective row holds its
    /// negation).
    fn value(&self) -> Rat {
        -self.obj[self.n_cols]
    }
}

/// The universally sound degraded answer: "unbounded" makes `feasible` answer
/// true, `entails` answer false, and `bounds` answer "no bound" — each an
/// over-approximation of whatever the exact solve would have said.
fn degraded(reason: &str) -> LpResult {
    blazer_ir::budget::note_degradation(format!("simplex: {reason}; answering unbounded"));
    LpResult::Unbounded
}

fn solve(objective: &LinExpr, constraints: &[Constraint], _maximize: bool) -> LpResult {
    if blazer_ir::budget::consume_lp_call().is_err() {
        return degraded("LP call denied by exhausted budget");
    }
    // Run the tableau with a clean overflow flag so saturation anywhere in
    // this solve is detected and absorbed here (restoring any outer state).
    let outer_overflow = crate::rational::take_overflow();
    let out = solve_inner(objective, constraints);
    let overflowed = crate::rational::take_overflow();
    if outer_overflow {
        crate::rational::set_overflow();
    }
    match out {
        Ok(result) if !overflowed => result,
        Ok(_) => {
            blazer_ir::budget::note_overflow();
            degraded("rational overflow absorbed")
        }
        Err(_) => degraded("aborted by analysis budget"),
    }
}

fn solve_inner(
    objective: &LinExpr,
    constraints: &[Constraint],
) -> Result<LpResult, blazer_ir::budget::Exhausted> {
    // Collect all dimensions mentioned anywhere.
    let mut dims: BTreeSet<usize> = objective.dims().collect();
    for c in constraints {
        dims.extend(c.expr.dims());
    }
    let dims: Vec<usize> = dims.into_iter().collect();
    let dim_col: std::collections::BTreeMap<usize, usize> =
        dims.iter().enumerate().map(|(i, &d)| (d, 2 * i)).collect();
    // Each unrestricted dimension d becomes x⁺ (col 2i) − x⁻ (col 2i+1).
    let n_vars = 2 * dims.len();
    let m = constraints.len();
    // Slack per inequality, artificial per row.
    let n_slacks = constraints.iter().filter(|c| c.kind == ConstraintKind::GeZero).count();
    let n_cols = n_vars + n_slacks + m;
    let art_base = n_vars + n_slacks;

    let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut slack_idx = 0;
    for (r, c) in constraints.iter().enumerate() {
        // expr ≥ 0  ⇔  expr − s = 0 with s ≥ 0; expr = 0 stays.
        let mut row = vec![Rat::ZERO; n_cols + 1];
        for (d, coeff) in c.expr.terms() {
            let col = dim_col[&d];
            row[col] += coeff;
            row[col + 1] -= coeff;
        }
        // Move constant to rhs: a·x + k {≥,=} 0  ⇒  a·x {≥,=} −k.
        let rhs = -c.expr.constant_part();
        row[n_cols] = rhs;
        if c.kind == ConstraintKind::GeZero {
            row[n_vars + slack_idx] = -Rat::ONE;
            slack_idx += 1;
        }
        // Normalize rhs ≥ 0.
        if row[n_cols].is_negative() {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
        // Artificial variable forms the initial basis.
        row[art_base + r] = Rat::ONE;
        basis.push(art_base + r);
        rows.push(row);
    }

    let mut t = Simplex {
        rows,
        obj: vec![Rat::ZERO; n_cols + 1],
        basis,
        n_cols,
        banned: vec![false; n_cols],
    };

    // Phase 1: maximize −Σ artificials.
    if m > 0 {
        for j in art_base..art_base + m {
            t.obj[j] = -Rat::ONE;
        }
        t.price_out();
        let bounded = t.optimize()?;
        if !bounded {
            // The phase-1 objective is bounded by construction, so this is
            // only reachable when saturated (overflowed) arithmetic corrupted
            // the tableau; the caller absorbs it as a degraded answer.
            return Ok(LpResult::Unbounded);
        }
        if t.value() < Rat::ZERO {
            return Ok(LpResult::Infeasible);
        }
        // Drive remaining artificials out of the basis.
        for r in 0..t.rows.len() {
            if t.basis[r] >= art_base {
                if let Some(j) = (0..art_base).find(|&j| !t.rows[r][j].is_zero()) {
                    t.pivot(r, j);
                }
                // Otherwise the row is a redundant 0 = 0 row; harmless.
            }
        }
        for j in art_base..art_base + m {
            t.banned[j] = true;
        }
    }

    // Phase 2: the real objective.
    t.obj = vec![Rat::ZERO; n_cols + 1];
    for (d, coeff) in objective.terms() {
        let col = dim_col[&d];
        t.obj[col] += coeff;
        t.obj[col + 1] -= coeff;
    }
    t.price_out();
    if !t.optimize()? {
        return Ok(LpResult::Unbounded);
    }
    Ok(LpResult::Optimal(t.value() + objective.constant_part()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    fn le(e: LinExpr, k: i128) -> Constraint {
        // e ≤ k  ⇔  k − e ≥ 0.
        Constraint::ge_zero(LinExpr::constant(r(k)).sub(&e))
    }

    fn ge(e: LinExpr, k: i128) -> Constraint {
        Constraint::ge_zero(e.add_constant(r(-k)))
    }

    #[test]
    fn simple_box() {
        // max x s.t. 0 ≤ x ≤ 5 → 5; min → 0.
        let x = LinExpr::var(0);
        let cs = vec![ge(x.clone(), 0), le(x.clone(), 5)];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Optimal(r(5)));
        assert_eq!(Simplex::minimize(&x, &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn unbounded_direction() {
        let x = LinExpr::var(0);
        let cs = vec![ge(x.clone(), 0)];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Unbounded);
        assert_eq!(Simplex::minimize(&x, &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn infeasible_system() {
        let x = LinExpr::var(0);
        let cs = vec![ge(x.clone(), 3), le(x.clone(), 2)];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Infeasible);
        assert!(!Simplex::feasible(&cs));
    }

    #[test]
    fn equality_constraints() {
        // x + y = 10, x ≥ 2, y ≥ 3: max x = 7, min x = 2.
        let x = LinExpr::var(0);
        let y = LinExpr::var(1);
        let cs = vec![
            Constraint::eq_zero(x.add(&y).add_constant(r(-10))),
            ge(x.clone(), 2),
            ge(y.clone(), 3),
        ];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Optimal(r(7)));
        assert_eq!(Simplex::minimize(&x, &cs), LpResult::Optimal(r(2)));
    }

    #[test]
    fn negative_solutions_allowed() {
        // Variables are unrestricted: min x s.t. x ≥ −7 is −7.
        let x = LinExpr::var(0);
        let cs = vec![ge(x.clone(), -7)];
        assert_eq!(Simplex::minimize(&x, &cs), LpResult::Optimal(r(-7)));
    }

    #[test]
    fn two_dim_polytope() {
        // max x + y s.t. x ≤ 4, y ≤ 3, x + 2y ≤ 8, x,y ≥ 0 → x=4, y=2 → 6.
        let x = LinExpr::var(0);
        let y = LinExpr::var(1);
        let cs = vec![
            le(x.clone(), 4),
            le(y.clone(), 3),
            le(x.add(&y.scale(r(2))), 8),
            ge(x.clone(), 0),
            ge(y.clone(), 0),
        ];
        assert_eq!(Simplex::maximize(&x.add(&y), &cs), LpResult::Optimal(r(6)));
    }

    #[test]
    fn fractional_optimum() {
        // max x s.t. 2x ≤ 5 → 5/2.
        let x = LinExpr::var(0);
        let cs = vec![le(x.scale(r(2)), 5)];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Optimal(Rat::new(5, 2)));
    }

    #[test]
    fn objective_constant_offset() {
        // max (x + 100) s.t. x ≤ 1 → 101.
        let x = LinExpr::var(0);
        let cs = vec![le(x.clone(), 1)];
        assert_eq!(Simplex::maximize(&x.add_constant(r(100)), &cs), LpResult::Optimal(r(101)));
    }

    #[test]
    fn no_constraints() {
        let x = LinExpr::var(0);
        assert_eq!(Simplex::maximize(&x, &[]), LpResult::Unbounded);
        assert_eq!(Simplex::maximize(&LinExpr::constant(r(3)), &[]), LpResult::Optimal(r(3)));
        assert!(Simplex::feasible(&[]));
    }

    #[test]
    fn redundant_rows_are_harmless() {
        let x = LinExpr::var(0);
        let cs = vec![le(x.clone(), 5), le(x.clone(), 5), le(x.scale(r(2)), 10)];
        assert_eq!(Simplex::maximize(&x, &cs), LpResult::Optimal(r(5)));
    }

    #[test]
    fn degenerate_vertex_terminates() {
        // Three constraints meeting at a single vertex (0,0).
        let x = LinExpr::var(0);
        let y = LinExpr::var(1);
        let cs = vec![
            le(x.add(&y), 0),
            le(x.sub(&y), 0),
            le(x.clone(), 0),
            ge(x.clone(), 0),
            ge(y.clone(), 0),
        ];
        assert_eq!(Simplex::maximize(&x.add(&y), &cs), LpResult::Optimal(r(0)));
    }

    #[test]
    fn equality_only_point() {
        // x = 4 ∧ y = −2: objective 3x + y = 10.
        let x = LinExpr::var(0);
        let y = LinExpr::var(1);
        let cs = vec![
            Constraint::eq_zero(x.add_constant(r(-4))),
            Constraint::eq_zero(y.add_constant(r(2))),
        ];
        let obj = x.scale(r(3)).add(&y);
        assert_eq!(Simplex::maximize(&obj, &cs), LpResult::Optimal(r(10)));
        assert_eq!(Simplex::minimize(&obj, &cs), LpResult::Optimal(r(10)));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The optimum of max x over random box constraints equals the
            /// tightest upper bound when one exists.
            #[test]
            fn box_bounds(lo in -50i128..50, width in 0i128..100) {
                let hi = lo + width;
                let x = LinExpr::var(0);
                let cs = vec![ge(x.clone(), lo), le(x.clone(), hi)];
                prop_assert_eq!(Simplex::maximize(&x, &cs), LpResult::Optimal(r(hi)));
                prop_assert_eq!(Simplex::minimize(&x, &cs), LpResult::Optimal(r(lo)));
            }

            /// Feasibility is monotone: adding constraints never turns an
            /// infeasible system feasible.
            #[test]
            fn feasibility_antimonotone(a in -20i128..20, b in -20i128..20, c in -20i128..20) {
                let x = LinExpr::var(0);
                let base = vec![ge(x.clone(), a), le(x.clone(), b)];
                let more = {
                    let mut v = base.clone();
                    v.push(ge(x.clone(), c));
                    v
                };
                if !Simplex::feasible(&base) {
                    prop_assert!(!Simplex::feasible(&more));
                }
            }

            /// max(e) ≥ min(e) whenever both exist.
            #[test]
            fn max_ge_min(a in -20i128..20, w in 0i128..40, c1 in -5i128..5, c2 in -5i128..5) {
                let x = LinExpr::var(0);
                let y = LinExpr::var(1);
                let cs = vec![
                    ge(x.clone(), a), le(x.clone(), a + w),
                    ge(y.clone(), a), le(y.clone(), a + w),
                ];
                let obj = x.scale(r(c1)).add(&y.scale(r(c2)));
                let mx = Simplex::maximize(&obj, &cs);
                let mn = Simplex::minimize(&obj, &cs);
                if let (LpResult::Optimal(hi), LpResult::Optimal(lo)) = (mx, mn) {
                    prop_assert!(hi >= lo);
                }
            }
        }
    }
}
