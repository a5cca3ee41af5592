//! Problem construction API.

use crate::simplex;
use crate::status::{LpError, Solution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Maximize,
    Minimize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Handle to a variable of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Position of the variable in [`Solution::x`](crate::Solution::x).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: Vec<(u32, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear program over box-bounded variables.
///
/// Build with [`Problem::add_var`] / [`Problem::add_constraint`], then call
/// [`Problem::solve`]. Every variable must have at least one finite bound
/// (all Prospector formulations use `[0, u]` with finite `u`).
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) obj: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Problem { sense, obj: Vec::new(), lower: Vec::new(), upper: Vec::new(), rows: Vec::new() }
    }

    /// Adds a variable with bounds `[lower, upper]` and objective
    /// coefficient `obj`. Bounds may be infinite on at most one side.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let id = VarId(self.obj.len() as u32);
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        id
    }

    /// Adds the constraint `sum(coef * var) cmp rhs`.
    ///
    /// Duplicate variables in `coeffs` are summed. Zero coefficients are
    /// dropped.
    pub fn add_constraint<I>(&mut self, coeffs: I, cmp: Cmp, rhs: f64)
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let mut v: Vec<(u32, f64)> =
            coeffs.into_iter().filter(|&(_, c)| c != 0.0).map(|(var, c)| (var.0, c)).collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        self.rows.push(Row { coeffs: v, cmp, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Total structural non-zeros across all constraint rows.
    pub fn num_nonzeros(&self) -> usize {
        self.rows.iter().map(|r| r.coeffs.len()).sum()
    }

    /// Validates bounds, coefficients and right-hand sides.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, (&lo, &hi)) in self.lower.iter().zip(&self.upper).enumerate() {
            if lo.is_nan() || hi.is_nan() {
                return Err(LpError::NonFiniteInput { what: "variable bound is NaN" });
            }
            if lo > hi || lo == f64::INFINITY || hi == f64::NEG_INFINITY {
                return Err(LpError::InvalidBounds { var: i, lower: lo, upper: hi });
            }
            if lo == f64::NEG_INFINITY && hi == f64::INFINITY {
                return Err(LpError::FreeVariable { var: i });
            }
        }
        if self.obj.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteInput { what: "objective coefficient" });
        }
        for row in &self.rows {
            if !row.rhs.is_finite() {
                return Err(LpError::NonFiniteInput { what: "constraint rhs" });
            }
            if row.coeffs.iter().any(|&(_, c)| !c.is_finite()) {
                return Err(LpError::NonFiniteInput { what: "constraint coefficient" });
            }
        }
        Ok(())
    }

    /// Solves the problem: on a dense basis inverse up to 600 rows and on
    /// an eta file above (crate docs).
    pub fn solve(&self) -> Result<Solution, LpError> {
        simplex::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_constraint_merges_duplicates_and_drops_zeros() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 0.0), (x, 2.0)], Cmp::Le, 5.0);
        assert_eq!(p.rows[0].coeffs, vec![(0, 3.0)]);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(2.0, 1.0, 0.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { var: 0, .. })));
    }

    #[test]
    fn validate_rejects_boxes_without_a_finite_point() {
        // maximize x + y, y ∈ [0, 1], x pinned at an infinite bound. With
        // the row x + y ≤ 4 the solve once returned `Optimal` at x = ∞
        // (objective inf, row violated) or at x = −∞ (objective −inf);
        // without it, `Unbounded` with x = 0.
        let (inf, neg) = (f64::INFINITY, f64::NEG_INFINITY);
        for (lo, hi, row) in [(inf, inf, true), (neg, neg, true), (inf, inf, false)] {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var(lo, hi, 1.0);
            let y = p.add_var(0.0, 1.0, 1.0);
            if row {
                p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
            }
            let got = p.solve();
            assert!(
                matches!(got, Err(LpError::InvalidBounds { var: 0, .. })),
                "x ∈ [{lo}, {hi}], row {row}: {got:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_free_variables() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        assert!(matches!(p.validate(), Err(LpError::FreeVariable { var: 0 })));
    }

    #[test]
    fn validate_rejects_nan_rhs() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0)], Cmp::Le, f64::NAN);
        assert!(matches!(p.validate(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn counts() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint([(y, 1.0)], Cmp::Ge, 0.2);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 2);
        assert_eq!(p.num_nonzeros(), 3);
    }
}
