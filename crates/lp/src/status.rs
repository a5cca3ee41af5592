//! Solver outcome types.

use std::fmt;

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::IterationLimit => "iteration limit reached",
        };
        f.write_str(s)
    }
}

/// A solution returned by the solver.
///
/// `x` holds one value per *structural* variable, in [`crate::VarId`] order.
/// For non-[`Status::Optimal`] outcomes `x` and `objective` hold the last
/// iterate and are meaningful only for diagnostics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// How the solve terminated.
    pub status: Status,
    /// Objective value in the problem's original sense.
    pub objective: f64,
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Dual values (shadow prices), one per constraint row, in the
    /// problem's original sense: `∂objective/∂rhs_r`. Present only at
    /// optimality. A ≤ row's dual is ≥ 0 for maximization: one more unit
    /// of right-hand side buys this much objective.
    pub duals: Option<Vec<f64>>,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
}

impl Solution {
    /// Value of a single variable.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.x[var.index()]
    }

    /// True when the solve proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Shadow price of constraint row `r` (0.0 when duals are absent).
    pub fn dual(&self, r: usize) -> f64 {
        self.duals.as_ref().and_then(|d| d.get(r)).copied().unwrap_or(0.0)
    }
}

/// Errors raised while building or solving a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A variable's box holds no finite point: `lower > upper`,
    /// `lower = +∞` or `upper = −∞`.
    InvalidBounds { var: usize, lower: f64, upper: f64 },
    /// A variable is unbounded below *and* above; the bounded simplex
    /// requires at least one finite bound per variable.
    FreeVariable { var: usize },
    /// A coefficient, bound or right-hand side is NaN or infinite where a
    /// finite value is required.
    NonFiniteInput { what: &'static str },
    /// The basis became numerically singular and could not be recovered.
    SingularBasis,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::InvalidBounds { var, lower, upper } => {
                write!(f, "variable {var} has invalid bounds [{lower}, {upper}]")
            }
            LpError::FreeVariable { var } => {
                write!(f, "variable {var} is free (no finite bound); unsupported")
            }
            LpError::NonFiniteInput { what } => write!(f, "non-finite input: {what}"),
            LpError::SingularBasis => write!(f, "basis became numerically singular"),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
        assert_eq!(Status::IterationLimit.to_string(), "iteration limit reached");
    }

    #[test]
    fn error_display_mentions_variable() {
        let e = LpError::InvalidBounds { var: 3, lower: 2.0, upper: 1.0 };
        assert!(e.to_string().contains("variable 3"));
        let e = LpError::FreeVariable { var: 7 };
        assert!(e.to_string().contains('7'));
    }
}
