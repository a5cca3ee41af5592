//! A self-contained linear-programming solver used by the Prospector query
//! planners.
//!
//! The paper ("A Sampling-Based Approach to Optimizing Top-k Queries in
//! Sensor Networks", ICDE 2006) solves its plan-optimization LPs with CPLEX.
//! No external LP solver is available to this reproduction, so this crate
//! implements a **bounded-variable primal simplex** from scratch:
//!
//! * all variables carry explicit `[lower, upper]` bounds, so the box
//!   constraints of the Prospector formulations (`0 ≤ x ≤ 1`,
//!   `0 ≤ w_e ≤ |desc(e)|`) never become rows;
//! * constraints may be `≤`, `≥` or `=`; rows are standardized to equalities
//!   with bounded slacks;
//! * a phase-1 with artificial variables establishes feasibility when the
//!   all-slack starting basis is out of bounds (the Prospector LPs start
//!   feasible, but the solver is general);
//! * two interchangeable basis representations: a dense explicit inverse
//!   ([`basis::DenseInverse`], simple and good for small problems) and a
//!   product-form-of-the-inverse eta file ([`basis::EtaFile`], which exploits
//!   the extreme sparsity of the Prospector constraint matrices);
//! * Dantzig pricing with an automatic switch to Bland's rule after a run of
//!   degenerate pivots, bound-flip pivots, and periodic resync of the basic
//!   solution for numerical hygiene.
//!
//! # Example
//!
//! ```
//! use prospector_lp::{Problem, Sense, Cmp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  0 <= x,y <= 10
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var(0.0, 10.0, 3.0);
//! let y = p.add_var(0.0, 10.0, 2.0);
//! p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! p.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x=4, y=0
//! ```

pub mod basis;
pub mod problem;
pub mod simplex;
pub mod status;

pub use problem::{Cmp, Problem, Sense, VarId};
pub use simplex::{solve_with_options, BasisChoice, SolverOptions};
pub use status::{LpError, Solution, Status};
