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
//! * two basis representations, chosen by size: a dense explicit inverse
//!   ([`basis::DenseInverse`]) up to 600 rows and a product-form-of-the-inverse
//!   eta file ([`basis::EtaFile`], which exploits the extreme sparsity of the
//!   Prospector constraint matrices) above;
//! * Dantzig pricing, through a tournament tree over the reduced costs,
//!   with an automatic switch to Bland's rule after a run of degenerate
//!   pivots, bound-flip pivots, and periodic resync of the basic solution
//!   for numerical hygiene.
//!
//! # Basis representation by size
//!
//! [`Problem::solve`] is the only entry point, and nothing about the solve
//! is settable: the representation follows from the row count, and the
//! tolerances, the resync period and the Bland trigger are constants. Each
//! representation is the faster one where it runs, as measured on a 2-CPU
//! VM. The serving workload's LPs have 18–193 rows (`serve_mix`, seed 1);
//! an eta-file-only solver was slower there (`queries_per_s` 41.0k →
//! 37.2k at seed 7), because the eta file's heap-driven btran costs 2.8×
//! the dense inverse's. Field-sized LP+LF plans (`plan_heavy`, 969–1206
//! rows) solve on the eta file in 23% of the dense inverse's time.
//!
//! # Pricing and hyper-sparsity
//!
//! Reduced costs `d = c − Aᵀy` are computed row-wise, from the problem's
//! own rows with the row scale applied on the fly, so the solver keeps no
//! row-wise copy of the matrix. On both representations the simplex keeps
//! `d` across pivots. After each basis change it updates `d` from the
//! pivot row: `ρ_r = B⁻ᵀe_r` comes from a unit btran, and `d −= θ Aᵀρ_r`
//! with `θ = d_q / α_r`. It recomputes `d` from fresh duals at phase
//! start, at every resync or refactor, and before it declares optimality,
//! so drift cannot end a solve.
//!
//! * On the **dense inverse** the unit btran returns row `r` of `B⁻¹`.
//! * On the **eta file** btran visits only etas that read a nonzero,
//!   through per-row incidence links threaded in its entry arena. On the
//!   pinned 1000-node LP+LF solve (`tests/lp_eta_path.rs`, 745 pivots)
//!   `ρ_r` has 2.4 nonzeros on average and a unit btran applies 13 of the
//!   ~370 etas in the file: Hall & McKinnon's hyper-sparse case. The ratio
//!   test, the basic-value update and the eta append walk `α`'s nonzero
//!   list (~36 entries there) rather than all `m` rows.
//!
//! The entering column is chosen from what the pivot changed rather than
//! by a scan of every reduced cost (Hall & McKinnon's hyper-sparse CHUZC).
//! A max tournament tree holds one leaf per column, keyed `|d_j|` when the
//! column may enter (nonbasic, not fixed, improving by more than the
//! tolerance) and −1 otherwise. Each internal node keeps the winner of its
//! two children, the left one on a tie, so the root is the Dantzig choice
//! with ties to the lowest index, and a descent to the leftmost positive
//! key is Bland's.
//!
//! * A fresh pricing rebuilds the tree in `O(n)`.
//! * After a pivot, only the columns whose `d` or state it changed are
//!   re-keyed: those `Aᵀρ_r` writes, the entering and leaving columns, and
//!   a bound-flipped column. A leaf whose key is unchanged is skipped, and
//!   a replay climbs only until a node's winner stays the same and is not
//!   the replayed column.
//! * A column whose pivot is numerically unusable is masked to −1 for the
//!   rest of the step and re-keyed at the next flush.
//!
//! The scan it replaced read every column at every pivot. Counted on the
//! pinned planner solves (`tests/lp_eta_path.rs`):
//!
//! * on the five 1000-node eta-file solves (1568–1770 columns) a pivot
//!   re-keys 6.3 columns on average, 2.3 of them change key, and a replay
//!   plays 9.1 matches of the tree's 11 levels;
//! * on the 36 serve-shaped dense-inverse solves (117–269 columns) a pivot
//!   re-keys 15.7 columns (4.9–28.8 per solve), 2.7 change key, and a
//!   replay plays 6.3 matches.
//!
//! On a 2-CPU VM the median `plan_heavy` plan epoch went from 5.7 to
//! 3.6 ms (ten benchmark runs a side at seed 1), with the same pivots.
//! Both representations take this one path. It picks what the scan picked,
//! so pivots and plans are unchanged; the simplex tests check it against
//! the scan. Updated prices can still resolve a near-tie differently from
//! fresh ones after rounding drift.
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
mod simplex;
pub mod status;

pub use problem::{Cmp, Problem, Sense, VarId};
pub use status::{LpError, Solution, Status};

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
