//! Bounded-variable primal simplex (revised form, two phases).
//!
//! The implementation follows the textbook revised simplex with upper
//! bounds: variables live in `[l, u]`, non-basic variables sit at a finite
//! bound, and the ratio test admits *bound flips* (the entering variable
//! travels to its own opposite bound without a basis change). Rows are
//! standardized to equalities with bounded slacks, which makes the all-slack
//! identity the natural starting basis; rows whose slack cannot absorb the
//! initial residual receive an artificial variable driven out by a phase-1
//! objective.
//!
//! Pricing keeps a reduced cost per variable and carries it across pivots
//! by pivot-row updates; the entering column is the winner of a tournament
//! tree over the reduced costs, in which a pivot replays only the columns
//! it touched (crate docs, "Pricing and hyper-sparsity").

// The simplex kernels walk several parallel arrays (basis, x, alpha, bounds)
// by row index; iterator/zip chains obscure the math, so range loops stay.
#![allow(clippy::needless_range_loop)]

use crate::basis::{BasisRep, DenseInverse, EtaFile, SparseVec};
use crate::problem::{Cmp, Problem, Row, Sense};
use crate::status::{LpError, Solution, Status};

/// Rows up to which the basis is a dense inverse; larger LPs use the eta
/// file (crate docs, "Basis representation by size").
const DENSE_LIMIT: usize = 600;
/// Reduced-cost optimality tolerance.
const OPT_TOL: f64 = 1e-7;
/// Phase-1 infeasibility above which the problem is declared infeasible.
const INFEASIBLE_TOL: f64 = 1e-6;
/// Basic values are recomputed from the nonbasic ones every this many pivots.
const RESYNC_PERIOD: usize = 120;
/// Consecutive degenerate pivots before switching to Bland's rule.
const BLAND_TRIGGER: usize = 80;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
}

/// Standardized problem: `maximize c·v` s.t. `A v = b`, `l ≤ v ≤ u`, where
/// `v` stacks structural, slack and artificial variables.
struct Std<'a> {
    m: usize,
    n_struct: usize,
    /// Sparse columns for every variable (slack/artificial columns included).
    cols: Vec<Vec<(u32, f64)>>,
    /// The problem's own rows: pricing reads `A` row by row from them,
    /// scaling on the fly, rather than from a second row-wise copy.
    rows: &'a [Row],
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 objective (maximize).
    obj: Vec<f64>,
    b: Vec<f64>,
    /// Variables that start basic, one per row: the row's slack, or its
    /// artificial when the slack cannot absorb the starting residual.
    basis: Vec<u32>,
    /// Initial values for all variables.
    x0: Vec<f64>,
    n_artificial: usize,
    /// Row scaling applied during standardization (duals are mapped back
    /// through it).
    row_scale: Vec<f64>,
}

impl Std<'_> {
    /// `d -= w · A_r`: subtracts `w` times row `r` of the standardized
    /// matrix (structural coefficients, the slack, and the artificial if
    /// the row has one), passing each column it writes to `touched`.
    fn sub_row(&self, r: usize, w: f64, d: &mut [f64], mut touched: impl FnMut(usize)) {
        let scale = self.row_scale[r];
        for &(var, c) in &self.rows[r].coeffs {
            d[var as usize] -= w * (c * scale);
            touched(var as usize);
        }
        let slack = self.n_struct + r;
        d[slack] -= w;
        touched(slack);
        let start = self.basis[r] as usize;
        if start != slack {
            d[start] -= w;
            touched(start);
        }
    }
}

fn standardize(p: &Problem) -> Std<'_> {
    let n = p.num_vars();
    let m = p.num_constraints();
    let sense_mul = match p.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };

    // Row scaling by the max |coefficient| keeps pivots well conditioned.
    let mut row_scale = vec![1.0f64; m];
    for (r, row) in p.rows.iter().enumerate() {
        let mx = row.coeffs.iter().map(|&(_, c)| c.abs()).fold(0.0f64, f64::max);
        if mx > 0.0 {
            row_scale[r] = 1.0 / mx;
        }
    }

    let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut b = vec![0.0; m];
    for (r, row) in p.rows.iter().enumerate() {
        b[r] = row.rhs * row_scale[r];
        for &(var, c) in &row.coeffs {
            cols[var as usize].push((r as u32, c * row_scale[r]));
        }
    }

    let mut lower = p.lower.clone();
    let mut upper = p.upper.clone();
    let mut obj: Vec<f64> = p.obj.iter().map(|&c| c * sense_mul).collect();

    // Structural starting values: the finite bound (prefer lower).
    let mut x0 = vec![0.0; n];
    for j in 0..n {
        x0[j] = if lower[j].is_finite() { lower[j] } else { upper[j] };
    }

    // Slack variables.
    for (r, row) in p.rows.iter().enumerate() {
        cols.push(vec![(r as u32, 1.0)]);
        let (lo, hi) = match row.cmp {
            Cmp::Le => (0.0, f64::INFINITY),
            Cmp::Ge => (f64::NEG_INFINITY, 0.0),
            Cmp::Eq => (0.0, 0.0),
        };
        lower.push(lo);
        upper.push(hi);
        obj.push(0.0);
        x0.push(0.0);
    }

    // Residuals with all structural vars at their starting bound.
    let mut resid = b.clone();
    for (j, col) in cols.iter().take(n).enumerate() {
        if x0[j] != 0.0 {
            for &(r, a) in col {
                resid[r as usize] -= a * x0[j];
            }
        }
    }

    let mut basis = Vec::with_capacity(m);
    let mut n_artificial = 0;
    for r in 0..m {
        let s = n + r;
        let rho = resid[r];
        if rho >= lower[s] - 1e-12 && rho <= upper[s] + 1e-12 {
            basis.push(s as u32);
            x0[s] = rho;
        } else {
            // Slack pinned at its nearest bound, artificial absorbs the
            // rest. The artificial's column is always +1 (keeping the
            // starting basis an identity); the residual's sign lives in
            // its bounds instead, and phase 1 drives it to zero from
            // either side.
            let clamped = rho.clamp(lower[s], upper[s]);
            x0[s] = clamped;
            let z = cols.len();
            cols.push(vec![(r as u32, 1.0)]);
            let residual = rho - clamped;
            if residual > 0.0 {
                lower.push(0.0);
                upper.push(f64::INFINITY);
            } else {
                lower.push(f64::NEG_INFINITY);
                upper.push(0.0);
            }
            obj.push(0.0);
            x0.push(residual);
            basis.push(z as u32);
            n_artificial += 1;
        }
    }

    Std {
        m,
        n_struct: n,
        cols,
        rows: &p.rows,
        lower,
        upper,
        obj,
        b,
        basis,
        x0,
        n_artificial,
        row_scale,
    }
}

/// How the reduced costs `d` relate to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prices {
    /// Out of date: recompute before the next pricing.
    Stale,
    /// Updated from pivot rows since the last recompute, so they carry
    /// rounding drift.
    Updated,
    /// Recomputed from fresh duals for the current basis.
    Fresh,
}

/// Column `j`'s key in the entering-column [`Tournament`]: `|d_j|` if it
/// may enter (nonbasic, not fixed, and improving by more than the
/// tolerance in the direction it can move), −1 otherwise.
fn entering_key(d: f64, state: VarState, lower: f64, upper: f64) -> f64 {
    let dir = match state {
        VarState::Basic(_) => return -1.0,
        VarState::AtLower => 1.0,
        VarState::AtUpper => -1.0,
    };
    if lower != upper && d * dir > OPT_TOL {
        d.abs()
    } else {
        -1.0
    }
}

/// A max tournament tree over every column's [`entering_key`]: the
/// entering-column choice without a scan.
///
/// The leaves are the columns, padded with −1 keys to a power of two, and
/// each internal node holds the winner of its two children: the larger
/// key, or the left one on a tie. The left child's columns all precede the
/// right child's, so the root is what a Dantzig scan keeping the first of
/// equal `|d_j|` picks, and a descent to the leftmost positive key is
/// Bland's first eligible column. A pivot changes few keys; only their
/// leaves are replayed, each up to the first node whose winner neither
/// changes nor is the replayed column.
struct Tournament {
    /// Leaf keys.
    key: Vec<f64>,
    /// `win[v]`: the winning column of internal node `v`; the root is 1
    /// and the children of `v` are `2v` and `2v + 1`.
    win: Vec<u32>,
    /// Columns whose key may have changed since the last flush, each once.
    dirty: Vec<u32>,
    listed: Vec<bool>,
}

impl Tournament {
    /// A tree over `n` columns; every key is −1 until the first rebuild.
    fn new(n: usize) -> Tournament {
        let size = n.next_power_of_two();
        Tournament {
            key: vec![-1.0; size],
            win: vec![0; size],
            dirty: Vec::new(),
            listed: vec![false; n],
        }
    }

    /// The winning column of node `v` (a leaf from `key.len()` on).
    fn winner(&self, v: usize) -> usize {
        let size = self.key.len();
        if v >= size {
            v - size
        } else {
            self.win[v] as usize
        }
    }

    /// Plays internal node `v`'s match from its children's winners.
    fn play(&self, v: usize) -> usize {
        let (a, b) = (self.winner(2 * v), self.winner(2 * v + 1));
        if self.key[b] > self.key[a] {
            b
        } else {
            a
        }
    }

    /// Re-keys every column and replays every match.
    fn rebuild(&mut self, key: impl Fn(usize) -> f64) {
        for j in self.dirty.drain(..) {
            self.listed[j as usize] = false;
        }
        for j in 0..self.listed.len() {
            self.key[j] = key(j);
        }
        for v in (1..self.win.len()).rev() {
            self.win[v] = self.play(v) as u32;
        }
    }

    /// Marks column `j`'s key for the next flush.
    fn touch(&mut self, j: usize) {
        if !self.listed[j] {
            self.listed[j] = true;
            self.dirty.push(j as u32);
        }
    }

    /// Re-keys the touched columns, replaying those whose key changed.
    fn flush(&mut self, key: impl Fn(usize) -> f64) {
        while let Some(j) = self.dirty.pop() {
            let j = j as usize;
            self.listed[j] = false;
            let k = key(j);
            if k != self.key[j] {
                self.key[j] = k;
                self.replay(j);
            }
        }
    }

    /// Takes column `j` out of the running until the next flush re-keys it.
    fn mask(&mut self, j: usize) {
        self.key[j] = -1.0;
        self.replay(j);
        self.touch(j);
    }

    /// Replays the matches above leaf `j` after its key changed.
    fn replay(&mut self, j: usize) {
        let mut v = (self.key.len() + j) / 2;
        while v > 0 {
            let w = self.play(v);
            if w == self.win[v] as usize && w != j {
                return;
            }
            self.win[v] = w as u32;
            v /= 2;
        }
    }

    /// The column with the largest key, the first of equals, if it may
    /// enter.
    fn best(&self) -> Option<usize> {
        let w = self.winner(1);
        (self.key[w] > 0.0).then_some(w)
    }

    /// The first column that may enter (Bland's rule).
    fn first(&self) -> Option<usize> {
        self.best()?;
        let mut v = 1;
        while v < self.key.len() {
            v = if self.key[self.winner(2 * v)] > 0.0 { 2 * v } else { 2 * v + 1 };
        }
        Some(v - self.key.len())
    }
}

struct Simplex<'a, R: BasisRep> {
    std: &'a Std<'a>,
    rep: R,
    /// Working bounds (artificials are pinned to zero after phase 1).
    lower: Vec<f64>,
    upper: Vec<f64>,
    state: Vec<VarState>,
    basis: Vec<u32>,
    x: Vec<f64>,
    /// Reduced costs `c_j − yᵀa_j` for the objective being optimized;
    /// meaningful for nonbasic `j` only.
    d: Vec<f64>,
    prices: Prices,
    /// The entering-column choice over `d`; up to date once flushed.
    tree: Tournament,
    /// Scratch: the entering column's ftran image `α`.
    alpha: SparseVec,
    /// Scratch: the duals, or the pivot row `ρ_r = B⁻ᵀ e_r`.
    rho: SparseVec,
    iterations: usize,
    degenerate_run: usize,
    bland: bool,
}

enum StepResult {
    Pivoted,
    Optimal,
    Unbounded,
}

impl<'a, R: BasisRep> Simplex<'a, R> {
    fn new(std: &'a Std<'a>) -> Self {
        let n_total = std.cols.len();
        let mut state = vec![VarState::AtLower; n_total];
        for j in 0..n_total {
            state[j] = if std.x0[j] == std.lower[j] || !std.upper[j].is_finite() {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
        }
        for (r, &v) in std.basis.iter().enumerate() {
            state[v as usize] = VarState::Basic(r as u32);
        }
        Simplex {
            std,
            rep: R::identity(std.m),
            lower: std.lower.clone(),
            upper: std.upper.clone(),
            state,
            basis: std.basis.clone(),
            x: std.x0.clone(),
            d: vec![0.0; n_total],
            prices: Prices::Stale,
            tree: Tournament::new(n_total),
            alpha: SparseVec::new(std.m),
            rho: SparseVec::new(std.m),
            iterations: 0,
            degenerate_run: 0,
            bland: false,
        }
    }

    fn max_iterations(&self) -> usize {
        200 * (self.std.m + self.std.cols.len()) + 20_000
    }

    /// Recomputes basic values from the nonbasic ones (numerical hygiene),
    /// and marks the reduced costs for recomputation too.
    fn resync(&mut self) {
        let v = &mut self.alpha;
        v.clear();
        v.val.copy_from_slice(&self.std.b);
        for (j, col) in self.std.cols.iter().enumerate() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                for &(r, a) in col {
                    v.val[r as usize] -= a * xj;
                }
            }
        }
        v.relist();
        self.rep.ftran(v);
        for (r, &b) in self.basis.iter().enumerate() {
            self.x[b as usize] = v.val[r];
        }
        self.prices = Prices::Stale;
    }

    /// Rebuilds the basis representation from the current basis columns.
    ///
    /// Rows whose basic variable is their own slack keep the identity's
    /// column. Every other column is pivoted into a still-free row by
    /// threshold pivoting: among the free rows where its ftran image is at
    /// least a tenth of its largest there, the one touched by the fewest
    /// columns still to be placed (Markowitz's count), which limits
    /// fill-in. The basis is permuted to match, so a nonsingular basis
    /// rebuilds whichever rows its columns held.
    fn refactor(&mut self) -> Result<(), LpError> {
        self.rep.reset();
        let m = self.std.m;
        let pending: Vec<usize> =
            (0..m).filter(|&r| self.basis[r] as usize != self.std.n_struct + r).collect();
        let mut free = vec![false; m];
        let mut touch = vec![0u32; m];
        for &r in &pending {
            free[r] = true;
            for &(i, _) in &self.std.cols[self.basis[r] as usize] {
                touch[i as usize] += 1;
            }
        }
        let mut placed = self.basis.clone();
        for r in pending {
            let j = self.basis[r] as usize;
            for &(i, _) in &self.std.cols[j] {
                touch[i as usize] -= 1;
            }
            self.load_column(j);
            self.rep.ftran(&mut self.alpha);
            let (rows, val) = (self.alpha.rows(), &self.alpha.val);
            let free_rows = || rows.iter().map(|&i| i as usize).filter(|&i| free[i]);
            let big = free_rows().map(|i| val[i].abs()).fold(0.0, f64::max);
            let row = free_rows().filter(|&i| val[i].abs() >= 0.1 * big).min_by_key(|&i| touch[i]);
            match row {
                Some(row) if self.rep.update(&self.alpha, row) => {
                    free[row] = false;
                    placed[row] = j as u32;
                    self.state[j] = VarState::Basic(row as u32);
                }
                _ => return Err(LpError::SingularBasis),
            }
        }
        self.basis = placed;
        self.rep.rebuilt();
        self.resync();
        Ok(())
    }

    /// Loads column `j` of the standardized matrix into `alpha`.
    fn load_column(&mut self, j: usize) {
        self.alpha.clear();
        for &(r, a) in &self.std.cols[j] {
            self.alpha.set(r as usize, a);
        }
    }

    /// Leaves the duals `y = B⁻ᵀ c_B` for `obj` in `rho`.
    fn load_duals(&mut self, obj: &[f64]) {
        self.rho.clear();
        for (r, &v) in self.basis.iter().enumerate() {
            let c = obj[v as usize];
            if c != 0.0 {
                self.rho.set(r, c);
            }
        }
        self.rep.btran(&mut self.rho);
    }

    /// Recomputes every reduced cost from fresh duals, reading `A` row by
    /// row: `d = c − Aᵀy`, and rebuilds the tournament over them.
    fn price(&mut self, obj: &[f64]) {
        self.load_duals(obj);
        self.d.copy_from_slice(obj);
        for &r in self.rho.rows() {
            let y = self.rho.val[r as usize];
            if y != 0.0 {
                self.std.sub_row(r as usize, y, &mut self.d, |_| ());
            }
        }
        self.prices = Prices::Fresh;
        self.flush_keys(true);
    }

    /// Brings the tournament up to date: every key (`all`), or only those
    /// of the columns touched since the last flush.
    fn flush_keys(&mut self, all: bool) {
        let Simplex { tree, d, state, lower, upper, .. } = self;
        let key = |j: usize| entering_key(d[j], state[j], lower[j], upper[j]);
        if all {
            tree.rebuild(key)
        } else {
            tree.flush(key)
        }
    }

    /// Carries the reduced costs across the pivot that brings `q` into row
    /// `r` in place of `leaving`, before the basis representation is
    /// updated. The duals move by `θ ρ_r` with `θ = d_q / α_r`, so
    /// `d −= θ Aᵀρ_r`; `ρ_r` comes from a unit btran: row `r` of the dense
    /// inverse, or a handful of etas from the eta file. Every column whose
    /// `d` it writes is touched for the tournament's next flush.
    fn update_prices(&mut self, q: usize, r: usize, leaving: usize) {
        let theta = self.d[q] / self.alpha.val[r];
        self.rho.clear();
        self.rho.set(r, 1.0);
        self.rep.btran(&mut self.rho);
        for &i in self.rho.rows() {
            let w = theta * self.rho.val[i as usize];
            if w != 0.0 {
                self.std.sub_row(i as usize, w, &mut self.d, |j| self.tree.touch(j));
            }
        }
        self.d[q] = 0.0;
        self.d[leaving] = -theta;
        self.tree.touch(q);
        self.tree.touch(leaving);
        self.prices = Prices::Updated;
    }

    /// The entering column: the largest `|d_j|` among the columns that may
    /// enter, the first of equals, or in Bland mode the first that may
    /// enter; `None` means none improves by more than the tolerance.
    fn choose_entering(&self) -> Option<usize> {
        if self.bland {
            self.tree.first()
        } else {
            self.tree.best()
        }
    }

    /// One simplex step for the objective `obj`.
    fn step(&mut self, obj: &[f64]) -> Result<StepResult, LpError> {
        if self.rep.wants_refactor() {
            self.refactor()?;
        }
        if self.prices == Prices::Stale {
            self.price(obj);
        } else {
            self.flush_keys(false);
        }
        let mut banned: Vec<usize> = Vec::new();
        loop {
            let Some(j) = self.choose_entering() else {
                if self.prices != Prices::Fresh {
                    // Updated prices drift: confirm against fresh duals,
                    // keeping this step's banned columns out.
                    self.price(obj);
                    for &j in &banned {
                        self.tree.mask(j);
                    }
                    continue;
                }
                // Optimal — or every improving column had only unusable
                // pivots; treat that as converged at tolerance rather
                // than cycling forever.
                return Ok(StepResult::Optimal);
            };
            let sigma = match self.state[j] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::Basic(_) => unreachable!(),
            };

            self.load_column(j);
            self.rep.ftran(&mut self.alpha);

            // Ratio test over α's nonzeros, in row order.
            let own_range = self.upper[j] - self.lower[j]; // may be inf
            let mut t_min = own_range;
            let mut leave: Option<(usize, VarState)> = None; // (row, bound hit)
            let mut leave_pivot = 0.0f64;
            for &r in self.alpha.rows() {
                let r = r as usize;
                let a = self.alpha.val[r];
                if a.abs() < 1e-11 {
                    continue;
                }
                let bvar = self.basis[r] as usize;
                let delta = -sigma * a; // change rate of basic var per unit t
                let (t_r, hit) = if delta > 0.0 {
                    let ub = self.upper[bvar];
                    if !ub.is_finite() {
                        continue;
                    }
                    (((ub - self.x[bvar]) / delta).max(0.0), VarState::AtUpper)
                } else {
                    let lb = self.lower[bvar];
                    if !lb.is_finite() {
                        continue;
                    }
                    (((lb - self.x[bvar]) / delta).max(0.0), VarState::AtLower)
                };
                let better = t_r < t_min - 1e-12
                    || (t_r < t_min + 1e-12 && leave.is_some() && a.abs() > leave_pivot.abs());
                if better || (leave.is_none() && t_r < t_min + 1e-12) {
                    t_min = t_min.min(t_r);
                    leave = Some((r, hit));
                    leave_pivot = a;
                }
            }

            if t_min.is_infinite() {
                return Ok(StepResult::Unbounded);
            }

            match leave {
                None => {
                    // Bound flip: entering travels to its opposite bound.
                    // The basis, and with it every reduced cost, stays.
                    self.move_along(j, sigma * own_range);
                    self.state[j] = if sigma > 0.0 { VarState::AtUpper } else { VarState::AtLower };
                    self.tree.touch(j);
                    self.iterations += 1;
                    return Ok(StepResult::Pivoted);
                }
                Some((r, hit)) => {
                    if leave_pivot.abs() < 1e-9 {
                        // Numerically unusable pivot; try another column.
                        banned.push(j);
                        if banned.len() > 40 {
                            return Err(LpError::SingularBasis);
                        }
                        self.tree.mask(j);
                        continue;
                    }
                    let t = t_min;
                    self.move_along(j, sigma * t);
                    let leaving = self.basis[r] as usize;
                    // Pin the leaving variable exactly to the bound it hit.
                    self.x[leaving] = match hit {
                        VarState::AtLower => self.lower[leaving],
                        VarState::AtUpper => self.upper[leaving],
                        VarState::Basic(_) => unreachable!(),
                    };
                    self.update_prices(j, r, leaving);
                    self.state[leaving] = hit;
                    self.basis[r] = j as u32;
                    self.state[j] = VarState::Basic(r as u32);
                    if !self.rep.update(&self.alpha, r) {
                        return Err(LpError::SingularBasis);
                    }
                    self.iterations += 1;
                    if t <= 1e-10 {
                        self.degenerate_run += 1;
                        if self.degenerate_run > BLAND_TRIGGER {
                            self.bland = true;
                        }
                    } else {
                        self.degenerate_run = 0;
                        self.bland = false;
                    }
                    return Ok(StepResult::Pivoted);
                }
            }
        }
    }

    /// Moves entering variable `j` by `step` and the basic variables with
    /// it, along `α`.
    fn move_along(&mut self, j: usize, step: f64) {
        self.x[j] += step;
        for &r in self.alpha.rows() {
            let a = self.alpha.val[r as usize];
            if a != 0.0 {
                let bvar = self.basis[r as usize] as usize;
                self.x[bvar] -= step * a;
            }
        }
    }

    /// Runs the simplex loop to optimality for the objective `obj`.
    fn optimize(&mut self, obj: &[f64]) -> Result<Status, LpError> {
        let limit = self.max_iterations();
        let mut since_resync = 0usize;
        self.prices = Prices::Stale;
        loop {
            if self.iterations >= limit {
                return Ok(Status::IterationLimit);
            }
            match self.step(obj)? {
                StepResult::Optimal => return Ok(Status::Optimal),
                StepResult::Unbounded => return Ok(Status::Unbounded),
                StepResult::Pivoted => {
                    since_resync += 1;
                    if since_resync >= RESYNC_PERIOD {
                        self.resync();
                        since_resync = 0;
                    }
                }
            }
        }
    }

    fn objective(&self, obj: &[f64]) -> f64 {
        obj.iter().zip(&self.x).map(|(c, x)| c * x).sum()
    }

    /// Pins all artificial variables to zero so phase 2 cannot revive them.
    fn fix_artificials(&mut self, n_artificial: usize) {
        let n_total = self.std.cols.len();
        for j in n_total - n_artificial..n_total {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            if !matches!(self.state[j], VarState::Basic(_)) {
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
    }
}

fn run<R: BasisRep>(std: &Std, p: &Problem) -> Result<Solution, LpError> {
    let mut sx = Simplex::<R>::new(std);

    // Phase 1: drive artificials to zero (maximize -Σ|z|; the sign of
    // each term follows the artificial's bounded side).
    if std.n_artificial > 0 {
        let n_total = std.cols.len();
        let mut obj1 = vec![0.0; n_total];
        for j in n_total - std.n_artificial..n_total {
            obj1[j] = if std.upper[j] == 0.0 { 1.0 } else { -1.0 };
        }
        let status = sx.optimize(&obj1)?;
        let infeas = -sx.objective(&obj1);
        if status == Status::IterationLimit {
            return Ok(finish(p, std, &mut sx, Status::IterationLimit));
        }
        if infeas > INFEASIBLE_TOL {
            return Ok(finish(p, std, &mut sx, Status::Infeasible));
        }
        sx.fix_artificials(std.n_artificial);
    }

    let status = sx.optimize(&std.obj)?;
    Ok(finish(p, std, &mut sx, status))
}

fn finish<R: BasisRep>(p: &Problem, std: &Std, sx: &mut Simplex<R>, status: Status) -> Solution {
    let x: Vec<f64> = sx.x[..std.n_struct].to_vec();
    let raw: f64 = p.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
    let duals = if status == Status::Optimal {
        // y = c_B B⁻¹ at the optimum; map back through the row scaling and
        // the internal sense flip (the dual of the original problem's row
        // r is ∂obj/∂rhs_r in the *original* sense).
        sx.load_duals(&std.obj);
        let sense_mul = match p.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        Some(sx.rho.val.iter().zip(&std.row_scale).map(|(&v, &s)| v * s * sense_mul).collect())
    } else {
        None
    };
    Solution { status, objective: raw, x, duals, iterations: sx.iterations }
}

/// Solves `p` on the dense inverse up to [`DENSE_LIMIT`] rows and on the eta
/// file above.
pub(crate) fn solve(p: &Problem) -> Result<Solution, LpError> {
    p.validate()?;
    if p.num_constraints() == 0 {
        // Pure box problem: each variable goes to its best bound.
        let mut x = vec![0.0; p.num_vars()];
        let mul = if p.sense == Sense::Maximize { 1.0 } else { -1.0 };
        let mut unbounded = false;
        for j in 0..p.num_vars() {
            let c = p.obj[j] * mul;
            let target = if c > 0.0 {
                p.upper[j]
            } else if c < 0.0 {
                p.lower[j]
            } else {
                if p.lower[j].is_finite() {
                    p.lower[j]
                } else {
                    p.upper[j]
                }
            };
            if !target.is_finite() && c != 0.0 {
                unbounded = true;
                x[j] = 0.0;
            } else {
                x[j] = if target.is_finite() { target } else { 0.0 };
            }
        }
        let objective = p.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        let status = if unbounded { Status::Unbounded } else { Status::Optimal };
        let duals = (status == Status::Optimal).then(Vec::new);
        return Ok(Solution { status, objective, x, duals, iterations: 0 });
    }

    let std = standardize(p);
    if std.m <= DENSE_LIMIT {
        run::<DenseInverse>(&std, p)
    } else {
        run::<EtaFile>(&std, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{random_feasible_lp, random_lp_lf};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn solve(p: &Problem) -> Solution {
        p.solve().expect("solve should not error")
    }

    /// Solves `p` on the basis representation `R`, whatever its size.
    fn solve_on<R: BasisRep>(p: &Problem) -> Solution {
        run::<R>(&standardize(p), p).expect("solve should not error")
    }

    #[test]
    fn simple_2d_max() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 10.0, 3.0);
        let y = p.add_var(0.0, 10.0, 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 12.0).abs() < 1e-7, "objective {}", s.objective);
        assert!((s.value(x) - 4.0).abs() < 1e-7);
        assert!(s.value(y).abs() < 1e-7);
    }

    #[test]
    fn minimize_with_ge_rows_needs_phase1() {
        // minimize x + 2y  s.t. x + y >= 3, y >= 1, 0 <= x,y <= 10
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 10.0, 1.0);
        let y = p.add_var(0.0, 10.0, 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        p.add_constraint([(y, 1.0)], Cmp::Ge, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-7); // x=2, y=1
    }

    #[test]
    fn equality_row() {
        // maximize x + y  s.t. x + 2y = 4, x <= 2 ⇒ x=2, y=1
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 2.0, 1.0);
        let y = p.add_var(0.0, 100.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn detects_infeasible_le_with_negative_residual() {
        // Regression: a ≤ row whose residual is negative at the starting
        // point needs a negative-side artificial (its basis column must
        // stay +1 or the identity start is silently wrong).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0)], Cmp::Le, -1.0);
        assert_eq!(solve(&p).status, Status::Infeasible);

        // Same shape but feasible thanks to a negative-coefficient var:
        // x - y <= -1 with y up to 3 → optimal x = 2? x - y ≤ -1, x ≤ 1:
        // max x = 1 needs y ≥ 2 ≤ 3 ✓.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_var(0.0, 3.0, 0.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Le, -1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 1.0).abs() < 1e-7, "x = {}", s.value(x));
        assert!(s.value(y) >= 2.0 - 1e-7);
    }

    #[test]
    fn fixed_variables_force_infeasibility_detection() {
        // The exact shape that exposed the artificial-sign bug: fixed
        // variables push a ≤ row's activity above its rhs.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.6649, 1.0);
        let f1 = p.add_var(1.9172, 1.9172, 0.0);
        let f2 = p.add_var(1.6959, 1.6959, 0.0);
        p.add_constraint([(x, 0.8165), (f1, -0.00732), (f2, 1.5261)], Cmp::Le, 2.3498);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        // x - y <= 1 does not bound x when y can grow.
        p.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn bound_flip_only_problem() {
        // maximize x + y with a slack-dominated row: both go to upper bounds.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_var(0.0, 2.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 100.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_constraints_box_only() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(-1.0, 5.0, 2.0);
        let y = p.add_var(-3.0, 4.0, -1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 5.0).abs() < 1e-12);
        assert!((s.value(y) + 3.0).abs() < 1e-12);
        assert!((s.objective - 13.0).abs() < 1e-12);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x s.t. x >= -5 bound, x + y <= 0, y in [2, 3] → x <= -2; min x = -5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(-5.0, 5.0, 1.0);
        let y = p.add_var(2.0, 3.0, 0.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 0.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) + 5.0).abs() < 1e-7);
    }

    /// Fractional knapsack has a closed-form optimum (greedy by ratio);
    /// the LP relaxation must match it exactly. Zero-weight items cost no
    /// capacity, so the LP takes them fully for free — mirror that here
    /// rather than dividing by zero (`values/weights` would be NaN and
    /// poison the ratio sort).
    fn knapsack_optimum(values: &[f64], weights: &[f64], cap: f64) -> f64 {
        let mut total: f64 =
            values.iter().zip(weights).filter(|&(_, &w)| w == 0.0).map(|(&v, _)| v).sum();
        let mut idx: Vec<usize> = (0..values.len()).filter(|&i| weights[i] > 0.0).collect();
        idx.sort_by(|&a, &b| (values[b] / weights[b]).total_cmp(&(values[a] / weights[a])));
        let mut rem = cap;
        for i in idx {
            if rem <= 0.0 {
                break;
            }
            let take = weights[i].min(rem);
            total += values[i] / weights[i] * take;
            rem -= take;
        }
        total
    }

    #[test]
    fn fractional_knapsack_matches_greedy() {
        let values = [6.0, 10.0, 12.0, 7.0, 3.0, 9.0];
        let weights = [1.0, 2.0, 3.0, 2.5, 0.5, 4.0];
        for cap in [0.5, 2.0, 5.0, 9.0, 20.0] {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = values.iter().map(|&v| p.add_var(0.0, 1.0, v)).collect();
            p.add_constraint(vars.iter().zip(&weights).map(|(&v, &w)| (v, w)), Cmp::Le, cap);
            let s = solve(&p);
            assert_eq!(s.status, Status::Optimal);
            let expect = knapsack_optimum(&values, &weights, cap);
            assert!(
                (s.objective - expect).abs() < 1e-6,
                "cap={cap}: got {} expected {expect}",
                s.objective
            );
        }
    }

    #[test]
    fn fractional_knapsack_with_zero_weight_items() {
        // Regression: a zero weight made `values/weights` NaN and the
        // ratio sort panicked. Free items must be taken fully by both the
        // greedy closed form and the LP.
        let values = [4.0, 10.0, 6.0, 3.0];
        let weights = [0.0, 2.0, 0.0, 1.5];
        for cap in [0.0, 1.0, 4.0] {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = values.iter().map(|&v| p.add_var(0.0, 1.0, v)).collect();
            p.add_constraint(vars.iter().zip(&weights).map(|(&v, &w)| (v, w)), Cmp::Le, cap);
            let s = solve(&p);
            assert_eq!(s.status, Status::Optimal);
            let expect = knapsack_optimum(&values, &weights, cap);
            assert!(
                (s.objective - expect).abs() < 1e-6,
                "cap={cap}: got {} expected {expect}",
                s.objective
            );
            // The free items alone are worth 10 regardless of capacity.
            assert!(s.objective >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn dense_and_eta_agree() {
        let mut p = Problem::new(Sense::Maximize);
        let n = 30;
        let vars: Vec<_> = (0..n).map(|i| p.add_var(0.0, 1.0, ((i * 7) % 13) as f64)).collect();
        for r in 0..20 {
            let coeffs: Vec<_> = (0..n)
                .filter(|i| (i + r) % 3 == 0)
                .map(|i| (vars[i], 1.0 + ((i * r) % 5) as f64))
                .collect();
            p.add_constraint(coeffs, Cmp::Le, 10.0 + r as f64);
        }
        // `random_lp_lf(2661)` (279 rows) refactors its eta file with basic
        // columns in permuted rows.
        for p in [p, random_lp_lf(2661).problem] {
            let d = solve_on::<DenseInverse>(&p);
            let e = solve_on::<EtaFile>(&p);
            assert_eq!(d.status, Status::Optimal);
            assert_eq!(e.status, Status::Optimal);
            assert!((d.objective - e.objective).abs() < 1e-6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dense_and_eta_agree_on_random_lps(
            seed in 0u64..10_000, n in 2usize..14, m in 1usize..12, shape in 0u8..4
        ) {
            // One case in four is LP+LF-shaped, with hundreds of columns.
            let lp = if shape == 0 { random_lp_lf(seed) } else { random_feasible_lp(seed, n, m).0 };
            let d = solve_on::<DenseInverse>(&lp.problem);
            let e = solve_on::<EtaFile>(&lp.problem);
            prop_assert_eq!(d.status, Status::Optimal);
            prop_assert_eq!(e.status, Status::Optimal);
            prop_assert!((d.objective - e.objective).abs() < 1e-6,
                "seed {seed} shape {shape}: dense {} vs eta {}", d.objective, e.objective);
        }
    }

    /// The per-pivot scan the [`Tournament`] replaced, kept as its oracle:
    /// the largest `|d_j|` among the columns that may enter and are not
    /// banned, the first of equals, or in Bland mode the first such column.
    fn scan_entering(
        d: &[f64],
        state: &[VarState],
        lower: &[f64],
        upper: &[f64],
        banned: &[usize],
        bland: bool,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (j, &d) in d.iter().enumerate() {
            if banned.contains(&j) {
                continue;
            }
            let eligible_dir = match state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
            };
            if lower[j] == upper[j] {
                continue; // fixed
            }
            if d * eligible_dir <= OPT_TOL {
                continue;
            }
            if bland {
                return Some(j);
            }
            match best {
                Some((_, bd)) if bd.abs() >= d.abs() => {}
                _ => best = Some((j, d)),
            }
        }
        best.map(|(j, _)| j)
    }

    /// Reduced costs drawn from a few magnitudes, either sign, and values
    /// on both sides of the tolerance, so that ties are common.
    fn tied_cost(rng: &mut StdRng) -> f64 {
        const COSTS: [f64; 8] = [0.0, 5e-8, 2e-7, 0.5, 1.0, 1.0, 2.0, 3.0];
        let d = COSTS[rng.random_range(0..COSTS.len())];
        if rng.random_bool(0.5) {
            -d
        } else {
            d
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // After every batch of key updates and bound flips, the tournament
        // picks what the scan picks: the Dantzig column, Bland's column,
        // and both again with a random set of columns banned.
        #[test]
        fn tournament_picks_what_the_scan_picks(seed in 0u64..1_000_000, n in 1usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d: Vec<f64> = (0..n).map(|_| tied_cost(&mut rng)).collect();
            let mut state: Vec<VarState> = (0..n)
                .map(|r| match rng.random_range(0..4) {
                    0 => VarState::Basic(r as u32),
                    1 => VarState::AtUpper,
                    _ => VarState::AtLower,
                })
                .collect();
            let lower = vec![0.0; n];
            let upper: Vec<f64> =
                (0..n).map(|_| if rng.random_bool(0.1) { 0.0 } else { 1.0 }).collect();
            let mut tree = Tournament::new(n);
            for step in 0..40 {
                for _ in 0..rng.random_range(1..=n.min(12)) {
                    let j = rng.random_range(0..n);
                    match rng.random_range(0..4) {
                        // A bound flip, or a pivot's entering and leaving
                        // columns.
                        0 => {
                            state[j] = match state[j] {
                                VarState::AtLower => VarState::AtUpper,
                                VarState::AtUpper => VarState::AtLower,
                                VarState::Basic(_) => VarState::AtLower,
                            }
                        }
                        1 => state[j] = VarState::Basic(0),
                        _ => d[j] = tied_cost(&mut rng),
                    }
                    tree.touch(j);
                }
                let key = |j: usize| entering_key(d[j], state[j], lower[j], upper[j]);
                if step == 0 || rng.random_bool(0.1) {
                    tree.rebuild(key);
                } else {
                    tree.flush(key);
                }
                let scan = |banned: &[usize], bland| {
                    scan_entering(&d, &state, &lower, &upper, banned, bland)
                };
                prop_assert_eq!(tree.best(), scan(&[], false), "step {}", step);
                prop_assert_eq!(tree.first(), scan(&[], true), "step {}", step);
                // Ban the current winners as well as random columns.
                let mut banned: Vec<usize> = Vec::new();
                for _ in 0..rng.random_range(0..4) {
                    let j = match tree.best() {
                        Some(j) if rng.random_bool(0.5) => j,
                        _ => rng.random_range(0..n),
                    };
                    banned.push(j);
                    tree.mask(j);
                    prop_assert_eq!(tree.best(), scan(&banned, false), "step {}", step);
                    prop_assert_eq!(tree.first(), scan(&banned, true), "step {}", step);
                }
            }
        }
    }

    /// After a real pivot, 21 tied columns each meet a degenerate row
    /// through a 1e-10 pivot: each is banned in turn, the step finds no
    /// entering column, confirms that against fresh duals and must keep
    /// the banned columns out. Banning them again would pass the limit of
    /// 40 retries and fail the solve.
    fn banned_columns_stay_out_after_a_fresh_pricing<R: BasisRep>() {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<_> = (0..21).map(|_| p.add_var(0.0, 1.0, 1.0)).collect();
        let w = p.add_var(0.0, 1.0, 0.0);
        let z = p.add_var(0.0, 1.0, 2.0);
        p.add_constraint(xs.iter().map(|&x| (x, 1e-10)).chain([(w, 1.0)]), Cmp::Le, 0.0);
        p.add_constraint([(z, 1.0)], Cmp::Le, 0.5);
        let s = solve_on::<R>(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-9, "objective {}", s.objective);
        assert_eq!(s.iterations, 1);
    }

    #[test]
    fn banned_columns_stay_out_after_a_fresh_pricing_on_both_representations() {
        banned_columns_stay_out_after_a_fresh_pricing::<DenseInverse>();
        banned_columns_stay_out_after_a_fresh_pricing::<EtaFile>();
    }

    /// Refactors a basis that holds the slacks of rows 0 and 1 in swapped
    /// rows and a structural column in row 2, then checks that ftran and
    /// btran solve against it.
    fn refactor_rebuilds_permuted_basis<R: BasisRep>() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint([(x, 2.0)], Cmp::Le, 3.0);
        p.add_constraint([(x, 4.0)], Cmp::Le, 5.0);
        let std = standardize(&p);
        let mut sx = Simplex::<R>::new(&std);
        let (s0, s1, s2) = (std.n_struct, std.n_struct + 1, std.n_struct + 2);
        sx.basis = vec![s1 as u32, s0 as u32, x.index() as u32];
        for (r, &j) in sx.basis.iter().enumerate() {
            sx.state[j as usize] = VarState::Basic(r as u32);
        }
        sx.state[s2] = VarState::AtLower;
        sx.refactor().expect("a nonsingular basis must rebuild");

        let basis = sx.basis.clone();
        let mut in_basis = basis.clone();
        in_basis.sort_unstable();
        assert_eq!(in_basis, [x.index() as u32, s0 as u32, s1 as u32]);
        for (r, &j) in basis.iter().enumerate() {
            assert_eq!(sx.state[j as usize], VarState::Basic(r as u32));
            // B α = a_j: the basic column of row r maps to e_r.
            sx.load_column(j as usize);
            sx.rep.ftran(&mut sx.alpha);
            for i in 0..std.m {
                let e = if i == r { 1.0 } else { 0.0 };
                assert!((sx.alpha.val[i] - e).abs() < 1e-12, "ftran of row {r}'s column");
            }
        }
        // Bᵀ y = c: y · a_j = c_r for the basic column of every row r.
        let c = [3.0, -2.0, 0.5];
        sx.rho.clear();
        for (r, &v) in c.iter().enumerate() {
            sx.rho.set(r, v);
        }
        sx.rep.btran(&mut sx.rho);
        for (r, &j) in basis.iter().enumerate() {
            let dot: f64 =
                std.cols[j as usize].iter().map(|&(i, a)| a * sx.rho.val[i as usize]).sum();
            assert!((dot - c[r]).abs() < 1e-12, "btran: row {r} reads {dot}, not {}", c[r]);
        }
    }

    #[test]
    fn refactor_rebuilds_permuted_basis_on_both_representations() {
        refactor_rebuilds_permuted_basis::<DenseInverse>();
        refactor_rebuilds_permuted_basis::<EtaFile>();
    }

    #[test]
    fn degenerate_transportation_like() {
        // Highly degenerate assignment-style LP.
        let mut p = Problem::new(Sense::Minimize);
        let n = 4;
        let cost = [
            [4.0, 2.0, 5.0, 7.0],
            [8.0, 3.0, 10.0, 8.0],
            [1.0, 9.0, 7.0, 4.0],
            [6.0, 5.0, 3.0, 2.0],
        ];
        let mut vars = vec![vec![]; n];
        for i in 0..n {
            for j in 0..n {
                vars[i].push(p.add_var(0.0, 1.0, cost[i][j]));
            }
        }
        for i in 0..n {
            p.add_constraint((0..n).map(|j| (vars[i][j], 1.0)), Cmp::Eq, 1.0);
        }
        for j in 0..n {
            p.add_constraint((0..n).map(|i| (vars[i][j], 1.0)), Cmp::Eq, 1.0);
        }
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        // Optimal assignment: (0,1)=2,(1,?)… brute force over permutations:
        let mut best = f64::INFINITY;
        let perms = permutations(n);
        for perm in perms {
            let c: f64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            best = best.min(c);
        }
        assert!((s.objective - best).abs() < 1e-6, "{} vs {}", s.objective, best);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn rec(cur: &mut Vec<usize>, used: &mut Vec<bool>, n: usize, out: &mut Vec<Vec<usize>>) {
            if cur.len() == n {
                out.push(cur.clone());
                return;
            }
            for j in 0..n {
                if !used[j] {
                    used[j] = true;
                    cur.push(j);
                    rec(cur, used, n, out);
                    cur.pop();
                    used[j] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(&mut Vec::new(), &mut vec![false; n], n, &mut out);
        out
    }

    #[test]
    fn solution_respects_constraints_and_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 3.0, 5.0);
        let y = p.add_var(1.0, 4.0, 4.0);
        p.add_constraint([(x, 2.0), (y, 1.0)], Cmp::Le, 6.0);
        p.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Le, 9.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        let (xv, yv) = (s.value(x), s.value(y));
        assert!(2.0 * xv + yv <= 6.0 + 1e-7);
        assert!(xv + 3.0 * yv <= 9.0 + 1e-7);
        assert!((0.0..=3.0 + 1e-9).contains(&xv));
        assert!((1.0 - 1e-9..=4.0 + 1e-9).contains(&yv));
    }
}
