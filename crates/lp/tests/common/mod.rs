//! Random LP generators shared by the solver's unit tests and its
//! proptests. Each returns an [`Lp`]: the [`Problem`] together with a copy
//! of its data, so a test can check a solution against the rows.

// Each including test crate uses a different subset of these items.
#![allow(dead_code)]

use super::{Cmp, Problem, Sense, VarId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;

/// One constraint: `(variable index, coefficient)` terms, comparison,
/// right-hand side.
pub type Row = (Vec<(usize, f64)>, Cmp, f64);

/// A program built through the [`Problem`] API, with a copy of its data.
pub struct Lp {
    pub problem: Problem,
    pub sense: Sense,
    pub obj: Vec<f64>,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub rows: Vec<Row>,
}

impl Lp {
    fn new(sense: Sense) -> Lp {
        Lp {
            problem: Problem::new(sense),
            sense,
            obj: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.problem.add_var(lower, upper, obj)
    }

    fn row(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        self.rows.push((terms.iter().map(|&(v, a)| (v.index(), a)).collect(), cmp, rhs));
        self.problem.add_constraint(terms, cmp, rhs);
    }

    /// The same feasible set under the opposite sense and negated
    /// objective, so its optimum is this one's, negated.
    pub fn mirrored(&self) -> Lp {
        let sense = match self.sense {
            Sense::Maximize => Sense::Minimize,
            Sense::Minimize => Sense::Maximize,
        };
        let mut lp = Lp::new(sense);
        let vars: Vec<VarId> = (0..self.obj.len())
            .map(|j| lp.var(self.lower[j], self.upper[j], -self.obj[j]))
            .collect();
        for (terms, cmp, rhs) in &self.rows {
            lp.row(terms.iter().map(|&(j, a)| (vars[j], a)).collect(), *cmp, *rhs);
        }
        lp
    }
}

/// Builds a random feasible LP: maximize c·x over x ∈ [0,1]^n with rows
/// a·x ≤ a·x0 + margin for a known x0 ∈ [0,1]^n, returned beside the LP.
pub fn random_feasible_lp(seed: u64, n: usize, m: usize) -> (Lp, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = Lp::new(Sense::Maximize);
    let c: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
    let vars: Vec<_> = c.iter().map(|&ci| lp.var(0.0, 1.0, ci)).collect();
    let x0: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
    for _ in 0..m {
        let mut coeffs = Vec::new();
        for j in 0..n {
            if rng.random_bool(0.5) {
                coeffs.push((j, rng.random_range(-3.0..3.0)));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        let lhs_at_x0: f64 = coeffs.iter().map(|&(j, a)| a * x0[j]).sum();
        let margin = rng.random_range(0.0..2.0);
        lp.row(coeffs.iter().map(|&(j, a)| (vars[j], a)).collect(), Cmp::Le, lhs_at_x0 + margin);
    }
    (lp, x0)
}

/// [`lp_lf`] over a random tree of 150–300 nodes and 6–9 samples of 3–5
/// top nodes each: hundreds of columns, ~130–350 rows (the dense inverse's
/// side of the size split), and typically 130–300 pivots, so most cases
/// pass the 120-pivot resync period and build up pricing drift.
pub fn random_lp_lf(seed: u64) -> Lp {
    lp_lf(seed, 150..300, 6..10, 3..6)
}

/// Builds a program shaped like the planner's LP+LF formulation over a
/// random tree of `nodes` nodes and `samples` samples of `k` top nodes
/// each: per edge on a path from a top node to the root, a bandwidth
/// variable `w_e` and a visit variable `y_e`; per (sample, top node), a
/// delivery variable `x` worth 1. Rows: `x ≤ y` of the node's edge,
/// `y_e ≤ y` of the parent edge, `Σ x ≤ w_e` per (sample, edge), and one
/// budget row over `w` and `y` that affords a random share of every used
/// edge.
pub fn lp_lf(seed: u64, nodes: Range<usize>, samples: Range<usize>, k: Range<usize>) -> Lp {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1f1f);
    let nodes = rng.random_range(nodes);
    let samples = rng.random_range(samples);
    let k = rng.random_range(k);
    // Node 0 is the root; edge i joins node i to its parent.
    let parent: Vec<usize> =
        (0..nodes).map(|i| if i == 0 { 0 } else { rng.random_range(0..i) }).collect();
    let mut below = vec![1usize; nodes];
    for i in (1..nodes).rev() {
        below[parent[i]] += below[i];
    }
    let path = |mut i: usize| {
        let mut edges = Vec::new();
        while i != 0 {
            edges.push(i);
            i = parent[i];
        }
        edges
    };
    let tops: Vec<Vec<usize>> = (0..samples)
        .map(|_| {
            let mut top: Vec<usize> = Vec::new();
            while top.len() < k {
                let i = rng.random_range(1..nodes);
                if !top.contains(&i) {
                    top.push(i);
                }
            }
            top
        })
        .collect();

    let mut lp = Lp::new(Sense::Maximize);
    let mut relevant = vec![false; nodes];
    for &i in tops.iter().flatten() {
        for e in path(i) {
            relevant[e] = true;
        }
    }
    let mut w: Vec<Option<VarId>> = vec![None; nodes];
    let mut y: Vec<Option<VarId>> = vec![None; nodes];
    let mut budget_terms = Vec::new();
    let mut full_cost = 0.0;
    for e in (1..nodes).filter(|&e| relevant[e]) {
        let (value_cost, message_cost) = (rng.random_range(0.5..2.0), rng.random_range(1.0..3.0));
        let we = lp.var(0.0, below[e].min(k) as f64, 0.0);
        let ye = lp.var(0.0, 1.0, 0.0);
        budget_terms.push((we, value_cost));
        budget_terms.push((ye, message_cost));
        full_cost += value_cost * below[e].min(k) as f64 + message_cost;
        w[e] = Some(we);
        y[e] = Some(ye);
    }
    let mut through: BTreeMap<(usize, usize), Vec<VarId>> = BTreeMap::new();
    for (j, top) in tops.iter().enumerate() {
        for &i in top {
            let x = lp.var(0.0, 1.0, 1.0);
            lp.row(vec![(x, 1.0), (y[i].unwrap(), -1.0)], Cmp::Le, 0.0);
            for e in path(i) {
                through.entry((j, e)).or_default().push(x);
            }
        }
    }
    for e in (1..nodes).filter(|&e| relevant[e] && parent[e] != 0) {
        lp.row(vec![(y[e].unwrap(), 1.0), (y[parent[e]].unwrap(), -1.0)], Cmp::Le, 0.0);
    }
    for (&(_, e), xs) in &through {
        let terms = xs.iter().map(|&x| (x, 1.0)).chain([(w[e].unwrap(), -1.0)]);
        lp.row(terms.collect(), Cmp::Le, 0.0);
    }
    let share = rng.random_range(0.1..0.8);
    lp.row(budget_terms, Cmp::Le, share * full_cost);
    lp
}
