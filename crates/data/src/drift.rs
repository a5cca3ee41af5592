//! Drift workloads for the continuous-query mode.
//!
//! The continuous protocol's entire value proposition is "quiet epochs
//! are (nearly) free", so its benchmarks and differential tests need
//! sources whose *rate of change* is a tunable knob — unlike
//! [`IndependentGaussian`](crate::IndependentGaussian), which redraws
//! every node every epoch, or [`RandomWalk`](crate::RandomWalk), which
//! carries mutable state and cannot regenerate an arbitrary epoch after
//! a crash-resume.
//!
//! Both sources here are **pure per epoch**: `values(e)` is a function
//! of the configuration and `e` alone, so checkpoint/resume replays
//! identically and any epoch can be queried out of order.
//! [`DriftField`] keeps a one-epoch memo — the last epoch it served and
//! that epoch's readings — so that the next epoch costs only the nodes
//! that redraw. The memo holds exactly one epoch, and every other query
//! (a repeat, a skip, a step backwards, a fresh clone's first call)
//! takes the stateless scan; either way the result is the same bits.

use crate::source::ValueSource;
use crate::stats::{mix_seed, normal};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-node hold-or-redraw drift: at every epoch each node independently
/// redraws from its `N(mean_i, std_i²)` with probability `change_prob`
/// and otherwise holds its previous reading bit-for-bit. `change_prob`
/// is the drift rate: `0.0` is a perfectly quiet network (constant after
/// epoch 0), `1.0` degenerates to [`crate::IndependentGaussian`]
/// behaviour.
#[derive(Debug, Clone)]
pub struct DriftField {
    means: Vec<f64>,
    std_devs: Vec<f64>,
    change_prob: f64,
    seed: u64,
    /// The last epoch served and its readings.
    memo: Option<(u64, Vec<f64>)>,
}

impl DriftField {
    /// Explicit parameters. `change_prob` must be in `[0, 1]`.
    pub fn new(means: Vec<f64>, std_devs: Vec<f64>, change_prob: f64, seed: u64) -> Self {
        assert_eq!(means.len(), std_devs.len());
        assert!(std_devs.iter().all(|s| *s >= 0.0), "negative std dev");
        assert!((0.0..=1.0).contains(&change_prob), "change_prob outside [0, 1]");
        DriftField { means, std_devs, change_prob, seed, memo: None }
    }

    /// Means uniform in `mean_range`, standard deviations uniform in
    /// `std_range` (mirrors [`crate::IndependentGaussian::random`]).
    pub fn random(
        n: usize,
        mean_range: std::ops::Range<f64>,
        std_range: std::ops::Range<f64>,
        change_prob: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0, 0xD81F7));
        let means = (0..n).map(|_| rng.random_range(mean_range.clone())).collect();
        let std_devs = (0..n).map(|_| rng.random_range(std_range.clone())).collect();
        DriftField::new(means, std_devs, change_prob, seed)
    }

    /// The drift rate.
    pub fn change_prob(&self) -> f64 {
        self.change_prob
    }

    /// Whether node `i` redraws at `epoch`. Epoch 0 always redraws so
    /// every node starts with a defined value.
    fn changes_at(&self, epoch: u64, i: usize) -> bool {
        if epoch == 0 {
            return true;
        }
        if self.change_prob <= 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, epoch, 0x2_0000 + i as u64));
        rng.random_range(0.0..1.0) < self.change_prob
    }

    /// The epoch node `i`'s current value was drawn at: the latest
    /// change epoch `<= epoch`. Linear scan backwards — run lengths are
    /// geometric with mean `1/change_prob`, and epoch 0 terminates it.
    fn draw_epoch(&self, epoch: u64, i: usize) -> u64 {
        (0..=epoch).rev().find(|&e| self.changes_at(e, i)).unwrap_or(0)
    }

    /// Node `i`'s reading as drawn at change epoch `e`.
    fn draw(&self, e: u64, i: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, e, 0x3_0000 + i as u64));
        normal(&mut rng, self.means[i], self.std_devs[i])
    }
}

impl ValueSource for DriftField {
    fn num_nodes(&self) -> usize {
        self.means.len()
    }

    fn values(&mut self, epoch: u64) -> Vec<f64> {
        let row = match self.memo.take() {
            // A node that does not change at `epoch` holds its reading
            // from `epoch - 1`: only the changers redraw.
            Some((last, mut row)) if epoch.checked_sub(1) == Some(last) => {
                for (i, v) in row.iter_mut().enumerate() {
                    if self.changes_at(epoch, i) {
                        *v = self.draw(epoch, i);
                    }
                }
                row
            }
            _ => (0..self.means.len()).map(|i| self.draw(self.draw_epoch(epoch, i), i)).collect(),
        };
        self.memo = Some((epoch, row.clone()));
        row
    }

    fn name(&self) -> &'static str {
        "drift-field"
    }
}

/// Fully scripted readings: a base vector plus pinned step changes.
/// `values(e)` is the base with every step `(step_epoch, node, value)`
/// with `step_epoch <= e` applied in order. This is the golden-scenario
/// workload: quiet epochs are exactly constant, and each interesting
/// event is placed by hand.
#[derive(Debug, Clone)]
pub struct PiecewiseConstant {
    base: Vec<f64>,
    steps: Vec<(u64, usize, f64)>,
}

impl PiecewiseConstant {
    /// `steps` are `(epoch, node, new_value)` and must reference valid
    /// nodes; they are applied in the order given.
    pub fn new(base: Vec<f64>, steps: Vec<(u64, usize, f64)>) -> Self {
        assert!(steps.iter().all(|&(_, node, _)| node < base.len()), "step node out of range");
        PiecewiseConstant { base, steps }
    }
}

impl ValueSource for PiecewiseConstant {
    fn num_nodes(&self) -> usize {
        self.base.len()
    }

    fn values(&mut self, epoch: u64) -> Vec<f64> {
        let mut v = self.base.clone();
        for &(e, node, value) in &self.steps {
            if e <= epoch {
                v[node] = value;
            }
        }
        v
    }

    fn name(&self) -> &'static str {
        "piecewise-constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_drift_is_constant_after_epoch_zero() {
        let mut s = DriftField::random(8, 10.0..20.0, 1.0..2.0, 0.0, 7);
        let v0 = s.values(0);
        for e in 1..10 {
            let ve = s.values(e);
            for (a, b) in v0.iter().zip(&ve) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn full_drift_redraws_every_epoch() {
        let mut s = DriftField::random(8, 10.0..20.0, 1.0..2.0, 1.0, 7);
        let v0 = s.values(0);
        let v1 = s.values(1);
        assert!(v0.iter().zip(&v1).any(|(a, b)| a.to_bits() != b.to_bits()));
    }

    /// `values(e)` is a pure function of `e`: whatever sequence of
    /// epochs a field has served, and whatever its one-epoch memo holds,
    /// it returns the bits a fresh field's first call (the stateless
    /// scan) returns.
    #[test]
    fn values_are_reproducible_and_order_independent() {
        let mut s = DriftField::random(6, 0.0..50.0, 0.5..1.5, 0.3, 11);
        let forward: Vec<Vec<f64>> = (0..12).map(|e| s.values(e)).collect();
        let mut s2 = s.clone();
        for e in (0..12).rev() {
            let v = s2.values(e);
            assert_eq!(v, forward[e as usize], "epoch {e}");
        }

        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for change_prob in [0.0, 0.1, 1.0] {
            let make = || DriftField::random(40, 10.0..90.0, 0.5..3.0, change_prob, 23);
            let fresh = |e: u64| bits(make().values(e));
            // Forward runs (memo hits), a repeat, skips, and backward steps.
            let epochs = [0, 1, 2, 3, 3, 4, 9, 10, 11, 7, 6, 30, 31, 0, 1, 2];
            let mut s = make();
            let mut mid_run = None;
            for (step, &e) in epochs.iter().enumerate() {
                assert_eq!(bits(s.values(e)), fresh(e), "p={change_prob}, step {step}, epoch {e}");
                if step == 8 {
                    mid_run = Some(s.clone());
                }
            }
            // A clone taken mid-run (last served epoch 11) carries on from
            // its own memo.
            let mut c = mid_run.expect("cloned at step 8");
            for e in [12, 13, 13, 20, 19] {
                assert_eq!(bits(c.values(e)), fresh(e), "p={change_prob}, clone, epoch {e}");
            }
        }
    }

    #[test]
    fn intermediate_drift_holds_some_values() {
        let mut s = DriftField::random(16, 10.0..20.0, 1.0..2.0, 0.3, 5);
        let v1 = s.values(1);
        let v2 = s.values(2);
        let held = v1.iter().zip(&v2).filter(|(a, b)| a.to_bits() == b.to_bits()).count();
        assert!(held > 0, "expected some nodes to hold at drift 0.3");
        assert!(held < 16, "expected some nodes to change at drift 0.3");
    }

    #[test]
    fn piecewise_steps_apply_and_persist() {
        let mut s = PiecewiseConstant::new(vec![1.0, 2.0, 3.0], vec![(4, 1, 9.0)]);
        assert_eq!(s.values(3), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.values(4), vec![1.0, 9.0, 3.0]);
        assert_eq!(s.values(10), vec![1.0, 9.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "step node out of range")]
    fn piecewise_rejects_bad_node() {
        PiecewiseConstant::new(vec![1.0], vec![(0, 3, 2.0)]);
    }
}
