//! Transient link failures (Section 4.4 of the paper).
//!
//! Permanent failures are handled by rebuilding the spanning tree and
//! re-optimizing; transient failures are frequent and are instead folded
//! into the cost model: "we simply increase the cost of each edge by the
//! product of its failure probability and the extra cost incurred by
//! re-routing". This module provides both the statistical model used by
//! planners and the sampling hook used by the execution simulator to
//! inject actual failures.

use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;

/// Errors from building a [`FailureModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModelError {
    /// The per-edge probability vector does not cover every node of the
    /// topology it is meant for.
    LengthMismatch { expected: usize, got: usize },
    /// A probability is outside `[0, 1]`.
    ProbOutOfRange { index: usize, prob: f64 },
    /// A node id is outside the `len` nodes the model covers.
    NodeOutOfRange { index: usize, len: usize },
}

impl fmt::Display for FailureModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureModelError::LengthMismatch { expected, got } => {
                write!(f, "failure model covers {got} nodes but the topology has {expected}")
            }
            FailureModelError::ProbOutOfRange { index, prob } => {
                write!(f, "failure probability {prob} at node {index} is outside [0, 1]")
            }
            FailureModelError::NodeOutOfRange { index, len } => {
                write!(f, "node {index} is outside the failure model's {len} nodes")
            }
        }
    }
}

impl std::error::Error for FailureModelError {}

/// Per-edge transient failure statistics.
#[derive(Debug, Clone)]
pub struct FailureModel {
    /// Probability that a unicast on edge `e` (identified by child node)
    /// fails and must be rerouted. Indexed by node id; the root's entry is
    /// unused.
    fail_prob: Vec<f64>,
    /// Extra energy (mJ) spent rerouting one failed message around an edge.
    reroute_penalty_mj: f64,
}

impl FailureModel {
    /// A model in which no edge ever fails.
    pub fn none(n: usize) -> Self {
        FailureModel { fail_prob: vec![0.0; n], reroute_penalty_mj: 0.0 }
    }

    /// The same failure probability on every edge.
    pub fn uniform(n: usize, prob: f64, reroute_penalty_mj: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        FailureModel { fail_prob: vec![prob; n], reroute_penalty_mj }
    }

    /// Per-edge probabilities (collected as statistics by the network).
    /// `n` is the node count of the topology this model is for; the vector
    /// must have exactly one entry per node (the root's entry is unused)
    /// and every probability must lie in `[0, 1]`.
    pub fn per_edge(
        n: usize,
        fail_prob: Vec<f64>,
        reroute_penalty_mj: f64,
    ) -> Result<Self, FailureModelError> {
        if fail_prob.len() != n {
            return Err(FailureModelError::LengthMismatch { expected: n, got: fail_prob.len() });
        }
        for (index, &prob) in fail_prob.iter().enumerate() {
            if !(0.0..=1.0).contains(&prob) {
                return Err(FailureModelError::ProbOutOfRange { index, prob });
            }
        }
        Ok(FailureModel { fail_prob, reroute_penalty_mj })
    }

    /// Number of nodes this model covers.
    pub fn len(&self) -> usize {
        self.fail_prob.len()
    }

    /// True when the model covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.fail_prob.is_empty()
    }

    /// Permanently worsens the link above `child` by `added_prob`
    /// (saturating at probability 1), e.g. after a
    /// [`FaultEvent::LinkDegrade`](crate::fault::FaultEvent) fires.
    ///
    /// Mirrors [`FailureModel::per_edge`]'s validation: a non-finite or
    /// out-of-range `added_prob` is rejected rather than poisoning the
    /// model (NaN would propagate into every later `sample_failure` and
    /// cost estimate), and so is a `child` outside the model.
    pub fn degrade(&mut self, child: NodeId, added_prob: f64) -> Result<(), FailureModelError> {
        if !added_prob.is_finite() || !(0.0..=1.0).contains(&added_prob) {
            return Err(FailureModelError::ProbOutOfRange {
                index: child.index(),
                prob: added_prob,
            });
        }
        let len = self.fail_prob.len();
        let p = self
            .fail_prob
            .get_mut(child.index())
            .ok_or(FailureModelError::NodeOutOfRange { index: child.index(), len })?;
        *p = (*p + added_prob).min(1.0);
        Ok(())
    }

    /// Failure probability of the edge above `child`.
    pub fn prob(&self, child: NodeId) -> f64 {
        self.fail_prob[child.index()]
    }

    /// Extra energy charged when a message on this edge must be rerouted.
    pub fn reroute_penalty(&self) -> f64 {
        self.reroute_penalty_mj
    }

    /// Expected extra cost per message on the edge above `child`; planners
    /// add this to the per-message cost (Section 4.4).
    pub fn expected_extra_cost(&self, child: NodeId) -> f64 {
        self.prob(child) * self.reroute_penalty_mj
    }

    /// Samples whether a message on the edge above `child` fails.
    pub fn sample_failure(&self, child: NodeId, rng: &mut StdRng) -> bool {
        let p = self.prob(child);
        p > 0.0 && rng.random_bool(p)
    }

    /// True when the model can never produce a failure.
    pub fn is_trivial(&self) -> bool {
        self.fail_prob.iter().all(|&p| p == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_never_fails() {
        let m = FailureModel::none(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.is_trivial());
        for _ in 0..100 {
            assert!(!m.sample_failure(NodeId(2), &mut rng));
        }
        assert_eq!(m.expected_extra_cost(NodeId(1)), 0.0);
    }

    #[test]
    fn uniform_sampling_matches_probability() {
        let m = FailureModel::uniform(4, 0.3, 2.0);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let fails = (0..trials).filter(|_| m.sample_failure(NodeId(1), &mut rng)).count();
        let rate = fails as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
        assert!((m.expected_extra_cost(NodeId(1)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn per_edge_probabilities() {
        let m = FailureModel::per_edge(3, vec![0.0, 0.5, 1.0], 1.0).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.prob(NodeId(0)), 0.0);
        assert_eq!(m.prob(NodeId(2)), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.sample_failure(NodeId(2), &mut rng));
        assert!(!m.sample_failure(NodeId(0), &mut rng));
    }

    #[test]
    fn per_edge_rejects_length_mismatch() {
        assert_eq!(
            FailureModel::per_edge(4, vec![0.1; 3], 1.0).unwrap_err(),
            FailureModelError::LengthMismatch { expected: 4, got: 3 }
        );
    }

    #[test]
    fn per_edge_rejects_bad_probability() {
        assert_eq!(
            FailureModel::per_edge(2, vec![0.1, 1.5], 1.0).unwrap_err(),
            FailureModelError::ProbOutOfRange { index: 1, prob: 1.5 }
        );
    }

    #[test]
    fn degrade_accumulates_and_clamps() {
        let mut m = FailureModel::uniform(3, 0.2, 1.0);
        m.degrade(NodeId(1), 0.3).unwrap();
        assert!((m.prob(NodeId(1)) - 0.5).abs() < 1e-12);
        assert!((m.prob(NodeId(2)) - 0.2).abs() < 1e-12, "other edges untouched");
        m.degrade(NodeId(1), 0.9).unwrap();
        assert_eq!(m.prob(NodeId(1)), 1.0, "clamped to certainty");
        assert!(!m.is_trivial());
    }

    #[test]
    fn degrade_rejects_invalid_added_probability() {
        // Regression: `degrade` must mirror `per_edge`'s validation —
        // out-of-range and non-finite increments are errors, and a failed
        // call leaves the model untouched.
        let mut m = FailureModel::uniform(3, 0.2, 1.0);
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = m.degrade(NodeId(1), bad).unwrap_err();
            match err {
                FailureModelError::ProbOutOfRange { index, prob } => {
                    assert_eq!(index, 1);
                    assert!(prob.is_nan() == bad.is_nan() && (prob.is_nan() || prob == bad));
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert!((m.prob(NodeId(1)) - 0.2).abs() < 1e-12, "model unchanged after {bad}");
        }
        assert!(m.prob(NodeId(1)).is_finite());
    }

    #[test]
    fn degrade_rejects_a_node_outside_the_model() {
        let mut m = FailureModel::uniform(3, 0.2, 1.0);
        assert_eq!(
            m.degrade(NodeId(3), 0.1).unwrap_err(),
            FailureModelError::NodeOutOfRange { index: 3, len: 3 }
        );
        assert!((0..3).all(|i| m.prob(NodeId(i)) == 0.2), "model unchanged");
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_probability() {
        FailureModel::uniform(2, 1.5, 0.0);
    }
}
