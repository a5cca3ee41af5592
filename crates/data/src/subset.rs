//! Generalized subset queries (Section 3).
//!
//! "Note that this approach can be easily generalized to queries that
//! return subsets of all sensor values, e.g., selection and quantile
//! queries. In the general case, we would set `M[j][i] = 1` if node i
//! contributes to the answer in the j-th sample … The optimization goal
//! would still be to minimize the total number of 1's in M missed by the
//! plan."
//!
//! This module supplies the generalized answer definitions and the
//! corresponding sample window; `prospector-core::subset` plans against
//! it.

use crate::samples::{top_k_nodes, Reading};
use prospector_net::NodeId;
use std::collections::VecDeque;

/// What counts as "the answer" within one epoch's readings.
///
/// ```
/// use prospector_data::AnswerSpec;
/// use prospector_net::NodeId;
///
/// let values = [1.0, 9.0, 5.0, 7.0];
/// assert_eq!(
///     AnswerSpec::AboveThreshold(6.0).answer_nodes(&values),
///     vec![NodeId(1), NodeId(3)],
/// );
/// assert_eq!(AnswerSpec::TopK(1).answer_nodes(&values), vec![NodeId(1)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerSpec {
    /// The k highest readings (the paper's main query).
    TopK(usize),
    /// All readings strictly above a threshold (selection query).
    AboveThreshold(f64),
    /// All readings strictly below a threshold.
    BelowThreshold(f64),
    /// Readings between the `lo` and `hi` quantiles, inclusive
    /// (`0 ≤ lo ≤ hi ≤ 1`); `{lo: 0.5, hi: 0.5}` asks for the median.
    QuantileBand { lo: f64, hi: f64 },
}

impl AnswerSpec {
    /// Nodes contributing to the answer for `values`, in rank order
    /// (highest first) for deterministic downstream processing.
    pub fn answer_nodes(&self, values: &[f64]) -> Vec<NodeId> {
        match *self {
            AnswerSpec::TopK(k) => top_k_nodes(values, k),
            AnswerSpec::AboveThreshold(t) => {
                let mut nodes: Vec<Reading> = values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v > t)
                    .map(|(i, &v)| Reading { node: NodeId::from_index(i), value: v })
                    .collect();
                nodes.sort_unstable_by(Reading::rank_cmp);
                nodes.into_iter().map(|r| r.node).collect()
            }
            AnswerSpec::BelowThreshold(t) => {
                let mut nodes: Vec<Reading> = values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v < t)
                    .map(|(i, &v)| Reading { node: NodeId::from_index(i), value: v })
                    .collect();
                nodes.sort_unstable_by(Reading::rank_cmp);
                nodes.into_iter().map(|r| r.node).collect()
            }
            AnswerSpec::QuantileBand { lo, hi } => {
                assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0, "bad quantile band");
                let n = values.len();
                if n == 0 {
                    return Vec::new();
                }
                // Rank values ascending; keep positions whose quantile
                // (rank / (n-1), midpoint convention for n == 1) lies in
                // the band.
                let mut order: Vec<Reading> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| Reading { node: NodeId::from_index(i), value: v })
                    .collect();
                order.sort_unstable_by(Reading::rank_cmp); // best (highest) first
                order.reverse(); // ascending
                let denom = (n - 1).max(1) as f64;
                let mut picked: Vec<Reading> = order
                    .into_iter()
                    .enumerate()
                    .filter(|&(rank, _)| {
                        let q = if n == 1 { 0.5 } else { rank as f64 / denom };
                        q >= lo - 1e-12 && q <= hi + 1e-12
                    })
                    .map(|(_, r)| r)
                    .collect();
                picked.sort_unstable_by(Reading::rank_cmp);
                picked.into_iter().map(|r| r.node).collect()
            }
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AnswerSpec::TopK(_) => "top-k",
            AnswerSpec::AboveThreshold(_) => "selection(>)",
            AnswerSpec::BelowThreshold(_) => "selection(<)",
            AnswerSpec::QuantileBand { .. } => "quantile-band",
        }
    }
}

/// Sliding window of samples for a generalized subset query: like
/// [`SampleSet`](crate::SampleSet) but with 1-entries defined by an
/// [`AnswerSpec`] instead of top-k membership.
#[derive(Debug, Clone)]
pub struct SubsetSampleSet {
    n: usize,
    spec: AnswerSpec,
    capacity: usize,
    window: VecDeque<Vec<f64>>,
    answers: VecDeque<Vec<NodeId>>,
    column_counts: Vec<u32>,
}

impl SubsetSampleSet {
    /// A window over `n`-node networks for the given query.
    pub fn new(n: usize, spec: AnswerSpec, capacity: usize) -> Self {
        assert!(capacity >= 1);
        SubsetSampleSet {
            n,
            spec,
            capacity,
            window: VecDeque::new(),
            answers: VecDeque::new(),
            column_counts: vec![0; n],
        }
    }

    /// Adds a sample, evicting the oldest at capacity.
    pub fn push(&mut self, values: Vec<f64>) {
        assert_eq!(values.len(), self.n);
        if self.window.len() == self.capacity {
            self.window.pop_front();
            for node in self.answers.pop_front().expect("answers track window") {
                self.column_counts[node.index()] -= 1;
            }
        }
        let ans = self.spec.answer_nodes(&values);
        for &node in &ans {
            self.column_counts[node.index()] += 1;
        }
        self.window.push_back(values);
        self.answers.push_back(ans);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before any sample arrives.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The query this window serves.
    pub fn spec(&self) -> &AnswerSpec {
        &self.spec
    }

    /// Per-node answer-membership counts over the window.
    pub fn column_counts(&self) -> &[u32] {
        &self.column_counts
    }

    /// The answer node set of sample `j`.
    pub fn answer(&self, j: usize) -> &[NodeId] {
        &self.answers[j]
    }

    /// Raw readings of sample `j`.
    pub fn values(&self, j: usize) -> &[f64] {
        &self.window[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_threshold_selects_and_ranks() {
        let v = vec![1.0, 9.0, 5.0, 7.0];
        let a = AnswerSpec::AboveThreshold(4.0).answer_nodes(&v);
        assert_eq!(a, vec![NodeId(1), NodeId(3), NodeId(2)]);
        assert!(AnswerSpec::AboveThreshold(9.0).answer_nodes(&v).is_empty());
    }

    #[test]
    fn below_threshold_selects() {
        let v = vec![1.0, 9.0, 5.0, 7.0];
        let a = AnswerSpec::BelowThreshold(6.0).answer_nodes(&v);
        assert_eq!(a, vec![NodeId(2), NodeId(0)]);
    }

    #[test]
    fn top_k_spec_matches_top_k_nodes() {
        let v = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(AnswerSpec::TopK(2).answer_nodes(&v), top_k_nodes(&v, 2));
    }

    #[test]
    fn median_band() {
        // 5 values, quantiles 0, .25, .5, .75, 1 ascending; the median is
        // the middle value.
        let v = vec![10.0, 30.0, 20.0, 50.0, 40.0];
        // ascending: 10(n0) 20(n2) 30(n1) 40(n4) 50(n3); rank 2 of 0..=4 →
        // q = 0.5 → value 30 at node 1.
        let a = AnswerSpec::QuantileBand { lo: 0.5, hi: 0.5 }.answer_nodes(&v);
        assert_eq!(a, vec![NodeId(1)]);
    }

    #[test]
    fn quantile_band_range() {
        let v: Vec<f64> = (0..11).map(|i| i as f64).collect();
        // Top quartile: q >= 0.75 → ranks 8, 9, 10 (values 8, 9, 10)… rank
        // 7.5 rounds via the inclusive test: ranks 8..=10.
        let a = AnswerSpec::QuantileBand { lo: 0.75, hi: 1.0 }.answer_nodes(&v);
        assert_eq!(a.len(), 3);
        assert!(a.contains(&NodeId(10)) && a.contains(&NodeId(8)));
    }

    #[test]
    fn single_value_band() {
        let a = AnswerSpec::QuantileBand { lo: 0.4, hi: 0.6 }.answer_nodes(&[7.0]);
        assert_eq!(a, vec![NodeId(0)]);
    }

    #[test]
    fn window_counts_track_selection() {
        let mut w = SubsetSampleSet::new(3, AnswerSpec::AboveThreshold(5.0), 2);
        w.push(vec![6.0, 1.0, 9.0]); // answers: n0, n2
        w.push(vec![1.0, 8.0, 9.0]); // answers: n1, n2
        assert_eq!(w.column_counts(), &[1, 1, 2]);
        w.push(vec![0.0, 0.0, 0.0]); // evicts first, empty answer
        assert_eq!(w.column_counts(), &[0, 1, 1]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.spec(), &AnswerSpec::AboveThreshold(5.0));
    }

    #[test]
    #[should_panic]
    fn bad_quantile_band_rejected() {
        AnswerSpec::QuantileBand { lo: 0.8, hi: 0.2 }.answer_nodes(&[1.0, 2.0]);
    }
}
