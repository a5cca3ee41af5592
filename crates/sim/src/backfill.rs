//! Graceful degradation at the root: backfilling lost subtrees from the
//! sample window.
//!
//! When a hop exhausts its ARQ budget the root receives a partial answer
//! and knows *which* edges went silent. Rather than return a short
//! answer, it estimates the missing contributions from each lost node's
//! recent history ([`SampleSet::predicted_value`]) — the prediction-based
//! fallback of content-centric wake-up schemes — and flags every
//! estimated entry so consumers can tell observation from guesswork.

use prospector_core::Plan;
use prospector_data::{Reading, SampleSet};
use prospector_net::{NodeId, Topology};

/// One entry of a degraded answer: a reading that was either observed in
/// this epoch's collection or estimated from the sample window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerEntry {
    pub reading: Reading,
    /// True when the reading is a window prediction standing in for a
    /// lost batch, not an observation.
    pub estimated: bool,
}

/// Merges the root's delivered (partial) answer with window predictions
/// for every plan-visited node cut off by a lost edge, returning the best
/// `k` entries in rank order.
///
/// With no lost edges this is the observed answer verbatim. Predictions
/// for nodes with no usable history rank `-inf` and can never displace an
/// observation. Observed entries always win ties against estimates for
/// the same rank position only through the usual deterministic
/// [`Reading::rank_cmp`] order — a node is never both observed and
/// estimated, because a lost edge removes its whole subtree's batch.
pub fn backfill_answer(
    answer: &[Reading],
    lost_edges: &[NodeId],
    plan: &Plan,
    topology: &Topology,
    samples: &SampleSet,
    k: usize,
) -> Vec<AnswerEntry> {
    let mut entries: Vec<AnswerEntry> =
        answer.iter().map(|&reading| AnswerEntry { reading, estimated: false }).collect();
    if !lost_edges.is_empty() {
        // A lost edge silences every plan-visited node of its subtree;
        // nested lost edges may overlap, so dedupe by node.
        let mut missing = vec![false; topology.len()];
        for &e in lost_edges {
            for u in topology.subtree(e) {
                if plan.visits(topology, u) {
                    missing[u.index()] = true;
                }
            }
        }
        for (i, &m) in missing.iter().enumerate() {
            if m {
                let node = NodeId::from_index(i);
                // An unknown history predicts `-inf`: the estimate sorts
                // last and can never displace a real observation.
                let value = samples.predicted_value(node).unwrap_or(f64::NEG_INFINITY);
                entries.push(AnswerEntry { reading: Reading { node, value }, estimated: true });
            }
        }
        entries.sort_unstable_by(|a, b| a.reading.rank_cmp(&b.reading));
    }
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::{chain, star};

    fn window(rows: Vec<Vec<f64>>, k: usize) -> SampleSet {
        let n = rows[0].len();
        let mut s = SampleSet::new(n, k, rows.len());
        for r in rows {
            s.push(r);
        }
        s
    }

    #[test]
    fn no_loss_is_identity() {
        let t = star(4);
        let plan = Plan::naive_k(&t, 2);
        let s = window(vec![vec![0.0, 1.0, 2.0, 3.0]], 2);
        let answer =
            vec![Reading { node: NodeId(3), value: 3.0 }, Reading { node: NodeId(2), value: 2.0 }];
        let out = backfill_answer(&answer, &[], &plan, &t, &s, 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| !e.estimated));
        assert_eq!(out[0].reading, answer[0]);
        assert_eq!(out[1].reading, answer[1]);
    }

    #[test]
    fn lost_subtree_is_estimated_from_history() {
        // Chain 0 <- 1 <- 2: edge above 1 lost, so nodes 1 and 2 are
        // backfilled from their window means (1: 10.0, 2: 20.0).
        let t = chain(3);
        let plan = Plan::naive_k(&t, 3);
        let s = window(vec![vec![0.0, 8.0, 16.0], vec![0.0, 12.0, 24.0]], 3);
        let answer = vec![Reading { node: NodeId(0), value: 1.0 }];
        let out = backfill_answer(&answer, &[NodeId(1)], &plan, &t, &s, 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].reading.node, NodeId(2));
        assert!((out[0].reading.value - 20.0).abs() < 1e-12);
        assert!(out[0].estimated);
        assert_eq!(out[1].reading.node, NodeId(1));
        assert!(out[1].estimated);
        assert_eq!(out[2].reading.node, NodeId(0));
        assert!(!out[2].estimated, "the observed reading survives");
    }

    #[test]
    fn estimates_compete_by_rank_and_k_truncates() {
        // Star: children 1..=3, edge 2 lost. Its prediction (5.0) beats
        // node 3's observed 4.0 but not node 1's observed 9.0; k = 2 drops
        // the weakest.
        let t = star(4);
        let plan = Plan::naive_k(&t, 3);
        let s = window(vec![vec![0.0, 9.0, 5.0, 4.0]], 3);
        let answer = vec![
            Reading { node: NodeId(1), value: 9.0 },
            Reading { node: NodeId(3), value: 4.0 },
            Reading { node: NodeId(0), value: 0.0 },
        ];
        let out = backfill_answer(&answer, &[NodeId(2)], &plan, &t, &s, 2);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].reading.node, out[0].estimated), (NodeId(1), false));
        assert_eq!((out[1].reading.node, out[1].estimated), (NodeId(2), true));
    }

    #[test]
    fn unvisited_nodes_are_not_backfilled() {
        // Plan only visits node 1 of a star; losing that edge must not
        // invent estimates for nodes the plan never collected from.
        let t = star(4);
        let mut plan = Plan::empty(4);
        plan.set_bandwidth(NodeId(1), 1);
        let s = window(vec![vec![0.0, 9.0, 5.0, 4.0]], 2);
        let answer = vec![Reading { node: NodeId(0), value: 0.0 }];
        let out = backfill_answer(&answer, &[NodeId(1)], &plan, &t, &s, 2);
        assert_eq!(out.len(), 2);
        let estimated: Vec<NodeId> =
            out.iter().filter(|e| e.estimated).map(|e| e.reading.node).collect();
        assert_eq!(estimated, vec![NodeId(1)], "only the visited lost node");
    }

    #[test]
    fn unknown_history_never_displaces_observations() {
        let t = chain(2);
        let plan = Plan::naive_k(&t, 1);
        let s = SampleSet::new(2, 1, 4); // empty window: no history at all
        let answer = vec![Reading { node: NodeId(0), value: -100.0 }];
        let out = backfill_answer(&answer, &[NodeId(1)], &plan, &t, &s, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].reading.node, NodeId(0), "-inf estimate sorts last");
        assert!(!out[0].estimated);
    }
}
