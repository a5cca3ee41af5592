//! Pure execution semantics of query plans.
//!
//! These functions implement what the network *does* with a plan, with no
//! energy accounting (the `prospector-sim` crate prices the outcomes).
//! All of them are entry points into one collection pass, Section 2's:
//! each visited node merges the values received from its children with
//! its own reading and forwards the top `w_e`. The pass is generic over
//! how a hop delivers and over what observes it:
//!
//! * [`run_plan`] — every hop delivers;
//! * [`run_plan_lossy`] — each upward batch is delivered (or not) by a
//!   per-hop ARQ policy, and a hop that exhausts its retry budget
//!   genuinely loses its subtree's merged batch;
//! * [`run_proof_plan`] / [`proven_on_values`] — Section 4.3 steps 1–4:
//!   a proof tracker additionally computes, at every node, how many of
//!   the forwarded values are *proven* (conditions c.1–c.3), optionally
//!   retaining the per-node state the exact algorithm's mop-up needs.
//!
//! Rank order ([`Reading::rank_cmp`]) is total, so the top `w_e` of a
//! batch is one set however the batch is ordered. A batch is therefore
//! sorted only where proofs need it or the root answers; elsewhere it is
//! cut with a selection, and only when it exceeds its bandwidth.

use crate::plan::Plan;
use prospector_data::Reading;
use prospector_net::{link_rng, ArqPolicy, FailureModel, LinkAttempts, NodeId, Topology};

/// Result of executing an approximate plan on one epoch's values.
#[derive(Debug, Clone)]
pub struct CollectionOutcome {
    /// The query answer: the root's top-k merged readings, in rank order.
    pub answer: Vec<Reading>,
    /// Values actually sent on each edge (≤ the edge's bandwidth), indexed
    /// by child node.
    pub sent: Vec<u32>,
}

/// Result of executing an approximate plan over a lossy radio.
#[derive(Debug, Clone)]
pub struct LossyCollectionOutcome {
    /// The root's answer over whatever actually arrived, in rank order
    /// (≤ k entries when batches were lost).
    pub answer: Vec<Reading>,
    /// Batch size transmitted on each edge (every retransmission resends
    /// the whole batch), indexed by child node.
    pub sent: Vec<u32>,
    /// Per used edge (indexed by child node): how delivery went. `None`
    /// for unused edges and the root.
    pub links: Vec<Option<LinkAttempts>>,
    /// Used edges whose batch was lost after exhausting the retry budget,
    /// in [`Topology::edges`] order.
    pub lost_edges: Vec<NodeId>,
    /// Per node: its reading reached the root because every hop on its
    /// path delivered (always true for the root, false for unvisited
    /// nodes).
    pub reached: Vec<bool>,
    /// Fraction of plan-visited non-root nodes whose batch survived every
    /// hop to the root (1.0 when the plan visits nobody).
    pub delivered_fraction: f64,
}

impl LossyCollectionOutcome {
    /// Total retransmissions across all edges (attempts beyond the first).
    pub fn retransmissions(&self) -> u32 {
        self.links.iter().flatten().map(LinkAttempts::retries).sum()
    }
}

/// Result of executing a proof-carrying plan on one epoch's values.
#[derive(Debug, Clone)]
pub struct ProofOutcome {
    /// The root's answer (top k), in rank order.
    pub answer: Vec<Reading>,
    /// How many leading answer values are proven to be the true top values
    /// of the whole network.
    pub proven: usize,
    /// Values sent per edge.
    pub sent: Vec<u32>,
    /// Per node: its own reading plus everything it received, rank-sorted
    /// (`retrieved(n)` in Section 4.3's mop-up description).
    pub retrieved: Vec<Vec<Reading>>,
    /// Per node: how many leading values of what it *sent* are proven by
    /// it (`|proven(n)|`). For the root this counts over the answer.
    pub proven_count: Vec<u32>,
}

/// The non-proof cut: keeps the best `limit` readings of a merged batch,
/// in no particular order (the root sorts its answer).
fn top(_: NodeId, mut merged: Vec<Reading>, limit: usize, _: &[u32]) -> Vec<Reading> {
    if merged.len() > limit {
        merged.select_nth_unstable_by(limit, Reading::rank_cmp);
        merged.truncate(limit);
    }
    merged
}

/// Section 4.3's proof bookkeeping. Batches are rank-sorted in full, and
/// a value v (possibly u's own) is proven at u iff for every child c one
/// of the following holds:
///   (c.1) v originated in subtree(c) and is within c's proven prefix;
///   (c.2) c's proven prefix contains a value ranked worse than v;
///   (c.3) c forwarded its entire subtree.
struct Proofs {
    /// Per node: `|proven(n)|`.
    count: Vec<u32>,
    /// Per node: the proven prefix of what it sent.
    prefix: Vec<Vec<Reading>>,
    /// Per node: its sorted merged batch, when the mop-up phase needs it.
    retrieved: Option<Vec<Vec<Reading>>>,
}

impl Proofs {
    /// The proof cut: sorts the merged batch, proves its leading values
    /// and keeps the best `limit`.
    fn cut(
        &mut self,
        u: NodeId,
        mut merged: Vec<Reading>,
        limit: usize,
        sent: &[u32],
        topology: &Topology,
    ) -> Vec<Reading> {
        merged.sort_unstable_by(Reading::rank_cmp);
        let send_len = limit.min(merged.len());
        let to_send = &merged[..send_len];

        // Membership test for "value v originated in subtree(c)": the
        // child of u on the path from v up to u, or None when v is not a
        // proper descendant. Depths bound the walk — climb v to
        // depth(u)+1 and check that one candidate.
        let origin_child = |v: NodeId| -> Option<NodeId> {
            let target = topology.depth(u) + 1;
            if topology.depth(v) < target {
                return None;
            }
            let mut cur = v;
            while topology.depth(cur) > target {
                cur = topology.parent(cur).expect("depth > 0 implies a parent");
            }
            (topology.parent(cur) == Some(u)).then_some(cur)
        };
        let prefix = &self.prefix;
        let prove_one = |v: &Reading| -> bool {
            topology.children(u).iter().all(|&c| {
                if sent[c.index()] as usize == topology.subtree_size(c) {
                    return true; // (c.3)
                }
                let proven = &prefix[c.index()];
                if origin_child(v.node) == Some(c) && proven.iter().any(|x| x.node == v.node) {
                    return true; // (c.1)
                }
                // (c.2): some proven value of c ranks strictly worse.
                proven.iter().any(|x| x.rank_cmp(v) == std::cmp::Ordering::Greater)
            })
        };
        // Proofs form a prefix of the rank order: "if v is proven, then
        // all values greater than v in the top w_e are proven as well".
        let proven = to_send.iter().take_while(|v| prove_one(v)).count();
        debug_assert!(to_send[proven..].iter().all(|v| !prove_one(v)));

        self.count[u.index()] = proven as u32;
        self.prefix[u.index()] = merged[..proven].to_vec();
        match &mut self.retrieved {
            Some(retrieved) => {
                let batch = merged[..send_len].to_vec();
                retrieved[u.index()] = merged;
                batch
            }
            None => {
                merged.truncate(send_len);
                merged
            }
        }
    }
}

/// The collection pass: in post order, every visited node merges its own
/// reading with its children's delivered batches, `cut`s the merge to its
/// limit (the edge's bandwidth, or k at the root) and sends it up a hop
/// that arrives iff `deliver` says so. Returns the root's rank-sorted
/// answer and the per-edge batch sizes.
///
/// Nodes whose edge has zero bandwidth are not visited and contribute
/// nothing (together with their whole subtree, when intermediate edges are
/// unused). The root always contributes its own reading.
fn collect(
    plan: &Plan,
    topology: &Topology,
    values: &[f64],
    k: usize,
    mut deliver: impl FnMut(NodeId) -> bool,
    mut cut: impl FnMut(NodeId, Vec<Reading>, usize, &[u32]) -> Vec<Reading>,
) -> (Vec<Reading>, Vec<u32>) {
    assert_eq!(values.len(), topology.len());
    let n = topology.len();
    let root = topology.root();
    let mut outbox: Vec<Vec<Reading>> = vec![Vec::new(); n];
    let mut sent = vec![0u32; n];
    let mut answer = Vec::new();

    for &u in topology.post_order() {
        if u != root && !plan.is_used(u) {
            continue;
        }
        // A lost child's outbox stays empty.
        let mut merged = vec![Reading { node: u, value: values[u.index()] }];
        for &c in topology.children(u) {
            merged.append(&mut outbox[c.index()]);
        }
        if u == root {
            answer = cut(u, merged, k, &sent);
            answer.sort_unstable_by(Reading::rank_cmp);
        } else {
            let batch = cut(u, merged, plan.bandwidth(u) as usize, &sent);
            sent[u.index()] = batch.len() as u32;
            if deliver(u) {
                outbox[u.index()] = batch;
            }
        }
    }
    (answer, sent)
}

/// Executes an approximate plan (Section 2 semantics): returns the root's
/// answer and the per-edge message sizes.
pub fn run_plan(plan: &Plan, topology: &Topology, values: &[f64], k: usize) -> CollectionOutcome {
    let (answer, sent) = collect(plan, topology, values, k, |_| true, top);
    CollectionOutcome { answer, sent }
}

/// Executes an approximate plan over a lossy radio: [`run_plan`]'s merge
/// semantics, but every upward batch must survive its hop. Each used edge
/// samples its deliveries from an **independent** RNG stream keyed by
/// `(seed, child)` ([`link_rng`]), so outcomes are reproducible and one
/// edge's draws never perturb another's — and raising `policy.max_retries`
/// only *extends* each edge's draw sequence, which makes delivery (and
/// hence the answer's hit count against any fixed truth) monotone
/// non-decreasing in the retry budget.
///
/// A lost batch removes the child's entire merged contribution: ancestors
/// merge without it and a partial answer propagates to the root. With a
/// zero-loss `failures` model no randomness is consumed and the outcome is
/// exactly [`run_plan`]'s.
pub fn run_plan_lossy(
    plan: &Plan,
    topology: &Topology,
    values: &[f64],
    k: usize,
    failures: &FailureModel,
    policy: &ArqPolicy,
    seed: u64,
) -> LossyCollectionOutcome {
    let mut links: Vec<Option<LinkAttempts>> = vec![None; topology.len()];
    let deliver = |child: NodeId| {
        let link = policy.attempt_delivery(failures, child, &mut link_rng(seed, child));
        links[child.index()] = Some(link);
        link.delivered
    };
    let (answer, sent) = collect(plan, topology, values, k, deliver, top);
    let lost_edges: Vec<NodeId> =
        topology.edges().filter(|&e| links[e.index()].is_some_and(|l| !l.delivered)).collect();

    // A node's batch reaches the root iff every hop on its path delivered.
    // Walk parents-before-children so `reached[parent]` is final when the
    // child consults it.
    let mut reached = vec![false; topology.len()];
    reached[topology.root().index()] = true;
    let mut used_edges = 0usize;
    let mut covered_edges = 0usize;
    for &u in topology.post_order().iter().rev() {
        let Some(link) = links[u.index()] else { continue };
        let parent = topology.parent(u).expect("non-root edge has a parent");
        reached[u.index()] = link.delivered && reached[parent.index()];
        used_edges += 1;
        covered_edges += reached[u.index()] as usize;
    }
    let delivered_fraction =
        if used_edges == 0 { 1.0 } else { covered_edges as f64 / used_edges as f64 };

    LossyCollectionOutcome { answer, sent, links, lost_edges, reached, delivered_fraction }
}

/// Executes a proof-carrying plan (Section 4.3 steps 1–4).
///
/// Every edge must have bandwidth ≥ 1 (any unvisited node could hold the
/// maximum). Besides the answer, the outcome reports how many answer
/// values are proven and retains each node's `retrieved`/`proven` state
/// for the exact algorithm's mop-up phase.
pub fn run_proof_plan(plan: &Plan, topology: &Topology, values: &[f64], k: usize) -> ProofOutcome {
    run_proofs(plan, topology, values, k, true)
}

/// How many answer values a proof-carrying plan proves at the root for one
/// epoch's values — the hot path of `evaluate::expected_proven`.
///
/// Unlike [`run_proof_plan`] this skips retaining the per-node `retrieved`
/// lists (only the exact algorithm's mop-up phase consumes them), so no
/// full merged reading list is ever kept per node per simulated epoch.
pub fn proven_on_values(plan: &Plan, topology: &Topology, values: &[f64], k: usize) -> usize {
    run_proofs(plan, topology, values, k, false).proven
}

fn run_proofs(
    plan: &Plan,
    topology: &Topology,
    values: &[f64],
    k: usize,
    keep_retrieved: bool,
) -> ProofOutcome {
    debug_assert!(
        topology.edges().all(|e| plan.is_used(e)),
        "proof-carrying plans must use every edge"
    );
    let n = topology.len();
    let mut proofs = Proofs {
        count: vec![0; n],
        prefix: vec![Vec::new(); n],
        retrieved: keep_retrieved.then(|| vec![Vec::new(); n]),
    };
    let cut = |u, merged, limit, sent: &[u32]| proofs.cut(u, merged, limit, sent, topology);
    let (answer, sent) = collect(plan, topology, values, k, |_| true, cut);
    ProofOutcome {
        answer,
        proven: proofs.count[topology.root().index()] as usize,
        sent,
        retrieved: proofs.retrieved.unwrap_or_default(),
        proven_count: proofs.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_data::top_k_nodes;
    use prospector_net::topology::{balanced, chain, star};

    #[test]
    fn naive_k_returns_exact_answer() {
        let t = balanced(3, 2); // 13 nodes
        let values: Vec<f64> = (0..t.len()).map(|i| ((i * 37) % 23) as f64).collect();
        let k = 4;
        let plan = Plan::naive_k(&t, k);
        let out = run_plan(&plan, &t, &values, k);
        let expect = top_k_nodes(&values, k);
        let got: Vec<NodeId> = out.answer.iter().map(|r| r.node).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_plan_returns_only_root() {
        let t = star(5);
        let values = vec![1.0, 5.0, 4.0, 3.0, 2.0];
        let out = run_plan(&Plan::empty(5), &t, &values, 3);
        assert_eq!(out.answer.len(), 1);
        assert_eq!(out.answer[0].node, NodeId(0));
        assert!(out.sent.iter().all(|&s| s == 0));
    }

    #[test]
    fn bandwidth_limits_what_flows() {
        // Chain 0 <- 1 <- 2 <- 3 with big values at the leaf: bandwidth 1
        // on every edge means only the per-subtree max flows up.
        let t = chain(4);
        let values = vec![0.0, 1.0, 2.0, 3.0];
        let mut plan = Plan::empty(4);
        for i in 1..4 {
            plan.set_bandwidth(NodeId(i), 1);
        }
        let out = run_plan(&plan, &t, &values, 2);
        let got: Vec<NodeId> = out.answer.iter().map(|r| r.node).collect();
        // node3's 3.0 survives each hop; node 2's and 1's are filtered.
        assert_eq!(got, vec![NodeId(3), NodeId(0)]);
        assert_eq!(out.sent, vec![0, 1, 1, 1]);
    }

    #[test]
    fn local_filtering_merges_before_truncation() {
        // Star root with 3 children, each bandwidth 1, k = 2: the two best
        // children values reach the root.
        let t = star(4);
        let values = vec![0.0, 9.0, 7.0, 8.0];
        let mut plan = Plan::empty(4);
        for i in 1..4 {
            plan.set_bandwidth(NodeId(i), 1);
        }
        let out = run_plan(&plan, &t, &values, 2);
        let got: Vec<NodeId> = out.answer.iter().map(|r| r.node).collect();
        assert_eq!(got, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn sent_counts_respect_availability() {
        // Leaf edges can only carry one value no matter the bandwidth.
        let t = chain(3);
        let mut plan = Plan::empty(3);
        plan.set_bandwidth(NodeId(1), 2);
        plan.set_bandwidth(NodeId(2), 2);
        let out = run_plan(&plan, &t, &[0.0, 1.0, 2.0], 3);
        assert_eq!(out.sent[2], 1, "leaf has a single value");
        assert_eq!(out.sent[1], 2);
    }

    #[test]
    fn full_sweep_proof_proves_everything() {
        let t = balanced(2, 3);
        let values: Vec<f64> = (0..t.len()).map(|i| ((i * 31) % 17) as f64).collect();
        let k = 5;
        let mut plan = Plan::full_sweep(&t);
        plan.proof_carrying = true;
        let out = run_proof_plan(&plan, &t, &values, k);
        assert_eq!(out.proven, k, "full sweep proves the entire answer");
        let expect = top_k_nodes(&values, k);
        let got: Vec<NodeId> = out.answer.iter().map(|r| r.node).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn bandwidth_one_proves_only_prefix() {
        // Star with 3 children, each sending its 1 value (= everything,
        // c.3), so all proven. Then a deeper case where bandwidth hides
        // values and proofs stop.
        let t = star(4);
        let mut plan = Plan::empty(4);
        for i in 1..4 {
            plan.set_bandwidth(NodeId(i), 1);
        }
        plan.proof_carrying = true;
        let out = run_proof_plan(&plan, &t, &[0.0, 3.0, 2.0, 1.0], 3);
        assert_eq!(out.proven, 3, "leaves forward everything → all proven");

        // Chain 0 <- 1 <- 2 <- 3, w=1 everywhere: node 1 forwards only the
        // max of {v1,v2,v3}; the root can prove its first value (witness:
        // none needed beyond child 1's proven max?) — child 1 proves its
        // top-1 only, so the root's second answer value (its own reading)
        // is unproven because child 1 might hide something bigger.
        let t = chain(4);
        let mut plan = Plan::empty(4);
        for i in 1..4 {
            plan.set_bandwidth(NodeId(i), 1);
        }
        plan.proof_carrying = true;
        let out = run_proof_plan(&plan, &t, &[0.5, 1.0, 2.0, 3.0], 2);
        // answer: [3.0 (node3), 0.5 (root)]
        assert_eq!(out.answer[0].node, NodeId(3));
        assert_eq!(out.proven, 1, "only the subtree max is provable");
    }

    #[test]
    fn proof_example_from_figure_2() {
        // Reproduces the paper's Figure 2: a node with local value 7
        // receives (9,8,7?…) style lists; we model: root u with three
        // child subtrees returning [9,4,2], [8,6], [7,3] (all proven by
        // the children), own value 5, k = 5.
        // Expected: top five at u are 9,8,7,6,5; the first four are
        // provable, the fifth (5 = u's own) is provable only if every
        // child proves something smaller — child lists contain 2, 6?No:
        // witnesses: child1 proves 2 < 5 ✓, child2 proves 6 > 5 ✗ … so 5
        // is unproven, mirroring the paper's example where the last value
        // cannot be proven because the middle subtree may hide a value.
        //
        // Build: root 0 with children 1, 2, 3; under 1 two extra nodes
        // (4, 5), under 2 one extra (6), under 3 one extra (7).
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(1)),
            Some(NodeId(2)),
            Some(NodeId(3)),
        ];
        let t = Topology::from_parents(NodeId(0), parent).unwrap();
        //        values:  u=5   c1=9  c2=8  c3=7  .=4  .=2  .=6  .=3
        let values = vec![5.0, 9.0, 8.0, 7.0, 4.0, 2.0, 6.0, 3.0];
        let mut plan = Plan::empty(8);
        plan.proof_carrying = true;
        // subtree(1) = {1,4,5} sends all 3 (c.3); subtree(2) = {2,6} sends
        // only 2 of 2 → everything; subtree(3) = {3,7} sends both.
        plan.set_bandwidth(NodeId(1), 3);
        plan.set_bandwidth(NodeId(4), 1);
        plan.set_bandwidth(NodeId(5), 1);
        plan.set_bandwidth(NodeId(2), 2);
        plan.set_bandwidth(NodeId(6), 1);
        plan.set_bandwidth(NodeId(3), 2);
        plan.set_bandwidth(NodeId(7), 1);
        let out = run_proof_plan(&plan, &t, &values, 5);
        let vals: Vec<f64> = out.answer.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![9.0, 8.0, 7.0, 6.0, 5.0]);
        assert_eq!(out.proven, 5, "every subtree returned everything here");

        // Now restrict subtree(2) to 1 value: 8 flows, 6 is hidden. The
        // top five become 9,8,7,5,4; proofs must stop before 7 — value 7
        // needs a witness < 7 from subtree(2), but subtree(2) proved only
        // {8}.
        plan.set_bandwidth(NodeId(2), 1);
        let out = run_proof_plan(&plan, &t, &values, 5);
        let vals: Vec<f64> = out.answer.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![9.0, 8.0, 7.0, 5.0, 4.0]);
        assert_eq!(out.proven, 2, "proofs stop once subtree(2) may hide values");
    }

    #[test]
    fn lossy_with_zero_loss_matches_reliable_run() {
        let t = balanced(3, 2);
        let values: Vec<f64> = (0..t.len()).map(|i| ((i * 37) % 23) as f64).collect();
        let k = 4;
        let plan = Plan::naive_k(&t, k);
        let reliable = run_plan(&plan, &t, &values, k);
        let fm = prospector_net::FailureModel::none(t.len());
        let lossy =
            run_plan_lossy(&plan, &t, &values, k, &fm, &prospector_net::ArqPolicy::default(), 99);
        assert_eq!(lossy.answer, reliable.answer);
        assert_eq!(lossy.sent, reliable.sent);
        assert!(lossy.lost_edges.is_empty());
        assert_eq!(lossy.retransmissions(), 0);
        assert_eq!(lossy.delivered_fraction, 1.0);
        assert!(lossy
            .links
            .iter()
            .flatten()
            .all(|l| *l == prospector_net::LinkAttempts::first_try()));
    }

    #[test]
    fn certain_loss_drops_the_subtree() {
        // Chain 0 <- 1 <- 2: edge above node 1 always fails, so nothing
        // from {1, 2} reaches the root even though 2 -> 1 delivered.
        let t = chain(3);
        let mut probs = vec![0.0; 3];
        probs[1] = 1.0;
        let fm = prospector_net::FailureModel::per_edge(3, probs, 0.0).unwrap();
        let policy =
            prospector_net::ArqPolicy { max_retries: 2, backoff: prospector_net::Backoff::none() };
        let plan = Plan::naive_k(&t, 2);
        let out = run_plan_lossy(&plan, &t, &[0.0, 5.0, 9.0], 2, &fm, &policy, 7);
        assert_eq!(out.answer.len(), 1, "only the root's own reading survives");
        assert_eq!(out.answer[0].node, NodeId(0));
        assert_eq!(out.lost_edges, vec![NodeId(1)]);
        assert_eq!(out.retransmissions(), 2, "the lost hop burned its budget");
        // Node 2 delivered to node 1, but its path to the root is cut.
        assert_eq!(out.delivered_fraction, 0.0);
        // The transmissions still happened and are visible for pricing.
        assert_eq!(out.sent[1], 2);
        assert_eq!(out.sent[2], 1);
    }

    #[test]
    fn lossy_hits_are_monotone_in_retry_budget() {
        let t = balanced(3, 2);
        let values: Vec<f64> = (0..t.len()).map(|i| ((i * 29 + 3) % 31) as f64).collect();
        let k = 4;
        let plan = Plan::naive_k(&t, k);
        let fm = prospector_net::FailureModel::uniform(t.len(), 0.3, 0.0);
        let mut truth = top_k_nodes(&values, k);
        truth.sort_unstable();
        for seed in 0..50u64 {
            let mut prev = 0usize;
            for retries in 0..4u32 {
                let policy = prospector_net::ArqPolicy {
                    max_retries: retries,
                    backoff: prospector_net::Backoff::none(),
                };
                let out = run_plan_lossy(&plan, &t, &values, k, &fm, &policy, seed);
                let hits =
                    out.answer.iter().filter(|r| truth.binary_search(&r.node).is_ok()).count();
                assert!(hits >= prev, "seed {seed}: hits dropped {prev} -> {hits}");
                prev = hits;
            }
        }
    }

    #[test]
    fn retrieved_state_is_complete_for_mopup() {
        let t = chain(3);
        let mut plan = Plan::full_sweep(&t);
        plan.proof_carrying = true;
        let out = run_proof_plan(&plan, &t, &[1.0, 2.0, 3.0], 1);
        // node 1 retrieved its own value and node 2's.
        let vals: Vec<f64> = out.retrieved[1].iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![3.0, 2.0]);
        // root retrieved everything.
        assert_eq!(out.retrieved[0].len(), 3);
    }

    #[test]
    fn proven_set_is_subtree_top_prefix() {
        // Lemma 1: the proven values of a node are exactly the top values
        // of its subtree.
        let t = balanced(2, 3);
        let values: Vec<f64> = (0..t.len()).map(|i| ((i * 13 + 5) % 29) as f64).collect();
        let mut plan = Plan::empty(t.len());
        for e in t.edges() {
            let w = 1 + (e.0 % 2);
            plan.set_bandwidth(e, w.min(t.subtree_size(e) as u32));
        }
        plan.proof_carrying = true;
        let out = run_proof_plan(&plan, &t, &values, 4);
        for u in 0..t.len() {
            let u = NodeId::from_index(u);
            if u == t.root() {
                continue;
            }
            let p = out.proven_count[u.index()] as usize;
            if p == 0 {
                continue;
            }
            let mut subtree: Vec<Reading> = t
                .subtree(u)
                .iter()
                .map(|&n| Reading { node: n, value: values[n.index()] })
                .collect();
            subtree.sort_unstable_by(Reading::rank_cmp);
            // The node's first p sent values must equal the subtree's true
            // top p.
            let sent_prefix = &out.retrieved[u.index()][..p];
            for (a, b) in sent_prefix.iter().zip(subtree.iter()) {
                assert_eq!(a.node, b.node, "Lemma 1 violated at {u}");
            }
        }
    }
}
