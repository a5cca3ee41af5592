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
//!
//! # Cost model
//!
//! Collection work scales with what the plan uses and with what is cut,
//! not with the tree:
//!
//! * **Plans walk their footprint.** A plan's [`Footprint`] lists its
//!   used edges children first, with where each batch goes; it is built
//!   once per plan ([`Plan::footprint`]) and every execution, and every
//!   edge charge the simulator makes, visits only those edges.
//! * **Batches are counted until a cut.** A batch that fits its edge's
//!   bandwidth is forwarded whole, so the pass carries only its size. The
//!   readings are gathered where a cut needs them — a bandwidth, or k at
//!   the root, smaller than the batch — by walking down the uncut part
//!   of the footprint below the cut. Each reading is gathered at most
//!   once per cut it meets, so a full sweep costs one counting pass plus
//!   one top-k over the delivered readings at the root (none for k = 0),
//!   not O(n·depth). Proof plans need every merged batch, so they gather
//!   at every node.

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

/// One used edge's hop in a lossy collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The edge, identified by its child node.
    pub edge: NodeId,
    /// How delivery went.
    pub link: LinkAttempts,
    /// The child's batch reached the root: this hop and every hop above
    /// it delivered.
    pub reached: bool,
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
    /// One entry per used edge, in [`Topology::edges`] order. Unused edges
    /// have none; the root is always reached.
    pub hops: Vec<Hop>,
    /// Used edges whose batch was lost after exhausting the retry budget,
    /// in [`Topology::edges`] order.
    pub lost_edges: Vec<NodeId>,
    /// Fraction of plan-visited non-root nodes whose batch survived every
    /// hop to the root (1.0 when the plan visits nobody).
    pub delivered_fraction: f64,
}

impl LossyCollectionOutcome {
    /// Total retransmissions across all edges (attempts beyond the first).
    pub fn retransmissions(&self) -> u32 {
        self.hops.iter().map(|h| h.link.retries()).sum()
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

/// [`Footprint::up`] of an orphaned used edge (its parent edge is unused):
/// it sends its batch, and no node merges it.
const NOWHERE: u32 = u32::MAX;

/// The part of the tree a plan uses: its used edges children first, and
/// where each one's batch goes. Every collection pass, and every edge
/// charge the simulator makes, walks this instead of the whole tree
/// (module docs, "Cost model"). Built by [`Plan::footprint`].
#[derive(Debug, Clone)]
pub struct Footprint {
    root: NodeId,
    n: usize,
    /// Used edges (by child node), each before its parent edge. Positions
    /// in this list are the edges' *slots*; slot `order.len()` is the
    /// root.
    order: Vec<NodeId>,
    /// Per slot: the slot that merges its batch, or [`NOWHERE`].
    up: Vec<u32>,
    /// The slots merged at slot `s` are `kids[kid_off[s]..kid_off[s + 1]]`.
    kid_off: Vec<u32>,
    kids: Vec<u32>,
    /// Slots in [`Topology::edges`] order.
    by_edge: Vec<u32>,
    /// Visited nodes with a used child edge, in node order: the nodes
    /// that broadcast the trigger.
    triggers: Vec<NodeId>,
}

impl Footprint {
    /// Lays out `plan`'s used edges on `topology`: one walk of the tree.
    pub(crate) fn new(plan: &Plan, topology: &Topology) -> Footprint {
        let n = topology.len();
        let root = topology.root();
        let order: Vec<NodeId> = topology
            .post_order()
            .iter()
            .copied()
            .filter(|&u| u != root && plan.is_used(u))
            .collect();
        let m = order.len();
        let mut slot = vec![NOWHERE; n];
        for (s, &u) in order.iter().enumerate() {
            slot[u.index()] = s as u32;
        }
        slot[root.index()] = m as u32;
        let up: Vec<u32> = order
            .iter()
            .map(|&u| slot[topology.parent(u).expect("an edge has a parent").index()])
            .collect();
        // Counting sort of the slots by where they are merged: count, sum
        // to range ends, then fill each range back to front.
        let mut kid_off = vec![0u32; m + 2];
        for &t in up.iter().filter(|&&t| t != NOWHERE) {
            kid_off[t as usize] += 1;
        }
        let mut end = 0;
        for off in &mut kid_off {
            end += *off;
            *off = end;
        }
        let mut kids = vec![0u32; end as usize];
        for (s, &t) in up.iter().enumerate().rev().filter(|&(_, &t)| t != NOWHERE) {
            let off = &mut kid_off[t as usize];
            *off -= 1;
            kids[*off as usize] = s as u32;
        }
        let mut by_edge = Vec::with_capacity(m);
        let mut triggers = Vec::new();
        for (i, &s) in slot.iter().enumerate().filter(|&(_, &s)| s != NOWHERE) {
            if (s as usize) < m {
                by_edge.push(s);
            }
            if kid_off[s as usize] < kid_off[s as usize + 1] {
                triggers.push(NodeId::from_index(i));
            }
        }
        Footprint { root, n, order, up, kid_off, kids, by_edge, triggers }
    }

    /// True when this layout still describes `plan` (the plan it was built
    /// from, unchanged since) on `topology`: every used edge kept its
    /// parent, or stayed orphaned.
    pub(crate) fn fits(&self, plan: &Plan, topology: &Topology) -> bool {
        topology.len() == self.n
            && topology.root() == self.root
            && self.order.iter().zip(&self.up).all(|(&u, &up)| match (topology.parent(u), up) {
                (Some(p), NOWHERE) => p != self.root && !plan.is_used(p),
                (parent, s) => parent == Some(self.node(s as usize)),
            })
    }

    /// Number of used edges.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The used edges, in [`Topology::edges`] order.
    pub fn edges(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_edge.iter().map(|&s| self.order[s as usize])
    }

    /// Visited nodes (the root, and every used edge's child) with at least
    /// one used child edge, in node order: the nodes that broadcast the
    /// trigger of a subsequent distribution phase.
    pub fn triggers(&self) -> &[NodeId] {
        &self.triggers
    }

    fn node(&self, s: usize) -> NodeId {
        self.order.get(s).copied().unwrap_or(self.root)
    }

    fn kids(&self, s: usize) -> &[u32] {
        &self.kids[self.kid_off[s] as usize..self.kid_off[s + 1] as usize]
    }
}

/// [`Pass::kept`] of a slot whose batch no cut materialized.
const UNCUT: u32 = u32::MAX;

/// One collection pass's state, per footprint slot (slot `m` is the
/// root).
struct Pass {
    /// Readings merged at the slot so far, its own included.
    size: Vec<u32>,
    /// The slot's hop delivered.
    delivered: Vec<bool>,
    /// Where in `batches` the batch a cut kept at the slot is, or
    /// [`UNCUT`]: an uncut batch is only counted.
    kept: Vec<u32>,
    batches: Vec<Vec<Reading>>,
    stack: Vec<u32>,
}

impl Pass {
    fn new(m: usize) -> Pass {
        Pass {
            size: vec![1; m + 1],
            delivered: vec![false; m],
            kept: vec![UNCUT; m + 1],
            batches: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The readings merged at slot `s`: its own, each delivered kid's kept
    /// batch, and for a delivered kid that kept none (it forwarded
    /// everything it heard) the same again from that kid down.
    fn gather(&mut self, fp: &Footprint, s: usize, values: &[f64]) -> Vec<Reading> {
        let mut merged = Vec::with_capacity(self.size[s] as usize);
        self.stack.push(s as u32);
        while let Some(t) = self.stack.pop() {
            let node = fp.node(t as usize);
            merged.push(Reading { node, value: values[node.index()] });
            for &c in fp.kids(t as usize).iter().filter(|&&c| self.delivered[c as usize]) {
                match self.kept[c as usize] {
                    UNCUT => self.stack.push(c),
                    b => merged.append(&mut self.batches[b as usize]),
                }
            }
        }
        debug_assert_eq!(merged.len(), self.size[s] as usize);
        merged
    }

    /// Keeps `batch` as slot `s`'s.
    fn keep(&mut self, s: usize, batch: Vec<Reading>) {
        self.size[s] = batch.len() as u32;
        self.kept[s] = self.batches.len() as u32;
        self.batches.push(batch);
    }
}

/// The non-proof cut: keeps the best `limit` readings of a merged batch,
/// in no particular order (the root sorts its answer).
fn top(mut merged: Vec<Reading>, limit: usize) -> Vec<Reading> {
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

/// The collection pass, over `footprint` children first: every visited
/// node merges its own reading with its children's delivered batches,
/// cuts the merge to its limit (the edge's bandwidth, or k at the root)
/// and sends it up a hop that arrives iff `deliver` says so. Without
/// `proofs` a batch that fits its limit is carried as a count and
/// gathered only where a cut needs it (module docs, "Cost model"); with
/// them every batch is gathered and proof-cut. Returns the root's
/// rank-sorted answer, the per-edge batch sizes and, per footprint slot,
/// whether its hop delivered.
///
/// Nodes whose edge has zero bandwidth are not visited and contribute
/// nothing (together with their whole subtree, when intermediate edges are
/// unused). The root always contributes its own reading.
fn collect(
    plan: &Plan,
    footprint: &Footprint,
    topology: &Topology,
    values: &[f64],
    k: usize,
    mut deliver: impl FnMut(NodeId) -> bool,
    mut proofs: Option<&mut Proofs>,
) -> (Vec<Reading>, Vec<u32>, Vec<bool>) {
    assert_eq!(values.len(), topology.len());
    let fp = footprint;
    let m = fp.len();
    let mut sent = vec![0u32; topology.len()];
    let mut pass = Pass::new(m);
    let cut_every_batch = proofs.is_some();
    let mut cut = |u: NodeId, merged: Vec<Reading>, limit: usize, sent: &[u32]| match &mut proofs {
        Some(p) => p.cut(u, merged, limit, sent, topology),
        None => top(merged, limit),
    };
    for s in 0..m {
        let u = fp.order[s];
        let limit = plan.bandwidth(u) as usize;
        if cut_every_batch || pass.size[s] as usize > limit {
            let merged = pass.gather(fp, s, values);
            pass.keep(s, cut(u, merged, limit, &sent));
        }
        sent[u.index()] = pass.size[s];
        pass.delivered[s] = deliver(u);
        let t = fp.up[s];
        if pass.delivered[s] && t != NOWHERE {
            pass.size[t as usize] += pass.size[s];
        }
    }
    // The root answers with its top k; an answer of k = 0 needs no
    // readings gathered.
    let merged = if cut_every_batch || k > 0 { pass.gather(fp, m, values) } else { Vec::new() };
    let mut answer = cut(fp.root, merged, k, &sent);
    answer.sort_unstable_by(Reading::rank_cmp);
    (answer, sent, pass.delivered)
}

/// Executes an approximate plan (Section 2 semantics): returns the root's
/// answer and the per-edge message sizes.
pub fn run_plan(plan: &Plan, topology: &Topology, values: &[f64], k: usize) -> CollectionOutcome {
    let footprint = plan.footprint(topology);
    let (answer, sent, _) = collect(plan, &footprint, topology, values, k, |_| true, None);
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
    let fp = plan.footprint(topology);
    let mut links: Vec<LinkAttempts> = Vec::with_capacity(fp.len());
    let deliver = |child: NodeId| {
        let link = policy.attempt_delivery(failures, child, &mut link_rng(seed, child));
        links.push(link);
        link.delivered
    };
    let (answer, sent, delivered) = collect(plan, &fp, topology, values, k, deliver, None);

    // A batch reaches the root iff every hop on its path delivered. Slots
    // in reverse are parents first, so `reached` of the parent is final
    // when the child consults it.
    let m = fp.len();
    let mut reached = vec![false; m];
    for s in (0..m).rev() {
        reached[s] = delivered[s]
            && match fp.up[s] {
                NOWHERE => false,
                t if t as usize == m => true,
                t => reached[t as usize],
            };
    }
    let covered = reached.iter().filter(|&&r| r).count();
    let delivered_fraction = if m == 0 { 1.0 } else { covered as f64 / m as f64 };
    let hops: Vec<Hop> = fp
        .by_edge
        .iter()
        .map(|&s| Hop {
            edge: fp.order[s as usize],
            link: links[s as usize],
            reached: reached[s as usize],
        })
        .collect();
    let lost_edges = hops.iter().filter(|h| !h.link.delivered).map(|h| h.edge).collect();
    LossyCollectionOutcome { answer, sent, hops, lost_edges, delivered_fraction }
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
    let footprint = plan.footprint(topology);
    let (answer, sent, _) =
        collect(plan, &footprint, topology, values, k, |_| true, Some(&mut proofs));
    ProofOutcome {
        answer,
        proven: proofs.count[topology.root().index()] as usize,
        sent,
        retrieved: proofs.retrieved.unwrap_or_default(),
        proven_count: proofs.count,
    }
}

/// The merge-everything kernel the counting one replaced, kept verbatim
/// as the tests' oracle: in post order over the whole tree, every visited
/// node merges its children's outboxes into its own reading and cuts the
/// merge to its limit, so every batch is materialized at every hop.
#[cfg(test)]
pub(crate) mod merge_oracle {
    use super::{ProofOutcome, Proofs};
    use crate::plan::Plan;
    use prospector_data::Reading;
    use prospector_net::{link_rng, ArqPolicy, FailureModel, LinkAttempts, NodeId, Topology};

    /// The old lossy outcome: per-node delivery records and reach flags.
    pub(crate) struct Lossy {
        pub answer: Vec<Reading>,
        pub sent: Vec<u32>,
        pub links: Vec<Option<LinkAttempts>>,
        pub lost_edges: Vec<NodeId>,
        pub reached: Vec<bool>,
        pub delivered_fraction: f64,
    }

    fn top(_: NodeId, mut merged: Vec<Reading>, limit: usize, _: &[u32]) -> Vec<Reading> {
        if merged.len() > limit {
            merged.select_nth_unstable_by(limit, Reading::rank_cmp);
            merged.truncate(limit);
        }
        merged
    }

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

    pub(crate) fn run_plan(
        plan: &Plan,
        topology: &Topology,
        values: &[f64],
        k: usize,
    ) -> (Vec<Reading>, Vec<u32>) {
        collect(plan, topology, values, k, |_| true, top)
    }

    pub(crate) fn run_plan_lossy(
        plan: &Plan,
        topology: &Topology,
        values: &[f64],
        k: usize,
        failures: &FailureModel,
        policy: &ArqPolicy,
        seed: u64,
    ) -> Lossy {
        let mut links: Vec<Option<LinkAttempts>> = vec![None; topology.len()];
        let deliver = |child: NodeId| {
            let link = policy.attempt_delivery(failures, child, &mut link_rng(seed, child));
            links[child.index()] = Some(link);
            link.delivered
        };
        let (answer, sent) = collect(plan, topology, values, k, deliver, top);
        let lost_edges: Vec<NodeId> =
            topology.edges().filter(|&e| links[e.index()].is_some_and(|l| !l.delivered)).collect();
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
        Lossy { answer, sent, links, lost_edges, reached, delivered_fraction }
    }

    pub(crate) fn run_proof_plan(
        plan: &Plan,
        topology: &Topology,
        values: &[f64],
        k: usize,
    ) -> ProofOutcome {
        let n = topology.len();
        let mut proofs = Proofs {
            count: vec![0; n],
            prefix: vec![Vec::new(); n],
            retrieved: Some(vec![Vec::new(); n]),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prospector_data::top_k_nodes;
    use prospector_net::topology::{balanced, chain, star};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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
        assert!(lossy.hops.iter().all(|h| h.link == prospector_net::LinkAttempts::first_try()));
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

    /// Readings as comparable bits (NaN readings compare equal to
    /// themselves).
    fn bits(readings: &[Reading]) -> Vec<(NodeId, u64)> {
        readings.iter().map(|r| (r.node, r.value.to_bits())).collect()
    }

    /// A random tree over `n` nodes: a chain, a star or a random
    /// recursive tree, with labels shuffled so the root is anywhere.
    fn random_tree(rng: &mut StdRng, n: usize) -> Topology {
        let shape = rng.random_range(0..3u32);
        let mut parent: Vec<Option<usize>> = (0..n)
            .map(|i| match (i, shape) {
                (0, _) => None,
                (_, 0) => Some(i - 1),
                (_, 1) => Some(0),
                _ => Some(rng.random_range(0..i)),
            })
            .collect();
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.random_range(0..=i));
        }
        let mut relabeled = vec![None; n];
        for (i, p) in parent.drain(..).enumerate() {
            relabeled[label[i]] = p.map(|p| NodeId::from_index(label[p]));
        }
        Topology::from_parents(NodeId::from_index(label[0]), relabeled).unwrap()
    }

    /// Values with ties, dead nodes (−∞) and the odd NaN.
    fn random_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.random_range(0..20u32) {
                0 => f64::NEG_INFINITY,
                1 => f64::NAN,
                2 => -f64::NAN,
                _ => rng.random_range(0..8u32) as f64,
            })
            .collect()
    }

    /// A full sweep, NAIVE-k, or random bandwidths (zeros leave orphaned
    /// used edges behind).
    fn random_plan(rng: &mut StdRng, t: &Topology) -> Plan {
        match rng.random_range(0..4u32) {
            0 => Plan::full_sweep(t),
            1 => Plan::naive_k(t, rng.random_range(1..4usize)),
            _ => {
                let mut plan = Plan::empty(t.len());
                for e in t.edges() {
                    if rng.random_bool(0.7) {
                        plan.set_bandwidth(e, rng.random_range(1..=t.subtree_size(e) as u32));
                    }
                }
                plan
            }
        }
    }

    /// A random tree, plan and epoch, with some nodes killed the way the
    /// simulator kills them: the tree is repaired (the dead parked as
    /// leaves under the root), their readings read −∞ and, usually, their
    /// edges are masked out of the plan.
    fn random_world(seed: u64) -> (Topology, Plan, Vec<f64>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..40usize);
        let mut t = random_tree(&mut rng, n);
        let mut values = random_values(&mut rng, n);
        let dead: Vec<NodeId> = t.edges().filter(|_| rng.random_bool(0.1)).collect::<Vec<_>>();
        if !dead.is_empty() {
            t = t.repair(&dead).unwrap();
            for d in &dead {
                values[d.index()] = f64::NEG_INFINITY;
            }
        }
        let mut plan = random_plan(&mut rng, &t);
        if rng.random_bool(0.8) {
            for d in &dead {
                plan.set_bandwidth(*d, 0);
            }
        }
        let k = rng.random_range(0..=n + 2);
        (t, plan, values, k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn counting_kernel_collects_like_the_merge_oracle(seed in 0u64..u64::MAX) {
            let (t, plan, values, k) = random_world(seed);
            let got = run_plan(&plan, &t, &values, k);
            let (answer, sent) = merge_oracle::run_plan(&plan, &t, &values, k);
            prop_assert_eq!(bits(&got.answer), bits(&answer), "seed {}", seed);
            prop_assert_eq!(got.sent, sent, "seed {}", seed);
        }

        #[test]
        fn counting_kernel_loses_like_the_merge_oracle(seed in 0u64..u64::MAX) {
            let (t, plan, values, k) = random_world(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let probs: Vec<f64> =
                (0..t.len()).map(|_| [0.0, 0.2, 0.5, 1.0][rng.random_range(0..4usize)]).collect();
            let fm = FailureModel::per_edge(t.len(), probs, 0.0).unwrap();
            let backoff = prospector_net::Backoff { base_mj: 0.1, factor: 2.0, jitter: 0.5 };
            let policy = ArqPolicy { max_retries: rng.random_range(0..4u32), backoff };
            let link_seed = rng.random_range(0..u64::MAX);
            let got = run_plan_lossy(&plan, &t, &values, k, &fm, &policy, link_seed);
            let want = merge_oracle::run_plan_lossy(&plan, &t, &values, k, &fm, &policy, link_seed);
            prop_assert_eq!(bits(&got.answer), bits(&want.answer), "seed {}", seed);
            prop_assert_eq!(&got.sent, &want.sent, "seed {}", seed);
            prop_assert_eq!(&got.lost_edges, &want.lost_edges, "seed {}", seed);
            prop_assert_eq!(
                got.delivered_fraction.to_bits(), want.delivered_fraction.to_bits(), "seed {}", seed
            );
            // Per node, as the oracle records them: a hop per used edge,
            // reach flags for everyone (the root always reached).
            let mut links = vec![None; t.len()];
            let mut reached = vec![false; t.len()];
            reached[t.root().index()] = true;
            for h in &got.hops {
                links[h.edge.index()] = Some(h.link);
                reached[h.edge.index()] = h.reached;
            }
            prop_assert!(got.hops.windows(2).all(|w| w[0].edge < w[1].edge), "edge order");
            prop_assert_eq!(links, want.links, "seed {}", seed);
            prop_assert_eq!(reached, want.reached, "seed {}", seed);
        }

        #[test]
        fn proof_plans_prove_like_the_merge_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..30usize);
            let t = random_tree(&mut rng, n);
            let values = random_values(&mut rng, n);
            let mut plan = Plan::empty(n);
            plan.proof_carrying = true;
            for e in t.edges() {
                plan.set_bandwidth(e, rng.random_range(1..=t.subtree_size(e) as u32));
            }
            let k = rng.random_range(0..=n + 2);
            let got = run_proof_plan(&plan, &t, &values, k);
            let want = merge_oracle::run_proof_plan(&plan, &t, &values, k);
            prop_assert_eq!(bits(&got.answer), bits(&want.answer), "seed {}", seed);
            prop_assert_eq!(got.proven, want.proven, "seed {}", seed);
            prop_assert_eq!(got.sent, want.sent, "seed {}", seed);
            prop_assert_eq!(got.proven_count, want.proven_count, "seed {}", seed);
            let retrieved = |r: &[Vec<Reading>]| r.iter().map(|b| bits(b)).collect::<Vec<_>>();
            prop_assert_eq!(retrieved(&got.retrieved), retrieved(&want.retrieved), "seed {}", seed);
            prop_assert_eq!(proven_on_values(&plan, &t, &values, k), want.proven);
        }
    }

    #[test]
    fn footprint_is_rebuilt_for_another_tree() {
        // Chain 0 <- 1 <- 2 <- 3, every edge used. After node 2 dies the
        // repaired tree parks it under the root and hangs 3 off 1: the
        // cached layout no longer fits and a fresh one is used.
        let t = chain(4);
        let plan = Plan::full_sweep(&t);
        let values = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(run_plan(&plan, &t, &values, 4).sent, vec![0, 3, 2, 1]);
        let repaired = t.repair(&[NodeId(2)]).unwrap();
        assert!(!plan.footprint(&t).fits(&plan, &repaired));
        let (answer, sent) = merge_oracle::run_plan(&plan, &repaired, &values, 4);
        let got = run_plan(&plan, &repaired, &values, 4);
        assert_eq!((got.answer, got.sent), (answer, sent));
        assert!(matches!(plan.footprint(&t), std::borrow::Cow::Borrowed(_)));
        assert!(matches!(plan.footprint(&repaired), std::borrow::Cow::Owned(_)));
    }

    #[test]
    fn clones_share_one_footprint() {
        // A clone taken before either copy runs shares the layout the
        // first execution builds; a bandwidth change gives the changed
        // copy its own, and leaves the others' in place.
        let t = chain(4);
        let plan = Plan::full_sweep(&t);
        let mut clone = plan.clone();
        let laid_out = &*clone.footprint(&t) as *const Footprint;
        assert!(std::ptr::eq(&*plan.footprint(&t), laid_out));
        clone.set_bandwidth(NodeId(3), 0);
        assert!(!std::ptr::eq(&*clone.footprint(&t), laid_out));
        assert!(std::ptr::eq(&*plan.footprint(&t), laid_out));
        assert_eq!(clone.footprint(&t).edges().count(), 2);
    }
}
