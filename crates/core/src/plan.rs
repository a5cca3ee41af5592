//! Query-plan representation (Section 2).
//!
//! "A single-pass approximate plan is an assignment of bandwidth `w_e` to
//! each edge in the network. This bandwidth represents the number of values
//! that should be transmitted on `e` in a collection phase."

use crate::exec::Footprint;
use prospector_net::{NodeId, Topology};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Validation failures for a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanInvariant {
    /// `w_e` exceeds the number of nodes in the subtree under `e`.
    BandwidthExceedsSubtree { edge: NodeId, bandwidth: u32, subtree: u32 },
    /// An edge carries values but its parent edge does not, so the values
    /// can never reach the root.
    OrphanedEdge { edge: NodeId },
    /// A proof-carrying plan must use every edge.
    ProofPlanSkipsEdge { edge: NodeId },
    /// The bandwidth vector length does not match the topology.
    SizeMismatch { plan: usize, topology: usize },
}

impl fmt::Display for PlanInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanInvariant::BandwidthExceedsSubtree { edge, bandwidth, subtree } => {
                write!(f, "edge {edge} has bandwidth {bandwidth} > subtree size {subtree}")
            }
            PlanInvariant::OrphanedEdge { edge } => {
                write!(f, "edge {edge} is used but its parent edge is not")
            }
            PlanInvariant::ProofPlanSkipsEdge { edge } => {
                write!(f, "proof-carrying plan leaves edge {edge} unused")
            }
            PlanInvariant::SizeMismatch { plan, topology } => {
                write!(f, "plan covers {plan} nodes but topology has {topology}")
            }
        }
    }
}

/// An approximate (or proof-carrying) top-k query plan: one bandwidth per
/// edge, indexed by the edge's child node (the root's slot is unused).
///
/// ```
/// use prospector_core::{run_plan, Plan};
/// use prospector_net::{topology, NodeId};
///
/// let t = topology::chain(4); // 0 <- 1 <- 2 <- 3
/// let mut plan = Plan::empty(4);
/// for i in 1..4 {
///     plan.set_bandwidth(NodeId(i), 1); // one value per hop
/// }
/// plan.validate(&t).unwrap();
/// let out = run_plan(&plan, &t, &[0.0, 1.0, 2.0, 3.0], 2);
/// // Only the subtree max survives each hop; the root adds its own value.
/// assert_eq!(out.answer[0].node, NodeId(3));
/// ```
#[derive(Clone)]
pub struct Plan {
    bandwidth: Vec<u32>,
    /// Proof-carrying plans execute the proving protocol of Section 4.3.
    pub proof_carrying: bool,
    /// The used edges laid out on the tree the plan first ran on: one
    /// cell shared by the plan and its clones, filled by whichever copy
    /// executes first ([`Plan::footprint`]). A bandwidth change gives the
    /// changed copy a fresh, empty cell.
    footprint: Arc<OnceLock<Footprint>>,
}

/// Plans are equal when their bandwidths and proof flag are: the
/// footprint is derived from them.
impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.bandwidth == other.bandwidth && self.proof_carrying == other.proof_carrying
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("bandwidth", &self.bandwidth)
            .field("proof_carrying", &self.proof_carrying)
            .finish()
    }
}

impl Plan {
    /// The empty plan (no edge carries anything) over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Plan::from_bandwidths(vec![0; n], false)
    }

    /// A plan from explicit bandwidths.
    pub fn from_bandwidths(bandwidth: Vec<u32>, proof_carrying: bool) -> Self {
        Plan { bandwidth, proof_carrying, footprint: Arc::default() }
    }

    /// The `NAIVE-k` plan: every node forwards the top `k` of its subtree.
    pub fn naive_k(topology: &Topology, k: usize) -> Self {
        let mut bw = vec![0u32; topology.len()];
        for e in topology.edges() {
            bw[e.index()] = topology.subtree_size(e).min(k) as u32;
        }
        Plan::from_bandwidths(bw, false)
    }

    /// The full sweep: every edge carries its entire subtree (used to
    /// collect samples).
    pub fn full_sweep(topology: &Topology) -> Self {
        let mut bw = vec![0u32; topology.len()];
        for e in topology.edges() {
            bw[e.index()] = topology.subtree_size(e) as u32;
        }
        Plan::from_bandwidths(bw, false)
    }

    /// Builds a no-local-filtering plan from a set of chosen nodes: each
    /// chosen node's value travels the whole path to the root, so
    /// `w_e = |chosen ∩ desc(e)|`.
    pub fn from_chosen(topology: &Topology, chosen: &[bool]) -> Self {
        assert_eq!(chosen.len(), topology.len());
        let mut bw = vec![0u32; topology.len()];
        for &u in topology.post_order() {
            let mut below = u32::from(chosen[u.index()] && u != topology.root());
            for &c in topology.children(u) {
                below += bw[c.index()];
            }
            if u != topology.root() {
                bw[u.index()] = below;
            }
        }
        Plan::from_bandwidths(bw, false)
    }

    /// Every edge's bandwidth, indexed by child node.
    pub fn bandwidths(&self) -> &[u32] {
        &self.bandwidth
    }

    /// Bandwidth of the edge above `edge`'s child node.
    pub fn bandwidth(&self, edge: NodeId) -> u32 {
        self.bandwidth[edge.index()]
    }

    /// Sets the bandwidth of an edge.
    pub fn set_bandwidth(&mut self, edge: NodeId, w: u32) {
        self.forget_footprint();
        self.bandwidth[edge.index()] = w;
    }

    /// Drops this copy's footprint before its bandwidths change: empties
    /// the cell when no clone shares it, and otherwise leaves the clones
    /// theirs and takes a fresh one.
    fn forget_footprint(&mut self) {
        match Arc::get_mut(&mut self.footprint) {
            Some(cell) => drop(cell.take()),
            None => self.footprint = Arc::default(),
        }
    }

    /// The plan's used edges laid out on `topology` ([`Footprint`]),
    /// which every execution walks instead of the whole tree. It is built
    /// once, at the first call on the plan or any of its clones, and
    /// reused while the plan is unchanged and each used edge keeps its
    /// parent; on any other tree a fresh one is built for the call.
    pub fn footprint(&self, topology: &Topology) -> Cow<'_, Footprint> {
        let cached = self.footprint.get_or_init(|| Footprint::new(self, topology));
        if cached.fits(self, topology) {
            Cow::Borrowed(cached)
        } else {
            Cow::Owned(Footprint::new(self, topology))
        }
    }

    /// True when the edge carries at least one value.
    pub fn is_used(&self, edge: NodeId) -> bool {
        self.bandwidth[edge.index()] > 0
    }

    /// True when `node` participates in the plan (the root always does).
    pub fn visits(&self, topology: &Topology, node: NodeId) -> bool {
        node == topology.root() || self.is_used(node)
    }

    /// Number of visited nodes (root included).
    pub fn num_visited(&self, topology: &Topology) -> usize {
        1 + topology.edges().filter(|&e| self.is_used(e)).count()
    }

    /// Total bandwidth across all edges (upper bound on values shipped).
    pub fn total_bandwidth(&self) -> u64 {
        self.bandwidth.iter().map(|&w| w as u64).sum()
    }

    /// Checks structural invariants against a topology.
    pub fn validate(&self, topology: &Topology) -> Result<(), PlanInvariant> {
        if self.bandwidth.len() != topology.len() {
            return Err(PlanInvariant::SizeMismatch {
                plan: self.bandwidth.len(),
                topology: topology.len(),
            });
        }
        for e in topology.edges() {
            let w = self.bandwidth[e.index()];
            let sub = topology.subtree_size(e) as u32;
            if w > sub {
                return Err(PlanInvariant::BandwidthExceedsSubtree {
                    edge: e,
                    bandwidth: w,
                    subtree: sub,
                });
            }
            if self.proof_carrying && w == 0 {
                return Err(PlanInvariant::ProofPlanSkipsEdge { edge: e });
            }
            if w > 0 {
                if let Some(p) = topology.parent(e) {
                    if p != topology.root() && !self.is_used(p) {
                        return Err(PlanInvariant::OrphanedEdge { edge: e });
                    }
                }
            }
        }
        Ok(())
    }

    /// Raises ancestors of every used edge to bandwidth ≥ 1 so no value is
    /// stranded (used after rounding LP solutions).
    pub fn repair_connectivity(&mut self, topology: &Topology) {
        self.forget_footprint();
        // Level order guarantees parents are fixed before children are
        // inspected, but we propagate bottom-up instead: walk post order
        // and push usage upward.
        for &u in topology.post_order() {
            if u != topology.root() && self.is_used(u) {
                if let Some(p) = topology.parent(u) {
                    if p != topology.root() && !self.is_used(p) {
                        self.bandwidth[p.index()] = 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::{balanced, chain, star};

    #[test]
    fn naive_k_caps_at_subtree_size() {
        let t = chain(5); // subtrees under edges: 4,3,2,1
        let p = Plan::naive_k(&t, 3);
        assert_eq!(p.bandwidth(NodeId(1)), 3);
        assert_eq!(p.bandwidth(NodeId(3)), 2);
        assert_eq!(p.bandwidth(NodeId(4)), 1);
        p.validate(&t).unwrap();
    }

    #[test]
    fn full_sweep_carries_everything() {
        let t = star(4);
        let p = Plan::full_sweep(&t);
        assert_eq!(p.total_bandwidth(), 3);
        let t = chain(4);
        let p = Plan::full_sweep(&t);
        assert_eq!(p.total_bandwidth(), 3 + 2 + 1);
    }

    #[test]
    fn from_chosen_counts_descendants() {
        let t = chain(4); // 0 <- 1 <- 2 <- 3
        let chosen = vec![false, false, true, true];
        let p = Plan::from_chosen(&t, &chosen);
        assert_eq!(p.bandwidth(NodeId(1)), 2);
        assert_eq!(p.bandwidth(NodeId(2)), 2);
        assert_eq!(p.bandwidth(NodeId(3)), 1);
        p.validate(&t).unwrap();
    }

    #[test]
    fn chosen_root_costs_nothing() {
        let t = star(3);
        let chosen = vec![true, false, false];
        let p = Plan::from_chosen(&t, &chosen);
        assert_eq!(p.total_bandwidth(), 0);
    }

    #[test]
    fn validate_catches_oversized_bandwidth() {
        let t = chain(3);
        let mut p = Plan::empty(3);
        p.set_bandwidth(NodeId(2), 5);
        assert!(matches!(p.validate(&t), Err(PlanInvariant::BandwidthExceedsSubtree { .. })));
    }

    #[test]
    fn validate_catches_orphans() {
        let t = chain(3); // 0 <- 1 <- 2
        let mut p = Plan::empty(3);
        p.set_bandwidth(NodeId(2), 1); // edge 2 used, edge 1 not
        assert_eq!(p.validate(&t), Err(PlanInvariant::OrphanedEdge { edge: NodeId(2) }));
        p.repair_connectivity(&t);
        p.validate(&t).unwrap();
        assert_eq!(p.bandwidth(NodeId(1)), 1);
    }

    #[test]
    fn validate_proof_plans_use_all_edges() {
        let t = star(3);
        let mut p = Plan::empty(3);
        p.proof_carrying = true;
        p.set_bandwidth(NodeId(1), 1);
        assert_eq!(p.validate(&t), Err(PlanInvariant::ProofPlanSkipsEdge { edge: NodeId(2) }));
    }

    #[test]
    fn repair_connectivity_deep_chain() {
        let t = balanced(2, 3);
        let mut p = Plan::empty(t.len());
        // pick a leaf and mark only its edge
        let leaf = (0..t.len()).map(NodeId::from_index).find(|&n| t.is_leaf(n)).unwrap();
        p.set_bandwidth(leaf, 1);
        p.repair_connectivity(&t);
        p.validate(&t).unwrap();
        assert!(p.num_visited(&t) >= 3);
    }

    #[test]
    fn visits_and_counts() {
        let t = star(3);
        let mut p = Plan::empty(3);
        assert!(p.visits(&t, NodeId(0)));
        assert!(!p.visits(&t, NodeId(1)));
        p.set_bandwidth(NodeId(1), 1);
        assert!(p.visits(&t, NodeId(1)));
        assert_eq!(p.num_visited(&t), 2);
    }
}
