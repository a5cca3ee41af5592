//! Per-node, per-phase energy accounting.

use crate::node::NodeId;

/// Query-processing phase an energy charge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Installing a plan (initial distribution phase).
    PlanInstall,
    /// Triggering re-execution (subsequent distribution phases).
    Trigger,
    /// Routing values up to the root.
    Collection,
    /// Exact algorithm's mop-up phase.
    MopUp,
    /// Full-network sweeps that feed the sample window.
    Sampling,
    /// Retransmissions/rerouting after transient failures.
    Rerouting,
    /// Spanning-tree rebuild after a permanent node failure: failure
    /// probes, re-attachment handshakes and plan re-dissemination triggers.
    Repair,
    /// Link-layer ARQ during collection: retry transmissions, backoff
    /// idle-listening and the header-only acks confirming a retried
    /// delivery. First attempts stay under [`Phase::Collection`].
    Retransmit,
}

impl Phase {
    /// All phases, in charge-index order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::PlanInstall,
        Phase::Trigger,
        Phase::Collection,
        Phase::MopUp,
        Phase::Sampling,
        Phase::Rerouting,
        Phase::Repair,
        Phase::Retransmit,
    ];

    /// Stable lowercase name, used as the `phase` field of trace events
    /// and as a JSON key in metrics snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PlanInstall => "plan_install",
            Phase::Trigger => "trigger",
            Phase::Collection => "collection",
            Phase::MopUp => "mop_up",
            Phase::Sampling => "sampling",
            Phase::Rerouting => "rerouting",
            Phase::Repair => "repair",
            Phase::Retransmit => "retransmit",
        }
    }
}

/// Number of charge phases ([`Phase::ALL`]'s length), public so
/// checkpoint codecs can name the per-phase array type.
pub const NUM_PHASES: usize = 8;

fn phase_index(p: Phase) -> usize {
    match p {
        Phase::PlanInstall => 0,
        Phase::Trigger => 1,
        Phase::Collection => 2,
        Phase::MopUp => 3,
        Phase::Sampling => 4,
        Phase::Rerouting => 5,
        Phase::Repair => 6,
        Phase::Retransmit => 7,
    }
}

/// Two meters could not be merged because they describe networks of
/// different sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterMergeError {
    pub self_nodes: usize,
    pub other_nodes: usize,
}

impl std::fmt::Display for MeterMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge meters of different sizes: {} vs {} nodes",
            self.self_nodes, self.other_nodes
        )
    }
}

impl std::error::Error for MeterMergeError {}

/// Accumulates energy charges attributed to nodes and phases.
///
/// A charge on an edge is attributed to the *child* node (the sender); the
/// receiver's share is already folded into the cost model's per-byte and
/// per-message figures.
///
/// The meter remembers which nodes it has charged, so a merge visits only
/// the blocks of 64 nodes that hold one: every other node holds 0.0 and
/// adds +0.0, which leaves any sum unchanged, bit for bit (a total is
/// never −0.0, the one value +0.0 would change).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    per_node: Vec<f64>,
    /// One bit per node, set once the node is charged.
    charged: Vec<u64>,
    per_phase: [f64; NUM_PHASES],
    total: f64,
}

/// Words of a one-bit-per-node set over `n` nodes.
fn words(n: usize) -> usize {
    n.div_ceil(64)
}

impl EnergyMeter {
    /// Creates a meter for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        EnergyMeter {
            per_node: vec![0.0; n],
            charged: vec![0; words(n)],
            per_phase: [0.0; NUM_PHASES],
            total: 0.0,
        }
    }

    /// Rebuilds a meter from previously captured totals (see
    /// [`EnergyMeter::node_totals`], [`EnergyMeter::phase_total`] and
    /// [`EnergyMeter::total`]), for checkpoint restore. The grand total is
    /// stored, not recomputed: re-summing would accumulate in a different
    /// order than the original charge sequence and so could differ in the
    /// last ulp, breaking bit-identical resume.
    pub fn from_parts(per_node: Vec<f64>, per_phase: [f64; NUM_PHASES], total: f64) -> Self {
        let mut charged = vec![0; words(per_node.len())];
        for (i, &mj) in per_node.iter().enumerate() {
            if mj != 0.0 {
                charged[i >> 6] |= 1 << (i & 63);
            }
        }
        EnergyMeter { per_node, charged, per_phase, total }
    }

    /// Per-phase totals (mJ), indexed in [`Phase::ALL`] order. The
    /// counterpart of [`EnergyMeter::node_totals`] for checkpointing.
    pub fn phase_totals(&self) -> &[f64; NUM_PHASES] {
        &self.per_phase
    }

    /// Charges `mj` millijoules to `node` under `phase`.
    pub fn charge(&mut self, node: NodeId, phase: Phase, mj: f64) {
        debug_assert!(mj >= 0.0, "negative energy charge");
        let i = node.index();
        self.per_node[i] += mj;
        self.charged[i >> 6] |= 1 << (i & 63);
        self.per_phase[phase_index(phase)] += mj;
        self.total += mj;
    }

    /// Total energy consumed so far (mJ).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Energy consumed by one node (mJ).
    pub fn node_total(&self, node: NodeId) -> f64 {
        self.per_node[node.index()]
    }

    /// Energy consumed under one phase (mJ).
    pub fn phase_total(&self, phase: Phase) -> f64 {
        self.per_phase[phase_index(phase)]
    }

    /// The node that has spent the most energy, with its total; `None` for
    /// an empty network. Network lifetime is governed by this node.
    pub fn hottest_node(&self) -> Option<(NodeId, f64)> {
        self.per_node
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &e)| (NodeId::from_index(i), e))
    }

    /// Per-node totals (mJ), indexed by node index. Exposed for skew
    /// statistics (Gini) without cloning the meter.
    pub fn node_totals(&self) -> &[f64] {
        &self.per_node
    }

    /// The nodes charged so far, in node order (a superset of the nodes
    /// with a nonzero total; every other node's total is 0.0).
    pub fn charged_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.charged.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    NodeId::from_index(w * 64 + b)
                })
            })
        })
    }

    /// Adds `other`'s per-node, per-phase and total charges into `self`,
    /// which is at least as large. Per-node totals are added 64 nodes at a
    /// time, only for the words of `other` that hold a charged node.
    fn add(&mut self, other: &EnergyMeter) {
        let n = other.per_node.len();
        for (w, &word) in other.charged.iter().enumerate().filter(|&(_, &word)| word != 0) {
            let nodes = w * 64..n.min(w * 64 + 64);
            for (a, b) in self.per_node[nodes.clone()].iter_mut().zip(&other.per_node[nodes]) {
                *a += b;
            }
            self.charged[w] |= word;
        }
        for (a, b) in self.per_phase.iter_mut().zip(&other.per_phase) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Adds all of `other`'s charges into `self`, failing without
    /// mutating `self` if the two meters describe networks of different
    /// sizes.
    pub fn try_merge(&mut self, other: &EnergyMeter) -> Result<(), MeterMergeError> {
        if self.per_node.len() != other.per_node.len() {
            return Err(MeterMergeError {
                self_nodes: self.per_node.len(),
                other_nodes: other.per_node.len(),
            });
        }
        self.add(other);
        Ok(())
    }

    /// Adds all of `other`'s charges into `self`.
    ///
    /// Merging meters of different sizes is a bug in the caller: it is a
    /// `debug_assert` in debug builds, while release builds stay
    /// panic-free by growing `self` to the larger size so no charge is
    /// silently dropped. Callers that want to handle the mismatch use
    /// [`EnergyMeter::try_merge`].
    pub fn merge(&mut self, other: &EnergyMeter) {
        if let Err(e) = self.try_merge(other) {
            debug_assert!(false, "{e}");
            if self.per_node.len() < other.per_node.len() {
                self.per_node.resize(other.per_node.len(), 0.0);
                self.charged.resize(words(other.per_node.len()), 0);
            }
            self.add(other);
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.per_node.iter_mut().for_each(|v| *v = 0.0);
        self.charged.iter_mut().for_each(|w| *w = 0);
        self.per_phase.iter_mut().for_each(|v| *v = 0.0);
        self.total = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_node_and_phase() {
        let mut m = EnergyMeter::new(3);
        m.charge(NodeId(0), Phase::Collection, 1.5);
        m.charge(NodeId(1), Phase::Collection, 2.0);
        m.charge(NodeId(1), Phase::Trigger, 0.5);
        assert!((m.total() - 4.0).abs() < 1e-12);
        assert!((m.node_total(NodeId(1)) - 2.5).abs() < 1e-12);
        assert!((m.phase_total(Phase::Collection) - 3.5).abs() < 1e-12);
        assert_eq!(m.hottest_node().unwrap().0, NodeId(1));
    }

    #[test]
    fn merge_and_reset() {
        let mut a = EnergyMeter::new(2);
        let mut b = EnergyMeter::new(2);
        a.charge(NodeId(0), Phase::Sampling, 1.0);
        b.charge(NodeId(1), Phase::MopUp, 2.0);
        a.merge(&b);
        assert!((a.total() - 3.0).abs() < 1e-12);
        assert!((a.phase_total(Phase::MopUp) - 2.0).abs() < 1e-12);
        a.reset();
        assert_eq!(a.total(), 0.0);
        assert_eq!(a.node_total(NodeId(1)), 0.0);
    }

    #[test]
    fn try_merge_rejects_size_mismatch_without_mutation() {
        let mut a = EnergyMeter::new(2);
        a.charge(NodeId(0), Phase::Collection, 1.0);
        let mut b = EnergyMeter::new(3);
        b.charge(NodeId(2), Phase::Collection, 5.0);
        let err = a.try_merge(&b).unwrap_err();
        assert_eq!(err, MeterMergeError { self_nodes: 2, other_nodes: 3 });
        assert_eq!(a.total(), 1.0);
        assert_eq!(a.node_totals().len(), 2);
        // Same-size merge still succeeds.
        assert!(a.try_merge(&EnergyMeter::new(2)).is_ok());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "cannot merge meters"))]
    fn merge_size_mismatch_is_loud_but_lossless() {
        let mut a = EnergyMeter::new(2);
        a.charge(NodeId(1), Phase::Collection, 1.0);
        let mut b = EnergyMeter::new(4);
        b.charge(NodeId(3), Phase::Sampling, 2.0);
        // Debug builds panic here (debug_assert); release builds grow the
        // meter so no energy is lost.
        a.merge(&b);
        assert_eq!(a.node_totals().len(), 4);
        assert!((a.total() - 3.0).abs() < 1e-12);
        assert!((a.node_total(NodeId(3)) - 2.0).abs() < 1e-12);
        assert!((a.phase_total(Phase::Sampling) - 2.0).abs() < 1e-12);
    }

    /// The merge the charged-node set replaced, kept as its oracle: every
    /// node's total is added, charged or not.
    fn merge_every_node(dst: &mut EnergyMeter, src: &EnergyMeter) {
        for (a, b) in dst.per_node.iter_mut().zip(&src.per_node) {
            *a += b;
        }
        for (a, b) in dst.per_phase.iter_mut().zip(&src.per_phase) {
            *a += b;
        }
        dst.total += src.total;
    }

    fn random_meter(rng: &mut rand::rngs::StdRng, n: usize) -> EnergyMeter {
        use rand::RngExt;
        let mut m = EnergyMeter::new(n);
        if rng.random_bool(0.3) {
            // Every node: whole words of charged nodes.
            for i in 0..n {
                m.charge(NodeId::from_index(i), Phase::Sampling, rng.random_range(0.0..1.0));
            }
        }
        for _ in 0..rng.random_range(0..3 * n) {
            let node = NodeId::from_index(rng.random_range(0..n));
            let phase = Phase::ALL[rng.random_range(0..NUM_PHASES)];
            let mj = match rng.random_range(0..4) {
                0 => 0.0,
                _ => rng.random_range(0.0..10.0),
            };
            m.charge(node, phase, mj);
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn merging_charged_nodes_matches_merging_every_node(
            n in 1usize..200,
            meters in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut sparse = random_meter(&mut rng, n);
            let mut dense = sparse.clone();
            for _ in 0..meters {
                let src = random_meter(&mut rng, n);
                sparse.merge(&src);
                merge_every_node(&mut dense, &src);
                // A meter rebuilt from its parts merges the same way.
                let restored =
                    EnergyMeter::from_parts(src.per_node.clone(), src.per_phase, src.total);
                sparse.merge(&restored);
                merge_every_node(&mut dense, &restored);
            }
            // And merges on: a merged-in node counts as charged.
            let (mut sparse_next, mut dense_next) = (EnergyMeter::new(n), EnergyMeter::new(n));
            sparse_next.merge(&sparse);
            merge_every_node(&mut dense_next, &dense);
            let bits = |m: &EnergyMeter| {
                let nodes: Vec<u64> = m.per_node.iter().map(|v| v.to_bits()).collect();
                (nodes, m.per_phase.map(f64::to_bits), m.total.to_bits())
            };
            proptest::prop_assert_eq!(bits(&sparse), bits(&dense));
            proptest::prop_assert_eq!(bits(&sparse_next), bits(&dense_next));
            let nonzero = (0..n).filter(|&i| sparse.per_node[i] != 0.0);
            proptest::prop_assert!(nonzero.map(NodeId::from_index).all(|u| {
                sparse.charged_nodes().any(|c| c == u)
            }));
            proptest::prop_assert!(sparse.charged_nodes().zip(sparse.charged_nodes().skip(1))
                .all(|(a, b)| a < b), "charged nodes come in node order");
        }
    }

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::ALL.len());
        assert_eq!(names[0], "plan_install");
        assert_eq!(names[7], "retransmit");
    }
}
