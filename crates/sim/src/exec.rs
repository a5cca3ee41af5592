//! Energy-metered plan execution.

use crate::continuous::subtree_slots;
use crate::runner::mask_dead_edges;
use crate::trace::charge;
use prospector_core::{
    run_plan, run_plan_lossy, run_proof_plan, Footprint, LossyCollectionOutcome, Plan,
};
use prospector_data::Reading;
use prospector_net::{
    ArqPolicy, EnergyMeter, EnergyModel, FailureModel, LinkAttempts, NodeId, Phase, Topology,
};
use prospector_obs::{NullTracer, TraceEvent, Tracer};
use rand::rngs::StdRng;

/// One executed collection phase: the answer plus its energy bill.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The root's answer (top k), in rank order.
    pub answer: Vec<Reading>,
    /// Answer values proven at the root (0 for non-proof plans).
    pub proven: usize,
    /// Per-node, per-phase energy charges for this execution.
    pub meter: EnergyMeter,
    /// Used edges whose batch was lost after exhausting the ARQ retry
    /// budget ([`Topology::edges`] order). Always empty on the reliable
    /// paths ([`execute_plan`], [`execute_proof_plan`]).
    pub lost_edges: Vec<NodeId>,
    /// Transmissions beyond each edge's first attempt, summed.
    pub retransmissions: u32,
    /// Fraction of plan-visited non-root nodes whose batch survived every
    /// hop to the root (1.0 on the reliable paths).
    pub delivered_fraction: f64,
}

impl ExecutionReport {
    /// Total energy (mJ) of this execution.
    pub fn total_mj(&self) -> f64 {
        self.meter.total()
    }

    /// Node ids of the answer.
    pub fn answer_nodes(&self) -> Vec<NodeId> {
        self.answer.iter().map(|r| r.node).collect()
    }
}

/// Charges the subsequent-distribution trigger: a header-only broadcast at
/// every participating node that has at least one participating child, in
/// node order. Returns the number of broadcasts.
fn charge_trigger(
    footprint: &Footprint,
    energy: &EnergyModel,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> u32 {
    for &u in footprint.triggers() {
        charge(meter, tracer, u, Phase::Trigger, energy.broadcast());
    }
    footprint.triggers().len() as u32
}

/// Charges per-edge unicast costs for the values actually sent, in edge
/// order, injecting transient failures when a model and RNG are supplied.
fn charge_collection(
    sent: &[u32],
    footprint: &Footprint,
    energy: &EnergyModel,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
    mut failures: Option<(&FailureModel, &mut StdRng)>,
) {
    for e in footprint.edges() {
        charge(
            meter,
            tracer,
            e,
            Phase::Collection,
            energy.unicast_values(sent[e.index()] as usize),
        );
        if let Some((fm, rng)) = failures.as_mut() {
            if fm.sample_failure(e, rng) {
                charge(meter, tracer, e, Phase::Rerouting, fm.reroute_penalty());
            }
        }
    }
}

/// Executes an approximate plan for one epoch: trigger broadcast plus the
/// collection phase, with optional failure injection.
pub fn execute_plan(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: Option<(&FailureModel, &mut StdRng)>,
) -> ExecutionReport {
    execute_plan_traced(plan, topology, energy, values, k, failures, &mut NullTracer)
}

/// [`execute_plan`] with tracing: every energy charge is mirrored as an
/// `Energy` event, in charge order.
pub fn execute_plan_traced(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: Option<(&FailureModel, &mut StdRng)>,
    tracer: &mut dyn Tracer,
) -> ExecutionReport {
    let footprint = plan.footprint(topology);
    let mut meter = EnergyMeter::new(topology.len());
    charge_trigger(&footprint, energy, &mut meter, tracer);
    let out = run_plan(plan, topology, values, k);
    charge_collection(&out.sent, &footprint, energy, &mut meter, tracer, failures);
    ExecutionReport {
        answer: out.answer,
        proven: 0,
        meter,
        lost_edges: Vec::new(),
        retransmissions: 0,
        delivered_fraction: 1.0,
    }
}

/// Executes an approximate plan over a lossy radio with per-hop ARQ: each
/// upward batch is sampled against `failures` and retried up to
/// `policy.max_retries` times; a hop that exhausts its budget genuinely
/// loses its subtree's batch and the answer is partial. Every hop is
/// priced by the crate's one edge-order link ledger, `charge_links`.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_arq(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: &FailureModel,
    policy: &ArqPolicy,
    seed: u64,
) -> ExecutionReport {
    execute_plan_arq_traced(
        plan,
        topology,
        energy,
        values,
        k,
        failures,
        policy,
        seed,
        &mut NullTracer,
    )
}

/// [`execute_plan_arq`] with tracing: every energy charge is mirrored as
/// an `Energy` event in charge order, and each used edge additionally
/// emits one `LinkDelivery` event (after its charges) recording the
/// batch size, attempt count, delivery outcome, ack and backoff.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_arq_traced(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: &FailureModel,
    policy: &ArqPolicy,
    seed: u64,
    tracer: &mut dyn Tracer,
) -> ExecutionReport {
    let mut meter = EnergyMeter::new(topology.len());
    let arq =
        collect_arq(&mut meter, plan, topology, energy, values, k, failures, policy, seed, tracer);
    ExecutionReport {
        answer: arq.out.answer,
        proven: 0,
        meter,
        lost_edges: arq.links.lost_edges,
        retransmissions: arq.links.retransmissions,
        delivered_fraction: arq.out.delivered_fraction,
    }
}

/// One ARQ collection: what the kernel did, what the ledger counted, and
/// the trigger broadcasts.
pub(crate) struct ArqCollection {
    pub out: LossyCollectionOutcome,
    pub links: LinkTally,
    pub triggers: u32,
}

/// The body of [`execute_plan_arq_traced`], charging onto `meter` after
/// whatever it already holds. Callers pass an epoch's running meter to
/// keep its f64 sums in charge order; merging a fresh meter into it would
/// re-associate them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_arq(
    meter: &mut EnergyMeter,
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: &FailureModel,
    policy: &ArqPolicy,
    seed: u64,
    tracer: &mut dyn Tracer,
) -> ArqCollection {
    let triggers = charge_trigger(&plan.footprint(topology), energy, meter, tracer);
    let out = run_plan_lossy(plan, topology, values, k, failures, policy, seed);
    let hops = out.hops.iter().map(|h| (h.edge, out.sent[h.edge.index()], h.link));
    let links = charge_links(energy, hops, meter, tracer);
    ArqCollection { out, links, triggers }
}

/// What [`charge_links`] counted.
pub(crate) struct LinkTally {
    /// Hops played out (one per edge with a delivery record).
    pub hops: usize,
    /// Edges whose batch was lost, in [`Topology::edges`] order.
    pub lost_edges: Vec<NodeId>,
    /// Transmissions beyond each hop's first attempt, summed.
    pub retransmissions: u32,
    /// Every attempt plus every ack.
    pub messages: u32,
}

/// The link ledger: prices every ARQ hop (an edge, the values its batch
/// carried and how delivery went) exactly to the attempt. Callers pass
/// the hops in [`Topology::edges`] order — the order the reliable path
/// charges in, so with a zero-loss model the meter is byte-identical to
/// it (f64 accumulation order included):
/// * the **first** transmission of each batch is charged under
///   [`Phase::Collection`] — exactly what the reliable path charges;
/// * every retry resends the whole batch and is charged under
///   [`Phase::Retransmit`], along with the seeded backoff idle-listening
///   preceding it;
/// * a delivery that needed at least one retry is confirmed with a
///   header-only ack, also under [`Phase::Retransmit`] (the first
///   attempt's ack is already folded into the reliable unicast cost, as
///   in plan dissemination); like every edge charge, it is attributed to
///   the edge's child.
///
/// Each hop emits one `LinkDelivery` event after its charges.
pub(crate) fn charge_links(
    energy: &EnergyModel,
    hops: impl IntoIterator<Item = (NodeId, u32, LinkAttempts)>,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> LinkTally {
    let mut tally = LinkTally { hops: 0, lost_edges: Vec::new(), retransmissions: 0, messages: 0 };
    for (e, sent, link) in hops {
        let msg = energy.unicast_values(sent as usize);
        charge(meter, tracer, e, Phase::Collection, msg);
        let acked = link.attempts > 1 && link.delivered;
        if link.attempts > 1 {
            let retries = link.retries() as f64 * msg + link.backoff_mj;
            charge(meter, tracer, e, Phase::Retransmit, retries);
            if acked {
                charge(meter, tracer, e, Phase::Retransmit, energy.per_message_mj);
            }
        }
        tally.hops += 1;
        tally.retransmissions += link.retries();
        tally.messages += link.attempts + u32::from(acked);
        if !link.delivered {
            tally.lost_edges.push(e);
        }
        if tracer.enabled() {
            tracer.record(TraceEvent::LinkDelivery {
                child: e.0,
                sent_values: sent,
                attempts: link.attempts,
                delivered: link.delivered,
                acked,
                backoff_mj: link.backoff_mj,
            });
        }
    }
    tally
}

/// Executes a proof-carrying plan, additionally charging the proven-count
/// side channel on non-leaf edges that prove fewer values than they send
/// (Section 4.3 step 4). Returns the full proof outcome alongside the
/// report so the exact algorithm can run its mop-up phase.
pub fn execute_proof_plan(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    values: &[f64],
    k: usize,
    failures: Option<(&FailureModel, &mut StdRng)>,
) -> (ExecutionReport, prospector_core::ProofOutcome) {
    let footprint = plan.footprint(topology);
    let mut meter = EnergyMeter::new(topology.len());
    charge_trigger(&footprint, energy, &mut meter, &mut NullTracer);
    let out = run_proof_plan(plan, topology, values, k);
    charge_collection(&out.sent, &footprint, energy, &mut meter, &mut NullTracer, failures);
    for e in footprint.edges() {
        if !topology.is_leaf(e) && out.proven_count[e.index()] < out.sent[e.index()] {
            meter.charge(
                e,
                Phase::Collection,
                energy.per_byte_mj * energy.proven_count_bytes as f64,
            );
        }
    }
    let report = ExecutionReport {
        answer: out.answer.clone(),
        proven: out.proven,
        meter,
        lost_edges: Vec::new(),
        retransmissions: 0,
        delivered_fraction: 1.0,
    };
    (report, out)
}

/// The exploration sweep of one tree and alive set, shared by the runner
/// and the serving front end: the full-sweep plan with dead nodes masked,
/// every reading delivered, its charges re-attributed to
/// [`Phase::Sampling`] node by node. No edge of a sweep cuts its batch
/// and the bill needs no answer, so the pass only counts: what a sweep
/// costs is a function of the tree and the alive set, never of the
/// readings. It is built once per tree and alive set, and every sweep
/// replays its bill; a holder drops it when a death changes either.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The masked sweep's charges, per node, as its reliable execution
    /// made them.
    bill: EnergyMeter,
    /// What a continuous refresh reads besides the bill, when the holder
    /// asked to keep it: the masked sweep plan, with the footprint its
    /// execution laid out, that refreshes collect along, and the tree's
    /// root-child slots ([`subtree_slots`]) their sketches bucket by.
    refresh: Option<(Plan, Vec<u32>)>,
}

impl Sweep {
    /// Executes the sweep of `topology` with the nodes `alive` marks dead
    /// masked out and keeps its bill.
    pub fn new(topology: &Topology, alive: &[bool], energy: &EnergyModel) -> Sweep {
        Sweep { bill: masked_sweep(topology, alive, energy).0, refresh: None }
    }

    /// [`Sweep::new`], keeping the masked plan and the root-child slots
    /// as well.
    pub(crate) fn with_plan(topology: &Topology, alive: &[bool], energy: &EnergyModel) -> Sweep {
        let (bill, plan) = masked_sweep(topology, alive, energy);
        Sweep { bill, refresh: Some((plan, subtree_slots(topology))) }
    }

    /// Charges one sweep onto `meter`, after whatever it already holds.
    /// Returns the energy charged.
    pub fn charge(&self, meter: &mut EnergyMeter, tracer: &mut dyn Tracer) -> f64 {
        charge_as(meter, &self.bill, Phase::Sampling, tracer)
    }

    /// The masked sweep plan and the root-child slots, if the sweep was
    /// built [`Sweep::with_plan`].
    pub(crate) fn refresh(&self) -> Option<(&Plan, &[u32])> {
        self.refresh.as_ref().map(|(plan, slots)| (plan, slots.as_slice()))
    }
}

/// The full-sweep plan of `topology` with the nodes `alive` marks dead
/// masked out, and the bill of its reliable execution.
fn masked_sweep(topology: &Topology, alive: &[bool], energy: &EnergyModel) -> (EnergyMeter, Plan) {
    let mut plan = Plan::full_sweep(topology);
    mask_dead_edges(&mut plan, topology, alive);
    // k = 0 gathers no answer and no edge cuts: no reading is read.
    let unread = vec![0.0; topology.len()];
    let bill = execute_plan(&plan, topology, energy, &unread, 0, None).meter;
    (bill, plan)
}

/// Re-attributes all of `src`'s charges to `phase`, node by node in node
/// order, mirroring each re-attributed charge as an `Energy` event.
/// Returns the energy charged.
pub(crate) fn charge_as(
    dst: &mut EnergyMeter,
    src: &EnergyMeter,
    phase: Phase,
    tracer: &mut dyn Tracer,
) -> f64 {
    let mut total = 0.0;
    for node in src.charged_nodes() {
        let mj = src.node_total(node);
        if mj > 0.0 {
            charge(dst, tracer, node, phase, mj);
            total += mj;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::{chain, star};
    use rand::SeedableRng;

    #[test]
    fn energy_matches_hand_computation() {
        // Chain 0 <- 1 <- 2, w = [_, 2, 1]: trigger at 0 and 1; messages
        // on both edges with 2 and 1 values.
        let t = chain(3);
        let em = EnergyModel::mica2();
        let mut plan = Plan::empty(3);
        plan.set_bandwidth(NodeId(1), 2);
        plan.set_bandwidth(NodeId(2), 1);
        let r = execute_plan(&plan, &t, &em, &[1.0, 2.0, 3.0], 2, None);
        let expect = 2.0 * em.broadcast() + em.unicast_values(2) + em.unicast_values(1);
        assert!((r.total_mj() - expect).abs() < 1e-9, "{} vs {expect}", r.total_mj());
        assert_eq!(r.answer_nodes(), vec![NodeId(2), NodeId(1)]);
    }

    #[test]
    fn unused_subtrees_cost_nothing() {
        let t = star(5);
        let em = EnergyModel::mica2();
        let mut plan = Plan::empty(5);
        plan.set_bandwidth(NodeId(1), 1);
        let r = execute_plan(&plan, &t, &em, &[0.0; 5], 1, None);
        assert_eq!(r.meter.node_total(NodeId(2)), 0.0);
        assert_eq!(r.meter.node_total(NodeId(3)), 0.0);
        // root pays one trigger broadcast; node 1 pays one message.
        assert!((r.meter.node_total(NodeId(0)) - em.broadcast()).abs() < 1e-12);
    }

    #[test]
    fn actual_bytes_not_bandwidth_are_charged() {
        // Bandwidth 5 on a leaf edge still ships only one value.
        let t = chain(2);
        let em = EnergyModel::mica2();
        let mut plan = Plan::empty(2);
        plan.set_bandwidth(NodeId(1), 1);
        let mut plan5 = Plan::empty(2);
        plan5.set_bandwidth(NodeId(1), 5);
        // bandwidth > subtree is invalid; emulate by comparing 1 vs 1.
        let a = execute_plan(&plan, &t, &em, &[0.0, 1.0], 1, None);
        let b = execute_plan(&plan5, &t, &em, &[0.0, 1.0], 1, None);
        assert!((a.total_mj() - b.total_mj()).abs() < 1e-12);
    }

    #[test]
    fn failures_add_rerouting_charges() {
        let t = chain(4);
        let em = EnergyModel::mica2();
        let plan = Plan::naive_k(&t, 2);
        let fm = FailureModel::uniform(4, 1.0, 3.0); // always fail
        let mut rng = StdRng::seed_from_u64(1);
        let r = execute_plan(&plan, &t, &em, &[0.0, 1.0, 2.0, 3.0], 2, Some((&fm, &mut rng)));
        assert!((r.meter.phase_total(Phase::Rerouting) - 9.0).abs() < 1e-9, "3 edges × 3 mJ");
    }

    #[test]
    fn arq_zero_loss_is_byte_identical_to_reliable() {
        let t = chain(4);
        let em = EnergyModel::mica2();
        let plan = Plan::naive_k(&t, 2);
        let values = [0.0, 3.0, 1.0, 2.0];
        let reliable = execute_plan(&plan, &t, &em, &values, 2, None);
        let fm = FailureModel::none(4);
        let arq = execute_plan_arq(&plan, &t, &em, &values, 2, &fm, &ArqPolicy::default(), 77);
        assert_eq!(arq.answer, reliable.answer);
        assert_eq!(arq.meter.total().to_bits(), reliable.meter.total().to_bits());
        for i in 0..4 {
            let n = NodeId::from_index(i);
            assert_eq!(arq.meter.node_total(n).to_bits(), reliable.meter.node_total(n).to_bits());
        }
        assert_eq!(arq.meter.phase_total(Phase::Retransmit), 0.0);
        assert!(arq.lost_edges.is_empty());
        assert_eq!(arq.retransmissions, 0);
        assert_eq!(arq.delivered_fraction, 1.0);
    }

    #[test]
    fn arq_energy_is_exact_to_the_attempt() {
        // Star with 2 children, both edges always failing, 2 retries, no
        // jitter: every edge sends its 1-value batch 3 times plus two
        // backoff windows (0.2 + 0.4), no acks, batches lost.
        let t = star(3);
        let em = EnergyModel::mica2();
        let plan = Plan::naive_k(&t, 2);
        let fm = FailureModel::uniform(3, 1.0, 0.0);
        let policy = ArqPolicy {
            max_retries: 2,
            backoff: prospector_net::Backoff { base_mj: 0.2, factor: 2.0, jitter: 0.0 },
        };
        let r = execute_plan_arq(&plan, &t, &em, &[9.0, 1.0, 2.0], 2, &fm, &policy, 5);
        assert_eq!(r.lost_edges, vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.retransmissions, 4);
        assert_eq!(r.delivered_fraction, 0.0);
        assert_eq!(r.answer_nodes(), vec![NodeId(0)], "only the root's reading survives");
        let per_edge_retx = 2.0 * em.unicast_values(1) + 0.2 + 0.4;
        assert!((r.meter.phase_total(Phase::Retransmit) - 2.0 * per_edge_retx).abs() < 1e-9);
        // First attempts stay under Collection, exactly as reliable.
        let first = 2.0 * em.unicast_values(1);
        assert!((r.meter.phase_total(Phase::Collection) - first).abs() < 1e-9);
    }

    #[test]
    fn arq_ack_charged_only_on_retried_delivery() {
        // One edge at 50% loss: find a seed where delivery needs ≥ 1
        // retry, and check the ack lands under Retransmit.
        let t = chain(2);
        let em = EnergyModel::mica2();
        let plan = Plan::naive_k(&t, 1);
        let fm = FailureModel::uniform(2, 0.5, 0.0);
        let policy = ArqPolicy { max_retries: 3, backoff: prospector_net::Backoff::none() };
        let mut saw_retried_delivery = false;
        for seed in 0..64u64 {
            let r = execute_plan_arq(&plan, &t, &em, &[0.0, 1.0], 1, &fm, &policy, seed);
            if r.retransmissions > 0 && r.lost_edges.is_empty() {
                saw_retried_delivery = true;
                let expect = r.retransmissions as f64 * em.unicast_values(1) + em.per_message_mj;
                assert!(
                    (r.meter.phase_total(Phase::Retransmit) - expect).abs() < 1e-9,
                    "retries + one ack, seed {seed}"
                );
            }
        }
        assert!(saw_retried_delivery, "no seed produced a retried delivery");
    }

    #[test]
    fn proof_execution_charges_proven_count_bytes() {
        // Chain 0 <- 1 <- 2 with w=1: node 1 sends 1 value, proves 1 →
        // proven == sent, no side-channel charge. With w=2 at edge 1 and a
        // hidden larger value, proven < sent on a non-leaf edge → charge.
        let t = chain(3);
        let em = EnergyModel::mica2();
        let mut plan = Plan::empty(3);
        plan.proof_carrying = true;
        plan.set_bandwidth(NodeId(1), 2);
        plan.set_bandwidth(NodeId(2), 1);
        let (r, out) = execute_proof_plan(&plan, &t, &em, &[0.0, 1.0, 2.0], 2, None);
        // node 2 sends its whole subtree → everything provable at 1; both
        // of node 1's values proven → no extra byte anywhere.
        assert_eq!(out.proven_count[1], 2);
        let expect = 2.0 * em.broadcast() + em.unicast_values(2) + em.unicast_values(1);
        assert!((r.total_mj() - expect).abs() < 1e-9);
        assert_eq!(r.proven, 2);
    }

    #[test]
    fn proof_execution_charges_when_unproven() {
        // Star-of-chains where a middle subtree hides values: proven <
        // sent at the hiding edge's parent side.
        let t = chain(4); // 0 <- 1 <- 2 <- 3
        let em = EnergyModel::mica2();
        let mut plan = Plan::empty(4);
        plan.proof_carrying = true;
        plan.set_bandwidth(NodeId(1), 2);
        plan.set_bandwidth(NodeId(2), 1); // hides one of {v2's subtree}
        plan.set_bandwidth(NodeId(3), 1);
        let (r, out) = execute_proof_plan(&plan, &t, &em, &[0.0, 1.0, 2.0, 3.0], 2, None);
        // node 2 sends top-1 of {2.0, 3.0} = 3.0 proven (child sent all);
        // node 1 sends [3.0, 1.0]: 3.0 proven (in child's proven prefix),
        // 1.0 unproven (child may hide something bigger) → side channel on
        // edge 1.
        assert_eq!(out.proven_count[1], 1);
        assert_eq!(out.sent[1], 2);
        // Triggers at nodes 0, 1, 2 (each has a used child edge); messages
        // on edges 1 (2 values), 2 and 3 (1 value each); one proven-count
        // byte on edge 1 only (edge 2 proves everything it sends, edge 3
        // is a leaf).
        let side = em.per_byte_mj * em.proven_count_bytes as f64;
        let expect = 3.0 * em.broadcast()
            + em.unicast_values(2)
            + em.unicast_values(1)
            + em.unicast_values(1)
            + side;
        assert!((r.total_mj() - expect).abs() < 1e-9, "{} vs {expect}", r.total_mj());
    }
}
