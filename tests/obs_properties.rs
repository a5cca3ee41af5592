//! Property tests pinning the accounting identities the observability
//! layer promises:
//!
//! 1. Summing a traced execution's `Energy` events in stream order
//!    reproduces its meter total **bit for bit** — charges are mirrored
//!    one-to-one in charge order, so f64 addition associates identically.
//!    (The identity is scoped to merge-free meters like a single
//!    execution's; `EnergyMeter::merge` re-associates sums.)
//! 2. The same reconstruction holds per node and per phase.
//! 3. `LinkDelivery` events reproduce `ExecutionReport::retransmissions`,
//!    the lost-edge list and the delivered fraction exactly.

use proptest::prelude::*;
use prospector::core::Plan;
use prospector::net::{
    ArqPolicy, Backoff, EnergyMeter, EnergyModel, FailureModel, NodeId, Phase, Topology,
};
use prospector::obs::{RingTracer, TraceEvent};
use prospector::sim::execute_plan_arq_traced;

/// Random tree over n nodes: each node's parent is a random earlier node.
fn arb_topology(max_n: usize) -> impl Strategy<Value = Topology> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut parent = vec![None];
            parent.extend(parents.into_iter().map(|p| Some(NodeId(p))));
            let _ = n;
            Topology::from_parents(NodeId(0), parent).expect("random parents form a tree")
        })
}

/// A random valid plan: bandwidths within subtree sizes, connectivity
/// repaired.
fn make_plan(topology: &Topology, raw: &[u32]) -> Plan {
    let mut plan = Plan::empty(topology.len());
    for e in topology.edges() {
        let cap = topology.subtree_size(e) as u32;
        plan.set_bandwidth(e, raw[e.index()] % (cap + 1));
    }
    plan.repair_connectivity(topology);
    plan
}

fn phase_by_name(name: &str) -> Phase {
    *Phase::ALL.iter().find(|p| p.name() == name).unwrap_or_else(|| panic!("unknown phase {name}"))
}

/// Runs one random ARQ execution under a tracer and returns
/// (events, report).
fn traced_arq(
    topology: &Topology,
    raw: &[u32],
    loss_pct: u8,
    max_retries: u32,
    seed: u64,
) -> (Vec<TraceEvent>, prospector::sim::ExecutionReport) {
    let n = topology.len();
    let em = EnergyModel::mica2();
    let plan = make_plan(topology, raw);
    let values: Vec<f64> = (0..n)
        .map(|i| ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(2654435761)) % 10_000) as f64)
        .collect();
    let fm = FailureModel::uniform(n, f64::from(loss_pct) / 100.0, 0.0);
    let policy = ArqPolicy { max_retries, backoff: Backoff::mica2() };
    let mut tracer = RingTracer::new(1 << 16);
    let report =
        execute_plan_arq_traced(&plan, topology, &em, &values, 3, &fm, &policy, seed, &mut tracer);
    assert_eq!(tracer.dropped(), 0);
    (tracer.take(), report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Identity 1 + 2: replaying `Energy` events in stream order through a
    // fresh meter reproduces the execution's meter bit for bit — total,
    // every node, every phase.
    #[test]
    fn energy_events_reconstruct_the_meter_bit_for_bit(
        topo in arb_topology(20),
        raw in proptest::collection::vec(0u32..6, 20),
        loss_pct in 0u8..=100,
        max_retries in 0u32..4,
        seed in 0u64..1000,
    ) {
        let n = topo.len();
        let (events, report) = traced_arq(&topo, &raw, loss_pct, max_retries, seed);
        let mut rebuilt = EnergyMeter::new(n);
        for ev in &events {
            if let TraceEvent::Energy { node, phase, mj } = ev {
                rebuilt.charge(NodeId(*node), phase_by_name(phase), *mj);
            }
        }
        prop_assert_eq!(rebuilt.total().to_bits(), report.meter.total().to_bits());
        for i in 0..n {
            let id = NodeId::from_index(i);
            prop_assert_eq!(
                rebuilt.node_total(id).to_bits(),
                report.meter.node_total(id).to_bits(),
                "node {}", i
            );
        }
        for &p in Phase::ALL.iter() {
            prop_assert_eq!(
                rebuilt.phase_total(p).to_bits(),
                report.meter.phase_total(p).to_bits(),
                "phase {}", p.name()
            );
        }
    }

    // Identity 3: `LinkDelivery` events carry the exact delivery record —
    // summed retries equal the report's retransmission count, undelivered
    // events equal the lost-edge list, and one event exists per used edge.
    #[test]
    fn link_delivery_events_reproduce_delivery_accounting(
        topo in arb_topology(20),
        raw in proptest::collection::vec(0u32..6, 20),
        loss_pct in 0u8..=100,
        max_retries in 0u32..4,
        seed in 0u64..1000,
    ) {
        let (events, report) = traced_arq(&topo, &raw, loss_pct, max_retries, seed);
        let links: Vec<(u32, u32, bool)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LinkDelivery { child, attempts, delivered, .. } => {
                    Some((*child, *attempts, *delivered))
                }
                _ => None,
            })
            .collect();
        let plan = make_plan(&topo, &raw);
        let used = topo.edges().filter(|&e| plan.is_used(e)).count();
        prop_assert_eq!(links.len(), used, "one delivery record per used edge");
        let retx: u32 = links.iter().map(|(_, attempts, _)| attempts - 1).sum();
        prop_assert_eq!(retx, report.retransmissions);
        let lost: Vec<NodeId> =
            links.iter().filter(|(_, _, d)| !d).map(|(c, _, _)| NodeId(*c)).collect();
        prop_assert_eq!(lost, report.lost_edges);
        // Attempts respect the budget; events appear in edge order.
        for (_, attempts, _) in &links {
            prop_assert!(*attempts >= 1 && *attempts <= 1 + max_retries);
        }
        let children: Vec<u32> = links.iter().map(|(c, _, _)| *c).collect();
        let mut sorted = children.clone();
        sorted.sort_unstable();
        prop_assert_eq!(children, sorted, "Topology::edges order is ascending child id");
        // Coverage, brute force: a used edge counts as delivered iff every
        // hop from it up to the root has a delivered `LinkDelivery` event.
        let hop_delivered = |u: NodeId| links.iter().any(|&(c, _, d)| c == u.0 && d);
        let covered = links
            .iter()
            .filter(|&&(c, _, _)| {
                let mut u = NodeId(c);
                while u != topo.root() {
                    if !hop_delivered(u) {
                        return false;
                    }
                    u = topo.parent(u).expect("non-root node has a parent");
                }
                true
            })
            .count();
        let expected = if links.is_empty() { 1.0 } else { covered as f64 / links.len() as f64 };
        prop_assert_eq!(report.delivered_fraction.to_bits(), expected.to_bits());
    }
}
