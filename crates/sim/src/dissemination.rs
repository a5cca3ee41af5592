//! The initial distribution phase: installing a plan in the network.
//!
//! "Each node sends a subplan to each of its children using a unicast
//! message." Only nodes participating in the plan need subplans, and the
//! paper notes this cost is on the order of one collection phase but is
//! amortized over many executions of the same plan.

use crate::trace::charge;
use prospector_core::Plan;
use prospector_net::{EnergyMeter, EnergyModel, FailureModel, NodeId, Phase, Topology};
use prospector_obs::{NullTracer, Tracer};
use rand::rngs::StdRng;

/// Charges the plan-installation unicasts (one per used edge) and returns
/// the meter. Each charge is mirrored to `tracer` as an `Energy` event, in
/// charge order.
pub fn install_plan(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    tracer: &mut dyn Tracer,
) -> EnergyMeter {
    let mut meter = EnergyMeter::new(topology.len());
    for e in topology.edges() {
        if plan.is_used(e) {
            charge(&mut meter, tracer, e, Phase::PlanInstall, energy.subplan_install());
        }
    }
    meter
}

/// Total energy (mJ) to install the plan.
pub fn install_cost(plan: &Plan, topology: &Topology, energy: &EnergyModel) -> f64 {
    install_plan(plan, topology, energy, &mut NullTracer).total()
}

/// Outcome of a lossy installation pass.
#[derive(Debug, Clone)]
pub struct DisseminationReport {
    /// Total subplan unicast attempts (including retries).
    pub attempts: u32,
    /// Edges whose subplan was delivered and acknowledged.
    pub delivered: Vec<NodeId>,
    /// Edges that exhausted every retry; their nodes keep executing
    /// whatever subplan they had before.
    pub undelivered: Vec<NodeId>,
}

/// Installs a plan over lossy links: each used edge's subplan unicast is
/// retried up to `max_retries` times beyond the first attempt, every
/// attempt is charged at the sender, and a delivery is confirmed by a
/// header-only acknowledgement charged at the receiving child.
///
/// The transient model drives loss exactly as it does for collection
/// unicasts; an edge that fails `1 + max_retries` times in a row is
/// reported undelivered so the caller can fall back to the child's
/// previous subplan.
///
/// Each attempt and ack charge is mirrored as an `Energy` event, in
/// charge order.
pub fn install_plan_lossy(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    failures: &FailureModel,
    rng: &mut StdRng,
    max_retries: u32,
    tracer: &mut dyn Tracer,
) -> (EnergyMeter, DisseminationReport) {
    let mut meter = EnergyMeter::new(topology.len());
    let mut report =
        DisseminationReport { attempts: 0, delivered: Vec::new(), undelivered: Vec::new() };
    for e in topology.edges() {
        if !plan.is_used(e) {
            continue;
        }
        let mut delivered = false;
        for _attempt in 0..=max_retries {
            report.attempts += 1;
            charge(&mut meter, tracer, e, Phase::PlanInstall, energy.subplan_install());
            if !failures.sample_failure(e, rng) {
                delivered = true;
                break;
            }
        }
        if delivered {
            // The child confirms its new subplan with a header-only ack.
            charge(&mut meter, tracer, e, Phase::PlanInstall, energy.per_message_mj);
            report.delivered.push(e);
        } else {
            report.undelivered.push(e);
        }
    }
    (meter, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::star;
    use prospector_net::NodeId;
    use rand::SeedableRng;

    #[test]
    fn only_used_edges_pay() {
        let t = star(4);
        let em = EnergyModel::mica2();
        let mut p = Plan::empty(4);
        p.set_bandwidth(NodeId(1), 1);
        p.set_bandwidth(NodeId(3), 1);
        let cost = install_cost(&p, &t, &em);
        assert!((cost - 2.0 * em.subplan_install()).abs() < 1e-12);
    }

    #[test]
    fn lossless_links_deliver_everything_in_one_attempt() {
        let t = star(5);
        let em = EnergyModel::mica2();
        let p = Plan::naive_k(&t, 2);
        let fm = FailureModel::none(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (meter, rep) = install_plan_lossy(&p, &t, &em, &fm, &mut rng, 3, &mut NullTracer);
        assert_eq!(rep.attempts, 4, "one attempt per used edge");
        assert_eq!(rep.delivered.len(), 4);
        assert!(rep.undelivered.is_empty());
        // Lossless total = lossless install + one ack per edge.
        let expect = install_cost(&p, &t, &em) + 4.0 * em.per_message_mj;
        assert!((meter.total() - expect).abs() < 1e-9);
    }

    #[test]
    fn dead_links_exhaust_retries_and_report_undelivered() {
        let t = star(4);
        let em = EnergyModel::mica2();
        let p = Plan::naive_k(&t, 1);
        let fm = FailureModel::uniform(4, 1.0, 0.0); // always fails
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (meter, rep) = install_plan_lossy(&p, &t, &em, &fm, &mut rng, 2, &mut NullTracer);
        assert_eq!(rep.attempts, 9, "3 edges × (1 + 2 retries)");
        assert!(rep.delivered.is_empty());
        assert_eq!(rep.undelivered.len(), 3);
        // Every attempt is paid for, no acks.
        assert!((meter.total() - 9.0 * em.subplan_install()).abs() < 1e-9);
    }

    #[test]
    fn lossy_delivery_rate_matches_link_quality() {
        let t = star(400);
        let em = EnergyModel::mica2();
        let p = Plan::naive_k(&t, 1);
        let fm = FailureModel::uniform(400, 0.5, 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (_, rep) = install_plan_lossy(&p, &t, &em, &fm, &mut rng, 1, &mut NullTracer);
        // P(undelivered) = 0.5² = 0.25 per edge over 399 edges.
        let rate = rep.undelivered.len() as f64 / 399.0;
        assert!((rate - 0.25).abs() < 0.08, "observed undelivered rate {rate}");
    }

    #[test]
    fn install_on_naive_k_is_order_of_collection() {
        // The paper: installation "is on the order of the cost of one
        // collection phase".
        let t = star(30);
        let em = EnergyModel::mica2();
        let p = Plan::naive_k(&t, 5);
        let install = install_cost(&p, &t, &em);
        let collection: f64 = t.edges().map(|e| em.unicast_values(p.bandwidth(e) as usize)).sum();
        assert!(install > 0.3 * collection && install < 3.0 * collection);
    }
}
