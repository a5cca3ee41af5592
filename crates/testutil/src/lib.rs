//! Shared seeded fixtures for the Prospector test suites.
//!
//! The integration suites (`tests/chaos.rs`, `tests/fault_recovery.rs`,
//! `crates/sim/tests/`) used to each carry their own copy of the seeded
//! topology / experiment-config builders; this crate is the single home
//! for those, plus the golden-trace scenarios byte-diffed by
//! `tests/golden_trace.rs`.

pub mod golden;

use prospector_core::{GatePolicy, Plan, PlanContext, PlanError, Planner};
use prospector_data::SamplePolicy;
use prospector_net::{
    ArqPolicy, Backoff, EnergyMeter, FailureModel, FaultSchedule, Network, NetworkBuilder, NodeId,
    Phase, Topology,
};
use prospector_obs::MetricsSnapshot;
use prospector_sim::{EpochReport, ExperimentConfig};
use rand::rngs::StdRng;
use rand::RngExt;

/// A seeded random network of `n` nodes. Density is held constant as `n`
/// grows by scaling the field with `sqrt(n)` (the same construction the
/// chaos and fault-recovery suites used inline).
pub fn network(n: usize, seed: u64) -> Network {
    let side = 40.0 * (n as f64).sqrt();
    NetworkBuilder::new(n, side, side, 70.0).seed(seed).build().expect("seeded placement connects")
}

/// A random tree over `n ≥ 1` nodes: a chain, a star or a random
/// recursive tree, with labels shuffled so the root is anywhere.
pub fn random_tree(rng: &mut StdRng, n: usize) -> Topology {
    let shape = rng.random_range(0..3u32);
    let parent: Vec<Option<usize>> = (0..n)
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
    for (i, p) in parent.into_iter().enumerate() {
        relabeled[label[i]] = p.map(|p| NodeId::from_index(label[p]));
    }
    Topology::from_parents(NodeId::from_index(label[0]), relabeled).expect("parents form a tree")
}

/// The fault-recovery suite's experiment configuration: loss-free links,
/// periodic sampling, seeded at 9.
pub fn recovery_config(faults: FaultSchedule) -> ExperimentConfig {
    ExperimentConfig {
        k: 4,
        window: 10,
        policy: SamplePolicy::Periodic { warmup: 6, period: 10 },
        budget_mj: 25.0,
        replan_every: 8,
        replan_threshold: 0.1,
        failures: None,
        faults,
        install_retries: 2,
        arq: ArqPolicy::default(),
        min_delivered: 0.0,
        max_retry_budget: 8,
        // Gating stays on in the shared fixtures: on fault-free runs it
        // is observation-only, and the golden traces prove it stays so.
        gate: Some(GatePolicy::default()),
        continuous: None,
        seed: 9,
    }
}

/// The chaos suite's experiment configuration: `p` uniform loss on every
/// link, a `max_retries` ARQ budget with mica2 backoff, escalation
/// enabled, seeded at 87.
pub fn lossy_config(n: usize, p: f64, max_retries: u32, faults: FaultSchedule) -> ExperimentConfig {
    ExperimentConfig {
        k: 3,
        window: 10,
        policy: SamplePolicy::Periodic { warmup: 5, period: 12 },
        budget_mj: 30.0,
        replan_every: 6,
        replan_threshold: 0.1,
        failures: Some(FailureModel::uniform(n, p, 0.0)),
        faults,
        install_retries: 2,
        arq: ArqPolicy { max_retries, backoff: Backoff::mica2() },
        min_delivered: 0.8,
        max_retry_budget: max_retries + 3,
        gate: Some(GatePolicy::default()),
        continuous: None,
        seed: 87,
    }
}

/// True when two meters agree bit-for-bit on total, per-node and
/// per-phase sums over `n` nodes.
pub fn meters_bit_identical(a: &EnergyMeter, b: &EnergyMeter, n: usize) -> bool {
    if a.total().to_bits() != b.total().to_bits() {
        return false;
    }
    for i in 0..n {
        let node = NodeId::from_index(i);
        if a.node_total(node).to_bits() != b.node_total(node).to_bits() {
            return false;
        }
    }
    Phase::ALL.iter().all(|&p| a.phase_total(p).to_bits() == b.phase_total(p).to_bits())
}

/// Asserts [`meters_bit_identical`], with a per-node diagnostic.
pub fn assert_meters_bit_identical(a: &EnergyMeter, b: &EnergyMeter, n: usize) {
    assert_eq!(a.total().to_bits(), b.total().to_bits(), "meter totals differ");
    for node in 0..n {
        let id = NodeId::from_index(node);
        assert_eq!(
            a.node_total(id).to_bits(),
            b.node_total(id).to_bits(),
            "node {node} totals differ"
        );
    }
    for &p in Phase::ALL.iter() {
        assert_eq!(a.phase_total(p).to_bits(), b.phase_total(p).to_bits(), "{} differs", p.name());
    }
}

/// A metrics snapshot with its wall-clock histogram removed. Every field
/// of an epoch report is a pure function of config + seed *except* the
/// `plan_latency_ms` histogram, which measures real elapsed time; this
/// strips it so the rest of the snapshot can be compared exactly.
pub fn scrub_wall_clock(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    let mut s = snapshot.clone();
    s.histograms.remove("plan_latency_ms");
    s
}

/// Asserts two epoch-report sequences are equivalent: every field equal,
/// floats compared bit-for-bit, metrics snapshots compared after
/// [`scrub_wall_clock`]. This is the resume-equivalence check used by
/// `tests/crash_resume.rs` — a resumed run must produce the same reports
/// as the uninterrupted one, modulo wall clock.
pub fn assert_reports_equivalent(a: &[EpochReport], b: &[EpochReport]) {
    assert_eq!(a.len(), b.len(), "report counts differ");
    for (x, y) in a.iter().zip(b) {
        let e = x.epoch;
        assert_eq!(x.epoch, y.epoch, "epoch numbering diverged at {e}");
        assert_eq!(x.sampled, y.sampled, "epoch {e}: sampled");
        assert_eq!(x.replanned, y.replanned, "epoch {e}: replanned");
        assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits(), "epoch {e}: accuracy");
        assert_eq!(x.energy_mj.to_bits(), y.energy_mj.to_bits(), "epoch {e}: energy");
        assert_eq!(x.deaths, y.deaths, "epoch {e}: deaths");
        assert_eq!(x.repaired, y.repaired, "epoch {e}: repaired");
        assert_eq!(x.fallback_used, y.fallback_used, "epoch {e}: fallback_used");
        assert_eq!(x.lost_edges, y.lost_edges, "epoch {e}: lost_edges");
        assert_eq!(x.retransmissions, y.retransmissions, "epoch {e}: retransmissions");
        assert_eq!(
            x.delivered_fraction.to_bits(),
            y.delivered_fraction.to_bits(),
            "epoch {e}: delivered_fraction"
        );
        assert_eq!(x.backfilled, y.backfilled, "epoch {e}: backfilled");
        assert_eq!(x.flagged, y.flagged, "epoch {e}: flagged");
        assert_eq!(x.quarantined, y.quarantined, "epoch {e}: quarantined");
        assert_eq!(x.readmitted, y.readmitted, "epoch {e}: readmitted");
        assert_eq!(x.retry_budget, y.retry_budget, "epoch {e}: retry_budget");
        assert_eq!(x.install_undelivered, y.install_undelivered, "epoch {e}: install_undelivered");
        assert_eq!(x.deltas_shipped, y.deltas_shipped, "epoch {e}: deltas_shipped");
        assert_eq!(x.full_refresh, y.full_refresh, "epoch {e}: full_refresh");
        assert_eq!(x.messages, y.messages, "epoch {e}: messages");
        match (&x.metrics, &y.metrics) {
            (Some(m), Some(n)) => assert_eq!(
                scrub_wall_clock(m).to_json(),
                scrub_wall_clock(n).to_json(),
                "epoch {e}: metrics"
            ),
            (None, None) => {}
            _ => panic!("epoch {e}: metrics presence differs"),
        }
    }
}

/// A planner that always fails, for driving fallback chains in tests: the
/// error it returns is deterministic, so its stringified form is safe to
/// pin in golden traces.
pub struct FailingPlanner;

impl Planner for FailingPlanner {
    fn name(&self) -> &'static str {
        "FAILING"
    }

    fn plan(&self, _ctx: &PlanContext<'_>) -> Result<Plan, PlanError> {
        Err(PlanError::BudgetTooSmall { required_mj: 1.0, budget_mj: 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_is_deterministic() {
        let a = network(30, 5);
        let b = network(30, 5);
        assert_eq!(a.topology.len(), 30);
        for i in 0..30 {
            let n = NodeId::from_index(i);
            assert_eq!(a.topology.parent(n), b.topology.parent(n));
        }
    }

    #[test]
    fn failing_planner_always_fails() {
        use prospector_data::SampleSet;
        use prospector_net::{topology, EnergyModel};
        let t = topology::star(4);
        let em = EnergyModel::mica2();
        let mut s = SampleSet::new(4, 2, 4);
        s.push(vec![0.0, 1.0, 2.0, 3.0]);
        let ctx = PlanContext::new(&t, &em, &s, 10.0);
        assert!(FailingPlanner.plan(&ctx).is_err());
    }
}
