//! End-to-end permanent-failure recovery (Section 4.4): mid-experiment
//! node deaths must be detected, charged, repaired around and re-planned
//! through — the run completes every epoch and accuracy over the
//! survivors returns to near its pre-fault level.

use prospector::core::FallbackPlanner;
use prospector::data::IndependentGaussian;
use prospector::net::{topology, EnergyModel, FaultSchedule, NodeId, Phase};
use prospector::obs::{NullTracer, RingTracer, TraceEvent};
use prospector::serve::{QueryService, ServiceConfig};
use prospector::sim::{EpochReport, ExperimentRunner};
use prospector_testutil::{network, recovery_config as config};

fn avg_query_accuracy<'a>(reports: impl Iterator<Item = &'a EpochReport>) -> f64 {
    let q: Vec<f64> = reports.filter(|r| !r.sampled).map(|r| r.accuracy).collect();
    assert!(!q.is_empty(), "window contains query epochs");
    q.iter().sum::<f64>() / q.len() as f64
}

#[test]
fn runner_recovers_from_mid_run_deaths() {
    let net = network(30, 5);
    let t = &net.topology;
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();

    // Two non-root victims: a child of the root (an interior node whose
    // whole subtree must re-parent) and the highest-numbered other node.
    let v1 = t.children(t.root())[0];
    let v2 =
        (0..t.len()).rev().map(NodeId::from_index).find(|&n| n != t.root() && n != v1).unwrap();
    let death_epoch = 21;
    let faults = FaultSchedule::new().with_death(death_epoch, v1).with_death(death_epoch, v2);

    // A predictable source so accuracy is limited by the plan, not noise.
    let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 0.2..0.5, 13);
    let mut runner = ExperimentRunner::new(t, &em, &planner, config(faults));
    let reports =
        runner.run_to(&mut source, 60, &mut NullTracer).expect("run completes through the deaths");
    assert_eq!(reports.len(), 60, "every epoch produced a report");

    // The death epoch reports the repair and the forced re-plan.
    let death = &reports[death_epoch as usize];
    assert_eq!(death.deaths.len(), 2);
    assert!(death.deaths.contains(&v1) && death.deaths.contains(&v2));
    assert!(death.repaired);
    assert!(death.replanned, "the stale plan is replaced on the repaired tree");
    assert!(reports.iter().filter(|r| r.repaired).count() == 1);

    // Recovery machinery left its traces: dead marked, repair charged,
    // victims parked as leaves under the root.
    assert!(!runner.alive()[v1.index()] && !runner.alive()[v2.index()]);
    assert!(runner.meter().phase_total(Phase::Repair) > 0.0);
    assert_eq!(runner.topology().parent(v1), Some(t.root()));
    assert!(runner.topology().children(v1).is_empty());

    // Post-repair accuracy over the survivors recovers to within 10% of
    // the pre-fault level (a few epochs of grace while the window heals).
    let pre = avg_query_accuracy(reports[..death_epoch as usize].iter());
    let post = avg_query_accuracy(reports[death_epoch as usize + 9..].iter());
    assert!(
        post >= pre - 0.10,
        "post-repair accuracy {post:.2} fell more than 10% below pre-fault {pre:.2}"
    );
}

#[test]
fn empty_fault_schedule_is_inert() {
    // Determinism guard: with no scheduled faults and no transient-failure
    // model, the fault machinery must not perturb the run at all — not the
    // plans, not the RNG, not the energy. Varying the (unused) retry knob
    // must therefore change nothing.
    let net = network(25, 8);
    let t = &net.topology;
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();

    let run = |install_retries: u32| {
        let mut cfg = config(FaultSchedule::new());
        cfg.install_retries = install_retries;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..3.0, 4);
        let mut runner = ExperimentRunner::new(t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 50, &mut NullTracer).unwrap();
        (reports, runner.meter().total())
    };
    let (a, a_total) = run(0);
    let (b, b_total) = run(7);

    assert_eq!(a_total, b_total, "total energy must be bit-identical");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.sampled, rb.sampled);
        assert_eq!(ra.replanned, rb.replanned);
        assert_eq!(ra.accuracy, rb.accuracy);
        assert_eq!(ra.energy_mj, rb.energy_mj);
        assert!(ra.deaths.is_empty() && !ra.repaired);
    }
}

/// One death, one bill: the runner (from its fault schedule) and the
/// serving layer (from `kill_node`) lose a node through the same death
/// stage, so the same death on the same tree charges every node the same
/// repair energy, event for event: the prober's broadcast and one
/// handshake per orphan.
#[test]
fn a_death_costs_the_same_through_the_runner_and_through_serve() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let victim = t.children(t.root())[0];
    let repair_events = |events: Vec<TraceEvent>| -> Vec<TraceEvent> {
        events
            .into_iter()
            .filter(
                |e| matches!(e, TraceEvent::Energy { phase, .. } if *phase == Phase::Repair.name()),
            )
            .collect()
    };

    let planner = FallbackPlanner::standard();
    let faults = FaultSchedule::new().with_death(8, victim);
    let mut runner = ExperimentRunner::new(&t, &em, &planner, config(faults));
    let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 3);
    let mut tracer = RingTracer::new(1 << 14);
    runner.run_to(&mut source, 9, &mut tracer).expect("run through the death");
    let runner_bill = repair_events(tracer.take());

    let mut service = QueryService::new(
        t.clone(),
        em.clone(),
        Box::new(FallbackPlanner::standard()),
        ServiceConfig::default(),
    )
    .expect("config is valid");
    let mut tracer = RingTracer::new(64);
    service.kill_node(victim, &mut tracer).expect("victim is not the root");
    let serve_bill = repair_events(tracer.take());

    assert_eq!(
        runner_bill.len(),
        1 + t.children(victim).len(),
        "a probe and a handshake per orphan"
    );
    assert_eq!(runner_bill, serve_bill);
    assert_eq!(
        runner.meter().phase_total(Phase::Repair).to_bits(),
        service.meter().phase_total(Phase::Repair).to_bits()
    );
}
