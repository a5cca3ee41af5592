//! Transient-failure metering (Section 4.4): with `FailureModel::uniform
//! (n, p, c)`, every used edge's collection unicast fails independently
//! with probability p and charges a reroute penalty of c mJ. Over many
//! executions the metered reroute energy must converge to
//! `p × c × messages_sent`, independent of the RNG seed.

use prospector_core::Plan;
use prospector_net::{topology, EnergyModel, FailureModel, Phase};
use prospector_obs::NullTracer;
use prospector_sim::execute_plan;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn reroute_energy_converges_to_p_times_c_times_messages() {
    let t = topology::balanced(3, 3); // 40 nodes, 39 edges
    let em = EnergyModel::mica2();
    let k = 3;
    let plan = Plan::naive_k(&t, k); // uses every edge
    let messages = t.edges().filter(|&e| plan.is_used(e)).count() as f64;
    assert_eq!(messages, (t.len() - 1) as f64);
    let values: Vec<f64> = (0..t.len()).map(|i| i as f64).collect();

    for &(p, c) in &[(0.1, 2.0), (0.3, 3.5)] {
        let fm = FailureModel::uniform(t.len(), p, c);
        let expected = p * c * messages;
        for seed in [1u64, 17, 4242] {
            let mut rng = StdRng::seed_from_u64(seed);
            let runs = 400;
            let total: f64 = (0..runs)
                .map(|_| {
                    execute_plan(&plan, &t, &em, &values, k, Some((&fm, &mut rng)))
                        .meter
                        .phase_total(Phase::Rerouting)
                })
                .sum();
            let avg = total / runs as f64;
            assert!(
                (avg - expected).abs() < 0.15 * expected,
                "seed {seed}, p={p}, c={c}: avg reroute {avg:.2} mJ vs expected {expected:.2} mJ"
            );
        }
    }
}

#[test]
fn no_failures_means_no_reroute_energy() {
    let t = topology::balanced(3, 3);
    let em = EnergyModel::mica2();
    let plan = Plan::naive_k(&t, 3);
    let values: Vec<f64> = (0..t.len()).map(|i| i as f64).collect();
    let fm = FailureModel::uniform(t.len(), 0.0, 5.0);
    let mut rng = StdRng::seed_from_u64(8);
    let r = execute_plan(&plan, &t, &em, &values, 3, Some((&fm, &mut rng)));
    assert_eq!(r.meter.phase_total(Phase::Rerouting), 0.0);
}

/// A link degradation that fires mid-run must raise the *sampled* loss
/// rate for both directions in the very epoch it lands: the plan
/// installed that epoch runs lossy dissemination (undelivered subplans)
/// and the same epoch's collection runs the per-hop ARQ (lost edges,
/// retransmissions). Before the degradation the model is trivial and
/// both directions are loss-free.
#[test]
fn degradation_hits_dissemination_and_collection_in_the_same_epoch() {
    use prospector_core::ProspectorGreedy;
    use prospector_data::{IndependentGaussian, SamplePolicy};
    use prospector_net::{ArqPolicy, Backoff, FaultSchedule};
    use prospector_sim::{ExperimentConfig, ExperimentRunner};

    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = ProspectorGreedy;
    // Every edge becomes certainly lossy at epoch 10, on top of a
    // zero-loss base model (trivial until then).
    let degrade_at = 10u64;
    let mut faults = FaultSchedule::new();
    for e in t.edges() {
        faults = faults.with_degradation(degrade_at, e, 1.0);
    }
    let config = ExperimentConfig {
        k: 3,
        window: 10,
        policy: SamplePolicy::Periodic { warmup: 5, period: 100 },
        budget_mj: 30.0,
        // Install a fresh plan every query epoch, unconditionally, so the
        // degradation epoch is guaranteed to exercise dissemination.
        replan_every: 1,
        replan_threshold: -10.0,
        failures: Some(FailureModel::uniform(t.len(), 0.0, 0.0)),
        faults,
        install_retries: 2,
        arq: ArqPolicy { max_retries: 2, backoff: Backoff::none() },
        min_delivered: 0.0,
        max_retry_budget: 8,
        gate: None,
        continuous: None,
        seed: 23,
    };
    let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 23);
    let mut runner = ExperimentRunner::new(&t, &em, &planner, config);
    let reports = runner.run_to(&mut source, 12, &mut NullTracer).unwrap();

    // Pre-degradation query epochs are fully reliable in both directions.
    for r in reports.iter().filter(|r| !r.sampled && r.epoch < degrade_at) {
        assert!(r.replanned, "epoch {}: threshold forces an install", r.epoch);
        assert_eq!(r.install_undelivered, 0, "epoch {}", r.epoch);
        assert_eq!(r.lost_edges, 0, "epoch {}", r.epoch);
        assert_eq!(r.retransmissions, 0, "epoch {}", r.epoch);
        assert_eq!(r.delivered_fraction, 1.0, "epoch {}", r.epoch);
    }

    // The degradation epoch itself samples the raised loss rate on both
    // the downward subplan unicasts and the upward collection batches.
    let hit = reports.iter().find(|r| r.epoch == degrade_at).unwrap();
    assert!(hit.replanned, "the degradation epoch still installs");
    assert!(hit.install_undelivered > 0, "dissemination saw the new loss rate: {hit:?}");
    assert!(hit.lost_edges > 0, "collection saw the new loss rate: {hit:?}");
    assert!(hit.retransmissions > 0, "ARQ retried before giving up: {hit:?}");
    assert_eq!(hit.delivered_fraction, 0.0, "certain loss silences every subtree");
}
