//! Long-horizon behavior under drift: the experiment runner's re-sampling
//! and re-planning (Section 4.4) must keep accuracy up when the joint
//! distribution moves, and the adaptive loop must spend energy where the
//! data demands it.

use prospector::core::{ProspectorGreedy, ProspectorLpNoLf};
use prospector::data::{RandomWalk, SamplePolicy};
use prospector::net::{ArqPolicy, EnergyModel, FaultSchedule, NetworkBuilder, Phase};
use prospector::obs::NullTracer;
use prospector::sim::{run_adaptive, AdaptiveConfig, ExperimentConfig, ExperimentRunner};

fn network(n: usize, seed: u64) -> prospector::net::Network {
    let side = 40.0 * (n as f64).sqrt();
    NetworkBuilder::new(n, side, side, 70.0).seed(seed).build().unwrap()
}

fn avg_query_accuracy(reports: &[prospector::sim::EpochReport], from: usize) -> f64 {
    let q: Vec<f64> = reports[from..].iter().filter(|r| !r.sampled).map(|r| r.accuracy).collect();
    q.iter().sum::<f64>() / q.len() as f64
}

#[test]
fn replanning_tracks_drift() {
    let net = network(30, 21);
    let em = EnergyModel::mica2();
    let planner = ProspectorLpNoLf;

    let mk_config = |replan_every: u64, period: u64| ExperimentConfig {
        k: 5,
        window: 4,
        policy: SamplePolicy::Periodic { warmup: 8, period },
        budget_mj: 15.0,
        replan_every,
        replan_threshold: 0.0,
        failures: None,
        faults: FaultSchedule::new(),
        install_retries: 2,
        arq: ArqPolicy::default(),
        min_delivered: 0.0,
        max_retry_budget: 8,
        gate: None,
        continuous: None,
        seed: 3,
    };

    // Pure diffusion with a wide start: within a 6-epoch window values
    // barely move (predictable for fresh samples), but over the full run
    // the leader set wanders away from anything planned at warmup.
    let drift = || RandomWalk::new(30, 50.0, 8.0, 1.1, 0.0, 5);

    // Tracking runner: frequent sweeps + replans.
    let mut src = drift();
    let mut tracking = ExperimentRunner::new(&net.topology, &em, &planner, mk_config(4, 4));
    let tracked = tracking.run_to(&mut src, 240, &mut NullTracer).unwrap();

    // Frozen runner: samples only during warmup, never replans after.
    let mut src = drift();
    let mut frozen_cfg = mk_config(0, 10_000);
    frozen_cfg.policy = SamplePolicy::Periodic { warmup: 8, period: 10_000 };
    let mut frozen = ExperimentRunner::new(&net.topology, &em, &planner, frozen_cfg);
    let frozen_reports = frozen.run_to(&mut src, 240, &mut NullTracer).unwrap();

    let acc_tracking = avg_query_accuracy(&tracked, 120);
    let acc_frozen = avg_query_accuracy(&frozen_reports, 120);
    assert!(
        acc_tracking > acc_frozen + 0.1,
        "tracking ({acc_tracking:.2}) must beat a frozen plan ({acc_frozen:.2}) under drift"
    );
}

#[test]
fn adaptive_loop_spends_less_sampling_on_stable_data() {
    let net = network(25, 33);
    let em = EnergyModel::mica2();
    // A budget tight enough that the greedy plan is selective: with a
    // generous budget the plan covers so many nodes that even fast-drifting
    // data keeps passing audits, and the two runs become indistinguishable.
    let cfg = AdaptiveConfig { budget_mj: 12.0, ..Default::default() };

    // Stable data.
    let mut stable = RandomWalk::new(25, 50.0, 6.0, 0.05, 0.2, 7);
    let (_, stable_meter) = run_adaptive(
        &net.topology,
        &em,
        &ProspectorGreedy,
        &mut stable,
        &cfg,
        150,
        &mut NullTracer,
    )
    .unwrap();

    // Fast drift.
    let mut drift = RandomWalk::new(25, 50.0, 6.0, 4.0, 0.0, 7);
    let (_, drift_meter) =
        run_adaptive(&net.topology, &em, &ProspectorGreedy, &mut drift, &cfg, 150, &mut NullTracer)
            .unwrap();

    let s = stable_meter.phase_total(Phase::Sampling);
    let d = drift_meter.phase_total(Phase::Sampling);
    assert!(
        d > s,
        "drifting data must trigger more sampling energy (stable {s:.0} vs drift {d:.0} mJ)"
    );
}

#[test]
fn runner_energy_breakdown_is_complete() {
    let net = network(20, 44);
    let em = EnergyModel::mica2();
    let planner = ProspectorGreedy;
    let cfg = ExperimentConfig {
        k: 3,
        window: 6,
        policy: SamplePolicy::Periodic { warmup: 4, period: 10 },
        budget_mj: 12.0,
        replan_every: 8,
        replan_threshold: 0.1,
        failures: None,
        faults: FaultSchedule::new(),
        install_retries: 2,
        arq: ArqPolicy::default(),
        min_delivered: 0.0,
        max_retry_budget: 8,
        gate: None,
        continuous: None,
        seed: 1,
    };
    let mut src = RandomWalk::new(20, 10.0, 2.0, 0.5, 0.1, 2);
    let mut runner = ExperimentRunner::new(&net.topology, &em, &planner, cfg);
    let reports = runner.run_to(&mut src, 50, &mut NullTracer).unwrap();
    // Per-epoch energies sum to the meter total.
    let per_epoch: f64 = reports.iter().map(|r| r.energy_mj).sum();
    assert!((per_epoch - runner.meter().total()).abs() < 1e-6);
}
