//! Regression tests for `ExperimentConfig` validation: each rejection is
//! a typed `ConfigError` raised at construction, where it names the bad
//! field — not a panic three layers down in `SampleSet` or the planner.

use prospector_ckpt::{CheckpointError, Reader, Writer};
use prospector_core::{ContinuousPolicy, FallbackPlanner, GatePolicy, Plan};
use prospector_data::SamplePolicy;
use prospector_net::{topology, EnergyModel, FailureModel, FaultSchedule, NodeId};
use prospector_obs::NullTracer;
use prospector_sim::{
    Checkpoint, ConfigError, ContinuousState, Delta, ExperimentConfig, ExperimentRunner,
    ResumeError,
};
use prospector_testutil::{golden, recovery_config};

fn base() -> ExperimentConfig {
    recovery_config(FaultSchedule::new())
}

const N: usize = 13; // balanced(3, 2)

#[test]
fn the_base_config_is_valid() {
    assert_eq!(base().validate(N), Ok(()));
}

#[test]
fn zero_k_is_rejected() {
    let mut cfg = base();
    cfg.k = 0;
    assert_eq!(cfg.validate(N), Err(ConfigError::KTooSmall { k: 0 }));
}

#[test]
fn k_beyond_network_size_is_rejected() {
    let mut cfg = base();
    cfg.k = N + 1;
    assert_eq!(cfg.validate(N), Err(ConfigError::KExceedsNodes { k: N + 1, n: N }));
    // k == n is the boundary and is fine: top-n is a full dump.
    cfg.k = N;
    assert_eq!(cfg.validate(N), Ok(()));
}

#[test]
fn zero_window_is_rejected() {
    let mut cfg = base();
    cfg.window = 0;
    assert_eq!(cfg.validate(N), Err(ConfigError::ZeroWindow));
}

#[test]
fn non_finite_or_negative_budget_is_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
        let mut cfg = base();
        cfg.budget_mj = bad;
        match cfg.validate(N) {
            Err(ConfigError::BadBudget { budget_mj }) => {
                assert_eq!(budget_mj.to_bits(), bad.to_bits())
            }
            other => panic!("budget {bad}: expected BadBudget, got {other:?}"),
        }
    }
    // Zero budget is legal (the planner falls back to the cheapest plan).
    let mut cfg = base();
    cfg.budget_mj = 0.0;
    assert_eq!(cfg.validate(N), Ok(()));
}

#[test]
fn min_delivered_outside_unit_interval_is_rejected() {
    for bad in [f64::NAN, -0.01, 1.01, f64::INFINITY] {
        let mut cfg = base();
        cfg.min_delivered = bad;
        match cfg.validate(N) {
            Err(ConfigError::BadMinDelivered { min_delivered }) => {
                assert_eq!(min_delivered.to_bits(), bad.to_bits())
            }
            other => panic!("min_delivered {bad}: expected BadMinDelivered, got {other:?}"),
        }
    }
    for ok in [0.0, 1.0] {
        let mut cfg = base();
        cfg.min_delivered = ok;
        assert_eq!(cfg.validate(N), Ok(()), "min_delivered {ok} is a legal boundary");
    }
}

#[test]
fn bad_gate_policy_is_rejected_naming_the_knob() {
    let cases: [(GatePolicy, &str); 3] = [
        (GatePolicy { z: 0.0, ..GatePolicy::default() }, "z"),
        (GatePolicy { min_window: 1, ..GatePolicy::default() }, "min_window"),
        (GatePolicy { quarantine_after: 0, ..GatePolicy::default() }, "quarantine_after"),
    ];
    for (gate, knob) in cases {
        let mut cfg = base();
        cfg.gate = Some(gate);
        match cfg.validate(N) {
            Err(ConfigError::BadGate { why }) => {
                assert!(why.contains(knob), "error {why:?} does not name {knob}")
            }
            other => panic!("expected BadGate naming {knob}, got {other:?}"),
        }
    }
    // Gating disabled skips gate validation entirely.
    let mut cfg = base();
    cfg.gate = None;
    assert_eq!(cfg.validate(N), Ok(()));
}

#[test]
fn try_new_surfaces_the_error_and_new_panics() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut cfg = base();
    cfg.k = 0;
    match ExperimentRunner::try_new(&t, &em, &planner, cfg) {
        Err(ConfigError::KTooSmall { k: 0 }) => {}
        Err(e) => panic!("expected KTooSmall, got {e}"),
        Ok(_) => panic!("k = 0 was accepted"),
    }
}

/// A failure model sized for another network is refused at
/// construction; accepted, it would index past its end at the first plan.
#[test]
fn failure_model_sized_for_another_network_is_rejected() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut cfg = base();
    cfg.failures = Some(FailureModel::uniform(5, 0.1, 0.0));
    match ExperimentRunner::try_new(&t, &em, &planner, cfg) {
        Err(ConfigError::FailureModelSize { covers: 5, n: N }) => {}
        Err(e) => panic!("expected FailureModelSize, got {e}"),
        Ok(_) => panic!("a 5-node failure model was accepted for a {N}-node tree"),
    }
    let mut cfg = base();
    cfg.failures = Some(FailureModel::uniform(N, 0.1, 0.0));
    assert_eq!(cfg.validate(N), Ok(()));
}

/// A fault schedule written for a larger network is refused; accepted,
/// every fault stage would skip its nodes and the run would be fault-free
/// without a word.
#[test]
fn fault_schedule_for_a_larger_network_is_rejected() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let faults =
        FaultSchedule::new().with_death(8, NodeId(99)).with_degradation(8, NodeId(77), 0.1);
    match ExperimentRunner::try_new(&t, &em, &planner, recovery_config(faults)) {
        Err(ConfigError::FaultNodeOutOfRange { epoch: 8, node: NodeId(99), n: N }) => {}
        Err(e) => panic!("expected FaultNodeOutOfRange, got {e}"),
        Ok(_) => panic!("a schedule naming node 99 was accepted for a {N}-node tree"),
    }
    let cfg = recovery_config(FaultSchedule::new().with_degradation(8, NodeId(77), 0.1));
    assert_eq!(
        cfg.validate(N),
        Err(ConfigError::FaultNodeOutOfRange { epoch: 8, node: NodeId(77), n: N })
    );
    // The last node of the network is inside it.
    let cfg = recovery_config(FaultSchedule::new().with_death(8, NodeId(N as u32 - 1)));
    assert_eq!(cfg.validate(N), Ok(()));
}

fn adaptive(audit_every: u64, accuracy_floor: f64) -> ExperimentConfig {
    let mut cfg = base();
    cfg.policy = SamplePolicy::Adaptive { warmup: 6, audit_every, accuracy_floor };
    cfg
}

/// Asserts `cfg` is refused as a bad sampling policy naming `knob`.
fn assert_bad_policy(cfg: &ExperimentConfig, knob: &str) {
    match cfg.validate(N) {
        Err(ConfigError::BadPolicy { why }) => {
            assert!(why.contains(knob), "error {why:?} does not name {knob}")
        }
        other => panic!("expected BadPolicy naming {knob}, got {other:?}"),
    }
}

#[test]
fn adaptive_policy_without_audits_is_rejected() {
    assert_bad_policy(&adaptive(0, 0.8), "audit_every");
    assert_eq!(adaptive(1, 0.8).validate(N), Ok(()));
}

#[test]
fn adaptive_accuracy_floor_outside_unit_interval_is_rejected() {
    for bad in [f64::NAN, 1.5, -0.1] {
        assert_bad_policy(&adaptive(16, bad), "accuracy_floor");
    }
    for ok in [0.0, 1.0] {
        assert_eq!(adaptive(16, ok).validate(N), Ok(()), "floor {ok} is a legal boundary");
    }
}

/// A `Random` exploration probability that is NaN or outside [0, 1]
/// would turn exploration silently off or on every epoch.
#[test]
fn random_policy_prob_outside_unit_interval_is_rejected() {
    let random = |prob| ExperimentConfig {
        policy: SamplePolicy::Random { warmup: 6, prob, seed: 3 },
        ..base()
    };
    for bad in [f64::NAN, -0.5, 7.0] {
        assert_bad_policy(&random(bad), "prob");
    }
    for ok in [0.0, 1.0] {
        assert_eq!(random(ok).validate(N), Ok(()), "prob {ok} is a legal boundary");
    }
}

const CONTINUOUS: ContinuousPolicy =
    ContinuousPolicy { tolerance: 0.5, refresh_period: 6, sketch: None };

/// Audits score planned collections, and a continuous run plans none.
#[test]
fn adaptive_policy_cannot_drive_a_continuous_run() {
    let mut cfg = adaptive(16, 0.8);
    cfg.continuous = Some(CONTINUOUS);
    assert_bad_policy(&cfg, "continuous");
    let mut cfg = base();
    cfg.continuous = Some(CONTINUOUS);
    assert_eq!(cfg.validate(N), Ok(()), "other policies still drive continuous runs");
}

#[test]
#[should_panic(expected = "invalid experiment config")]
fn new_panics_on_an_invalid_config() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut cfg = base();
    cfg.window = 0;
    let _ = ExperimentRunner::new(&t, &em, &planner, cfg);
}

/// Resume validates the checkpointed config the same way, and on top of
/// that rejects internally inconsistent images.
#[test]
fn resume_rejects_invalid_and_inconsistent_checkpoints() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut runner = ExperimentRunner::new(&t, &em, &planner, base());
    let mut source =
        prospector_data::IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 13);
    runner.run_to(&mut source, 3, &mut NullTracer).expect("run");
    let good = runner.checkpoint();

    // A checkpoint whose config went bad fails config validation.
    let mut bad = good.clone();
    bad.config.window = 0;
    // (The sample set still has the old capacity; config error wins.)
    match ExperimentRunner::resume(bad, &em, &planner) {
        Err(ResumeError::Config(ConfigError::ZeroWindow)) => {}
        Err(e) => panic!("expected Config(ZeroWindow), got {e}"),
        Ok(_) => panic!("zero-window checkpoint was accepted"),
    }

    // A checkpoint whose pieces disagree is rejected as inconsistent.
    let mut bad = good.clone();
    bad.alive.pop();
    match ExperimentRunner::resume(bad, &em, &planner) {
        Err(ResumeError::Inconsistent(why)) => {
            assert!(why.contains("alive"), "unhelpful message: {why}")
        }
        Err(e) => panic!("expected Inconsistent, got {e}"),
        Ok(_) => panic!("truncated alive mask was accepted"),
    }

    // Resume inherits the fault-schedule check.
    let mut bad = good.clone();
    bad.config.faults = FaultSchedule::new().with_death(8, NodeId(99));
    match ExperimentRunner::resume(bad, &em, &planner) {
        Err(ResumeError::Config(ConfigError::FaultNodeOutOfRange { node: NodeId(99), .. })) => {}
        Err(e) => panic!("expected Config(FaultNodeOutOfRange), got {e}"),
        Ok(_) => panic!("a schedule naming node 99 was resumed"),
    }

    // A sampling period outside the audits' bounds is inconsistent.
    let mut bad = good.clone();
    bad.sweep_period = 0;
    match ExperimentRunner::resume(bad, &em, &planner) {
        Err(ResumeError::Inconsistent(why)) => {
            assert!(why.contains("sampling period"), "unhelpful message: {why}")
        }
        Err(e) => panic!("expected Inconsistent, got {e}"),
        Ok(_) => panic!("a zero sampling period was accepted"),
    }

    // A trust vector that does not cover the topology is inconsistent.
    let mut bad = good.clone();
    bad.trust.pop();
    match ExperimentRunner::resume(bad, &em, &planner) {
        Err(ResumeError::Inconsistent(why)) => {
            assert!(why.contains("trust"), "unhelpful message: {why}")
        }
        Err(e) => panic!("expected Inconsistent, got {e}"),
        Ok(_) => panic!("truncated trust vector was accepted"),
    }

    // A plan sized for another network is inconsistent, and encoding it
    // walks the plan's own bandwidths instead of indexing past them.
    let mut bad = good.clone();
    bad.plan = Some(Plan::from_bandwidths(vec![1; 5], false));
    assert_rejected(bad, &em, &planner, "plan covers 5 nodes");

    // The untampered image still resumes.
    assert!(ExperimentRunner::resume(good, &em, &planner).is_ok());

    // The continuous protocol's per-node vectors and node ids are checked
    // too, against a continuous run's image.
    let sc = golden::scenario("continuous_drift");
    let mut runner =
        ExperimentRunner::new(&sc.topology, &sc.energy, &sc.planner, sc.config.clone());
    runner.run_to(&mut sc.source(), 4, &mut NullTracer).expect("continuous run");
    let good = runner.checkpoint();
    let cont = good.cont.as_ref().expect("continuous state");

    let mut bad = good.clone();
    bad.cont = Some(rewalk(cont, |vectors, _| {
        vectors[1].pop(); // last_shipped
        vectors[2].pop(); // eff
    }));
    assert_rejected(bad, &em, &planner, "last_shipped covers 12 nodes");

    let mut bad = good.clone();
    bad.cont = Some(rewalk(cont, |_, custody| {
        custody[1].push(Delta { origin: NodeId(99), epoch: 3, value: 50.0 });
    }));
    assert_rejected(bad, &em, &planner, "names node 99");

    assert!(ExperimentRunner::resume(good, &sc.energy, &sc.planner).is_ok());
}

/// Custody the transport cannot leave behind is rejected by decode and
/// by resume, one hand-built image per rule, on `continuous_drift` at
/// epoch 4 (`balanced(3, 2)`: the root 0 over 1–3, node 1 over 4–6).
#[test]
fn resume_rejects_custody_the_protocol_cannot_produce() {
    let sc = golden::scenario("continuous_drift");
    let mut runner =
        ExperimentRunner::new(&sc.topology, &sc.energy, &sc.planner, sc.config.clone());
    runner.run_to(&mut sc.source(), 4, &mut NullTracer).expect("continuous run");
    let good = runner.checkpoint();
    assert_eq!(good.next_epoch, 4);
    let cont = good.cont.as_ref().expect("continuous state");
    let delta = |origin: u32, epoch: u64| Delta { origin: NodeId(origin), epoch, value: 60.0 };
    // An image whose custody is `held` (holder, entry), with `dead` nodes
    // marked dead.
    let image = |held: &[(usize, Delta)], dead: &[usize]| {
        let mut bad = good.clone();
        for &d in dead {
            bad.alive[d] = false;
        }
        bad.cont = Some(rewalk(cont, |_, custody| {
            for &(holder, d) in held {
                custody[holder].push(d);
            }
        }));
        bad
    };
    // (custody as (holder, entry), dead nodes, what the rejection names)
    type Case<'a> = (&'a [(usize, Delta)], &'a [usize], &'a str);
    let cases: [Case; 7] = [
        (&[(0, delta(4, 2))], &[], "the root holds custody for node 4"),
        (&[(1, delta(4, 2))], &[1], "dead node 1 holds custody for node 4"),
        (&[(1, delta(4, 2))], &[4], "node 1 holds custody for dead node 4"),
        (&[(2, delta(4, 2))], &[], "node 2 holds custody for node 4, not on its path"),
        (&[(1, delta(4, 1)), (1, delta(4, 2))], &[], "two custody entries for node 4"),
        (&[(4, delta(4, 2)), (1, delta(4, 2))], &[], "(epoch 2) is not newer than at depth 1"),
        (&[(1, delta(4, 4))], &[], "from epoch 4, the next epoch is 4"),
    ];
    for (held, dead, why) in cases {
        assert_rejected(image(held, dead), &sc.energy, &sc.planner, why);
    }
    // What the transport does leave: an entry at its own origin below an
    // older copy of it, and one held on the way up.
    let fine = image(&[(4, delta(4, 3)), (1, delta(4, 1)), (1, delta(5, 2))], &[]);
    assert!(Checkpoint::decode(&fine.encode()).is_ok());
    assert!(ExperimentRunner::resume(fine, &sc.energy, &sc.planner).is_ok());
}

/// `state` rebuilt through its own checkpoint walk after `edit` changed
/// its view, last-shipped and effective vectors (in that order) or its
/// custody: protocol state the protocol itself never produces.
fn rewalk(
    state: &ContinuousState,
    edit: impl FnOnce(&mut [Vec<f64>; 3], &mut Vec<Vec<Delta>>),
) -> ContinuousState {
    let mut vectors = [state.view().to_vec(), state.last_shipped().to_vec(), state.eff().to_vec()];
    let mut custody = state.custody().to_vec();
    edit(&mut vectors, &mut custody);
    let mut w = Writer::new();
    vectors.iter().for_each(|v| w.put(v));
    w.put(&state.threshold());
    w.put(&state.last_refresh());
    w.put(&state.force_refresh());
    w.put(&custody);
    w.put_slice(state.sketches());
    Reader::new(&w.into_bytes()).get().expect("the rewalked state parses")
}

/// `bad` is rejected as inconsistent, naming `why`, both by resume and
/// by decode, which runs the same check; encoding it does not panic.
fn assert_rejected(bad: Checkpoint, em: &EnergyModel, planner: &FallbackPlanner, why: &str) {
    match Checkpoint::decode(&bad.encode()) {
        Err(CheckpointError::Invalid(e)) => assert!(e.contains(why), "decode: {e}"),
        Err(e) => panic!("decode: expected Invalid naming {why:?}, got {e}"),
        Ok(_) => panic!("decode accepted an image whose {why}"),
    }
    match ExperimentRunner::resume(bad, em, planner) {
        Err(ResumeError::Inconsistent(e)) => assert!(e.contains(why), "resume: {e}"),
        Err(e) => panic!("resume: expected Inconsistent naming {why:?}, got {e}"),
        Ok(_) => panic!("resume accepted an image whose {why}"),
    }
}
