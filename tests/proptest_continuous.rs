//! Differential equivalence harness for the continuous-query protocol
//! (DESIGN.md §16): the delta protocol is an *optimization*, so on every
//! random topology × drift rate × loss rate × fault schedule it must be
//! observably indistinguishable from the from-scratch reference —
//! answers, accuracy bits, custody accounting and resume behaviour.
//!
//! Three properties:
//! * **Delta ≡ refresh-every-epoch.** With tolerance 0 and loss-free
//!   links, a run with a long refresh period and one with
//!   `refresh_period: 1` (the classic protocol, re-collect everything
//!   every epoch) report bit-identical accuracy and end in bit-identical
//!   views, thresholds and answers.
//! * **Patch ≡ recompute under chaos.** With loss, ARQ, deaths, data
//!   faults and nonzero tolerance all active, the incrementally patched
//!   answer equals a full re-sort of the cached view at every epoch
//!   boundary, and the custody invariant holds: a lost delta is never
//!   misread as "no change" — the root's belief either matches what the
//!   node last shipped bit-for-bit, or the undelivered delta is held in
//!   custody somewhere along the path.
//! * **Kill/resume ≡ uninterrupted.** Killing a continuous run at any
//!   epoch boundary and resuming through the checkpoint wire format
//!   reproduces reports, meters and the final encoded checkpoint
//!   byte-for-byte.
//!
//! The thread-width leg of the contract (byte-identical traces at 1, 2
//! and 8 evaluation threads) lives in `tests/continuous_threads.rs`,
//! which must be a single-test binary because it mutates process-global
//! environment.

use proptest::prelude::*;
use prospector::core::{ContinuousPolicy, FallbackPlanner, GatePolicy, SketchPrecision};
use prospector::data::{DriftField, SamplePolicy};
use prospector::net::{
    ArqPolicy, Backoff, DataFault, EnergyModel, FailureModel, FaultSchedule, NodeId, Topology,
};
use prospector::obs::NullTracer;
use prospector::sim::Checkpoint;
use prospector::sim::{ExperimentConfig, ExperimentRunner};
use prospector_testutil::{assert_meters_bit_identical, assert_reports_equivalent};

const EPOCHS: u64 = 14;

/// Random tree over n nodes: each node's parent is a random earlier node.
fn arb_topology(max_n: usize) -> impl Strategy<Value = Topology> {
    (3..=max_n)
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

/// A continuous-mode experiment config over `n` nodes. `refresh_period`
/// and `tolerance` are the knobs under test; everything else is the
/// lossy-chaos shape the classic suites use.
fn cont_config(
    n: usize,
    tolerance: f64,
    refresh_period: u64,
    loss: Option<f64>,
    faults: FaultSchedule,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        k: 3.min(n),
        window: 8,
        policy: SamplePolicy::Periodic { warmup: 2, period: 7 },
        budget_mj: 25.0,
        replan_every: 6,
        replan_threshold: 0.1,
        failures: loss.map(|p| FailureModel::uniform(n, p, 0.0)),
        faults,
        install_retries: 2,
        arq: ArqPolicy { max_retries: 2, backoff: Backoff::mica2() },
        min_delivered: if loss.is_some() { 0.8 } else { 0.0 },
        max_retry_budget: 5,
        gate: Some(GatePolicy::default()),
        continuous: Some(ContinuousPolicy {
            tolerance,
            refresh_period,
            sketch: Some(SketchPrecision { depth: 8, compression: 8, lo: 0.0, hi: 100.0 }),
        }),
        seed,
    }
}

fn drift(n: usize, change_prob: f64, seed: u64) -> DriftField {
    DriftField::random(n, 40.0..60.0, 1.0..4.0, change_prob, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Delta ≡ from-scratch: with tolerance 0 every changed bit ships,
    // so a delta run and a refresh-every-epoch run see the same view at
    // every epoch — accuracy bit-identical throughout, final state
    // bit-identical everywhere (including the trust evolution driven by
    // the full-view gate audit).
    #[test]
    fn delta_protocol_matches_refresh_every_epoch(
        topo in arb_topology(20),
        change_prob in 0.0..1.0f64,
        seed in 0u64..500,
    ) {
        let n = topo.len();
        let energy = EnergyModel::mica2();
        let planner = FallbackPlanner::standard();

        let run = |period: u64| {
            let config = cont_config(n, 0.0, period, None, FaultSchedule::new(), seed);
            let mut runner = ExperimentRunner::new(&topo, &energy, &planner, config);
            let mut source = drift(n, change_prob, seed);
            let reports = runner.run_to(&mut source, EPOCHS, &mut NullTracer).expect("clean run");
            (reports, runner)
        };
        let (delta_reports, delta_runner) = run(1_000_000);
        let (full_reports, full_runner) = run(1);

        for (d, f) in delta_reports.iter().zip(&full_reports) {
            prop_assert_eq!(d.accuracy.to_bits(), f.accuracy.to_bits(), "epoch {}", d.epoch);
            prop_assert_eq!(d.deaths.clone(), f.deaths.clone(), "epoch {}", d.epoch);
            prop_assert_eq!(d.flagged, f.flagged, "epoch {}", d.epoch);
            prop_assert_eq!(d.quarantined, f.quarantined, "epoch {}", d.epoch);
        }
        let ds = delta_runner.continuous_state().expect("continuous mode");
        let fs = full_runner.continuous_state().expect("continuous mode");
        for i in 0..n {
            prop_assert_eq!(ds.view()[i].to_bits(), fs.view()[i].to_bits(), "view[{i}]");
            prop_assert_eq!(ds.eff()[i].to_bits(), fs.eff()[i].to_bits(), "eff[{i}]");
        }
        prop_assert_eq!(ds.threshold().to_bits(), fs.threshold().to_bits());
        let k = 3.min(n);
        let (da, fa) = (ds.answer(k), fs.answer(k));
        prop_assert_eq!(da.len(), fa.len());
        for (x, y) in da.iter().zip(&fa) {
            prop_assert_eq!(x.node, y.node);
            prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    // Patch ≡ recompute + custody invariant, under the full chaos mix:
    // loss + ARQ + a mid-run death + a stuck-at data fault + nonzero
    // tolerance. At every epoch boundary the incrementally maintained
    // answer must equal a from-scratch sort of the cached view, and a
    // silent node must be either bit-exact (its last shipped value) or
    // covered by a custody entry — never silently wrong.
    #[test]
    fn patched_answer_and_custody_survive_chaos(
        topo in arb_topology(16),
        loss in 0.0..0.35f64,
        change_prob in 0.0..1.0f64,
        seed in 0u64..500,
        victim_pick in 0u32..100,
        death_epoch in 2u64..10,
    ) {
        let n = topo.len();
        let victim = NodeId(1 + victim_pick % (n as u32 - 1));
        let stuck = NodeId(1 + (victim_pick + 1) % (n as u32 - 1));
        let faults = FaultSchedule::new()
            .with_death(death_epoch, victim)
            .with_data_fault(3, stuck, DataFault::StuckAt { level: 500.0 }, 4);
        let config = cont_config(n, 0.25, 5, Some(loss), faults, seed);
        let k = config.k;
        let energy = EnergyModel::mica2();
        let planner = FallbackPlanner::standard();
        let mut runner = ExperimentRunner::new(&topo, &energy, &planner, config);
        let mut source = drift(n, change_prob, seed);

        for epoch in 0..EPOCHS {
            runner.step(&mut source, epoch).expect("chaos epoch");
            let state = runner.continuous_state().expect("continuous mode");
            let (patched, full) = (state.answer(k), state.recompute_answer(k));
            prop_assert_eq!(patched.len(), full.len(), "epoch {epoch}");
            for (x, y) in patched.iter().zip(&full) {
                prop_assert_eq!(x.node, y.node, "epoch {epoch}");
                prop_assert_eq!(x.value.to_bits(), y.value.to_bits(), "epoch {epoch}");
            }
            prop_assert!(
                state.custody_invariant_holds(runner.alive(), topo.root()),
                "epoch {epoch}: a lost delta was dropped without custody"
            );
        }
    }

    // Kill/resume ≡ uninterrupted, through the v3 wire format, with the
    // same chaos mix active: reports, meters and the final encoded
    // checkpoint must be byte-identical.
    #[test]
    fn kill_and_resume_reproduces_the_run(
        topo in arb_topology(16),
        loss in 0.0..0.3f64,
        change_prob in 0.0..1.0f64,
        seed in 0u64..500,
        kill_at in 1u64..EPOCHS,
    ) {
        let n = topo.len();
        let victim = NodeId(n as u32 - 1);
        let faults = FaultSchedule::new().with_death(6, victim);
        let config = cont_config(n, 0.25, 4, Some(loss), faults, seed);
        let energy = EnergyModel::mica2();
        let planner = FallbackPlanner::standard();

        let mut base = ExperimentRunner::new(&topo, &energy, &planner, config.clone());
        let mut source = drift(n, change_prob, seed);
        let base_reports = base.run_to(&mut source, EPOCHS, &mut NullTracer).expect("uninterrupted run");

        let bytes = {
            let mut prefix = ExperimentRunner::new(&topo, &energy, &planner, config);
            let mut source = drift(n, change_prob, seed);
            let mut reports = prefix.run_to(&mut source, kill_at, &mut NullTracer).expect("prefix run");
            let bytes = prefix.checkpoint().encode();
            // Nothing survives the "crash" except the encoded checkpoint.
            drop(prefix);
            let ckpt = Checkpoint::decode(&bytes).expect("checkpoint round-trips");
            prop_assert_eq!(ckpt.next_epoch, kill_at);
            let mut resumed = ExperimentRunner::resume(ckpt, &energy, &planner)
                .expect("resume succeeds");
            let mut source = drift(n, change_prob, seed);
            reports.extend(resumed.run_to(&mut source, EPOCHS, &mut NullTracer).expect("resumed run"));
            assert_reports_equivalent(&base_reports, &reports);
            assert_meters_bit_identical(base.meter(), resumed.meter(), n);
            resumed.checkpoint().encode()
        };
        prop_assert_eq!(base.checkpoint().encode(), bytes, "final checkpoints diverge");
    }
}
