//! Continuous-mode trace determinism across evaluation-pool widths: the
//! delta protocol, full refreshes, sketch builds and threshold
//! broadcasts never consult the evaluation pool, and the sweeps that do
//! (planning) reduce deterministically — so the *entire serialized
//! trace* of a continuous run must be byte-identical at 1, 2 and 8
//! threads, over seeded random topologies, drift rates and loss rates.
//!
//! This file holds exactly one test: it mutates `PROSPECTOR_THREADS`,
//! which is process-global, and must not race sibling tests. (The golden
//! `continuous_drift` scenario gets the same check via
//! `tests/trace_threads.rs`, which loops every scenario.)

use prospector::core::{ContinuousPolicy, FallbackPlanner, GatePolicy, SketchPrecision};
use prospector::data::{DriftField, SamplePolicy};
use prospector::net::{
    ArqPolicy, Backoff, EnergyModel, FailureModel, FaultSchedule, NodeId, Topology,
};
use prospector::obs::{event, RingTracer};
use prospector::par::THREADS_ENV;
use prospector::sim::{ExperimentConfig, ExperimentRunner};

const EPOCHS: u64 = 14;
const RING_CAP: usize = 1 << 16;

/// Seeded random tree: node i's parent is a seeded pick among 0..i.
fn seeded_topology(n: usize, seed: u64) -> Topology {
    let mut parent = vec![None];
    for i in 1..n as u64 {
        let h =
            seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i.wrapping_mul(0xD1B54A32D192ED03));
        parent.push(Some(NodeId((h % i) as u32)));
    }
    Topology::from_parents(NodeId(0), parent).expect("seeded parents form a tree")
}

fn cont_config(n: usize, loss: Option<f64>, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        k: 3.min(n),
        window: 8,
        policy: SamplePolicy::Periodic { warmup: 2, period: 7 },
        budget_mj: 25.0,
        replan_every: 6,
        replan_threshold: 0.1,
        failures: loss.map(|p| FailureModel::uniform(n, p, 0.0)),
        faults: FaultSchedule::new().with_death(6, NodeId(n as u32 - 1)),
        install_retries: 2,
        arq: ArqPolicy { max_retries: 2, backoff: Backoff::mica2() },
        min_delivered: if loss.is_some() { 0.8 } else { 0.0 },
        max_retry_budget: 5,
        gate: Some(GatePolicy::default()),
        continuous: Some(ContinuousPolicy {
            tolerance: 0.25,
            refresh_period: 5,
            sketch: Some(SketchPrecision { depth: 8, compression: 8, lo: 0.0, hi: 100.0 }),
        }),
        seed,
    }
}

/// (drift rate, loss rate, seed) mix covering quiet, drifting and lossy
/// continuous runs.
const CASES: &[(f64, Option<f64>, u64)] =
    &[(0.0, None, 11), (0.05, None, 23), (0.3, Some(0.1), 37), (1.0, Some(0.25), 51)];

fn trace_case(n: usize, change_prob: f64, loss: Option<f64>, seed: u64) -> String {
    let topo = seeded_topology(n, seed);
    let energy = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut runner = ExperimentRunner::new(&topo, &energy, &planner, cont_config(n, loss, seed));
    let mut source = DriftField::random(n, 40.0..60.0, 1.0..4.0, change_prob, seed);
    let mut tracer = RingTracer::new(RING_CAP);
    runner.run_to(&mut source, EPOCHS, &mut tracer).expect("continuous run");
    assert_eq!(tracer.dropped(), 0, "ring capacity must cover the run");
    event::to_jsonl(&tracer.take())
}

#[test]
fn continuous_traces_are_byte_identical_across_thread_counts() {
    let traces_with = |threads: &str| -> Vec<String> {
        // Unsafe on paper (env mutation is not thread-safe); sound here
        // because this binary runs no other test.
        std::env::set_var(THREADS_ENV, threads);
        CASES.iter().map(|&(c, l, s)| trace_case(18, c, l, s)).collect()
    };
    let serial = traces_with("1");
    let two = traces_with("2");
    let eight = traces_with("8");
    std::env::remove_var(THREADS_ENV);
    for (i, ((a, b), c)) in serial.iter().zip(&two).zip(&eight).enumerate() {
        assert!(!a.is_empty(), "case {i}: empty trace");
        assert_eq!(a, b, "case {i}: trace differs between 1 and 2 threads");
        assert_eq!(a, c, "case {i}: trace differs between 1 and 8 threads");
    }
}
