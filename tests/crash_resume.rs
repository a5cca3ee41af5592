//! Resume-equivalence: killing an experiment at any epoch boundary and
//! resuming from a checkpoint must reproduce the uninterrupted run
//! exactly — epoch reports, energy meters and serialized traces all
//! byte-identical.
//!
//! Every kill here round-trips the checkpoint through its wire format
//! (`encode` → `decode`), and the store-level tests additionally push it
//! through a real directory with atomic writes, pruning and
//! corrupt-file fallback. The process-kill variant of the same guarantee
//! (an actual `kill -9` mid-run) lives in CI's `crash` job, driven by the
//! `trace` binary's `--kill-at` / `--resume` flags.

use prospector::ckpt::{CheckpointError, CheckpointPolicy, StoreError};
use prospector::core::FallbackPlanner;
use prospector::data::{IndependentGaussian, SamplePolicy};
use prospector::net::{EnergyModel, FaultSchedule, NodeId, Topology};
use prospector::obs::{event, NullTracer, RingTracer, TraceEvent};
use prospector::sim::{
    Checkpoint, CheckpointStore, EpochReport, ExperimentConfig, ExperimentRunner,
};
use prospector_testutil::{
    assert_meters_bit_identical, assert_reports_equivalent, golden, lossy_config, network,
};

const RING_CAP: usize = 1 << 16;

/// A directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        // Process id + tag keeps concurrently running test binaries and
        // sibling tests from sharing a directory.
        let dir =
            std::env::temp_dir().join(format!("prospector-crash-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One uninterrupted scenario run: (reports, serialized trace, runner).
fn full_run(sc: &golden::Scenario) -> (Vec<EpochReport>, String, ExperimentRunner<'_>) {
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    let reports = runner.run_to(&mut source, golden::EPOCHS, &mut tracer).expect("full run");
    assert_eq!(tracer.dropped(), 0);
    (reports, event::to_jsonl(&tracer.take()), runner)
}

/// Runs `sc` to epoch `kill_at`, "kills" the runner (drops it after
/// taking a checkpoint through the wire format), resumes, and finishes.
/// Returns the concatenated reports, the concatenated serialized trace,
/// and the resumed runner for meter inspection.
fn killed_and_resumed_run(
    sc: &golden::Scenario,
    kill_at: u64,
) -> (Vec<EpochReport>, String, ExperimentRunner<'_>) {
    let mut trace = String::new();
    let mut reports;
    let bytes;
    {
        let mut source = sc.source();
        let mut tracer = RingTracer::new(RING_CAP);
        let mut runner = sc.runner();
        reports = runner.run_to(&mut source, kill_at, &mut tracer).expect("prefix run");
        assert_eq!(tracer.dropped(), 0);
        trace.push_str(&event::to_jsonl(&tracer.take()));
        bytes = runner.checkpoint().encode();
        // The runner, its source and its tracer all drop here: nothing
        // survives the "crash" except the encoded checkpoint.
    }
    let ckpt = Checkpoint::decode(&bytes).expect("checkpoint round-trips");
    assert_eq!(ckpt.next_epoch, kill_at);
    let mut resumed = sc.resume(ckpt).expect("resume succeeds");
    assert_eq!(resumed.next_epoch(), kill_at);
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    reports.extend(resumed.run_to(&mut source, golden::EPOCHS, &mut tracer).expect("resumed run"));
    assert_eq!(tracer.dropped(), 0);
    trace.push_str(&event::to_jsonl(&tracer.take()));
    (reports, trace, resumed)
}

#[test]
fn resume_at_every_boundary_matches_uninterrupted_run() {
    for &name in golden::SCENARIOS {
        let sc = golden::scenario(name);
        let n = sc.topology.len();
        let (full_reports, full_trace, full_runner) = full_run(&sc);
        for kill_at in 1..golden::EPOCHS {
            let (reports, trace, resumed) = killed_and_resumed_run(&sc, kill_at);
            assert_eq!(
                trace, full_trace,
                "{name}: trace after kill at epoch {kill_at} differs from uninterrupted run"
            );
            assert_reports_equivalent(&full_reports, &reports);
            assert_meters_bit_identical(full_runner.meter(), resumed.meter(), n);
        }
    }
}

/// Runs `cfg` over `source` for `epochs` epochs uninterrupted, then once
/// per boundary in `1..epochs` killed there (the checkpoint round-trips
/// through its wire format) and resumed; each killed run's trace, reports
/// and meter must match the uninterrupted run's. Returns the uninterrupted
/// run's events.
fn assert_resume_at_every_boundary(
    topology: &Topology,
    cfg: &ExperimentConfig,
    source: &IndependentGaussian,
    epochs: u64,
    label: &str,
) -> Vec<TraceEvent> {
    let n = topology.len();
    let energy = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let mut full = ExperimentRunner::new(topology, &energy, &planner, cfg.clone());
    let mut full_tracer = RingTracer::new(RING_CAP);
    let full_reports =
        full.run_to(&mut source.clone(), epochs, &mut full_tracer).expect("full run");
    let full_events = full_tracer.take();
    let full_trace = event::to_jsonl(&full_events);

    for kill_at in 1..epochs {
        let mut prefix = ExperimentRunner::new(topology, &energy, &planner, cfg.clone());
        let mut tracer = RingTracer::new(RING_CAP);
        let mut reports =
            prefix.run_to(&mut source.clone(), kill_at, &mut tracer).expect("prefix run");
        let bytes = prefix.checkpoint().encode();
        drop(prefix);

        let ckpt = Checkpoint::decode(&bytes).expect("round-trip");
        let mut resumed =
            ExperimentRunner::resume(ckpt, &energy, &planner).expect("resume succeeds");
        reports
            .extend(resumed.run_to(&mut source.clone(), epochs, &mut tracer).expect("resumed run"));
        let trace = event::to_jsonl(&tracer.take());
        assert_eq!(trace, full_trace, "{label}: kill at {kill_at}");
        assert_reports_equivalent(&full_reports, &reports);
        assert_meters_bit_identical(full.meter(), resumed.meter(), n);
    }
    full_events
}

/// The same boundary sweep over seeded chaos configurations: larger
/// random networks, uniform link loss, ARQ escalation and mid-run
/// deaths. Each (nodes, loss, retries, net-seed) tuple exercises a
/// different mix of lossy collection, backfill and repair state.
#[test]
fn resume_matches_uninterrupted_run_under_chaos() {
    let configs: &[(usize, f64, u32, u64)] =
        &[(20, 0.12, 2, 5), (28, 0.25, 3, 11), (35, 0.05, 1, 23)];
    for &(n, p, retries, seed) in configs {
        let net = network(n, seed);
        let faults = FaultSchedule::new()
            .with_death(5, NodeId::from_index(n / 2))
            .with_degradation(8, NodeId::from_index(1), 0.05);
        let cfg = lossy_config(n, p, retries, faults);
        let source = IndependentGaussian::random(n, 10.0..90.0, 0.5..5.0, seed ^ 0xC0FFEE);
        let label = format!("n={n} p={p} seed={seed}");
        assert_resume_at_every_boundary(&net.topology, &cfg, &source, 12, &label);
    }
}

/// The boundary sweep under the adaptive sampling policy: its audits move
/// the sampling period, so the period and the query epochs since the last
/// sweep must cross every kill, including the ones just after an audit
/// moved the period, while loss, a death and a degradation run too.
#[test]
fn resume_matches_uninterrupted_adaptive_run() {
    let n = 24;
    let net = network(n, 31);
    let faults = FaultSchedule::new().with_death(17, NodeId::from_index(n / 2)).with_degradation(
        9,
        NodeId::from_index(1),
        0.05,
    );
    let mut cfg = lossy_config(n, 0.1, 2, faults);
    cfg.policy = SamplePolicy::Adaptive { warmup: 4, audit_every: 3, accuracy_floor: 0.9 };
    // Noisy readings and a tight budget: some audits fail the floor, so
    // the period moves both ways.
    cfg.budget_mj = 12.0;
    let source = IndependentGaussian::random(n, 40.0..60.0, 4.0..8.0, 77);
    let events = assert_resume_at_every_boundary(&net.topology, &cfg, &source, 40, "adaptive");

    // Audits moved the period both ways and sweeps followed it, so some
    // kills landed just after each kind of move.
    let periods: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Audit { period, .. } => Some(*period),
            _ => None,
        })
        .collect();
    let rose = periods.windows(2).any(|w| w[1] > w[0]);
    let fell = periods.windows(2).any(|w| w[1] < w[0]);
    assert!(rose && fell, "audited periods {periods:?}");
    let sweeps = events.iter().filter(|e| matches!(e, TraceEvent::EpochEnd { sampled: true, .. }));
    assert!(sweeps.count() > 4, "no sweep after the warm-up");
}

#[test]
fn run_checkpointed_writes_due_epochs_and_does_not_perturb_the_trace() {
    let tmp = TempDir::new("periodic");
    let sc = golden::scenario("loss_arq");
    let (_, plain_trace, _) = full_run(&sc);

    let store = CheckpointStore::open(tmp.path()).expect("open store");
    let policy = CheckpointPolicy { every_epochs: 4, keep_last: 2 };
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    runner
        .run_checkpointed(&mut source, golden::EPOCHS, &store, policy, &mut tracer)
        .expect("checkpointed run");
    // Checkpointing is pure observation: the traced run is byte-identical
    // to one that never touched disk.
    assert_eq!(event::to_jsonl(&tracer.take()), plain_trace);
    // every_epochs=4 over 16 epochs checkpoints next_epoch 4, 8, 12, 16;
    // keep_last=2 prunes down to the newest two.
    assert_eq!(store.list().expect("list"), vec![12, 16]);

    // Resuming from the newest file replays nothing (the run finished).
    let (ckpt, skipped) = store.latest_valid().expect("latest");
    assert!(skipped.is_empty());
    assert_eq!(ckpt.next_epoch, 16);
}

#[test]
fn corrupt_latest_checkpoint_falls_back_to_previous_good_one() {
    let tmp = TempDir::new("fallback");
    let sc = golden::scenario("death_repair");
    let n = sc.topology.len();
    let (full_reports, full_trace, full_runner) = full_run(&sc);

    let store = CheckpointStore::open(tmp.path()).expect("open store");
    let policy = CheckpointPolicy { every_epochs: 5, keep_last: 3 };
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    // Run to epoch 12: checkpoints exist for next_epoch 5 and 10.
    runner.run_checkpointed(&mut source, 12, &store, policy, &mut tracer).expect("prefix run");
    assert_eq!(store.list().expect("list"), vec![5, 10]);

    // Flip one payload byte in the newest checkpoint.
    let path = tmp.path().join("ckpt-0000000010.bin");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite corrupted");

    // Fallback: the corrupt epoch-10 file is skipped, epoch 5 loads.
    let (ckpt, skipped) = store.latest_valid().expect("fallback succeeds");
    assert_eq!(ckpt.next_epoch, 5);
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].0, 10);
    assert!(
        matches!(skipped[0].1, CheckpointError::ChecksumMismatch { .. }),
        "bit flip must be caught by the checksum, got {:?}",
        skipped[0].1
    );

    // Resuming from epoch 5 replays 5..12 (losing the un-checkpointed
    // work is expected; diverging from the golden run is not), then the
    // combined 0..5 + 5..16 trace still matches the uninterrupted one.
    let mut resumed = sc.resume(ckpt).expect("resume from fallback");
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let reports = resumed.run_to(&mut source, golden::EPOCHS, &mut tracer).expect("resumed run");
    assert_eq!(reports.first().map(|r| r.epoch), Some(5));

    // Rebuild the prefix trace for epochs 0..5 to check the whole stream.
    let mut prefix = sc.runner();
    let mut prefix_tracer = RingTracer::new(RING_CAP);
    let mut all_reports = prefix.run_to(&mut sc.source(), 5, &mut prefix_tracer).expect("prefix");
    let mut trace = event::to_jsonl(&prefix_tracer.take());
    trace.push_str(&event::to_jsonl(&tracer.take()));
    all_reports.extend(reports);
    assert_eq!(trace, full_trace);
    assert_reports_equivalent(&full_reports, &all_reports);
    assert_meters_bit_identical(full_runner.meter(), resumed.meter(), n);
}

#[test]
fn truncated_checkpoint_is_rejected_without_panicking() {
    let sc = golden::scenario("clean");
    let mut runner = sc.runner();
    runner.run_to(&mut sc.source(), 4, &mut NullTracer).expect("run");
    let bytes = runner.checkpoint().encode();
    // Every proper prefix must fail cleanly: header too short, declared
    // length exceeding the payload, or checksum over a partial payload.
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::decode(&bytes[..cut]).is_err(),
            "decode accepted a {cut}-byte truncation of a {}-byte checkpoint",
            bytes.len()
        );
    }
}

#[test]
fn store_with_only_corrupt_files_reports_no_valid_checkpoint() {
    let tmp = TempDir::new("all-corrupt");
    let store = CheckpointStore::open(tmp.path()).expect("open store");
    std::fs::write(tmp.path().join("ckpt-0000000003.bin"), b"garbage").expect("write garbage");
    std::fs::write(tmp.path().join("ckpt-0000000007.bin"), b"PRSPCKPT also garbage")
        .expect("write garbage");
    match store.latest_valid() {
        Err(StoreError::NoValidCheckpoint { skipped, .. }) => assert_eq!(skipped, 2),
        other => panic!("expected NoValidCheckpoint, got {other:?}"),
    }
}

#[test]
fn checkpoint_observation_consumes_no_randomness() {
    // Taking checkpoints every epoch must not change what the runner
    // computes: checkpoint() is &self and draws nothing from the RNG.
    let sc = golden::scenario("loss_arq");
    let (_, plain_trace, _) = full_run(&sc);
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    for e in 0..golden::EPOCHS {
        runner.step_traced(&mut source, e, &mut tracer).expect("step");
        let _ = runner.checkpoint().encode();
    }
    assert_eq!(event::to_jsonl(&tracer.take()), plain_trace);
}
