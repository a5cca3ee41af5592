//! Checkpoint wire fixtures: bytes an earlier build wrote must keep
//! decoding, re-encoding and resuming exactly.
//!
//! `proptest_checkpoint` proves that this build's encoder and decoder
//! agree with each other, which a field order changed on both sides
//! still satisfies. These fixtures pin the bytes themselves. Each is the
//! checkpoint of a seeded runner with metrics off (so no wall-clock value
//! reaches the bytes), committed under `tests/golden/ckpt/`:
//!
//! 1. the runners encode to the committed files byte for byte;
//! 2. every committed file decodes and re-encodes to itself;
//! 3. each golden-scenario fixture, resumed, finishes its golden trace.
//!
//! Together the fixtures carry every `SamplePolicy` tag, every fault
//! event and data-fault kind, and both arms of every optional section.
//! One fixture has metrics on and is checked by decode→encode only: its
//! `plan_latency_ms` histogram is wall clock.
//!
//! Regenerate with `BLESS=1 cargo test --test checkpoint_fixtures
//! seeded_runners` (alone: the other tests read the files it writes) and
//! review the diff like a wire-format change: a changed fixture means
//! checkpoints written before it no longer load.

use prospector::ckpt::{fnv1a64, CheckpointError, DecodeError, HEADER_LEN};
use prospector::core::{ContinuousPolicy, FallbackPlanner, SketchPrecision};
use prospector::data::SamplePolicy;
use prospector::net::{topology, DataFault, EnergyModel, FaultEvent, FaultSchedule, NodeId};
use prospector::obs::{event, NullTracer, RingTracer};
use prospector::sim::Checkpoint;
use prospector::sim::ExperimentRunner;
use prospector_testutil::{golden, lossy_config, recovery_config};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The epoch boundary the golden-scenario fixtures are taken at.
const KILL_AT: u64 = 9;

/// One committed checkpoint: a scenario run to `epoch`.
struct Fixture {
    scenario: golden::Scenario,
    epoch: u64,
    /// Metrics on: the bytes carry wall clock, so only decode→encode is
    /// checked.
    metrics: bool,
}

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ckpt").join(format!("{name}.bin"))
}

fn extra(name: &'static str, config: prospector::sim::ExperimentConfig) -> golden::Scenario {
    golden::Scenario {
        name,
        topology: topology::balanced(3, 2),
        energy: EnergyModel::mica2(),
        planner: FallbackPlanner::standard(),
        config,
    }
}

fn fixtures() -> Vec<Fixture> {
    let mut all: Vec<Fixture> = golden::SCENARIOS
        .iter()
        .map(|&name| Fixture { scenario: golden::scenario(name), epoch: KILL_AT, metrics: false })
        .collect();
    let n = 13;

    // Random sampling in continuous mode over lossy links: custody
    // entries, a degraded link, and the drift and noise data faults.
    let faults = FaultSchedule::new()
        .with_degradation(2, NodeId(4), 0.2)
        .with_data_fault(3, NodeId(7), DataFault::Drift { rate: 1.5 }, 4)
        .with_data_fault(5, NodeId(8), DataFault::Noise { amplitude: 3.0 }, 8)
        .with_noise_seed(41);
    let mut config = lossy_config(n, 0.3, 0, faults);
    config.policy = SamplePolicy::Random { warmup: 2, prob: 0.2, seed: 5 };
    config.continuous = Some(ContinuousPolicy { tolerance: 0.5, refresh_period: 6, sketch: None });
    all.push(Fixture {
        scenario: extra("random_continuous", config),
        epoch: KILL_AT,
        metrics: false,
    });

    // The adaptive policy after some audits, under loss.
    let mut config = lossy_config(n, 0.1, 2, FaultSchedule::new());
    config.policy = SamplePolicy::Adaptive { warmup: 3, audit_every: 2, accuracy_floor: 0.9 };
    config.budget_mj = 12.0;
    all.push(Fixture { scenario: extra("adaptive", config), epoch: 11, metrics: false });

    // A fresh continuous runner that never samples: nothing refreshed,
    // nothing planned yet.
    let mut config = recovery_config(FaultSchedule::new());
    config.policy = SamplePolicy::Never;
    config.gate = None;
    config.continuous = Some(ContinuousPolicy {
        tolerance: 1.0,
        refresh_period: 4,
        sketch: Some(SketchPrecision { depth: 8, compression: 8, lo: 0.0, hi: 100.0 }),
    });
    all.push(Fixture { scenario: extra("never_fresh", config), epoch: 0, metrics: false });

    // The metrics section, wall clock and all.
    all.push(Fixture {
        scenario: extra("metrics", lossy_config(n, 0.08, 2, FaultSchedule::new())),
        epoch: KILL_AT,
        metrics: true,
    });
    all
}

fn encode(f: &Fixture) -> Vec<u8> {
    let sc = &f.scenario;
    let mut runner =
        ExperimentRunner::new(&sc.topology, &sc.energy, &sc.planner, sc.config.clone());
    if f.metrics {
        runner.enable_metrics();
    }
    runner.run_to(&mut sc.source(), f.epoch, &mut NullTracer).expect("fixture run");
    runner.checkpoint().encode()
}

fn read(name: &str) -> Vec<u8> {
    let path = path(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {path:?} ({e}); run \
             `BLESS=1 cargo test --test checkpoint_fixtures seeded_runners`"
        )
    })
}

#[test]
fn seeded_runners_encode_to_the_committed_bytes() {
    let bless = std::env::var("BLESS").is_ok_and(|v| v == "1");
    for f in fixtures() {
        let name = f.scenario.name;
        let bytes = encode(&f);
        if bless {
            let path = path(name);
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create dir");
            std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
            continue;
        }
        if f.metrics {
            continue;
        }
        let blessed = read(name);
        let first = blessed.iter().zip(&bytes).position(|(a, b)| a != b);
        assert!(
            blessed == bytes,
            "{name}: encodes to {} bytes, the fixture has {} (first difference at byte {first:?})",
            bytes.len(),
            blessed.len()
        );
    }
}

#[test]
fn committed_fixtures_decode_and_reencode_to_themselves() {
    for f in fixtures() {
        let name = f.scenario.name;
        let bytes = read(name);
        let ckpt = Checkpoint::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(ckpt.next_epoch, f.epoch, "{name}");
        assert!(ckpt.encode() == bytes, "{name}: decode→encode changed the bytes");
    }
}

#[test]
fn golden_fixtures_resume_to_their_golden_tails() {
    for &name in golden::SCENARIOS {
        let sc = golden::scenario(name);
        let ckpt = Checkpoint::decode(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut runner = sc.resume(ckpt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut tracer = RingTracer::new(1 << 16);
        runner.run_to(&mut sc.source(), golden::EPOCHS, &mut tracer).expect("resumed run");
        assert_eq!(tracer.dropped(), 0);
        let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.jsonl"));
        let full = std::fs::read_to_string(&golden_path).expect("golden trace");
        let start = format!("{{\"ev\":\"epoch_start\",\"epoch\":{KILL_AT}}}\n");
        let tail = &full[full.find(&start).expect("golden has the kill epoch")..];
        assert!(event::to_jsonl(&tracer.take()) == tail, "{name}: resumed tail differs");
    }
}

/// A tag byte rewritten in a committed fixture, with the checksum
/// recomputed so the corruption reaches the payload decoder.
fn with_payload_byte(name: &str, offset: usize, value: u8) -> Vec<u8> {
    let mut bytes = read(name);
    bytes[HEADER_LEN + offset] = value;
    let checksum = fnv1a64(&bytes[HEADER_LEN..]);
    bytes[20..28].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn decode_errors_report_the_byte_they_failed_at() {
    // The sampling-policy tag follows `next_epoch`, `k` and `window`.
    let policy_tag = 24;
    match Checkpoint::decode(&with_payload_byte("clean", policy_tag, 7)) {
        Err(CheckpointError::Decode(e)) => {
            assert_eq!(e, DecodeError::BadTag { offset: policy_tag, tag: 7 })
        }
        other => panic!("expected a bad policy tag, got {other:?}"),
    }
    // The configured failure model's option tag follows the periodic
    // policy's two fields and the budget and re-plan knobs.
    let failures_tag = policy_tag + 1 + 16 + 24;
    match Checkpoint::decode(&with_payload_byte("clean", failures_tag, 5)) {
        Err(CheckpointError::Decode(e)) => {
            assert_eq!(e, DecodeError::BadTag { offset: failures_tag, tag: 5 })
        }
        other => panic!("expected a bad option tag, got {other:?}"),
    }
}

/// Which tag or option arm each fixture shows, by name. Every tag must
/// appear in some fixture, and every option in both arms.
fn arms(ckpt: &Checkpoint) -> Vec<(String, bool)> {
    let policy = match ckpt.config.policy {
        SamplePolicy::Periodic { .. } => "periodic",
        SamplePolicy::Random { .. } => "random",
        SamplePolicy::Never => "never",
        SamplePolicy::Adaptive { .. } => "adaptive",
    };
    let mut arms = vec![(format!("policy {policy}"), true)];
    for epoch in ckpt.config.faults.epochs() {
        for e in ckpt.config.faults.events_at(epoch) {
            let kind = match e {
                FaultEvent::NodeDeath(_) => "death".to_string(),
                FaultEvent::LinkDegrade { .. } => "degrade".to_string(),
                FaultEvent::Data { fault, .. } => format!("data {}", fault.kind()),
            };
            arms.push((format!("fault {kind}"), true));
        }
    }
    let cont = ckpt.cont.as_ref();
    arms.extend([
        ("config failures".to_string(), ckpt.config.failures.is_some()),
        ("gate".to_string(), ckpt.config.gate.is_some()),
        ("continuous".to_string(), ckpt.config.continuous.is_some()),
        ("sketch policy".to_string(), ckpt.config.continuous.is_some_and(|c| c.sketch.is_some())),
        ("plan".to_string(), ckpt.plan.is_some()),
        ("plan provenance".to_string(), ckpt.plan_via.is_some()),
        ("last replan".to_string(), ckpt.last_replan.is_some()),
        ("failures".to_string(), ckpt.failures.is_some()),
        ("metrics".to_string(), ckpt.metrics.is_some()),
        ("continuous state".to_string(), cont.is_some()),
        ("last refresh".to_string(), cont.is_some_and(|c| c.last_refresh().is_some())),
        ("custody".to_string(), cont.is_some_and(|c| c.custody().iter().any(|h| !h.is_empty()))),
        ("sketches".to_string(), cont.is_some_and(|c| !c.sketches().is_empty())),
    ]);
    for t in &ckpt.trust {
        arms.push(("quarantine".to_string(), t.quarantined_since.is_some()));
    }
    arms
}

#[test]
fn fixtures_cover_every_tag_and_both_arms_of_every_option() {
    let mut seen: BTreeMap<String, (bool, bool)> = BTreeMap::new();
    for f in fixtures() {
        let ckpt = Checkpoint::decode(&read(f.scenario.name)).expect("fixture decodes");
        for (arm, some) in arms(&ckpt) {
            let entry = seen.entry(arm).or_default();
            if some {
                entry.0 = true;
            } else {
                entry.1 = true;
            }
        }
    }
    let tags = [
        "policy periodic",
        "policy random",
        "policy never",
        "policy adaptive",
        "fault death",
        "fault degrade",
        "fault data stuck_at",
        "fault data drift",
        "fault data spike",
        "fault data noise",
    ];
    for tag in tags {
        assert!(seen.get(tag).is_some_and(|s| s.0), "no fixture carries {tag}");
    }
    for (arm, (some, none)) in seen.iter().filter(|(arm, _)| !tags.contains(&arm.as_str())) {
        assert!(*some && *none, "option {arm:?}: present {some}, absent {none}");
    }
}
