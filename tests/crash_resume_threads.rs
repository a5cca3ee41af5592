//! Resume-equivalence across evaluation-pool widths: a run killed and
//! resumed mid-way must match the uninterrupted run whether planning
//! evaluates on 1 thread or 8 — and a checkpoint taken under one width
//! must resume correctly under another (pool width is runtime
//! configuration, not state, so it is deliberately not serialized).
//!
//! This file holds exactly one test: it mutates `PROSPECTOR_THREADS`,
//! which is process-global, and must not race sibling tests.

use prospector::obs::{event, RingTracer};
use prospector::par::THREADS_ENV;
use prospector::sim::Checkpoint;
use prospector_testutil::golden;

const RING_CAP: usize = 1 << 16;

/// Trace of `name` killed at `kill_at` and resumed (None = no kill),
/// with the checkpoint round-tripped through its wire format.
fn trace_with_kill(name: &str, kill_at: Option<u64>) -> String {
    let sc = golden::scenario(name);
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    let Some(kill_at) = kill_at else {
        runner.run_to(&mut source, golden::EPOCHS, &mut tracer).expect("full run");
        return event::to_jsonl(&tracer.take());
    };
    runner.run_to(&mut source, kill_at, &mut tracer).expect("prefix run");
    let bytes = runner.checkpoint().encode();
    drop(runner);
    let ckpt = Checkpoint::decode(&bytes).expect("round-trip");
    let mut resumed = sc.resume(ckpt).expect("resume");
    resumed.run_to(&mut source, golden::EPOCHS, &mut tracer).expect("resumed run");
    event::to_jsonl(&tracer.take())
}

#[test]
fn killed_and_resumed_traces_are_identical_across_thread_counts() {
    let kill_at = golden::EPOCHS / 2;
    for &name in golden::SCENARIOS {
        // Unsafe on paper (env mutation is not thread-safe); sound here
        // because this binary runs no other test.
        std::env::set_var(THREADS_ENV, "1");
        let serial_full = trace_with_kill(name, None);
        let serial_resumed = trace_with_kill(name, Some(kill_at));
        std::env::set_var(THREADS_ENV, "8");
        let parallel_resumed = trace_with_kill(name, Some(kill_at));
        std::env::remove_var(THREADS_ENV);
        let default_resumed = trace_with_kill(name, Some(kill_at));
        assert!(!serial_full.is_empty(), "{name}: empty trace");
        assert_eq!(serial_resumed, serial_full, "{name}: resume diverges on 1 thread");
        assert_eq!(parallel_resumed, serial_full, "{name}: resume diverges on 8 threads");
        assert_eq!(default_resumed, serial_full, "{name}: resume diverges on default threads");
    }
}
