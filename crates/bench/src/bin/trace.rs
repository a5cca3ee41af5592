//! Replays one golden observability scenario and streams its JSONL
//! trace to stdout.
//!
//! ```text
//! trace [--metrics] [--checkpoint-dir DIR] [--ckpt-every N] [--kill-at E]
//!       [--resume] [--resume-epoch] [--epoch-delay-ms M]
//!       [clean|loss_arq|death_repair|data_fault|continuous_drift]
//! ```
//!
//! Stdout carries exactly the bytes the golden-trace harness diffs
//! (`tests/golden/<name>.jsonl`), so
//!
//! ```text
//! cargo run -p prospector-bench --bin trace -- clean | diff tests/golden/clean.jsonl -
//! ```
//!
//! is a cross-process determinism check. `--metrics` additionally prints
//! the scenario's cumulative metrics snapshot as one JSON object on
//! stderr, keeping stdout byte-diffable.
//!
//! The checkpoint flags turn the binary into CI's crash harness.
//! `--checkpoint-dir DIR` writes a checkpoint into `DIR` after every
//! `--ckpt-every` epochs (default 1); epochs are flushed to stdout one at
//! a time, so killing the process at any moment leaves a clean prefix of
//! the golden trace plus a checkpoint to continue from. `--kill-at E`
//! simulates the crash deterministically (exit 137 at the boundary before
//! epoch `E`); `--epoch-delay-ms M` slows the loop down so an external
//! `kill -9` can land mid-run. `--resume` loads the newest valid
//! checkpoint (falling back over corrupt files) and emits only the
//! remaining epochs: the concatenation of the killed run's stdout
//! (truncated to whole epochs) and the resumed run's stdout is
//! byte-identical to the uninterrupted trace. `--resume-epoch` prints the
//! epoch a resume would continue from and exits.

use prospector_ckpt::CheckpointPolicy;
use prospector_obs::{event, RingTracer};
use prospector_sim::CheckpointStore;
use prospector_testutil::golden;
use std::io::Write as _;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| die(&format!("{flag} needs a value"))).clone())
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args.iter().any(|a| a == "--metrics");
    let resume = args.iter().any(|a| a == "--resume");
    let print_resume_epoch = args.iter().any(|a| a == "--resume-epoch");
    let ckpt_dir = arg_value(&args, "--checkpoint-dir");
    let every: u64 = arg_value(&args, "--ckpt-every")
        .map(|v| v.parse().unwrap_or_else(|_| die("--ckpt-every needs an integer")))
        .unwrap_or(1);
    let kill_at: Option<u64> = arg_value(&args, "--kill-at")
        .map(|v| v.parse().unwrap_or_else(|_| die("--kill-at needs an epoch number")));
    let delay_ms: u64 = arg_value(&args, "--epoch-delay-ms")
        .map(|v| v.parse().unwrap_or_else(|_| die("--epoch-delay-ms needs an integer")))
        .unwrap_or(0);

    // Skip flag values when scanning for the scenario name.
    let value_flags = ["--checkpoint-dir", "--ckpt-every", "--kill-at", "--epoch-delay-ms"];
    let mut names: Vec<&str> = Vec::new();
    let mut skip = false;
    for a in &args {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            names.push(a.as_str());
        }
    }
    let name = match names.as_slice() {
        [] => "clean",
        [one] if golden::SCENARIOS.contains(one) => one,
        other => die(&format!(
            "usage: trace [--metrics] [--checkpoint-dir DIR] [--ckpt-every N] [--kill-at E] \
             [--resume] [--resume-epoch] [--epoch-delay-ms M] [scenario]; \
             valid scenarios: {} (got {other:?})",
            golden::SCENARIOS.join(" ")
        )),
    };

    if (resume || print_resume_epoch) && ckpt_dir.is_none() {
        die("--resume/--resume-epoch require --checkpoint-dir");
    }
    let store = ckpt_dir.map(|d| CheckpointStore::open(d).unwrap_or_else(|e| die(&e.to_string())));
    let policy = CheckpointPolicy { every_epochs: every, keep_last: 3 };

    let sc = golden::scenario(name);
    let mut runner = if resume || print_resume_epoch {
        let store = store.as_ref().expect("checked above");
        let (ckpt, skipped) =
            store.latest_valid().unwrap_or_else(|e| die(&format!("cannot resume: {e}")));
        for (epoch, err) in &skipped {
            eprintln!("[skipping corrupt checkpoint for epoch {epoch}: {err}]");
        }
        let runner = sc.resume(ckpt).unwrap_or_else(|e| die(&format!("cannot resume: {e}")));
        if print_resume_epoch {
            println!("{}", runner.next_epoch());
            return;
        }
        runner
    } else {
        sc.runner()
    };

    // One epoch at a time, flushed: a kill at any instant leaves whole
    // epochs on stdout (plus at most one partially written line, which
    // the harness truncates at the last newline).
    let mut source = sc.source();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for e in runner.next_epoch()..golden::EPOCHS {
        if kill_at == Some(e) {
            // SIGKILL's exit status, the same thing a real crash reports.
            std::process::exit(137);
        }
        let mut tracer = RingTracer::new(1 << 14);
        runner.step_traced(&mut source, e, &mut tracer).unwrap_or_else(|err| {
            die(&format!("{name} epoch {e} failed: {err}"));
        });
        assert_eq!(tracer.dropped(), 0, "ring capacity must cover one epoch");
        out.write_all(event::to_jsonl(&tracer.take()).as_bytes()).expect("write trace");
        out.flush().expect("flush trace");
        if let Some(store) = &store {
            if policy.due(e) {
                store
                    .save(&runner.checkpoint(), policy.keep_last)
                    .unwrap_or_else(|err| die(&format!("checkpoint write failed: {err}")));
            }
        }
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
    }
    if metrics {
        // A resumed runner has metrics only if its checkpoint did: the
        // committed fixtures are written with them off.
        let registry = runner
            .metrics()
            .unwrap_or_else(|| die("--metrics: the resumed checkpoint carries no metrics"));
        eprintln!("{}", registry.snapshot().to_json());
    }
}
