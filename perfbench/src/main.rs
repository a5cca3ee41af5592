//! `perfbench`: runs one workload, or all of them each in its own
//! process, and prints its metrics, ending with one JSON result line.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan_heavy|lossy_30k|continuous_3k|serve_mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload all` also writes `BENCHMARK.json` in the current directory
//! when every workload passes. Exits 0 when every output check passes, 1
//! when one fails, 2 on a bad command line.

use perfbench::{
    alloc::CountingAlloc, run_timed, run_traced, spec, MetricDef, Options, Outcome, Profile,
    Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, POOL_WIDTH,
};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pin the pool width before any thread starts, whatever the caller's
    // environment says; every number then names its parallelism.
    std::env::set_var(prospector_par::THREADS_ENV, POOL_WIDTH.to_string());
    perfbench::alloc::keep_freed_memory();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let opts = Options { workload, seed: args.seed, seconds: args.seconds, profile: Profile::Full };
    println!(
        "# perfbench workload={} seed={} (default {DEFAULT_SEED}) seconds={} trace={} nproc={} pool_width={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        prospector_par::configured_threads(),
    );
    let outcome = if args.trace { run_traced(&opts) } else { run_timed(&opts) };
    print_outcome(&outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>22} {unit}");
    }
    for message in &outcome.checks.messages {
        println!("# check failed: {message}");
    }
    println!("# checks: {} failed", outcome.checks.failed);
    println!("{}", outcome.json());
}

/// Runs every workload in its own process, so allocator state and the
/// peak heap do not carry over, sums up their result lines and, when all
/// pass, writes `BENCHMARK.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut summary = Outcome::default();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                summary.checks.expect(false, || format!("{}: cannot run: {e}", workload.name()));
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        summary.checks.expect(output.status.success(), || {
            format!("{} exited with {}", workload.name(), output.status)
        });
        for line in stdout.lines() {
            let mut fields = line.split_whitespace();
            if let (Some(name), Some(value), Some(_unit)) =
                (fields.next(), fields.next(), fields.next())
            {
                if let (Some(def), Ok(value)) =
                    (defs.iter().find(|d| d.name == name), value.parse::<f64>())
                {
                    let qualified: &'static str =
                        Box::leak(format!("{}/{}", workload.name(), def.name).into_boxed_str());
                    summary.metrics.push((qualified, value, def.unit));
                }
            }
            if let Some(rest) = line.strip_prefix("{\"correct\": ") {
                let count = |key: &str| -> u64 {
                    rest.split_once(key)
                        .and_then(|(_, tail)| tail.split(',').next())
                        .and_then(|n| n.trim().parse().ok())
                        .unwrap_or(0)
                };
                summary.attempted += count("\"attempted\": ");
                summary.failed += count("\"failed\": ");
            }
        }
    }
    if summary.correct() {
        match std::fs::write("BENCHMARK.json", spec::benchmark_json()) {
            Ok(()) => summary.notes.push("wrote BENCHMARK.json".to_string()),
            Err(e) => summary.checks.expect(false, || format!("cannot write BENCHMARK.json: {e}")),
        }
    }
    print_outcome(&summary);
    if summary.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
