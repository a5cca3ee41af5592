//! The benchmark's own checks, on the fast profile: every workload reports
//! every metric with its unit and passes its output checks, the
//! seed-determined numbers repeat at one seed and move with another, and
//! `BENCHMARK.json` is the one the program writes.

use perfbench::{
    run_timed, run_traced, spec, MetricDef, Options, Outcome, Profile, Workload, END_TO_END,
    EXACT_END_TO_END, EXACT_LAYER_COUNTS, PER_LAYER,
};

fn run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options { workload, seed, seconds: 0.0, profile: Profile::Fast };
    if trace {
        run_traced(&opts)
    } else {
        run_timed(&opts)
    }
}

fn assert_reports(outcome: &Outcome, defs: &[MetricDef], what: &str) {
    let reported: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(reported, expected, "{what}: metrics or units differ");
    assert!(outcome.correct(), "{what}: checks failed: {:?}", outcome.checks.messages);
    assert!(outcome.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{what}: a query failed");
    let json = outcome.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{what}: {json}");
    for def in defs {
        assert!(json.contains(&format!("\"{}\": {{\"value\": ", def.name)), "{what}: {json}");
    }
}

/// The named metrics' bit patterns.
fn exact(outcome: &Outcome, names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|n| outcome.metric(n).unwrap_or_else(|| panic!("{n} missing")).to_bits())
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let name = workload.name();
        assert_reports(&run(workload, 1, false), &END_TO_END, &format!("{name} timed"));
        assert_reports(&run(workload, 1, true), &PER_LAYER, &format!("{name} traced"));
    }
}

#[test]
fn seed_determined_metrics_repeat_at_one_seed_and_move_with_another() {
    for workload in Workload::ALL {
        let name = workload.name();
        let numbers = |seed| {
            (
                exact(&run(workload, seed, false), &EXACT_END_TO_END),
                exact(&run(workload, seed, true), &EXACT_LAYER_COUNTS),
            )
        };
        let (first, again, other) = (numbers(7), numbers(7), numbers(8));
        assert_eq!(first.0, again.0, "{name}: end-to-end numbers moved at one seed");
        assert_eq!(first.1, again.1, "{name}: layer counts moved at one seed");
        assert_ne!(first.0, other.0, "{name}: end-to-end numbers ignore the seed");
        assert_ne!(first.1, other.1, "{name}: layer counts ignore the seed");
    }
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, spec::benchmark_json(), "rerun `perfbench --workload all` to refresh it");
}
