//! `BENCHMARK.json`: how to run the benchmark, its workloads and its
//! metrics, written from the tables in this crate so the file and the
//! program cannot disagree.

use crate::{MetricDef, Workload, END_TO_END, PER_LAYER};

/// The command, run from the repository root; the caller appends
/// `--workload`, `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "-q",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Seconds one timed run measures.
pub const RUN_SECONDS: u64 = 30;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn list(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    format!("[\n{indent}  {}\n{indent}]", items.join(&format!(",\n{indent}  ")))
}

fn metric(def: &MetricDef) -> String {
    let better = if def.higher_is_better { "higher" } else { "lower" };
    let bound = def.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"{bound}}}",
        quote(def.name),
        quote(def.unit)
    )
}

/// The full text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| items.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name()), quote(w.why())))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        list(&workloads, "  "),
        list(&end_to_end, "  "),
        list(&per_layer, "  "),
    )
}
