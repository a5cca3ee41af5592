//! The workspace benchmark: four seeded, closed-loop workloads driven
//! through the public entry points, eight end-to-end metrics each, and a
//! separate traced run that times single layers from outside. See
//! `README.md` beside this crate for the workloads and how to read the
//! numbers.

pub mod alloc;
pub mod classic;
pub mod layers;
pub mod planner;
pub mod serve;
pub mod spec;
pub mod stats;

use classic::Classic;
use layers::{LayerTracer, Probes};
use prospector_sim::EpochReport;
use stats::{mean, median, Kind};
use std::time::Instant;

/// Worker-pool width the benchmark pins through `PROSPECTOR_THREADS`.
/// The pool spawns its workers afresh on every call; on a host of two
/// shared CPUs, a second worker made plan epochs slower and left their
/// times at the mercy of the other CPU's load.
pub const POOL_WIDTH: usize = 1;

/// Worker count the traced run compares with [`POOL_WIDTH`] for
/// `par.speedup`.
pub const PAR_WIDTH: usize = 2;

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound: None }
}

/// End-to-end metrics, in output order. `success_rate` is one minus the
/// share of queries that errored or were refused.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("queries_per_s", "1/s", true, 0.25),
    e2e("epoch_p50_ms", "ms", false, 0.25),
    e2e("epoch_p99_ms", "ms", false, 0.25),
    e2e("accuracy", "fraction", true, 0.2),
    e2e("energy_mj_per_epoch", "mJ", false, 0.25),
    e2e("success_rate", "fraction", true, 0.05),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_heap_mb", "MB", false, 0.25),
];

/// Per-layer metrics of the traced run. Layers a workload does not use
/// read 0.
pub const PER_LAYER: [MetricDef; 33] = [
    layer("core.plan.ms", "ms", false),
    layer("core.plan.share", "fraction", false),
    layer("lp.iterations", "count", false),
    layer("core.plan.fallbacks", "count", false),
    layer("core.plan.installed_ratio", "fraction", true),
    layer("core.evaluate.ms", "ms", false),
    layer("par.speedup", "x", true),
    layer("sim.install.ms", "ms", false),
    layer("sim.install.undelivered", "count", false),
    layer("sim.collect.ms", "ms", false),
    layer("sim.collect.retransmissions", "count", false),
    layer("sim.collect.lost_edges", "count", false),
    layer("sim.collect.delivered_fraction", "fraction", true),
    layer("sim.backfill.ms", "ms", false),
    layer("sim.backfill.entries", "count", false),
    layer("core.gate.flagged", "count", false),
    layer("net.repair.ms", "ms", false),
    layer("sim.sweep.ms", "ms", false),
    layer("data.samples.push_ms", "ms", false),
    layer("sim.continuous.delta_ms", "ms", false),
    layer("sim.continuous.refresh_ms", "ms", false),
    layer("sim.continuous.deltas_per_epoch", "count", false),
    layer("sim.continuous.messages_per_epoch", "count", false),
    layer("sim.continuous.refreshes", "count", false),
    layer("serve.protocol.parse_us", "us", false),
    layer("serve.begin_epoch.ms", "ms", false),
    layer("serve.plan.ms", "ms", false),
    layer("serve.plan.share", "fraction", false),
    layer("serve.cache.hit_rate", "fraction", true),
    layer("serve.overhead.ms", "ms", false),
    layer("serve.admit.rejected", "count", false),
    layer("obs.trace_overhead", "fraction", false),
    layer("obs.trace_coverage", "fraction", true),
];

/// Per-layer metrics that are exact functions of the seed.
pub const EXACT_LAYER_COUNTS: [&str; 14] = [
    "lp.iterations",
    "core.plan.fallbacks",
    "core.plan.installed_ratio",
    "sim.install.undelivered",
    "sim.collect.retransmissions",
    "sim.collect.lost_edges",
    "sim.collect.delivered_fraction",
    "sim.backfill.entries",
    "core.gate.flagged",
    "sim.continuous.deltas_per_epoch",
    "sim.continuous.messages_per_epoch",
    "sim.continuous.refreshes",
    "serve.cache.hit_rate",
    "serve.admit.rejected",
];

/// End-to-end metrics that are exact functions of the seed.
pub const EXACT_END_TO_END: [&str; 3] = ["accuracy", "energy_mj_per_epoch", "success_rate"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanHeavy,
    Lossy30k,
    Continuous3k,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PlanHeavy, Workload::Lossy30k, Workload::Continuous3k, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanHeavy => "plan_heavy",
            Workload::Lossy30k => "lossy_30k",
            Workload::Continuous3k => "continuous_3k",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PlanHeavy => {
                "LP planning on fresh windows of a 1000-node field dominates; collection is cheap"
            }
            Workload::Lossy30k => {
                "collection with ARQ, gate and backfill on a 30k-node tree, with repairs and replans after deaths"
            }
            Workload::Continuous3k => {
                "continuous delta collection with q-digest sketches on 3280 nodes; no planner"
            }
            Workload::ServeMix => {
                "multi-tenant serving: protocol parsing, admission and a plan cache shared by repeated queries"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the measured profile; `Fast` shrinks every workload for the
/// benchmark's own tests and skips the percentile guard, whose p99 needs
/// a thousand samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Full,
    Fast,
}

/// How much one cycle of a run does. A cycle runs every instance once;
/// a timed run repeats whole cycles while they fit in its seconds, so
/// every cycle measures the same epochs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Seeded instances per cycle, each with its own network and data.
    /// Pooling several keeps one unlucky topology from moving a run.
    pub instances: u64,
    /// Timed epochs per instance.
    pub epochs: u64,
    /// Set-ups per instance; `setup_s` is the median over all of them of
    /// each one's fastest replay.
    pub setups: usize,
}

impl Shape {
    pub fn of(workload: Workload, profile: Profile) -> Shape {
        let (instances, epochs, setups) = match (profile, workload) {
            (Profile::Full, Workload::PlanHeavy) => (20, 50, 1),
            (Profile::Full, Workload::Lossy30k) => (8, 125, 1),
            (Profile::Full, Workload::Continuous3k) => (2, 500, 1),
            (Profile::Full, Workload::ServeMix) => (60, 20, 3),
            (Profile::Fast, Workload::ServeMix) => (2, 16, 2),
            (Profile::Fast, _) => (2, 30, 2),
        };
        Shape { instances, epochs, setups }
    }
}

/// Seed of instance `index` of a run at `seed`.
pub fn instance_seed(seed: u64, index: u64) -> u64 {
    prospector_net::epoch_seed(seed, index)
}

/// One timed epoch as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    pub wall_ms: f64,
    pub kind: Kind,
    /// Top-k queries attempted: 1 per runner epoch, the batch's `QUERY`
    /// lines for `serve_mix`.
    pub queries: u64,
    /// Queries that failed: a `PlanError`, or an `ERR` the workload did
    /// not ask for.
    pub failed: u64,
    /// Queries refused at admission as the workload intends: expired
    /// deadlines, sub-band budgets, an exhausted energy ledger.
    pub refused: u64,
    /// Sum of per-query accuracy over the `scored` answered queries.
    pub accuracy_sum: f64,
    pub scored: u64,
    pub energy_mj: f64,
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch {
            wall_ms: 0.0,
            kind: Kind::Collect,
            queries: 0,
            failed: 0,
            refused: 0,
            accuracy_sum: 0.0,
            scored: 0,
            energy_mj: 0.0,
        }
    }
}

/// The seed-determined part of an instance's epochs. Every cycle of a
/// run must reproduce it bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Totals {
    epochs: u64,
    queries: u64,
    failed: u64,
    refused: u64,
    accuracy_sum: f64,
    scored: u64,
    energy_mj: f64,
}

impl Totals {
    fn add(&mut self, e: &Epoch) {
        self.epochs += 1;
        self.queries += e.queries;
        self.failed += e.failed;
        self.refused += e.refused;
        self.accuracy_sum += e.accuracy_sum;
        self.scored += e.scored;
        self.energy_mj += e.energy_mj;
    }
}

/// Failed output checks, with the first few messages kept.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.failed += other.failed;
        self.messages.extend(other.messages.into_iter().take(8));
    }
}

/// A run's result: the final JSON line plus the notes printed above it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub checks: Checks,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Fills `metrics` in the order of `defs`, taking values from
    /// `values` (0 for a layer the workload does not use). A value that
    /// is not finite fails the run.
    fn set_metrics(&mut self, defs: &[MetricDef], values: &[(&'static str, f64)]) {
        for def in defs {
            let name = def.name;
            let value = values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            // An empty sum is -0.0; report it as 0.
            let value = if value == 0.0 { 0.0 } else { value };
            self.checks.expect(value.is_finite(), || format!("{name} is {value}"));
            self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, def.unit));
        }
    }
}

/// What a timed or traced run needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// A timed run repeats whole cycles while the next one would still
    /// end within this many seconds. It always runs one.
    pub seconds: f64,
    pub profile: Profile,
}

/// Either benchmark shape behind one interface for the timed loop.
enum Bench {
    Classic(Box<Classic>),
    Serve(Box<serve::Serve>),
}

impl Bench {
    fn setup(workload: Workload, profile: Profile, seed: u64, epochs: u64) -> Bench {
        match workload {
            Workload::ServeMix => Bench::Serve(Box::new(serve::Serve::setup(profile, seed))),
            w => Bench::Classic(Box::new(Classic::setup(w, profile, seed, epochs))),
        }
    }

    fn step(&mut self) -> Epoch {
        match self {
            Bench::Classic(c) => c.step(),
            Bench::Serve(s) => s.step(),
        }
    }

    fn finish(self) -> Checks {
        match self {
            Bench::Classic(mut c) => {
                c.finish();
                c.checks
            }
            Bench::Serve(mut s) => {
                s.finish();
                s.checks
            }
        }
    }
}

/// The timed run: whole cycles over the instances, each instance set up
/// `setups` times and then stepped through its epochs with tracing off,
/// for as many cycles as fit in `seconds`.
pub fn run_timed(opts: &Options) -> Outcome {
    let shape = Shape::of(opts.workload, opts.profile);
    let started = Instant::now();
    let mut out = Outcome::default();
    // One cycle's epochs and set-up times, reused so that the benchmark's
    // own books do not grow with the number of cycles and move
    // `peak_heap_mb`.
    let mut cycle: Vec<Epoch> = Vec::with_capacity((shape.instances * shape.epochs) as usize);
    let mut setups: Vec<f64> = Vec::with_capacity(shape.instances as usize * shape.setups);
    let mut peaks: Vec<f64> = Vec::with_capacity(shape.instances as usize);
    // Each epoch's and each set-up's fastest time over the cycles, each
    // instance's highest heap, and each epoch's kind.
    let (mut fastest, mut fastest_setup, mut highest) = (Vec::new(), Vec::new(), Vec::new());
    let mut kinds: Vec<Kind> = Vec::new();
    let mut first: Vec<Totals> = Vec::new();
    let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycles, mut busy_s) = (0u64, 0.0);
    loop {
        let cycle_started = Instant::now();
        cycle.clear();
        setups.clear();
        peaks.clear();
        let mut totals = Vec::with_capacity(shape.instances as usize);
        for index in 0..shape.instances {
            let seed = instance_seed(opts.seed, index);
            alloc::reset_peak();
            let mut bench = None;
            for _ in 0..shape.setups {
                // Drop the previous set-up first, so the peak heap holds one.
                drop(bench.take());
                let t0 = Instant::now();
                bench = Some(Bench::setup(opts.workload, opts.profile, seed, shape.epochs));
                setups.push(t0.elapsed().as_secs_f64());
            }
            let mut bench = bench.expect("at least one set-up");
            let mut own = Totals::default();
            for _ in 0..shape.epochs {
                let e = bench.step();
                own.add(&e);
                cycle.push(e);
            }
            out.checks.absorb(bench.finish());
            totals.push(own);
            peaks.push(alloc::peak_bytes() as f64 / 1e6);
        }
        cycles += 1;
        out.attempted += totals.iter().map(|t| t.queries).sum::<u64>();
        out.failed += totals.iter().map(|t| t.failed).sum::<u64>();

        let walls: Vec<f64> = cycle.iter().map(|e| e.wall_ms).collect();
        let cycle_s = walls.iter().sum::<f64>() / 1e3;
        busy_s += cycle_s;
        qps.push(totals.iter().map(|t| t.queries).sum::<u64>() as f64 / cycle_s);
        p50.push(stats::percentile(&walls, 50.0));
        p99.push(stats::percentile(&walls, 99.0));
        if first.is_empty() {
            first = totals;
            kinds = cycle.iter().map(|e| e.kind).collect();
        } else {
            out.checks.expect(totals == first, || {
                format!(
                    "cycle {cycles} did not repeat the first cycle's accuracy, energy and failures"
                )
            });
            out.checks.expect(cycle.iter().map(|e| e.kind).eq(kinds.iter().copied()), || {
                format!("cycle {cycles} did not repeat the first cycle's epoch kinds")
            });
        }
        keep(&mut fastest, &walls, f64::min);
        keep(&mut fastest_setup, &setups, f64::min);
        keep(&mut highest, &peaks, f64::max);
        // Stop before a cycle that would end past the run's seconds.
        let last_cycle_s = cycle_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last_cycle_s > opts.seconds {
            break;
        }
    }

    // Every cycle repeats the first, so its totals are the run's.
    let sum = |f: fn(&Totals) -> u64| first.iter().map(f).sum::<u64>();
    let (queries, scored) = (sum(|t| t.queries), sum(|t| t.scored));
    let unanswered = sum(|t| t.failed) + sum(|t| t.refused);
    let accuracy = first.iter().map(|t| t.accuracy_sum).sum::<f64>() / scored.max(1) as f64;
    let energy = first.iter().map(|t| t.energy_mj).sum::<f64>() / sum(|t| t.epochs).max(1) as f64;
    out.checks.expect(scored > 0, || "no query was answered".to_string());

    out.notes.push(format!(
        "timed: {cycles} cycles of {} instances x {} epochs, {} set-ups a cycle; {busy_s:.3} s of program time",
        shape.instances,
        shape.epochs,
        setups.len(),
    ));
    out.notes
        .push(format!("kinds, fastest of each epoch (p1/p50/p99): {}", kind_mix(&kinds, &fastest)));
    let show = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!(
        "cycles: queries/s {}; p50 ms {}; p99 ms {}",
        show(&qps),
        show(&p50),
        show(&p99)
    ));
    if opts.profile == Profile::Fast {
        out.notes.push("guard: skipped in the fast profile".to_string());
    } else {
        match stats::guard(&fastest, &kinds) {
            Ok(g) => out.notes.push(format!(
                "guard: ok; p50 inside {} ({} strays), p99 inside {} ({} strays), {} of {} samples beyond p99",
                g.p50.kind, g.p50.strays, g.p99.kind, g.p99.strays, g.beyond_p99, g.samples,
            )),
            Err(why) => out.checks.expect(false, || format!("percentile guard: {why}")),
        }
    }
    // The host's speed swings by up to 1.5x, and a disturbance only ever
    // makes an epoch slower. Every cycle replays the same set-ups and
    // epochs, so the timing metrics are taken over each one's fastest
    // replay: the least disturbed measurement of the same work.
    let values = [
        ("queries_per_s", queries as f64 / (fastest.iter().sum::<f64>() / 1e3)),
        ("epoch_p50_ms", stats::percentile(&fastest, 50.0)),
        ("epoch_p99_ms", stats::percentile(&fastest, 99.0)),
        ("accuracy", accuracy),
        ("energy_mj_per_epoch", energy),
        ("success_rate", 1.0 - unanswered as f64 / queries.max(1) as f64),
        ("setup_s", median(&fastest_setup)),
        ("peak_heap_mb", median(&highest)),
    ];
    out.set_metrics(&END_TO_END, &values);
    out
}

/// Replaces each of `best` with `pick` of it and the matching value in
/// `now`; the first call takes `now` as it is.
fn keep(best: &mut Vec<f64>, now: &[f64], pick: fn(f64, f64) -> f64) {
    if best.is_empty() {
        best.extend_from_slice(now);
    }
    for (best, &now) in best.iter_mut().zip(now) {
        *best = pick(*best, now);
    }
}

/// Each epoch kind's count and its 1st, 50th and 99th percentile wall
/// time, so the guard's verdict can be read off the mix.
fn kind_mix(kinds: &[Kind], walls: &[f64]) -> String {
    Kind::ALL
        .iter()
        .filter_map(|&k| {
            let own: Vec<f64> =
                kinds.iter().zip(walls).filter(|(&x, _)| x == k).map(|(_, &w)| w).collect();
            (!own.is_empty()).then(|| {
                let p = |q| stats::percentile(&own, q);
                format!("{k}={} ({:.3}/{:.3}/{:.3} ms)", own.len(), p(1.0), p(50.0), p(99.0))
            })
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The traced run: one cycle of the timed run's epochs, once untraced
/// and once with a [`LayerTracer`] and direct calls into single layers.
pub fn run_traced(opts: &Options) -> Outcome {
    let shape = Shape::of(opts.workload, opts.profile);
    let mut out = Outcome::default();
    let (mut values, plain, traced, events) = match opts.workload {
        Workload::ServeMix => {
            out.attempted = shape.instances * shape.epochs * serve::queries_per_epoch(opts.profile);
            serve::traced(opts.profile, opts.seed, &shape, &mut out.checks)
        }
        w => {
            out.attempted = shape.instances * shape.epochs;
            classic_traced(opts, w, &shape, &mut out.checks)
        }
    };
    let overhead = traced.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0;
    values.push(("obs.trace_overhead", overhead));
    out.notes.push(format!(
        "traced: {} instances x {} epochs, once untraced and once traced",
        shape.instances, shape.epochs
    ));
    out.notes.push(format!("events: {events}"));
    out.set_metrics(&PER_LAYER, &values);
    out
}

/// Per-layer values, untraced and traced epoch walls, and the traced
/// pass's event counts.
pub type Traced = (Vec<(&'static str, f64)>, Vec<f64>, Vec<f64>, String);

fn classic_traced(
    opts: &Options,
    workload: Workload,
    shape: &Shape,
    checks: &mut Checks,
) -> Traced {
    let n = shape.epochs;
    let log = planner::thread_planner().log();
    let mut plans = planner::PlanLog::default();
    let mut tracer = LayerTracer::default();
    let mut probes = Probes::default();
    let (mut plain_kinds, mut plain_walls) = (Vec::new(), Vec::new());
    let (mut kinds, mut walls, mut all_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports: Vec<(Kind, EpochReport)> = Vec::new();
    let mut continuous = false;
    // Each instance runs untraced and then traced, back to back, so a
    // drifting host moves both passes alike.
    for index in 0..shape.instances {
        let seed = instance_seed(opts.seed, index);
        let mut plain = Classic::setup(workload, opts.profile, seed, n);
        for _ in 0..n {
            let e = plain.step();
            plain_kinds.push(e.kind);
            plain_walls.push(e.wall_ms);
        }
        plain.finish();
        checks.absorb(std::mem::take(&mut plain.checks));
        drop(plain);

        log.take();
        let mut bench = Classic::build(workload, opts.profile, seed, n);
        while !bench.warm() {
            all_walls.push(bench.step_traced(&mut tracer, &mut probes).wall_ms);
        }
        bench.keep_reports();
        for _ in 0..n {
            let e = bench.step_traced(&mut tracer, &mut probes);
            kinds.push(e.kind);
            walls.push(e.wall_ms);
            all_walls.push(e.wall_ms);
        }
        bench.finish();
        checks.absorb(std::mem::take(&mut bench.checks));
        continuous = bench.is_continuous();
        reports.append(&mut bench.take_reports());
        plans.absorb(log.take());
    }
    checks.expect(kinds == plain_kinds, || {
        "traced epochs differ in kind from untraced ones".to_string()
    });

    let wall: f64 = all_walls.iter().sum();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let planned: f64 = sum(&plans.ms);
    let mut busy = planned
        + sum(&probes.install_ms)
        + sum(&probes.collect_ms)
        + sum(&probes.backfill_ms)
        + sum(&probes.sweep_ms)
        + sum(&probes.push_ms)
        + sum(&probes.repair_ms);
    let by_kind = |k: Kind| -> Vec<f64> {
        plain_kinds.iter().zip(&plain_walls).filter(|(&x, _)| x == k).map(|(_, &w)| w).collect()
    };
    let mut values = vec![
        ("core.plan.ms", median(&plans.ms)),
        ("lp.iterations", mean(&plans.lp_iterations.iter().map(|&i| i as f64).collect::<Vec<_>>())),
        ("core.plan.fallbacks", plans.fallbacks as f64),
        (
            "core.plan.installed_ratio",
            tracer.plans_installed as f64 / tracer.plans_chosen.max(1) as f64,
        ),
        ("core.evaluate.ms", median(&probes.evaluate_ms)),
        (
            "par.speedup",
            if probes.evaluate_ms.is_empty() {
                0.0
            } else {
                sum(&probes.evaluate_ms) / sum(&probes.evaluate_par_ms)
            },
        ),
        ("sim.install.ms", median(&probes.install_ms)),
        ("sim.collect.ms", median(&probes.collect_ms)),
        ("sim.backfill.ms", median(&probes.backfill_ms)),
        ("net.repair.ms", median(&probes.repair_ms)),
        ("sim.sweep.ms", median(&probes.sweep_ms)),
        ("data.samples.push_ms", median(&probes.push_ms)),
    ];
    if continuous {
        values.push(("sim.continuous.delta_ms", median(&by_kind(Kind::Collect))));
        values.push(("sim.continuous.refresh_ms", median(&by_kind(Kind::Refresh))));
        // A continuous query epoch is handed whole to `sim::continuous`.
        busy += kinds
            .iter()
            .zip(&walls)
            .filter(|(&k, _)| k != Kind::Sweep)
            .map(|(_, &w)| w)
            .sum::<f64>();
    }
    values.extend(classic::report_counts(&reports, continuous));
    values.push(("core.plan.share", planned / wall));
    values.push(("obs.trace_coverage", busy / wall));
    (values, plain_walls, walls, tracer.event_counts())
}
