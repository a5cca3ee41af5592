//! The three runner workloads, driven through `ExperimentRunner::step`
//! (timed) and `ExperimentRunner::step_traced` (traced).

use crate::layers::{ms_since, LayerTracer, Probes};
use crate::planner::{thread_planner, SharedLog};
use crate::stats::{mean, Kind};
use crate::{Checks, Epoch, Profile, Workload, PAR_WIDTH, POOL_WIDTH};
use prospector_core::{evaluate, ContinuousPolicy, GatePolicy, Plan, SketchPrecision};
use prospector_data::{DriftField, IndependentGaussian, SamplePolicy, ValueSource};
use prospector_net::{
    epoch_seed, topology, ArqPolicy, EnergyModel, FailureModel, FaultSchedule, NetworkBuilder,
    NodeId, Topology,
};
use prospector_sim::{
    backfill_answer, execute_plan, execute_plan_arq, EpochReport, ExperimentConfig,
    ExperimentRunner,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One runner workload, set up and warmed: the sample window is full and
/// (outside continuous mode) the first plan is installed.
pub struct Classic {
    runner: ExperimentRunner<'static>,
    source: Box<dyn ValueSource>,
    /// A copy of the source for the traced run's direct calls. Both
    /// sources are stateless per epoch, so the copy reproduces every
    /// epoch's readings.
    twin: Box<dyn ValueSource>,
    log: SharedLog,
    energy: &'static EnergyModel,
    config: ExperimentConfig,
    epoch: u64,
    /// Sum of every epoch's reported energy, warm-up included.
    reported_mj: f64,
    /// Per-epoch reports of the timed part (traced run only).
    reports: Vec<(Kind, EpochReport)>,
    keep_reports: bool,
    pub checks: Checks,
}

thread_local! {
    static ENERGY: &'static EnergyModel = Box::leak(Box::new(EnergyModel::mica2()));
}

/// This thread's energy model, borrowed by every runner it builds.
fn thread_energy() -> &'static EnergyModel {
    ENERGY.with(|energy| *energy)
}

/// Readings of a ~1000-node field: means 40..60, σ 1..4, as Figure 3.
fn gaussian(n: usize, seed: u64) -> IndependentGaussian {
    IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, seed ^ 0x9a55)
}

/// Readings with a few hot spots: exactly 0.3% of the nodes read
/// 70..90, the rest 30..60, σ 1..4. The top k then lives among a few
/// dozen nodes that the sample window can find, so the plan depends on
/// the budget.
fn hot_spots(n: usize, seed: u64) -> IndependentGaussian {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407_5907);
    let mut means: Vec<f64> = (0..n).map(|_| rng.random_range(30.0..60.0)).collect();
    let std_devs = (0..n).map(|_| rng.random_range(1.0..4.0)).collect();
    let mut hot = 0;
    while hot < n * 3 / 1000 {
        let i = rng.random_range(0..n);
        if means[i] < 70.0 {
            means[i] = rng.random_range(70.0..90.0);
            hot += 1;
        }
    }
    IndependentGaussian::new(means, std_devs, seed)
}

/// A complete ternary tree on `n` nodes, as `figures scale` builds it:
/// placing a radio network is O(n²), and every layer under test consumes
/// only the topology.
fn ternary(n: usize) -> Topology {
    let mut parent: Vec<Option<NodeId>> = vec![None];
    parent.extend((1..n).map(|i| Some(NodeId::from_index((i - 1) / 3))));
    Topology::from_parents(NodeId::from_index(0), parent).expect("ternary tree is valid")
}

/// First death wave of `lossy_30k`, just after the warm-up's 10 sweeps
/// and first plan.
const FIRST_DEATH: u64 = 12;

/// `per_wave` distinct non-root nodes die at epochs `first`, `first +
/// every`, … below `until`.
fn death_waves(
    n: usize,
    first: u64,
    every: u64,
    per_wave: usize,
    until: u64,
    seed: u64,
) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_5eed);
    let mut dead = vec![false; n];
    let mut schedule = FaultSchedule::new();
    for epoch in (first..until).step_by(every as usize) {
        for _ in 0..per_wave {
            let node = loop {
                let candidate = rng.random_range(1..n);
                if !dead[candidate] {
                    break candidate;
                }
            };
            dead[node] = true;
            schedule = schedule.with_death(epoch, NodeId::from_index(node));
        }
    }
    schedule
}

/// Energy of one NAIVE-k collection on epoch 0's readings.
fn naive_k_mj(
    topo: &Topology,
    energy: &EnergyModel,
    source: &mut dyn ValueSource,
    k: usize,
) -> f64 {
    let values = source.values(0);
    execute_plan(&Plan::naive_k(topo, k), topo, energy, &values, k, None).total_mj()
}

fn base_config(k: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        k,
        window: 10,
        policy: SamplePolicy::Periodic { warmup: 10, period: 0 },
        budget_mj: 0.0,
        replan_every: 0,
        replan_threshold: 0.05,
        failures: None,
        faults: FaultSchedule::new(),
        install_retries: 2,
        arq: ArqPolicy::default(),
        min_delivered: 0.0,
        max_retry_budget: 8,
        gate: None,
        continuous: None,
        seed,
    }
}

impl Classic {
    /// Builds the workload and runs its warm-up epochs, ready for
    /// `epochs` timed ones.
    pub fn setup(workload: Workload, profile: Profile, seed: u64, epochs: u64) -> Classic {
        let mut bench = Classic::build(workload, profile, seed, epochs);
        while !bench.warm() {
            bench.step();
        }
        bench
    }

    /// Builds the workload's network, source and runner. The runner plans
    /// with [`thread_planner`].
    pub fn build(workload: Workload, profile: Profile, seed: u64, epochs: u64) -> Classic {
        let fast = profile == Profile::Fast;
        let energy = thread_energy();
        let planner = thread_planner();
        let log = Rc::clone(planner.log());
        let (topo, source, config): (Topology, Box<dyn ValueSource>, ExperimentConfig) =
            match workload {
                Workload::PlanHeavy => {
                    let (n, k) = if fast { (120, 4) } else { (1000, 10) };
                    let side = 40.0 * (n as f64).sqrt();
                    let network = NetworkBuilder::new(n, side, side, 70.0)
                        .seed(seed)
                        .build()
                        .expect("constant-density placement connects");
                    let mut source = gaussian(n, seed);
                    let naive = naive_k_mj(&network.topology, energy, &mut source, k);
                    let config = ExperimentConfig {
                        // Sweep every 5th epoch, replan 10 epochs after the
                        // last plan: every solve sees two fresh samples.
                        // Plans are 10% of the epochs, so a cycle is short
                        // enough for a run to replay each epoch ~10 times.
                        policy: SamplePolicy::Periodic { warmup: 10, period: 5 },
                        budget_mj: 0.5 * naive,
                        replan_every: 10,
                        ..base_config(k, seed)
                    };
                    (network.topology, Box::new(source), config)
                }
                Workload::Lossy30k => {
                    let (n, k) = if fast { (600, 4) } else { (30_000, 10) };
                    let topo = ternary(n);
                    let mut source = hot_spots(n, seed);
                    let naive = naive_k_mj(&topo, energy, &mut source, k);
                    // No sweeps after the warm-up: they cost as much as a
                    // repair, and the two would share the p99 rank.
                    let config = ExperimentConfig {
                        budget_mj: 1.0 * naive,
                        failures: Some(FailureModel::uniform(n, 0.1, 0.0)),
                        faults: death_waves(n, FIRST_DEATH, 25, 2, FIRST_DEATH + epochs, seed),
                        min_delivered: 0.995,
                        max_retry_budget: 10,
                        gate: Some(GatePolicy::default()),
                        ..base_config(k, seed)
                    };
                    (topo, Box::new(source), config)
                }
                Workload::Continuous3k => {
                    let (topo, k) = if fast {
                        (topology::balanced(3, 4), 4)
                    } else {
                        (topology::balanced(3, 7), 10)
                    };
                    let n = topo.len();
                    let source = DriftField::random(n, 40.0..60.0, 1.0..4.0, 0.1, seed ^ 0xc0);
                    let config = ExperimentConfig {
                        budget_mj: 40.0,
                        failures: Some(FailureModel::uniform(n, 0.02, 0.0)),
                        // A drifting node holds one reading for ~10 epochs,
                        // so its window spread is near 0; the σ floor keeps
                        // honest redraws in band.
                        gate: Some(GatePolicy { min_sigma: 5.0, ..GatePolicy::default() }),
                        continuous: Some(ContinuousPolicy {
                            tolerance: 0.0,
                            refresh_period: 25,
                            sketch: Some(SketchPrecision {
                                depth: 18,
                                compression: 1024,
                                lo: 0.0,
                                hi: 100.0,
                            }),
                        }),
                        ..base_config(k, seed)
                    };
                    (topo, Box::new(source), config)
                }
                Workload::ServeMix => unreachable!("serve_mix is not a runner workload"),
            };
        let twin: Box<dyn ValueSource> = match workload {
            Workload::PlanHeavy => Box::new(gaussian(topo.len(), seed)),
            Workload::Lossy30k => Box::new(hot_spots(topo.len(), seed)),
            _ => Box::new(DriftField::random(topo.len(), 40.0..60.0, 1.0..4.0, 0.1, seed ^ 0xc0)),
        };
        debug_assert_eq!(twin.num_nodes(), source.num_nodes());
        let runner = ExperimentRunner::try_new(&topo, energy, planner, config.clone())
            .expect("workload config is valid");
        Classic {
            runner,
            source,
            twin,
            log,
            energy,
            config,
            epoch: 0,
            reported_mj: 0.0,
            reports: Vec::new(),
            keep_reports: false,
            checks: Checks::default(),
        }
    }

    /// The sample window is full and (outside continuous mode) the first
    /// plan is installed: set-up is over.
    pub fn warm(&self) -> bool {
        self.runner.samples().len() == self.config.window
            && (self.config.continuous.is_some() || self.runner.current_plan().is_some())
    }

    /// Runs one epoch through `ExperimentRunner::step`, timing only the
    /// call.
    pub fn step(&mut self) -> Epoch {
        let epoch = self.epoch;
        let calls = self.log.borrow().calls;
        let started = Instant::now();
        let result = self.runner.step(&mut self.source, epoch);
        let wall_ms = ms_since(started);
        self.epoch += 1;
        let planned = self.log.borrow().calls > calls;
        self.account(epoch, result, planned, wall_ms)
    }

    /// Runs one epoch through `ExperimentRunner::step_traced` and then
    /// times direct calls to the layers it used, on the same inputs.
    pub fn step_traced(&mut self, tracer: &mut LayerTracer, probes: &mut Probes) -> Epoch {
        let epoch = self.epoch;
        let calls = self.log.borrow().calls;
        let (chosen, refreshes, since) =
            (tracer.plans_chosen, tracer.full_refreshes, tracer.marks.len());
        let dying = self.config.faults.deaths_at(epoch);
        let before = (!dying.is_empty()).then(|| self.runner.topology().clone());
        let result = self.runner.step_traced(&mut self.source, epoch, tracer);
        self.epoch += 1;
        let wall_ms = tracer.span_ms(since, "epoch_start", "epoch_end").unwrap_or(0.0);
        if let Some(install) = tracer.span_ms(since, "plan_chosen", "plan_installed") {
            probes.install_ms.push(install);
        }
        let planned = self.log.borrow().calls > calls;
        // The timed run labels plan epochs by planner calls; the trace
        // must agree with it through `PlanChosen`, and with the report's
        // refresh flag through `FullRefresh`.
        self.checks.expect(result.is_err() || planned == (tracer.plans_chosen > chosen), || {
            format!("epoch {epoch}: planner calls and PlanChosen events disagree")
        });
        if let Ok(report) = &result {
            let refreshed = tracer.full_refreshes > refreshes;
            self.checks.expect(refreshed == report.full_refresh, || {
                format!("epoch {epoch}: FullRefresh events and the report disagree")
            });
            self.probe(epoch, report, before, &dying, planned, probes);
        }
        self.account(epoch, result, planned, wall_ms)
    }

    fn account(
        &mut self,
        epoch: u64,
        result: Result<EpochReport, prospector_core::PlanError>,
        planned: bool,
        wall_ms: f64,
    ) -> Epoch {
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.checks.expect(false, || format!("epoch {epoch}: plan error {e}"));
                return Epoch { wall_ms, queries: 1, failed: 1, ..Epoch::default() };
            }
        };
        let kind = if report.sampled {
            Kind::Sweep
        } else if report.repaired {
            Kind::Repair
        } else if planned {
            Kind::Plan
        } else if report.full_refresh {
            Kind::Refresh
        } else {
            Kind::Collect
        };
        self.checks.expect((0.0..=1.0).contains(&report.accuracy), || {
            format!("epoch {epoch}: accuracy {} outside [0, 1]", report.accuracy)
        });
        if let Some(state) = self.runner.continuous_state() {
            let k = self.config.k;
            self.checks.expect(state.answer(k) == state.recompute_answer(k), || {
                format!("epoch {epoch}: cached continuous answer differs from a recompute")
            });
            let root = self.runner.topology().root();
            self.checks.expect(state.custody_invariant_holds(self.runner.alive(), root), || {
                format!("epoch {epoch}: continuous custody invariant broken")
            });
        }
        self.reported_mj += report.energy_mj;
        let out = Epoch {
            wall_ms,
            kind,
            queries: 1,
            accuracy_sum: report.accuracy,
            scored: 1,
            energy_mj: report.energy_mj,
            ..Epoch::default()
        };
        if self.keep_reports {
            self.reports.push((kind, report));
        }
        out
    }

    /// Times direct calls to the layers this epoch used, on its inputs
    /// read back through the runner's accessors.
    fn probe(
        &mut self,
        epoch: u64,
        report: &EpochReport,
        before: Option<Topology>,
        dying: &[NodeId],
        planned: bool,
        probes: &mut Probes,
    ) {
        let mut values = self.twin.values(epoch);
        let alive = self.runner.alive();
        for (v, &up) in values.iter_mut().zip(alive) {
            if !up {
                *v = f64::NEG_INFINITY;
            }
        }
        let topo = self.runner.topology();
        let k = self.config.k;
        if let Some(before) = before {
            let t0 = Instant::now();
            black_box(before.repair(dying).expect("the runner repaired the same wave"));
            probes.repair_ms.push(ms_since(t0));
        }
        if report.sampled {
            let mut sweep = Plan::full_sweep(topo);
            for (i, &up) in alive.iter().enumerate() {
                if !up {
                    sweep.set_bandwidth(NodeId::from_index(i), 0);
                }
            }
            let t0 = Instant::now();
            black_box(execute_plan(&sweep, topo, self.energy, &values, k, None));
            probes.sweep_ms.push(ms_since(t0));
            let mut window = self.runner.samples().clone();
            let t0 = Instant::now();
            window.push(values);
            probes.push_ms.push(ms_since(t0));
            black_box(window);
            return;
        }
        let Some(plan) = self.runner.current_plan() else { return };
        let samples = self.runner.samples();
        if planned && !samples.is_empty() {
            let t0 = Instant::now();
            black_box(evaluate::expected_misses_with(plan, topo, samples, POOL_WIDTH));
            probes.evaluate_ms.push(ms_since(t0));
            let t0 = Instant::now();
            black_box(evaluate::expected_misses_with(plan, topo, samples, PAR_WIDTH));
            probes.evaluate_par_ms.push(ms_since(t0));
        }
        let lossy = self.config.failures.as_ref().filter(|f| !f.is_trivial());
        let t0 = Instant::now();
        let collected = match lossy {
            Some(f) => {
                let arq = ArqPolicy { max_retries: report.retry_budget, ..self.config.arq };
                execute_plan_arq(
                    plan,
                    topo,
                    self.energy,
                    &values,
                    k,
                    f,
                    &arq,
                    epoch_seed(self.config.seed, epoch),
                )
            }
            None => execute_plan(plan, topo, self.energy, &values, k, None),
        };
        probes.collect_ms.push(ms_since(t0));
        let t0 = Instant::now();
        black_box(backfill_answer(
            &collected.answer,
            &collected.lost_edges,
            plan,
            topo,
            samples,
            k,
        ));
        probes.backfill_ms.push(ms_since(t0));
    }

    /// Keeps every following epoch's report for the per-layer counts.
    pub fn keep_reports(&mut self) {
        self.keep_reports = true;
    }

    /// End-of-run check: the reported energies add up to the meter.
    pub fn finish(&mut self) {
        let metered = self.runner.meter().total();
        let tolerance = 1e-9 * metered.abs().max(1.0);
        let reported = self.reported_mj;
        self.checks.expect((reported - metered).abs() <= tolerance, || {
            format!("reported energy {reported} mJ differs from the meter's {metered} mJ")
        });
    }

    pub fn is_continuous(&self) -> bool {
        self.config.continuous.is_some()
    }

    /// The reports of the timed epochs kept so far, with their kinds.
    pub fn take_reports(&mut self) -> Vec<(Kind, EpochReport)> {
        std::mem::take(&mut self.reports)
    }
}

/// The per-layer counts of timed epochs: exact functions of the seed,
/// read from the epoch reports.
pub fn report_counts(
    reports: &[(Kind, EpochReport)],
    continuous: bool,
) -> Vec<(&'static str, f64)> {
    let collects: Vec<&EpochReport> =
        reports.iter().filter(|(kind, _)| *kind == Kind::Collect).map(|(_, r)| r).collect();
    let per_collect =
        |f: &dyn Fn(&EpochReport) -> f64| mean(&collects.iter().map(|r| f(r)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&EpochReport) -> f64| reports.iter().map(|(_, r)| f(r)).sum::<f64>();
    let per_epoch = |f: &dyn Fn(&EpochReport) -> f64| {
        mean(&reports.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    let mut out = vec![
        ("sim.install.undelivered", total(&|r| r.install_undelivered as f64)),
        ("sim.backfill.entries", total(&|r| r.backfilled as f64)),
        ("core.gate.flagged", total(&|r| r.flagged as f64)),
    ];
    if continuous {
        out.push(("sim.continuous.deltas_per_epoch", per_epoch(&|r| r.deltas_shipped as f64)));
        out.push(("sim.continuous.messages_per_epoch", per_epoch(&|r| f64::from(r.messages))));
        out.push(("sim.continuous.refreshes", total(&|r| f64::from(u8::from(r.full_refresh)))));
    } else {
        out.push(("sim.collect.retransmissions", per_collect(&|r| f64::from(r.retransmissions))));
        out.push(("sim.collect.lost_edges", per_collect(&|r| r.lost_edges as f64)));
        out.push(("sim.collect.delivered_fraction", per_collect(&|r| r.delivered_fraction)));
    }
    out
}
