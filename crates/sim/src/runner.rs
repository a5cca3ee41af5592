//! Multi-epoch experiment runner: exploration sampling, planning,
//! re-planning, adaptive re-sampling, permanent-failure recovery and
//! per-epoch metrics (Sections 3 and 4.4).
//!
//! Per epoch the runner either spends a full-network sweep to refresh the
//! sample window (the exploration/exploitation scheme) or executes the
//! current plan. Plans are re-optimized at the base station every
//! `replan_every` epochs and **disseminated only if the expected
//! improvement exceeds a threshold** ("Plan Re-calculation", Section 4.4),
//! in which case the installation unicasts are charged. Under
//! [`SamplePolicy::Adaptive`] ("Re-sampling", Section 4.4) some query
//! epochs also run an exact audit of their answer, and its accuracy moves
//! the sampling period.
//!
//! Permanent failures (Section 4.4) come from a [`FaultSchedule`]: the
//! epoch's scheduled deaths go through [`apply_deaths`], the death stage
//! the serving layer shares, which repairs the tree ([`Topology::repair`]),
//! charges detection and re-attachment under [`Phase::Repair`] and masks
//! the dead out of the sample window; the runner then forces a re-plan on
//! the repaired tree. With transient failures configured, plan
//! dissemination itself is lossy: subplan unicasts retry a bounded number
//! of times and nodes that never receive their new subplan keep executing
//! the previous one.

use crate::backfill::{backfill_answer, AnswerEntry};
use crate::continuous::{apply_refresh, run_delta_epoch, run_refresh_epoch, ContinuousState};
use crate::dissemination::{install_plan, install_plan_lossy};
use crate::exact_exec::run_exact;
use crate::exec::{charge_as, charge_sweep, execute_plan_arq_traced, execute_plan_traced};
use crate::trace::charge;
use prospector_ckpt::{Checkpoint, CheckpointPolicy, CheckpointStore, StoreError};
use prospector_core::{
    evaluate, exact::ExactConfig, ContinuousPolicy, GatePolicy, Plan, PlanContext, PlanError,
    Planner, TrustState,
};
use prospector_data::{
    top_k_nodes, Band, BandTable, Reading, SamplePolicy, SampleSet, ValueSource,
};
use prospector_net::{
    epoch_seed, ArqPolicy, EnergyMeter, EnergyModel, FailureModel, FaultSchedule, NodeId, Phase,
    RepairError, Topology,
};
use prospector_obs::{gini, MetricsRegistry, MetricsSnapshot, NullTracer, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Adaptive re-sampling: the sampling period a run starts with and the
/// bounds its audits move it between, in query epochs.
const INITIAL_SWEEP_PERIOD: u64 = 12;
const MIN_SWEEP_PERIOD: u64 = 2;
const MAX_SWEEP_PERIOD: u64 = 48;
/// An audit's phase-1 budget as a multiple of the minimum proof cost.
const AUDIT_BUDGET_FACTOR: f64 = 1.2;

/// Configuration of a multi-epoch experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Top-k parameter.
    pub k: usize,
    /// Sample-window capacity.
    pub window: usize,
    /// When to spend full sweeps on sampling.
    pub policy: SamplePolicy,
    /// Collection-phase energy budget handed to the planner.
    pub budget_mj: f64,
    /// Re-optimize the plan every this many epochs (0 = plan once).
    pub replan_every: u64,
    /// Disseminate a recomputed plan only if it improves expected misses
    /// by at least this much (absolute, in values per query).
    pub replan_threshold: f64,
    /// Optional transient-failure model (used for planning, collection
    /// loss, and lossy plan dissemination).
    pub failures: Option<FailureModel>,
    /// Scheduled permanent failures (node deaths, link degradations).
    pub faults: FaultSchedule,
    /// Retries beyond the first attempt for each subplan unicast when
    /// dissemination is lossy (ignored without a failure model).
    pub install_retries: u32,
    /// Per-hop ARQ policy for collection unicasts when a (non-trivial)
    /// failure model is configured; the reliable path ignores it.
    pub arq: ArqPolicy,
    /// Graceful-degradation threshold: when an epoch's delivered fraction
    /// drops below this, the runner raises the collection retry budget by
    /// one (up to [`ExperimentConfig::max_retry_budget`]) and, once the
    /// budget is maxed out, forces a re-plan so a fallback chain can
    /// route around the bad links. `0.0` disables escalation.
    pub min_delivered: f64,
    /// Ceiling for the escalated collection retry budget.
    pub max_retry_budget: u32,
    /// Optional root-side plausibility gate: delivered readings outside
    /// their sample-window prediction band are substituted with the
    /// prediction, and repeat offenders are quarantined (see
    /// [`GatePolicy`]). Observation-only on honest data: when every
    /// reading stays in-band the run's output is bit-identical to an
    /// ungated one.
    pub gate: Option<GatePolicy>,
    /// Continuous-query mode: query epochs ship deltas against the
    /// policy's tolerance and threshold instead of executing a planner's
    /// collection plan, with periodic/forced full refreshes (see the
    /// [`continuous`](crate::continuous) module). `None` keeps the
    /// classic plan-and-collect mode.
    pub continuous: Option<ContinuousPolicy>,
    /// Seed for failure injection.
    pub seed: u64,
}

/// Why an [`ExperimentConfig`] cannot drive an experiment (see
/// [`ExperimentConfig::validate`]). Catching these at construction turns
/// what used to be downstream panics (a `SampleSet` assert, a division
/// by a zero window) into typed errors at the API boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `k` must be at least 1: a top-0 query answers nothing.
    KTooSmall { k: usize },
    /// `k` cannot exceed the network size.
    KExceedsNodes { k: usize, n: usize },
    /// The sample window must hold at least one sample.
    ZeroWindow,
    /// The planning budget must be finite and non-negative; NaN or an
    /// infinite budget would poison every expected-cost comparison.
    BadBudget { budget_mj: f64 },
    /// `min_delivered` is a fraction and must lie in `[0, 1]`.
    BadMinDelivered { min_delivered: f64 },
    /// The plausibility-gate policy has an invalid knob.
    BadGate { why: String },
    /// The continuous-query policy has an invalid knob.
    BadContinuous { why: String },
    /// The failure model covers `covers` nodes, not the network's `n`.
    FailureModelSize { covers: usize, n: usize },
    /// A fault scheduled for `epoch` names `node`, which is outside the
    /// network of `n` nodes.
    FaultNodeOutOfRange { epoch: u64, node: NodeId, n: usize },
    /// The sampling policy has an invalid knob, or cannot drive the run.
    BadPolicy { why: &'static str },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::KTooSmall { k } => write!(f, "k must be at least 1, got {k}"),
            ConfigError::KExceedsNodes { k, n } => {
                write!(f, "k = {k} exceeds the network size n = {n}")
            }
            ConfigError::ZeroWindow => write!(f, "sample window capacity must be nonzero"),
            ConfigError::BadBudget { budget_mj } => {
                write!(f, "budget must be finite and non-negative, got {budget_mj}")
            }
            ConfigError::BadMinDelivered { min_delivered } => {
                write!(f, "min_delivered must lie in [0, 1], got {min_delivered}")
            }
            ConfigError::BadGate { why } => write!(f, "invalid gate policy: {why}"),
            ConfigError::BadContinuous { why } => {
                write!(f, "invalid continuous policy: {why}")
            }
            ConfigError::FailureModelSize { covers, n } => {
                write!(f, "failure model covers {covers} nodes, the network has {n}")
            }
            ConfigError::FaultNodeOutOfRange { epoch, node, n } => {
                write!(f, "fault at epoch {epoch} names node {}, the network has {n}", node.0)
            }
            ConfigError::BadPolicy { why } => write!(f, "invalid sampling policy: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExperimentConfig {
    /// Checks the configuration against a network of `n` nodes.
    pub fn validate(&self, n: usize) -> Result<(), ConfigError> {
        if self.k < 1 {
            return Err(ConfigError::KTooSmall { k: self.k });
        }
        if self.k > n {
            return Err(ConfigError::KExceedsNodes { k: self.k, n });
        }
        if self.window == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if !self.budget_mj.is_finite() || self.budget_mj < 0.0 {
            return Err(ConfigError::BadBudget { budget_mj: self.budget_mj });
        }
        if !self.min_delivered.is_finite() || !(0.0..=1.0).contains(&self.min_delivered) {
            return Err(ConfigError::BadMinDelivered { min_delivered: self.min_delivered });
        }
        if let Some(gate) = &self.gate {
            gate.validate().map_err(|e| ConfigError::BadGate { why: e.to_string() })?;
        }
        if let Some(cont) = &self.continuous {
            cont.validate().map_err(|e| ConfigError::BadContinuous { why: e.to_string() })?;
        }
        if let Some(f) = self.failures.as_ref().filter(|f| f.len() != n) {
            return Err(ConfigError::FailureModelSize { covers: f.len(), n });
        }
        for epoch in self.faults.epochs() {
            if let Some(e) = self.faults.events_at(epoch).iter().find(|e| e.node().index() >= n) {
                return Err(ConfigError::FaultNodeOutOfRange { epoch, node: e.node(), n });
            }
        }
        let bad = |why| Err(ConfigError::BadPolicy { why });
        match self.policy {
            // NaN or out of range, `should_sample` would silently turn
            // exploration off (or on) every epoch.
            SamplePolicy::Random { prob, .. } if !(0.0..=1.0).contains(&prob) => {
                return bad("prob must lie in [0, 1]");
            }
            SamplePolicy::Adaptive { audit_every, accuracy_floor, .. } => {
                if audit_every == 0 {
                    return bad("audit_every must be at least 1");
                }
                if !(0.0..=1.0).contains(&accuracy_floor) {
                    return bad("accuracy_floor must lie in [0, 1]");
                }
                if self.continuous.is_some() {
                    return bad("audits score planned collections, and continuous mode plans none");
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Why a [`Checkpoint`] could not be resumed into a runner.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The checkpointed configuration fails validation.
    Config(ConfigError),
    /// The checkpoint's pieces disagree with each other (e.g. a sample
    /// window sized for a different network than the topology).
    Inconsistent(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Config(e) => write!(f, "checkpointed config is invalid: {e}"),
            ResumeError::Inconsistent(why) => write!(f, "checkpoint is inconsistent: {why}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A checkpointed run can fail in the epoch loop or at the store.
#[derive(Debug)]
pub enum CheckpointedRunError {
    Plan(PlanError),
    Store(StoreError),
}

impl std::fmt::Display for CheckpointedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointedRunError::Plan(e) => write!(f, "epoch failed: {e}"),
            CheckpointedRunError::Store(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointedRunError {}

/// Planner names a resumed checkpoint may carry. `plan_via` holds a
/// `&'static str` (planner names are compile-time constants); a name
/// deserialized from disk is matched back to the known set, or leaked
/// once for an out-of-tree planner — a bounded leak, since checkpoints
/// are loaded a handful of times per process.
fn intern_planner_name(name: &str) -> &'static str {
    const KNOWN: &[&str] =
        &["greedy", "lp+lf", "lp-lf(-)", "naive-k", "prospector-proof", "fallback", "FAILING"];
    KNOWN
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or_else(|| Box::leak(name.to_string().into_boxed_str()))
}

/// What happened during one epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    pub epoch: u64,
    /// This epoch was spent on a full sampling sweep.
    pub sampled: bool,
    /// A new plan was disseminated this epoch.
    pub replanned: bool,
    /// Fraction of the true top k returned (sampling sweeps are exact).
    /// After deaths, truth is the top k over surviving nodes.
    pub accuracy: f64,
    /// Energy spent this epoch (mJ), all phases.
    pub energy_mj: f64,
    /// Nodes that permanently failed at the start of this epoch.
    pub deaths: Vec<NodeId>,
    /// The spanning tree was rebuilt this epoch.
    pub repaired: bool,
    /// Name of the planner that produced the plan in force this epoch,
    /// when it was not the chain's primary (see [`Planner::plan_traced`]);
    /// `None` while the primary planner is holding up.
    pub fallback_used: Option<&'static str>,
    /// Used edges whose batch was lost after exhausting the ARQ budget.
    pub lost_edges: usize,
    /// Collection retransmissions this epoch (attempts beyond the first).
    pub retransmissions: u32,
    /// Fraction of plan-visited nodes whose batch reached the root.
    pub delivered_fraction: f64,
    /// Answer entries backfilled from window predictions (estimated, not
    /// observed).
    pub backfilled: usize,
    /// Collection retry budget in force this epoch (may exceed the
    /// configured `arq.max_retries` after escalations).
    pub retry_budget: u32,
    /// Subplan unicasts that exhausted dissemination retries this epoch
    /// (0 when no plan was installed).
    pub install_undelivered: usize,
    /// Readings the plausibility gate replaced with window predictions
    /// this epoch (out-of-band, or held back by quarantine). Always 0
    /// without a [`ExperimentConfig::gate`].
    pub flagged: usize,
    /// Nodes in quarantine at the end of this epoch.
    pub quarantined: usize,
    /// Nodes that completed parole and were readmitted this epoch.
    pub readmitted: usize,
    /// Deltas the root applied to its cached view this epoch. Always 0
    /// outside continuous mode and on full-refresh epochs.
    pub deltas_shipped: usize,
    /// This epoch re-collected the whole network (continuous mode: a
    /// forced/periodic refresh or an exploration sweep). Always false
    /// outside continuous mode.
    pub full_refresh: bool,
    /// Radio transmissions this epoch (data messages, beacons, retries,
    /// acks, trigger and threshold broadcasts). Counted only by the
    /// continuous protocol paths — 0 in classic mode and on continuous
    /// exploration sweeps, whose cost is tracked in energy terms only.
    pub messages: u32,
    /// Cumulative metrics snapshot at the end of this epoch; present only
    /// after [`ExperimentRunner::enable_metrics`]. Snapshots may carry
    /// wall-clock measurements (plan latency) and are never part of the
    /// deterministic trace.
    pub metrics: Option<MetricsSnapshot>,
}

/// Per-epoch tally of plausibility-gate interventions.
#[derive(Debug, Clone, Copy, Default)]
struct GateTally {
    /// Readings replaced with window predictions.
    substituted: usize,
    /// Nodes readmitted from quarantine.
    readmitted: usize,
}

/// Drives a planner over a value source for many epochs.
pub struct ExperimentRunner<'a> {
    /// Owned: permanent failures rewrite the tree mid-run.
    topology: Topology,
    energy: &'a EnergyModel,
    planner: &'a dyn Planner,
    config: ExperimentConfig,
    samples: SampleSet,
    plan: Option<Plan>,
    /// Provenance of the currently installed plan (planner name, depth).
    plan_via: Option<(&'static str, usize)>,
    /// Epoch of the last plan recalculation (None before the first).
    last_replan: Option<u64>,
    /// The sampling period, in query epochs, as audits have set it; only
    /// [`SamplePolicy::Adaptive`] reads it.
    sweep_period: u64,
    /// Query epochs run since the last sweep.
    since_sweep: u64,
    /// Owned: link degradations worsen edges mid-run.
    failures: Option<FailureModel>,
    /// Collection ARQ policy currently in force; starts at the configured
    /// policy and escalates when delivery degrades.
    arq: ArqPolicy,
    /// `alive[i]` is false once node i has permanently failed.
    alive: Vec<bool>,
    /// Per-node plausibility-gate trust state; stays all-default without
    /// a gate policy (and on honest data with one).
    trust: Vec<TrustState>,
    /// Continuous-protocol state, present exactly when
    /// [`ExperimentConfig::continuous`] is.
    cont: Option<ContinuousState>,
    /// Continuous mode only: the gate bands of the window whose
    /// [`SampleSet::generation`] is paired with them. Every continuous
    /// epoch audits the whole view, and between sweeps the window does
    /// not change, so one table serves many epochs.
    bands: Option<(u64, BandTable)>,
    meter: EnergyMeter,
    rng: StdRng,
    /// Aggregate metrics; populated only after
    /// [`ExperimentRunner::enable_metrics`].
    metrics: Option<MetricsRegistry>,
    /// The epoch the next [`ExperimentRunner::run_to`] call starts at:
    /// one past the last completed epoch (0 for a fresh runner).
    next_epoch: u64,
}

impl<'a> ExperimentRunner<'a> {
    /// Builds a runner, panicking on an invalid configuration. Callers
    /// that want the error instead use [`ExperimentRunner::try_new`].
    pub fn new(
        topology: &Topology,
        energy: &'a EnergyModel,
        planner: &'a dyn Planner,
        config: ExperimentConfig,
    ) -> Self {
        Self::try_new(topology, energy, planner, config)
            .unwrap_or_else(|e| panic!("invalid experiment config: {e}"))
    }

    /// Builds a runner after validating `config` against the topology.
    pub fn try_new(
        topology: &Topology,
        energy: &'a EnergyModel,
        planner: &'a dyn Planner,
        config: ExperimentConfig,
    ) -> Result<Self, ConfigError> {
        config.validate(topology.len())?;
        let samples = SampleSet::new(topology.len(), config.k, config.window);
        let rng = StdRng::seed_from_u64(config.seed);
        let failures = config.failures.clone();
        let arq = config.arq;
        Ok(ExperimentRunner {
            topology: topology.clone(),
            energy,
            planner,
            samples,
            plan: None,
            plan_via: None,
            last_replan: None,
            sweep_period: INITIAL_SWEEP_PERIOD,
            since_sweep: 0,
            failures,
            arq,
            alive: vec![true; topology.len()],
            trust: vec![TrustState::default(); topology.len()],
            cont: config.continuous.as_ref().map(|_| ContinuousState::new(topology.len())),
            bands: None,
            meter: EnergyMeter::new(topology.len()),
            rng,
            metrics: None,
            config,
            next_epoch: 0,
        })
    }

    /// Captures the full resumable state at the current epoch boundary.
    ///
    /// The capture is pure observation — it consumes no randomness and
    /// mutates nothing — so a run that checkpoints every epoch produces
    /// traces byte-identical to one that never checkpoints.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            next_epoch: self.next_epoch,
            k: self.config.k,
            window: self.config.window,
            policy: self.config.policy.clone(),
            budget_mj: self.config.budget_mj,
            replan_every: self.config.replan_every,
            replan_threshold: self.config.replan_threshold,
            config_failures: self.config.failures.clone(),
            faults: self.config.faults.clone(),
            install_retries: self.config.install_retries,
            config_arq: self.config.arq,
            min_delivered: self.config.min_delivered,
            max_retry_budget: self.config.max_retry_budget,
            gate: self.config.gate,
            continuous: self.config.continuous,
            seed: self.config.seed,
            topology: self.topology.clone(),
            alive: self.alive.clone(),
            trust: self.trust.clone(),
            samples: self.samples.clone(),
            meter: self.meter.clone(),
            plan: self.plan.clone(),
            plan_via: self.plan_via.map(|(name, depth)| (name.to_string(), depth as u64)),
            last_replan: self.last_replan,
            sweep_period: self.sweep_period,
            since_sweep: self.since_sweep,
            failures: self.failures.clone(),
            arq: self.arq,
            rng_state: self.rng.state(),
            metrics: self.metrics.as_ref().map(|m| m.snapshot()),
            cont_state: self.cont.as_ref().map(ContinuousState::to_image),
        }
    }

    /// Rebuilds a runner from a checkpoint. The energy model and planner
    /// are borrowed anew (they are stateless, so they need not be — and
    /// cannot be — serialized); everything else comes from the image.
    /// The resumed runner's next [`ExperimentRunner::run_to`] continues
    /// at `ckpt.next_epoch` and replays the uninterrupted run exactly,
    /// provided the value source is epoch-deterministic (stateless per
    /// epoch, like `IndependentGaussian` — a stateful source such as
    /// `RandomWalk` must be fast-forwarded by the caller).
    pub fn resume(
        ckpt: Checkpoint,
        energy: &'a EnergyModel,
        planner: &'a dyn Planner,
    ) -> Result<Self, ResumeError> {
        let config = ExperimentConfig {
            k: ckpt.k,
            window: ckpt.window,
            policy: ckpt.policy,
            budget_mj: ckpt.budget_mj,
            replan_every: ckpt.replan_every,
            replan_threshold: ckpt.replan_threshold,
            failures: ckpt.config_failures,
            faults: ckpt.faults,
            install_retries: ckpt.install_retries,
            arq: ckpt.config_arq,
            min_delivered: ckpt.min_delivered,
            max_retry_budget: ckpt.max_retry_budget,
            gate: ckpt.gate,
            continuous: ckpt.continuous,
            seed: ckpt.seed,
        };
        let n = ckpt.topology.len();
        config.validate(n).map_err(ResumeError::Config)?;
        let inconsistent = |why: String| Err(ResumeError::Inconsistent(why));
        if ckpt.samples.num_nodes() != n {
            return inconsistent(format!(
                "sample window covers {} nodes, topology has {n}",
                ckpt.samples.num_nodes()
            ));
        }
        if ckpt.samples.k() != config.k || ckpt.samples.capacity() != config.window {
            return inconsistent(format!(
                "sample window is (k={}, capacity={}), config says (k={}, window={})",
                ckpt.samples.k(),
                ckpt.samples.capacity(),
                config.k,
                config.window
            ));
        }
        if ckpt.alive.len() != n {
            return inconsistent(format!(
                "alive mask covers {} nodes, topology has {n}",
                ckpt.alive.len()
            ));
        }
        if ckpt.trust.len() != n {
            return inconsistent(format!(
                "trust state covers {} nodes, topology has {n}",
                ckpt.trust.len()
            ));
        }
        if ckpt.meter.node_totals().len() != n {
            return inconsistent(format!(
                "meter covers {} nodes, topology has {n}",
                ckpt.meter.node_totals().len()
            ));
        }
        if let Some(f) = &ckpt.failures {
            if f.len() != n {
                return inconsistent(format!(
                    "failure model covers {} nodes, topology has {n}",
                    f.len()
                ));
            }
        }
        if !(MIN_SWEEP_PERIOD..=MAX_SWEEP_PERIOD).contains(&ckpt.sweep_period) {
            return inconsistent(format!("sampling period {} is out of range", ckpt.sweep_period));
        }
        let cont = match (&config.continuous, ckpt.cont_state) {
            (Some(_), Some(img)) => {
                if img.view.len() != n {
                    return inconsistent(format!(
                        "continuous state covers {} nodes, topology has {n}",
                        img.view.len()
                    ));
                }
                Some(ContinuousState::from_image(img).map_err(ResumeError::Inconsistent)?)
            }
            (Some(_), None) => {
                return inconsistent(
                    "config is continuous but the checkpoint has no protocol state".to_string(),
                )
            }
            (None, Some(_)) => {
                return inconsistent(
                    "checkpoint carries continuous state but the config is not continuous"
                        .to_string(),
                )
            }
            (None, None) => None,
        };
        Ok(ExperimentRunner {
            topology: ckpt.topology,
            energy,
            planner,
            samples: ckpt.samples,
            plan: ckpt.plan,
            plan_via: ckpt
                .plan_via
                .map(|(name, depth)| (intern_planner_name(&name), depth as usize)),
            last_replan: ckpt.last_replan,
            sweep_period: ckpt.sweep_period,
            since_sweep: ckpt.since_sweep,
            failures: ckpt.failures,
            arq: ckpt.arq,
            alive: ckpt.alive,
            trust: ckpt.trust,
            cont,
            bands: None,
            meter: ckpt.meter,
            rng: StdRng::from_state(ckpt.rng_state),
            metrics: ckpt.metrics.as_ref().map(MetricsRegistry::from_snapshot),
            config,
            next_epoch: ckpt.next_epoch,
        })
    }

    /// Turns on aggregate metrics: every subsequent epoch updates the
    /// registry and embeds a cumulative [`MetricsSnapshot`] in its report.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(MetricsRegistry::new());
    }

    /// The metrics registry, if [`ExperimentRunner::enable_metrics`] was
    /// called.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Collection ARQ policy currently in force (reflects escalations).
    pub fn arq(&self) -> ArqPolicy {
        self.arq
    }

    /// Cumulative energy across all epochs run so far.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The currently installed plan, if any.
    pub fn current_plan(&self) -> Option<&Plan> {
        self.plan.as_ref()
    }

    /// Current sample window (for inspection).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// The routing tree as currently repaired.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-node liveness (false once permanently failed).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    fn plan_context(&self) -> PlanContext<'_> {
        let mut ctx =
            PlanContext::new(&self.topology, self.energy, &self.samples, self.config.budget_mj);
        if let Some(f) = &self.failures {
            // Edge costs price the ARQ policy collection will actually run
            // under (including escalations), steering plans around bad
            // links.
            ctx = ctx.with_failures(f).with_arq(self.arq);
        }
        ctx
    }

    /// Applies the faults scheduled for `epoch`: the death stage, which
    /// also discards the plan routing through the dead, then link
    /// degradations (a run without a failure model has no link loss to
    /// worsen). Returns the nodes that died.
    fn apply_faults(
        &mut self,
        epoch: u64,
        epoch_meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> Result<Vec<NodeId>, PlanError> {
        let deaths = apply_deaths(
            &self.config.faults.deaths_at(epoch),
            &mut self.topology,
            &mut self.alive,
            &mut self.samples,
            self.energy,
            epoch_meter,
            tracer,
        )?;
        if !deaths.is_empty() {
            // The old plan routes through the dead node; discard it and
            // re-plan on the repaired tree immediately.
            self.plan = None;
            self.plan_via = None;
            self.last_replan = None;
        }
        for (child, added) in self.config.faults.degradations_at(epoch) {
            if let Some(f) = self.failures.as_mut() {
                // `validate` sized the model to the network and kept the
                // schedule inside it; the schedule checked the probability.
                f.degrade(child, added).expect("validated degradation");
                if tracer.enabled() {
                    tracer.record(TraceEvent::LinkDegraded { child: child.0, added });
                }
            }
        }
        Ok(deaths)
    }

    /// Runs one epoch against `source`, returning what happened.
    pub fn step<S: ValueSource>(
        &mut self,
        source: &mut S,
        epoch: u64,
    ) -> Result<EpochReport, PlanError> {
        self.step_traced(source, epoch, &mut NullTracer)
    }

    /// [`ExperimentRunner::step`] with tracing: the epoch's event stream
    /// is recorded between `EpochStart` and `EpochEnd` brackets. Every
    /// field of every event is a pure function of seeded state, so with a
    /// fixed seed the stream is byte-identical across runs and thread
    /// counts once serialized.
    pub fn step_traced<S: ValueSource>(
        &mut self,
        source: &mut S,
        epoch: u64,
        tracer: &mut dyn Tracer,
    ) -> Result<EpochReport, PlanError> {
        if tracer.enabled() {
            tracer.record(TraceEvent::EpochStart { epoch });
        }
        let mut values = source.values(epoch);
        let k = self.config.k;
        let mut epoch_meter = EnergyMeter::new(self.topology.len());

        let deaths = self.apply_faults(epoch, &mut epoch_meter, tracer)?;
        if let Some(cont) = self.cont.as_mut() {
            // Custody held at a dead node dies with it; scrubbing here
            // (before any transport) keeps the repair-forced refresh the
            // only thing that can re-learn the lost subtree.
            cont.on_deaths(&deaths);
        }
        mask_dead_values(&mut values, &self.alive);

        // Data faults corrupt readings where they are sourced, after death
        // masking (a dead sensor reports nothing, corrupted or not), so
        // every execution path below sees the same lies. The clean copy is
        // the ground truth accuracy is scored against; without data faults
        // the truth is `values` itself and no copy is taken.
        let clean = self.config.faults.has_data_faults().then(|| values.clone());
        for f in self.config.faults.corrupt_values(epoch, &mut values) {
            if tracer.enabled() {
                tracer.record(TraceEvent::DataFault {
                    node: f.node.0,
                    kind: f.kind,
                    clean: f.clean,
                    corrupted: f.corrupted,
                });
            }
        }

        // The sampling stage, for every policy: a full sweep feeds the
        // window and answers exactly.
        let sweep = self.config.policy.should_sample(epoch, self.since_sweep, self.sweep_period);
        self.since_sweep = if sweep { 0 } else { self.since_sweep + 1 };
        if sweep {
            charge_sweep(
                &self.topology,
                &self.alive,
                self.energy,
                &values,
                &mut epoch_meter,
                tracer,
            );
            // Root-side gate on the sweep: implausible readings feed the
            // window (and the answer) as predictions, so a lying sensor
            // cannot poison the very history it is judged against.
            let raw = self.cont.is_some().then(|| values.clone());
            let mut gated = GateTally::default();
            if let Some(policy) = self.config.gate {
                gated = self.gate_sweep(epoch, &mut values, &policy, tracer);
            }
            // In continuous mode a sweep delivers every alive reading, so
            // it doubles as a free full refresh: the view re-seeds from
            // the raw (pre-gate) reported values — exactly what nodes
            // would ship — while the answer takes the gated ones.
            let cont_messages = match raw {
                Some(raw) => {
                    self.continuous_after_sweep(epoch, &raw, &values, &mut epoch_meter, tracer)
                }
                None => 0,
            };
            self.meter.merge(&epoch_meter);
            // Sweeps answer exactly over what the network reports; with
            // data faults in play, score the (gated) report against the
            // clean truth instead of hard-coding exactness.
            let accuracy = match &clean {
                None => 1.0,
                Some(clean_values) => {
                    let truth = top_k_nodes(clean_values, k);
                    let answered = top_k_nodes(&values, k);
                    answered.iter().filter(|n| truth.contains(n)).count() as f64 / k as f64
                }
            };
            self.samples.push(values);
            let report = EpochReport {
                sampled: true,
                full_refresh: self.cont.is_some(),
                messages: cont_messages,
                ..self.report(epoch, accuracy, deaths, gated, &epoch_meter)
            };
            return Ok(self.finish_epoch(report, tracer));
        }

        // Continuous query epochs bypass planning and plan execution
        // entirely (and need no samples: without a window the gate simply
        // abstains, and thresholds come from the protocol itself).
        if self.cont.is_some() {
            let report = self.continuous_query_epoch(
                epoch,
                &values,
                clean.as_deref(),
                deaths,
                &mut epoch_meter,
                tracer,
            );
            return Ok(self.finish_epoch(report, tracer));
        }

        if self.samples.is_empty() {
            return Err(PlanError::NoSamples);
        }

        // (Re-)planning. The cadence counts epochs since the last
        // recalculation: a plain `epoch % replan_every` silently collides
        // with the sampling period (those epochs return early above) and
        // can starve replanning entirely.
        let mut replanned = false;
        let mut install_undelivered = 0usize;
        let due = self.plan.is_none()
            || (self.config.replan_every > 0
                && self.last_replan.is_none_or(|lr| epoch - lr >= self.config.replan_every));
        if due {
            self.last_replan = Some(epoch);
            // Plan latency is wall-clock and lives only in the metrics
            // registry, never in the trace.
            let plan_start = self.metrics.is_some().then(Instant::now);
            let traced = {
                let ctx = self.plan_context();
                self.planner.plan_traced(&ctx)?
            };
            if let (Some(m), Some(t0)) = (self.metrics.as_mut(), plan_start) {
                m.observe("plan_latency_ms", t0.elapsed().as_secs_f64() * 1e3);
                if let Some(lp) = &traced.lp {
                    m.observe("lp_iterations", lp.iterations as f64);
                }
            }
            let mut candidate = traced.plan;
            // A planner that ignores samples (e.g. NAIVE-k as the last
            // fallback) may still route dead parked leaves; strip them.
            mask_dead_edges(&mut candidate, &self.topology, &self.alive);
            let install = match &self.plan {
                None => true,
                Some(current) => {
                    // Scored by the rank-order claiming kernel over the
                    // window's stored top-k sets (O(k·depth) per sample),
                    // so this comparison stays cheap at 50k nodes.
                    let cur = evaluate::expected_misses(current, &self.topology, &self.samples);
                    let new = evaluate::expected_misses(&candidate, &self.topology, &self.samples);
                    cur - new >= self.config.replan_threshold
                }
            };
            if tracer.enabled() {
                for a in &traced.attempts {
                    tracer.record(TraceEvent::PlanAttempt {
                        planner: a.planner,
                        error: a.error.clone(),
                    });
                }
                tracer.record(TraceEvent::PlanChosen {
                    planner: traced.planner,
                    fallback_depth: traced.fallback_depth as u32,
                    lp_iterations: traced.lp.as_ref().map(|s| s.iterations as u64),
                    lp_objective: traced.lp.as_ref().map(|s| s.objective),
                    cost_mj: self.plan_context().plan_cost(&candidate),
                    total_bandwidth: candidate.total_bandwidth(),
                    installed: install,
                });
            }
            if install {
                let used_edges =
                    self.topology.edges().filter(|&e| candidate.is_used(e)).count() as u32;
                let (install_meter, undelivered, attempts) = match &self.failures {
                    Some(f) if !f.is_trivial() => {
                        let (meter, delivery) = install_plan_lossy(
                            &candidate,
                            &self.topology,
                            self.energy,
                            f,
                            &mut self.rng,
                            self.config.install_retries,
                            tracer,
                        );
                        (meter, delivery.undelivered, delivery.attempts)
                    }
                    _ => {
                        let meter = install_plan(&candidate, &self.topology, self.energy, tracer);
                        (meter, Vec::new(), used_edges)
                    }
                };
                epoch_meter.merge(&install_meter);
                install_undelivered = undelivered.len();
                if tracer.enabled() {
                    tracer.record(TraceEvent::PlanInstalled {
                        edges: used_edges,
                        undelivered: install_undelivered as u32,
                        attempts,
                    });
                }
                if !undelivered.is_empty() {
                    // Nodes that never heard the new subplan keep executing
                    // their old one.
                    for &e in &undelivered {
                        let old = self.plan.as_ref().map_or(0, |p| p.bandwidth(e));
                        candidate.set_bandwidth(e, old);
                    }
                    candidate.repair_connectivity(&self.topology);
                    mask_dead_edges(&mut candidate, &self.topology, &self.alive);
                }
                self.plan = Some(candidate);
                self.plan_via = Some((traced.planner, traced.fallback_depth));
                replanned = true;
            }
        }

        let plan = self.plan.as_ref().expect("plan exists after planning step");
        let retry_budget = self.arq.max_retries;
        // With lossy links, collection runs real per-hop delivery: every
        // upward batch is retried under the ARQ policy and a hop that
        // exhausts its budget loses its subtree's batch. Loss-free runs
        // keep the exact reliable path (and its energy accounting,
        // byte-for-byte).
        let report = match &self.failures {
            Some(f) if !f.is_trivial() => execute_plan_arq_traced(
                plan,
                &self.topology,
                self.energy,
                &values,
                k,
                f,
                &self.arq,
                epoch_seed(self.config.seed, epoch),
                tracer,
            ),
            _ => execute_plan_traced(plan, &self.topology, self.energy, &values, k, None, tracer),
        };
        epoch_meter.merge(&report.meter);

        // Root-side plausibility gate: delivered readings outside their
        // prediction band are flagged and replaced with the window
        // prediction (the backfill estimated-entry convention); nodes in
        // quarantine are substituted unconditionally until parole.
        let mut kept: Vec<Reading> = Vec::new();
        let mut substituted: Vec<AnswerEntry> = Vec::new();
        let mut gated = GateTally::default();
        if let Some(policy) = self.config.gate {
            for &reading in &report.answer {
                let band = node_band(&self.samples, reading.node, &policy);
                match self.gate_reading(reading, band, epoch, &policy, &mut gated, tracer) {
                    Some(prediction) => {
                        substituted.push(AnswerEntry { reading: prediction, estimated: true })
                    }
                    None => kept.push(reading),
                }
            }
        }
        let answer: &[Reading] = if self.config.gate.is_some() { &kept } else { &report.answer };
        // Re-borrow: gating above needed `&mut self`.
        let plan = self.plan.as_ref().expect("plan exists after planning step");

        // Graceful degradation at the root: estimate lost subtrees from
        // the sample window and answer over delivered + backfilled (+
        // gate-substituted) entries.
        let mut entries =
            backfill_answer(answer, &report.lost_edges, plan, &self.topology, &self.samples, k);
        if !substituted.is_empty() {
            // Substituted entries compete by rank exactly like backfilled
            // ones.
            entries.extend(substituted.iter().copied());
            entries.sort_unstable_by(|a, b| a.reading.rank_cmp(&b.reading));
            entries.truncate(k);
        }
        // `Backfill` events are owed only to window estimates that survive
        // the final cut, not to gate substitutes.
        let is_backfill = |e: &&AnswerEntry| {
            e.estimated && !substituted.iter().any(|s| s.reading.node == e.reading.node)
        };
        if tracer.enabled() {
            for e in entries.iter().filter(is_backfill) {
                tracer.record(TraceEvent::Backfill {
                    node: e.reading.node.0,
                    predicted: e.reading.value,
                });
            }
        }
        let backfilled = entries.iter().filter(is_backfill).count();
        let truth = top_k_nodes(clean.as_deref().unwrap_or(&values), k);
        let hits = entries.iter().filter(|e| truth.contains(&e.reading.node)).count();

        if let SamplePolicy::Adaptive { audit_every, accuracy_floor, .. } = self.config.policy {
            if epoch.is_multiple_of(audit_every) {
                self.audit(&values, &entries, accuracy_floor, &mut epoch_meter, tracer)?;
            }
        }
        self.meter.merge(&epoch_meter);

        // Adaptive reliability, once the retry budget is maxed out: force
        // a re-plan so a fallback chain can route around the loss (edge
        // costs in `plan_context` already price the current ARQ).
        if self.escalate_retries(report.delivered_fraction, "forced_replans", tracer) {
            self.plan = None;
            self.last_replan = None;
            if tracer.enabled() {
                tracer.record(TraceEvent::ReplanForced {
                    delivered_fraction: report.delivered_fraction,
                });
            }
        }

        let report = EpochReport {
            replanned,
            lost_edges: report.lost_edges.len(),
            retransmissions: report.retransmissions,
            delivered_fraction: report.delivered_fraction,
            backfilled,
            retry_budget,
            install_undelivered,
            ..self.report(epoch, hits as f64 / k as f64, deaths, gated, &epoch_meter)
        };
        Ok(self.finish_epoch(report, tracer))
    }

    /// The continuous-protocol state, when the run is in continuous mode.
    pub fn continuous_state(&self) -> Option<&ContinuousState> {
        self.cont.as_ref()
    }

    /// Runs one continuous-mode query epoch: either a full refresh (first
    /// epoch, death repair, untrusted silence, or the refresh period) or
    /// a delta epoch, followed by the root-side view audit, the cached
    /// answer patch and the threshold broadcast.
    #[allow(clippy::too_many_arguments)]
    fn continuous_query_epoch(
        &mut self,
        epoch: u64,
        values: &[f64],
        clean: Option<&[f64]>,
        deaths: Vec<NodeId>,
        epoch_meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> EpochReport {
        let k = self.config.k;
        let policy = self.config.continuous.expect("continuous mode");
        let mut state = self.cont.take().expect("continuous mode");
        let retry_budget = self.arq.max_retries;
        let seed = epoch_seed(self.config.seed, epoch);

        // Refresh-reason precedence: a run must start with one; deaths
        // invalidate custody and silence alike; a lost beacon (or maxed
        // escalation) means silence can't be trusted; then the period.
        let refresh_reason: Option<&'static str> = if state.last_refresh().is_none() {
            Some("first")
        } else if !deaths.is_empty() {
            Some("repair")
        } else if state.force_refresh() {
            Some("loss")
        } else if epoch - state.last_refresh().expect("checked above") >= policy.refresh_period {
            Some("period")
        } else {
            None
        };

        let (deltas_shipped, lost_edges, retransmissions, delivered_fraction, mut messages);
        let full_refresh = refresh_reason.is_some();
        if let Some(reason) = refresh_reason {
            if tracer.enabled() {
                tracer.record(TraceEvent::FullRefresh { reason });
            }
            let out = run_refresh_epoch(
                &mut state,
                &self.topology,
                &self.alive,
                self.energy,
                values,
                policy.sketch,
                self.failures.as_ref(),
                &self.arq,
                seed,
                epoch_meter,
                tracer,
            );
            state.set_last_refresh(epoch);
            state.set_force_refresh(false);
            deltas_shipped = 0;
            lost_edges = out.lost_edges.len();
            retransmissions = out.retransmissions;
            delivered_fraction = out.delivered_fraction;
            messages = out.messages;
        } else {
            let out = run_delta_epoch(
                &mut state,
                &self.topology,
                &self.alive,
                self.energy,
                values,
                policy.tolerance,
                self.failures.as_ref(),
                &self.arq,
                seed,
                epoch,
                epoch_meter,
                tracer,
            );
            if out.beacon_lost {
                state.set_force_refresh(true);
            }
            deltas_shipped = out.applied.len();
            lost_edges = out.lost_edges.len();
            retransmissions = out.retransmissions;
            delivered_fraction = out.delivered_fraction;
            messages = out.messages;
        }

        // Root-side audit: gate the *whole* cached view every epoch (not
        // just what moved), so trust evolves identically whether a value
        // arrived this epoch or is being carried forward — the property
        // the delta-vs-refresh-every-epoch equivalence tests pin down.
        let mut gated = GateTally::default();
        if let Some(gate_policy) = self.config.gate {
            let bands = self.window_bands(&gate_policy);
            for i in 0..self.topology.len() {
                if !self.alive[i] {
                    continue;
                }
                let v = state.view()[i];
                if !v.is_finite() {
                    continue;
                }
                let node = NodeId::from_index(i);
                let reading = Reading { node, value: v };
                let band = bands.get(node);
                let substitute =
                    self.gate_reading(reading, band, epoch, &gate_policy, &mut gated, tracer);
                state.set_eff(i, substitute.map_or(v, |prediction| prediction.value));
            }
            self.bands = Some((self.samples.generation(), bands));
        } else {
            for i in 0..self.topology.len() {
                if self.alive[i] {
                    state.set_eff(i, state.view()[i]);
                }
            }
        }

        let answer = state.answer(k);
        let truth = top_k_nodes(clean.unwrap_or(values), k);
        let hits = answer.iter().filter(|r| truth.contains(&r.node)).count();
        messages += self.continuous_update_threshold(&mut state, policy, epoch_meter, tracer);

        // Adaptive reliability, continuous flavour: once the retry budget
        // is maxed, the next epoch re-learns the network with a forced
        // refresh instead of re-planning.
        if self.escalate_retries(delivered_fraction, "forced_refreshes", tracer) {
            state.set_force_refresh(true);
        }

        self.cont = Some(state);
        self.meter.merge(epoch_meter);
        EpochReport {
            lost_edges,
            retransmissions,
            delivered_fraction,
            retry_budget,
            deltas_shipped,
            full_refresh,
            messages,
            ..self.report(epoch, hits as f64 / k as f64, deaths, gated, epoch_meter)
        }
    }

    /// The audit stage (Section 4.4, "Re-sampling"): `ProspectorExact` on
    /// reliable links, billed under [`Phase::Sampling`], scores `answer`.
    /// A score below `accuracy_floor` halves the sampling period; any
    /// other lengthens it by a quarter, plus one.
    fn audit(
        &mut self,
        values: &[f64],
        answer: &[AnswerEntry],
        accuracy_floor: f64,
        epoch_meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> Result<(), PlanError> {
        let k = self.config.k;
        let ctx = PlanContext::new(&self.topology, self.energy, &self.samples, 0.0);
        let budget = ctx.min_proof_cost() * AUDIT_BUDGET_FACTOR;
        let phase1 = ExactConfig { phase1_budget_mj: budget }.plan_phase1(&ctx)?;
        let exact = run_exact(&phase1, &self.topology, self.energy, values, k, None);
        charge_as(epoch_meter, &exact.meter, Phase::Sampling, tracer);
        let hits =
            answer.iter().filter(|e| exact.answer.iter().any(|r| r.node == e.reading.node)).count();
        let accuracy = hits as f64 / k as f64;
        let p = self.sweep_period;
        self.sweep_period = if accuracy < accuracy_floor {
            (p / 2).max(MIN_SWEEP_PERIOD)
        } else {
            (p + p / 4 + 1).min(MAX_SWEEP_PERIOD)
        };
        if tracer.enabled() {
            tracer.record(TraceEvent::Audit { accuracy, period: self.sweep_period });
        }
        Ok(())
    }

    /// Adaptive reliability: when an epoch heard from less of the network
    /// than `min_delivered`, spend one more retry per hop. Returns true
    /// (counting `fallback_metric`) when the budget is already maxed out
    /// and the caller must fall back instead.
    fn escalate_retries(
        &mut self,
        delivered_fraction: f64,
        fallback_metric: &str,
        tracer: &mut dyn Tracer,
    ) -> bool {
        if self.config.min_delivered <= 0.0 || delivered_fraction >= self.config.min_delivered {
            return false;
        }
        let escalate = self.arq.max_retries < self.config.max_retry_budget;
        if escalate {
            self.arq.max_retries += 1;
            if tracer.enabled() {
                tracer.record(TraceEvent::RetryEscalated { max_retries: self.arq.max_retries });
            }
        }
        if let Some(m) = self.metrics.as_mut() {
            m.count(if escalate { "retry_escalations" } else { fallback_metric }, 1);
        }
        !escalate
    }

    /// An epoch's report with the fields every kind of epoch fills alike;
    /// each kind overrides what it measured.
    fn report(
        &self,
        epoch: u64,
        accuracy: f64,
        deaths: Vec<NodeId>,
        gated: GateTally,
        epoch_meter: &EnergyMeter,
    ) -> EpochReport {
        EpochReport {
            epoch,
            sampled: false,
            replanned: false,
            accuracy,
            energy_mj: epoch_meter.total(),
            repaired: !deaths.is_empty(),
            deaths,
            fallback_used: self.fallback_used(),
            lost_edges: 0,
            retransmissions: 0,
            delivered_fraction: 1.0,
            backfilled: 0,
            retry_budget: self.arq.max_retries,
            install_undelivered: 0,
            flagged: gated.substituted,
            quarantined: self.quarantined_count(),
            readmitted: gated.readmitted,
            deltas_shipped: 0,
            full_refresh: false,
            messages: 0,
            metrics: None,
        }
    }

    /// Folds an exploration sweep's delivered values into the continuous
    /// state as a free full refresh (reason `"sweep"`): the raw reported
    /// values re-seed view and last-shipped (superseding custody), the
    /// gated values become the effective answer, sketches rebuild, and
    /// the threshold updates. Returns the messages charged (sketch
    /// uplinks + threshold broadcasts).
    fn continuous_after_sweep(
        &mut self,
        epoch: u64,
        raw: &[f64],
        gated_values: &[f64],
        epoch_meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> u32 {
        let policy = self.config.continuous.expect("continuous mode");
        let mut state = self.cont.take().expect("continuous mode");
        if tracer.enabled() {
            tracer.record(TraceEvent::FullRefresh { reason: "sweep" });
        }
        // Every alive node's reading was delivered.
        let mut messages = apply_refresh(
            &mut state,
            &self.topology,
            &self.alive,
            raw,
            &self.alive,
            policy.sketch,
            self.energy,
            epoch_meter,
            tracer,
        );
        state.set_last_refresh(epoch);
        state.set_force_refresh(false);
        for (i, &g) in gated_values.iter().enumerate() {
            if self.alive[i] {
                state.set_eff(i, g);
            }
        }
        messages += self.continuous_update_threshold(&mut state, policy, epoch_meter, tracer);
        self.cont = Some(state);
        messages
    }

    /// Recomputes the k-th threshold from the cached answer and, when it
    /// moved by more than the tolerance, broadcasts it down the tree
    /// (every alive interior node relays once, like a trigger wave).
    /// Nodes keep judging against the *old* threshold until a broadcast
    /// actually happens — the root cannot update them for free.
    fn continuous_update_threshold(
        &mut self,
        state: &mut ContinuousState,
        policy: ContinuousPolicy,
        epoch_meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> u32 {
        let answer = state.answer(self.config.k);
        let new_tau = if answer.len() == self.config.k {
            answer[self.config.k - 1].value
        } else {
            f64::NEG_INFINITY
        };
        // NaN-safe: -inf minus -inf is NaN, and NaN > tol is false, so an
        // unchanged "no threshold yet" never broadcasts.
        let moved = (new_tau - state.threshold()).abs() > policy.tolerance;
        if !moved {
            return 0;
        }
        state.set_threshold(new_tau);
        let mut messages = 0u32;
        for i in 0..self.topology.len() {
            let u = NodeId::from_index(i);
            if !self.alive[i] {
                continue;
            }
            if self.topology.children(u).iter().any(|&c| self.alive[c.index()]) {
                charge(epoch_meter, tracer, u, Phase::Trigger, self.energy.broadcast());
                messages += 1;
            }
        }
        if tracer.enabled() {
            tracer.record(TraceEvent::ThresholdBroadcast { threshold: new_tau });
        }
        messages
    }

    /// Nodes currently in quarantine.
    fn quarantined_count(&self) -> usize {
        self.trust.iter().filter(|t| t.is_quarantined()).count()
    }

    /// The window's gate bands for a pass over every node. In continuous
    /// mode the table built for an earlier epoch is reused while the
    /// window's readings are unchanged; otherwise one row-major pass
    /// builds it.
    fn window_bands(&mut self, policy: &GatePolicy) -> BandTable {
        match self.bands.take() {
            Some((generation, table)) if generation == self.samples.generation() => table,
            _ => self.samples.band_table(policy.z, policy.min_sigma, policy.min_window),
        }
    }

    /// Gates one delivered reading against its node's `band`, updating
    /// the node's trust state. Returns the prediction to substitute when
    /// the reading is out-of-band or the node is quarantined, `None` when
    /// the reading is kept (in-band and trusted, or no band exists yet —
    /// the gate abstains rather than judging on thin evidence).
    fn gate_reading(
        &mut self,
        reading: Reading,
        band: Option<Band>,
        epoch: u64,
        policy: &GatePolicy,
        tally: &mut GateTally,
        tracer: &mut dyn Tracer,
    ) -> Option<Reading> {
        let node = reading.node;
        let Band { lo, hi, predicted } = band?;
        let in_band = reading.value >= lo && reading.value <= hi;
        let t = self.trust[node.index()].observe(in_band, epoch, policy);
        if tracer.enabled() {
            if t.flagged {
                tracer.record(TraceEvent::ReadingFlagged {
                    node: node.0,
                    value: reading.value,
                    lo,
                    hi,
                    predicted,
                });
            }
            if t.quarantined {
                tracer.record(TraceEvent::NodeQuarantined {
                    node: node.0,
                    strikes: self.trust[node.index()].strikes,
                });
            }
            if t.readmitted {
                tracer.record(TraceEvent::NodeReadmitted {
                    node: node.0,
                    clean_epochs: policy.parole_after,
                });
            }
        }
        tally.readmitted += usize::from(t.readmitted);
        if !in_band || self.trust[node.index()].is_quarantined() {
            tally.substituted += 1;
            Some(Reading { node, value: predicted })
        } else {
            None
        }
    }

    /// Gates a sweep's readings in place: every alive node is observed,
    /// and flagged or quarantined nodes contribute their window
    /// prediction to the new sample instead of their reported value. The
    /// band table dies with the sweep: the sample it gates is pushed
    /// next, which changes the window.
    fn gate_sweep(
        &mut self,
        epoch: u64,
        values: &mut [f64],
        policy: &GatePolicy,
        tracer: &mut dyn Tracer,
    ) -> GateTally {
        let mut tally = GateTally::default();
        let bands = self.window_bands(policy);
        for (i, value) in values.iter_mut().enumerate() {
            if !value.is_finite() {
                continue;
            }
            let node = NodeId::from_index(i);
            let reading = Reading { node, value: *value };
            let band = bands.get(node);
            if let Some(prediction) =
                self.gate_reading(reading, band, epoch, policy, &mut tally, tracer)
            {
                *value = prediction.value;
            }
        }
        tally
    }

    /// Epoch epilogue shared by both branches: folds the report into the
    /// metrics registry (attaching a cumulative snapshot), advances the
    /// resume cursor, and emits the closing `EpochEnd` event.
    fn finish_epoch(&mut self, mut report: EpochReport, tracer: &mut dyn Tracer) -> EpochReport {
        self.next_epoch = report.epoch + 1;
        if let Some(m) = self.metrics.as_mut() {
            m.count("epochs", 1);
            if report.sampled {
                m.count("sample_sweeps", 1);
            }
            if report.replanned {
                m.count("replans", 1);
            }
            if report.repaired {
                m.count("repairs", 1);
            }
            m.count("deaths", report.deaths.len() as u64);
            m.count("retransmissions", u64::from(report.retransmissions));
            m.count("lost_edges", report.lost_edges as u64);
            m.count("backfilled_entries", report.backfilled as u64);
            m.count("install_undelivered", report.install_undelivered as u64);
            m.count("flagged_readings", report.flagged as u64);
            m.count("readmissions", report.readmitted as u64);
            m.count("deltas_shipped", report.deltas_shipped as u64);
            if report.full_refresh {
                m.count("full_refreshes", 1);
            }
            m.count("messages", u64::from(report.messages));
            m.gauge("quarantined_nodes", report.quarantined as f64);
            m.gauge("delivered_fraction", report.delivered_fraction);
            m.gauge("retry_budget", f64::from(self.arq.max_retries));
            m.gauge("energy_total_mj", self.meter.total());
            m.gauge("energy_gini", gini(self.meter.node_totals()));
            m.observe("epoch_energy_mj", report.energy_mj);
            m.observe("accuracy", report.accuracy);
            report.metrics = Some(m.snapshot());
        }
        if tracer.enabled() {
            tracer.record(TraceEvent::EpochEnd {
                epoch: report.epoch,
                sampled: report.sampled,
                replanned: report.replanned,
                accuracy: report.accuracy,
                energy_mj: report.energy_mj,
                lost_edges: report.lost_edges as u32,
                retransmissions: report.retransmissions,
                delivered_fraction: report.delivered_fraction,
                backfilled: report.backfilled as u32,
            });
        }
        report
    }

    fn fallback_used(&self) -> Option<&'static str> {
        match self.plan_via {
            Some((name, depth)) if depth > 0 => Some(name),
            _ => None,
        }
    }

    /// The epoch the next [`ExperimentRunner::run_to`] call starts at:
    /// 0 for a fresh runner, `ckpt.next_epoch` for a resumed one.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Runs epochs `next_epoch..until`, recording their event streams
    /// back to back into `tracer`. A fresh runner starts at epoch 0; a
    /// resumed runner continues where its checkpoint left off.
    pub fn run_to<S: ValueSource>(
        &mut self,
        source: &mut S,
        until: u64,
        tracer: &mut dyn Tracer,
    ) -> Result<Vec<EpochReport>, PlanError> {
        (self.next_epoch..until).map(|e| self.step_traced(source, e, tracer)).collect()
    }

    /// [`ExperimentRunner::run_to`] with periodic checkpointing: after
    /// each epoch boundary the policy deems due, the full state is
    /// written atomically into `store` (keeping `policy.keep_last`
    /// files). Checkpointing consumes no randomness, so the run's
    /// reports and traces are byte-identical with or without it.
    pub fn run_checkpointed<S: ValueSource>(
        &mut self,
        source: &mut S,
        until: u64,
        store: &CheckpointStore,
        policy: CheckpointPolicy,
        tracer: &mut dyn Tracer,
    ) -> Result<Vec<EpochReport>, CheckpointedRunError> {
        let mut reports = Vec::new();
        for e in self.next_epoch..until {
            reports.push(self.step_traced(source, e, tracer).map_err(CheckpointedRunError::Plan)?);
            if policy.due(e) {
                store
                    .save(&self.checkpoint(), policy.keep_last)
                    .map_err(CheckpointedRunError::Store)?;
            }
        }
        Ok(reports)
    }
}

/// The death stage (Section 4.4), the one way the runner and the serving
/// layer lose a node. Of `candidates`, the alive nodes die; ids outside
/// the network and nodes already dead are skipped. The tree is repaired
/// first, so a failed repair
/// ([`RepairError::RootDead`]) changes, charges and traces nothing.
/// Then the dead are marked and traced, detection and re-attachment
/// are charged under [`Phase::Repair`], the repaired tree replaces the
/// old one and the dead are masked out of the sample window. Returns
/// the nodes that died.
pub fn apply_deaths(
    candidates: &[NodeId],
    topology: &mut Topology,
    alive: &mut [bool],
    samples: &mut SampleSet,
    energy: &EnergyModel,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> Result<Vec<NodeId>, RepairError> {
    let deaths: Vec<NodeId> =
        candidates.iter().copied().filter(|d| alive.get(d.index()) == Some(&true)).collect();
    if deaths.is_empty() {
        return Ok(deaths);
    }
    let repaired = topology.repair(&deaths)?;
    for &d in &deaths {
        alive[d.index()] = false;
        if tracer.enabled() {
            tracer.record(TraceEvent::NodeDeath { node: d.0 });
        }
    }
    charge_repair(topology, alive, &deaths, energy, meter, tracer);
    *topology = repaired;
    if tracer.enabled() {
        tracer.record(TraceEvent::TreeRepaired { deaths: deaths.len() as u32 });
    }
    samples.mask_nodes(&deaths);
    Ok(deaths)
}

/// Charges the energy of detecting `deaths` and re-attaching their
/// orphaned children under [`Phase::Repair`], using the *pre-repair*
/// topology: each dead node's first surviving ancestor broadcasts a
/// failure probe after the silence, and every surviving child of a dead
/// node pays a re-attachment handshake with its new parent.
fn charge_repair(
    topology: &Topology,
    alive: &[bool],
    deaths: &[NodeId],
    energy: &EnergyModel,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) {
    for &d in deaths {
        // Walk up to the first surviving ancestor; it noticed the silence
        // and probes for the subtree.
        let mut probe = topology.parent(d);
        while let Some(p) = probe {
            if alive[p.index()] {
                break;
            }
            probe = topology.parent(p);
        }
        let prober = probe.unwrap_or(topology.root());
        charge(meter, tracer, prober, Phase::Repair, energy.broadcast());
        // Each surviving child of the dead node re-attaches somewhere new.
        for &c in topology.children(d) {
            if alive[c.index()] {
                charge(meter, tracer, c, Phase::Repair, energy.repair_handshake());
            }
        }
    }
}

/// `node`'s gate band from two walks down its window column: for gates
/// that see a handful of readings (the classic answer), where a
/// whole-window [`BandTable`] would cost more than it saves.
fn node_band(samples: &SampleSet, node: NodeId, policy: &GatePolicy) -> Option<Band> {
    let (lo, hi) = samples.prediction_band(node, policy.z, policy.min_sigma, policy.min_window)?;
    // A band implies at least two finite readings, so a prediction
    // always exists here.
    let predicted = samples.predicted_value(node).expect("band implies history");
    Some(Band { lo, hi, predicted })
}

/// Silences dead nodes: their readings become `-inf` so they can never
/// appear in a top-k answer or truth set.
pub fn mask_dead_values(values: &mut [f64], alive: &[bool]) {
    for (v, &a) in values.iter_mut().zip(alive) {
        if !a {
            *v = f64::NEG_INFINITY;
        }
    }
}

/// Zeroes plan bandwidth on edges whose child is dead. Safe because
/// repaired topologies park dead nodes as leaves: nothing routes *through*
/// them, so dropping their edges cannot disconnect a survivor.
pub(crate) fn mask_dead_edges(plan: &mut Plan, topology: &Topology, alive: &[bool]) {
    for e in topology.edges() {
        if !alive[e.index()] && plan.bandwidth(e) > 0 {
            plan.set_bandwidth(e, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_core::ProspectorGreedy;
    use prospector_data::IndependentGaussian;
    use prospector_net::topology::balanced;

    fn config(budget: f64) -> ExperimentConfig {
        ExperimentConfig {
            k: 3,
            window: 10,
            policy: SamplePolicy::Periodic { warmup: 5, period: 20 },
            budget_mj: budget,
            replan_every: 10,
            replan_threshold: 0.25,
            failures: None,
            faults: FaultSchedule::new(),
            install_retries: 2,
            arq: ArqPolicy::default(),
            min_delivered: 0.0,
            max_retry_budget: 8,
            gate: None,
            continuous: None,
            seed: 42,
        }
    }

    #[test]
    fn warmup_then_querying() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 7);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, config(30.0));
        let reports = runner.run_to(&mut source, 30, &mut NullTracer).unwrap();
        assert!(reports[0].sampled && reports[4].sampled);
        assert!(!reports[5].sampled);
        assert!(reports[5].replanned, "first query epoch installs a plan");
        // Sampling epochs are exact.
        for r in &reports {
            if r.sampled {
                assert_eq!(r.accuracy, 1.0);
            }
        }
        // Energy is attributed per phase.
        assert!(runner.meter().phase_total(Phase::Sampling) > 0.0);
        assert!(runner.meter().phase_total(Phase::Collection) > 0.0);
        assert!(runner.meter().phase_total(Phase::PlanInstall) > 0.0);
    }

    #[test]
    fn accuracy_reasonable_with_stable_source() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        // Very predictable source: tiny variance.
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 0.1..0.2, 9);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, config(40.0));
        let reports = runner.run_to(&mut source, 40, &mut NullTracer).unwrap();
        let queries: Vec<&EpochReport> = reports.iter().filter(|r| !r.sampled).collect();
        let avg: f64 = queries.iter().map(|r| r.accuracy).sum::<f64>() / queries.len() as f64;
        assert!(avg > 0.9, "stable source should be predictable: {avg}");
    }

    #[test]
    fn replanning_is_throttled_by_threshold() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 0.1..0.2, 3);
        let mut cfg = config(40.0);
        cfg.replan_threshold = 100.0; // impossible improvement
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 40, &mut NullTracer).unwrap();
        let replans = reports.iter().filter(|r| r.replanned).count();
        assert_eq!(replans, 1, "only the initial installation");
    }

    #[test]
    fn scheduled_deaths_are_reported_and_charged() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 11);
        let mut cfg = config(30.0);
        let victim = t.children(t.root())[0];
        cfg.faults = FaultSchedule::new().with_death(12, victim);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 30, &mut NullTracer).unwrap();
        assert_eq!(reports.len(), 30, "the run completes through the death");
        let death = reports.iter().find(|r| r.epoch == 12).unwrap();
        assert_eq!(death.deaths, vec![victim]);
        assert!(death.repaired);
        assert!(!runner.alive()[victim.index()]);
        assert!(runner.meter().phase_total(Phase::Repair) > 0.0);
        // The repaired tree parks the victim as a leaf under the root.
        assert_eq!(runner.topology().parent(victim), Some(t.root()));
        assert!(runner.topology().children(victim).is_empty());
        // Later epochs see no further deaths.
        assert!(reports[13..].iter().all(|r| r.deaths.is_empty() && !r.repaired));
    }

    #[test]
    fn root_death_fails_before_the_death_stage_changes_anything() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 11);
        let victim = t.children(t.root())[0];
        let mut cfg = config(30.0);
        cfg.faults = FaultSchedule::new().with_death(6, victim).with_death(6, t.root());
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        runner.run_to(&mut source, 6, &mut NullTracer).unwrap();
        let total = runner.meter().total();
        let mut tracer = prospector_obs::RingTracer::new(64);
        let err = runner.step_traced(&mut source, 6, &mut tracer).unwrap_err();
        assert!(matches!(err, PlanError::Repair(RepairError::RootDead)), "{err:?}");
        // The epoch opened, and nothing after it: no death, no charge.
        assert_eq!(tracer.take(), vec![TraceEvent::EpochStart { epoch: 6 }]);
        assert!(runner.alive().iter().all(|&a| a), "the victim did not die either");
        assert_eq!(runner.topology().parent_vec(), t.parent_vec());
        assert_eq!(runner.meter().total().to_bits(), total.to_bits());
    }

    #[test]
    fn degradation_worsens_transient_failure_rate() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut cfg = config(30.0);
        cfg.failures = Some(prospector_net::FailureModel::uniform(t.len(), 0.0, 2.0));
        // Degrade every edge to coin-flip loss: over 20 epochs some used
        // edge is all but certain to fail and charge a retransmission.
        let mut faults = FaultSchedule::new();
        for e in t.edges() {
            faults = faults.with_degradation(0, e, 0.5);
        }
        cfg.faults = faults;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 13);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 20, &mut NullTracer).unwrap();
        // With the degraded edges failing half the time, the ARQ layer was
        // exercised and charged.
        assert!(runner.meter().phase_total(Phase::Retransmit) > 0.0);
        assert!(reports.iter().any(|r| r.retransmissions > 0));
    }

    #[test]
    fn loss_escalates_retry_budget_then_forces_replan() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut cfg = config(30.0);
        // Heavy uniform loss so delivered_fraction stays below threshold.
        cfg.failures = Some(prospector_net::FailureModel::uniform(t.len(), 0.8, 0.0));
        cfg.arq = ArqPolicy { max_retries: 0, backoff: prospector_net::Backoff::none() };
        cfg.min_delivered = 0.95;
        cfg.max_retry_budget = 3;
        cfg.replan_every = 1000; // escalation, not cadence, drives replans
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 17);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 30, &mut NullTracer).unwrap();
        assert_eq!(runner.arq().max_retries, 3, "budget climbed to its cap");
        let budgets: Vec<u32> =
            reports.iter().filter(|r| !r.sampled).map(|r| r.retry_budget).collect();
        assert!(budgets.windows(2).all(|w| w[1] >= w[0]), "budget never shrinks: {budgets:?}");
        assert!(budgets.contains(&0) && budgets.contains(&3));
        // Once maxed out, continued bad delivery forces fresh plans.
        let late_replans =
            reports.iter().filter(|r| !r.sampled && r.retry_budget == 3 && r.replanned).count();
        assert!(late_replans > 0, "maxed budget must trigger re-planning");
        // Partial answers were backfilled from the window.
        assert!(reports.iter().any(|r| r.backfilled > 0));
    }

    #[test]
    fn lossy_epochs_report_delivery_metrics() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut cfg = config(30.0);
        cfg.failures = Some(prospector_net::FailureModel::uniform(t.len(), 0.4, 0.0));
        cfg.arq = ArqPolicy { max_retries: 1, backoff: prospector_net::Backoff::none() };
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 19);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 25, &mut NullTracer).unwrap();
        let queries: Vec<&EpochReport> = reports.iter().filter(|r| !r.sampled).collect();
        assert!(queries.iter().any(|r| r.lost_edges > 0), "40% loss with 1 retry loses edges");
        assert!(queries.iter().all(|r| (0.0..=1.0).contains(&r.delivered_fraction)));
        assert!(queries.iter().any(|r| r.delivered_fraction < 1.0));
        // Backfilled predictions only ever appear alongside lost edges.
        assert!(queries.iter().all(|r| r.lost_edges > 0 || r.backfilled == 0));
        assert!(queries.iter().any(|r| r.backfilled > 0), "some loss is backfilled");
    }

    /// The child of the root whose subtree has the lowest peak mean: no
    /// true top-k member lives below it, but its edge aggregates a whole
    /// subtree, so a corrupted high reading hijacks a forwarding slot and
    /// reaches the root — the damage gating can undo cleanly.
    fn gullible_victim(t: &Topology, source: &IndependentGaussian) -> NodeId {
        let subtree_peak = |n: NodeId| {
            t.children(n)
                .iter()
                .map(|c| source.means()[c.index()])
                .fold(source.means()[n.index()], f64::max)
        };
        *t.children(t.root())
            .iter()
            .min_by(|&&a, &&b| subtree_peak(a).total_cmp(&subtree_peak(b)))
            .expect("root has children")
    }

    #[test]
    fn gating_recovers_accuracy_under_a_stuck_sensor() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let source = || IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 7);
        let victim = gullible_victim(&t, &source());
        let faults = FaultSchedule::new().with_data_fault(
            8,
            victim,
            prospector_net::DataFault::StuckAt { level: 1000.0 },
            10,
        );
        let run = |gate: Option<GatePolicy>| {
            let mut cfg = config(30.0);
            // Sweeps mixed into the faulty stretch: ungated sweeps answer
            // with the imposter *and* poison the sample window.
            cfg.policy = SamplePolicy::Periodic { warmup: 5, period: 5 };
            cfg.faults = faults.clone();
            cfg.gate = gate;
            let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
            let reports = runner.run_to(&mut source(), 20, &mut NullTracer).unwrap();
            // Mean accuracy over the faulty stretch only.
            let q: Vec<f64> = reports[8..18].iter().map(|r| r.accuracy).collect();
            q.iter().sum::<f64>() / q.len() as f64
        };
        let ungated = run(None);
        let gated = run(Some(GatePolicy::default()));
        // The run is fully seeded, so these means are deterministic: the
        // gated run holds near the fault-free ceiling for this config
        // (~0.83) while the ungated one pays for the imposter.
        assert!(gated >= 0.8, "gated accuracy stays near the fault-free ceiling: {gated:.2}");
        assert!(
            gated > ungated + 0.04,
            "gating must recover accuracy: gated {gated:.2}, ungated {ungated:.2}"
        );
    }

    #[test]
    fn quarantine_lifecycle_is_reported() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..2.0, 7);
        let victim = gullible_victim(&t, &source);
        let mut cfg = config(30.0);
        // Frequent sweeps so the honest post-fault readings are observed
        // (a low-mean node's honest value rarely wins a query slot).
        cfg.policy = SamplePolicy::Periodic { warmup: 5, period: 5 };
        cfg.faults = FaultSchedule::new().with_data_fault(
            8,
            victim,
            prospector_net::DataFault::StuckAt { level: 1000.0 },
            5,
        );
        cfg.gate =
            Some(GatePolicy { quarantine_after: 2, parole_after: 2, ..GatePolicy::default() });
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        let reports = runner.run_to(&mut source, 24, &mut NullTracer).unwrap();
        assert!(reports.iter().any(|r| r.flagged > 0), "the stuck readings are flagged");
        assert!(reports.iter().any(|r| r.quarantined > 0), "strikes lead to quarantine");
        assert_eq!(
            reports.iter().map(|r| r.readmitted).sum::<usize>(),
            1,
            "the node earns parole exactly once"
        );
        assert_eq!(reports.last().unwrap().quarantined, 0, "quarantine is empty at the end");
    }

    #[test]
    fn gate_is_observation_only_without_faults() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let run = |gate: Option<GatePolicy>| {
            let mut cfg = config(30.0);
            cfg.gate = gate;
            let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 7);
            let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
            runner.run_to(&mut source, 30, &mut NullTracer).unwrap()
        };
        let off = run(None);
        let on = run(Some(GatePolicy::default()));
        for (x, y) in off.iter().zip(&on) {
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits(), "epoch {}", x.epoch);
            assert_eq!(x.energy_mj.to_bits(), y.energy_mj.to_bits(), "epoch {}", x.epoch);
            assert_eq!(x.backfilled, y.backfilled, "epoch {}", x.epoch);
            assert_eq!((y.flagged, y.quarantined, y.readmitted), (0, 0, 0), "epoch {}", x.epoch);
        }
    }

    /// The adaptive policy at the settings Section 4.4's audit tests use:
    /// top 5 over a 16-sample window, 8 warm-up sweeps.
    fn adaptive_config(budget: f64, audit_every: u64, accuracy_floor: f64) -> ExperimentConfig {
        ExperimentConfig {
            k: 5,
            window: 16,
            policy: SamplePolicy::Adaptive { warmup: 8, audit_every, accuracy_floor },
            replan_every: 8,
            replan_threshold: 0.0,
            ..config(budget)
        }
    }

    /// Runs `epochs` epochs one at a time. Per epoch: its report, the
    /// sampling period in force after it, and whether it ran an audit.
    fn run_audited<S: ValueSource>(
        runner: &mut ExperimentRunner<'_>,
        source: &mut S,
        epochs: u64,
    ) -> Vec<(EpochReport, u64, bool)> {
        (0..epochs)
            .map(|e| {
                let mut tracer = prospector_obs::RingTracer::new(1 << 12);
                let report = runner.step_traced(source, e, &mut tracer).unwrap();
                let audited = tracer.take().iter().any(|ev| matches!(ev, TraceEvent::Audit { .. }));
                (report, runner.sweep_period, audited)
            })
            .collect()
    }

    /// Mean sampling period over the second half of a run.
    fn avg_period_tail(epochs: &[(EpochReport, u64, bool)]) -> f64 {
        let tail = &epochs[epochs.len() / 2..];
        tail.iter().map(|&(_, period, _)| period as f64).sum::<f64>() / tail.len() as f64
    }

    #[test]
    fn stable_source_lengthens_sampling_period() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.2..0.5, 3);
        let cfg = adaptive_config(40.0, 16, 0.8);
        let mut runner = ExperimentRunner::new(&t, &em, &ProspectorGreedy, cfg);
        let epochs = run_audited(&mut runner, &mut src, 120);
        let tail = avg_period_tail(&epochs);
        assert!(
            tail > INITIAL_SWEEP_PERIOD as f64,
            "stable data should earn a longer sampling period (avg {tail})"
        );
    }

    #[test]
    fn drifting_source_shortens_sampling_period() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        // Strong drift plus a tight budget: the plan can only cover a
        // subset of nodes, and drift moves the top-k out from under it.
        let mut src = prospector_data::RandomWalk::new(t.len(), 50.0, 5.0, 4.0, 0.0, 9);
        let cfg = adaptive_config(9.0, 8, 0.9);
        let mut runner = ExperimentRunner::new(&t, &em, &ProspectorGreedy, cfg);
        let epochs = run_audited(&mut runner, &mut src, 120);
        let tail = avg_period_tail(&epochs);
        assert!(
            tail < INITIAL_SWEEP_PERIOD as f64,
            "drifting data should force more frequent sampling (avg {tail})"
        );
    }

    #[test]
    fn scheduled_death_repairs_and_finishes() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.5..1.0, 5);
        let victim = t.children(t.root())[0];
        let mut cfg = adaptive_config(30.0, 16, 0.8);
        cfg.faults = FaultSchedule::new().with_death(20, victim);
        let mut runner = ExperimentRunner::new(&t, &em, &ProspectorGreedy, cfg);
        let reports = runner.run_to(&mut src, 80, &mut NullTracer).unwrap();
        assert_eq!(reports.len(), 80, "the run survives the death");
        let repair = runner.meter().phase_total(Phase::Repair);
        assert!(repair > 0.0, "repair was charged");
        // The death epoch's energy includes the repair surcharge.
        assert!(reports[20].repaired && reports[20].energy_mj >= repair);
    }

    #[test]
    fn all_epochs_accounted() {
        let t = balanced(2, 3);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 0.0..10.0, 0.5..1.0, 1);
        let cfg = adaptive_config(30.0, 16, 0.8);
        let mut runner = ExperimentRunner::new(&t, &em, &ProspectorGreedy, cfg);
        let epochs = run_audited(&mut runner, &mut src, 60);
        assert_eq!(epochs.len(), 60);
        assert!(runner.meter().total() > 0.0);
        assert!(epochs.iter().any(|(r, _, _)| r.sampled), "sweeps");
        assert!(epochs.iter().any(|&(_, _, audited)| audited), "audits");
        assert!(epochs.iter().any(|(r, _, audited)| !r.sampled && !audited), "plain queries");
        // Audits run on query epochs only, and sweeps cost energy.
        assert!(epochs.iter().all(|(r, _, audited)| !(r.sampled && *audited)));
        assert!(epochs.iter().all(|(r, _, _)| !r.sampled || r.energy_mj > 0.0));
    }

    #[test]
    fn epoch_energies_sum_to_the_meter() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.5..1.0, 5);
        let cfg = adaptive_config(30.0, 16, 0.8);
        let mut runner = ExperimentRunner::new(&t, &em, &ProspectorGreedy, cfg);
        let reports = runner.run_to(&mut src, 80, &mut NullTracer).unwrap();
        // Plan installs and audits land in the epoch that spends them.
        let per_epoch: f64 = reports.iter().map(|r| r.energy_mj).sum();
        assert!(
            (per_epoch - runner.meter().total()).abs() < 1e-6,
            "epochs report {per_epoch} mJ, the meter holds {}",
            runner.meter().total()
        );
    }

    #[test]
    fn no_samples_error_when_policy_never_samples() {
        let t = balanced(2, 2);
        let em = EnergyModel::mica2();
        let planner = ProspectorGreedy;
        let mut source = IndependentGaussian::random(t.len(), 0.0..1.0, 0.1..0.2, 1);
        let mut cfg = config(10.0);
        cfg.policy = SamplePolicy::Never;
        let mut runner = ExperimentRunner::new(&t, &em, &planner, cfg);
        assert!(matches!(runner.step(&mut source, 0), Err(PlanError::NoSamples)));
    }
}
