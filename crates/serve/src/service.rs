//! The multi-tenant query service.
//!
//! One [`QueryService`] owns a metered network (topology + energy model +
//! cumulative [`EnergyMeter`]) and a shared sample window, and serves
//! batches of [`QueryRequest`]s against them. Per epoch:
//!
//! 1. [`QueryService::begin_epoch`] ingests the epoch's ground-truth
//!    readings, optionally runs a full-network sweep that feeds the
//!    sample window (charged under
//!    [`Phase::Sampling`](prospector_net::Phase::Sampling) by the
//!    simulator's sweep stage), and resets the admission ledger.
//! 2. [`QueryService::serve_batch`] validates and admits each request in
//!    order (typed [`AdmitError`] rejections, never silent), plans once
//!    per unique [`PlanKey`] — the plan cache *is* the batching: the
//!    first request of a key plans and caches, every same-key request
//!    after it (same batch or later epochs) reuses the entry — and then
//!    runs each unique key's collection phase once. Every admitted
//!    request, in request order, replays its key's trace events, merges
//!    its key's energy bill into the service meter and answers from its
//!    key's collected top k.
//!
//! **Window and deaths.** The sample window is one [`SampleSet`]: sweeps
//! push into it, [`QueryService::kill_node`] masks the dead out of it
//! through the simulator's death stage (the runner's repair, bill and
//! trace, so a death costs every node the same in both front ends), and
//! its generation validates cache entries. A response carries each
//! answer node's prediction, `SampleSet::predicted_value`: the mean of
//! its finite window readings. Only a cache miss builds the key's own
//! [`SampleSet`] at the key's `k`, which the planner and the accuracy
//! estimate need.
//!
//! **Cache transparency.** The service plans with the *band-floor* budget
//! (`floor(budget / band_width) × band_width`), a pure function of the
//! cache key, so a cached plan is bit-identical to what scratch planning
//! would produce for any request in the band. With the cache disabled the
//! service plans every admitted request from scratch; answers, energy
//! charges and all non-cache trace events are byte-identical either way.
//! `tests/proptest_serve.rs` proves this and the `serve_burst` golden
//! pins it.

use crate::cache::{CacheEntry, CacheStats, PlanCache, PlanKey};
use crate::error::{AdmitError, ConfigError, RequestError, ServiceError};
use crate::request::{QueryRequest, QueryResponse};
use prospector_core::{evaluate, Plan, PlanContext, Planner};
use prospector_data::{Reading, SampleSet};
use prospector_net::{EnergyMeter, EnergyModel, FailureModel, NodeId, RepairError, Topology};
use prospector_obs::{TraceEvent, Tracer};
use prospector_sim::{apply_deaths, mask_dead_values};
use std::time::Instant;

/// Service-level knobs. Validated by [`QueryService::new`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sample-window capacity (full-network sweeps retained).
    pub window: usize,
    /// Minimum window samples before any request is served; colder
    /// windows get [`ServiceError::InsufficientHistory`].
    pub min_history: usize,
    /// Budget quantum: requests are admitted into band
    /// `floor(budget / band_width_mj)` and planned at the band floor.
    pub band_width_mj: f64,
    /// Collection energy the admission ledger hands out per epoch.
    pub epoch_budget_mj: f64,
    /// Largest `k` any tenant may ask for.
    pub max_k: usize,
    /// Run a window-feeding sweep every `sample_every` epochs (epoch 0
    /// always sweeps).
    pub sample_every: u64,
    /// Plan-cache toggle. Disabling it must not change any answer or
    /// charge — that is the transparency property.
    pub cache: bool,
    /// Link-failure statistics for the planners' cost model (execution
    /// itself is reliable here); degradations update this in place.
    pub failures: Option<FailureModel>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            window: 8,
            min_history: 1,
            band_width_mj: 5.0,
            epoch_budget_mj: 50.0,
            max_k: 8,
            sample_every: 2,
            cache: true,
            failures: None,
        }
    }
}

impl ServiceConfig {
    /// Checks the knobs against a network of `n` nodes.
    fn validate(&self, n: usize) -> Result<(), ConfigError> {
        if !(self.band_width_mj.is_finite() && self.band_width_mj > 0.0) {
            return Err(ConfigError::BadBandWidth { band_width_mj: self.band_width_mj });
        }
        if !(self.epoch_budget_mj.is_finite() && self.epoch_budget_mj >= 0.0) {
            return Err(ConfigError::BadEpochBudget { epoch_budget_mj: self.epoch_budget_mj });
        }
        if self.window < 1 || self.sample_every < 1 || self.max_k < 1 {
            return Err(ConfigError::BadShape {
                window: self.window,
                sample_every: self.sample_every,
                max_k: self.max_k,
            });
        }
        if let Some(f) = self.failures.as_ref().filter(|f| f.len() != n) {
            return Err(ConfigError::FailureModelSize { covers: f.len(), n });
        }
        Ok(())
    }
}

/// What [`QueryService::begin_epoch`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStart {
    pub epoch: u64,
    /// Whether a window-feeding sweep ran this epoch.
    pub sampled: bool,
    /// Energy the sweep cost (0 when `sampled` is false).
    pub sweep_mj: f64,
}

/// Cumulative service counters (cache counters live in [`CacheStats`]).
/// Every accepted request ends in exactly one of three ways, so
/// `accepted == served + plan_failures + cold_starts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that cleared validation and admission.
    pub accepted: u64,
    /// Requests rejected by validation or admission.
    pub rejected: u64,
    /// Requests actually answered.
    pub served: u64,
    /// Accepted requests whose whole fallback chain failed to plan.
    pub plan_failures: u64,
    /// Accepted requests refused after their collection because an answer
    /// node has no finite reading in the window
    /// ([`ServiceError::InsufficientHistory`]). Their collection energy
    /// is still metered: the radios ran.
    pub cold_starts: u64,
}

/// One unique key's reliable collection within a batch, kept so that
/// every request of the key can replay it.
struct Collected {
    /// The collection's trace events (none when the caller's tracer is
    /// disabled).
    events: Vec<TraceEvent>,
    /// The collection's energy bill.
    meter: EnergyMeter,
    /// The root's answer, non-finite readings dropped.
    answer: Vec<Reading>,
}

/// Buffers events for replay; enabled exactly when the caller's tracer
/// is, so an untraced batch builds no events.
struct Recorder {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Tracer for Recorder {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// The service. See the module docs for the epoch lifecycle.
pub struct QueryService {
    topology: Topology,
    energy: EnergyModel,
    planner: Box<dyn Planner>,
    config: ServiceConfig,
    alive: Vec<bool>,
    /// Current epoch; `None` until the first [`QueryService::begin_epoch`].
    epoch: Option<u64>,
    /// Bumped by every death/repair/degradation; part of every cache key.
    topo_epoch: u64,
    /// The sweeps' readings, oldest first, dead nodes masked. Only the
    /// readings are read, so its `k` is 1; its generation validates cache
    /// entries.
    window: SampleSet,
    /// Current epoch's masked ground truth.
    truth: Vec<f64>,
    cache: PlanCache,
    /// Collection energy still grantable this epoch.
    ledger_remaining: f64,
    /// Cumulative per-node/per-phase energy across the service lifetime.
    meter: EnergyMeter,
    stats: ServiceStats,
}

impl QueryService {
    pub fn new(
        topology: Topology,
        energy: EnergyModel,
        planner: Box<dyn Planner>,
        config: ServiceConfig,
    ) -> Result<Self, ConfigError> {
        let n = topology.len();
        config.validate(n)?;
        Ok(QueryService {
            topology,
            energy,
            planner,
            alive: vec![true; n],
            epoch: None,
            topo_epoch: 0,
            window: SampleSet::new(n, 1, config.window),
            truth: vec![f64::NEG_INFINITY; n],
            config,
            cache: PlanCache::new(),
            ledger_remaining: 0.0,
            meter: EnergyMeter::new(n),
            stats: ServiceStats::default(),
        })
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    pub fn topo_epoch(&self) -> u64 {
        self.topo_epoch
    }

    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn ledger_remaining(&self) -> f64 {
        self.ledger_remaining
    }

    /// Starts the next epoch: ingests `values` as ground truth (dead
    /// nodes masked), runs the periodic window-feeding sweep, and resets
    /// the admission ledger.
    ///
    /// Panics if `values` is the wrong length — that is a programming
    /// error of the driver, not tenant input.
    pub fn begin_epoch(&mut self, values: &[f64], tracer: &mut dyn Tracer) -> EpochStart {
        assert_eq!(values.len(), self.topology.len(), "value vector size mismatch");
        let epoch = self.epoch.map_or(0, |e| e + 1);
        self.epoch = Some(epoch);
        if tracer.enabled() {
            tracer.record(TraceEvent::EpochStart { epoch });
        }
        self.truth = values.to_vec();
        mask_dead_values(&mut self.truth, &self.alive);
        let sampled = epoch.is_multiple_of(self.config.sample_every);
        let mut sweep_mj = 0.0;
        if sampled {
            // The window-feeding sweep, charged exactly like the
            // simulator's runner.
            sweep_mj = prospector_sim::charge_sweep(
                &self.topology,
                &self.alive,
                &self.energy,
                &self.truth,
                &mut self.meter,
                tracer,
            );
            self.window.push(self.truth.clone());
        }
        self.ledger_remaining = self.config.epoch_budget_mj;
        EpochStart { epoch, sampled, sweep_mj }
    }

    /// Kills `node` permanently through the simulator's death stage
    /// ([`apply_deaths`]): the tree is repaired, detection and
    /// re-attachment are charged under
    /// [`Phase::Repair`](prospector_net::Phase::Repair) exactly as the
    /// runner charges them, and the node is masked out of the window and
    /// this epoch's truth. Then the topology epoch is bumped and the plan
    /// cache invalidated. Killing the root or an id outside the network
    /// is an error and killing an already-dead node a no-op; neither
    /// changes anything.
    pub fn kill_node(&mut self, node: NodeId, tracer: &mut dyn Tracer) -> Result<(), RepairError> {
        if node.index() >= self.topology.len() {
            return Err(RepairError::NodeOutOfRange(node));
        }
        let deaths = apply_deaths(
            &[node],
            &mut self.topology,
            &mut self.alive,
            &mut self.window,
            &self.energy,
            &mut self.meter,
            tracer,
        )?;
        if !deaths.is_empty() {
            mask_dead_values(&mut self.truth, &self.alive);
            self.topo_epoch += 1;
            self.cache.invalidate(self.topo_epoch);
        }
        Ok(())
    }

    /// Raises the loss probability of the edge above `child` in the
    /// planners' failure model, bumping the topology epoch — degraded
    /// links change plan costs, so cached plans must not survive. A
    /// `child` outside the network or a bad probability is a typed
    /// [`FailureModelError`](prospector_net::FailureModelError) that
    /// bumps, invalidates and traces nothing.
    pub fn degrade_link(
        &mut self,
        child: NodeId,
        added_prob: f64,
        tracer: &mut dyn Tracer,
    ) -> Result<(), prospector_net::FailureModelError> {
        let n = self.topology.len();
        let failures = self.config.failures.get_or_insert_with(|| FailureModel::none(n));
        failures.degrade(child, added_prob)?;
        if tracer.enabled() {
            tracer.record(TraceEvent::LinkDegraded { child: child.0, added: added_prob });
        }
        self.topo_epoch += 1;
        self.cache.invalidate(self.topo_epoch);
        Ok(())
    }

    /// The band a budget falls into (`None` below one band). Saturating
    /// float→int conversion keeps absurd budgets finite.
    fn band(&self, budget_mj: f64) -> Option<u64> {
        let band = (budget_mj / self.config.band_width_mj).floor() as u64;
        (band >= 1).then_some(band)
    }

    fn validate(&self, req: &QueryRequest) -> Result<(), ServiceError> {
        if self.epoch.is_none() {
            return Err(ServiceError::NoEpoch);
        }
        if self.window.len() < self.config.min_history {
            return Err(ServiceError::InsufficientHistory {
                have: self.window.len(),
                need: self.config.min_history,
            });
        }
        let n = self.topology.len();
        let queryable = match &req.subset {
            None => n,
            Some(subset) => {
                if let Some(bad) = subset.iter().find(|id| id.index() >= n) {
                    return Err(RequestError::SubsetOutOfRange { node: bad.0, n }.into());
                }
                let mut ids: Vec<u32> = subset.iter().map(|id| id.0).collect();
                ids.sort_unstable();
                ids.dedup();
                if ids.is_empty() {
                    return Err(RequestError::EmptySubset.into());
                }
                ids.len()
            }
        };
        let max = self.config.max_k.min(queryable);
        if req.k == 0 || req.k > max {
            return Err(RequestError::BadK { k: req.k, max }.into());
        }
        if !(req.budget_mj.is_finite() && req.budget_mj > 0.0) {
            return Err(RequestError::BadBudget { budget_mj: req.budget_mj }.into());
        }
        Ok(())
    }

    /// Admission proper: deadline, band floor, energy ledger. Reserves
    /// the band-floor budget on success.
    fn admit(&mut self, req: &QueryRequest, epoch: u64) -> Result<u64, ServiceError> {
        if let Some(deadline) = req.deadline {
            if deadline < epoch {
                return Err(AdmitError::DeadlineExpired { deadline, epoch }.into());
            }
        }
        let band = self.band(req.budget_mj).ok_or(AdmitError::BudgetBelowBand {
            budget_mj: req.budget_mj,
            band_mj: self.config.band_width_mj,
        })?;
        let banded_mj = band as f64 * self.config.band_width_mj;
        if banded_mj > self.ledger_remaining {
            return Err(AdmitError::EnergyExhausted {
                requested_mj: banded_mj,
                remaining_mj: self.ledger_remaining,
            }
            .into());
        }
        self.ledger_remaining -= banded_mj;
        Ok(band)
    }

    /// The sample window as a [`SampleSet`] for one cache key: the
    /// window's readings replayed at the key's `k`, then masked down to
    /// the key's subset and the live nodes. A pure function of (window
    /// content, key), so rebuilding it per planned key is transparent.
    fn build_samples(&self, k: usize, subset: Option<&[u32]>) -> SampleSet {
        let n = self.topology.len();
        let mut samples = SampleSet::new(n, k, self.config.window);
        for j in 0..self.window.len() {
            samples.push(self.window.values(j).to_vec());
        }
        let mut masked: Vec<NodeId> = Vec::new();
        for i in 0..n {
            let in_subset = subset.is_none_or(|s| s.binary_search(&(i as u32)).is_ok());
            if !self.alive[i] || !in_subset {
                masked.push(NodeId::from_index(i));
            }
        }
        samples.mask_nodes(&masked);
        samples
    }

    /// One reliable collection of `plan` over `key`'s subset-masked truth
    /// at `key.k`, its events recorded for replay when `tracing`.
    fn collect(&self, plan: &Plan, key: &PlanKey, tracing: bool) -> Collected {
        let truth: Vec<f64> = match &key.subset {
            None => self.truth.clone(),
            Some(subset) => {
                let mut t = vec![f64::NEG_INFINITY; self.truth.len()];
                for &id in subset {
                    t[id as usize] = self.truth[id as usize];
                }
                t
            }
        };
        let mut recorder = Recorder { enabled: tracing, events: Vec::new() };
        let report = prospector_sim::execute_plan_traced(
            plan,
            &self.topology,
            &self.energy,
            &truth,
            key.k as usize,
            None,
            &mut recorder,
        );
        let answer = report.answer.into_iter().filter(|r| r.value.is_finite()).collect();
        Collected { events: recorder.events, meter: report.meter, answer }
    }

    /// Serves one batch of requests against the current epoch. Responses
    /// come back in request order; every rejection is typed and traced.
    pub fn serve_batch(
        &mut self,
        requests: &[QueryRequest],
        tracer: &mut dyn Tracer,
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        let epoch = self.epoch.unwrap_or(0);
        // Phase A: validate + admit in request order. `admitted[i]` holds
        // the request's cache key once it clears the ledger.
        let mut admitted: Vec<Option<PlanKey>> = Vec::with_capacity(requests.len());
        let mut results: Vec<Result<QueryResponse, ServiceError>> =
            Vec::with_capacity(requests.len());
        for req in requests {
            let outcome = self.validate(req).and_then(|()| self.admit(req, epoch));
            match outcome {
                Ok(band) => {
                    let subset = req.subset.as_ref().map(|s| {
                        let mut ids: Vec<u32> = s.iter().map(|id| id.0).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        ids
                    });
                    let key =
                        PlanKey { topo_epoch: self.topo_epoch, k: req.k as u32, band, subset };
                    if tracer.enabled() {
                        tracer.record(TraceEvent::RequestAccepted {
                            id: req.id,
                            tenant: req.tenant,
                            k: req.k as u32,
                            band,
                        });
                    }
                    self.stats.accepted += 1;
                    admitted.push(Some(key));
                    results.push(Err(ServiceError::NoEpoch)); // placeholder
                }
                Err(e) => {
                    if tracer.enabled() {
                        tracer.record(TraceEvent::RequestRejected {
                            id: req.id,
                            tenant: req.tenant,
                            reason: e.to_string(),
                        });
                    }
                    self.stats.rejected += 1;
                    admitted.push(None);
                    results.push(Err(e));
                }
            }
        }

        // Phase B: plan once per unique key, in request order. With the
        // cache on, the cache itself is the batch structure: the first
        // request of a key plans and inserts, same-key requests hit. With
        // the cache off every admitted request plans from scratch.
        struct Batched {
            /// Index of the request's key in `unique`.
            key: usize,
            plan: Plan,
            expected_accuracy: f64,
            cached: bool,
            plan_ms: f64,
        }
        let mut batch: Vec<Option<Result<Batched, ServiceError>>> = Vec::new();
        let mut unique: Vec<&PlanKey> = Vec::new();
        let mut planned_count = 0u32;
        for key in &admitted {
            let Some(key) = key else {
                batch.push(None);
                continue;
            };
            let index = unique.iter().position(|u| *u == key).unwrap_or_else(|| {
                unique.push(key);
                unique.len() - 1
            });
            if self.config.cache {
                if let Some(entry) = self.cache.lookup(key, self.window.generation()) {
                    let (plan, acc) = (entry.plan.clone(), entry.expected_accuracy);
                    if tracer.enabled() {
                        tracer.record(TraceEvent::PlanCacheHit {
                            topo_epoch: key.topo_epoch,
                            k: key.k,
                            band: key.band,
                        });
                    }
                    batch.push(Some(Ok(Batched {
                        key: index,
                        plan,
                        expected_accuracy: acc,
                        cached: true,
                        plan_ms: 0.0,
                    })));
                    continue;
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::PlanCacheMiss {
                        topo_epoch: key.topo_epoch,
                        k: key.k,
                        band: key.band,
                    });
                }
            }
            let banded_mj = key.band as f64 * self.config.band_width_mj;
            let samples = self.build_samples(key.k as usize, key.subset.as_deref());
            let mut ctx = PlanContext::new(&self.topology, &self.energy, &samples, banded_mj);
            if let Some(f) = &self.config.failures {
                ctx = ctx.with_failures(f);
            }
            let started = Instant::now();
            let planned = self.planner.plan(&ctx);
            let plan_ms = started.elapsed().as_secs_f64() * 1e3;
            planned_count += 1;
            match planned {
                Ok(plan) => {
                    let acc = evaluate::expected_accuracy(&plan, &self.topology, &samples);
                    if self.config.cache {
                        self.cache.insert(
                            key.clone(),
                            CacheEntry {
                                plan: plan.clone(),
                                expected_accuracy: acc,
                                window_version: self.window.generation(),
                            },
                        );
                    }
                    batch.push(Some(Ok(Batched {
                        key: index,
                        plan,
                        expected_accuracy: acc,
                        cached: false,
                        plan_ms,
                    })));
                }
                Err(e) => {
                    self.stats.plan_failures += 1;
                    batch.push(Some(Err(ServiceError::Plan(e))));
                }
            }
        }

        // Phase C: collect once per unique key. Reliable execution depends
        // only on the plan, the subset-masked truth and k, all fixed by the
        // key within a batch, so the first request of a key runs the
        // collection into a recorder, and every request of the key, the
        // first included, replays the recorded events, merges the bill
        // into the service meter and answers from the stored top k — in
        // request order, so trace and meter read as if each had executed.
        let tracing = tracer.enabled();
        let mut collected: Vec<Option<Collected>> = unique.iter().map(|_| None).collect();
        for (i, (req, slot)) in requests.iter().zip(batch).enumerate() {
            let Some(outcome) = slot else { continue };
            let b = match outcome {
                Ok(b) => b,
                Err(e) => {
                    results[i] = Err(e);
                    continue;
                }
            };
            let run = collected[b.key]
                .get_or_insert_with(|| self.collect(&b.plan, unique[b.key], tracing));
            for event in &run.events {
                tracer.record(event.clone());
            }
            self.meter.merge(&run.meter);
            // An answer node is alive and in its key's subset, so the
            // service's window predicts it exactly as the key's masked
            // `SampleSet` would.
            let predicted: Option<Vec<f64>> =
                run.answer.iter().map(|r| self.window.predicted_value(r.node)).collect();
            results[i] = match predicted {
                Some(predicted) => {
                    self.stats.served += 1;
                    Ok(QueryResponse {
                        id: req.id,
                        tenant: req.tenant,
                        epoch,
                        cached: b.cached,
                        answer: run.answer.clone(),
                        predicted,
                        expected_accuracy: b.expected_accuracy,
                        energy_mj: run.meter.total(),
                        plan_ms: b.plan_ms,
                    })
                }
                None => {
                    // The window abstained for a node we just heard from:
                    // typed cold-start error, never an unwrap.
                    self.stats.cold_starts += 1;
                    Err(ServiceError::InsufficientHistory { have: 0, need: 1 })
                }
            };
        }

        let admitted_count = admitted.iter().flatten().count() as u32;
        if tracer.enabled() {
            tracer.record(TraceEvent::BatchPlanned {
                requests: admitted_count,
                unique_keys: unique.len() as u32,
                planned: planned_count,
            });
        }
        results
    }
}
