//! The closed-loop seeded load generator behind `serve --loadgen`.
//!
//! Drives one [`QueryService`] with a seeded multi-tenant request stream
//! whose parameters are drawn from small discrete pools — repeated (k,
//! band) pairs are the whole point, they are what the plan cache
//! amortizes — and reports queries/sec, p50/p99 plan latency and the
//! cache hit rate as `BENCH_serve.json`. Everything except the wall-clock
//! figures is a pure function of the seed.

use crate::request::QueryRequest;
use crate::service::{QueryService, ServiceConfig};
use prospector_core::FallbackPlanner;
use prospector_data::{IndependentGaussian, ValueSource};
use prospector_net::NetworkBuilder;
use prospector_obs::NullTracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Workload shape. `fast()` is the CI profile (`SERVE_FAST=1`).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    pub nodes: usize,
    pub epochs: u64,
    /// Requests per epoch, over 4 tenants.
    pub per_epoch: usize,
    pub seed: u64,
    pub cache: bool,
}

impl LoadgenConfig {
    /// CI profile: small network, short run.
    pub fn fast() -> Self {
        LoadgenConfig { nodes: 30, epochs: 12, per_epoch: 16, seed: 11, cache: true }
    }

    /// Full profile for local benchmarking.
    pub fn full() -> Self {
        LoadgenConfig { nodes: 120, epochs: 40, per_epoch: 48, seed: 11, cache: true }
    }
}

/// What one load-generator run measured. The count fields are seeded and
/// deterministic; `wall_s`, `qps` and the latency percentiles are wall
/// clock.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    pub nodes: usize,
    pub epochs: u64,
    pub queries: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_rate: f64,
    pub energy_mj: f64,
    pub wall_s: f64,
    pub qps: f64,
    /// Percentiles over *fresh planner solves* (cache hits skip planning
    /// entirely, which is the point — their latency is ~0).
    pub plan_p50_ms: f64,
    pub plan_p99_ms: f64,
    /// Threads the host offers (`std::thread::available_parallelism`), so
    /// the wall-clock figures name the machine they came from.
    pub host_parallelism: usize,
}

impl LoadgenReport {
    /// Hand-rolled JSON, one object (`BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\":{},\"epochs\":{},\"queries\":{},\"accepted\":{},",
                "\"rejected\":{},\"served\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_hit_rate\":{:.4},\"energy_mj\":{:.3},\"wall_s\":{:.3},",
                "\"qps\":{:.1},\"plan_p50_ms\":{:.3},\"plan_p99_ms\":{:.3},",
                "\"host_parallelism\":{}}}"
            ),
            self.nodes,
            self.epochs,
            self.queries,
            self.accepted,
            self.rejected,
            self.served,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate,
            self.energy_mj,
            self.wall_s,
            self.qps,
            self.plan_p50_ms,
            self.plan_p99_ms,
            self.host_parallelism,
        )
    }
}

/// Percentile by nearest-rank over a sorted copy; 0 for an empty set.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// One seeded request: discrete pools keep (k, band) pairs repeating.
fn request(rng: &mut StdRng, id: u64, deadline_epoch: u64) -> QueryRequest {
    const KS: [usize; 3] = [2, 3, 4];
    const BUDGETS: [f64; 4] = [10.0, 15.0, 22.0, 30.0];
    let tenant = rng.random_range(0u32..4);
    let k = KS[rng.random_range(0usize..KS.len())];
    // A sliver of sub-band budgets exercises typed admission rejections.
    let budget_mj =
        if rng.random_bool(0.04) { 1.0 } else { BUDGETS[rng.random_range(0usize..BUDGETS.len())] };
    let deadline = rng.random_bool(0.1).then_some(deadline_epoch);
    QueryRequest { id, tenant, k, budget_mj, subset: None, deadline }
}

/// Runs the closed loop: each epoch begins, a seeded batch is built, the
/// batch is served to completion before the next epoch begins.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let side = 40.0 * (cfg.nodes as f64).sqrt();
    let network = NetworkBuilder::new(cfg.nodes, side, side, 70.0)
        .seed(cfg.seed)
        .build()
        .expect("seeded placement connects");
    let service_config = ServiceConfig {
        window: 8,
        min_history: 1,
        band_width_mj: 5.0,
        epoch_budget_mj: cfg.per_epoch as f64 * 12.0,
        max_k: 8,
        // The window (and therefore every cached plan) refreshes every 4
        // epochs; between refreshes repeated (k, band) pairs hit.
        sample_every: 4,
        cache: cfg.cache,
        failures: None,
    };
    let mut service = QueryService::new(
        network.topology,
        prospector_net::EnergyModel::mica2(),
        Box::new(FallbackPlanner::standard()),
        service_config,
    )
    .expect("loadgen config is valid");
    let mut source =
        IndependentGaussian::random(cfg.nodes, 40.0..60.0, 1.0..4.0, cfg.seed ^ 0x5eed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut next_id = 0u64;
    let mut queries = 0u64;
    let mut solve_ms: Vec<f64> = Vec::new();
    let started = Instant::now();
    for epoch in 0..cfg.epochs {
        let values = source.values(epoch);
        service.begin_epoch(&values, &mut NullTracer);
        let batch: Vec<QueryRequest> = (0..cfg.per_epoch)
            .map(|_| {
                next_id += 1;
                request(&mut rng, next_id, epoch)
            })
            .collect();
        queries += batch.len() as u64;
        for res in service.serve_batch(&batch, &mut NullTracer).iter().flatten() {
            if !res.cached {
                solve_ms.push(res.plan_ms);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let stats = service.stats();
    let cache = service.cache_stats();
    LoadgenReport {
        nodes: cfg.nodes,
        epochs: cfg.epochs,
        queries,
        accepted: stats.accepted,
        rejected: stats.rejected,
        served: stats.served,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_hit_rate: cache.hit_rate(),
        energy_mj: service.meter().total(),
        wall_s,
        qps: if wall_s > 0.0 { queries as f64 / wall_s } else { 0.0 },
        plan_p50_ms: percentile(&mut solve_ms.clone(), 50.0),
        plan_p99_ms: percentile(&mut solve_ms, 99.0),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_profile_hits_the_cache_well_over_half_the_time() {
        let report = run_loadgen(&LoadgenConfig::fast());
        assert!(report.queries > 0);
        assert!(report.served > 0);
        assert!(report.rejected > 0, "workload includes sub-band budgets");
        assert!(
            report.cache_hit_rate > 0.5,
            "repeated-query workload must mostly hit: {:?}",
            report.cache_hit_rate
        );
    }

    #[test]
    fn counts_are_seed_deterministic() {
        let a = run_loadgen(&LoadgenConfig::fast());
        let b = run_loadgen(&LoadgenConfig::fast());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 50.0), 2.0);
        assert_eq!(percentile(&mut v, 99.0), 4.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
