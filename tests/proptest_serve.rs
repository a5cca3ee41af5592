//! The serve-path headline property: **cache transparency**. Serving a
//! request stream with the plan cache on must be bit-identical — answers,
//! predictions, accuracies, energy meters and (cache-scrubbed) traces —
//! to planning every admitted request from scratch, at 1, 2 and 8 worker
//! threads, across random topologies, tenants, budgets, subsets,
//! deadlines and mid-stream faults.
//!
//! The second property pins invalidation: a repair (or degradation) bumps
//! the topology epoch, purges the cache, and no stale plan is ever served
//! — every cache hit/miss event carries the topology epoch that was live
//! when it fired.
//!
//! The third is an oracle for what a batch shares: one window and one
//! collection per key. Cache on ≡ cache off cannot catch a bad share,
//! because both sides use it; serving each request in a `serve_batch`
//! call of its own shares nothing across requests, and a window rebuilt
//! from the readings fed in is checked against every prediction.

use proptest::prelude::*;
use prospector::core::FallbackPlanner;
use prospector::data::{IndependentGaussian, SampleSet, ValueSource};
use prospector::net::{EnergyMeter, NodeId};
use prospector::obs::{RingTracer, TraceEvent};
use prospector::par::THREADS_ENV;
use prospector::serve::{
    scrub_cache_events, QueryRequest, QueryResponse, QueryService, ServiceConfig, ServiceError,
};
use prospector_testutil as testutil;
use std::sync::Mutex;

/// Two properties mutate `PROSPECTOR_THREADS` (process-global) and every
/// property's planner reads it, so they serialize on this lock, like
/// `tests/trace_threads.rs`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// One request in the generated stream.
#[derive(Debug, Clone)]
struct ReqSpec {
    k: usize,
    budget_mj: f64,
    /// Bitmask over node indices 0..6; zero means "whole network".
    subset_mask: u32,
    /// 0 → no deadline, 1 → `Some(0)` (expires after epoch 0),
    /// 2 → `Some(100)` (never expires), 3+ → no deadline.
    deadline_code: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    Kill,
    Degrade,
}

/// A whole seeded serving run.
#[derive(Debug, Clone)]
struct Spec {
    n: usize,
    net_seed: u64,
    source_seed: u64,
    /// Requests per epoch; the outer length is the epoch count.
    epochs: Vec<Vec<ReqSpec>>,
    fault: Fault,
    /// Epoch index the fault fires before (its `begin_epoch`).
    fault_epoch: u64,
}

fn arb_req() -> impl Strategy<Value = ReqSpec> {
    (1usize..6, 0.5f64..40.0, 0u32..64, 0u64..8).prop_map(
        |(k, budget_mj, subset_mask, deadline_code)| ReqSpec {
            k,
            budget_mj,
            subset_mask,
            deadline_code,
        },
    )
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        (10usize..17, 0u64..1_000, 0u64..1_000),
        proptest::collection::vec(proptest::collection::vec(arb_req(), 0..5), 3..6),
        (0u8..4, 1u64..3),
    )
        .prop_map(|((n, net_seed, source_seed), epochs, (fault_code, fault_epoch))| Spec {
            n,
            net_seed,
            source_seed,
            epochs,
            // Half the runs are fault-free; the rest split kill/degrade.
            fault: match fault_code {
                2 => Fault::Kill,
                3 => Fault::Degrade,
                _ => Fault::None,
            },
            fault_epoch,
        })
}

fn build_request(epoch: usize, slot: usize, rs: &ReqSpec) -> QueryRequest {
    let subset: Vec<NodeId> =
        (0..6).filter(|bit| rs.subset_mask & (1 << bit) != 0).map(NodeId::from_index).collect();
    QueryRequest {
        id: (epoch * 100 + slot) as u64,
        tenant: (slot % 3) as u32,
        k: rs.k,
        budget_mj: rs.budget_mj,
        subset: if subset.is_empty() { None } else { Some(subset) },
        deadline: match rs.deadline_code {
            1 => Some(0),
            2 => Some(100),
            _ => None,
        },
    }
}

/// The deterministic projection of a response: everything but the
/// untraced wall-clock (`plan_ms`) and the `cached` introspection flag,
/// floats compared by bit pattern.
#[derive(Debug, PartialEq)]
struct RespKey {
    id: u64,
    tenant: u32,
    epoch: u64,
    answer: Vec<(u32, u64)>,
    predicted: Vec<u64>,
    accuracy: u64,
    energy: u64,
}

fn resp_key(r: QueryResponse) -> RespKey {
    RespKey {
        id: r.id,
        tenant: r.tenant,
        epoch: r.epoch,
        answer: r.answer.iter().map(|a| (a.node.0, a.value.to_bits())).collect(),
        predicted: r.predicted.iter().map(|p| p.to_bits()).collect(),
        accuracy: r.expected_accuracy.to_bits(),
        energy: r.energy_mj.to_bits(),
    }
}

struct Run {
    service: QueryService,
    responses: Vec<Result<RespKey, ServiceError>>,
    trace: Vec<TraceEvent>,
}

fn run_stream(spec: &Spec, cache: bool) -> Run {
    let config = ServiceConfig {
        window: 6,
        min_history: 1,
        band_width_mj: 5.0,
        epoch_budget_mj: 60.0,
        max_k: 6,
        sample_every: 2,
        cache,
        failures: None,
    };
    let mut service = QueryService::new(
        testutil::network(spec.n, spec.net_seed).topology,
        prospector::net::EnergyModel::mica2(),
        Box::new(FallbackPlanner::standard()),
        config,
    )
    .expect("generated config is valid");
    let mut source = IndependentGaussian::random(spec.n, 40.0..60.0, 1.0..4.0, spec.source_seed);
    let mut tracer = RingTracer::new(1 << 16);
    let mut responses = Vec::new();
    for (e, epoch_reqs) in spec.epochs.iter().enumerate() {
        if e as u64 == spec.fault_epoch {
            let victim = service.topology().children(service.topology().root())[0];
            match spec.fault {
                Fault::None => {}
                Fault::Kill => {
                    service.kill_node(victim, &mut tracer).expect("victim is not the root");
                }
                Fault::Degrade => {
                    service.degrade_link(victim, 0.2, &mut tracer).expect("probability in range");
                }
            }
        }
        let values = source.values(e as u64);
        service.begin_epoch(&values, &mut tracer);
        let requests: Vec<QueryRequest> =
            epoch_reqs.iter().enumerate().map(|(slot, rs)| build_request(e, slot, rs)).collect();
        responses.extend(
            service.serve_batch(&requests, &mut tracer).into_iter().map(|r| r.map(resp_key)),
        );
    }
    assert_eq!(tracer.dropped(), 0, "ring tracer overflowed; grow the test capacity");
    let trace = tracer.take();
    Run { service, responses, trace }
}

/// The oracle's key templates, `(k, band, subset mask over nodes 0..6)`
/// with 0.5 mJ bands: A and B share `k` in two bands, C and D are subset
/// keys, and D shares A's `k` and band. A whole-network collection costs a
/// few mJ here, so A's 2 mJ and B's 6 mJ plan differently.
const KEYS: [(usize, u64, u32); 5] =
    [(2, 4, 0), (2, 12, 0), (3, 6, 0b11_1110), (2, 4, 0b1_1110), (1, 2, 0)];

/// Every oracle batch opens with keys A B A C B, so keys interleave: a
/// key recurs after another key has run.
const OPENING: [usize; 5] = [0, 1, 0, 2, 1];

/// A seeded oracle stream. Every run has a mid-run death and a NaN
/// reading.
#[derive(Debug, Clone)]
struct OracleSpec {
    n: usize,
    net_seed: u64,
    source_seed: u64,
    /// Per epoch, the requests after the opening: a key template and
    /// where in its band the budget falls (a fraction of the band).
    extras: Vec<Vec<(usize, f64)>>,
    /// The root's first child dies before this epoch begins.
    death_epoch: u64,
    /// The reading replaced by NaN: `(epoch, node)`.
    nan: (u64, usize),
}

fn arb_oracle_spec() -> impl Strategy<Value = OracleSpec> {
    (
        (10usize..17, 0u64..1_000, 0u64..1_000),
        proptest::collection::vec(
            proptest::collection::vec((0..KEYS.len(), 0.0f64..0.98), 0..6),
            5..8,
        ),
        1u64..5,
        (0u64..5, 0usize..10),
    )
        .prop_map(|((n, net_seed, source_seed), extras, death_epoch, nan)| OracleSpec {
            n,
            net_seed,
            source_seed,
            extras,
            death_epoch,
            nan,
        })
}

fn oracle_request(epoch: usize, slot: usize, template: usize, fraction: f64) -> QueryRequest {
    let (k, band, mask) = KEYS[template];
    let subset: Vec<NodeId> =
        (0..6).filter(|bit| mask & (1 << bit) != 0).map(NodeId::from_index).collect();
    QueryRequest {
        id: (epoch * 100 + slot) as u64,
        tenant: (slot % 3) as u32,
        k,
        budget_mj: 0.5 * (band as f64 + fraction),
        subset: if subset.is_empty() { None } else { Some(subset) },
        deadline: None,
    }
}

struct OracleRun {
    responses: Vec<Result<RespKey, ServiceError>>,
    meter: EnergyMeter,
    /// The run's `energy` events, in order.
    energy: Vec<TraceEvent>,
}

/// Serves an oracle stream, each epoch's requests in one `serve_batch`
/// call (`batched`) or in one call per request, and checks every
/// prediction against a window rebuilt from the readings fed in.
fn run_oracle(spec: &OracleSpec, batched: bool) -> OracleRun {
    let window = 6;
    let config = ServiceConfig {
        window,
        min_history: 1,
        band_width_mj: 0.5,
        epoch_budget_mj: 400.0,
        max_k: 6,
        sample_every: 2,
        cache: true,
        failures: None,
    };
    let mut service = QueryService::new(
        testutil::network(spec.n, spec.net_seed).topology,
        prospector::net::EnergyModel::mica2(),
        Box::new(FallbackPlanner::standard()),
        config,
    )
    .expect("generated config is valid");
    let mut source = IndependentGaussian::random(spec.n, 40.0..60.0, 1.0..4.0, spec.source_seed);
    let mut tracer = RingTracer::new(1 << 16);
    let mut responses = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut dead: Vec<NodeId> = Vec::new();
    for (e, extras) in spec.extras.iter().enumerate() {
        if e as u64 == spec.death_epoch {
            let victim = service.topology().children(service.topology().root())[0];
            service.kill_node(victim, &mut tracer).expect("victim is not the root");
            dead.push(victim);
        }
        let mut values = source.values(e as u64);
        if spec.nan.0 == e as u64 {
            values[spec.nan.1] = f64::NAN;
        }
        if service.begin_epoch(&values, &mut tracer).sampled {
            rows.push(values);
        }
        let mut rebuilt = SampleSet::new(spec.n, 1, window);
        for row in rows.iter().rev().take(window).rev() {
            rebuilt.push(row.clone());
        }
        rebuilt.mask_nodes(&dead);
        let requests: Vec<QueryRequest> = OPENING
            .iter()
            .map(|&t| (t, 0.5))
            .chain(extras.iter().copied())
            .enumerate()
            .map(|(slot, (t, fraction))| oracle_request(e, slot, t, fraction))
            .collect();
        let results: Vec<_> = if batched {
            service.serve_batch(&requests, &mut tracer)
        } else {
            requests
                .iter()
                .flat_map(|r| service.serve_batch(std::slice::from_ref(r), &mut tracer))
                .collect()
        };
        for result in results {
            match &result {
                Ok(r) => {
                    for (a, p) in r.answer.iter().zip(&r.predicted) {
                        let want =
                            rebuilt.predicted_value(a.node).expect("answer node has history");
                        prop_assert_eq!(p.to_bits(), want.to_bits(), "prediction for {:?}", a.node);
                    }
                }
                // A cold start needs a live node with no finite reading in
                // the window.
                Err(ServiceError::InsufficientHistory { .. }) => prop_assert!(
                    (0..spec.n).map(NodeId::from_index).any(
                        |node| !dead.contains(&node) && rebuilt.predicted_value(node).is_none()
                    ),
                    "cold start refused at epoch {} with every live node predicted",
                    e
                ),
                Err(_) => {}
            }
            responses.push(result.map(resp_key));
        }
    }
    assert_eq!(tracer.dropped(), 0, "ring tracer overflowed; grow the test capacity");
    let energy =
        tracer.take().into_iter().filter(|ev| matches!(ev, TraceEvent::Energy { .. })).collect();
    OracleRun { responses, meter: service.meter().clone(), energy }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Cache-on ≡ cache-off, bit for bit, at every thread count — and the
    // cache-on trace itself is byte-stable across thread counts.
    #[test]
    fn cache_on_serving_is_bit_identical_to_scratch(spec in arb_spec()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut baseline: Option<Vec<TraceEvent>> = None;
        for threads in ["1", "2", "8"] {
            std::env::set_var(THREADS_ENV, threads);
            let on = run_stream(&spec, true);
            let off = run_stream(&spec, false);
            prop_assert_eq!(&on.responses, &off.responses);
            prop_assert!(
                testutil::meters_bit_identical(on.service.meter(), off.service.meter(), spec.n),
                "energy meters diverge between cached and scratch serving at {} threads",
                threads
            );
            prop_assert_eq!(scrub_cache_events(&on.trace), scrub_cache_events(&off.trace));
            // Cache-off runs still batch (and emit `batch_planned`), but
            // must never claim a cache hit or miss.
            prop_assert!(
                !off.trace.iter().any(|e| matches!(
                    e,
                    TraceEvent::PlanCacheHit { .. } | TraceEvent::PlanCacheMiss { .. }
                )),
                "a cache-off run must emit no cache hit/miss events"
            );
            match &baseline {
                None => baseline = Some(on.trace.clone()),
                Some(first) => prop_assert_eq!(first, &on.trace),
            }
        }
        std::env::remove_var(THREADS_ENV);
    }

    // Invalidation: a mid-stream death purges the cache and no plan from
    // the old topology epoch is ever served again — while the repeated
    // request still hits the cache on both sides of the fault and stays
    // bit-identical to scratch planning.
    #[test]
    fn repair_invalidates_and_never_serves_stale_plans(seed in 0u64..300) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var(THREADS_ENV);
        let repeat = ReqSpec { k: 3, budget_mj: 12.0, subset_mask: 0, deadline_code: 0 };
        let spec = Spec {
            n: 13,
            net_seed: seed,
            source_seed: seed ^ 0x0abc,
            epochs: vec![vec![repeat.clone(); 2]; 4],
            fault: Fault::Kill,
            fault_epoch: 2,
        };
        let on = run_stream(&spec, true);
        let off = run_stream(&spec, false);
        prop_assert_eq!(&on.responses, &off.responses);
        let stats = on.service.cache_stats();
        prop_assert!(stats.invalidations >= 1, "the death must purge cached plans: {:?}", stats);
        prop_assert!(stats.hits >= 1, "the repeated request must re-warm the cache: {:?}", stats);
        // Replay the trace: every cache hit/miss fires at the topology
        // epoch that was live at that moment — a hit at a stale epoch is
        // a stale plan served.
        let mut live_topo = 0u64;
        for ev in &on.trace {
            match ev {
                TraceEvent::NodeDeath { .. } => live_topo += 1,
                TraceEvent::PlanCacheHit { topo_epoch, .. }
                | TraceEvent::PlanCacheMiss { topo_epoch, .. } => {
                    prop_assert_eq!(*topo_epoch, live_topo, "cache event at a stale topology epoch");
                }
                _ => {}
            }
        }
        prop_assert_eq!(live_topo, 1, "exactly one death in this scenario");
    }

    // The hit-path oracle: one batch per epoch serves exactly like one
    // `serve_batch` call per request in the same epoch — responses, meter
    // and energy events bit for bit — and every prediction matches a
    // window rebuilt from the readings fed in.
    #[test]
    fn one_batch_serves_like_one_call_per_request(spec in arb_oracle_spec()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let batch = run_oracle(&spec, true);
        let single = run_oracle(&spec, false);
        prop_assert_eq!(&batch.responses, &single.responses);
        prop_assert!(
            testutil::meters_bit_identical(&batch.meter, &single.meter, spec.n),
            "energy meters diverge between batched and one-per-call serving"
        );
        prop_assert_eq!(&batch.energy, &single.energy);
        prop_assert!(batch.responses.iter().any(|r| r.is_ok()), "the stream serves something");
    }
}
