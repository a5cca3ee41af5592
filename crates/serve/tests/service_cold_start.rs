//! Cold-start regression: the window abstains (`None`) for a node with no
//! finite reading in it, and the serve path must surface that as a typed
//! `ServiceError::InsufficientHistory` — never an unwrap, never a silent
//! drop — and count it, so that `accepted == served + plan_failures +
//! cold_starts` holds.

use prospector_core::FallbackPlanner;
use prospector_data::{IndependentGaussian, ValueSource};
use prospector_net::{topology, EnergyModel, NodeId};
use prospector_obs::NullTracer;
use prospector_serve::{QueryRequest, QueryService, ServiceConfig, ServiceError};

fn service(min_history: usize, sample_every: u64) -> QueryService {
    let config = ServiceConfig { min_history, sample_every, ..ServiceConfig::default() };
    QueryService::new(
        topology::balanced(3, 2),
        EnergyModel::mica2(),
        Box::new(FallbackPlanner::standard()),
        config,
    )
    .expect("config is valid")
}

/// The regression proper: a query at epoch 0 against `min_history = 2`
/// is one sample short and must get the typed error, with the exact
/// have/need counts.
#[test]
fn epoch_zero_query_gets_typed_insufficient_history() {
    let mut svc = service(2, 2);
    let mut source = IndependentGaussian::random(13, 40.0..60.0, 1.0..4.0, 3);
    let values = source.values(0);
    svc.begin_epoch(&values, &mut NullTracer);
    let results = svc.serve_batch(&[QueryRequest::simple(1, 0, 3, 12.0)], &mut NullTracer);
    assert_eq!(
        results[0].as_ref().unwrap_err(),
        &ServiceError::InsufficientHistory { have: 1, need: 2 }
    );
    // Epoch 1 does not sweep (sample_every = 2): still one sample short.
    let values = source.values(1);
    svc.begin_epoch(&values, &mut NullTracer);
    let results = svc.serve_batch(&[QueryRequest::simple(2, 0, 3, 12.0)], &mut NullTracer);
    assert!(matches!(results[0], Err(ServiceError::InsufficientHistory { have: 1, need: 2 })));
    // Epoch 2 sweeps: the window reaches min_history and the same query
    // is served.
    let values = source.values(2);
    svc.begin_epoch(&values, &mut NullTracer);
    let results = svc.serve_batch(&[QueryRequest::simple(3, 0, 3, 12.0)], &mut NullTracer);
    let response = results[0].as_ref().expect("warm window serves");
    assert_eq!(response.answer.len(), 3);
    assert_eq!(response.predicted.len(), 3, "every answer node has a finite prediction");
    assert!(response.predicted.iter().all(|p| p.is_finite()));
}

/// Before any epoch at all, requests get `NoEpoch` — not a panic.
#[test]
fn serving_before_any_epoch_is_typed() {
    let mut svc = service(1, 2);
    let results = svc.serve_batch(&[QueryRequest::simple(1, 0, 2, 12.0)], &mut NullTracer);
    assert_eq!(results[0].as_ref().unwrap_err(), &ServiceError::NoEpoch);
}

/// A node whose every window reading is non-finite can still answer —
/// here after a NaN from a faulty sensor. Its request is accepted and its
/// collection runs (and is metered), then the window abstains for the
/// node: the typed error, counted as a cold start.
#[test]
fn node_answering_without_finite_history_is_a_counted_cold_start() {
    let mut svc = service(1, 2);
    let mut values: Vec<f64> = (0..13).map(|i| 40.0 + i as f64).collect();
    values[5] = f64::NAN;
    svc.begin_epoch(&values, &mut NullTracer);
    // Epoch 1 does not sweep: the window's only row holds node 5's NaN.
    values[5] = 1000.0;
    svc.begin_epoch(&values, &mut NullTracer);
    let before_mj = svc.meter().total();
    let results = svc.serve_batch(&[QueryRequest::simple(1, 0, 1, 45.0)], &mut NullTracer);
    assert_eq!(
        results[0].as_ref().unwrap_err(),
        &ServiceError::InsufficientHistory { have: 0, need: 1 }
    );
    assert!(svc.meter().total() > before_mj, "the refused request's collection is metered");
    let stats = svc.stats();
    assert_eq!((stats.accepted, stats.served, stats.plan_failures), (1, 0, 0));
    assert_eq!(stats.cold_starts, 1);
    assert_eq!(stats.accepted, stats.served + stats.plan_failures + stats.cold_starts);
}

/// Masked-dead subsets yield empty answers (nothing to predict): killing
/// a node mid-run leaves its subset query answerable from the survivors,
/// predictions all finite.
#[test]
fn predictions_stay_finite_after_mid_run_death() {
    let mut svc = service(1, 1);
    let mut source = IndependentGaussian::random(13, 40.0..60.0, 1.0..4.0, 3);
    for epoch in 0..3 {
        let values = source.values(epoch);
        svc.begin_epoch(&values, &mut NullTracer);
    }
    let victim = svc.topology().children(svc.topology().root())[0];
    svc.kill_node(victim, &mut NullTracer).expect("victim is not the root");
    let values = source.values(3);
    svc.begin_epoch(&values, &mut NullTracer);
    let subset: Vec<NodeId> = (0..13).map(NodeId::from_index).collect();
    let req = QueryRequest { subset: Some(subset), ..QueryRequest::simple(9, 1, 4, 20.0) };
    let results = svc.serve_batch(&[req], &mut NullTracer);
    let response = results[0].as_ref().expect("survivors answer");
    assert_eq!(response.answer.len(), 4);
    assert!(response.answer.iter().all(|r| r.node != victim), "the dead node never answers");
    assert!(response.predicted.iter().all(|p| p.is_finite()));
}
