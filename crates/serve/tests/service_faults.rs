//! The serve path's fault operations refuse bad input with typed errors
//! and change nothing when they do: `kill_node` on the root, on an id
//! outside the network or on a node already dead, `degrade_link` on an
//! edge outside the network, and a failure model sized for another
//! network at construction. A death they do carry out reaches the next
//! sweep's bill.

use prospector_core::{FallbackPlanner, NaiveK};
use prospector_data::{IndependentGaussian, ValueSource};
use prospector_net::{topology, EnergyModel, FailureModel, FailureModelError, NodeId, RepairError};
use prospector_obs::{NullTracer, RingTracer, TraceEvent};
use prospector_serve::{ConfigError, QueryRequest, QueryService, ServiceConfig};
use prospector_testutil::assert_meters_bit_identical;

const N: usize = 13; // balanced(3, 2)

fn service(config: ServiceConfig) -> Result<QueryService, ConfigError> {
    QueryService::new(
        topology::balanced(3, 2),
        EnergyModel::mica2(),
        Box::new(FallbackPlanner::standard()),
        config,
    )
}

/// A service three epochs in, with a served batch behind it (so the cache
/// holds an entry) and one node already killed.
fn warm_service() -> (QueryService, NodeId) {
    let mut svc = service(ServiceConfig::default()).expect("config is valid");
    let mut source = IndependentGaussian::random(N, 40.0..60.0, 1.0..4.0, 5);
    for epoch in 0..3 {
        svc.begin_epoch(&source.values(epoch), &mut NullTracer);
        let results = svc.serve_batch(&[QueryRequest::simple(epoch, 0, 3, 12.0)], &mut NullTracer);
        assert!(results[0].is_ok(), "epoch {epoch}: {:?}", results[0]);
    }
    let victim = svc.topology().children(svc.topology().root())[0];
    svc.kill_node(victim, &mut NullTracer).expect("victim is not the root");
    (svc, victim)
}

#[test]
fn kill_node_refusals_and_repeats_change_nothing() {
    let (mut svc, victim) = warm_service();
    let root = svc.topology().root();
    let cases: [(NodeId, Result<(), RepairError>); 3] = [
        (root, Err(RepairError::RootDead)),
        (NodeId(99), Err(RepairError::NodeOutOfRange(NodeId(99)))),
        (victim, Ok(())),
    ];
    for (node, expected) in cases {
        let meter = svc.meter().clone();
        let parents = svc.topology().parent_vec();
        let (topo_epoch, window_len, cache) =
            (svc.topo_epoch(), svc.window_len(), svc.cache_stats());
        let mut tracer = RingTracer::new(64);
        assert_eq!(svc.kill_node(node, &mut tracer), expected, "kill {node}");
        assert!(tracer.is_empty(), "kill {node} traced {:?}", tracer.take());
        assert_meters_bit_identical(svc.meter(), &meter, N);
        assert_eq!(svc.topology().parent_vec(), parents, "kill {node} rewired the tree");
        assert_eq!(svc.topo_epoch(), topo_epoch, "kill {node} bumped the topology epoch");
        assert_eq!(svc.window_len(), window_len, "kill {node} changed the window");
        assert_eq!(svc.cache_stats(), cache, "kill {node} touched the cache");
    }
}

/// A node killed mid-epoch stops answering at once: the epoch's truth is
/// masked along with the window, not only at the next `begin_epoch`.
/// NAIVE-k collects from every node, the parked dead leaf included, so
/// only that mask keeps the dead node's reading out of the answer.
#[test]
fn a_node_killed_mid_epoch_never_answers_that_epoch() {
    let mut svc = QueryService::new(
        topology::balanced(3, 2),
        EnergyModel::mica2(),
        Box::new(NaiveK),
        ServiceConfig::default(),
    )
    .expect("config is valid");
    let values: Vec<f64> = (0..N).map(|i| 40.0 + i as f64).collect();
    svc.begin_epoch(&values, &mut NullTracer);
    let top = NodeId::from_index(N - 1);
    svc.kill_node(top, &mut NullTracer).expect("node 12 is not the root");
    let results = svc.serve_batch(&[QueryRequest::simple(1, 0, 3, 45.0)], &mut NullTracer);
    let response = results[0].as_ref().expect("the survivors answer");
    assert_eq!(response.answer.len(), 3);
    assert!(response.answer.iter().all(|r| r.node != top), "{:?}", response.answer);
}

/// `degrade_link` on an edge outside the network is a typed error that
/// changes nothing the service exposes, not an index past the end of the
/// failure model.
#[test]
fn degrade_link_outside_the_network_is_a_typed_error() {
    let (mut svc, _) = warm_service();
    let (topo_epoch, cache) = (svc.topo_epoch(), svc.cache_stats());
    let mut tracer = RingTracer::new(64);
    assert_eq!(
        svc.degrade_link(NodeId(99), 0.1, &mut tracer),
        Err(FailureModelError::NodeOutOfRange { index: 99, len: N })
    );
    assert!(tracer.is_empty());
    assert_eq!((svc.topo_epoch(), svc.cache_stats()), (topo_epoch, cache));
    // An edge inside the network still degrades and invalidates.
    svc.degrade_link(NodeId(4), 0.1, &mut tracer).expect("node 4 is an edge");
    assert_eq!(svc.topo_epoch(), topo_epoch + 1);
}

/// A failure model sized for another network is refused at
/// construction; accepted, it would index past its end at the first plan.
#[test]
fn failure_model_sized_for_another_network_is_rejected() {
    let config = ServiceConfig {
        failures: Some(FailureModel::uniform(5, 0.1, 0.0)),
        ..ServiceConfig::default()
    };
    match service(config) {
        Err(e) => assert_eq!(e, ConfigError::FailureModelSize { covers: 5, n: N }),
        Ok(_) => panic!("a 5-node failure model was accepted for a {N}-node tree"),
    }
    let config = ServiceConfig {
        failures: Some(FailureModel::uniform(N, 0.1, 0.0)),
        ..ServiceConfig::default()
    };
    assert!(service(config).is_ok());
}

/// The sweep bill is built once per tree and alive set, so a death must
/// drop it: a service that kills a node between two sampled epochs bills
/// its next sweep as a fresh service that lost the node before its first
/// sweep bills that one, charge for charge.
#[test]
fn the_sweep_after_a_death_bills_the_repaired_tree() {
    let mut source = IndependentGaussian::random(N, 40.0..60.0, 1.0..4.0, 7);
    let victim = NodeId(1); // a root child with three children
    let mut svc = service(ServiceConfig::default()).expect("config is valid");
    for epoch in 0..2 {
        svc.begin_epoch(&source.values(epoch), &mut NullTracer);
    }
    svc.kill_node(victim, &mut NullTracer).expect("victim is not the root");
    let mut fresh = service(ServiceConfig::default()).expect("config is valid");
    fresh.kill_node(victim, &mut NullTracer).expect("victim is not the root");
    assert_eq!(svc.topology().parent_vec(), fresh.topology().parent_vec());

    let values = source.values(2);
    let (mut got, mut want) = (RingTracer::new(256), RingTracer::new(256));
    let swept = svc.begin_epoch(&values, &mut got);
    let first = fresh.begin_epoch(&values, &mut want);
    assert!(swept.sampled && first.sampled);
    assert_eq!(swept.sweep_mj.to_bits(), first.sweep_mj.to_bits());
    let charges = |t: &mut RingTracer| -> Vec<TraceEvent> {
        t.take().into_iter().filter(|e| matches!(e, TraceEvent::Energy { .. })).collect()
    };
    let charged = charges(&mut got);
    assert!(!charged.is_empty(), "the sweep charged nothing");
    assert_eq!(charged, charges(&mut want));
}
