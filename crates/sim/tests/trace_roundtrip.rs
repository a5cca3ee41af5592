//! Tracing is observation-only: running any scenario with a tracer
//! attached must not perturb the simulation, and every sink must agree on
//! the serialized stream.

use prospector_obs::{event, JsonlTracer, NullTracer, RingTracer};
use prospector_sim::ExperimentRunner;
use prospector_testutil::{assert_meters_bit_identical, golden, lossy_config, recovery_config};

use prospector_core::FallbackPlanner;
use prospector_data::IndependentGaussian;
use prospector_net::{topology, EnergyModel, FaultSchedule};

/// Attaching a tracer changes nothing about the run itself: reports and
/// the cumulative meter are bit-identical to the untraced run.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let t = topology::balanced(3, 2);
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let n = t.len();
    let builders: [&dyn Fn() -> prospector_sim::ExperimentConfig; 2] =
        [&|| recovery_config(FaultSchedule::new()), &move || {
            lossy_config(n, 0.2, 2, FaultSchedule::new())
        }];
    for mk in builders {
        let mut plain_runner = ExperimentRunner::new(&t, &em, &planner, mk());
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 13);
        let plain = plain_runner.run_to(&mut source, 20, &mut NullTracer).unwrap();

        let mut traced_runner = ExperimentRunner::new(&t, &em, &planner, mk());
        let mut source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 13);
        let mut tracer = RingTracer::new(1 << 16);
        let traced = traced_runner.run_to(&mut source, 20, &mut tracer).unwrap();

        assert!(!tracer.is_empty());
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.sampled, b.sampled);
            assert_eq!(a.replanned, b.replanned);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
            assert_eq!(a.lost_edges, b.lost_edges);
            assert_eq!(a.retransmissions, b.retransmissions);
        }
        assert_meters_bit_identical(plain_runner.meter(), traced_runner.meter(), t.len());
    }
}

/// The streaming JSONL sink and post-hoc serialization of the in-memory
/// ring produce the same bytes for every golden scenario.
#[test]
fn jsonl_sink_matches_ring_serialization() {
    for &name in golden::SCENARIOS {
        let events = golden::golden_events(name);
        let mut sink = JsonlTracer::new(Vec::new());
        for ev in &events {
            use prospector_obs::Tracer;
            sink.record(ev.clone());
        }
        assert_eq!(sink.io_errors(), 0);
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(streamed, event::to_jsonl(&events), "{name}");
    }
}
