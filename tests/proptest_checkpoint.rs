//! Property tests over the checkpoint wire format: encode→decode is the
//! identity on arbitrary seeded runner states (including a full
//! resume→re-checkpoint cycle), and no single-byte corruption or
//! truncation ever decodes.

use proptest::prelude::*;
use prospector::ckpt::Checkpoint;
use prospector::core::FallbackPlanner;
use prospector::data::IndependentGaussian;
use prospector::net::{EnergyModel, FaultSchedule, NodeId};
use prospector::obs::NullTracer;
use prospector::sim::ExperimentRunner;
use prospector_testutil::{lossy_config, network};

/// Runs a seeded chaos experiment for `epochs` and returns its encoded
/// checkpoint. Every argument perturbs some serialized field: network
/// shape, loss model, ARQ budget, fault schedule, RNG stream position.
fn chaos_checkpoint(n: usize, p_milli: u32, retries: u32, seed: u64, epochs: u64) -> Vec<u8> {
    let net = network(n, seed);
    let energy = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let faults = FaultSchedule::new().with_death(3, NodeId::from_index(n - 1)).with_degradation(
        6,
        NodeId::from_index(1),
        0.04,
    );
    let cfg = lossy_config(n, f64::from(p_milli) / 1000.0, retries, faults);
    let mut source = IndependentGaussian::random(n, 10.0..90.0, 0.5..5.0, seed ^ 0xBEEF);
    let mut runner = ExperimentRunner::new(&net.topology, &energy, &planner, cfg);
    runner.enable_metrics();
    runner.run_to(&mut source, epochs, &mut NullTracer).expect("chaos run");
    runner.checkpoint().encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn encode_decode_is_the_identity_on_runner_states(
        n in 8usize..24,
        p_milli in 0u32..300,
        retries in 0u32..4,
        seed in 0u64..1_000,
        epochs in 0u64..10,
    ) {
        let bytes = chaos_checkpoint(n, p_milli, retries, seed, epochs);
        let ckpt = Checkpoint::decode(&bytes).expect("decode");
        prop_assert_eq!(ckpt.next_epoch, epochs);
        // Decode→encode reproduces the exact bytes: the format has no
        // slack (no map-order, padding or float-formatting freedom).
        prop_assert_eq!(&ckpt.encode(), &bytes);

        // Resume→re-checkpoint is also lossless: a resumed runner
        // observes the identical state image.
        let energy = EnergyModel::mica2();
        let planner = FallbackPlanner::standard();
        let resumed =
            ExperimentRunner::resume(ckpt, &energy, &planner).expect("resume from valid image");
        prop_assert_eq!(&resumed.checkpoint().encode(), &bytes);
    }
}

#[test]
fn every_single_byte_corruption_is_detected() {
    let bytes = chaos_checkpoint(14, 120, 2, 42, 7);
    // The codec's unit tests prove FNV-1a detects all 255 substitutions
    // of any one byte; here we drive whole-file decodes with three
    // representative flips per position (low bit, high bit, all bits) to
    // cover the header paths (magic, version, length, checksum) too.
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            assert!(
                Checkpoint::decode(&corrupt).is_err(),
                "flipping byte {pos} with {flip:#04x} still decoded"
            );
        }
    }
}

#[test]
fn appended_trailing_bytes_are_detected() {
    let mut bytes = chaos_checkpoint(10, 50, 1, 7, 3);
    bytes.push(0);
    assert!(Checkpoint::decode(&bytes).is_err(), "trailing byte accepted");
}
