//! The canonical golden-trace scenarios.
//!
//! Each scenario is a fully seeded multi-epoch experiment whose event
//! stream is a pure function of its configuration: `tests/golden_trace.rs`
//! byte-diffs the serialized JSONL against files blessed under
//! `tests/golden/`, and the `trace` CLI replays the same scenarios for
//! inspection. Anything nondeterministic (wall clock, map order, pointer
//! values) is banned from events by construction — see the
//! `prospector-obs` crate docs.

use crate::{lossy_config, recovery_config, FailingPlanner};
use prospector_core::{
    ContinuousPolicy, FallbackPlanner, GatePolicy, NaiveK, ProspectorGreedy, SketchPrecision,
};
use prospector_data::{IndependentGaussian, PiecewiseConstant, SamplePolicy, ValueSource};
use prospector_net::{topology, DataFault, EnergyModel, FaultSchedule, NodeId, Topology};
use prospector_obs::{event, MetricsSnapshot, RingTracer, TraceEvent};
use prospector_sim::{Checkpoint, ExperimentConfig, ExperimentRunner, ResumeError};

/// Names of the canonical scenarios, in blessing order.
pub const SCENARIOS: &[&str] =
    &["clean", "loss_arq", "death_repair", "data_fault", "continuous_drift", "tight_budget"];

/// Epochs every scenario runs for.
pub const EPOCHS: u64 = 16;

/// Ring capacity used for scenario runs: far above any scenario's event
/// count, so nothing is ever evicted.
const RING_CAP: usize = 1 << 16;

fn tree() -> Topology {
    topology::balanced(3, 2) // 13 nodes
}

/// One canonical scenario, decomposed into its ingredients so harnesses
/// beyond `golden_run` (the kill-and-resume suite, the `trace` CLI) can
/// build, checkpoint and resume runners against the exact same setup.
pub struct Scenario {
    pub name: &'static str,
    pub topology: Topology,
    pub energy: EnergyModel,
    pub planner: FallbackPlanner,
    pub config: ExperimentConfig,
}

impl Scenario {
    /// A fresh metrics-enabled runner over this scenario.
    pub fn runner(&self) -> ExperimentRunner<'_> {
        let mut runner =
            ExperimentRunner::new(&self.topology, &self.energy, &self.planner, self.config.clone());
        runner.enable_metrics();
        runner
    }

    /// A runner resumed from `ckpt`, borrowing this scenario's energy
    /// model and planner.
    pub fn resume(&self, ckpt: Checkpoint) -> Result<ExperimentRunner<'_>, ResumeError> {
        ExperimentRunner::resume(ckpt, &self.energy, &self.planner)
    }

    /// The scenario's value source. Sources are epoch-deterministic
    /// (stateless per epoch), which is what lets a resumed runner skip
    /// straight to its next epoch without fast-forwarding.
    pub fn source(&self) -> ScenarioSource {
        match self.name {
            // Scripted drift: node i starts at 50 - i (so the top 4 are
            // the root and its children, k-th threshold 47), then node 10
            // steps to 48.5 at epoch 9 — crossing the threshold from
            // below, which must ship exactly one delta.
            "continuous_drift" => {
                let base = (0..self.topology.len()).map(|i| 50.0 - i as f64).collect();
                ScenarioSource::Piecewise(PiecewiseConstant::new(base, vec![(9, 10, 48.5)]))
            }
            _ => ScenarioSource::Gaussian(IndependentGaussian::random(
                self.topology.len(),
                40.0..60.0,
                1.0..4.0,
                13,
            )),
        }
    }
}

/// A scenario's value source: scenarios predating the continuous mode
/// all share one seeded Gaussian family, the continuous scenario scripts
/// its drift by hand.
pub enum ScenarioSource {
    Gaussian(IndependentGaussian),
    Piecewise(PiecewiseConstant),
}

impl ValueSource for ScenarioSource {
    fn num_nodes(&self) -> usize {
        match self {
            ScenarioSource::Gaussian(s) => s.num_nodes(),
            ScenarioSource::Piecewise(s) => s.num_nodes(),
        }
    }

    fn values(&mut self, epoch: u64) -> Vec<f64> {
        match self {
            ScenarioSource::Gaussian(s) => s.values(epoch),
            ScenarioSource::Piecewise(s) => s.values(epoch),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ScenarioSource::Gaussian(s) => s.name(),
            ScenarioSource::Piecewise(s) => s.name(),
        }
    }
}

/// Builds one named scenario. Panics on an unknown name; `SCENARIOS`
/// lists the valid ones.
pub fn scenario(name: &str) -> Scenario {
    let t = tree();
    let energy = EnergyModel::mica2();
    match name {
        // Loss-free links, no faults: sampling, planning, installation
        // and reliable collection only.
        "clean" => Scenario {
            name: "clean",
            config: recovery_config(FaultSchedule::new()),
            planner: FallbackPlanner::standard(),
            topology: t,
            energy,
        },
        // 8% uniform loss with a 2-retry ARQ budget: lossy dissemination,
        // retransmissions, occasional lost edges and backfill.
        "loss_arq" => Scenario {
            name: "loss_arq",
            config: lossy_config(t.len(), 0.08, 2, FaultSchedule::new()),
            planner: FallbackPlanner::standard(),
            topology: t,
            energy,
        },
        // A failing primary planner (every replan walks the fallback
        // chain) plus a mid-run node death: repair, forced replanning and
        // plan-attempt errors all appear in the stream.
        "death_repair" => {
            let victim = t.children(t.root())[0];
            Scenario {
                name: "death_repair",
                config: recovery_config(FaultSchedule::new().with_death(8, victim)),
                planner: FallbackPlanner::new(Box::new(FailingPlanner))
                    .or(Box::new(ProspectorGreedy))
                    .or(Box::new(NaiveK)),
                topology: t,
                energy,
            }
        }
        // Two data faults against a tight gate: the node with the highest
        // source mean (always in the historical top-k, so its edge always
        // carries bandwidth and its readings always reach the root) sticks
        // at 1000 for epochs 7..=12, earning quarantine after two strikes;
        // the runner-up takes a single +400 spike at epoch 8, which flags
        // once without quarantine. The fault clears after epoch 12, so the
        // stuck node is still quarantined at the epoch-12 boundary (the
        // crash-resume kill point) and earns parole in-window.
        "data_fault" => {
            let source = IndependentGaussian::random(t.len(), 40.0..60.0, 1.0..4.0, 13);
            let (stuck, runner_up) = top_two_means(&source, t.root());
            let mut config = recovery_config(
                FaultSchedule::new()
                    .with_data_fault(7, stuck, DataFault::StuckAt { level: 1000.0 }, 6)
                    .with_data_fault(8, runner_up, DataFault::Spike { magnitude: 400.0 }, 1),
            );
            config.gate =
                Some(GatePolicy { quarantine_after: 2, parole_after: 2, ..GatePolicy::default() });
            Scenario {
                name: "data_fault",
                config,
                planner: FallbackPlanner::standard(),
                topology: t,
                energy,
            }
        }
        // Continuous mode over scripted drift: two warmup sweeps seed the
        // threshold, then quiet delta epochs ship nothing but beacons;
        // node 10 crosses the threshold at epoch 9 (exactly one delta +
        // one threshold broadcast), and its parent — root child 3 — dies
        // at epoch 12, forcing a pinned `full_refresh` with reason
        // "repair" that re-learns the orphaned subtree. The gate is off:
        // the scripted source has zero variance, so a plausibility band
        // would flag the genuine step as a data fault.
        "continuous_drift" => {
            let victim = t.children(t.root())[2]; // node 3, parent of node 10
            let mut config = recovery_config(FaultSchedule::new().with_death(12, victim));
            config.policy = SamplePolicy::Periodic { warmup: 2, period: 100 };
            config.gate = None;
            config.continuous = Some(ContinuousPolicy {
                tolerance: 0.5,
                refresh_period: 100,
                sketch: Some(SketchPrecision { depth: 10, compression: 16, lo: 0.0, hi: 100.0 }),
            });
            Scenario {
                name: "continuous_drift",
                config,
                planner: FallbackPlanner::standard(),
                topology: t,
                energy,
            }
        }
        // The clean scenario at 10 mJ: every LP+LF solve binds the budget,
        // so its plans come from the simplex, rounding and budget repair
        // rather than from the capture-all closed form.
        "tight_budget" => Scenario {
            name: "tight_budget",
            config: ExperimentConfig { budget_mj: 10.0, ..recovery_config(FaultSchedule::new()) },
            planner: FallbackPlanner::standard(),
            topology: t,
            energy,
        },
        other => panic!("unknown golden scenario {other:?}; valid: {SCENARIOS:?}"),
    }
}

/// The two non-root nodes with the highest source means, highest first.
fn top_two_means(source: &IndependentGaussian, root: NodeId) -> (NodeId, NodeId) {
    let mut nodes: Vec<usize> = (0..source.means().len()).filter(|&i| i != root.index()).collect();
    nodes.sort_by(|&a, &b| source.means()[b].total_cmp(&source.means()[a]));
    (NodeId::from_index(nodes[0]), NodeId::from_index(nodes[1]))
}

/// Runs one named scenario with metrics enabled and returns its full
/// event stream plus the final cumulative metrics snapshot.
///
/// Panics on an unknown name; `SCENARIOS` lists the valid ones. The
/// trace is identical with or without metrics — the registry only
/// aggregates, it never feeds events — which the golden byte-diff pins.
pub fn golden_run(name: &str) -> (Vec<TraceEvent>, MetricsSnapshot) {
    let sc = scenario(name);
    let mut source = sc.source();
    let mut tracer = RingTracer::new(RING_CAP);
    let mut runner = sc.runner();
    runner.run_to(&mut source, EPOCHS, &mut tracer).unwrap_or_else(|e| {
        panic!("{name} scenario runs: {e}");
    });
    let snapshot = runner.metrics().expect("metrics enabled").snapshot();
    assert_eq!(tracer.dropped(), 0, "ring capacity must cover the whole scenario");
    (tracer.take(), snapshot)
}

/// The event stream of one named scenario (metrics snapshot discarded).
pub fn golden_events(name: &str) -> Vec<TraceEvent> {
    golden_run(name).0
}

/// The serialized JSONL for one named scenario (what the golden files
/// store byte-for-byte).
pub fn golden_trace(name: &str) -> String {
    event::to_jsonl(&golden_events(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_produce_bracketed_epochs() {
        for &name in SCENARIOS {
            let events = golden_events(name);
            let starts =
                events.iter().filter(|e| matches!(e, TraceEvent::EpochStart { .. })).count();
            let ends = events.iter().filter(|e| matches!(e, TraceEvent::EpochEnd { .. })).count();
            assert_eq!(starts, EPOCHS as usize, "{name}");
            assert_eq!(ends, EPOCHS as usize, "{name}");
            assert!(matches!(events.first(), Some(TraceEvent::EpochStart { epoch: 0 })), "{name}");
            assert!(matches!(events.last(), Some(TraceEvent::EpochEnd { .. })), "{name}");
        }
    }

    #[test]
    fn scenarios_are_reproducible_in_process() {
        for &name in SCENARIOS {
            assert_eq!(golden_trace(name), golden_trace(name), "{name}");
        }
    }

    #[test]
    fn data_fault_exercises_the_whole_gate_lifecycle() {
        let events = golden_events("data_fault");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::DataFault { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::ReadingFlagged { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::NodeQuarantined { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::NodeReadmitted { .. })));
    }

    #[test]
    fn continuous_drift_pins_the_delta_story() {
        let events = golden_events("continuous_drift");
        let mut epoch = 0u64;
        let mut deltas = Vec::new();
        let mut refreshes = Vec::new();
        let mut broadcasts = Vec::new();
        for e in &events {
            match e {
                TraceEvent::EpochStart { epoch: ep } => epoch = *ep,
                TraceEvent::DeltaShipped { node, value } => deltas.push((epoch, *node, *value)),
                TraceEvent::FullRefresh { reason } => refreshes.push((epoch, *reason)),
                TraceEvent::ThresholdBroadcast { threshold } => {
                    broadcasts.push((epoch, *threshold))
                }
                _ => {}
            }
        }
        // Quiet epochs ship nothing; the one scripted step ships exactly
        // one delta, when node 10 crosses the threshold at epoch 9.
        assert_eq!(deltas, vec![(9, 10, 48.5)]);
        // Full refreshes: the two warmup sweeps, then the repair-forced
        // refresh after node 3 dies at epoch 12. Nothing else.
        assert_eq!(refreshes, vec![(0, "sweep"), (1, "sweep"), (12, "repair")]);
        // The threshold is first learned at epoch 0 (top-4 of 50,49,48,47)
        // and moves to 48 when node 10's 48.5 displaces node 3's 47.
        assert_eq!(broadcasts, vec![(0, 47.0), (9, 48.0)]);
    }

    #[test]
    fn tight_budget_plans_through_the_simplex() {
        // Every plan is LP+LF's and ran pivots: none fit in closed form.
        let pivots: Vec<Option<u64>> = golden_events("tight_budget")
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PlanChosen { lp_iterations, .. } => Some(*lp_iterations),
                _ => None,
            })
            .collect();
        assert!(!pivots.is_empty());
        assert!(pivots.iter().all(|p| p.is_some_and(|n| n > 0)), "{pivots:?}");
    }

    #[test]
    fn death_repair_walks_the_fallback_chain() {
        let events = golden_events("death_repair");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::NodeDeath { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::TreeRepaired { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::PlanAttempt { error: Some(_), .. })));
    }
}
