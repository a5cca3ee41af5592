//! Adaptive re-sampling (Section 4.4, "Re-sampling").
//!
//! "When to re-sample depends on how confident we are in the accuracy of
//! the current model for predicting top k. This confidence can be measured
//! by periodically running ProspectorProof or ProspectorExact (instead of
//! Prospectors without proofs), which can tell us the accuracy of our
//! approximate solutions. If the accuracy is not acceptable, the rate of
//! re-sampling is increased."
//!
//! The loop here runs an approximate plan epoch by epoch; every
//! `audit_every` epochs it spends a two-phase **exact** execution (whose
//! answer is ground truth *and* doubles as a fresh sample) to measure the
//! current plan's real accuracy, then adapts the sampling period: halve it
//! when accuracy is below the floor, lengthen it when comfortably above.

use crate::dissemination::install_plan_traced;
use crate::exact_exec::run_exact;
use crate::exec::{charge_as, charge_sweep, execute_plan, execute_plan_traced};
use crate::runner::{apply_deaths, mask_dead_edges, mask_dead_values};
use prospector_core::{exact::ExactConfig, Plan, PlanContext, PlanError, Planner};
use prospector_data::{SampleSet, ValueSource};
use prospector_net::{EnergyMeter, EnergyModel, FaultSchedule, Phase, Topology};
use prospector_obs::{TraceEvent, Tracer};

/// Configuration of the adaptive loop.
pub struct AdaptiveConfig {
    /// Top-k parameter.
    pub k: usize,
    /// Sample-window capacity.
    pub window: usize,
    /// Budget per approximate collection.
    pub budget_mj: f64,
    /// Epochs of mandatory initial sampling.
    pub warmup: u64,
    /// Run the exact audit every this many epochs.
    pub audit_every: u64,
    /// Adapt downward when measured accuracy falls below this.
    pub accuracy_floor: f64,
    /// Initial / minimum / maximum sampling period.
    pub initial_period: u64,
    pub min_period: u64,
    pub max_period: u64,
    /// Phase-1 budget multiplier (over the minimum proof cost) for audits.
    pub audit_budget_factor: f64,
    /// Scheduled permanent failures; the loop repairs the tree and keeps
    /// going when they fire.
    pub faults: FaultSchedule,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            k: 5,
            window: 16,
            budget_mj: 30.0,
            warmup: 8,
            audit_every: 16,
            accuracy_floor: 0.8,
            initial_period: 12,
            min_period: 2,
            max_period: 48,
            audit_budget_factor: 1.2,
            faults: FaultSchedule::new(),
        }
    }
}

/// One epoch of the adaptive loop.
#[derive(Debug, Clone)]
pub struct AdaptiveEpoch {
    pub epoch: u64,
    /// The sampling period in force this epoch.
    pub period: u64,
    /// What the epoch was spent on.
    pub kind: AdaptiveAction,
    /// True accuracy of the delivered answer (1.0 for sweeps/audits).
    pub accuracy: f64,
    /// Energy spent this epoch (mJ).
    pub energy_mj: f64,
}

/// What an adaptive epoch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveAction {
    /// Full sweep feeding the window.
    Sample,
    /// Exact two-phase audit: measures the plan's real accuracy.
    Audit,
    /// Ordinary approximate query.
    Query,
}

impl AdaptiveAction {
    /// Stable lowercase tag used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            AdaptiveAction::Sample => "sample",
            AdaptiveAction::Audit => "audit",
            AdaptiveAction::Query => "query",
        }
    }
}

/// Runs the adaptive loop for `epochs` epochs, returning each epoch's
/// summary and the run's meter (the sum of every epoch's charges). Fault
/// handling emits `NodeDeath`/`TreeRepaired` events, energy charges that
/// land in the meter are mirrored as `Energy` events in charge order, and
/// every epoch closes with one `AdaptiveEpoch` summary event.
pub fn run_adaptive<S: ValueSource>(
    topology: &Topology,
    energy: &EnergyModel,
    planner: &dyn Planner,
    source: &mut S,
    config: &AdaptiveConfig,
    epochs: u64,
    tracer: &mut dyn Tracer,
) -> Result<(Vec<AdaptiveEpoch>, EnergyMeter), PlanError> {
    let n = topology.len();
    let mut topology = topology.clone();
    let mut alive = vec![true; n];
    let mut samples = SampleSet::new(n, config.k, config.window);
    let mut meter = EnergyMeter::new(n);
    let mut period = config.initial_period.clamp(config.min_period, config.max_period);
    let mut since_sample = 0u64;
    let mut plan: Option<Plan> = None;
    let mut reports = Vec::with_capacity(epochs as usize);

    for epoch in 0..epochs {
        let mut epoch_meter = EnergyMeter::new(n);
        // Permanent failures scheduled for this epoch: repair the tree,
        // silence the dead in the window, and force a fresh plan.
        let deaths = apply_deaths(
            &config.faults,
            epoch,
            &mut topology,
            &mut alive,
            &mut samples,
            energy,
            &mut epoch_meter,
            tracer,
        )?;
        if !deaths.is_empty() {
            plan = None;
        }

        let mut values = source.values(epoch);
        mask_dead_values(&mut values, &alive);
        let truth = prospector_data::top_k_nodes(&values, config.k);

        let (kind, accuracy) = if epoch < config.warmup || since_sample >= period {
            // Mandatory warmup and period-driven sweeps.
            charge_sweep(&topology, &alive, energy, &values, &mut epoch_meter, tracer);
            samples.push(values);
            since_sample = 0;
            plan = None; // stale: replan on next query epoch
            (AdaptiveAction::Sample, 1.0)
        } else {
            since_sample += 1;
            // Plan lazily against the current window; the install is
            // charged to the epoch that disseminates it.
            let current = match &mut plan {
                Some(current) => current,
                None => {
                    let ctx = PlanContext::new(&topology, energy, &samples, config.budget_mj);
                    let mut p = planner.plan(&ctx)?;
                    mask_dead_edges(&mut p, &topology, &alive);
                    epoch_meter.merge(&install_plan_traced(&p, &topology, energy, tracer));
                    plan.insert(p)
                }
            };

            if config.audit_every > 0 && epoch % config.audit_every == 0 {
                // Periodic exact audit: measures the plan's *true*
                // accuracy.
                let approx = execute_plan(current, &topology, energy, &values, config.k, None);
                let hits = approx.answer.iter().filter(|r| truth.contains(&r.node)).count();
                let measured = hits as f64 / config.k as f64;

                let probe = PlanContext::new(&topology, energy, &samples, 1.0);
                let cfg = ExactConfig {
                    phase1_budget_mj: probe.min_proof_cost() * config.audit_budget_factor,
                };
                let ctx = PlanContext::new(&topology, energy, &samples, cfg.phase1_budget_mj);
                let phase1 = cfg.plan_phase1(&ctx)?;
                let exact = run_exact(&phase1, &topology, energy, &values, config.k, None);
                charge_as(&mut epoch_meter, &exact.meter, Phase::Sampling, tracer);
                charge_as(&mut epoch_meter, &approx.meter, Phase::Collection, tracer);

                // Adapt the sampling rate. A full value vector is only
                // known for sweep epochs, so audits only reset staleness
                // pressure rather than pushing to the window.
                period = if measured < config.accuracy_floor {
                    (period / 2).max(config.min_period)
                } else {
                    (period + period / 4 + 1).min(config.max_period)
                };
                (AdaptiveAction::Audit, measured)
            } else {
                // Ordinary approximate query.
                let r = execute_plan_traced(
                    current, &topology, energy, &values, config.k, None, tracer,
                );
                epoch_meter.merge(&r.meter);
                let hits = r.answer.iter().filter(|x| truth.contains(&x.node)).count();
                (AdaptiveAction::Query, hits as f64 / config.k as f64)
            }
        };

        meter.merge(&epoch_meter);
        let report =
            AdaptiveEpoch { epoch, period, kind, accuracy, energy_mj: epoch_meter.total() };
        record_adaptive(tracer, &report);
        reports.push(report);
    }

    Ok((reports, meter))
}

/// Emits the per-epoch summary event for the adaptive loop.
fn record_adaptive(tracer: &mut dyn Tracer, r: &AdaptiveEpoch) {
    if tracer.enabled() {
        tracer.record(TraceEvent::AdaptiveEpoch {
            epoch: r.epoch,
            action: r.kind.name(),
            period: r.period,
            accuracy: r.accuracy,
            energy_mj: r.energy_mj,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_core::ProspectorGreedy;
    use prospector_data::{IndependentGaussian, RandomWalk};
    use prospector_net::topology::balanced;
    use prospector_obs::NullTracer;

    fn avg_period_tail(reports: &[AdaptiveEpoch]) -> f64 {
        let tail = &reports[reports.len() / 2..];
        tail.iter().map(|r| r.period as f64).sum::<f64>() / tail.len() as f64
    }

    #[test]
    fn stable_source_lengthens_sampling_period() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.2..0.5, 3);
        let cfg = AdaptiveConfig { budget_mj: 40.0, ..Default::default() };
        let (reports, _) =
            run_adaptive(&t, &em, &ProspectorGreedy, &mut src, &cfg, 120, &mut NullTracer).unwrap();
        assert!(
            avg_period_tail(&reports) > cfg.initial_period as f64,
            "stable data should earn a longer sampling period"
        );
    }

    #[test]
    fn drifting_source_shortens_sampling_period() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        // Strong drift plus a tight budget: the plan can only cover a
        // subset of nodes, and drift moves the top-k out from under it.
        let mut src = RandomWalk::new(t.len(), 50.0, 5.0, 4.0, 0.0, 9);
        let cfg = AdaptiveConfig {
            budget_mj: 9.0,
            accuracy_floor: 0.9,
            audit_every: 8,
            ..Default::default()
        };
        let (reports, _) =
            run_adaptive(&t, &em, &ProspectorGreedy, &mut src, &cfg, 120, &mut NullTracer).unwrap();
        assert!(
            avg_period_tail(&reports) < cfg.initial_period as f64,
            "drifting data should force more frequent sampling (avg {})",
            avg_period_tail(&reports)
        );
    }

    #[test]
    fn scheduled_death_repairs_and_finishes() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.5..1.0, 5);
        let victim = t.children(t.root())[0];
        let cfg = AdaptiveConfig {
            faults: FaultSchedule::new().with_death(20, victim),
            ..Default::default()
        };
        let (reports, meter) =
            run_adaptive(&t, &em, &ProspectorGreedy, &mut src, &cfg, 80, &mut NullTracer).unwrap();
        assert_eq!(reports.len(), 80, "loop survives the death");
        assert!(meter.phase_total(Phase::Repair) > 0.0, "repair was charged");
        // The death epoch's energy includes the repair surcharge.
        let death_epoch = reports.iter().find(|r| r.epoch == 20).unwrap();
        assert!(death_epoch.energy_mj >= meter.phase_total(Phase::Repair));
    }

    #[test]
    fn all_epochs_accounted() {
        let t = balanced(2, 3);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 0.0..10.0, 0.5..1.0, 1);
        let cfg = AdaptiveConfig::default();
        let (reports, meter) =
            run_adaptive(&t, &em, &ProspectorGreedy, &mut src, &cfg, 60, &mut NullTracer).unwrap();
        assert_eq!(reports.len(), 60);
        assert!(meter.total() > 0.0);
        assert!(reports.iter().any(|r| r.kind == AdaptiveAction::Sample));
        assert!(reports.iter().any(|r| r.kind == AdaptiveAction::Audit));
        assert!(reports.iter().any(|r| r.kind == AdaptiveAction::Query));
        // Energy per epoch is recorded and positive for sweeps.
        for r in &reports {
            if r.kind == AdaptiveAction::Sample {
                assert!(r.energy_mj > 0.0);
            }
        }
    }

    #[test]
    fn epoch_energies_sum_to_the_meter() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let mut src = IndependentGaussian::random(t.len(), 40.0..60.0, 0.5..1.0, 5);
        let cfg = AdaptiveConfig::default();
        let (reports, meter) =
            run_adaptive(&t, &em, &ProspectorGreedy, &mut src, &cfg, 80, &mut NullTracer).unwrap();
        // Plan installs land in the epoch that disseminates them.
        let per_epoch: f64 = reports.iter().map(|r| r.energy_mj).sum();
        assert!(
            (per_epoch - meter.total()).abs() < 1e-6,
            "epochs report {per_epoch} mJ, the meter holds {}",
            meter.total()
        );
    }
}
