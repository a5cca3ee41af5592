//! Continuous building monitoring à la the Intel Berkeley Lab deployment
//! (Figure 9): 54 motes report temperatures every epoch; the base station
//! keeps a sample window fresh with occasional full sweeps, re-plans when
//! the expected improvement justifies re-installation, and copes with
//! transient link failures (Section 4.4).
//!
//! ```text
//! cargo run --example building_monitor
//! ```

use prospector::core::ProspectorLpNoLf;
use prospector::data::intel::IntelConfig;
use prospector::data::{IntelLabLike, SamplePolicy};
use prospector::net::{ArqPolicy, EnergyModel, FailureModel, FaultSchedule, NetworkBuilder, Phase};
use prospector::obs::NullTracer;
use prospector::sim::{ExperimentConfig, ExperimentRunner};

fn main() {
    // 54 motes on a 40 m × 30 m floor; radio range trimmed to 10 m for a
    // multi-hop tree, as the paper does with the lab data.
    let network = (0..6)
        .map(|i| 8.0 + 2.0 * i as f64)
        .find_map(|range| NetworkBuilder::new(54, 40.0, 30.0, range).seed(99).build().ok())
        .expect("lab network connects");
    let topology = network.topology.clone();
    println!("54 motes, tree height {}", topology.height());

    let mut temps = IntelLabLike::new(network.positions.clone(), IntelConfig::default(), 99);
    let energy = EnergyModel::mica2();

    // One unreliable link in twenty; rerouting costs 2 mJ per failure.
    let failures = FailureModel::uniform(54, 0.05, 2.0);

    let config = ExperimentConfig {
        k: 5,
        window: 24,
        // Full sweep for the first day (24 epochs), then every 12 epochs.
        policy: SamplePolicy::Periodic { warmup: 24, period: 12 },
        budget_mj: 12.0,
        replan_every: 24,
        replan_threshold: 0.2,
        failures: Some(failures),
        faults: FaultSchedule::new(),
        install_retries: 2,
        // Per-hop ARQ with the default backoff; escalate the retry budget
        // whenever fewer than 90% of plan edges deliver in an epoch.
        arq: ArqPolicy::default(),
        min_delivered: 0.9,
        max_retry_budget: 6,
        gate: None,
        continuous: None,
        seed: 5,
    };

    let planner = ProspectorLpNoLf;
    let mut runner = ExperimentRunner::new(&topology, &energy, &planner, config);
    let epochs = 24 * 7; // one simulated week at 24 epochs/day
    let reports = runner.run_to(&mut temps, epochs, &mut NullTracer).expect("run completes");

    let queries: Vec<_> = reports.iter().filter(|r| !r.sampled).collect();
    let sweeps = reports.len() - queries.len();
    let avg_acc: f64 = queries.iter().map(|r| r.accuracy).sum::<f64>() / queries.len() as f64;
    let replans = reports.iter().filter(|r| r.replanned).count();

    println!("\none week of monitoring ({} epochs):", epochs);
    println!("  {:>5} full sampling sweeps", sweeps);
    println!("  {:>5} plan (re-)installations", replans);
    println!("  {:>5.1}% average accuracy on the {} query epochs", 100.0 * avg_acc, queries.len());

    let meter = runner.meter();
    println!("\nenergy breakdown (mJ):");
    for (label, phase) in [
        ("sampling sweeps", Phase::Sampling),
        ("plan installs", Phase::PlanInstall),
        ("trigger broadcasts", Phase::Trigger),
        ("collection", Phase::Collection),
        ("ARQ retransmits", Phase::Retransmit),
        ("failure rerouting", Phase::Rerouting),
    ] {
        println!("  {label:<20} {:>10.1}", meter.phase_total(phase));
    }
    println!("  {:<20} {:>10.1}", "total", meter.total());
    if let Some((node, mj)) = meter.hottest_node() {
        println!("\nhottest node: {node} at {mj:.1} mJ — the network lives as long as it does");
    }
}
