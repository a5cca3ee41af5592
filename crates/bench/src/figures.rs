//! One runner per table/figure of the paper's evaluation (Section 5).
//!
//! Absolute numbers differ from the paper (different hardware constants,
//! our own simplex instead of CPLEX, synthetic Intel-lab data); the
//! *shapes* — who wins, by what factor, where crossovers fall — are the
//! reproduction targets. EXPERIMENTS.md records both.

use crate::scenarios::{GaussianScenario, IntelScenario, Scenario, ZoneScenario};
use crate::CurvePoint;
use prospector_core::{
    evaluate, exact::ExactConfig, lp_lf::build_lp, oracle, Plan, PlanContext, Planner,
    ProspectorGreedy, ProspectorLpLf, ProspectorLpNoLf,
};
use prospector_data::{IndependentGaussian, SampleSet, ValueSource};
use prospector_net::{EnergyModel, NodeId, Topology};
use prospector_obs::NullTracer;
use prospector_sim::{execute_plan, install_cost, run_exact, run_naive1, Sweep};
use std::time::Instant;

/// A fully rendered figure: identifier, axes and data points.
#[derive(Debug, Clone)]
pub struct FigureResult {
    pub id: &'static str,
    pub title: &'static str,
    pub x_label: &'static str,
    pub y_label: &'static str,
    pub points: Vec<CurvePoint>,
}

/// Average executed collection+trigger energy of `plan` over epochs.
fn avg_exec_mj(
    plan: &Plan,
    topology: &Topology,
    energy: &EnergyModel,
    epochs: &[Vec<f64>],
    k: usize,
) -> f64 {
    let total: f64 = epochs
        .iter()
        .map(|values| execute_plan(plan, topology, energy, values, k, None).total_mj())
        .sum();
    total / epochs.len() as f64
}

/// Average accuracy (%) of `plan` over epochs.
fn avg_accuracy_pct(plan: &Plan, topology: &Topology, epochs: &[Vec<f64>], k: usize) -> f64 {
    let total: f64 =
        epochs.iter().map(|values| evaluate::accuracy_on_values(plan, topology, values, k)).sum();
    100.0 * total / epochs.len() as f64
}

/// Runs each approximate planner across a budget ladder, producing
/// (measured energy, accuracy%) points.
///
/// Every (planner, budget) pair is independent, so the grid is fanned
/// across the worker pool; results come back in planner-major order, so
/// the point list is identical to the old serial double loop.
fn approx_curves<S>(
    scenario: &Scenario<S>,
    energy: &EnergyModel,
    budgets: &[f64],
    planners: &[(&str, &(dyn Planner + Sync))],
) -> Vec<CurvePoint> {
    let topo = &scenario.network.topology;
    let samples = &scenario.samples;
    let eval_epochs = &scenario.eval_epochs;
    let k = scenario.k;
    let jobs: Vec<(&str, &(dyn Planner + Sync), f64)> = planners
        .iter()
        .flat_map(|&(name, planner)| budgets.iter().map(move |&b| (name, planner, b)))
        .collect();
    prospector_par::par_map(&jobs, |_, &(name, planner, budget)| {
        let ctx = PlanContext::new(topo, energy, samples, budget);
        let plan = match planner.plan(&ctx) {
            Ok(p) => p,
            Err(e) => panic!("{name} failed at budget {budget}: {e}"),
        };
        let x = avg_exec_mj(&plan, topo, energy, eval_epochs, k);
        let y = avg_accuracy_pct(&plan, topo, eval_epochs, k);
        CurvePoint::new(name, x, y)
    })
}

/// Exact algorithms (ORACLE / NAIVE-k) traced by varying k' ≤ k, as the
/// paper does: accuracy k'/k at the cost of the k' plan.
fn exact_curves<S>(
    scenario: &Scenario<S>,
    energy: &EnergyModel,
    k_ladder: &[usize],
) -> Vec<CurvePoint> {
    let topo = &scenario.network.topology;
    let eval_epochs = &scenario.eval_epochs;
    let k = scenario.k;
    let mut points = prospector_par::par_map(k_ladder, |_, &kp| {
        let plan = Plan::naive_k(topo, kp);
        let x = avg_exec_mj(&plan, topo, energy, eval_epochs, kp);
        CurvePoint::new("naive-k", x, 100.0 * kp as f64 / k as f64)
    });
    points.extend(prospector_par::par_map(k_ladder, |_, &kp| {
        let cost: f64 = eval_epochs
            .iter()
            .map(|values| {
                let plan = oracle::oracle_plan(topo, values, kp);
                execute_plan(&plan, topo, energy, values, kp, None).total_mj()
            })
            .sum::<f64>()
            / eval_epochs.len() as f64;
        CurvePoint::new("oracle", cost, 100.0 * kp as f64 / k as f64)
    }));
    points
}

fn budget_ladder(scale: f64, fractions: &[f64]) -> Vec<f64> {
    fractions.iter().map(|f| f * scale).collect()
}

/// Table 1 (Section 2): the MICA2-derived cost constants.
pub fn table1() -> FigureResult {
    let em = EnergyModel::mica2();
    let points = vec![
        CurvePoint::new("sending cost (mW)", 0.0, prospector_net::energy::MICA2_TX_MW),
        CurvePoint::new("receiving cost (mW)", 0.0, prospector_net::energy::MICA2_RX_MW),
        CurvePoint::new("byte rate (B/s)", 0.0, prospector_net::energy::MICA2_BYTES_PER_SEC),
        CurvePoint::new("per-byte cost c_b (mJ/B)", 0.0, em.per_byte_mj),
        CurvePoint::new("per-message cost c_m (mJ)", 0.0, em.per_message_mj),
        CurvePoint::new("bytes per value", 0.0, em.value_bytes as f64),
    ];
    FigureResult {
        id: "table1",
        title: "Table 1: MICA2 communication cost model",
        x_label: "-",
        y_label: "value",
        points,
    }
}

/// Figure 3: energy vs accuracy for all algorithms on independent
/// Gaussians.
pub fn fig3(fast: bool) -> FigureResult {
    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);

    let mut points = Vec::new();
    let k_ladder: Vec<usize> = [0.2, 0.4, 0.6, 0.8, 1.0]
        .iter()
        .map(|f| ((f * scenario.k as f64) as usize).max(1))
        .collect();
    points.extend(exact_curves(&scenario, &em, &k_ladder));

    let fractions: &[f64] =
        if fast { &[0.1, 0.3, 0.6, 1.0] } else { &[0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0] };
    let budgets = budget_ladder(naive_cost, fractions);
    let planners: Vec<(&str, &(dyn Planner + Sync))> = vec![
        ("greedy", &ProspectorGreedy),
        ("lp-lf", &ProspectorLpNoLf),
        ("lp+lf", &ProspectorLpLf),
    ];
    points.extend(approx_curves(&scenario, &em, &budgets, &planners));

    FigureResult {
        id: "fig3",
        title: "Figure 3: comparison of algorithms (independent Gaussians)",
        x_label: "energy (mJ)",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// Figure 4: accuracy vs variance at a fixed (ample) energy budget.
pub fn fig4(fast: bool) -> FigureResult {
    let base = if fast {
        GaussianScenario {
            n: 30,
            k: 6,
            num_samples: 8,
            num_eval: 6,
            mean_range: 48.0..52.0,
            std_range: 0.4..0.6,
            seed: 41,
        }
    } else {
        GaussianScenario {
            n: 60,
            k: 10,
            num_samples: 15,
            num_eval: 10,
            mean_range: 48.0..52.0,
            std_range: 0.4..0.6,
            seed: 41,
        }
    };
    let em = EnergyModel::mica2();
    let probe = base.build();
    let topo_probe = &probe.network.topology;
    let naive_cost = avg_exec_mj(
        &Plan::naive_k(topo_probe, base.k),
        topo_probe,
        &em,
        &probe.eval_epochs,
        base.k,
    );
    // "fixed at a sufficiently high level ... to achieve near perfect
    // accuracy when variance is negligible".
    let budget = 0.55 * naive_cost;

    let scales: &[f64] =
        if fast { &[0.5, 2.0, 8.0] } else { &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] };
    // Each variance scale is a self-contained scenario build + two plans;
    // fan the scales across workers and flatten in scale order.
    let points: Vec<CurvePoint> = prospector_par::par_map(scales, |_, &scale| {
        let scenario = {
            let mut sc = base.build();
            let scaled = sc.source.with_std_scale(scale);
            let (src, samples, eval) =
                crate::scenarios::warm_up(scaled, base.n, base.k, base.num_samples, base.num_eval);
            sc.source = src;
            sc.samples = samples;
            sc.eval_epochs = eval;
            sc
        };
        let variance = {
            let stds = scenario.source.std_devs();
            stds.iter().map(|s| s * s).sum::<f64>() / stds.len() as f64
        };
        let topo = &scenario.network.topology;
        let mut pts = Vec::new();
        for (name, planner) in
            [("lp-lf", &ProspectorLpNoLf as &dyn Planner), ("lp+lf", &ProspectorLpLf)]
        {
            let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
            let plan = planner.plan(&ctx).expect("planning succeeds");
            let acc = avg_accuracy_pct(&plan, topo, &scenario.eval_epochs, scenario.k);
            pts.push(CurvePoint::new(name, variance, acc));
        }
        pts
    })
    .into_iter()
    .flatten()
    .collect();
    FigureResult {
        id: "fig4",
        title: "Figure 4: effect of variance (fixed budget)",
        x_label: "variance",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// Figure 5: contention zones — energy vs accuracy for LP+LF vs LP−LF.
pub fn fig5(fast: bool) -> FigureResult {
    let scenario = ZoneScenario::fig5(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] =
        if fast { &[0.2, 0.5, 0.9] } else { &[0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0] };
    let budgets = budget_ladder(naive_cost, fractions);
    let planners: Vec<(&str, &(dyn Planner + Sync))> =
        vec![("lp-lf", &ProspectorLpNoLf), ("lp+lf", &ProspectorLpLf)];
    let points = approx_curves(&scenario, &em, &budgets, &planners);
    FigureResult {
        id: "fig5",
        title: "Figure 5: contention zones (energy vs accuracy)",
        x_label: "energy (mJ)",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// Figure 7: accuracy vs the number of contention zones at a fixed budget.
pub fn fig7(fast: bool) -> FigureResult {
    let em = EnergyModel::mica2();
    // Budget fixed at the level that shows the largest LP+LF/LP−LF gap in
    // Figure 5 (mid-ladder of the largest network).
    let probe = ZoneScenario::fig5(fast).build();
    let topo = &probe.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, probe.k), topo, &em, &probe.eval_epochs, probe.k);
    let budget = 0.4 * naive_cost;

    let zone_counts: &[usize] = if fast { &[2, 4, 6] } else { &[1, 2, 3, 4, 5, 6] };
    // One scenario build + two plans per zone count; independent, so each
    // zone count runs on its own worker.
    let points: Vec<CurvePoint> = prospector_par::par_map(zone_counts, |_, &z| {
        let scenario = ZoneScenario::fig5(fast).with_zones(z).build();
        let topo = &scenario.network.topology;
        let mut pts = Vec::new();
        for (name, planner) in
            [("lp-lf", &ProspectorLpNoLf as &dyn Planner), ("lp+lf", &ProspectorLpLf)]
        {
            let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
            let plan = planner.plan(&ctx).expect("planning succeeds");
            let acc = avg_accuracy_pct(&plan, topo, &scenario.eval_epochs, scenario.k);
            pts.push(CurvePoint::new(name, z as f64, acc));
        }
        pts
    })
    .into_iter()
    .flatten()
    .collect();
    FigureResult {
        id: "fig7",
        title: "Figure 7: varying the number of contention zones",
        x_label: "number of contended areas",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// Figure 8: ProspectorExact phase-1/phase-2 cost breakdown vs NAIVE-k
/// and ORACLE-PROOF across phase-1 budget trials.
pub fn fig8(fast: bool) -> FigureResult {
    let base = if fast {
        GaussianScenario {
            n: 18,
            k: 4,
            num_samples: 5,
            num_eval: 4,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 53,
        }
    } else {
        GaussianScenario {
            n: 100,
            k: 25,
            num_samples: 6,
            num_eval: 6,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 53,
        }
    };
    let scenario = base.build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let k = scenario.k;

    let naive_cost = avg_exec_mj(&Plan::naive_k(topo, k), topo, &em, &scenario.eval_epochs, k);
    let oracle_proof_cost: f64 = scenario
        .eval_epochs
        .iter()
        .map(|values| {
            let plan = oracle::oracle_proof_plan(topo, values, k);
            execute_plan(&plan, topo, &em, values, k, None).total_mj()
        })
        .sum::<f64>()
        / scenario.eval_epochs.len() as f64;

    let ctx_probe = PlanContext::new(topo, &em, &scenario.samples, 1.0);
    let min_proof = ctx_probe.min_proof_cost();
    let fracs: &[f64] = if fast { &[0.0, 0.3, 1.0] } else { &[0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 1.0] };
    // Each budget trial plans and replays every epoch independently.
    let points: Vec<CurvePoint> = prospector_par::par_map(fracs, |t, &frac| {
        let phase1_budget = min_proof + frac * (1.15 * naive_cost - min_proof);
        let cfg = ExactConfig { phase1_budget_mj: phase1_budget };
        let ctx = PlanContext::new(topo, &em, &scenario.samples, phase1_budget);
        let plan = cfg.plan_phase1(&ctx).expect("phase-1 plan");
        let (mut p1, mut p2) = (0.0, 0.0);
        for values in &scenario.eval_epochs {
            let r = run_exact(&plan, topo, &em, values, k, None);
            p1 += r.phase1_mj;
            p2 += r.phase2_mj;
        }
        let n_eval = scenario.eval_epochs.len() as f64;
        let x = (t + 1) as f64;
        vec![
            CurvePoint::new("phase-1", x, p1 / n_eval),
            CurvePoint::new("phase-2", x, p2 / n_eval),
            CurvePoint::new("naive-k", x, naive_cost),
            CurvePoint::new("oracle-proof", x, oracle_proof_cost),
        ]
    })
    .into_iter()
    .flatten()
    .collect();
    FigureResult {
        id: "fig8",
        title: "Figure 8: ProspectorExact two-phase cost breakdown",
        x_label: "trial instance",
        y_label: "energy (mJ)",
        points,
    }
}

/// Figure 9: Intel-lab-like data — energy vs accuracy for Greedy, LP−LF
/// and LP+LF (the latter two nearly identical, as in the paper).
pub fn fig9(fast: bool) -> FigureResult {
    let scenario = IntelScenario::fig9(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] =
        if fast { &[0.1, 0.3, 0.7] } else { &[0.05, 0.1, 0.18, 0.3, 0.45, 0.65, 0.9] };
    let budgets = budget_ladder(naive_cost, fractions);
    let planners: Vec<(&str, &(dyn Planner + Sync))> = vec![
        ("greedy", &ProspectorGreedy),
        ("lp-lf", &ProspectorLpNoLf),
        ("lp+lf", &ProspectorLpLf),
    ];
    let mut points = approx_curves(&scenario, &em, &budgets, &planners);
    points.push(CurvePoint::new("naive-k", naive_cost, 100.0));
    FigureResult {
        id: "fig9",
        title: "Figure 9: Intel-lab-like dataset",
        x_label: "energy (mJ)",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// §5 "Other Results": accuracy vs the number of samples used to plan.
pub fn e_samples(fast: bool) -> FigureResult {
    let base = if fast {
        GaussianScenario {
            n: 24,
            k: 5,
            num_samples: 30,
            num_eval: 6,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 61,
        }
    } else {
        GaussianScenario {
            n: 60,
            k: 10,
            num_samples: 30,
            num_eval: 10,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 61,
        }
    };
    let scenario = base.build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let budget = 0.35 * naive_cost;

    let counts: &[usize] = if fast { &[1, 3, 8] } else { &[1, 2, 3, 5, 8, 12, 20, 30] };
    // Each sample-window size replays its own warm-up and plans twice;
    // window sizes are independent of one another.
    let points: Vec<CurvePoint> = prospector_par::par_map(counts, |_, &s| {
        // Rebuild a window holding only the first `s` warm-up samples.
        let mut window = SampleSet::new(base.n, base.k, s);
        let mut src = prospector_data::IndependentGaussian::random(
            base.n,
            base.mean_range.clone(),
            base.std_range.clone(),
            base.seed,
        );
        for epoch in 0..s as u64 {
            window.push(src.values(epoch));
        }
        let mut pts = Vec::new();
        for (name, planner) in
            [("lp-lf", &ProspectorLpNoLf as &dyn Planner), ("lp+lf", &ProspectorLpLf)]
        {
            let ctx = PlanContext::new(topo, &em, &window, budget);
            let plan = planner.plan(&ctx).expect("planning succeeds");
            let acc = avg_accuracy_pct(&plan, topo, &scenario.eval_epochs, scenario.k);
            pts.push(CurvePoint::new(name, s as f64, acc));
        }
        pts
    })
    .into_iter()
    .flatten()
    .collect();
    FigureResult {
        id: "esamples",
        title: "Sampling size vs accuracy (Section 5, other results)",
        x_label: "number of samples",
        y_label: "accuracy (% of top k)",
        points,
    }
}

/// §5 "Other Results": LP solve wall time vs the energy constraint.
pub fn e_lp_time(fast: bool) -> FigureResult {
    let scenario = if fast {
        GaussianScenario::fig3(true)
    } else {
        GaussianScenario {
            n: 80,
            k: 15,
            num_samples: 15,
            num_eval: 4,
            mean_range: 40.0..60.0,
            std_range: 1.0..5.0,
            seed: 71,
        }
    }
    .build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] = if fast { &[0.2, 0.6] } else { &[0.1, 0.25, 0.4, 0.55, 0.7, 0.9] };
    let mut points = Vec::new();
    for &f in fractions {
        let budget = f * naive_cost;
        let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
        // The program, built and solved: where the capture-all plan fits,
        // the planner itself would skip the simplex.
        let t0 = Instant::now();
        let _ = build_lp(&ctx).0.solve().expect("lp+lf");
        points.push(CurvePoint::new("lp+lf", budget, t0.elapsed().as_secs_f64()));
    }
    // Proof LP timings on a smaller network (its LP is the largest).
    let proof_scenario = if fast {
        GaussianScenario {
            n: 14,
            k: 3,
            num_samples: 4,
            num_eval: 2,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 72,
        }
    } else {
        GaussianScenario {
            n: 30,
            k: 6,
            num_samples: 6,
            num_eval: 2,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 72,
        }
    }
    .build();
    let ptopo = &proof_scenario.network.topology;
    let pctx = PlanContext::new(ptopo, &em, &proof_scenario.samples, 1.0);
    let min_proof = pctx.min_proof_cost();
    for &f in fractions {
        let budget = min_proof * (1.0 + f);
        let ctx = PlanContext::new(ptopo, &em, &proof_scenario.samples, budget);
        let t0 = Instant::now();
        let _ = prospector_core::ProspectorProof::default().plan(&ctx).expect("proof lp");
        points.push(CurvePoint::new("proof", budget, t0.elapsed().as_secs_f64()));
    }
    FigureResult {
        id: "elptime",
        title: "LP solve time vs energy constraint (Section 5, other results)",
        x_label: "budget (mJ)",
        y_label: "solve time (s)",
        points,
    }
}

/// §5 text: plan installation costs on the order of one collection phase.
pub fn e_dissemination(fast: bool) -> FigureResult {
    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] = if fast { &[0.3, 0.8] } else { &[0.1, 0.3, 0.5, 0.8] };
    let mut points = Vec::new();
    for &f in fractions {
        let budget = f * naive_cost;
        let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
        let plan = ProspectorLpLf.plan(&ctx).expect("lp+lf");
        let collect = avg_exec_mj(&plan, topo, &em, &scenario.eval_epochs, scenario.k);
        let install = install_cost(&plan, topo, &em);
        points.push(CurvePoint::new("collection", budget, collect));
        points.push(CurvePoint::new("install", budget, install));
    }
    FigureResult {
        id: "edissem",
        title: "Plan dissemination vs collection cost (Section 5 text)",
        x_label: "budget (mJ)",
        y_label: "energy (mJ)",
        points,
    }
}

/// Extra shape check used by tests and EXPERIMENTS.md: NAIVE-1's cost at
/// small k already rivals NAIVE-k at large k.
pub fn naive1_vs_naive_k(fast: bool) -> FigureResult {
    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let values = &scenario.eval_epochs[0];
    let mut points = Vec::new();
    let ks: &[usize] = if fast { &[1, 4, 8] } else { &[1, 5, 10, 15, 20, 25] };
    for &kp in ks {
        let (_, meter) = run_naive1(topo, &em, values, kp);
        points.push(CurvePoint::new("naive-1", kp as f64, meter.total()));
        let plan = Plan::naive_k(topo, kp);
        let cost = execute_plan(&plan, topo, &em, values, kp, None).total_mj();
        points.push(CurvePoint::new("naive-k", kp as f64, cost));
    }
    FigureResult {
        id: "naive1",
        title: "NAIVE-1 vs NAIVE-k cost (Section 2/5 discussion)",
        x_label: "k",
        y_label: "energy (mJ)",
        points,
    }
}

/// Ablation: how the proof planner's budget-fill strategy affects
/// `ProspectorExact` (DESIGN.md §9). The need-aware fill spreads witness
/// margin relative to each subtree's observed top-k load; the naive
/// subtree-deficit fill leaves many subtrees one witness short, and since
/// proofs form a prefix a single missing witness collapses the proven
/// count — phase 2 then pays for it.
pub fn ablation_fill(fast: bool) -> FigureResult {
    use prospector_core::proof_lp::{FillStrategy, ProspectorProof};

    let base = if fast {
        GaussianScenario {
            n: 24,
            k: 6,
            num_samples: 5,
            num_eval: 4,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 53,
        }
    } else {
        GaussianScenario {
            n: 70,
            k: 15,
            num_samples: 6,
            num_eval: 6,
            mean_range: 40.0..60.0,
            std_range: 1.0..4.0,
            seed: 53,
        }
    };
    let scenario = base.build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let k = scenario.k;
    let naive_cost = avg_exec_mj(&Plan::naive_k(topo, k), topo, &em, &scenario.eval_epochs, k);
    let min_proof = PlanContext::new(topo, &em, &scenario.samples, 1.0).min_proof_cost();

    let fracs: &[f64] = if fast { &[0.2, 0.5] } else { &[0.1, 0.2, 0.3, 0.4, 0.55, 0.75] };
    // Fan the (strategy, budget) grid across workers; strategy-major
    // job order keeps the point list identical to the serial loops.
    let jobs: Vec<(&str, FillStrategy, f64)> = [
        ("need-aware", FillStrategy::NeedAware),
        ("subtree-deficit", FillStrategy::SubtreeDeficit),
        ("no-fill", FillStrategy::None),
    ]
    .into_iter()
    .flat_map(|(name, fill)| fracs.iter().map(move |&frac| (name, fill, frac)))
    .collect();
    let mut points = prospector_par::par_map(&jobs, |_, &(name, fill, frac)| {
        let budget = min_proof + frac * (1.15 * naive_cost - min_proof);
        let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
        let plan = ProspectorProof { fill }.plan(&ctx).expect("proof plan");
        let total: f64 = scenario
            .eval_epochs
            .iter()
            .map(|v| run_exact(&plan, topo, &em, v, k, None).total_mj())
            .sum::<f64>()
            / scenario.eval_epochs.len() as f64;
        CurvePoint::new(name, budget, total)
    });
    for &frac in fracs {
        let budget = min_proof + frac * (1.15 * naive_cost - min_proof);
        points.push(CurvePoint::new("naive-k", budget, naive_cost));
    }
    FigureResult {
        id: "ablation_fill",
        title: "Ablation: proof-plan budget-fill strategy (ProspectorExact total)",
        x_label: "phase-1 budget (mJ)",
        y_label: "total energy (mJ)",
        points,
    }
}

/// Section 4.4 experiment: planning with vs. without the transient-failure
/// cost model, executed under failure injection. Failure-aware plans
/// inflate lossy edges' message costs, so the executed energy (including
/// rerouting) stays near the budget; failure-blind plans overshoot.
pub fn e_failures(fast: bool) -> FigureResult {
    use prospector_net::FailureModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let k = scenario.k;
    let n = topo.len();
    let naive_cost = avg_exec_mj(&Plan::naive_k(topo, k), topo, &em, &scenario.eval_epochs, k);
    let budget = 0.45 * naive_cost;
    let reroute_mj = 3.0;

    let probs: &[f64] = if fast { &[0.0, 0.2] } else { &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5] };
    let mut points = Vec::new();
    for &p in probs {
        let fm = FailureModel::uniform(n, p, reroute_mj);
        for (name, aware) in [("failure-aware", true), ("failure-blind", false)] {
            let ctx = if aware {
                PlanContext::new(topo, &em, &scenario.samples, budget).with_failures(&fm)
            } else {
                PlanContext::new(topo, &em, &scenario.samples, budget)
            };
            let plan = ProspectorLpNoLf.plan(&ctx).expect("plan");
            let mut rng = StdRng::seed_from_u64(97);
            let mut energy = 0.0;
            let mut acc = 0.0;
            for values in &scenario.eval_epochs {
                let r = prospector_sim::execute_plan(
                    &plan,
                    topo,
                    &em,
                    values,
                    k,
                    Some((&fm, &mut rng)),
                );
                energy += r.total_mj();
                acc += evaluate::accuracy_on_values(&plan, topo, values, k);
            }
            let n_eval = scenario.eval_epochs.len() as f64;
            points.push(CurvePoint::new(name, p, energy / n_eval));
            points.push(CurvePoint::new(format!("{name}-accuracy"), p, 100.0 * acc / n_eval));
        }
        points.push(CurvePoint::new("budget", p, budget));
    }
    FigureResult {
        id: "efailures",
        title: "Failure-aware planning under transient-failure injection (Section 4.4)",
        x_label: "edge failure probability",
        y_label: "measured energy (mJ) / accuracy (%)",
        points,
    }
}

/// Extension: permanent-failure tolerance (Section 4.4, "Adapting to
/// change"). A growing fraction of non-root nodes dies mid-run; the
/// runner detects each death, repairs the spanning tree, masks the dead
/// out of the sample window and re-plans through the degradation chain.
/// The reproduction target is graceful decay: accuracy over the
/// *survivors* should fall slowly with the death rate, never collapse.
pub fn fault_tolerance(fast: bool) -> FigureResult {
    use prospector_core::FallbackPlanner;
    use prospector_data::SamplePolicy;
    use prospector_net::{ArqPolicy, FailureModel, FaultSchedule, NetworkBuilder, Phase};
    use prospector_sim::{ExperimentConfig, ExperimentRunner};

    let (n, k, epochs) = if fast { (30usize, 4usize, 60u64) } else { (80, 10, 160) };
    let side = 40.0 * (n as f64).sqrt();
    let network =
        NetworkBuilder::new(n, side, side, 70.0).seed(87).build().expect("connected placement");
    let topo = &network.topology;
    let em = EnergyModel::mica2();

    // Budget pinned to a fraction of NAIVE-k's measured cost, as in the
    // accuracy figures.
    let mut probe = prospector_data::IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 87);
    let probe_values = probe.values(0);
    let naive_cost =
        execute_plan(&Plan::naive_k(topo, k), topo, &em, &probe_values, k, None).total_mj();

    let rates: &[f64] = if fast { &[0.0, 0.1, 0.25] } else { &[0.0, 0.05, 0.1, 0.2, 0.3] };
    let warmup = 8u64;
    let mut points = Vec::new();
    for &rate in rates {
        let deaths = (rate * (n - 1) as f64).round() as usize;
        // Deaths land strictly after warmup and leave a recovery tail.
        let faults = FaultSchedule::random_deaths(n, deaths, warmup + 2..epochs * 3 / 4, 87);
        let planner = FallbackPlanner::standard();
        // Node deaths ride on top of a constant transient message-loss
        // floor, so every hop runs the per-hop ARQ and the Retransmit
        // phase meters real work at every death rate.
        let config = ExperimentConfig {
            k,
            window: 10,
            policy: SamplePolicy::Periodic { warmup, period: 10 },
            budget_mj: 0.4 * naive_cost,
            replan_every: 8,
            replan_threshold: 0.1,
            failures: Some(FailureModel::uniform(n, 0.08, 0.0)),
            faults,
            install_retries: 2,
            arq: ArqPolicy::default(),
            min_delivered: 0.0,
            max_retry_budget: 8,
            gate: None,
            continuous: None,
            seed: 87,
        };
        let mut source = prospector_data::IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 87);
        let mut runner = ExperimentRunner::new(topo, &em, &planner, config);
        let reports = runner
            .run_to(&mut source, epochs, &mut NullTracer)
            .expect("fallback chain never aborts");

        let queries: Vec<_> = reports.iter().filter(|r| !r.sampled).collect();
        let acc = 100.0 * queries.iter().map(|r| r.accuracy).sum::<f64>() / queries.len() as f64;
        let repaired = reports.iter().filter(|r| r.repaired).count();
        let fallbacks = reports.iter().filter(|r| r.fallback_used.is_some()).count();
        points.push(CurvePoint::new("query-accuracy", rate, acc));
        points.push(CurvePoint::new("repaired-epochs", rate, repaired as f64));
        points.push(CurvePoint::new("fallback-epochs", rate, fallbacks as f64));
        points.push(CurvePoint::new(
            "repair-energy",
            rate,
            runner.meter().phase_total(Phase::Repair),
        ));
        points.push(CurvePoint::new(
            "retransmit-energy",
            rate,
            runner.meter().phase_total(Phase::Retransmit),
        ));
    }
    FigureResult {
        id: "fault_tolerance",
        title: "Fault tolerance: node-death rate vs accuracy (Section 4.4)",
        x_label: "fraction of non-root nodes killed",
        y_label: "accuracy (%) / epochs / energy (mJ)",
        points,
    }
}

/// Extension (DESIGN.md §14): the faulty-sensor grid behind
/// `BENCH_dfault.json`. A growing fraction of non-root sensors is
/// corrupted mid-run — stuck at a high level, drifting, spiking, or
/// noisy — and every cell is run twice: with the sampling-based
/// plausibility gate off and on. The headline is the accuracy column:
/// ungated runs answer with the corrupted readings (and let them poison
/// the sample window at sweep epochs), while gated runs flag
/// out-of-band readings, substitute the window prediction, and
/// quarantine repeat offenders — recovering most of the lost accuracy.
pub fn dfault(fast: bool) -> FigureResult {
    use prospector_core::{FallbackPlanner, GatePolicy};
    use prospector_data::SamplePolicy;
    use prospector_net::{ArqPolicy, DataFault, FaultSchedule, NetworkBuilder};
    use prospector_sim::{ExperimentConfig, ExperimentRunner};
    use std::fmt::Write as _;

    let (n, k, epochs) = if fast { (30usize, 4usize, 48u64) } else { (60, 8, 120) };
    let side = 40.0 * (n as f64).sqrt();
    let network =
        NetworkBuilder::new(n, side, side, 70.0).seed(55).build().expect("connected placement");
    let topo = &network.topology;
    let em = EnergyModel::mica2();

    let mut probe = prospector_data::IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 55);
    let probe_values = probe.values(0);
    let naive_cost =
        execute_plan(&Plan::naive_k(topo, k), topo, &em, &probe_values, k, None).total_mj();

    // Sources sit in 40..60 with σ in 1..4, so each kind lands a
    // different distance outside the z·σ band: stuck-at and spikes are
    // flagrant, drift crosses the band only after several epochs, and
    // uniform noise is out of band only on its larger draws.
    let kinds: &[(&str, DataFault)] = &[
        ("stuck_at", DataFault::StuckAt { level: 95.0 }),
        ("drift", DataFault::Drift { rate: 2.0 }),
        ("spike", DataFault::Spike { magnitude: 40.0 }),
        ("noise", DataFault::Noise { amplitude: 30.0 }),
    ];
    let fractions: &[f64] = if fast { &[0.0, 0.1, 0.2] } else { &[0.0, 0.05, 0.1, 0.2, 0.3] };
    let warmup = 8u64;
    let onset = warmup + 2;
    let mut points = Vec::new();
    let mut dump = String::from("{\n  \"bench\": \"dfault\",\n  \"series\": {");
    let mut first_series = true;
    for &(kind_name, fault) in kinds {
        for gated in [false, true] {
            let series = format!("{kind_name}-{}", if gated { "gated" } else { "ungated" });
            let _ = write!(dump, "{}\n    \"{series}\": [", if first_series { "" } else { "," });
            first_series = false;
            for (fi, &fraction) in fractions.iter().enumerate() {
                let count = (fraction * (n - 1) as f64).round() as usize;
                // Faults switch on after warmup and persist to the end.
                let faults =
                    FaultSchedule::random_data_faults(n, count, onset, epochs - onset, fault, 55);
                let config = ExperimentConfig {
                    k,
                    window: 10,
                    // Sweeps interleave with queries past warmup, so the
                    // ungated window keeps ingesting corrupted readings.
                    policy: SamplePolicy::Periodic { warmup, period: 6 },
                    budget_mj: 0.4 * naive_cost,
                    replan_every: 8,
                    replan_threshold: 0.1,
                    failures: None,
                    faults,
                    install_retries: 2,
                    arq: ArqPolicy::default(),
                    min_delivered: 0.0,
                    max_retry_budget: 8,
                    gate: gated.then(GatePolicy::default),
                    continuous: None,
                    seed: 55,
                };
                let planner = FallbackPlanner::standard();
                let mut source =
                    prospector_data::IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 55);
                let mut runner = ExperimentRunner::new(topo, &em, &planner, config);
                let reports = runner
                    .run_to(&mut source, epochs, &mut NullTracer)
                    .expect("dfault run completes");
                let scored: Vec<f64> =
                    reports.iter().filter(|r| r.epoch >= onset).map(|r| r.accuracy).collect();
                let acc = 100.0 * scored.iter().sum::<f64>() / scored.len() as f64;
                points.push(CurvePoint::new(series.clone(), fraction, acc));
                let _ = write!(dump, "{}[{fraction}, {acc:.3}]", if fi > 0 { ", " } else { "" });
            }
            dump.push(']');
        }
    }
    dump.push_str("\n  }\n}\n");
    if !fast {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dfault.json");
        match std::fs::write(path, dump) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => eprintln!("[failed to write {path}: {e}]"),
        }
    }
    FigureResult {
        id: "dfault",
        title: "Faulty sensors: corrupted fraction vs accuracy, gated and ungated (DESIGN.md §14)",
        x_label: "fraction of non-root sensors corrupted",
        y_label: "query accuracy (%)",
        points,
    }
}

/// Extension: the loss-rate × retry-budget grid behind `BENCH_loss.json`.
/// For each uniform per-hop loss rate and ARQ retry budget the plan is
/// rebuilt with loss-aware edge costs, scored analytically over the sample
/// window ([`evaluate::expected_accuracy_under_loss`], parallel but
/// bit-identical to serial) and executed over the eval epochs so
/// Collection + Retransmit energy is metered to the attempt.
pub fn e_loss(fast: bool) -> FigureResult {
    use prospector_core::evaluate::expected_accuracy_under_loss;
    use prospector_net::{epoch_seed, ArqPolicy, FailureModel};
    use prospector_sim::execute_plan_arq;

    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let k = scenario.k;
    let n = topo.len();
    let naive_cost = avg_exec_mj(&Plan::naive_k(topo, k), topo, &em, &scenario.eval_epochs, k);
    let budget = 0.45 * naive_cost;

    let rates: &[f64] = if fast { &[0.0, 0.1, 0.2] } else { &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5] };
    let retry_budgets: &[u32] = if fast { &[0, 1, 3] } else { &[0, 1, 2, 4] };
    let mut points = Vec::new();
    for &retries in retry_budgets {
        let policy = ArqPolicy { max_retries: retries, ..ArqPolicy::default() };
        for &p in rates {
            let fm = FailureModel::uniform(n, p, 0.0);
            let ctx = PlanContext::new(topo, &em, &scenario.samples, budget)
                .with_failures(&fm)
                .with_arq(policy);
            let plan = ProspectorLpNoLf.plan(&ctx).expect("plan");
            let acc =
                expected_accuracy_under_loss(&plan, topo, &scenario.samples, &fm, &policy, 87);
            let energy: f64 = scenario
                .eval_epochs
                .iter()
                .enumerate()
                .map(|(j, values)| {
                    let seed = epoch_seed(87, j as u64);
                    execute_plan_arq(&plan, topo, &em, values, k, &fm, &policy, seed).total_mj()
                })
                .sum::<f64>()
                / scenario.eval_epochs.len() as f64;
            points.push(CurvePoint::new(format!("accuracy-r{retries}"), p, 100.0 * acc));
            points.push(CurvePoint::new(format!("energy-r{retries}"), p, energy));
        }
    }
    FigureResult {
        id: "eloss",
        title: "Lossy collection: per-hop loss rate × ARQ retry budget",
        x_label: "per-hop message loss probability",
        y_label: "expected accuracy (%) / measured energy (mJ)",
        points,
    }
}

/// Extension: the marginal value of energy (the LP+LF budget row's shadow
/// price) across budgets — a diminishing-returns curve an operator can use
/// to pick a budget. High where energy is scarce, zero once the plan
/// captures every sample answer.
pub fn e_sensitivity(fast: bool) -> FigureResult {
    let scenario = GaussianScenario::fig3(fast).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] =
        if fast { &[0.1, 0.4, 1.0] } else { &[0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5] };
    let mut points = Vec::new();
    for &f in fractions {
        let budget = f * naive_cost;
        let ctx = PlanContext::new(topo, &em, &scenario.samples, budget);
        let price = prospector_core::budget_shadow_price(&ctx).expect("shadow price");
        points.push(CurvePoint::new("shadow-price", budget, price));
    }
    FigureResult {
        id: "esensitivity",
        title: "Marginal accuracy per mJ (LP+LF budget shadow price)",
        x_label: "budget (mJ)",
        y_label: "expected answer values per mJ",
        points,
    }
}

/// Extension: generalized subset queries (Section 3) — accuracy vs budget
/// for a selection query and a quantile band on the Intel-lab-like data.
pub fn e_subset(fast: bool) -> FigureResult {
    use prospector_core::subset::{plan_subset_query, subset_accuracy, subset_context};
    use prospector_data::subset::{AnswerSpec, SubsetSampleSet};

    let scenario = IntelScenario::fig9(fast).build();
    let topo = &scenario.network.topology;
    let em = EnergyModel::mica2();
    let n = topo.len();

    // Rebuild generalized windows from the same warm-up epochs.
    let specs = [
        ("selection(>23C)", AnswerSpec::AboveThreshold(23.0)),
        ("quantile(40-60%)", AnswerSpec::QuantileBand { lo: 0.4, hi: 0.6 }),
    ];
    let mut placeholder = SampleSet::new(n, 1, 1);
    placeholder.push(vec![0.0; n]);

    let naive_cost =
        avg_exec_mj(&Plan::naive_k(topo, scenario.k), topo, &em, &scenario.eval_epochs, scenario.k);
    let fractions: &[f64] = if fast { &[0.2, 0.6] } else { &[0.1, 0.2, 0.35, 0.55, 0.8] };

    let mut points = Vec::new();
    for (name, spec) in specs {
        let mut window = SubsetSampleSet::new(n, spec.clone(), scenario.samples.len());
        for j in 0..scenario.samples.len() {
            window.push(scenario.samples.values(j).to_vec());
        }
        for &f in fractions {
            let budget = f * naive_cost;
            let ctx = subset_context(topo, &em, &placeholder, budget);
            let plan = plan_subset_query(&ctx, &window).expect("subset plan");
            let acc: f64 = scenario
                .eval_epochs
                .iter()
                .map(|v| subset_accuracy(&plan, topo, &spec, v))
                .sum::<f64>()
                / scenario.eval_epochs.len() as f64;
            points.push(CurvePoint::new(name, budget, 100.0 * acc));
        }
    }
    FigureResult {
        id: "esubset",
        title: "Generalized subset queries (Section 3): accuracy vs budget",
        x_label: "budget (mJ)",
        y_label: "accuracy (% of answer delivered)",
        points,
    }
}

/// Extension: the observability breakdown behind `BENCH_obs.json` —
/// per-phase energy by epoch for each golden scenario, reconstructed
/// purely from the trace stream (DESIGN.md §11). Full (non-fast) runs
/// additionally dump each scenario's cumulative metrics snapshot to
/// `BENCH_obs.json` at the repository root.
pub fn e_obs(fast: bool) -> FigureResult {
    use prospector_obs::TraceEvent;
    use prospector_testutil::golden;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let mut points = Vec::new();
    let mut dump = String::from("{\n  \"bench\": \"obs\",\n  \"scenarios\": {");
    for (si, &name) in golden::SCENARIOS.iter().enumerate() {
        let t0 = Instant::now();
        let (events, snapshot) = golden::golden_run(name);
        let wall = t0.elapsed().as_secs_f64();

        // Attribute every energy charge to the epoch bracketed by
        // EpochStart; BTreeMaps keep series and x in stable order.
        let mut epoch = 0u64;
        let mut by_phase: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for ev in &events {
            match ev {
                TraceEvent::EpochStart { epoch: e } => epoch = *e,
                TraceEvent::Energy { phase, mj, .. } => {
                    *by_phase.entry(phase).or_default().entry(epoch).or_insert(0.0) += mj;
                }
                _ => {}
            }
        }
        for (phase, epochs) in &by_phase {
            for (&e, &mj) in epochs {
                points.push(CurvePoint::new(format!("{name}:{phase}"), e as f64, mj));
            }
        }

        let _ = write!(
            dump,
            "{}\n    \"{name}\": {{\n      \"wall_s\": {wall:.6},\n      \
             \"events\": {},\n      \"metrics\": {}\n    }}",
            if si > 0 { "," } else { "" },
            events.len(),
            snapshot.to_json()
        );
    }
    dump.push_str("\n  }\n}\n");
    if !fast {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
        match std::fs::write(path, dump) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => eprintln!("[failed to write {path}: {e}]"),
        }
    }
    FigureResult {
        id: "obs",
        title: "Observability: per-phase energy by epoch (golden scenarios)",
        x_label: "epoch",
        y_label: "energy (mJ)",
        points,
    }
}

/// Scale validation (beyond the paper, DESIGN.md §13): wall time of the
/// LP+LF simplex (the program built and solved; the planner answers these
/// windows with the capture-all plan and skips it), the claiming-kernel
/// window evaluator, topology repair and one exploration sweep on
/// 1k/10k/50k-node networks. The LP's relevant-edge count is governed by
/// `k·depth·samples`, not `n`, so solve time should stay nearly flat
/// while evaluation stays flat and repair and the sweep grow linearly.
pub fn scale(fast: bool) -> FigureResult {
    let sizes: &[usize] = if fast { &[1_000, 10_000] } else { &[1_000, 10_000, 50_000] };
    let k = 10;
    let num_samples = 10;
    let em = EnergyModel::mica2();
    let mut points = Vec::new();
    for &n in sizes {
        // Deterministic complete ternary tree (depth ~log3 n). Placing a
        // radio `Network` is O(n²) and irrelevant here — every layer
        // under test consumes only the `Topology`.
        let mut parent: Vec<Option<NodeId>> = vec![None];
        parent.extend((1..n).map(|i| Some(NodeId::from_index((i - 1) / 3))));
        let topo = Topology::from_parents(NodeId::from_index(0), parent).expect("ternary tree");
        let mut source = IndependentGaussian::random(n, 40.0..60.0, 2.0..8.0, 9000 + n as u64);
        let mut samples = SampleSet::new(n, k, num_samples);
        for epoch in 0..num_samples as u64 {
            samples.push(source.values(epoch));
        }
        let budget =
            0.25 * PlanContext::new(&topo, &em, &samples, 0.0).plan_cost(&Plan::naive_k(&topo, k));
        let ctx = PlanContext::new(&topo, &em, &samples, budget);

        let t0 = Instant::now();
        let _ = build_lp(&ctx).0.solve().expect("lp+lf at scale");
        points.push(CurvePoint::new("lp_lf_solve_s", n as f64, t0.elapsed().as_secs_f64()));
        let plan = ProspectorLpLf.plan(&ctx).expect("lp+lf at scale");

        let t0 = Instant::now();
        let misses = evaluate::expected_misses(&plan, &topo, &samples);
        points.push(CurvePoint::new("expected_misses_s", n as f64, t0.elapsed().as_secs_f64()));
        assert!((0.0..=k as f64).contains(&misses), "misses {misses} out of range");

        // Repair after a deterministic 2% death wave.
        let dead: Vec<NodeId> = (1..n).filter(|i| i % 50 == 7).map(NodeId::from_index).collect();
        let t0 = Instant::now();
        let repaired = topo.repair(&dead).expect("repair at scale");
        points.push(CurvePoint::new("repair_s", n as f64, t0.elapsed().as_secs_f64()));
        assert_eq!(repaired.len(), topo.len());

        // One exploration sweep from cold: every reading counted up the
        // tree once to build the bill, then the bill charged node by node
        // (DESIGN.md §5, execution cost model).
        let mut meter = prospector_net::EnergyMeter::new(n);
        let t0 = Instant::now();
        let sweep = Sweep::new(&topo, &vec![true; n], &em);
        let billed = sweep.charge(&mut meter, &mut NullTracer);
        points.push(CurvePoint::new("sweep_s", n as f64, t0.elapsed().as_secs_f64()));
        assert!(billed > 0.0 && billed == meter.total(), "sweep bill {billed}");
    }
    FigureResult {
        id: "scale",
        title: "Scale: plan/evaluate/repair/sweep wall time vs network size",
        x_label: "nodes",
        y_label: "wall time (s)",
        points,
    }
}

/// Extension: the continuous-query protocol's message economy behind
/// `BENCH_cont.json` (DESIGN.md §16). A 121-node tree runs the same
/// drifting workload twice — delta protocol (refresh every 16 epochs)
/// against the from-scratch reference (refresh every epoch) — and the
/// steady-state messages per epoch are compared across drift rates. On a
/// quiet network the delta run spends only subtree beacons plus the
/// occasional periodic refresh, so its message bill must stay under 10%
/// of from-scratch collection (the CI regression floor).
pub fn cont(fast: bool) -> FigureResult {
    use prospector_core::{ContinuousPolicy, FallbackPlanner, SketchPrecision};
    use prospector_data::{DriftField, SamplePolicy};
    use prospector_net::{topology, ArqPolicy, FaultSchedule};
    use prospector_sim::{ExperimentConfig, ExperimentRunner};
    use std::fmt::Write as _;

    let topo = topology::balanced(3, 4); // 121 nodes
    let n = topo.len();
    let em = EnergyModel::mica2();
    let epochs: u64 = if fast { 24 } else { 64 };
    // Sweeps only at the two warmup epochs; steady state starts after
    // the first refresh cycle settles.
    let steady_from = 4u64;
    let rates: &[f64] = if fast { &[0.0, 0.2] } else { &[0.0, 0.05, 0.2, 0.5] };

    let run = |refresh_period: u64, rate: f64| -> f64 {
        let config = ExperimentConfig {
            k: 8,
            window: 10,
            policy: SamplePolicy::Periodic { warmup: 2, period: 1_000 },
            budget_mj: 40.0,
            replan_every: 8,
            replan_threshold: 0.1,
            failures: None,
            faults: FaultSchedule::new(),
            install_retries: 2,
            arq: ArqPolicy::default(),
            min_delivered: 0.0,
            max_retry_budget: 8,
            gate: None,
            continuous: Some(ContinuousPolicy {
                tolerance: 0.5,
                refresh_period,
                sketch: Some(SketchPrecision { depth: 10, compression: 16, lo: 0.0, hi: 100.0 }),
            }),
            seed: 16,
        };
        let planner = FallbackPlanner::standard();
        let mut source = DriftField::random(n, 40.0..60.0, 1.0..4.0, rate, 16);
        let mut runner = ExperimentRunner::new(&topo, &em, &planner, config);
        let reports =
            runner.run_to(&mut source, epochs, &mut NullTracer).expect("cont run completes");
        let steady: Vec<u32> =
            reports.iter().filter(|r| r.epoch >= steady_from).map(|r| r.messages).collect();
        steady.iter().map(|&m| m as f64).sum::<f64>() / steady.len() as f64
    };

    let cells: Vec<(f64, f64, f64)> = rates
        .iter()
        .map(|&rate| {
            let (delta, full) = (run(16, rate), run(1, rate));
            (rate, delta, full)
        })
        .collect();
    let mut points = Vec::new();
    let mut dump = String::from("{\n  \"bench\": \"cont\",\n  \"series\": {");
    for (si, series) in ["delta", "fromscratch", "ratio"].iter().enumerate() {
        let _ = write!(dump, "{}\n    \"{series}\": [", if si > 0 { "," } else { "" });
        for (ri, &(rate, delta, full)) in cells.iter().enumerate() {
            let y = match *series {
                "delta" => delta,
                "fromscratch" => full,
                _ => delta / full,
            };
            points.push(CurvePoint::new(*series, rate, y));
            let _ = write!(dump, "{}[{rate}, {y:.4}]", if ri > 0 { ", " } else { "" });
        }
        dump.push(']');
    }
    dump.push_str("\n  }\n}\n");
    if !fast {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cont.json");
        match std::fs::write(path, dump) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => eprintln!("[failed to write {path}: {e}]"),
        }
    }
    FigureResult {
        id: "cont",
        title:
            "Continuous top-k: steady-state messages/epoch, delta vs from-scratch (DESIGN.md §16)",
        x_label: "drift rate (per-node change probability per epoch)",
        y_label: "messages per epoch",
        points,
    }
}

/// A figure runner: `fast` shrinks sizes for smoke tests.
pub type FigureFn = fn(bool) -> FigureResult;

fn table1_any(_fast: bool) -> FigureResult {
    table1()
}

/// CLI name → runner, in paper order. The `figures` binary resolves
/// requested names here, `all` standing for the whole list.
pub const REGISTRY: &[(&str, FigureFn)] = &[
    ("table1", table1_any),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("esamples", e_samples),
    ("elptime", e_lp_time),
    ("edissem", e_dissemination),
    ("naive1", naive1_vs_naive_k),
    ("ablation", ablation_fill),
    ("efailures", e_failures),
    ("fault_tolerance", fault_tolerance),
    ("dfault", dfault),
    ("eloss", e_loss),
    ("esensitivity", e_sensitivity),
    ("esubset", e_subset),
    ("obs", e_obs),
    ("cont", cont),
    ("scale", scale),
];

/// Looks up one figure runner by its CLI name.
pub fn by_name(name: &str) -> Option<FigureFn> {
    REGISTRY.iter().find(|&&(n, _)| n == name).map(|&(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_avg(points: &[CurvePoint], series: &str) -> f64 {
        let ys: Vec<f64> = points.iter().filter(|p| p.series == series).map(|p| p.y).collect();
        assert!(!ys.is_empty(), "missing series {series}");
        ys.iter().sum::<f64>() / ys.len() as f64
    }

    #[test]
    fn cont_fast_shape() {
        let f = cont(true);
        // The quiet-network regression floor: steady-state delta traffic
        // under 10% of from-scratch collection (CI re-checks this against
        // the committed BENCH_cont.json).
        let quiet_ratio = f
            .points
            .iter()
            .find(|p| p.series == "ratio" && p.x == 0.0)
            .expect("quiet ratio point")
            .y;
        assert!(quiet_ratio < 0.10, "quiet-drift ratio must stay under 10%: {quiet_ratio}");
        // More drift can only cost more messages, and from-scratch always
        // outspends the delta protocol.
        let ratios: Vec<f64> =
            f.points.iter().filter(|p| p.series == "ratio").map(|p| p.y).collect();
        assert!(ratios.windows(2).all(|w| w[0] <= w[1]), "ratio monotone in drift: {ratios:?}");
        assert!(ratios.iter().all(|&r| r < 1.0), "delta never outspends from-scratch: {ratios:?}");
    }

    #[test]
    fn fig3_fast_shape() {
        let f = fig3(true);
        // Approximate planners must dominate naive-k: higher accuracy at
        // far lower cost. Compare energy needed for the best accuracy.
        let naive_full_cost =
            f.points.iter().filter(|p| p.series == "naive-k").map(|p| p.x).fold(0.0f64, f64::max);
        let lp_costs: Vec<&CurvePoint> = f.points.iter().filter(|p| p.series == "lp+lf").collect();
        let best_lp = lp_costs.iter().max_by(|a, b| a.y.total_cmp(&b.y)).unwrap();
        assert!(
            best_lp.x < naive_full_cost,
            "lp+lf should reach its best accuracy below naive-k's full cost"
        );
        assert!(best_lp.y > 70.0, "lp+lf should reach high accuracy: {}", best_lp.y);
        // Oracle is the cheapest at 100%.
        let oracle_full = f
            .points
            .iter()
            .filter(|p| p.series == "oracle" && p.y >= 99.0)
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        assert!(oracle_full < naive_full_cost);
    }

    #[test]
    fn fig5_fast_lf_wins_under_contention() {
        let f = fig5(true);
        let lf = series_avg(&f.points, "lp+lf");
        let nolf = series_avg(&f.points, "lp-lf");
        assert!(
            lf + 12.0 >= nolf,
            "LP+LF ({lf}) should not lose badly to LP−LF ({nolf}) under contention"
        );
    }

    #[test]
    fn fig8_fast_exactness_and_bounds() {
        let f = fig8(true);
        for t in 1..=3 {
            let p1 = f.points.iter().find(|p| p.series == "phase-1" && p.x == t as f64).unwrap();
            let p2 = f.points.iter().find(|p| p.series == "phase-2" && p.x == t as f64).unwrap();
            assert!(p1.y > 0.0);
            assert!(p2.y >= 0.0);
        }
        // Later trials (bigger phase-1 budget) spend more in phase 1.
        let p1_first = f.points.iter().find(|p| p.series == "phase-1").unwrap().y;
        let p1_last = f.points.iter().rfind(|p| p.series == "phase-1").unwrap().y;
        assert!(p1_last >= p1_first - 1e-9);
    }

    #[test]
    fn fault_tolerance_fast_shape() {
        let f = fault_tolerance(true);
        let at = |series: &str, x: f64| {
            f.points
                .iter()
                .find(|p| p.series == series && p.x == x)
                .unwrap_or_else(|| panic!("missing {series} at {x}"))
                .y
        };
        // No faults: nothing repaired, no repair energy.
        assert_eq!(at("repaired-epochs", 0.0), 0.0);
        assert_eq!(at("repair-energy", 0.0), 0.0);
        // At the top rate the machinery actually fired and was charged.
        assert!(at("repaired-epochs", 0.25) > 0.0);
        assert!(at("repair-energy", 0.25) > 0.0);
        // Graceful decay: every rate keeps usable accuracy over survivors.
        for &rate in &[0.0, 0.1, 0.25] {
            let acc = at("query-accuracy", rate);
            assert!(acc > 40.0, "accuracy collapsed at death rate {rate}: {acc}");
            // The constant transient-loss floor keeps the per-hop ARQ
            // busy, so retransmissions are metered at every death rate.
            assert!(at("retransmit-energy", rate) > 0.0, "no ARQ work at rate {rate}");
        }
    }

    #[test]
    fn dfault_fast_shape() {
        let f = dfault(true);
        let at = |series: &str, x: f64| {
            f.points
                .iter()
                .find(|p| p.series == series && p.x == x)
                .unwrap_or_else(|| panic!("missing {series} at {x}"))
                .y
        };
        // With no faulty sensors, the gate is observation-only: the gated
        // and ungated runs are the same run, bit for bit.
        for kind in ["stuck_at", "drift", "spike", "noise"] {
            let gated = at(&format!("{kind}-gated"), 0.0);
            let ungated = at(&format!("{kind}-ungated"), 0.0);
            assert_eq!(gated.to_bits(), ungated.to_bits(), "{kind}: gate changed a clean run");
        }
        // The headline: at 10% stuck-at-max sensors, gating recovers a
        // measured margin of the lost accuracy.
        let gated = at("stuck_at-gated", 0.1);
        let ungated = at("stuck_at-ungated", 0.1);
        assert!(
            gated > ungated + 5.0,
            "gating must beat ungated at 10% stuck-at: gated {gated:.1}%, ungated {ungated:.1}%"
        );
        // Gating never hurts, at any fraction, for any fault kind.
        for p in &f.points {
            if let Some(kind) = p.series.strip_suffix("-gated") {
                let ungated = at(&format!("{kind}-ungated"), p.x);
                assert!(
                    p.y >= ungated - 1e-9,
                    "gating hurt {kind} at {}: gated {:.1}%, ungated {ungated:.1}%",
                    p.x,
                    p.y
                );
            }
        }
    }

    #[test]
    fn e_loss_fast_shape() {
        let f = e_loss(true);
        let at = |series: &str, x: f64| {
            f.points
                .iter()
                .find(|p| p.series == series && p.x == x)
                .unwrap_or_else(|| panic!("missing {series} at {x}"))
                .y
        };
        // Zero loss: the retry budget is irrelevant — identical plans,
        // bit-identical accuracy and energy (the zero-loss ≡ reliable
        // invariant at figure scale).
        assert_eq!(at("accuracy-r0", 0.0).to_bits(), at("accuracy-r3", 0.0).to_bits());
        assert_eq!(at("energy-r0", 0.0).to_bits(), at("energy-r3", 0.0).to_bits());
        // At 20% per-hop loss, retries buy real accuracy.
        assert!(
            at("accuracy-r3", 0.2) > at("accuracy-r0", 0.2),
            "retries did not help: r3 {} vs r0 {}",
            at("accuracy-r3", 0.2),
            at("accuracy-r0", 0.2)
        );
        // Loss always hurts relative to the same budget's loss-free run.
        for r in [0i32, 1, 3] {
            let s = format!("accuracy-r{r}");
            assert!(at(&s, 0.2) < at(&s, 0.0) + 1e-9, "loss should not raise accuracy ({s})");
        }
    }

    #[test]
    fn obs_fast_covers_all_scenarios_and_phases() {
        use prospector_testutil::golden;
        let f = e_obs(true);
        for &name in golden::SCENARIOS {
            // Every scenario meters collection work in some epoch.
            let collection = format!("{name}:collection");
            assert!(
                f.points.iter().any(|p| p.series == collection && p.y > 0.0),
                "no collection energy for {name}"
            );
        }
        // Only the lossy scenario pays retransmission energy.
        assert!(f.points.iter().any(|p| p.series == "loss_arq:retransmit" && p.y > 0.0));
        assert!(!f.points.iter().any(|p| p.series == "clean:retransmit"));
        // The death scenario pays repair energy; the clean one never does.
        assert!(f.points.iter().any(|p| p.series == "death_repair:repair" && p.y > 0.0));
        assert!(!f.points.iter().any(|p| p.series == "clean:repair"));
    }

    #[test]
    fn table1_has_mica2_constants() {
        let t = table1();
        assert!(t.points.iter().any(|p| p.series.contains("per-message")));
        assert_eq!(t.points.len(), 6);
    }

    #[test]
    fn naive1_curve_dominates() {
        let f = naive1_vs_naive_k(true);
        // At every k, NAIVE-1 costs more than NAIVE-k under MICA2 costs.
        for kp in [1.0, 4.0, 8.0] {
            let n1 = f.points.iter().find(|p| p.series == "naive-1" && p.x == kp).unwrap().y;
            let nk = f.points.iter().find(|p| p.series == "naive-k" && p.x == kp).unwrap().y;
            assert!(n1 > nk, "k={kp}: naive-1 {n1} <= naive-k {nk}");
        }
    }
}
