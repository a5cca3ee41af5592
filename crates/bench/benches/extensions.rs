//! Criterion benchmarks for the extensions: subset-query planning,
//! cluster-query planning, the budget shadow price and proof-fill
//! strategies.

use criterion::{criterion_group, criterion_main, Criterion};
use prospector_bench::scenarios::GaussianScenario;
use prospector_core::cluster::{plan_cluster_query, Clustering};
use prospector_core::proof_lp::{FillStrategy, ProspectorProof};
use prospector_core::subset::{plan_subset_query, subset_context};
use prospector_core::{budget_shadow_price, PlanContext, Planner};
use prospector_data::subset::{AnswerSpec, SubsetSampleSet};
use prospector_data::SampleSet;
use prospector_net::EnergyModel;
use std::hint::black_box;

fn bench_extensions(c: &mut Criterion) {
    let scenario = GaussianScenario::fig3(true).build();
    let em = EnergyModel::mica2();
    let topo = &scenario.network.topology;
    let n = topo.len();

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);

    // Subset-query planning (selection).
    let mut window = SubsetSampleSet::new(n, AnswerSpec::AboveThreshold(55.0), 8);
    for j in 0..scenario.samples.len() {
        window.push(scenario.samples.values(j).to_vec());
    }
    let mut placeholder = SampleSet::new(n, 1, 1);
    placeholder.push(vec![0.0; n]);
    group.bench_function("subset_selection_plan", |b| {
        b.iter(|| {
            let ctx = subset_context(topo, &em, &placeholder, 25.0);
            black_box(plan_subset_query(&ctx, &window).unwrap())
        })
    });

    // Cluster-query planning: 8 clusters over the non-root nodes.
    let assignment: Vec<Option<usize>> =
        (0..n).map(|i| if i == 0 { None } else { Some((i - 1) % 8) }).collect();
    let clustering = Clustering::new(assignment);
    group.bench_function("cluster_topk_plan", |b| {
        b.iter(|| {
            let ctx = PlanContext::new(topo, &em, &scenario.samples, 40.0);
            black_box(plan_cluster_query(&ctx, &clustering, &scenario.samples, 2).unwrap())
        })
    });

    // Budget shadow price (one LP+LF solve without rounding/repair).
    group.bench_function("budget_shadow_price", |b| {
        b.iter(|| {
            let ctx = PlanContext::new(topo, &em, &scenario.samples, 30.0);
            black_box(budget_shadow_price(&ctx).unwrap())
        })
    });

    // Proof planning under each fill strategy (small instance).
    let small = GaussianScenario {
        n: 16,
        k: 4,
        num_samples: 4,
        num_eval: 2,
        mean_range: 40.0..60.0,
        std_range: 1.0..4.0,
        seed: 5,
    }
    .build();
    let stopo = &small.network.topology;
    let budget = PlanContext::new(stopo, &em, &small.samples, 1.0).min_proof_cost() * 1.3;
    for (name, fill) in [
        ("proof_fill_need_aware", FillStrategy::NeedAware),
        ("proof_fill_deficit", FillStrategy::SubtreeDeficit),
        ("proof_fill_none", FillStrategy::None),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let ctx = PlanContext::new(stopo, &em, &small.samples, budget);
                black_box(ProspectorProof { fill }.plan(&ctx).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
