//! Criterion micro-benchmarks for the in-tree simplex solver on
//! Prospector-shaped LPs, one on each side of its 600-row split: the small
//! LP runs on the dense inverse, the medium one on the eta file.

use criterion::{criterion_group, criterion_main, Criterion};
use prospector_lp::{Cmp, Problem, Sense};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Builds an LP+LF-shaped instance: x-vars per (sample, top-k slot),
/// bandwidth vars per edge, sparse coupling rows and one budget row.
fn lp_lf_shaped(n_edges: usize, samples: usize, k: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::new(Sense::Maximize);
    let w: Vec<_> = (0..n_edges).map(|_| p.add_var(0.0, k as f64, 0.0)).collect();
    let y: Vec<_> = (0..n_edges).map(|_| p.add_var(0.0, 1.0, 0.0)).collect();
    for j in 0..samples {
        let _ = j;
        let xs: Vec<_> = (0..k).map(|_| p.add_var(0.0, 1.0, 1.0)).collect();
        for &x in &xs {
            let e = rng.random_range(0..n_edges);
            p.add_constraint([(x, 1.0), (y[e], -1.0)], Cmp::Le, 0.0);
        }
        for &we in w.iter().take(n_edges.min(3 * k)) {
            let members: Vec<_> = xs
                .iter()
                .filter(|_| rng.random_bool(0.3))
                .map(|&x| (x, 1.0))
                .chain(std::iter::once((we, -1.0)))
                .collect();
            if members.len() > 1 {
                p.add_constraint(members, Cmp::Le, 0.0);
            }
        }
    }
    let budget: Vec<_> = w.iter().map(|&v| (v, 0.2)).chain(y.iter().map(|&v| (v, 1.2))).collect();
    p.add_constraint(budget, Cmp::Le, 0.25 * n_edges as f64);
    p
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solver");
    group.sample_size(10);

    let small = lp_lf_shaped(40, 8, 8, 1);
    group.bench_function("small", |b| b.iter(|| black_box(black_box(&small).solve().unwrap())));
    let medium = lp_lf_shaped(120, 15, 20, 2);
    assert!(small.num_constraints() <= 600 && medium.num_constraints() > 600);
    group.bench_function("medium", |b| b.iter(|| black_box(black_box(&medium).solve().unwrap())));
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
