//! Pins the LP solver's eta-file path on LP+LF plans.
//!
//! Every golden trace is a 13-node scenario whose LPs are small enough for
//! the dense inverse, so nothing else pins the sparse path the planner
//! takes on real fields. These tests build LP+LF instances the way the
//! `plan_heavy` benchmark workload does — a 1000-node constant-density
//! field, k = 10, a ten-sample window and a budget of half of NAIVE-k. At
//! seed 1 they pin the pivot count, the objective and the plan's bandwidth
//! on every edge; at seeds 2–5 the pivot count and the objective. A change
//! to pricing, the ratio test or the eta file that moves a single pivot
//! shows up here.

use prospector::core::{Plan, PlanContext, PlannedWith, Planner, ProspectorLpLf};
use prospector::data::{IndependentGaussian, SampleSet, ValueSource};
use prospector::net::{EnergyModel, NetworkBuilder, NodeId, Topology};
use prospector::sim::execute_plan;
use std::collections::BTreeSet;

const N: usize = 1000;
const K: usize = 10;

/// `(edge, bandwidth)` for every edge the plan uses, in edge order.
#[rustfmt::skip]
const BANDWIDTHS: [(usize, u32); 263] = [
    (4, 3), (5, 1), (7, 1), (8, 1), (9, 2), (10, 1), (16, 1), (18, 1), (21, 1), (23, 1),
    (25, 1), (30, 1), (36, 2), (39, 2), (40, 2), (41, 1), (47, 3), (51, 2), (54, 4), (56, 1),
    (59, 1), (60, 1), (62, 3), (65, 1), (67, 1), (70, 2), (71, 1), (72, 1), (73, 1), (74, 2),
    (80, 1), (85, 1), (90, 1), (91, 1), (93, 1), (95, 1), (96, 1), (97, 1), (98, 1), (102, 1),
    (104, 1), (105, 1), (106, 1), (107, 1), (109, 1), (110, 2), (113, 1), (114, 1), (119, 1), (121, 1),
    (122, 1), (126, 1), (129, 1), (131, 2), (134, 1), (135, 1), (136, 2), (137, 1), (142, 1), (144, 2),
    (149, 1), (153, 1), (155, 1), (161, 2), (163, 1), (167, 2), (170, 1), (172, 2), (174, 1), (183, 1),
    (189, 2), (195, 1), (199, 1), (200, 1), (204, 1), (205, 1), (212, 1), (213, 1), (215, 2), (216, 1),
    (217, 1), (218, 1), (224, 1), (225, 1), (226, 1), (234, 2), (235, 1), (237, 1), (239, 2), (240, 1),
    (247, 1), (248, 1), (254, 1), (256, 3), (258, 4), (267, 1), (271, 2), (272, 1), (282, 1), (283, 2),
    (285, 1), (287, 1), (288, 1), (293, 1), (297, 2), (298, 3), (309, 2), (310, 1), (317, 1), (322, 4),
    (334, 1), (337, 1), (342, 5), (343, 1), (347, 1), (350, 2), (354, 2), (360, 1), (364, 3), (366, 1),
    (368, 1), (369, 1), (371, 1), (373, 1), (375, 1), (378, 1), (381, 1), (383, 1), (387, 1), (388, 1),
    (390, 2), (396, 1), (398, 2), (404, 1), (405, 1), (414, 1), (416, 1), (422, 1), (429, 5), (433, 1),
    (438, 2), (443, 2), (451, 1), (456, 1), (459, 1), (460, 1), (462, 2), (466, 1), (467, 2), (471, 2),
    (475, 1), (480, 1), (483, 1), (484, 1), (488, 1), (490, 1), (496, 2), (501, 1), (507, 4), (508, 2),
    (509, 1), (514, 1), (517, 1), (523, 1), (524, 1), (526, 1), (531, 1), (532, 2), (536, 2), (549, 2),
    (553, 1), (557, 1), (558, 3), (559, 2), (562, 1), (566, 1), (568, 1), (571, 1), (577, 1), (578, 2),
    (583, 1), (589, 1), (604, 1), (608, 1), (609, 1), (612, 1), (628, 1), (633, 1), (635, 2), (637, 1),
    (641, 1), (650, 1), (655, 2), (658, 3), (663, 2), (669, 1), (672, 1), (673, 1), (679, 1), (680, 1),
    (689, 1), (693, 2), (694, 1), (696, 1), (702, 1), (710, 1), (713, 1), (717, 2), (719, 2), (725, 2),
    (738, 1), (745, 1), (746, 2), (750, 2), (752, 1), (755, 1), (760, 1), (773, 2), (782, 3), (783, 1),
    (786, 2), (794, 1), (796, 1), (799, 1), (803, 1), (813, 1), (815, 1), (816, 1), (817, 1), (822, 1),
    (827, 1), (831, 1), (847, 1), (857, 2), (865, 1), (867, 1), (873, 1), (878, 1), (880, 4), (888, 1),
    (893, 1), (901, 1), (904, 1), (907, 1), (909, 1), (913, 1), (917, 1), (922, 1), (926, 2), (927, 1),
    (946, 1), (950, 1), (952, 1), (953, 2), (960, 3), (964, 1), (972, 1), (973, 1), (975, 1), (979, 1),
    (981, 1), (986, 1), (990, 1),
];

/// `(seed, pivots, objective)` of the same instance at more seeds.
const MORE_SEEDS: [(u64, usize, f64); 4] =
    [(2, 650, 100.0), (3, 700, 100.0), (4, 701, 100.0), (5, 721, 100.0)];

/// The field, the ten-sample window and the budget at `seed`.
fn instance(seed: u64) -> (Topology, SampleSet, f64) {
    let side = 40.0 * (N as f64).sqrt();
    let network = NetworkBuilder::new(N, side, side, 70.0)
        .seed(seed)
        .build()
        .expect("constant-density placement connects");
    let topo = network.topology;
    let mut source = IndependentGaussian::random(N, 40.0..60.0, 1.0..4.0, seed ^ 0x9a55);
    let energy = EnergyModel::mica2();
    let naive = execute_plan(&Plan::naive_k(&topo, K), &topo, &energy, &source.values(0), K, None)
        .total_mj();
    let mut samples = SampleSet::new(N, K, 10);
    for epoch in 0..10 {
        samples.push(source.values(epoch));
    }
    (topo, samples, 0.5 * naive)
}

/// A lower bound on the LP's rows: one bandwidth row per (sample, edge)
/// pair on a path from that sample's top k to the root.
fn bandwidth_rows(topo: &Topology, samples: &SampleSet) -> usize {
    (0..samples.len())
        .map(|j| {
            let edges: BTreeSet<NodeId> = samples
                .ones(j)
                .iter()
                .filter(|&&i| i != topo.root())
                .flat_map(|&i| topo.edges_to_root(i))
                .collect();
            edges.len()
        })
        .sum()
}

/// Plans the instance at `seed` with LP+LF, on the eta file: the solver
/// takes it above 600 rows.
fn plan(seed: u64) -> (Topology, PlannedWith) {
    let (topo, samples, budget) = instance(seed);
    let rows = bandwidth_rows(&topo, &samples);
    assert!(rows > 600, "only {rows} bandwidth rows: the LP would stay on the dense inverse");
    let energy = EnergyModel::mica2();
    let ctx = PlanContext::new(&topo, &energy, &samples, budget);
    let planned = ProspectorLpLf.plan_traced(&ctx).expect("LP+LF plans the field");
    (topo, planned)
}

#[test]
fn lp_lf_plan_on_the_eta_path_is_pinned() {
    let (topo, planned) = plan(1);
    let lp = planned.lp.expect("LP+LF reports solver statistics");
    let bandwidths: Vec<(usize, u32)> = topo
        .edges()
        .map(|e| (e.index(), planned.plan.bandwidth(e)))
        .filter(|&(_, w)| w > 0)
        .collect();

    assert_eq!(lp.iterations, 745);
    assert!((lp.objective - 99.0).abs() < 1e-9, "objective {}", lp.objective);
    assert_eq!(bandwidths, BANDWIDTHS);
}

#[test]
fn lp_lf_pivots_on_the_eta_path_are_pinned_at_more_seeds() {
    for (seed, pivots, objective) in MORE_SEEDS {
        let lp = plan(seed).1.lp.expect("LP+LF reports solver statistics");
        assert_eq!(lp.iterations, pivots, "seed {seed}");
        assert!((lp.objective - objective).abs() < 1e-9, "seed {seed}: objective {}", lp.objective);
    }
}
