//! Property-based tests over the full pipeline: random topologies, random
//! plans, random values — the execution semantics, proof machinery and
//! exact algorithm must uphold their invariants on all of them.

use proptest::prelude::*;
use prospector::core::{run_plan, run_proof_plan, Plan};
use prospector::data::{top_k_nodes, Reading, SampleSet};
use prospector::net::{EnergyModel, NodeId, Topology};
use prospector::sim::run_exact;

/// Random tree over n nodes: each node's parent is a random earlier node.
fn arb_topology(max_n: usize) -> impl Strategy<Value = Topology> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut parent = vec![None];
            parent.extend(parents.into_iter().map(|p| Some(NodeId(p))));
            let _ = n;
            Topology::from_parents(NodeId(0), parent).expect("random parents form a tree")
        })
}

/// A random valid plan: bandwidths within subtree sizes, connectivity
/// repaired.
fn make_plan(topology: &Topology, raw: &[u32], proof: bool) -> Plan {
    let mut plan = Plan::empty(topology.len());
    for e in topology.edges() {
        let cap = topology.subtree_size(e) as u32;
        let lo = u32::from(proof);
        let w = (raw[e.index()] % (cap + 1)).max(lo);
        plan.set_bandwidth(e, w);
    }
    plan.repair_connectivity(topology);
    plan.proof_carrying = proof;
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_plan_answers_are_real_and_ranked(
        topo in arb_topology(24),
        raw in proptest::collection::vec(0u32..6, 24),
        values_seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let n = topo.len();
        let values: Vec<f64> = (0..n).map(|i| {
            ((values_seed.wrapping_mul(i as u64 + 1).wrapping_mul(2654435761)) % 10_000) as f64
        }).collect();
        let plan = make_plan(&topo, &raw, false);
        plan.validate(&topo).unwrap();
        let out = run_plan(&plan, &topo, &values, k);
        // Answer values are genuine readings of their nodes.
        for r in &out.answer {
            prop_assert_eq!(r.value, values[r.node.index()]);
        }
        // Answer is rank-sorted and duplicate-free.
        for w in out.answer.windows(2) {
            prop_assert!(w[0].rank_cmp(&w[1]) == std::cmp::Ordering::Less);
        }
        // Never longer than k; sent counts never exceed bandwidth.
        prop_assert!(out.answer.len() <= k);
        for e in topo.edges() {
            prop_assert!(out.sent[e.index()] <= plan.bandwidth(e));
        }
    }

    #[test]
    fn naive_k_plan_is_always_exact(
        topo in arb_topology(24),
        values_seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let n = topo.len();
        let values: Vec<f64> = (0..n).map(|i| {
            ((values_seed.wrapping_mul(i as u64 + 7).wrapping_mul(0x9E3779B9)) % 7_919) as f64
        }).collect();
        let plan = Plan::naive_k(&topo, k);
        let out = run_plan(&plan, &topo, &values, k);
        let got: Vec<NodeId> = out.answer.iter().map(|r| r.node).collect();
        prop_assert_eq!(got, top_k_nodes(&values, k.min(n)));
    }

    #[test]
    fn proof_lemma1_holds_on_random_plans(
        topo in arb_topology(18),
        raw in proptest::collection::vec(1u32..5, 18),
        values_seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let n = topo.len();
        let values: Vec<f64> = (0..n).map(|i| {
            ((values_seed.wrapping_mul(i as u64 + 3).wrapping_mul(0x85EBCA6B)) % 4_999) as f64
        }).collect();
        let plan = make_plan(&topo, &raw, true);
        plan.validate(&topo).unwrap();
        let out = run_proof_plan(&plan, &topo, &values, k);

        // Lemma 1: the proven values of any node are exactly the top
        // values of its subtree.
        for u in (0..n).map(NodeId::from_index) {
            let p = out.proven_count[u.index()] as usize;
            if p == 0 {
                continue;
            }
            let mut subtree: Vec<Reading> = topo
                .subtree(u)
                .iter()
                .map(|&m| Reading { node: m, value: values[m.index()] })
                .collect();
            subtree.sort_unstable_by(Reading::rank_cmp);
            for (a, b) in out.retrieved[u.index()].iter().take(p).zip(&subtree) {
                prop_assert_eq!(a.node, b.node, "Lemma 1 violated at {}", u);
            }
        }
        // Root-proven answers match the global truth.
        let truth = top_k_nodes(&values, k.min(n));
        for (i, r) in out.answer.iter().take(out.proven).enumerate() {
            prop_assert_eq!(r.node, truth[i]);
        }
    }

    // Proof tracking only observes the collection pass: on a
    // proof-carrying plan it returns the plain pass's answer and sends the
    // same batch size on every edge. Readings are drawn from a small range
    // so rank ties are common.
    #[test]
    fn proof_tracking_only_observes_the_collection_pass(
        topo in arb_topology(18),
        raw in proptest::collection::vec(1u32..5, 18),
        values_seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let n = topo.len();
        let values: Vec<f64> = (0..n).map(|i| {
            ((values_seed.wrapping_mul(i as u64 + 5).wrapping_mul(0x27D4EB2F)) % 13) as f64
        }).collect();
        let plan = make_plan(&topo, &raw, true);
        let proof = run_proof_plan(&plan, &topo, &values, k);
        let plain = run_plan(&plan, &topo, &values, k);
        prop_assert_eq!(proof.answer, plain.answer);
        prop_assert_eq!(proof.sent, plain.sent);
    }

    #[test]
    fn exact_two_phase_always_exact(
        topo in arb_topology(16),
        raw in proptest::collection::vec(1u32..4, 16),
        values_seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let n = topo.len();
        let values: Vec<f64> = (0..n).map(|i| {
            ((values_seed.wrapping_mul(i as u64 + 11).wrapping_mul(0xC2B2AE35)) % 3_301) as f64
        }).collect();
        let plan = make_plan(&topo, &raw, true);
        let em = EnergyModel::mica2();
        let r = run_exact(&plan, &topo, &em, &values, k.min(n), None);
        let got: Vec<NodeId> = r.answer.iter().map(|x| x.node).collect();
        prop_assert_eq!(got, top_k_nodes(&values, k.min(n)));
        prop_assert!(r.phase1_mj > 0.0);
        prop_assert!(r.phase2_mj >= 0.0);
    }

    #[test]
    fn sample_window_counts_are_consistent(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0..100.0f64, 8), 1..12),
        k in 1usize..5,
        cap in 1usize..12,
    ) {
        let mut s = SampleSet::new(8, k, cap);
        for row in &rows {
            s.push(row.clone());
        }
        // Column counts always equal the recount over the retained window.
        let mut recount = [0u32; 8];
        for j in 0..s.len() {
            for &node in s.ones(j) {
                recount[node.index()] += 1;
            }
        }
        prop_assert_eq!(s.column_counts(), &recount[..]);
        // Total ones = k × window size.
        let total: u32 = recount.iter().sum();
        prop_assert_eq!(total as usize, k * s.len());
    }
}
