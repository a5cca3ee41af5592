//! Generalized subset-query planning (Section 3's generalization).
//!
//! The Prospector framework only needs a Boolean answer matrix: "set
//! `M[j][i] = 1` if node i contributes to the answer in the j-th sample …
//! minimize the total number of 1's in M missed by the plan." This module
//! plans **delivery plans** for arbitrary [`AnswerSpec`] queries
//! (selection, quantile bands, …) with the same topology-aware LP as
//! LP−LF, driven by the generalized window's column counts.
//!
//! Execution differs from top-k: rank-based local filtering is a top-k
//! trick (the answer is always the highest values); for a general subset
//! query the chosen nodes' readings are shipped verbatim —
//! [`deliver_chosen`] — and the root applies the query predicate itself.

use crate::error::PlanError;
use crate::lp_no_lf::plan_with_counts;
use crate::plan::Plan;
use crate::planner::PlanContext;
use prospector_data::subset::{AnswerSpec, SubsetSampleSet};
use prospector_data::{Reading, SampleSet};
use prospector_net::{NodeId, Topology};

/// Plans a delivery plan for an arbitrary subset query under an energy
/// budget: the nodes most frequently contributing to past answers are
/// fetched, sharing paths where the topology allows.
///
/// The returned plan is a chosen-set (no-local-filtering) plan; execute it
/// with [`deliver_chosen`] + the usual cost model, or let `prospector-sim`
/// meter it.
pub fn plan_subset_query(
    ctx_template: &PlanContext<'_>,
    window: &SubsetSampleSet,
) -> Result<Plan, PlanError> {
    if window.is_empty() {
        return Err(PlanError::NoSamples);
    }
    plan_with_counts(ctx_template, window.column_counts())
}

/// The readings a chosen-set plan delivers to the root: the root's own
/// reading plus every node whose edge carries its value. For chosen-set
/// plans built by [`plan_subset_query`] this is exactly the chosen nodes.
pub fn deliver_chosen(plan: &Plan, topology: &Topology, values: &[f64]) -> Vec<Reading> {
    // In a chosen-set plan, node i's value reaches the root iff
    // bandwidth(i) > Σ bandwidth(children(i)) — its own value accounts for
    // the surplus unit (values are never rank-filtered in delivery mode).
    let mut out = vec![Reading { node: topology.root(), value: values[topology.root().index()] }];
    for e in topology.edges() {
        let own: u32 = topology.children(e).iter().map(|&c| plan.bandwidth(c)).sum();
        if plan.bandwidth(e) > own {
            out.push(Reading { node: e, value: values[e.index()] });
        }
    }
    out.sort_unstable_by(Reading::rank_cmp);
    out
}

/// Fraction of the true answer a plan delivers for one epoch (`1.0` when
/// the true answer is empty).
pub fn subset_accuracy(plan: &Plan, topology: &Topology, spec: &AnswerSpec, values: &[f64]) -> f64 {
    let truth = spec.answer_nodes(values);
    if truth.is_empty() {
        return 1.0;
    }
    let delivered: Vec<NodeId> =
        deliver_chosen(plan, topology, values).into_iter().map(|r| r.node).collect();
    let hits = truth.iter().filter(|n| delivered.contains(n)).count();
    hits as f64 / truth.len() as f64
}

/// Builds a `PlanContext` helper for subset planning: the generalized
/// window carries the counts, but `PlanContext` wants a `SampleSet`; this
/// produces a minimal stand-in window so cost accounting works unchanged.
///
/// (Only `topology`, `energy`, `failures` and `budget_mj` are read by the
/// chosen-set machinery; `k` is irrelevant for subset plans.)
pub fn subset_context<'a>(
    topology: &'a Topology,
    energy: &'a prospector_net::EnergyModel,
    placeholder: &'a SampleSet,
    budget_mj: f64,
) -> PlanContext<'a> {
    PlanContext::new(topology, energy, placeholder, budget_mj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::{balanced, star};
    use prospector_net::EnergyModel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn placeholder(n: usize) -> SampleSet {
        let mut s = SampleSet::new(n, 1, 1);
        s.push(vec![0.0; n]);
        s
    }

    #[test]
    fn selection_query_planning_end_to_end() {
        // Nodes 1 and 2 regularly exceed the threshold; node 3 never.
        let t = star(4);
        let em = EnergyModel::mica2();
        let mut w = SubsetSampleSet::new(4, AnswerSpec::AboveThreshold(50.0), 8);
        for _ in 0..5 {
            w.push(vec![0.0, 80.0, 60.0, 10.0]);
        }
        let ph = placeholder(4);
        let ctx = subset_context(&t, &em, &ph, 10.0);
        let plan = plan_subset_query(&ctx, &w).unwrap();
        assert!(plan.is_used(NodeId(1)) && plan.is_used(NodeId(2)));
        assert!(!plan.is_used(NodeId(3)));

        let acc = subset_accuracy(&plan, &t, w.spec(), &[0.0, 80.0, 60.0, 10.0]);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn deliver_chosen_ships_low_values_too() {
        // The whole point of delivery mode: a below-threshold query's
        // answers are *low* values, which rank-based filtering would drop.
        let t = star(4);
        let mut plan = Plan::empty(4);
        plan.set_bandwidth(NodeId(3), 1);
        let values = [50.0, 99.0, 98.0, 1.0];
        let delivered = deliver_chosen(&plan, &t, &values);
        let nodes: Vec<NodeId> = delivered.iter().map(|r| r.node).collect();
        assert!(nodes.contains(&NodeId(3)), "the low value must arrive");
        assert!(!nodes.contains(&NodeId(1)));
    }

    #[test]
    fn quantile_band_query_planning() {
        let t = balanced(3, 2);
        let n = t.len();
        let em = EnergyModel::mica2();
        let mut rng = StdRng::seed_from_u64(5);
        // Values with a stable ordering: node i ≈ 10·i plus noise, so the
        // median band is persistent.
        let gen = |rng: &mut StdRng| -> Vec<f64> {
            (0..n).map(|i| 10.0 * i as f64 + rng.random_range(-2.0..2.0)).collect()
        };
        let spec = AnswerSpec::QuantileBand { lo: 0.4, hi: 0.6 };
        let mut w = SubsetSampleSet::new(n, spec.clone(), 10);
        for _ in 0..10 {
            w.push(gen(&mut rng));
        }
        let ph = placeholder(n);
        let ctx = subset_context(&t, &em, &ph, 50.0);
        let plan = plan_subset_query(&ctx, &w).unwrap();
        plan.validate(&t).unwrap();
        let mut acc = 0.0;
        for _ in 0..5 {
            acc += subset_accuracy(&plan, &t, &spec, &gen(&mut rng));
        }
        assert!(acc / 5.0 > 0.75, "median-band accuracy {}", acc / 5.0);
    }

    #[test]
    fn respects_budget() {
        let t = balanced(2, 3);
        let n = t.len();
        let em = EnergyModel::mica2();
        let mut w = SubsetSampleSet::new(n, AnswerSpec::AboveThreshold(0.5), 4);
        w.push((0..n).map(|i| i as f64).collect());
        let ph = placeholder(n);
        for budget in [3.0, 9.0, 30.0] {
            let ctx = subset_context(&t, &em, &ph, budget);
            let plan = plan_subset_query(&ctx, &w).unwrap();
            assert!(ctx.plan_cost(&plan) <= budget + 1e-9);
        }
    }

    #[test]
    fn empty_window_errors() {
        let t = star(3);
        let em = EnergyModel::mica2();
        let w = SubsetSampleSet::new(3, AnswerSpec::AboveThreshold(1.0), 2);
        let ph = placeholder(3);
        let ctx = subset_context(&t, &em, &ph, 5.0);
        assert!(matches!(plan_subset_query(&ctx, &w), Err(PlanError::NoSamples)));
    }
}
