//! `ProspectorLpLf` — the paper's "LP+LF" formulation (Section 4.2).
//!
//! Local filtering lets a node receive more values than it forwards, so
//! the plan can hedge across negatively correlated nodes (contention
//! zones): visit many, forward few. To capture this the LP uses one
//! variable `x_{j,i}` per **1-entry of the sample matrix** (does the plan
//! deliver node i's value for sample j?) instead of one per node, plus a
//! bandwidth variable `w_e` per edge; the bandwidth rows
//! `Σ_{i ∈ ones(j) ∩ desc(e)} x_{j,i} ≤ w_e` express that an edge can
//! forward only `w_e` of a sample's top values no matter how many its
//! subtree holds.

use crate::error::PlanError;
use crate::evaluate::{expected_misses, expected_misses_with};
use crate::plan::Plan;
use crate::planner::{LpStats, PlanAttempt, PlanContext, PlannedWith, Planner};
use prospector_lp::{Cmp, Problem, Sense, Status, VarId};
use prospector_net::NodeId;
use std::collections::BTreeMap;

/// The LP+LF planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProspectorLpLf;

impl ProspectorLpLf {
    /// The full construction, also reporting solver statistics for
    /// observability (surfaced through [`Planner::plan_traced`]). Whenever
    /// the capture-all plan fits the budget it is the LP's optimum (see
    /// [`capture_all`]), so no simplex runs and `iterations` reads 0.
    fn plan_with_stats(&self, ctx: &PlanContext<'_>) -> Result<(Plan, LpStats), PlanError> {
        if ctx.samples.is_empty() {
            return Err(PlanError::NoSamples);
        }
        let (plan, values) = capture_all(ctx);
        if ctx.plan_cost(&plan) <= ctx.budget_mj {
            return Ok((plan, LpStats { iterations: 0, objective: values as f64 }));
        }
        solve_and_round(ctx)
    }
}

impl Planner for ProspectorLpLf {
    fn name(&self) -> &'static str {
        "lp+lf"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<Plan, PlanError> {
        self.plan_with_stats(ctx).map(|(plan, _)| plan)
    }

    fn plan_traced(&self, ctx: &PlanContext<'_>) -> Result<PlannedWith, PlanError> {
        let (plan, stats) = self.plan_with_stats(ctx)?;
        Ok(PlannedWith {
            plan,
            planner: self.name(),
            fallback_depth: 0,
            lp: Some(stats),
            attempts: vec![PlanAttempt { planner: self.name(), error: None }],
        })
    }
}

/// The marginal value of energy at the current budget: the shadow price of
/// the LP+LF budget row, in expected sample-hits per millijoule. High
/// while the budget starves the plan; zero once every sample's top-k is
/// captured (diminishing-returns diagnostics for operators choosing a
/// budget).
pub fn budget_shadow_price(ctx: &PlanContext<'_>) -> Result<f64, PlanError> {
    if ctx.samples.is_empty() {
        return Err(PlanError::NoSamples);
    }
    let (lp, _) = build_lp(ctx);
    let sol = lp.solve()?;
    if sol.status != Status::Optimal {
        return Err(PlanError::UnexpectedLpStatus("shadow-price solve"));
    }
    // The budget row is added last by build_lp. Normalize per sample so
    // the price reads as "expected answer values per mJ per query".
    let row = lp.num_constraints() - 1;
    Ok(sol.dual(row) / ctx.samples.len() as f64)
}

/// Builds the LP+LF program; the budget row is always the LAST constraint
/// (relied upon by [`budget_shadow_price`]). Returns the program and the
/// per-edge bandwidth variables (`None` off every top-k path).
///
/// [`ProspectorLpLf`] solves it only when the capture-all plan does not
/// fit the budget; solving it directly times or pins the simplex on any
/// window.
pub fn build_lp(ctx: &PlanContext<'_>) -> (Problem, Vec<Option<VarId>>) {
    let topo = ctx.topology;
    let n = topo.len();
    let k = ctx.k();
    let num_samples = ctx.samples.len();

    // Relevant edges: lie on a path from some sample's top-k node.
    let mut relevant = vec![false; n];
    for j in 0..num_samples {
        for &i in ctx.samples.ones(j) {
            for e in topo.edges_to_root(i) {
                relevant[e.index()] = true;
            }
        }
    }

    let mut lp = Problem::new(Sense::Maximize);
    let mut w: Vec<Option<VarId>> = vec![None; n];
    let mut y: Vec<Option<VarId>> = vec![None; n];
    for e in topo.edges() {
        if relevant[e.index()] {
            let ub = (topo.subtree_size(e).min(k)) as f64;
            w[e.index()] = Some(lp.add_var(0.0, ub, 0.0));
            y[e.index()] = Some(lp.add_var(0.0, 1.0, 0.0));
        }
    }

    // x_{j,i} variables and the per-(sample, edge) groupings for the
    // bandwidth rows. Ordered maps: their iteration order below fixes
    // the constraint order, and with it the simplex pivot sequence —
    // a hash map would make iteration counts (and the trace) vary
    // from run to run.
    let mut x: BTreeMap<(usize, u32), VarId> = BTreeMap::new();
    let mut through: BTreeMap<(usize, u32), Vec<VarId>> = BTreeMap::new();
    for j in 0..num_samples {
        for &i in ctx.samples.ones(j) {
            if i == topo.root() {
                continue; // the root's value is delivered for free
            }
            let xi = lp.add_var(0.0, 1.0, 1.0);
            x.insert((j, i.0), xi);
            for e in topo.edges_to_root(i) {
                through.entry((j, e.0)).or_default().push(xi);
            }
        }
    }

    // x_{j,i} ≤ y_{e(i)}.
    for (&(_, i), &xi) in &x {
        let yi = y[i as usize].expect("top-k node's edge is relevant");
        lp.add_constraint([(xi, 1.0), (yi, -1.0)], Cmp::Le, 0.0);
    }
    // y monotone up the tree.
    for e in topo.edges() {
        let Some(ye) = y[e.index()] else { continue };
        if let Some(p) = topo.parent(e) {
            if p != topo.root() {
                let yp = y[p.index()].expect("parent of relevant edge is relevant");
                lp.add_constraint([(ye, 1.0), (yp, -1.0)], Cmp::Le, 0.0);
            }
        }
    }
    // Bandwidth rows.
    for (&(_, e), xs) in &through {
        let we = w[e as usize].expect("edge with top-k traffic is relevant");
        let mut terms: Vec<(VarId, f64)> = xs.iter().map(|&v| (v, 1.0)).collect();
        terms.push((we, -1.0));
        lp.add_constraint(terms, Cmp::Le, 0.0);
    }
    // Budget row.
    let mut budget_terms: Vec<(VarId, f64)> = Vec::new();
    for e in topo.edges() {
        if let (Some(we), Some(ye)) = (w[e.index()], y[e.index()]) {
            budget_terms.push((we, ctx.edge_value_cost(e)));
            budget_terms.push((ye, ctx.edge_message_cost(e)));
        }
    }
    lp.add_constraint(budget_terms, Cmp::Le, ctx.budget_mj);
    (lp, w)
}

/// The plan that delivers every sampled top-k value, and how many values
/// that is (the program's x-variable count): `w_e = max_j |(ones(j) ∖
/// {root}) ∩ desc(e)|`, from one walk up each sample's top-k root paths.
///
/// It reaches the objective's upper bound, and every LP solution that
/// reaches the bound costs at least as much: `x = 1` everywhere forces
/// `y_e = 1` on every edge of those paths and each `w_e` up to that
/// maximum. So it is the LP's optimum whenever its cost fits the budget.
fn capture_all(ctx: &PlanContext<'_>) -> (Plan, usize) {
    let topo = ctx.topology;
    let mut plan = Plan::empty(topo.len());
    // The current sample's values below each edge, and the edges its
    // walks touched, so each sample resets only what it counted.
    let mut below = vec![0u32; topo.len()];
    let mut touched = Vec::new();
    let mut values = 0;
    for j in 0..ctx.samples.len() {
        for &i in ctx.samples.ones(j) {
            if i == topo.root() {
                continue;
            }
            values += 1;
            for e in topo.edges_to_root(i) {
                if below[e.index()] == 0 {
                    touched.push(e);
                }
                below[e.index()] += 1;
            }
        }
        for e in touched.drain(..) {
            let count = std::mem::take(&mut below[e.index()]);
            if count > plan.bandwidth(e) {
                plan.set_bandwidth(e, count);
            }
        }
    }
    (plan, values)
}

/// Solves the program, rounds its bandwidths to the nearest integer,
/// restores plan structure and repairs the budget.
fn solve_and_round(ctx: &PlanContext<'_>) -> Result<(Plan, LpStats), PlanError> {
    let topo = ctx.topology;
    let k = ctx.k();
    let (lp, w) = build_lp(ctx);

    let sol = lp.solve()?;
    if sol.status != Status::Optimal {
        return Err(PlanError::UnexpectedLpStatus(match sol.status {
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            _ => "iteration limit",
        }));
    }
    let stats = LpStats { iterations: sol.iterations, objective: sol.objective };

    let mut plan = Plan::empty(topo.len());
    for e in topo.edges() {
        if let Some(we) = w[e.index()] {
            let ub = topo.subtree_size(e).min(k) as u32;
            let rounded = sol.value(we).round().max(0.0) as u32;
            plan.set_bandwidth(e, rounded.min(ub));
        }
    }
    plan.repair_connectivity(topo);
    repair_budget(&mut plan, ctx);
    Ok((plan, stats))
}

/// Greedily decrements bandwidths until the plan fits the budget, dropping
/// the capacity whose removal costs the fewest expected sample hits.
///
/// Candidate drops are scored on the worker pool; each worker evaluates
/// its candidates serially (the outer fan-out already saturates the pool).
/// Scores are reduced in edge order with the same strict comparison as the
/// old serial loop, so the chosen drop — and therefore the final plan — is
/// identical at any thread count. Each score is an `expected_misses` call,
/// which `evaluate::hits_on_sample` serves from the window's stored top-k
/// sets in O(k·depth) per sample — this loop visits every used edge per
/// round, so the old per-candidate re-simulation was the piece that made
/// LP+LF planning collapse beyond a few thousand nodes.
fn repair_budget(plan: &mut Plan, ctx: &PlanContext<'_>) {
    let topo = ctx.topology;
    loop {
        let cost = ctx.plan_cost(plan);
        if cost <= ctx.budget_mj || plan.total_bandwidth() == 0 {
            return;
        }
        let base_misses = expected_misses(plan, topo, ctx.samples);
        let current: &Plan = plan;
        let used: Vec<NodeId> = topo.edges().filter(|&e| current.is_used(e)).collect();
        let scored = prospector_par::par_map(&used, |_, &e| {
            let candidate = decremented(current, topo, e);
            let loss = expected_misses_with(&candidate, topo, ctx.samples, 1) - base_misses;
            let saving = cost - ctx.plan_cost(&candidate);
            (loss, -saving)
        });
        let mut best: Option<((f64, f64), NodeId)> = None;
        for (&e, &key) in used.iter().zip(&scored) {
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, e));
            }
        }
        let Some((_, e)) = best else { return };
        *plan = decremented(plan, topo, e);
    }
}

/// `plan` with one unit of bandwidth removed from edge `e`; when the edge
/// drops to zero its whole subtree is disconnected and zeroed.
fn decremented(plan: &Plan, topo: &prospector_net::Topology, e: NodeId) -> Plan {
    let mut p = plan.clone();
    let w = p.bandwidth(e);
    debug_assert!(w > 0);
    p.set_bandwidth(e, w - 1);
    if w == 1 {
        for d in topo.subtree(e) {
            p.set_bandwidth(d, 0);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_no_lf::ProspectorLpNoLf;
    use prospector_data::SampleSet;
    use prospector_net::topology::{balanced, star};
    use prospector_net::{ArqPolicy, Backoff, EnergyModel, FailureModel, Topology};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A miniature contention zone: one subtree of `m` nodes where exactly
    /// one (random per sample) spikes above everything else.
    fn zone_samples(n_zone: usize, rows: usize, seed: u64) -> (Topology, SampleSet) {
        // 0 = root, 1 = zone head, 2..=n_zone+1 = zone members under 1.
        let mut parent = vec![None, Some(NodeId(0))];
        for _ in 0..n_zone {
            parent.push(Some(NodeId(1)));
        }
        let t = Topology::from_parents(NodeId(0), parent).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = SampleSet::new(t.len(), 1, rows);
        for _ in 0..rows {
            let mut v = vec![1.0; t.len()];
            v[0] = 0.0;
            let spike = 2 + rng.random_range(0..n_zone);
            v[spike] = 100.0;
            s.push(v);
        }
        (t, s)
    }

    #[test]
    fn respects_budget() {
        let t = balanced(3, 3);
        let em = EnergyModel::mica2();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = SampleSet::new(t.len(), 5, 10);
        let means: Vec<f64> = (0..t.len()).map(|_| rng.random_range(0.0..100.0)).collect();
        for _ in 0..10 {
            s.push(means.iter().map(|m| m + rng.random_range(-10.0..10.0)).collect());
        }
        for budget in [10.0, 30.0, 80.0, 300.0] {
            let ctx = PlanContext::new(&t, &em, &s, budget);
            let plan = ProspectorLpLf.plan(&ctx).unwrap();
            plan.validate(&t).unwrap();
            assert!(
                ctx.plan_cost(&plan) <= budget + 1e-9,
                "budget {budget} exceeded: {}",
                ctx.plan_cost(&plan)
            );
        }
    }

    #[test]
    fn uses_local_filtering_under_contention() {
        // One zone of 8 nodes, exactly one of which spikes per sample. The
        // LF plan should visit all zone members but forward only ~1 value
        // from the zone head — bandwidth(zone head) < Σ bandwidth(members).
        let (t, s) = zone_samples(8, 12, 5);
        let em = EnergyModel::mica2();
        // Budget: all 9 edges used + a handful of values, but far less
        // than shipping 8 values through the head.
        let budget = 9.0 * em.per_message_mj + 12.0 * em.per_value();
        let ctx = PlanContext::new(&t, &em, &s, budget);
        let plan = ProspectorLpLf.plan(&ctx).unwrap();
        plan.validate(&t).unwrap();
        let member_bw: u32 = (2..t.len()).map(|i| plan.bandwidth(NodeId::from_index(i))).sum();
        let head_bw = plan.bandwidth(NodeId(1));
        assert!(head_bw < member_bw, "no filtering: head {head_bw} vs members {member_bw}");
        // And it must actually deliver the spike in most samples.
        let misses = expected_misses(&plan, &t, &s);
        assert!(misses < 0.2, "misses {misses}");
    }

    #[test]
    fn beats_no_lf_under_contention() {
        let (t, s) = zone_samples(10, 12, 7);
        let em = EnergyModel::mica2();
        let budget = 11.0 * em.per_message_mj + 14.0 * em.per_value();
        let ctx = PlanContext::new(&t, &em, &s, budget);
        let lf = ProspectorLpLf.plan(&ctx).unwrap();
        let nolf = ProspectorLpNoLf.plan(&ctx).unwrap();
        let m_lf = expected_misses(&lf, &t, &s);
        let m_nolf = expected_misses(&nolf, &t, &s);
        assert!(
            m_lf <= m_nolf + 1e-9,
            "LP+LF ({m_lf}) should not lose to LP−LF ({m_nolf}) under contention"
        );
    }

    #[test]
    fn exact_when_budget_ample() {
        let t = balanced(2, 3);
        let em = EnergyModel::mica2();
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = SampleSet::new(t.len(), 3, 6);
        for _ in 0..6 {
            s.push((0..t.len()).map(|_| rng.random_range(0.0..50.0)).collect());
        }
        let ctx = PlanContext::new(&t, &em, &s, 1e6);
        let plan = ProspectorLpLf.plan(&ctx).unwrap();
        assert_eq!(expected_misses(&plan, &t, &s), 0.0);
    }

    #[test]
    fn zero_budget_gives_empty_plan() {
        let t = star(4);
        let em = EnergyModel::mica2();
        let mut s = SampleSet::new(4, 1, 2);
        s.push(vec![0.0, 3.0, 2.0, 1.0]);
        let ctx = PlanContext::new(&t, &em, &s, 0.0);
        let plan = ProspectorLpLf.plan(&ctx).unwrap();
        assert_eq!(plan.total_bandwidth(), 0);
    }

    #[test]
    fn errors_without_samples() {
        let t = star(3);
        let em = EnergyModel::mica2();
        let s = SampleSet::new(3, 1, 2);
        let ctx = PlanContext::new(&t, &em, &s, 10.0);
        assert!(matches!(ProspectorLpLf.plan(&ctx), Err(PlanError::NoSamples)));
        assert!(matches!(budget_shadow_price(&ctx), Err(PlanError::NoSamples)));
    }

    #[test]
    fn shadow_price_shows_diminishing_returns() {
        let t = balanced(2, 3);
        let em = EnergyModel::mica2();
        let mut rng = StdRng::seed_from_u64(17);
        let mut s = SampleSet::new(t.len(), 3, 6);
        for _ in 0..6 {
            s.push((0..t.len()).map(|_| rng.random_range(0.0..50.0)).collect());
        }
        // Starved budget: energy is precious.
        let tight = budget_shadow_price(&PlanContext::new(&t, &em, &s, 3.0)).unwrap();
        // Saturated budget: extra energy buys nothing.
        let loose = budget_shadow_price(&PlanContext::new(&t, &em, &s, 1e5)).unwrap();
        assert!(tight > 0.0, "tight budget must have positive shadow price: {tight}");
        assert!(loose.abs() < 1e-9, "saturated budget price must vanish: {loose}");
        assert!(tight > loose);
    }

    /// A random tree of `n` nodes: node i hangs under one of the `span`
    /// nodes before it, so shapes run from chains (span 1) to random
    /// recursive trees (span n).
    fn random_tree(n: usize, rng: &mut StdRng) -> Topology {
        let span = rng.random_range(1..=n);
        let mut parent = vec![None];
        parent.extend(
            (1..n).map(|i| Some(NodeId::from_index(rng.random_range(i.saturating_sub(span)..i)))),
        );
        Topology::from_parents(NodeId(0), parent).expect("random parents form a tree")
    }

    // The capture-all closed form is the simplex's plan wherever it fits:
    // on random trees, windows, k, tied and untied readings and budgets
    // around its cost (exactly at it included), under plain,
    // failure-aware and ARQ edge costs. Where it fits, the solved, rounded
    // and repaired plan equals it on every edge and the LP objective
    // equals the value count; where it does not, the LP objective falls
    // below that count. The planner returns whichever of the two applies.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]

        #[test]
        fn capture_all_is_the_simplex_plan_wherever_it_fits(
            n in 2usize..=20,
            rows in 1usize..=8,
            k in 1usize..=5,
            tied in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = random_tree(n, &mut rng);
            let k = k.min(n);
            let mut s = SampleSet::new(n, k, rows);
            for _ in 0..rows {
                s.push(
                    (0..n)
                        .map(|_| {
                            if tied == 1 {
                                rng.random_range(0..4u32) as f64
                            } else {
                                rng.random_range(0.0..100.0)
                            }
                        })
                        .collect(),
                );
            }
            let em = EnergyModel::mica2();
            let probs = (0..n).map(|_| rng.random_range(0.0..0.4)).collect();
            let failures = FailureModel::per_edge(n, probs, rng.random_range(0.0..3.0)).unwrap();
            let max_retries = rng.random_range(0..4u32);
            let arq = ArqPolicy { max_retries, backoff: Backoff::mica2() };
            for costs in ["plain", "failures", "arq"] {
                let context = |budget| {
                    let ctx = PlanContext::new(&t, &em, &s, budget);
                    match costs {
                        "plain" => ctx,
                        "failures" => ctx.with_failures(&failures),
                        _ => ctx.with_failures(&failures).with_arq(arq),
                    }
                };
                let (closed, values) = capture_all(&context(0.0));
                let cost = context(0.0).plan_cost(&closed);
                for factor in [0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 10.0] {
                    let ctx = context(cost * factor);
                    let (solved, lp) = solve_and_round(&ctx).unwrap();
                    let planned = ProspectorLpLf.plan_traced(&ctx).unwrap();
                    let planned_lp = planned.lp.unwrap();
                    if cost <= ctx.budget_mj {
                        proptest::prop_assert_eq!(
                            &solved, &closed, "{} costs, factor {}", costs, factor
                        );
                        proptest::prop_assert!(
                            (lp.objective - values as f64).abs() < 1e-6,
                            "objective {} vs {} values", lp.objective, values
                        );
                        proptest::prop_assert_eq!(&planned.plan, &closed);
                        proptest::prop_assert_eq!(planned_lp.iterations, 0);
                        proptest::prop_assert_eq!(planned_lp.objective, values as f64);
                    } else {
                        proptest::prop_assert!(
                            lp.objective < values as f64 - 1e-6,
                            "{} costs, factor {}: objective {} vs {} values",
                            costs, factor, lp.objective, values
                        );
                        proptest::prop_assert_eq!(&planned.plan, &solved);
                        proptest::prop_assert_eq!(planned_lp, lp);
                    }
                }
            }
        }
    }
}
