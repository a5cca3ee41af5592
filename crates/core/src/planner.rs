//! The planner abstraction and shared planning context.

use crate::error::PlanError;
use crate::plan::Plan;
use prospector_data::SampleSet;
use prospector_net::{ArqPolicy, EnergyModel, FailureModel, NodeId, Topology};

/// Everything a planner needs: topology, cost model, the sample window and
/// the energy budget for one collection phase.
pub struct PlanContext<'a> {
    pub topology: &'a Topology,
    pub energy: &'a EnergyModel,
    pub samples: &'a SampleSet,
    /// Energy budget (mJ) for the collection phase of one query execution.
    pub budget_mj: f64,
    /// Transient-failure statistics; when present, per-edge message costs
    /// are inflated by the expected rerouting cost (Section 4.4) — or,
    /// when an [`ArqPolicy`] is also present, by the expected
    /// retransmission cost of reliable delivery on that edge.
    pub failures: Option<&'a FailureModel>,
    /// Per-hop ARQ policy collection will run under. With both `failures`
    /// and `arq` set, edge costs price the truncated-geometric expected
    /// attempt count, the backoff windows and the retry ack, so planners
    /// route bandwidth around bad links.
    pub arq: Option<ArqPolicy>,
}

impl<'a> PlanContext<'a> {
    /// Context without failure statistics.
    pub fn new(
        topology: &'a Topology,
        energy: &'a EnergyModel,
        samples: &'a SampleSet,
        budget_mj: f64,
    ) -> Self {
        PlanContext { topology, energy, samples, budget_mj, failures: None, arq: None }
    }

    /// Adds failure statistics to the context.
    pub fn with_failures(mut self, failures: &'a FailureModel) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Adds the ARQ policy collection will execute under, switching edge
    /// costs from the reroute-penalty model to the retransmission model.
    pub fn with_arq(mut self, arq: ArqPolicy) -> Self {
        self.arq = Some(arq);
        self
    }

    /// Query parameter `k`.
    pub fn k(&self) -> usize {
        self.samples.k()
    }

    /// Expected transmissions per message on the edge above `child`
    /// (1 when no failures or no ARQ policy are configured).
    fn edge_attempts(&self, child: NodeId) -> f64 {
        match (self.failures, &self.arq) {
            (Some(f), Some(policy)) => policy.expected_attempts(f.prob(child)),
            _ => 1.0,
        }
    }

    /// Effective per-message cost on the edge above `child`. Under the
    /// reroute model this is the expected rerouting overhead
    /// (Section 4.4); under ARQ it is the header cost of every expected
    /// attempt, the expected backoff idle-listening, and the header-only
    /// ack sent when a retry finally succeeds.
    pub fn edge_message_cost(&self, child: NodeId) -> f64 {
        let per_message = self.energy.per_message_mj;
        match (self.failures, &self.arq) {
            (Some(f), Some(policy)) => {
                let p = f.prob(child);
                // P(delivered on a retry) = (1 - p^(r+1)) - (1 - p).
                let ack_prob = policy.delivery_prob(p) - (1.0 - p);
                per_message * policy.expected_attempts(p)
                    + policy.expected_backoff_mj(p)
                    + ack_prob * per_message
            }
            (Some(f), None) => per_message + f.expected_extra_cost(child),
            _ => per_message,
        }
    }

    /// Effective per-value payload cost on the edge above `child`: every
    /// retransmission resends the whole batch, so under ARQ the payload
    /// is paid once per expected attempt.
    pub fn edge_value_cost(&self, child: NodeId) -> f64 {
        self.energy.per_value() * self.edge_attempts(child)
    }

    /// Collection-phase cost of a plan under this context's cost model:
    /// one message per used edge plus the per-value payload. This is an
    /// upper bound — execution may ship fewer values than the bandwidth
    /// allows — and is the quantity planners budget against.
    pub fn plan_cost(&self, plan: &Plan) -> f64 {
        self.topology
            .edges()
            .filter(|&e| plan.is_used(e))
            .map(|e| self.edge_message_cost(e) + self.edge_value_cost(e) * plan.bandwidth(e) as f64)
            .sum()
    }

    /// Cost of the proven-count side channel of a proof-carrying plan: one
    /// extra field per non-leaf edge (Section 4.3 step 4).
    pub fn proof_overhead(&self) -> f64 {
        self.topology.edges().filter(|&e| !self.topology.is_leaf(e)).count() as f64
            * self.energy.per_byte_mj
            * self.energy.proven_count_bytes as f64
    }

    /// Minimum possible cost of a proof-carrying plan: every edge carries
    /// at least one value.
    pub fn min_proof_cost(&self) -> f64 {
        self.topology
            .edges()
            .map(|e| self.edge_message_cost(e) + self.edge_value_cost(e))
            .sum::<f64>()
            + self.proof_overhead()
    }
}

/// Solver statistics of an LP-backed plan, for observability: how hard
/// the simplex worked and what objective the relaxation reached before
/// rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpStats {
    /// Simplex pivots of the solve. 0 means no simplex ran: LP+LF's
    /// capture-all plan fit the budget and is the LP's optimum in closed
    /// form.
    pub iterations: usize,
    /// Objective value of the LP relaxation (expected sample hits, before
    /// rounding and budget repair).
    pub objective: f64,
}

/// One link of a planning attempt chain: which planner was tried and, if
/// it failed, why (the [`PlanError`] rendered through `Display`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAttempt {
    /// [`Planner::name`] of the link.
    pub planner: &'static str,
    /// `None` for the link that produced the plan.
    pub error: Option<String>,
}

/// A plan together with provenance: which algorithm actually produced it.
///
/// Produced by [`Planner::plan_traced`]; combinators like
/// `FallbackPlanner` use it to report *which* link of their chain
/// succeeded without resorting to interior mutability.
#[derive(Debug, Clone)]
pub struct PlannedWith {
    pub plan: Plan,
    /// [`Planner::name`] of the algorithm that produced the plan.
    pub planner: &'static str,
    /// How many planners failed before this one succeeded (0 = the
    /// primary planner worked).
    pub fallback_depth: usize,
    /// Solver statistics when the producing planner solved an LP.
    pub lp: Option<LpStats>,
    /// Every link tried, in order, ending with the one that succeeded.
    /// Plain planners report the single successful attempt.
    pub attempts: Vec<PlanAttempt>,
}

/// A query-plan construction algorithm.
pub trait Planner {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Builds a plan whose collection cost stays within `ctx.budget_mj`.
    fn plan(&self, ctx: &PlanContext<'_>) -> Result<Plan, PlanError>;

    /// Like [`Planner::plan`] but also reports which algorithm produced
    /// the plan. For a plain planner that is simply itself at depth 0;
    /// combinators override this to attribute the plan to the chain link
    /// that actually succeeded.
    fn plan_traced(&self, ctx: &PlanContext<'_>) -> Result<PlannedWith, PlanError> {
        Ok(PlannedWith {
            plan: self.plan(ctx)?,
            planner: self.name(),
            fallback_depth: 0,
            lp: None,
            attempts: vec![PlanAttempt { planner: self.name(), error: None }],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::chain;

    fn samples(n: usize, k: usize) -> SampleSet {
        let mut s = SampleSet::new(n, k, 8);
        s.push((0..n).map(|i| i as f64).collect());
        s
    }

    #[test]
    fn plan_cost_counts_messages_and_values() {
        let t = chain(3);
        let em = EnergyModel::mica2();
        let s = samples(3, 1);
        let ctx = PlanContext::new(&t, &em, &s, 100.0);
        let mut p = Plan::empty(3);
        p.set_bandwidth(NodeId(1), 2);
        p.set_bandwidth(NodeId(2), 1);
        let expect = 2.0 * em.per_message_mj + 3.0 * em.per_value();
        assert!((ctx.plan_cost(&p) - expect).abs() < 1e-9);
    }

    #[test]
    fn failures_inflate_edge_costs() {
        let t = chain(3);
        let em = EnergyModel::mica2();
        let s = samples(3, 1);
        let fm = FailureModel::uniform(3, 0.5, 2.0);
        let ctx = PlanContext::new(&t, &em, &s, 100.0).with_failures(&fm);
        assert!((ctx.edge_message_cost(NodeId(1)) - (em.per_message_mj + 1.0)).abs() < 1e-12);
        let mut p = Plan::empty(3);
        p.set_bandwidth(NodeId(1), 1);
        let base_ctx = PlanContext::new(&t, &em, &s, 100.0);
        assert!(ctx.plan_cost(&p) > base_ctx.plan_cost(&p));
    }

    #[test]
    fn arq_inflates_both_message_and_value_costs() {
        let t = chain(3);
        let em = EnergyModel::mica2();
        let s = samples(3, 1);
        let fm = FailureModel::uniform(3, 0.5, 2.0);
        let policy = prospector_net::ArqPolicy {
            max_retries: 2,
            backoff: prospector_net::Backoff { base_mj: 0.4, factor: 2.0, jitter: 0.0 },
        };
        let ctx = PlanContext::new(&t, &em, &s, 100.0).with_failures(&fm).with_arq(policy);
        // p = 0.5, r = 2: E[attempts] = 1.75, E[backoff] = 0.5·0.4 + 0.25·0.8,
        // P(ack) = (1 - 0.125) - 0.5 = 0.375.
        let expect_msg = em.per_message_mj * 1.75 + 0.4 + 0.375 * em.per_message_mj;
        assert!((ctx.edge_message_cost(NodeId(1)) - expect_msg).abs() < 1e-12);
        assert!((ctx.edge_value_cost(NodeId(1)) - em.per_value() * 1.75).abs() < 1e-12);
        // A clean edge prices exactly like the reliable model.
        let clean = FailureModel::none(3);
        let clean_ctx = PlanContext::new(&t, &em, &s, 100.0).with_failures(&clean).with_arq(policy);
        assert_eq!(clean_ctx.edge_message_cost(NodeId(1)), em.per_message_mj);
        assert_eq!(clean_ctx.edge_value_cost(NodeId(1)), em.per_value());
    }

    #[test]
    fn min_proof_cost_covers_every_edge() {
        let t = chain(4);
        let em = EnergyModel::mica2();
        let s = samples(4, 2);
        let ctx = PlanContext::new(&t, &em, &s, 100.0);
        // 3 edges × (message + 1 value) + proven-count bytes on the 2
        // non-leaf edges.
        let expect = 3.0 * (em.per_message_mj + em.per_value())
            + 2.0 * em.per_byte_mj * em.proven_count_bytes as f64;
        assert!((ctx.min_proof_cost() - expect).abs() < 1e-9);
    }

    #[test]
    fn k_comes_from_samples() {
        let t = chain(5);
        let em = EnergyModel::mica2();
        let s = samples(5, 3);
        let ctx = PlanContext::new(&t, &em, &s, 10.0);
        assert_eq!(ctx.k(), 3);
    }
}
