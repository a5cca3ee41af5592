//! Graceful planner degradation.
//!
//! Long-running experiments must never abort because one planning
//! algorithm hit a bad numeric corner: after a permanent failure shrinks
//! the usable network, an LP can turn degenerate, or a tightened budget
//! can fall below what a proof-carrying plan requires. [`FallbackPlanner`]
//! chains planners from most to least sophisticated and returns the first
//! plan that succeeds, recording through [`Planner::plan_traced`] which
//! link actually produced the answer.

use crate::error::PlanError;
use crate::greedy::ProspectorGreedy;
use crate::lp_lf::ProspectorLpLf;
use crate::naive::NaiveK;
use crate::plan::Plan;
use crate::planner::{PlanAttempt, PlanContext, PlannedWith, Planner};

/// Tries a chain of planners in order, returning the first success.
///
/// ```
/// use prospector_core::FallbackPlanner;
///
/// // LP with local filtering, degrading to greedy, then to NAIVE-k.
/// let planner = FallbackPlanner::standard();
/// assert_eq!(planner.names(), vec!["lp+lf", "greedy", "naive-k"]);
/// ```
pub struct FallbackPlanner {
    chain: Vec<Box<dyn Planner>>,
}

impl FallbackPlanner {
    /// A chain with a single (primary) planner; add fallbacks with
    /// [`FallbackPlanner::or`].
    pub fn new(primary: Box<dyn Planner>) -> Self {
        FallbackPlanner { chain: vec![primary] }
    }

    /// Appends a planner tried when everything before it failed.
    pub fn or(mut self, next: Box<dyn Planner>) -> Self {
        self.chain.push(next);
        self
    }

    /// The standard degradation chain: `lp+lf` → `greedy` → `naive-k`.
    /// NAIVE-k ignores the budget and never errors, so this chain always
    /// produces *some* plan.
    pub fn standard() -> Self {
        FallbackPlanner::new(Box::new(ProspectorLpLf))
            .or(Box::new(ProspectorGreedy))
            .or(Box::new(NaiveK))
    }

    /// Names of the chained planners, in trial order.
    pub fn names(&self) -> Vec<&'static str> {
        self.chain.iter().map(|p| p.name()).collect()
    }
}

impl Planner for FallbackPlanner {
    fn name(&self) -> &'static str {
        "fallback"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<Plan, PlanError> {
        self.plan_traced(ctx).map(|t| t.plan)
    }

    fn plan_traced(&self, ctx: &PlanContext<'_>) -> Result<PlannedWith, PlanError> {
        debug_assert!(!self.chain.is_empty(), "fallback chain cannot be empty");
        let mut last_err = None;
        let mut attempts = Vec::new();
        for (fallback_depth, planner) in self.chain.iter().enumerate() {
            match planner.plan_traced(ctx) {
                Ok(traced) => {
                    attempts.extend(traced.attempts);
                    return Ok(PlannedWith {
                        plan: traced.plan,
                        planner: traced.planner,
                        fallback_depth,
                        lp: traced.lp,
                        attempts,
                    });
                }
                Err(e) => {
                    attempts
                        .push(PlanAttempt { planner: planner.name(), error: Some(e.to_string()) });
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("chain has at least one planner"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_data::SampleSet;
    use prospector_net::topology::chain;
    use prospector_net::EnergyModel;

    /// A planner that always fails, for exercising the chain.
    struct AlwaysFails;

    impl Planner for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }
        fn plan(&self, _ctx: &PlanContext<'_>) -> Result<Plan, PlanError> {
            Err(PlanError::UnexpectedLpStatus("synthetic failure"))
        }
    }

    fn samples(n: usize, k: usize) -> SampleSet {
        let mut s = SampleSet::new(n, k, 8);
        s.push((0..n).map(|i| i as f64).collect());
        s
    }

    #[test]
    fn primary_success_reports_depth_zero() {
        let t = chain(5);
        let em = EnergyModel::mica2();
        let s = samples(5, 2);
        let ctx = PlanContext::new(&t, &em, &s, 50.0);
        let p = FallbackPlanner::standard();
        let traced = p.plan_traced(&ctx).unwrap();
        assert_eq!(traced.fallback_depth, 0);
        assert_eq!(traced.planner, "lp+lf");
    }

    #[test]
    fn failure_falls_through_to_next_link() {
        let t = chain(5);
        let em = EnergyModel::mica2();
        let s = samples(5, 2);
        let ctx = PlanContext::new(&t, &em, &s, 50.0);
        let p = FallbackPlanner::new(Box::new(AlwaysFails)).or(Box::new(ProspectorGreedy));
        let traced = p.plan_traced(&ctx).unwrap();
        assert_eq!(traced.fallback_depth, 1);
        assert_eq!(traced.planner, "greedy");
        // plan() agrees with plan_traced().
        assert_eq!(p.plan(&ctx).unwrap().total_bandwidth(), traced.plan.total_bandwidth());
    }

    #[test]
    fn all_failures_surface_last_error() {
        let t = chain(3);
        let em = EnergyModel::mica2();
        let s = samples(3, 1);
        let ctx = PlanContext::new(&t, &em, &s, 50.0);
        let p = FallbackPlanner::new(Box::new(AlwaysFails)).or(Box::new(AlwaysFails));
        assert!(matches!(p.plan_traced(&ctx), Err(PlanError::UnexpectedLpStatus(_))));
    }

    #[test]
    fn standard_chain_survives_empty_window() {
        // No samples at all: LP and greedy both need samples, NAIVE-k does
        // not — the chain must still deliver a plan.
        let t = chain(6);
        let em = EnergyModel::mica2();
        let s = SampleSet::new(6, 2, 8);
        let ctx = PlanContext::new(&t, &em, &s, 50.0);
        let traced = FallbackPlanner::standard().plan_traced(&ctx).unwrap();
        assert_eq!(traced.planner, "naive-k");
        assert_eq!(traced.fallback_depth, 2);
        assert!(traced.plan.num_visited(&t) > 0);
    }

    #[test]
    fn plain_planners_trace_as_themselves() {
        let t = chain(4);
        let em = EnergyModel::mica2();
        let s = samples(4, 2);
        let ctx = PlanContext::new(&t, &em, &s, 50.0);
        let traced = ProspectorGreedy.plan_traced(&ctx).unwrap();
        assert_eq!(traced.planner, "greedy");
        assert_eq!(traced.fallback_depth, 0);
    }
}
