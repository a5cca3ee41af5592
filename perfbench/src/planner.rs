//! A planner wrapper that times and counts every call, handed to the
//! runner and the service in place of `FallbackPlanner::standard()`.
//! Its plans are the wrapped planner's, bit for bit.

use prospector_core::{FallbackPlanner, Plan, PlanContext, PlanError, PlannedWith, Planner};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the wrapped planner did, call by call.
#[derive(Debug, Default)]
pub struct PlanLog {
    /// Calls made, successful or not.
    pub calls: u64,
    /// Wall time of each call.
    pub ms: Vec<f64>,
    /// Simplex pivots of each LP-backed plan.
    pub lp_iterations: Vec<u64>,
    /// Calls whose primary planner (`lp+lf`) failed and the chain fell back.
    pub fallbacks: u64,
}

impl PlanLog {
    /// Appends `other`'s calls to this log.
    pub fn absorb(&mut self, other: PlanLog) {
        self.calls += other.calls;
        self.ms.extend(other.ms);
        self.lp_iterations.extend(other.lp_iterations);
        self.fallbacks += other.fallbacks;
    }
}

pub type SharedLog = Rc<RefCell<PlanLog>>;

pub struct TimedPlanner {
    inner: FallbackPlanner,
    log: SharedLog,
}

impl TimedPlanner {
    /// Wraps `FallbackPlanner::standard()`, logging every call to `log`.
    pub fn new(log: SharedLog) -> Self {
        TimedPlanner { inner: FallbackPlanner::standard(), log }
    }

    pub fn log(&self) -> &SharedLog {
        &self.log
    }
}

thread_local! {
    static PLANNER: &'static TimedPlanner = Box::leak(Box::new(TimedPlanner::new(SharedLog::default())));
}

/// This thread's planner. A runner borrows its planner for its whole
/// life, so every runner the thread builds shares this one rather than
/// leaking its own; its log accumulates across them.
pub fn thread_planner() -> &'static TimedPlanner {
    PLANNER.with(|planner| *planner)
}

impl Planner for TimedPlanner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<Plan, PlanError> {
        self.plan_traced(ctx).map(|t| t.plan)
    }

    fn plan_traced(&self, ctx: &PlanContext<'_>) -> Result<PlannedWith, PlanError> {
        let started = Instant::now();
        let out = self.inner.plan_traced(ctx);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        log.ms.push(ms);
        match &out {
            Ok(planned) => {
                if let Some(lp) = &planned.lp {
                    log.lp_iterations.push(lp.iterations as u64);
                }
                if planned.fallback_depth > 0 {
                    log.fallbacks += 1;
                }
            }
            // The whole chain failed: every link fell through.
            Err(_) => log.fallbacks += 1,
        }
        out
    }
}
