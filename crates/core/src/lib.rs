//! The Prospector top-k query planners — the primary contribution of
//! "A Sampling-Based Approach to Optimizing Top-k Queries in Sensor
//! Networks" (Silberstein, Braynard, Ellis, Munagala, Yang — ICDE 2006).
//!
//! A **query plan** assigns a bandwidth `w_e` to every edge of the routing
//! tree: the number of values node `e` may forward to its parent during a
//! collection phase ([`plan`]). Planners construct plans from a window of
//! past samples under an energy budget:
//!
//! * [`naive`] — the exact baseline `NAIVE-k` (every node forwards the top
//!   k of its subtree);
//! * [`oracle`] — non-realizable baselines that know the answer's
//!   locations: [`oracle::oracle_plan`] (lower bound for approximate
//!   algorithms) and [`oracle::oracle_proof_plan`] (lower bound for exact
//!   algorithms);
//! * [`greedy`] — `ProspectorGreedy`: highest top-k appearance counts
//!   first;
//! * [`lp_no_lf`] — `ProspectorLpNoLf` ("LP−LF"): topology-aware linear
//!   program without local filtering;
//! * [`lp_lf`] — `ProspectorLpLf` ("LP+LF"): per-sample variables capture
//!   local filtering;
//! * [`proof_lp`] — `ProspectorProof`: maximizes the expected number of
//!   top-k values *proven* at the root;
//! * [`exact`] — `ProspectorExact`: proof-carrying phase 1 plus a mop-up
//!   phase-2 specification.
//!
//! [`exec`] implements the paper's execution semantics as pure functions
//! (Section 2 for plain plans, Section 4.3 steps 1–4 for proof-carrying
//! plans); the `prospector-sim` crate layers energy metering, failures and
//! protocols on top. [`evaluate`] scores plans against samples or ground
//! truth, [`gate`] holds the root-side plausibility-gating trust machinery
//! (prediction bands, strike counters, quarantine/parole), and [`theory`]
//! demonstrates the Simple-Top-K ⊂ Stochastic-Steiner-Tree reduction of
//! Section 3.1 executably.

pub mod cluster;
pub mod continuous;
pub mod error;
pub mod evaluate;
pub mod exact;
pub mod exec;
pub mod fallback;
pub mod gate;
pub mod greedy;
pub mod lp_lf;
pub mod lp_no_lf;
pub mod naive;
pub mod oracle;
pub mod plan;
pub mod planner;
pub mod proof_lp;
pub mod sketch;
pub mod subset;
pub mod theory;

pub use cluster::{plan_cluster_query, Clustering};
pub use continuous::{ContinuousPolicy, ContinuousPolicyError};
pub use error::PlanError;
pub use exact::ExactConfig;
pub use exec::{
    proven_on_values, run_plan, run_plan_lossy, run_proof_plan, CollectionOutcome, Footprint, Hop,
    LossyCollectionOutcome, ProofOutcome,
};
pub use fallback::FallbackPlanner;
pub use gate::{GatePolicy, GatePolicyError, TrustState, TrustTransition};
pub use greedy::ProspectorGreedy;
pub use lp_lf::{budget_shadow_price, ProspectorLpLf};
pub use lp_no_lf::ProspectorLpNoLf;
pub use naive::NaiveK;
pub use plan::Plan;
pub use planner::{LpStats, PlanAttempt, PlanContext, PlannedWith, Planner};
pub use proof_lp::ProspectorProof;
pub use sketch::{QDigest, SketchConfigError, SketchDecodeError, SketchPrecision};
pub use subset::{deliver_chosen, plan_subset_query, subset_accuracy};
