//! Execution engine for top-k query plans over simulated sensor networks.
//!
//! `prospector-core` defines *what* a plan does (pure semantics); this
//! crate prices it and runs the paper's protocols end to end:
//!
//! * [`exec`] — energy-metered execution of approximate and proof-carrying
//!   plans: trigger broadcasts, per-edge unicasts, proven-count side
//!   channel, transient-failure injection with rerouting charges, and
//!   the exploration [`Sweep`], whose bill is built once per tree and
//!   alive set and replayed;
//! * [`dissemination`] — the initial distribution phase (installing a plan);
//! * [`naive1`] — the pipelined `NAIVE-1` exact protocol of Section 2, one
//!   value per message;
//! * [`exact_exec`] — `ProspectorExact`'s two phases: a proof-carrying
//!   collection followed by the range-bounded mop-up of Section 4.3;
//! * [`runner`] — multi-epoch experiments: exploration sampling,
//!   re-planning, plan dissemination and per-epoch metrics, and Section
//!   4.4's re-sampling rate adaptation, in which periodic exact audits
//!   move the sampling period (`SamplePolicy::Adaptive`); it also holds
//!   [`apply_deaths`], the one death stage (Section 4.4: repair the tree,
//!   charge detection and re-attachment, mask the window) that the
//!   runner and the serving layer both call. The runner's resumable
//!   state is one struct, [`Checkpoint`], whose field walk is the
//!   checkpoint image (see `prospector-ckpt`);
//! * [`continuous`] — the continuous-query delta protocol: custody-based
//!   delta shipping, change beacons, forced full refreshes and per-subtree
//!   q-digest summaries.
//!
//! Entry points that can be traced take a
//! [`Tracer`](prospector_obs::Tracer), either as an argument
//! ([`install_plan`], [`install_plan_lossy`], [`apply_deaths`],
//! [`ExperimentRunner::step_traced`], [`ExperimentRunner::run_to`]) or
//! through a `_traced` twin of an untraced name ([`execute_plan_traced`]):
//! energy charges, link deliveries, faults, audits and epoch summaries
//! stream out as structured [`TraceEvent`](prospector_obs::TraceEvent)s.
//! Untraced callers pass a [`NullTracer`](prospector_obs::NullTracer),
//! which costs nothing extra.

pub mod backfill;
pub mod continuous;
pub mod dissemination;
pub mod exact_exec;
pub mod exec;
pub mod naive1;
pub mod runner;
mod trace;

pub use backfill::{backfill_answer, AnswerEntry};
pub use continuous::{ContinuousState, Delta, DeltaOutcome, RefreshOutcome};
pub use dissemination::{install_cost, install_plan, install_plan_lossy, DisseminationReport};
pub use exact_exec::{run_exact, ExactResult};
pub use exec::{
    execute_plan, execute_plan_arq, execute_plan_arq_traced, execute_plan_traced,
    execute_proof_plan, ExecutionReport, Sweep,
};
pub use naive1::run_naive1;
pub use runner::{
    apply_deaths, mask_dead_values, Checkpoint, CheckpointStore, CheckpointedRunError, ConfigError,
    EpochReport, ExperimentConfig, ExperimentRunner, ResumeError,
};
