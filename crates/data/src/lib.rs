//! Sensor value generation and the sampling framework of Section 3.
//!
//! The Prospector planners never reason about explicit probabilistic
//! models; they optimize over a window of **samples** — full-network value
//! snapshots collected at exploration timesteps. This crate provides:
//!
//! * [`source`] — the [`ValueSource`](source::ValueSource) trait producing
//!   per-epoch readings for every node;
//! * [`gaussian`] — independent per-node Gaussians (the synthetic workload
//!   of Figures 3 and 4);
//! * [`zones`] — the contention-zone workload of Figures 5–7, where zone
//!   nodes have sub-threshold means but high variance tuned so the expected
//!   number of zone nodes in the top k is exactly `k`;
//! * [`intel`] — a synthetic stand-in for the Intel Berkeley Lab trace
//!   (Figure 9): spatially correlated temperatures with a diurnal cycle,
//!   persistent warm spots and missing-value filling (see DESIGN.md §3);
//! * [`walk`] — random-walk readings for drift/adaptivity experiments;
//! * [`samples`] — the sample window, the Boolean top-k matrix, its column
//!   counts, and the `smaller(...)` witness sets used by the proof LP;
//! * [`collector`] — exploration/exploitation scheduling of full-network
//!   sweeps and their energy cost;
//! * [`stats`] — small numeric helpers (Box–Muller sampling, inverse normal
//!   CDF) shared by the generators.

pub mod collector;
pub mod drift;
pub mod gaussian;
pub mod intel;
pub mod samples;
pub mod source;
pub mod stats;
pub mod subset;
pub mod walk;
pub mod zones;

pub use collector::{full_sweep_cost, SamplePolicy};
pub use drift::{DriftField, PiecewiseConstant};
pub use gaussian::IndependentGaussian;
pub use intel::IntelLabLike;
pub use samples::{top_k_nodes, Band, BandTable, Reading, SamplePartsError, SampleSet};
pub use source::ValueSource;
pub use subset::{AnswerSpec, SubsetSampleSet};
pub use walk::RandomWalk;
pub use zones::ContentionZones;
