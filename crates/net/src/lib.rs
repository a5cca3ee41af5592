//! Sensor-network substrate for the Prospector reproduction.
//!
//! This crate models the parts of a wireless sensor network that the paper's
//! evaluation depends on:
//!
//! * [`topology`] — the routing spanning tree (parents, children, depths,
//!   subtree queries) over which every query plan is expressed;
//! * [`placement`] — random node placement in a rectangular field and
//!   min-hop (BFS) spanning-tree construction under a radio-range limit,
//!   plus the contention-zone layout of Section 5 and synthetic layouts for
//!   tests;
//! * [`energy`] — the MICA2-style communication cost model (per-message
//!   handshake/header cost `c_m`, per-byte cost `c_b`) of Section 2;
//! * [`meter`] — per-node, per-phase energy accounting;
//! * [`failure`] — the transient link-failure model of Section 4.4;
//! * [`fault`] — deterministic permanent-failure injection (node deaths and
//!   link degradations keyed by epoch), paired with tree repair
//!   ([`Topology::repair`], which re-parents each orphan onto its nearest
//!   surviving ancestor);
//! * [`arq`] — the per-hop retry policy (bounded retransmissions, seeded
//!   backoff, header-only acks) that prices reliable delivery on lossy
//!   links during collection.

pub mod arq;
pub mod energy;
pub mod failure;
pub mod fault;
pub mod meter;
pub mod node;
pub mod placement;
pub mod topology;

pub use arq::{epoch_seed, link_rng, ArqPolicy, Backoff, BackoffError, LinkAttempts};
pub use energy::EnergyModel;
pub use failure::{FailureModel, FailureModelError};
pub use fault::{AppliedDataFault, DataFault, FaultEvent, FaultSchedule, FaultScheduleError};
pub use meter::{EnergyMeter, MeterMergeError, Phase, NUM_PHASES};
pub use node::NodeId;
pub use placement::{Network, NetworkBuilder, Position, ZoneLayout};
pub use topology::{RepairError, Topology, TopologyError};
