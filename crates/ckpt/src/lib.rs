//! Crash-consistent checkpoint/resume for long-running experiments.
//!
//! The paper's protocol is explicitly multi-epoch: sample windows,
//! adaptive retry budgets and repaired topologies all accumulate state
//! across epochs. This crate makes that state durable. A state type
//! implements [`Image`]; its [`Codec`] field walk is the payload of a
//! versioned, checksummed, byte-deterministic checkpoint
//! ([`encode`]/[`decode`]), and a [`CheckpointStore`] manages a directory
//! of them with atomic writes and corrupt-file fallback. The simulator's
//! `Checkpoint` (the `ExperimentRunner`'s whole resumable state) is the
//! image this workspace writes.
//!
//! The contract (enforced by `tests/crash_resume.rs` at the workspace
//! root, and against bytes earlier builds wrote by
//! `tests/checkpoint_fixtures.rs`): killing a run at any epoch boundary
//! and resuming from the latest checkpoint yields epoch reports, meters
//! and traces byte-identical to the uninterrupted run. Four properties
//! make that possible:
//!
//! 1. **Per-epoch randomness is re-derived.** Collection draws come from
//!    `epoch_seed(seed, epoch)`, so they need no capture. The only RNG
//!    stream that persists across epochs (the dissemination stream) is
//!    captured as raw generator state.
//! 2. **The format is byte-deterministic.** Floats travel as IEEE-754
//!    bits, maps in sorted order; no pointer identity is ever
//!    serialized, so encoding the same state twice yields the same
//!    bytes. The bytes are a pure function of the state, and the state
//!    is seeded except for one piece: a runner with metrics enabled
//!    carries the wall-clock `plan_latency_ms` histogram in its image,
//!    so two such runs write checkpoints that differ. With metrics off
//!    the bytes are a function of the seeds alone.
//! 3. **Corruption cannot masquerade as state.** The payload is guarded
//!    by an FNV-1a 64 checksum (every single-byte substitution changes
//!    it) plus a declared length (every truncation is caught), and the
//!    store falls back to the previous good file.
//! 4. **A decoded image is checked before it is used.** Types with
//!    invariants rebuild through their checked constructors, and every
//!    [`decode`] runs the image's [`Image::check`], the same check a
//!    resume runs: pieces that disagree with each other fail to load.
//!
//! Like the obs crate, this crate is std-only and hand-rolls its wire
//! format — no serde, no external dependencies.

pub mod checkpoint;
pub mod codec;
pub mod store;

pub use checkpoint::{decode, encode, CheckpointError, Image, HEADER_LEN, MAGIC, VERSION};
pub use codec::{fnv1a64, Codec, DecodeError, Reader, Writer};
pub use store::{CheckpointPolicy, CheckpointStore, StoreError};
