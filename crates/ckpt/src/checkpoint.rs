//! The checkpoint frame, and the walks of the lower crates' types.
//!
//! A checkpoint is any [`Image`]: a resumable state whose [`Codec`] walk
//! is the payload. This module frames the payload, checks it on decode,
//! and walks the types the state is built from. Plain data takes its
//! walk from [`walk!`](crate::walk); types with invariants rebuild
//! through their checked constructors (`from_parents`, `from_parts`,
//! `per_edge`, `try_with_*`), so a payload that parses but describes an
//! impossible value is a [`CheckpointError::Invalid`], never a panic.
//!
//! ## Wire format
//!
//! ```text
//! magic    8 bytes   "PRSPCKPT"
//! version  u32 LE    currently 4
//! length   u64 LE    payload byte count
//! checksum u64 LE    FNV-1a 64 of the payload
//! payload  length bytes: the image's field walk
//! ```
//!
//! The payload is byte-deterministic: floats travel as IEEE-754 bits and
//! maps in sorted order, so `encode` is a pure function of the state it
//! is given. A state carrying wall-clock data (a runner's metrics hold
//! plan latencies) encodes that data too. Corruption anywhere — header or
//! payload, substitution or truncation — surfaces as a typed
//! [`CheckpointError`].

use crate::codec::{fnv1a64, Codec, DecodeError, Reader, Writer};
use crate::walk;
use prospector_core::{ContinuousPolicy, GatePolicy, Plan, QDigest, SketchPrecision, TrustState};
use prospector_data::{SamplePolicy, SampleSet};
use prospector_net::{
    ArqPolicy, Backoff, DataFault, EnergyMeter, FailureModel, FaultEvent, FaultSchedule, NodeId,
    Topology,
};
use prospector_obs::{Histogram, MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// File magic: identifies a Prospector checkpoint.
pub const MAGIC: [u8; 8] = *b"PRSPCKPT";

/// Current format version. Version 2 added data faults (with the
/// schedule's noise seed), the plausibility-gate policy, and per-node
/// trust state. Version 3 added the continuous-query mode: the
/// [`ContinuousPolicy`] in the configuration section and the protocol's
/// resumable state (view, per-node last-shipped values, in-flight
/// custody entries, threshold, refresh cursor and encoded per-subtree
/// q-digests). Version 4 added the adaptive sampling policy (policy tag
/// 3) and the re-sampling state: the sampling period and the query
/// epochs since the last sweep.
pub const VERSION: u32 = 4;

/// Header bytes preceding the payload (magic + version + length +
/// checksum).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a byte stream failed to load as a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is not the one this build reads and writes.
    UnsupportedVersion { found: u32 },
    /// The stream is shorter than the header + declared payload length.
    Truncated { declared: u64, available: usize },
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The payload's bytes do not parse as the declared version's schema.
    Decode(DecodeError),
    /// The payload parsed but describes an impossible state (e.g. a
    /// parent vector that is not a tree).
    Invalid(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Prospector checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "checkpoint version {found} does not match supported version {VERSION}")
            }
            CheckpointError::Truncated { declared, available } => {
                write!(f, "checkpoint truncated: header declares {declared} payload bytes, {available} present")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            CheckpointError::Decode(e) => write!(f, "payload decode failed: {e}"),
            CheckpointError::Invalid(why) => write!(f, "checkpoint describes invalid state: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Decode(e)
    }
}

fn invalid(e: impl std::fmt::Display) -> CheckpointError {
    CheckpointError::Invalid(e.to_string())
}

/// A resumable state whose field walk is a checkpoint's payload.
pub trait Image: Codec {
    /// The epoch a run resumed from this image executes next; the store
    /// files the image under it.
    fn next_epoch(&self) -> u64;

    /// The state's consistency check: every [`decode`] runs it on what
    /// it parsed, so an image whose pieces disagree (a vector that does
    /// not cover the network, a node id outside it) fails to load
    /// instead of panicking later.
    fn check(&self) -> Result<(), String>;
}

/// Serializes `image` to the wire format (header + payload).
pub fn encode<T: Codec>(image: &T) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(image);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses the wire format, verifying magic, version, declared length and
/// checksum before touching the payload, and runs the image's
/// [`Image::check`] on what the walk read.
pub fn decode<T: Image>(bytes: &[u8]) -> Result<T, CheckpointError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated { declared: 0, available: bytes.len() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let available = bytes.len() - HEADER_LEN;
    if declared != available as u64 {
        return Err(CheckpointError::Truncated { declared, available });
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader::new(payload);
    let image: T = r.get()?;
    r.finish()?;
    image.check().map_err(CheckpointError::Invalid)?;
    Ok(image)
}

walk!(GatePolicy { z, min_sigma, min_window, quarantine_after, parole_after });
walk!(TrustState { strikes, quarantined_since, clean_epochs });
walk!(ArqPolicy { max_retries, backoff });
walk!(Backoff { base_mj, factor, jitter });
walk!(ContinuousPolicy { tolerance, refresh_period, sketch });
walk!(SketchPrecision { depth, compression, lo, hi });
walk!(Histogram { count, sum, min, max });
walk!(MetricsSnapshot { counters, gauges, histograms });

impl Codec for NodeId {
    fn put(&self, w: &mut Writer) {
        w.put(&self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(NodeId(r.get()?))
    }
}

/// Process-lifetime names (a plan's planner): decoding leaks each
/// distinct name once, however many checkpoints carry it.
impl Codec for &'static str {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let name: String = r.get()?;
        // Every update is one push, so even a poisoned table is valid.
        let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&known) = names.iter().find(|&&k| k == name) {
            return Ok(known);
        }
        let leaked: &'static str = Box::leak(name.into_boxed_str());
        names.push(leaked);
        Ok(leaked)
    }
}

impl Codec for SamplePolicy {
    fn put(&self, w: &mut Writer) {
        match *self {
            SamplePolicy::Periodic { warmup, period } => {
                w.put(&0u8);
                w.put(&warmup);
                w.put(&period);
            }
            SamplePolicy::Random { warmup, prob, seed } => {
                w.put(&1u8);
                w.put(&warmup);
                w.put(&prob);
                w.put(&seed);
            }
            SamplePolicy::Never => w.put(&2u8),
            SamplePolicy::Adaptive { warmup, audit_every, accuracy_floor } => {
                w.put(&3u8);
                w.put(&warmup);
                w.put(&audit_every);
                w.put(&accuracy_floor);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_tag(4)? {
            0 => SamplePolicy::Periodic { warmup: r.get()?, period: r.get()? },
            1 => SamplePolicy::Random { warmup: r.get()?, prob: r.get()?, seed: r.get()? },
            2 => SamplePolicy::Never,
            _ => SamplePolicy::Adaptive {
                warmup: r.get()?,
                audit_every: r.get()?,
                accuracy_floor: r.get()?,
            },
        })
    }
}

/// A data fault's kind tag and its one parameter.
impl Codec for DataFault {
    fn put(&self, w: &mut Writer) {
        let kind: u8 = match self {
            DataFault::StuckAt { .. } => 0,
            DataFault::Drift { .. } => 1,
            DataFault::Spike { .. } => 2,
            DataFault::Noise { .. } => 3,
        };
        w.put(&kind);
        w.put(&self.param());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let kind = r.get_tag(4)?;
        let param = r.get()?;
        Ok(match kind {
            0 => DataFault::StuckAt { level: param },
            1 => DataFault::Drift { rate: param },
            2 => DataFault::Spike { magnitude: param },
            _ => DataFault::Noise { amplitude: param },
        })
    }
}

impl Codec for FaultEvent {
    fn put(&self, w: &mut Writer) {
        match self {
            FaultEvent::NodeDeath(n) => {
                w.put(&0u8);
                w.put(n);
            }
            FaultEvent::LinkDegrade { child, added_prob } => {
                w.put(&1u8);
                w.put(child);
                w.put(added_prob);
            }
            FaultEvent::Data { node, fault, duration } => {
                w.put(&2u8);
                w.put(node);
                w.put(fault);
                w.put(duration);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_tag(3)? {
            0 => FaultEvent::NodeDeath(r.get()?),
            1 => FaultEvent::LinkDegrade { child: r.get()?, added_prob: r.get()? },
            _ => FaultEvent::Data { node: r.get()?, fault: r.get()?, duration: r.get()? },
        })
    }
}

/// The events by epoch, then the noise seed; every event is re-checked
/// by the schedule's `try_with_*` builders.
impl Codec for FaultSchedule {
    fn put(&self, w: &mut Writer) {
        w.put_len(self.epochs().count());
        for epoch in self.epochs() {
            w.put(&epoch);
            w.put_slice(self.events_at(epoch));
        }
        w.put(&self.noise_seed());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let events: BTreeMap<u64, Vec<FaultEvent>> = r.get()?;
        let mut s = FaultSchedule::new();
        for (epoch, events) in events {
            for e in events {
                s = match e {
                    FaultEvent::NodeDeath(n) => s.try_with_death(epoch, n),
                    FaultEvent::LinkDegrade { child, added_prob } => {
                        s.try_with_degradation(epoch, child, added_prob)
                    }
                    FaultEvent::Data { node, fault, duration } => {
                        s.try_with_data_fault(epoch, node, fault, duration)
                    }
                }
                .map_err(invalid)?;
            }
        }
        Ok(s.with_noise_seed(r.get()?))
    }
}

impl Codec for FailureModel {
    fn put(&self, w: &mut Writer) {
        let probs: Vec<f64> = (0..self.len()).map(|i| self.prob(NodeId::from_index(i))).collect();
        w.put(&probs);
        w.put(&self.reroute_penalty());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let probs: Vec<f64> = r.get()?;
        FailureModel::per_edge(probs.len(), probs, r.get()?).map_err(invalid)
    }
}

/// The root, then each node's parent.
impl Codec for Topology {
    fn put(&self, w: &mut Writer) {
        w.put(&self.root());
        w.put(&self.parent_vec());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Topology::from_parents(r.get()?, r.get()?).map_err(invalid)
    }
}

/// The window's shape, then per sample its readings and stored top-k
/// set, then the column counts: the derived sets are restored verbatim
/// and cross-checked by `SampleSet::from_parts`.
impl Codec for SampleSet {
    fn put(&self, w: &mut Writer) {
        w.put(&self.num_nodes());
        w.put(&self.k());
        w.put(&self.capacity());
        w.put_len(self.len());
        for j in 0..self.len() {
            w.put_slice(self.values(j));
            w.put_slice(self.ones(j));
        }
        w.put_slice(self.column_counts());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let (n, k, capacity) = (r.get()?, r.get()?, r.get()?);
        let samples: Vec<(Vec<f64>, Vec<NodeId>)> = r.get()?;
        let (window, ones): (VecDeque<_>, VecDeque<_>) = samples.into_iter().unzip();
        SampleSet::from_parts(n, k, capacity, window, ones, r.get()?).map_err(invalid)
    }
}

impl Codec for EnergyMeter {
    fn put(&self, w: &mut Writer) {
        w.put_slice(self.node_totals());
        w.put(self.phase_totals());
        w.put(&self.total());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(EnergyMeter::from_parts(r.get()?, r.get()?, r.get()?))
    }
}

/// The plan's own bandwidth vector and its proof flag. The vector's
/// length is the image's to check against its topology.
impl Codec for Plan {
    fn put(&self, w: &mut Writer) {
        w.put_slice(self.bandwidths());
        w.put(&self.proof_carrying);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Plan::from_bandwidths(r.get()?, r.get()?))
    }
}

/// A q-digest travels in its own byte-deterministic encoding.
impl Codec for QDigest {
    fn put(&self, w: &mut Writer) {
        w.put(&self.encode());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let bytes: Vec<u8> = r.get()?;
        QDigest::decode(&bytes).map_err(|e| invalid(format!("sketch does not decode: {e}")))
    }
}

/// A generator travels as its raw state, so a resumed stream replays the
/// same draws.
impl Codec for StdRng {
    fn put(&self, w: &mut Writer) {
        w.put(&self.state());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(StdRng::from_state(r.get()?))
    }
}

impl Codec for MetricsRegistry {
    fn put(&self, w: &mut Writer) {
        w.put(&self.snapshot());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(MetricsRegistry::from_snapshot(&r.get()?))
    }
}
