//! The versioned checkpoint image of a running experiment.
//!
//! A [`Checkpoint`] captures everything an `ExperimentRunner` needs to
//! continue a run from an epoch boundary: the full experiment
//! configuration (so a resumed process needs no side channel), the
//! repaired topology and liveness mask, the sample window with its
//! derived top-k state, cumulative energy, the installed plan and its
//! provenance, the post-degradation failure model, the escalated ARQ
//! policy, the adaptive re-sampling state (sampling period and query
//! epochs since the last sweep), the dissemination RNG's raw state (the
//! only RNG stream that survives across epochs — collection randomness
//! is re-derived per epoch from `epoch_seed`), and the metrics snapshot.
//!
//! ## Wire format
//!
//! ```text
//! magic    8 bytes   "PRSPCKPT"
//! version  u32 LE    currently 4
//! length   u64 LE    payload byte count
//! checksum u64 LE    FNV-1a 64 of the payload
//! payload  length bytes, fields in the fixed order of `encode`
//! ```
//!
//! The payload is byte-deterministic: floats travel as IEEE-754 bits,
//! maps in sorted order, and no wall-clock or platform-dependent value
//! is ever written, so `encode` is a pure function of the captured
//! state. Corruption anywhere — header or payload, substitution or
//! truncation — surfaces as a typed [`CheckpointError`].

use crate::codec::{fnv1a64, DecodeError, Reader, Writer};
use prospector_core::{ContinuousPolicy, GatePolicy, Plan, SketchPrecision, TrustState};
use prospector_data::{SamplePolicy, SampleSet};
use prospector_net::{
    ArqPolicy, Backoff, DataFault, EnergyMeter, FailureModel, FaultEvent, FaultSchedule, NodeId,
    Topology, NUM_PHASES,
};
use prospector_obs::{Histogram, MetricsSnapshot};
use std::collections::VecDeque;

/// File magic: identifies a Prospector checkpoint.
pub const MAGIC: [u8; 8] = *b"PRSPCKPT";

/// Current format version. Version 2 added data faults (with the
/// schedule's noise seed), the plausibility-gate policy, and per-node
/// trust state. Version 3 added the continuous-query mode: the
/// [`ContinuousPolicy`] in the configuration section and the protocol's
/// resumable state (view, per-node last-shipped values, in-flight
/// custody entries, threshold, refresh cursor and encoded per-subtree
/// q-digests) as a [`ContinuousImage`]. Version 4 added the adaptive
/// sampling policy (policy tag 3) and the re-sampling state: the sampling
/// period and the query epochs since the last sweep.
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

/// The resumable state of an experiment, captured at an epoch boundary.
///
/// Fields are public plain data: the sim crate assembles one in
/// `ExperimentRunner::checkpoint` and consumes one in
/// `ExperimentRunner::resume`; this crate only defines the image and its
/// wire format.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The epoch the resumed run executes next (all epochs `< next_epoch`
    /// are already reflected in the state below).
    pub next_epoch: u64,

    // -- experiment configuration (immutable over a run) --
    pub k: usize,
    pub window: usize,
    pub policy: SamplePolicy,
    pub budget_mj: f64,
    pub replan_every: u64,
    pub replan_threshold: f64,
    /// The *configured* failure model, before any scheduled degradations.
    pub config_failures: Option<FailureModel>,
    pub faults: FaultSchedule,
    pub install_retries: u32,
    /// The *configured* ARQ policy, before any escalations.
    pub config_arq: ArqPolicy,
    pub min_delivered: f64,
    pub max_retry_budget: u32,
    /// The plausibility-gate policy, if gating is enabled.
    pub gate: Option<GatePolicy>,
    /// The continuous-query policy, if the run is in continuous mode.
    pub continuous: Option<ContinuousPolicy>,
    pub seed: u64,

    // -- dynamic state (accumulated across epochs) --
    /// The routing tree as currently repaired.
    pub topology: Topology,
    /// Per-node liveness.
    pub alive: Vec<bool>,
    /// Per-node plausibility-gate trust state (strike counters,
    /// quarantine, parole progress).
    pub trust: Vec<TrustState>,
    /// The sample window with its derived top-k sets.
    pub samples: SampleSet,
    /// Cumulative energy accounting.
    pub meter: EnergyMeter,
    /// The installed plan, if any.
    pub plan: Option<Plan>,
    /// Provenance of the installed plan: planner name and fallback depth.
    pub plan_via: Option<(String, u64)>,
    /// Epoch of the last plan recalculation.
    pub last_replan: Option<u64>,
    /// The sampling period, in query epochs, as the adaptive policy's
    /// audits have set it (other policies leave it at its start value).
    pub sweep_period: u64,
    /// Query epochs run since the last sweep.
    pub since_sweep: u64,
    /// The failure model as currently degraded.
    pub failures: Option<FailureModel>,
    /// The ARQ policy as currently escalated.
    pub arq: ArqPolicy,
    /// Raw state of the dissemination RNG stream.
    pub rng_state: [u64; 4],
    /// Metrics at the boundary, if the run had metrics enabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Continuous-protocol state, present exactly when `continuous` is.
    pub cont_state: Option<ContinuousImage>,
}

/// Wire-level image of the continuous protocol's resumable state (the
/// sim crate's `ContinuousState` without its derived answer index, which
/// is rebuilt from `eff` on resume).
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousImage {
    /// Root's belief: last applied raw value per node (`-inf` unknown).
    pub view: Vec<f64>,
    /// Per node: the last value it handed into the delta pipeline.
    pub last_shipped: Vec<f64>,
    /// Root's post-gate effective value per node (`-inf` absent).
    pub eff: Vec<f64>,
    /// The k-th threshold as last broadcast.
    pub threshold: f64,
    /// Epoch of the last full refresh.
    pub last_refresh: Option<u64>,
    /// The next query epoch must fully refresh.
    pub force_refresh: bool,
    /// Per holder node: in-flight custody entries `(origin, epoch, value)`.
    pub custody: Vec<Vec<(u32, u64, f64)>>,
    /// Per root-child: `(child, encoded q-digest)` from the last refresh.
    pub sketches: Vec<(u32, Vec<u8>)>,
}

fn put_node(w: &mut Writer, n: NodeId) {
    w.put_u32(n.0);
}

fn get_node(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId(r.get_u32()?))
}

fn put_policy(w: &mut Writer, p: &SamplePolicy) {
    match *p {
        SamplePolicy::Periodic { warmup, period } => {
            w.put_u8(0);
            w.put_u64(warmup);
            w.put_u64(period);
        }
        SamplePolicy::Random { warmup, prob, seed } => {
            w.put_u8(1);
            w.put_u64(warmup);
            w.put_f64(prob);
            w.put_u64(seed);
        }
        SamplePolicy::Never => w.put_u8(2),
        SamplePolicy::Adaptive { warmup, audit_every, accuracy_floor } => {
            w.put_u8(3);
            w.put_u64(warmup);
            w.put_u64(audit_every);
            w.put_f64(accuracy_floor);
        }
    }
}

fn get_policy(r: &mut Reader<'_>) -> Result<SamplePolicy, DecodeError> {
    let offset_tag = r.get_u8()?;
    match offset_tag {
        0 => Ok(SamplePolicy::Periodic { warmup: r.get_u64()?, period: r.get_u64()? }),
        1 => Ok(SamplePolicy::Random {
            warmup: r.get_u64()?,
            prob: r.get_f64()?,
            seed: r.get_u64()?,
        }),
        2 => Ok(SamplePolicy::Never),
        3 => Ok(SamplePolicy::Adaptive {
            warmup: r.get_u64()?,
            audit_every: r.get_u64()?,
            accuracy_floor: r.get_f64()?,
        }),
        tag => Err(DecodeError::BadTag { offset: 0, tag }),
    }
}

fn put_arq(w: &mut Writer, a: &ArqPolicy) {
    w.put_u32(a.max_retries);
    w.put_f64(a.backoff.base_mj);
    w.put_f64(a.backoff.factor);
    w.put_f64(a.backoff.jitter);
}

fn get_arq(r: &mut Reader<'_>) -> Result<ArqPolicy, DecodeError> {
    Ok(ArqPolicy {
        max_retries: r.get_u32()?,
        backoff: Backoff { base_mj: r.get_f64()?, factor: r.get_f64()?, jitter: r.get_f64()? },
    })
}

fn put_failures(w: &mut Writer, f: &FailureModel) {
    let probs: Vec<f64> = (0..f.len()).map(|i| f.prob(NodeId::from_index(i))).collect();
    w.put_seq(&probs, |w, p| w.put_f64(*p));
    w.put_f64(f.reroute_penalty());
}

fn get_failures(r: &mut Reader<'_>) -> Result<FailureModel, CheckpointError> {
    let probs = r.get_seq(8, |r| r.get_f64())?;
    let penalty = r.get_f64()?;
    FailureModel::per_edge(probs.len(), probs, penalty)
        .map_err(|e| CheckpointError::Invalid(e.to_string()))
}

fn put_faults(w: &mut Writer, s: &FaultSchedule) {
    let epochs: Vec<u64> = s.epochs().collect();
    w.put_seq(&epochs, |w, &epoch| {
        w.put_u64(epoch);
        let events = s.events_at(epoch);
        w.put_usize(events.len());
        for e in events {
            match e {
                FaultEvent::NodeDeath(n) => {
                    w.put_u8(0);
                    put_node(w, *n);
                }
                FaultEvent::LinkDegrade { child, added_prob } => {
                    w.put_u8(1);
                    put_node(w, *child);
                    w.put_f64(*added_prob);
                }
                FaultEvent::Data { node, fault, duration } => {
                    w.put_u8(2);
                    put_node(w, *node);
                    let kind = match fault {
                        DataFault::StuckAt { .. } => 0,
                        DataFault::Drift { .. } => 1,
                        DataFault::Spike { .. } => 2,
                        DataFault::Noise { .. } => 3,
                    };
                    w.put_u8(kind);
                    w.put_f64(fault.param());
                    w.put_u64(*duration);
                }
            }
        }
    });
    w.put_u64(s.noise_seed());
}

impl Checkpoint {
    /// Serializes to the wire format (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.next_epoch);

        w.put_usize(self.k);
        w.put_usize(self.window);
        put_policy(&mut w, &self.policy);
        w.put_f64(self.budget_mj);
        w.put_u64(self.replan_every);
        w.put_f64(self.replan_threshold);
        w.put_opt(&self.config_failures, put_failures);
        put_faults(&mut w, &self.faults);
        w.put_u32(self.install_retries);
        put_arq(&mut w, &self.config_arq);
        w.put_f64(self.min_delivered);
        w.put_u32(self.max_retry_budget);
        w.put_opt(&self.gate, put_gate);
        w.put_opt(&self.continuous, put_continuous_policy);
        w.put_u64(self.seed);

        put_node(&mut w, self.topology.root());
        let parents = self.topology.parent_vec();
        w.put_seq(&parents, |w, p| w.put_opt(p, |w, n| put_node(w, *n)));
        w.put_seq(&self.alive, |w, a| w.put_bool(*a));
        w.put_seq(&self.trust, put_trust);

        w.put_usize(self.samples.num_nodes());
        w.put_usize(self.samples.k());
        w.put_usize(self.samples.capacity());
        w.put_usize(self.samples.len());
        for j in 0..self.samples.len() {
            w.put_seq(self.samples.values(j), |w, v| w.put_f64(*v));
            w.put_seq(self.samples.ones(j), |w, n| put_node(w, *n));
        }
        w.put_seq(self.samples.column_counts(), |w, c| w.put_u32(*c));

        w.put_seq(self.meter.node_totals(), |w, v| w.put_f64(*v));
        for &p in self.meter.phase_totals() {
            w.put_f64(p);
        }
        w.put_f64(self.meter.total());

        w.put_opt(&self.plan, |w, p| {
            let bw: Vec<u32> =
                (0..parents.len()).map(|i| p.bandwidth(NodeId::from_index(i))).collect();
            w.put_seq(&bw, |w, b| w.put_u32(*b));
            w.put_bool(p.proof_carrying);
        });
        w.put_opt(&self.plan_via, |w, (name, depth)| {
            w.put_str(name);
            w.put_u64(*depth);
        });
        w.put_opt(&self.last_replan, |w, e| w.put_u64(*e));
        w.put_u64(self.sweep_period);
        w.put_u64(self.since_sweep);
        w.put_opt(&self.failures, put_failures);
        put_arq(&mut w, &self.arq);
        for s in self.rng_state {
            w.put_u64(s);
        }
        w.put_opt(&self.metrics, put_metrics);
        w.put_opt(&self.cont_state, put_cont_state);
        w.into_bytes()
    }

    /// Parses the wire format, verifying magic, version, declared length
    /// and checksum before touching the payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
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
        Self::decode_payload(payload)
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(payload);
        let next_epoch = r.get_u64()?;

        let k = r.get_usize()?;
        let window = r.get_usize()?;
        let policy = get_policy(&mut r)?;
        let budget_mj = r.get_f64()?;
        let replan_every = r.get_u64()?;
        let replan_threshold = r.get_f64()?;
        let config_failures = get_opt_failures(&mut r)?;
        let faults = read_faults(&mut r)?;
        let install_retries = r.get_u32()?;
        let config_arq = get_arq(&mut r)?;
        let min_delivered = r.get_f64()?;
        let max_retry_budget = r.get_u32()?;
        let gate = r.get_opt(get_gate)?;
        if let Some(g) = &gate {
            g.validate().map_err(|e| CheckpointError::Invalid(e.to_string()))?;
        }
        let continuous = r.get_opt(get_continuous_policy)?;
        if let Some(c) = &continuous {
            c.validate().map_err(|e| CheckpointError::Invalid(e.to_string()))?;
        }
        let seed = r.get_u64()?;

        let root = get_node(&mut r)?;
        let parents = r.get_seq(1, |r| r.get_opt(get_node))?;
        let topology = Topology::from_parents(root, parents)
            .map_err(|e| CheckpointError::Invalid(e.to_string()))?;
        let alive = r.get_seq(1, |r| r.get_bool())?;
        if alive.len() != topology.len() {
            return Err(CheckpointError::Invalid(format!(
                "alive mask covers {} nodes, topology has {}",
                alive.len(),
                topology.len()
            )));
        }
        let trust = r.get_seq(9, get_trust)?;
        if trust.len() != topology.len() {
            return Err(CheckpointError::Invalid(format!(
                "trust state covers {} nodes, topology has {}",
                trust.len(),
                topology.len()
            )));
        }

        let sn = r.get_usize()?;
        let sk = r.get_usize()?;
        let scap = r.get_usize()?;
        let slen = r.get_usize()?;
        if slen > payload.len() {
            return Err(CheckpointError::Decode(DecodeError::BadLength {
                offset: 0,
                len: slen as u64,
            }));
        }
        let mut swindow = VecDeque::with_capacity(slen);
        let mut sones = VecDeque::with_capacity(slen);
        for _ in 0..slen {
            swindow.push_back(r.get_seq(8, |r| r.get_f64())?);
            sones.push_back(r.get_seq(4, get_node)?);
        }
        let counts = r.get_seq(4, |r| r.get_u32())?;
        let samples = SampleSet::from_parts(sn, sk, scap, swindow, sones, counts)
            .map_err(|e| CheckpointError::Invalid(e.to_string()))?;

        let per_node = r.get_seq(8, |r| r.get_f64())?;
        if per_node.len() != topology.len() {
            return Err(CheckpointError::Invalid(format!(
                "meter covers {} nodes, topology has {}",
                per_node.len(),
                topology.len()
            )));
        }
        let mut per_phase = [0.0; NUM_PHASES];
        for p in &mut per_phase {
            *p = r.get_f64()?;
        }
        let total = r.get_f64()?;
        let meter = EnergyMeter::from_parts(per_node, per_phase, total);

        // A bandwidth vector of the wrong length would index out of
        // bounds deep inside execution, so its length is checked against
        // the topology here. The full `Plan::validate` invariants are
        // deliberately NOT enforced: a live plan can transiently violate
        // them (undelivered subplan installs splice old bandwidths in),
        // and a checkpoint must capture exactly what was running.
        let plan_parts = r.get_opt(|r| {
            let bw = r.get_seq(4, |r| r.get_u32())?;
            let proof = r.get_bool()?;
            Ok((bw, proof))
        })?;
        let plan = match plan_parts {
            None => None,
            Some((bw, proof)) => {
                if bw.len() != topology.len() {
                    return Err(CheckpointError::Invalid(format!(
                        "plan covers {} edges, topology has {} nodes",
                        bw.len(),
                        topology.len()
                    )));
                }
                Some(Plan::from_bandwidths(bw, proof))
            }
        };
        let plan_via = r.get_opt(|r| {
            let name = r.get_str()?;
            let depth = r.get_u64()?;
            Ok((name, depth))
        })?;
        let last_replan = r.get_opt(|r| r.get_u64())?;
        let sweep_period = r.get_u64()?;
        let since_sweep = r.get_u64()?;
        let failures = get_opt_failures(&mut r)?;
        let arq = get_arq(&mut r)?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.get_u64()?;
        }
        let metrics = get_opt_metrics(&mut r)?;
        let cont_state = get_opt_cont_state(&mut r)?;
        if let Some(cs) = &cont_state {
            for (label, len) in [
                ("view", cs.view.len()),
                ("last_shipped", cs.last_shipped.len()),
                ("eff", cs.eff.len()),
                ("custody", cs.custody.len()),
            ] {
                if len != topology.len() {
                    return Err(CheckpointError::Invalid(format!(
                        "continuous {label} covers {len} nodes, topology has {}",
                        topology.len()
                    )));
                }
            }
        }
        r.finish()?;

        Ok(Checkpoint {
            next_epoch,
            k,
            window,
            policy,
            budget_mj,
            replan_every,
            replan_threshold,
            config_failures,
            faults,
            install_retries,
            config_arq,
            min_delivered,
            max_retry_budget,
            gate,
            continuous,
            seed,
            topology,
            alive,
            trust,
            samples,
            meter,
            plan,
            plan_via,
            last_replan,
            sweep_period,
            since_sweep,
            failures,
            arq,
            rng_state,
            metrics,
            cont_state,
        })
    }
}

fn put_continuous_policy(w: &mut Writer, c: &ContinuousPolicy) {
    w.put_f64(c.tolerance);
    w.put_u64(c.refresh_period);
    w.put_opt(&c.sketch, |w, s| {
        w.put_u32(s.depth);
        w.put_u64(s.compression);
        w.put_f64(s.lo);
        w.put_f64(s.hi);
    });
}

fn get_continuous_policy(r: &mut Reader<'_>) -> Result<ContinuousPolicy, DecodeError> {
    Ok(ContinuousPolicy {
        tolerance: r.get_f64()?,
        refresh_period: r.get_u64()?,
        sketch: r.get_opt(|r| {
            Ok(SketchPrecision {
                depth: r.get_u32()?,
                compression: r.get_u64()?,
                lo: r.get_f64()?,
                hi: r.get_f64()?,
            })
        })?,
    })
}

fn put_cont_state(w: &mut Writer, s: &ContinuousImage) {
    w.put_seq(&s.view, |w, v| w.put_f64(*v));
    w.put_seq(&s.last_shipped, |w, v| w.put_f64(*v));
    w.put_seq(&s.eff, |w, v| w.put_f64(*v));
    w.put_f64(s.threshold);
    w.put_opt(&s.last_refresh, |w, e| w.put_u64(*e));
    w.put_bool(s.force_refresh);
    w.put_usize(s.custody.len());
    for held in &s.custody {
        w.put_seq(held, |w, (origin, epoch, value)| {
            w.put_u32(*origin);
            w.put_u64(*epoch);
            w.put_f64(*value);
        });
    }
    w.put_usize(s.sketches.len());
    for (child, bytes) in &s.sketches {
        w.put_u32(*child);
        w.put_seq(bytes, |w, b| w.put_u8(*b));
    }
}

fn get_opt_cont_state(r: &mut Reader<'_>) -> Result<Option<ContinuousImage>, CheckpointError> {
    match r.get_u8().map_err(CheckpointError::Decode)? {
        0 => Ok(None),
        1 => {
            let view = r.get_seq(8, |r| r.get_f64())?;
            let last_shipped = r.get_seq(8, |r| r.get_f64())?;
            let eff = r.get_seq(8, |r| r.get_f64())?;
            let threshold = r.get_f64()?;
            let last_refresh = r.get_opt(|r| r.get_u64())?;
            let force_refresh = r.get_bool()?;
            let holders = bounded_len(r)?;
            let mut custody = Vec::with_capacity(holders);
            for _ in 0..holders {
                custody.push(r.get_seq(20, |r| Ok((r.get_u32()?, r.get_u64()?, r.get_f64()?)))?);
            }
            let num_sketches = bounded_len(r)?;
            let mut sketches = Vec::with_capacity(num_sketches);
            for _ in 0..num_sketches {
                let child = r.get_u32()?;
                let bytes = r.get_seq(1, |r| r.get_u8())?;
                sketches.push((child, bytes));
            }
            Ok(Some(ContinuousImage {
                view,
                last_shipped,
                eff,
                threshold,
                last_refresh,
                force_refresh,
                custody,
                sketches,
            }))
        }
        tag => Err(CheckpointError::Decode(DecodeError::BadTag { offset: 0, tag })),
    }
}

fn get_opt_failures(r: &mut Reader<'_>) -> Result<Option<FailureModel>, CheckpointError> {
    match r.get_u8().map_err(CheckpointError::Decode)? {
        0 => Ok(None),
        1 => Ok(Some(get_failures(r)?)),
        tag => Err(CheckpointError::Decode(DecodeError::BadTag { offset: 0, tag })),
    }
}

fn read_faults(r: &mut Reader<'_>) -> Result<FaultSchedule, CheckpointError> {
    let num_epochs = r.get_usize()?;
    if num_epochs > r.remaining() {
        return Err(CheckpointError::Decode(DecodeError::BadLength {
            offset: 0,
            len: num_epochs as u64,
        }));
    }
    let mut sched = FaultSchedule::new();
    for _ in 0..num_epochs {
        let epoch = r.get_u64()?;
        let num_events = r.get_usize()?;
        if num_events > r.remaining() {
            return Err(CheckpointError::Decode(DecodeError::BadLength {
                offset: 0,
                len: num_events as u64,
            }));
        }
        for _ in 0..num_events {
            match r.get_u8()? {
                0 => {
                    let node = get_node(r)?;
                    sched = sched
                        .try_with_death(epoch, node)
                        .map_err(|e| CheckpointError::Invalid(e.to_string()))?;
                }
                1 => {
                    let child = get_node(r)?;
                    let prob = r.get_f64()?;
                    sched = sched
                        .try_with_degradation(epoch, child, prob)
                        .map_err(|e| CheckpointError::Invalid(e.to_string()))?;
                }
                2 => {
                    let node = get_node(r)?;
                    let kind = r.get_u8()?;
                    let param = r.get_f64()?;
                    let duration = r.get_u64()?;
                    let fault = match kind {
                        0 => DataFault::StuckAt { level: param },
                        1 => DataFault::Drift { rate: param },
                        2 => DataFault::Spike { magnitude: param },
                        3 => DataFault::Noise { amplitude: param },
                        tag => {
                            return Err(CheckpointError::Decode(DecodeError::BadTag {
                                offset: 0,
                                tag,
                            }))
                        }
                    };
                    sched = sched
                        .try_with_data_fault(epoch, node, fault, duration)
                        .map_err(|e| CheckpointError::Invalid(e.to_string()))?;
                }
                tag => return Err(CheckpointError::Decode(DecodeError::BadTag { offset: 0, tag })),
            }
        }
    }
    Ok(sched.with_noise_seed(r.get_u64()?))
}

fn put_gate(w: &mut Writer, g: &GatePolicy) {
    w.put_f64(g.z);
    w.put_f64(g.min_sigma);
    w.put_usize(g.min_window);
    w.put_u32(g.quarantine_after);
    w.put_u32(g.parole_after);
}

fn get_gate(r: &mut Reader<'_>) -> Result<GatePolicy, DecodeError> {
    Ok(GatePolicy {
        z: r.get_f64()?,
        min_sigma: r.get_f64()?,
        min_window: r.get_usize()?,
        quarantine_after: r.get_u32()?,
        parole_after: r.get_u32()?,
    })
}

fn put_trust(w: &mut Writer, t: &TrustState) {
    w.put_u32(t.strikes);
    w.put_opt(&t.quarantined_since, |w, e| w.put_u64(*e));
    w.put_u32(t.clean_epochs);
}

fn get_trust(r: &mut Reader<'_>) -> Result<TrustState, DecodeError> {
    Ok(TrustState {
        strikes: r.get_u32()?,
        quarantined_since: r.get_opt(|r| r.get_u64())?,
        clean_epochs: r.get_u32()?,
    })
}

fn put_metrics(w: &mut Writer, m: &MetricsSnapshot) {
    // BTreeMap iteration is sorted, so the byte stream is deterministic.
    let counters: Vec<(&String, &u64)> = m.counters.iter().collect();
    w.put_usize(counters.len());
    for (k, v) in counters {
        w.put_str(k);
        w.put_u64(*v);
    }
    let gauges: Vec<(&String, &f64)> = m.gauges.iter().collect();
    w.put_usize(gauges.len());
    for (k, v) in gauges {
        w.put_str(k);
        w.put_f64(*v);
    }
    let histograms: Vec<(&String, &Histogram)> = m.histograms.iter().collect();
    w.put_usize(histograms.len());
    for (k, h) in histograms {
        w.put_str(k);
        w.put_u64(h.count);
        w.put_f64(h.sum);
        w.put_f64(h.min);
        w.put_f64(h.max);
    }
}

fn get_opt_metrics(r: &mut Reader<'_>) -> Result<Option<MetricsSnapshot>, CheckpointError> {
    match r.get_u8().map_err(CheckpointError::Decode)? {
        0 => Ok(None),
        1 => {
            let mut m = MetricsSnapshot::default();
            let nc = bounded_len(r)?;
            for _ in 0..nc {
                let k = r.get_str()?;
                let v = r.get_u64()?;
                m.counters.insert(k, v);
            }
            let ng = bounded_len(r)?;
            for _ in 0..ng {
                let k = r.get_str()?;
                let v = r.get_f64()?;
                m.gauges.insert(k, v);
            }
            let nh = bounded_len(r)?;
            for _ in 0..nh {
                let k = r.get_str()?;
                let h = Histogram {
                    count: r.get_u64()?,
                    sum: r.get_f64()?,
                    min: r.get_f64()?,
                    max: r.get_f64()?,
                };
                m.histograms.insert(k, h);
            }
            Ok(Some(m))
        }
        tag => Err(CheckpointError::Decode(DecodeError::BadTag { offset: 0, tag })),
    }
}

fn bounded_len(r: &mut Reader<'_>) -> Result<usize, CheckpointError> {
    let len = r.get_usize()?;
    if len > r.remaining() {
        return Err(CheckpointError::Decode(DecodeError::BadLength { offset: 0, len: len as u64 }));
    }
    Ok(len)
}
