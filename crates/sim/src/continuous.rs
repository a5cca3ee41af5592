//! The continuous-query delta-collection protocol.
//!
//! In continuous mode the network stops re-collecting the answer from
//! scratch every epoch. Each node remembers the last value it shipped
//! ([`ContinuousState::last_shipped`]) and the last k-th threshold the
//! root broadcast; a **delta epoch** ships only readings that moved
//! beyond the tolerance or crossed the threshold, and the root patches
//! its cached view instead of re-merging the world. Steady state sends
//! O(changes) messages, not O(n).
//!
//! **Silence is a claim.** A subtree that sends nothing asserts "nothing
//! changed", and the protocol must make that claim trustworthy under
//! loss:
//!
//! * Every alive root child sends a per-epoch **change beacon** (a
//!   header-only message) even when it has no deltas. A lost beacon
//!   means the root cannot tell silence from loss, so it forces a full
//!   refresh next epoch (`full_refresh` reason `"loss"`).
//! * Deltas travel hop-by-hop under the same ARQ policy as classic
//!   collection. A hop that exhausts its retries keeps the batch in the
//!   child's **custody buffer** and re-forwards it next delta epoch —
//!   a lost delta is delayed, never silently dropped. The machine-checked
//!   invariant: for every alive node, either the root's view matches the
//!   node's last shipped value, or a custody entry for that node exists
//!   somewhere in the tree ([`ContinuousState::custody_invariant_holds`]).
//! * Custody held *at* a node dies with it, so node deaths force a full
//!   refresh (`"repair"`), as does the configured refresh period
//!   (`"period"`) and the first continuous epoch (`"first"`).
//!
//! Full refreshes run the classic ARQ collection of a full-sweep plan
//! (lossless without a failure model) and optionally rebuild one q-digest
//! per root-child subtree ([`prospector_core::QDigest`]) — the
//! planner-facing quantile summary whose upper bound (plus the tolerance)
//! also bounds what a silent subtree could contribute.
//!
//! Past one pass over the nodes for the ship rule, a delta epoch's
//! transport costs what moved: each entry in flight climbs from where it
//! is held toward the root, so only the edges the epoch's deltas and
//! beacons cross are touched (`run_delta_epoch`). The root-side answer is
//! the top k of the post-gate view, taken in one pass with a k-entry heap
//! ([`ContinuousState::answer`]); `recompute_answer` re-sorts from
//! scratch so the differential harness can prove the two agree on every
//! epoch.

use crate::exec::{charge_links, collect_arq, Sweep};
use crate::trace::charge;
use prospector_ckpt::{CheckpointError, Codec, Reader, Writer};
use prospector_core::{QDigest, SketchPrecision};
use prospector_data::Reading;
use prospector_net::{
    link_rng, ArqPolicy, EnergyMeter, EnergyModel, FailureModel, LinkAttempts, NodeId, Phase,
    Topology,
};
use prospector_obs::{TraceEvent, Tracer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One in-flight changed reading: `origin` reported `value` at `epoch`.
/// Later epochs supersede earlier ones wherever two entries for the same
/// origin meet (they travel the same root-ward path, so they do meet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    pub origin: NodeId,
    pub epoch: u64,
    pub value: f64,
}

/// Root + node state of the continuous protocol.
#[derive(Debug, Clone)]
pub struct ContinuousState {
    /// Root's belief: the last *reported* (raw, pre-gate) value applied
    /// per node; `-inf` for dead or never-heard nodes.
    view: Vec<f64>,
    /// Node-side: the last value each node handed into the delta
    /// pipeline (or delivered in a refresh); `-inf` before the first.
    last_shipped: Vec<f64>,
    /// Root's post-gate effective value per node (`-inf` = absent); the
    /// answer is the top k of this vector's finite entries.
    eff: Vec<f64>,
    /// Per holder node: delta batches awaiting a working uplink.
    custody: Vec<Vec<Delta>>,
    /// The k-th threshold as last broadcast (`-inf` before the first).
    threshold: f64,
    /// Epoch of the last full refresh (sweeps count), `None` before any.
    last_refresh: Option<u64>,
    /// Silence can no longer be trusted (lost beacon or exhausted retry
    /// escalation): the next query epoch must fully refresh.
    force_refresh: bool,
    /// Per root-child subtree q-digest from the last refresh, sorted by
    /// child node id. Empty when the policy has no sketch.
    sketches: Vec<(NodeId, QDigest)>,
}

impl ContinuousState {
    pub fn new(n: usize) -> ContinuousState {
        ContinuousState {
            view: vec![f64::NEG_INFINITY; n],
            last_shipped: vec![f64::NEG_INFINITY; n],
            eff: vec![f64::NEG_INFINITY; n],
            custody: vec![Vec::new(); n],
            threshold: f64::NEG_INFINITY,
            last_refresh: None,
            force_refresh: false,
            sketches: Vec::new(),
        }
    }

    pub fn view(&self) -> &[f64] {
        &self.view
    }

    pub fn last_shipped(&self) -> &[f64] {
        &self.last_shipped
    }

    pub fn eff(&self) -> &[f64] {
        &self.eff
    }

    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    pub fn last_refresh(&self) -> Option<u64> {
        self.last_refresh
    }

    pub fn force_refresh(&self) -> bool {
        self.force_refresh
    }

    /// All custody entries, by holder (for checkpointing and tests).
    pub fn custody(&self) -> &[Vec<Delta>] {
        &self.custody
    }

    /// The per-root-child q-digests from the last refresh.
    pub fn sketches(&self) -> &[(NodeId, QDigest)] {
        &self.sketches
    }

    /// The subtree summary for root child `c`, if one was built.
    pub fn subtree_sketch(&self, c: NodeId) -> Option<&QDigest> {
        self.sketches.iter().find(|(n, _)| *n == c).map(|(_, d)| d)
    }

    /// Upper bound on what a *silent* subtree under root child `c` could
    /// currently contribute: the sketch's value upper bound plus the
    /// delta tolerance (a silent node is within tolerance of what it
    /// last shipped, which the refresh-time sketch summarizes).
    pub fn silent_subtree_bound(&self, c: NodeId, tolerance: f64) -> Option<f64> {
        self.subtree_sketch(c).and_then(|d| d.upper_bound()).map(|b| b + tolerance)
    }

    pub(crate) fn set_threshold(&mut self, tau: f64) {
        self.threshold = tau;
    }

    pub(crate) fn set_last_refresh(&mut self, epoch: u64) {
        self.last_refresh = Some(epoch);
    }

    pub(crate) fn set_force_refresh(&mut self, v: bool) {
        self.force_refresh = v;
    }

    /// Sets node `i`'s effective value. `-inf` (or any non-finite)
    /// keeps the node out of the answer.
    pub(crate) fn set_eff(&mut self, i: usize, v: f64) {
        self.eff[i] = v;
    }

    /// The root's answer: the top `k` finite entries of the effective
    /// view, in rank order. One pass keeps the best `k` seen so far in a
    /// heap with the worst on top; nodes arrive in ascending id, so a
    /// later node displaces the worst kept one only with a strictly
    /// higher value, which is `Reading::rank_cmp`'s tie-break.
    pub fn answer(&self, k: usize) -> Vec<Reading> {
        if k == 0 {
            return Vec::new();
        }
        let reading = |i: usize, value: f64| Reading { node: NodeId::from_index(i), value };
        let mut best: BinaryHeap<Reading> = BinaryHeap::with_capacity(k);
        let mut rest = self.eff.iter().enumerate();
        for (i, &value) in rest.by_ref() {
            if value.is_finite() {
                best.push(reading(i, value));
                if best.len() == k {
                    break;
                }
            }
        }
        if let Some(mut floor) = best.peek().map(|r| r.value) {
            // −∞ and negative NaNs order below a finite floor; +∞ and
            // positive NaNs above it, so only those need the check.
            for (i, &value) in rest {
                if value.total_cmp(&floor) == Ordering::Greater && value.is_finite() {
                    *best.peek_mut().expect("k ≥ 1") = reading(i, value);
                    floor = best.peek().expect("k ≥ 1").value;
                }
            }
        }
        best.into_sorted_vec()
    }

    /// The answer recomputed from scratch (full sort of `eff`) — the
    /// "re-merge the world" reference the differential harness compares
    /// [`ContinuousState::answer`] against.
    pub fn recompute_answer(&self, k: usize) -> Vec<Reading> {
        let mut all: Vec<Reading> = self
            .eff
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .map(|(i, &v)| Reading { node: NodeId::from_index(i), value: v })
            .collect();
        all.sort_unstable_by(Reading::rank_cmp);
        all.truncate(k);
        all
    }

    /// Checks a state against the tree and liveness it runs on, before
    /// the epoch `next_epoch`: every per-node vector covers the tree,
    /// every node id the state holds lies in it, and the custody is what
    /// the transport can leave behind. An entry is held by an alive
    /// non-root node on its alive origin's root path (the origin itself
    /// included), was shipped before `next_epoch`, and is the only copy
    /// of its origin at that holder; a deeper copy of an origin is
    /// strictly newer than a shallower one, because the newer copy that
    /// reaches an older one supersedes it.
    pub(crate) fn check(
        &self,
        topology: &Topology,
        alive: &[bool],
        next_epoch: u64,
    ) -> Result<(), String> {
        let n = topology.len();
        let lengths = [
            ("view", self.view.len()),
            ("last_shipped", self.last_shipped.len()),
            ("eff", self.eff.len()),
            ("custody", self.custody.len()),
        ];
        if let Some((what, len)) = lengths.into_iter().find(|&(_, len)| len != n) {
            return Err(format!("continuous {what} covers {len} nodes, topology has {n}"));
        }
        let origins = self.custody.iter().flatten().map(|d| d.origin);
        let children = self.sketches.iter().map(|&(c, _)| c);
        if let Some(bad) = origins.chain(children).find(|c| c.index() >= n) {
            return Err(format!("continuous state names node {}, topology has {n}", bad.0));
        }
        // (origin, holder depth, epoch) of every entry, to compare copies.
        let mut copies: Vec<(NodeId, u32, u64)> = Vec::new();
        for (h, held) in self.custody.iter().enumerate() {
            let holder = NodeId::from_index(h);
            for d in held {
                let o = d.origin;
                if holder == topology.root() {
                    return Err(format!("the root holds custody for node {}", o.0));
                }
                if !alive[h] {
                    return Err(format!("dead node {h} holds custody for node {}", o.0));
                }
                if !alive[o.index()] {
                    return Err(format!("node {h} holds custody for dead node {}", o.0));
                }
                if !topology.is_ancestor(holder, o) {
                    return Err(format!(
                        "node {h} holds custody for node {}, not on its path",
                        o.0
                    ));
                }
                if d.epoch >= next_epoch {
                    return Err(format!(
                        "custody for node {} is from epoch {}, the next epoch is {next_epoch}",
                        o.0, d.epoch
                    ));
                }
                copies.push((o, topology.depth(holder), d.epoch));
            }
        }
        // Deepest first per origin. Copies sit on one root path, so two at
        // one depth sit at one holder.
        copies.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        for pair in copies.windows(2) {
            let [(o, deep, newer), (next, shallow, older)] = [pair[0], pair[1]];
            if next != o {
                continue;
            }
            if deep == shallow {
                return Err(format!("a holder keeps two custody entries for node {}", o.0));
            }
            if newer <= older {
                return Err(format!(
                    "custody for node {} at depth {deep} (epoch {newer}) is not newer than at \
                     depth {shallow} (epoch {older})",
                    o.0
                ));
            }
        }
        Ok(())
    }

    /// The silence-under-loss invariant: for every alive non-root node,
    /// either the root's view matches the node's last shipped value
    /// bit-for-bit, or a custody entry for that node is waiting somewhere
    /// in the tree (a lost delta is delayed, never misread as "no
    /// change"). Trivially true under zero loss.
    pub fn custody_invariant_holds(&self, alive: &[bool], root: NodeId) -> bool {
        (0..self.view.len()).all(|i| {
            if !alive[i] || i == root.index() {
                return true;
            }
            self.view[i].to_bits() == self.last_shipped[i].to_bits()
                || self.custody.iter().any(|held| held.iter().any(|d| d.origin.index() == i))
        })
    }

    /// Drops all protocol state touching `deaths`: their view/eff/custody
    /// entries, custody held *at* them (which dies with the node — the
    /// reason deaths force a refresh), and their subtree sketches.
    pub(crate) fn on_deaths(&mut self, deaths: &[NodeId]) {
        for &d in deaths {
            let i = d.index();
            self.view[i] = f64::NEG_INFINITY;
            self.last_shipped[i] = f64::NEG_INFINITY;
            self.set_eff(i, f64::NEG_INFINITY);
            self.custody[i].clear();
            self.sketches.retain(|(c, _)| *c != d);
        }
        for held in &mut self.custody {
            held.retain(|e| deaths.iter().all(|d| *d != e.origin));
        }
    }
}

prospector_ckpt::walk!(Delta { origin, epoch, value });

/// The protocol's checkpoint walk. Custody is re-sorted by origin, the
/// order the transport pushes stuck entries in; sketches decode through
/// `QDigest::decode`.
impl Codec for ContinuousState {
    fn put(&self, w: &mut Writer) {
        w.put(&self.view);
        w.put(&self.last_shipped);
        w.put(&self.eff);
        w.put(&self.threshold);
        w.put(&self.last_refresh);
        w.put(&self.force_refresh);
        w.put(&self.custody);
        w.put(&self.sketches);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut s = ContinuousState {
            view: r.get()?,
            last_shipped: r.get()?,
            eff: r.get()?,
            threshold: r.get()?,
            last_refresh: r.get()?,
            force_refresh: r.get()?,
            custody: r.get()?,
            sketches: r.get()?,
        };
        for held in &mut s.custody {
            held.sort_by_key(|d| d.origin);
        }
        Ok(s)
    }
}

/// What a delta epoch's transport did.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// Deltas applied to the root's view, sorted by origin node.
    pub applied: Vec<(NodeId, f64)>,
    /// Active edges whose batch (or beacon) was lost, in edge order.
    pub lost_edges: Vec<NodeId>,
    /// Transmissions beyond each active edge's first attempt, summed.
    pub retransmissions: u32,
    /// Fraction of active edges whose message was delivered (1.0 when no
    /// edge was active).
    pub delivered_fraction: f64,
    /// Radio transmissions this epoch: every attempt plus every ack.
    pub messages: u32,
    /// A root child's beacon was lost: silence cannot be trusted, the
    /// caller must force a refresh.
    pub beacon_lost: bool,
}

/// The epoch's active uplinks, in first-use order: each edge's ARQ
/// outcome is drawn once, from its own `link_rng` stream, and shared by
/// every entry that crosses it.
struct Uplinks<'a> {
    /// Per node: 1 + the index of its uplink's hop, 0 while unused.
    slot: Vec<u32>,
    /// (edge, values sent, outcome) per active edge.
    hops: Vec<(NodeId, u32, LinkAttempts)>,
    failures: Option<&'a FailureModel>,
    arq: &'a ArqPolicy,
    seed: u64,
}

impl Uplinks<'_> {
    /// The hop across `u`'s uplink, drawn on first use. Without a failure
    /// model every hop delivers on its first try.
    fn hop(&mut self, u: NodeId) -> &mut (NodeId, u32, LinkAttempts) {
        let slot = &mut self.slot[u.index()];
        if *slot == 0 {
            let link = self.failures.map_or(LinkAttempts::first_try(), |f| {
                self.arq.attempt_delivery(f, u, &mut link_rng(self.seed, u))
            });
            self.hops.push((u, 0, link));
            *slot = self.hops.len() as u32;
        }
        &mut self.hops[*slot as usize - 1]
    }
}

/// Runs one delta epoch: generates fresh deltas against the tolerance
/// and the last broadcast threshold, routes custody + fresh entries up
/// the tree under ARQ (priced by the same link ledger as classic
/// collection), applies what reaches the root to the view, and records
/// per-root-child beacons.
///
/// Every entry climbs from its holder toward the root, one hop per
/// delivered uplink; an uplink that exhausts its retries keeps the entry
/// in that node's custody for the next epoch. The newest copy of an
/// origin climbs first, and an older copy it reaches is superseded
/// (latest wins). The cost is one pass over the nodes for the ship rule
/// and the held entries, a hop per entry per edge it crosses, and one
/// scan of the per-edge hop index to hand the hops over in edge order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_delta_epoch(
    state: &mut ContinuousState,
    topology: &Topology,
    alive: &[bool],
    energy: &EnergyModel,
    values: &[f64],
    tolerance: f64,
    failures: Option<&FailureModel>,
    arq: &ArqPolicy,
    seed: u64,
    epoch: u64,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> DeltaOutcome {
    let n = topology.len();
    let root = topology.root();

    // Held entries board where they are held; fresh deltas board at
    // their origin. Each entry travels with its holder.
    let mut flight: Vec<(Delta, NodeId)> = Vec::new();
    let tau = state.threshold;
    let nodes = state.custody.iter_mut().zip(&mut state.last_shipped).zip(values.iter().zip(alive));
    for (i, ((held, last), (&v, &up))) in nodes.enumerate() {
        if !up || i == root.index() {
            continue;
        }
        let u = NodeId::from_index(i);
        if !held.is_empty() {
            flight.extend(held.drain(..).map(|d| (d, u)));
        }
        let crossed = (v >= tau) != (*last >= tau);
        if (v - *last).abs() > tolerance || crossed {
            flight.push((Delta { origin: u, epoch, value: v }, u));
            *last = v;
        }
    }
    flight.sort_unstable_by(|(a, _), (b, _)| a.origin.cmp(&b.origin).then(b.epoch.cmp(&a.epoch)));

    let mut uplinks = Uplinks { slot: vec![0; n], hops: Vec::new(), failures, arq, seed };
    // Every alive root child sends, if only its beacon.
    let mut beacon_lost = false;
    for &c in topology.children(root).iter().filter(|c| alive[c.index()]) {
        beacon_lost |= !uplinks.hop(c).2.delivered;
    }
    let mut arrived: Vec<Delta> = Vec::new();
    // The origin whose copy climbed last, and the depth it stopped at.
    let mut reached: Option<(NodeId, u32)> = None;
    for (d, holder) in flight {
        if reached.is_some_and(|(o, top)| o == d.origin && topology.depth(holder) >= top) {
            continue; // a newer copy passed this holder
        }
        let mut u = holder;
        let top = loop {
            let hop = uplinks.hop(u);
            hop.1 += 1;
            if !hop.2.delivered {
                state.custody[u.index()].push(d);
                break topology.depth(u);
            }
            let parent = topology.parent(u).expect("non-root node has a parent");
            if parent == root {
                arrived.push(d);
                break 0;
            }
            if !alive[parent.index()] {
                break topology.depth(parent); // a dead node forwards nothing
            }
            u = parent;
        };
        reached = Some((d.origin, top));
    }

    // The hops leave in edge order: a scan of the index array costs less
    // than sorting them.
    let Uplinks { slot, hops, .. } = uplinks;
    let in_edge_order = slot.iter().filter(|&&h| h != 0).map(|&h| hops[h as usize - 1]);
    let tally = charge_links(energy, in_edge_order, meter, tracer);

    // The root applies what arrived, in origin order; its own reading is
    // free.
    let mut applied = Vec::with_capacity(arrived.len());
    for d in arrived {
        state.view[d.origin.index()] = d.value;
        applied.push((d.origin, d.value));
        if tracer.enabled() {
            tracer.record(TraceEvent::DeltaShipped { node: d.origin.0, value: d.value });
        }
    }
    state.view[root.index()] = values[root.index()];
    state.last_shipped[root.index()] = values[root.index()];

    let delivered_fraction = if tally.hops == 0 {
        1.0
    } else {
        (tally.hops - tally.lost_edges.len()) as f64 / tally.hops as f64
    };
    DeltaOutcome {
        applied,
        lost_edges: tally.lost_edges,
        retransmissions: tally.retransmissions,
        delivered_fraction,
        messages: tally.messages,
        beacon_lost,
    }
}

/// What a full-refresh collection did.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// Per node: its value survived every hop to the root this epoch
    /// (the root itself is always true).
    pub delivered: Vec<bool>,
    /// Used edges whose batch was lost, in edge order.
    pub lost_edges: Vec<NodeId>,
    /// Transmissions beyond each edge's first attempt, summed.
    pub retransmissions: u32,
    /// Fraction of alive non-root nodes whose value reached the root.
    pub delivered_fraction: f64,
    /// Radio transmissions this epoch (triggers + attempts + acks).
    pub messages: u32,
}

/// Runs a full from-scratch refresh: the ARQ collection of the
/// full-sweep plan with dead nodes masked that `sweep`, the tree's
/// [`Sweep`] built [`Sweep::with_plan`], keeps (a trigger broadcast wakes
/// the tree, and every alive node forwards its *entire* merged batch —
/// refreshes re-seed `last_shipped` for every delivered node, so they
/// must carry everything). Delivered values overwrite the root's view and
/// each node's last-shipped record. Optionally rebuilds per-root-child
/// q-digests, charging their encoded bytes on the child's uplink.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_refresh_epoch(
    state: &mut ContinuousState,
    topology: &Topology,
    alive: &[bool],
    sweep: &Sweep,
    energy: &EnergyModel,
    values: &[f64],
    sketch: Option<SketchPrecision>,
    failures: Option<&FailureModel>,
    arq: &ArqPolicy,
    seed: u64,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> RefreshOutcome {
    // A lossless model only when the run has none: it is n-sized.
    let lossless;
    let failures = match failures {
        Some(f) => f,
        None => {
            lossless = FailureModel::none(topology.len());
            &lossless
        }
    };
    let (plan, slots) =
        sweep.refresh().expect("refreshes collect along a sweep built with its plan");
    // The refresh reads deliveries, not an answer: k = 0 gathers none.
    let c = collect_arq(meter, plan, topology, energy, values, 0, failures, arq, seed, tracer);
    let mut delivered = vec![false; topology.len()];
    delivered[topology.root().index()] = true;
    for h in &c.out.hops {
        delivered[h.edge.index()] = h.reached;
    }
    let sketch_uplinks = apply_refresh(
        state, topology, alive, slots, values, &delivered, sketch, energy, meter, tracer,
    );
    RefreshOutcome {
        delivered,
        lost_edges: c.links.lost_edges,
        retransmissions: c.links.retransmissions,
        delivered_fraction: c.out.delivered_fraction,
        messages: c.triggers + c.links.messages + sketch_uplinks,
    }
}

/// Applies a refresh's delivered values to the protocol state: view and
/// last-shipped overwrite, custody superseding, and sketch rebuild (with
/// per-root-child byte charges, bucketed by the tree's `slots`, which the
/// held [`Sweep`] keeps). Shared by the ARQ refresh above and the
/// reliable exploration sweep (which delivers everything). Returns the
/// sketch uplinks sent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_refresh(
    state: &mut ContinuousState,
    topology: &Topology,
    alive: &[bool],
    slots: &[u32],
    values: &[f64],
    delivered: &[bool],
    sketch: Option<SketchPrecision>,
    energy: &EnergyModel,
    meter: &mut EnergyMeter,
    tracer: &mut dyn Tracer,
) -> u32 {
    let n = topology.len();
    let mut uplinks = 0;
    for i in 0..n {
        if alive[i] && delivered[i] {
            state.view[i] = values[i];
            state.last_shipped[i] = values[i];
        }
    }
    // Custody entries for delivered origins are superseded by the fresh
    // refresh value (custody epochs always predate this epoch); entries
    // for missed origins stay queued.
    for held in &mut state.custody {
        held.retain(|d| !(alive[d.origin.index()] && delivered[d.origin.index()]));
    }

    if let Some(prec) = sketch {
        // One q-digest per alive root-child subtree over the values that
        // actually arrived; its encoded bytes ride the child's uplink.
        // One pass buckets the arrivals by subtree, in node order.
        let root = topology.root();
        let children = topology.children(root);
        let mut arrived: Vec<Vec<f64>> = vec![Vec::new(); children.len()];
        for (i, &slot) in slots.iter().enumerate() {
            if i != root.index() && alive[i] && delivered[i] {
                arrived[slot as usize].push(values[i]);
            }
        }
        state.sketches.clear();
        for (&c, vals) in children.iter().zip(&arrived) {
            if !alive[c.index()] {
                continue;
            }
            let digest = QDigest::from_values(prec, vals);
            let bytes = digest.encode().len();
            charge(meter, tracer, c, Phase::Collection, energy.per_byte_mj * bytes as f64);
            uplinks += 1;
            state.sketches.push((c, digest));
        }
    }
    uplinks
}

/// For each node but the root, the position among the root's children of
/// the one whose subtree contains it (the root's own entry is 0 and
/// unused). A function of the tree alone, so the continuous [`Sweep`]
/// keeps it beside its plan, four bytes a node.
pub(crate) fn subtree_slots(topology: &Topology) -> Vec<u32> {
    let root = topology.root();
    let mut slot = vec![0u32; topology.len()];
    for (s, &c) in topology.children(root).iter().enumerate() {
        slot[c.index()] = s as u32;
    }
    // Parents precede children in reverse post order.
    for &u in topology.post_order().iter().rev() {
        if let Some(p) = topology.parent(u).filter(|&p| p != root) {
            slot[u.index()] = slot[p.index()];
        }
    }
    slot
}

/// The post-order transport [`run_delta_epoch`] replaced, kept verbatim
/// as the oracle its proptest compares against: every alive node, in
/// post order, merges its custody with what its children delivered
/// (latest wins per origin, kept sorted by origin) and sends the batch
/// up; the link ledger then walks every edge.
#[cfg(test)]
mod transport_oracle {
    use super::*;

    /// Merges `incoming` into `held` with latest-wins per origin, keeping
    /// the result sorted by origin.
    fn merge_deltas(held: &mut Vec<Delta>, incoming: Vec<Delta>) {
        for d in incoming {
            match held.binary_search_by_key(&d.origin, |e| e.origin) {
                Ok(i) => {
                    if d.epoch >= held[i].epoch {
                        held[i] = d;
                    }
                }
                Err(i) => held.insert(i, d),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_delta_epoch(
        state: &mut ContinuousState,
        topology: &Topology,
        alive: &[bool],
        energy: &EnergyModel,
        values: &[f64],
        tolerance: f64,
        failures: Option<&FailureModel>,
        arq: &ArqPolicy,
        seed: u64,
        epoch: u64,
        meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> DeltaOutcome {
        let n = topology.len();
        let root = topology.root();

        // Fresh deltas enter the pipeline at their origin's custody buffer,
        // superseding any older stuck entry for the same origin.
        for i in 0..n {
            let u = NodeId::from_index(i);
            if u == root || !alive[i] {
                continue;
            }
            let v = values[i];
            let last = state.last_shipped[i];
            let crossed = (v >= state.threshold) != (last >= state.threshold);
            if (v - last).abs() > tolerance || crossed {
                merge_deltas(&mut state.custody[i], vec![Delta { origin: u, epoch, value: v }]);
                state.last_shipped[i] = v;
            }
        }

        // Transport: children before parents, so a batch can cross several
        // hops in one epoch when every hop delivers. Failed hops keep the
        // batch in the child's custody for next epoch.
        let mut sent = vec![0u32; n];
        let mut links: Vec<Option<LinkAttempts>> = vec![None; n];
        let mut inbox: Vec<Vec<Delta>> = vec![Vec::new(); n];
        let mut root_inbox: Vec<Delta> = Vec::new();
        let mut beacon_lost = false;
        for &u in topology.post_order() {
            if u == root || !alive[u.index()] {
                continue;
            }
            let mut payload = std::mem::take(&mut state.custody[u.index()]);
            merge_deltas(&mut payload, std::mem::take(&mut inbox[u.index()]));
            let parent = topology.parent(u).expect("non-root node has a parent");
            let is_beacon_edge = parent == root;
            if payload.is_empty() && !is_beacon_edge {
                continue; // a silent interior edge sends nothing — the saving
            }
            // Without a failure model every hop delivers on its first try.
            let link = failures.map_or(LinkAttempts::first_try(), |f| {
                arq.attempt_delivery(f, u, &mut link_rng(seed, u))
            });
            sent[u.index()] = payload.len() as u32;
            links[u.index()] = Some(link);
            if link.delivered {
                if is_beacon_edge {
                    root_inbox.extend(payload);
                } else {
                    merge_deltas(&mut inbox[parent.index()], payload);
                }
            } else {
                state.custody[u.index()] = payload;
                if is_beacon_edge {
                    beacon_lost = true;
                }
            }
        }

        let hops =
            topology.edges().filter_map(|e| links[e.index()].map(|l| (e, sent[e.index()], l)));
        let tally = charge_links(energy, hops, meter, tracer);

        // Root applies what arrived (single path per origin, but dedupe by
        // epoch anyway) in origin order; its own reading is free.
        let mut final_in: Vec<Delta> = Vec::new();
        merge_deltas(&mut final_in, root_inbox);
        let mut applied = Vec::with_capacity(final_in.len());
        for d in final_in {
            state.view[d.origin.index()] = d.value;
            applied.push((d.origin, d.value));
            if tracer.enabled() {
                tracer.record(TraceEvent::DeltaShipped { node: d.origin.0, value: d.value });
            }
        }
        state.view[root.index()] = values[root.index()];
        state.last_shipped[root.index()] = values[root.index()];

        let delivered_fraction = if tally.hops == 0 {
            1.0
        } else {
            (tally.hops - tally.lost_edges.len()) as f64 / tally.hops as f64
        };
        DeltaOutcome {
            applied,
            lost_edges: tally.lost_edges,
            retransmissions: tally.retransmissions,
            delivered_fraction,
            messages: tally.messages,
            beacon_lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prospector_net::topology::{balanced, chain};
    use prospector_obs::{NullTracer, RingTracer};
    use prospector_testutil::random_tree;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn quiet_state(n: usize, values: &[f64]) -> ContinuousState {
        let mut s = ContinuousState::new(n);
        s.view.copy_from_slice(values);
        s.last_shipped.copy_from_slice(values);
        s
    }

    #[test]
    fn quiet_delta_epoch_ships_only_beacons() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let values: Vec<f64> = (0..t.len()).map(|i| 50.0 - i as f64).collect();
        let mut state = quiet_state(t.len(), &values);
        let alive = vec![true; t.len()];
        let mut meter = EnergyMeter::new(t.len());
        let out = run_delta_epoch(
            &mut state,
            &t,
            &alive,
            &em,
            &values,
            0.0,
            None,
            &ArqPolicy::default(),
            1,
            5,
            &mut meter,
            &mut NullTracer,
        );
        assert!(out.applied.is_empty());
        assert_eq!(out.messages, t.children(t.root()).len() as u32, "one beacon per root child");
        assert!(!out.beacon_lost);
        // Beacons are header-only messages.
        let expect = t.children(t.root()).len() as f64 * em.unicast_values(0);
        assert!((meter.total() - expect).abs() < 1e-12);
    }

    #[test]
    fn changed_value_ships_and_patches_view() {
        let t = chain(3); // 0 <- 1 <- 2
        let em = EnergyModel::mica2();
        let base = vec![10.0, 9.0, 8.0];
        let mut state = quiet_state(3, &base);
        let alive = vec![true; 3];
        let mut values = base.clone();
        values[2] = 20.0;
        let mut meter = EnergyMeter::new(3);
        let out = run_delta_epoch(
            &mut state,
            &t,
            &alive,
            &em,
            &values,
            0.5,
            None,
            &ArqPolicy::default(),
            1,
            7,
            &mut meter,
            &mut NullTracer,
        );
        assert_eq!(out.applied, vec![(NodeId(2), 20.0)]);
        assert_eq!(state.view()[2], 20.0);
        assert_eq!(state.last_shipped()[2], 20.0);
        assert!(state.custody_invariant_holds(&alive, t.root()));
    }

    #[test]
    fn lost_delta_stays_in_custody_and_reships() {
        let t = chain(3); // 0 <- 1 <- 2; fail edge 2 only
        let em = EnergyModel::mica2();
        let base = vec![10.0, 9.0, 8.0];
        let mut state = quiet_state(3, &base);
        let alive = vec![true; 3];
        let mut values = base.clone();
        values[2] = 20.0;
        let mut probs = vec![0.0; 3];
        probs[2] = 1.0;
        let fm = FailureModel::per_edge(3, probs, 0.0).unwrap();
        let arq = ArqPolicy { max_retries: 1, backoff: prospector_net::Backoff::none() };
        let mut meter = EnergyMeter::new(3);
        let out = run_delta_epoch(
            &mut state,
            &t,
            &alive,
            &em,
            &values,
            0.5,
            Some(&fm),
            &arq,
            3,
            7,
            &mut meter,
            &mut NullTracer,
        );
        // The delta is stuck at node 2; the view still holds the old
        // value, but custody records the truth — silence is not claimed.
        assert!(out.applied.is_empty());
        assert_eq!(out.lost_edges, vec![NodeId(2)]);
        assert_eq!(state.view()[2], 8.0);
        assert_eq!(state.last_shipped()[2], 20.0);
        assert_eq!(state.custody()[2], vec![Delta { origin: NodeId(2), epoch: 7, value: 20.0 }]);
        assert!(state.custody_invariant_holds(&alive, t.root()));
        assert!(!out.beacon_lost, "the beacon edge (node 1) still delivered");

        // Next epoch the link works: the held delta is re-forwarded
        // without the node re-reporting anything.
        let fm_ok = FailureModel::none(3);
        let mut meter2 = EnergyMeter::new(3);
        let out2 = run_delta_epoch(
            &mut state,
            &t,
            &alive,
            &em,
            &values,
            0.5,
            Some(&fm_ok),
            &arq,
            4,
            8,
            &mut meter2,
            &mut NullTracer,
        );
        assert_eq!(out2.applied, vec![(NodeId(2), 20.0)]);
        assert_eq!(state.view()[2], 20.0);
        assert!(state.custody()[2].is_empty());
    }

    #[test]
    fn lost_root_beacon_is_flagged() {
        let t = chain(2); // 0 <- 1, the only edge is a beacon edge
        let em = EnergyModel::mica2();
        let base = vec![5.0, 4.0];
        let mut state = quiet_state(2, &base);
        let alive = vec![true; 2];
        let fm = FailureModel::uniform(2, 1.0, 0.0);
        let arq = ArqPolicy { max_retries: 0, backoff: prospector_net::Backoff::none() };
        let mut meter = EnergyMeter::new(2);
        let out = run_delta_epoch(
            &mut state,
            &t,
            &alive,
            &em,
            &base,
            0.5,
            Some(&fm),
            &arq,
            9,
            3,
            &mut meter,
            &mut NullTracer,
        );
        assert!(out.beacon_lost, "a silent epoch with a lost beacon is untrustworthy");
    }

    #[test]
    fn refresh_reseeds_everything_and_builds_sketches() {
        let t = balanced(3, 2);
        let em = EnergyModel::mica2();
        let values: Vec<f64> = (0..t.len()).map(|i| 30.0 + i as f64).collect();
        let mut state = ContinuousState::new(t.len());
        let alive = vec![true; t.len()];
        let prec = SketchPrecision { depth: 10, compression: 16, lo: 0.0, hi: 100.0 };
        let mut meter = EnergyMeter::new(t.len());
        let out = run_refresh_epoch(
            &mut state,
            &t,
            &alive,
            &Sweep::with_plan(&t, &alive, &em),
            &em,
            &values,
            Some(prec),
            None,
            &ArqPolicy::default(),
            11,
            &mut meter,
            &mut NullTracer,
        );
        assert!(out.delivered.iter().all(|&d| d));
        assert_eq!(out.delivered_fraction, 1.0);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(state.view()[i], v);
            assert_eq!(state.last_shipped()[i], v);
        }
        assert_eq!(state.sketches().len(), t.children(t.root()).len());
        for &c in t.children(t.root()) {
            let d = state.subtree_sketch(c).unwrap();
            assert_eq!(d.total(), 4, "each subtree holds 4 nodes");
            assert!(state.silent_subtree_bound(c, 0.5).unwrap() >= values[c.index()]);
        }
    }

    #[test]
    fn incremental_answer_matches_recompute() {
        let mut s = ContinuousState::new(6);
        let updates =
            [(1, 5.0), (2, 9.0), (3, 7.0), (1, 1.0), (4, 9.0), (2, f64::NEG_INFINITY), (5, 8.5)];
        for &(i, v) in &updates {
            s.set_eff(i, v);
            for k in 1..=6 {
                assert_eq!(s.answer(k), s.recompute_answer(k), "after ({i}, {v}), k={k}");
            }
        }
    }

    #[test]
    fn deaths_scrub_state_everywhere() {
        let t = chain(4); // 0 <- 1 <- 2 <- 3
        let mut s = quiet_state(4, &[4.0, 3.0, 2.0, 1.0]);
        for i in 0..4 {
            s.set_eff(i, s.view[i]);
        }
        // A custody entry for node 3 held at node 2, plus one at node 3.
        s.custody[2].push(Delta { origin: NodeId(3), epoch: 1, value: 9.0 });
        s.custody[3].push(Delta { origin: NodeId(3), epoch: 2, value: 9.5 });
        s.on_deaths(&[NodeId(3)]);
        assert_eq!(s.view()[3], f64::NEG_INFINITY);
        assert!(s.custody().iter().all(|h| h.is_empty()));
        assert!(!s.answer(4).iter().any(|r| r.node == NodeId(3)));
        let alive = [true, true, true, false];
        assert!(s.custody_invariant_holds(&alive, t.root()));
    }

    /// Small integer readings (ties, tolerance and threshold crossings
    /// are common) and the odd non-finite one.
    fn random_reading(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..40u32) {
            0 => f64::NEG_INFINITY,
            1 => f64::NAN,
            _ => rng.random_range(0..8u32) as f64,
        }
    }

    /// A delta-epoch world mid-run: a tree whose dead nodes are usually
    /// parked by repair (sometimes left in place), per-edge loss from 0
    /// to 1, a retry budget of 0–3, and custody the transport could have
    /// left behind: up to three copies per origin on its root path, the
    /// deeper ones strictly newer, the origin itself a possible holder.
    struct World {
        t: Topology,
        alive: Vec<bool>,
        failures: Option<FailureModel>,
        arq: ArqPolicy,
        tolerance: f64,
        state: ContinuousState,
        first_epoch: u64,
    }

    fn random_world(rng: &mut StdRng) -> World {
        let n = rng.random_range(1..40usize);
        let mut t = random_tree(rng, n);
        let mut alive = vec![true; n];
        let dead: Vec<NodeId> = t.edges().filter(|_| rng.random_bool(0.15)).collect();
        for d in &dead {
            alive[d.index()] = false;
        }
        if rng.random_bool(0.75) {
            t = t.repair(&dead).unwrap();
        }
        let failures = rng.random_bool(0.85).then(|| {
            let probs = (0..n).map(|_| [0.0, 0.2, 0.5, 1.0][rng.random_range(0..4usize)]).collect();
            FailureModel::per_edge(n, probs, 0.0).unwrap()
        });
        let backoff = prospector_net::Backoff { base_mj: 0.1, factor: 2.0, jitter: 0.5 };
        let arq = ArqPolicy { max_retries: rng.random_range(0..4u32), backoff };
        let tolerance = [0.0, 0.5, 1.5][rng.random_range(0..3usize)];
        let first_epoch = rng.random_range(3..20u64);

        let mut state = ContinuousState::new(n);
        for i in 0..n {
            state.view[i] = random_reading(rng);
            state.last_shipped[i] =
                if rng.random_bool(0.8) { state.view[i] } else { random_reading(rng) };
        }
        state.threshold = [f64::NEG_INFINITY, 2.5, 4.0][rng.random_range(0..3usize)];
        for o in t.edges().filter(|o| alive[o.index()]) {
            if !rng.random_bool(0.4) {
                continue;
            }
            let path: Vec<NodeId> = t.edges_to_root(o).collect();
            let mut epoch = first_epoch;
            let mut below = 0; // copies sit at path[below..], newest deepest
            for _ in 0..rng.random_range(1..=3usize) {
                if below == path.len() || epoch == 0 {
                    break;
                }
                let at = rng.random_range(below..path.len());
                if !alive[path[at].index()] {
                    break;
                }
                epoch -= rng.random_range(1..=epoch.min(3));
                let value = random_reading(rng);
                state.custody[path[at].index()].push(Delta { origin: o, epoch, value });
                if below == 0 {
                    state.last_shipped[o.index()] = value; // the newest copy's
                }
                below = at + 1;
            }
        }
        for held in &mut state.custody {
            held.sort_by_key(|d| d.origin);
        }
        World { t, alive, failures, arq, tolerance, state, first_epoch }
    }

    fn delta_bits(held: &[Vec<Delta>]) -> Vec<Vec<(NodeId, u64, u64)>> {
        held.iter()
            .map(|h| h.iter().map(|d| (d.origin, d.epoch, d.value.to_bits())).collect())
            .collect()
    }

    fn f64_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn meter_bits(m: &EnergyMeter) -> (Vec<u64>, Vec<u64>, u64) {
        (f64_bits(m.node_totals()), f64_bits(m.phase_totals()), m.total().to_bits())
    }

    fn outcome_bits(o: &DeltaOutcome) -> impl PartialEq + std::fmt::Debug {
        let applied: Vec<(NodeId, u64)> =
            o.applied.iter().map(|&(u, v)| (u, v.to_bits())).collect();
        (
            applied,
            o.lost_edges.clone(),
            o.retransmissions,
            o.delivered_fraction.to_bits(),
            o.messages,
            o.beacon_lost,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        // The climbing transport and the post-order walk it replaced
        // agree, epoch after epoch, on everything a delta epoch leaves
        // behind: the outcome, custody, view, last-shipped, the meter per
        // node and per phase, and the event stream.
        #[test]
        fn climbing_transport_matches_the_post_order_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = random_world(&mut rng);
            let n = w.t.len();
            prop_assert!(w.state.check(&w.t, &w.alive, w.first_epoch).is_ok(), "seed {}", seed);
            let em = EnergyModel::mica2();
            let (mut got, mut want) = (w.state.clone(), w.state.clone());
            let mut values: Vec<f64> = (0..n).map(|_| random_reading(&mut rng)).collect();
            for epoch in w.first_epoch..w.first_epoch + 4 {
                for v in values.iter_mut() {
                    if rng.random_bool(0.3) {
                        *v = random_reading(&mut rng);
                    }
                }
                if rng.random_bool(0.3) {
                    let tau = [f64::NEG_INFINITY, 1.5, 3.0, 5.0][rng.random_range(0..4usize)];
                    got.set_threshold(tau);
                    want.set_threshold(tau);
                }
                let link_seed = rng.random_range(0..u64::MAX);
                let (mut gm, mut wm) = (EnergyMeter::new(n), EnergyMeter::new(n));
                let (mut gt, mut wt) = (RingTracer::new(1 << 16), RingTracer::new(1 << 16));
                let g = run_delta_epoch(
                    &mut got, &w.t, &w.alive, &em, &values, w.tolerance, w.failures.as_ref(),
                    &w.arq, link_seed, epoch, &mut gm, &mut gt,
                );
                let o = transport_oracle::run_delta_epoch(
                    &mut want, &w.t, &w.alive, &em, &values, w.tolerance, w.failures.as_ref(),
                    &w.arq, link_seed, epoch, &mut wm, &mut wt,
                );
                prop_assert_eq!(outcome_bits(&g), outcome_bits(&o), "seed {} epoch {}", seed, epoch);
                prop_assert_eq!(delta_bits(&got.custody), delta_bits(&want.custody), "seed {}", seed);
                prop_assert_eq!(f64_bits(&got.view), f64_bits(&want.view), "seed {}", seed);
                prop_assert_eq!(
                    f64_bits(&got.last_shipped), f64_bits(&want.last_shipped), "seed {}", seed
                );
                prop_assert_eq!(meter_bits(&gm), meter_bits(&wm), "seed {}", seed);
                let events = |t: &RingTracer| t.events().map(|e| format!("{e:?}")).collect::<Vec<_>>();
                prop_assert_eq!(events(&gt), events(&wt), "seed {} epoch {}", seed, epoch);
            }
        }
    }
}
