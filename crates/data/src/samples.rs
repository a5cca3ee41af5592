//! The sample window and the Boolean top-k matrix of Section 3.
//!
//! Each sample is a full-network snapshot of readings. A sample translates
//! into a Boolean vector whose i-th component is 1 iff node i's value is
//! among the top k of that sample; the vectors from a window of samples
//! form the matrix the Prospector planners optimize over. Only the LP+LF
//! and proof formulations need individual entries (and raw values); the
//! greedy and LP−LF planners only need the column sums, which the window
//! maintains incrementally.

use prospector_net::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A (node, value) pair with the total order used everywhere for top-k
/// selection: higher values first, ties broken by lower node id. The
/// deterministic tie-break keeps plans and accuracy metrics reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub node: NodeId,
    pub value: f64,
}

impl Reading {
    /// Comparison placing the *better* reading first (descending value,
    /// ascending node id).
    pub fn rank_cmp(&self, other: &Reading) -> Ordering {
        other.value.total_cmp(&self.value).then_with(|| self.node.cmp(&other.node))
    }
}

impl Eq for Reading {}

impl PartialOrd for Reading {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Reading {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank_cmp(other)
    }
}

/// Nodes holding the top `k` values of `values` (deterministic
/// tie-breaking), in rank order. Empty input or `k == 0` yields an empty
/// vector; `k > n` clamps to all nodes.
///
/// One pass keeps the best `k` readings seen so far in a heap with the
/// worst on top. Nodes arrive in ascending id, so a reading displaces
/// the worst kept one only with a strictly higher value under the total
/// order: on a tie, the lower id already kept ranks first.
pub fn top_k_nodes(values: &[f64], k: usize) -> Vec<NodeId> {
    let k = k.min(values.len());
    if k == 0 {
        return Vec::new();
    }
    let reading = |i: usize, value: f64| Reading { node: NodeId::from_index(i), value };
    let mut best: BinaryHeap<Reading> =
        values[..k].iter().enumerate().map(|(i, &value)| reading(i, value)).collect();
    let mut floor = best.peek().expect("k ≥ 1").value;
    for (i, &value) in values.iter().enumerate().skip(k) {
        if value.total_cmp(&floor) == Ordering::Greater {
            *best.peek_mut().expect("k ≥ 1") = reading(i, value);
            floor = best.peek().expect("k ≥ 1").value;
        }
    }
    best.into_sorted_vec().into_iter().map(|r| r.node).collect()
}

/// Node `node`'s word and bit in a packed top-k row.
fn bit(node: NodeId) -> (usize, u64) {
    (node.index() >> 6, 1u64 << (node.index() & 63))
}

/// Packs a top-k node set into `words` `u64` words (bit `i` of the row =
/// node `i`'s membership).
fn pack_row(ones: &[NodeId], words: usize) -> Vec<u64> {
    let mut row = vec![0u64; words];
    for &node in ones {
        let (w, b) = bit(node);
        row[w] |= b;
    }
    row
}

/// True when `ones` is a top-k list a window can hold for `row`:
/// `top_k_nodes(row, k)` as [`SampleSet::push`] leaves it, or that list
/// with its `NEG_INFINITY` entries dropped as [`SampleSet::mask_nodes`]
/// leaves it.
fn is_window_top_k(row: &[f64], k: usize, ones: &[NodeId]) -> bool {
    let top = top_k_nodes(row, k);
    ones == top || ones.iter().eq(top.iter().filter(|n| row[n.index()] != f64::NEG_INFINITY))
}

/// Captured [`SampleSet`] parts that do not describe a valid window (see
/// [`SampleSet::from_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplePartsError {
    /// `k`/`n`/`capacity` violate the constructor invariants.
    BadShape { n: usize, k: usize, capacity: usize },
    /// The window, ones and column-count collections disagree in length.
    LengthMismatch { window: usize, ones: usize, counts: usize },
    /// A sample row or its top-k set has an impossible size or node id.
    BadSample { row: usize, ones: usize },
    /// The stored column counts do not match the stored top-k sets.
    InconsistentCounts,
    /// Sample `sample`'s stored top-k list is not its row's top k (nor
    /// that list with its masked entries dropped).
    WrongTopK { sample: usize },
}

impl std::fmt::Display for SamplePartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplePartsError::BadShape { n, k, capacity } => {
                write!(f, "invalid window shape: n={n}, k={k}, capacity={capacity}")
            }
            SamplePartsError::LengthMismatch { window, ones, counts } => write!(
                f,
                "window parts disagree in length: {window} samples, {ones} top-k sets, \
                 {counts} column counts"
            ),
            SamplePartsError::BadSample { row, ones } => {
                write!(f, "sample with {row} readings / {ones} top-k entries is malformed")
            }
            SamplePartsError::InconsistentCounts => {
                write!(f, "column counts do not match the stored top-k sets")
            }
            SamplePartsError::WrongTopK { sample } => {
                write!(f, "sample {sample}'s stored top-k list is not its readings' top k")
            }
        }
    }
}

impl std::error::Error for SamplePartsError {}

/// One node's gate inputs: its plausibility band `[lo, hi]` and the
/// window prediction a rejected reading is replaced with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub lo: f64,
    pub hi: f64,
    pub predicted: f64,
}

/// Every node's [`Band`] over one window, from
/// [`SampleSet::band_table`]. A node has a band exactly when
/// [`SampleSet::prediction_band`] returns one.
#[derive(Debug, Clone)]
pub struct BandTable {
    need: usize,
    count: Vec<u32>,
    mean: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BandTable {
    /// `node`'s band, `None` when its window holds fewer than
    /// `max(min_window, 2)` finite readings.
    pub fn get(&self, node: NodeId) -> Option<Band> {
        let i = node.index();
        (self.count[i] as usize >= self.need).then(|| Band {
            lo: self.lo[i],
            hi: self.hi[i],
            predicted: self.mean[i],
        })
    }
}

/// The band `mean ± z·max(σ, min_sigma)`, with σ the sample standard
/// deviation of `count >= 2` readings whose squared deviations from
/// `mean` sum to `sq`.
fn band_edges(mean: f64, sq: f64, count: usize, z: f64, min_sigma: f64) -> (f64, f64) {
    let sigma = (sq / (count - 1) as f64).sqrt().max(min_sigma);
    (mean - z * sigma, mean + z * sigma)
}

/// A sliding window of full-network samples plus the derived top-k sets.
///
/// ```
/// use prospector_data::SampleSet;
/// use prospector_net::NodeId;
///
/// let mut s = SampleSet::new(4, 2, 8);
/// s.push(vec![1.0, 9.0, 3.0, 7.0]); // top-2: n1, n3
/// s.push(vec![8.0, 9.0, 0.0, 1.0]); // top-2: n1, n0
/// assert_eq!(s.column_counts(), &[1, 2, 0, 1]);
/// assert_eq!(s.ones(0), &[NodeId(1), NodeId(3)]);
/// ```
#[derive(Debug, Clone)]
pub struct SampleSet {
    n: usize,
    k: usize,
    capacity: usize,
    /// Raw readings per sample, oldest first.
    window: VecDeque<Vec<f64>>,
    /// `ones(j)`: the top-k node set per sample, in rank order.
    ones: VecDeque<Vec<NodeId>>,
    /// Packed mirror of `ones`: one `⌈n/64⌉`-word row per sample, bit `i`
    /// set iff node `i` is in the sample's top k. Derived state — always
    /// rebuilt from `ones`, never restored independently — giving the
    /// evaluators O(1) membership tests and word-wide popcount
    /// intersections over cache-dense rows.
    bits: VecDeque<Vec<u64>>,
    /// Number of samples in which each node appears in the top k.
    column_counts: Vec<u32>,
    /// Bumped by every change to the window's readings (push, mask).
    generation: u64,
}

impl SampleSet {
    /// A window over networks of `n` nodes, answering top-`k` queries,
    /// retaining at most `capacity` samples (older ones expire).
    pub fn new(n: usize, k: usize, capacity: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(k <= n, "k cannot exceed the number of nodes");
        assert!(capacity >= 1, "capacity must be positive");
        SampleSet {
            n,
            k,
            capacity,
            window: VecDeque::new(),
            ones: VecDeque::new(),
            bits: VecDeque::new(),
            column_counts: vec![0; n],
            generation: 0,
        }
    }

    /// Rebuilds a window from previously captured parts, for checkpoint
    /// restore. The derived state (`ones`, `column_counts`) is restored
    /// verbatim rather than recomputed: after [`SampleSet::mask_nodes`]
    /// the stored top-k sets are retain-filtered in a way a replay of
    /// plain pushes would not reproduce, so recomputation could diverge
    /// from the live window. The parts are cross-checked instead: each
    /// stored list must be its row's `top_k_nodes` list, or that list
    /// with its `NEG_INFINITY` entries dropped (the two forms a live
    /// window holds, and what [`SampleSet::mask_nodes`] relies on), and
    /// the column counts must add up.
    pub fn from_parts(
        n: usize,
        k: usize,
        capacity: usize,
        window: VecDeque<Vec<f64>>,
        ones: VecDeque<Vec<NodeId>>,
        column_counts: Vec<u32>,
    ) -> Result<Self, SamplePartsError> {
        if k < 1 || k > n || capacity < 1 {
            return Err(SamplePartsError::BadShape { n, k, capacity });
        }
        if window.len() > capacity || window.len() != ones.len() || column_counts.len() != n {
            return Err(SamplePartsError::LengthMismatch {
                window: window.len(),
                ones: ones.len(),
                counts: column_counts.len(),
            });
        }
        let mut recount = vec![0u32; n];
        for (sample, (row, one)) in window.iter().zip(&ones).enumerate() {
            if row.len() != n || one.len() > k {
                return Err(SamplePartsError::BadSample { row: row.len(), ones: one.len() });
            }
            for node in one {
                if node.index() >= n {
                    return Err(SamplePartsError::BadSample { row: row.len(), ones: one.len() });
                }
                recount[node.index()] += 1;
            }
            if !is_window_top_k(row, k, one) {
                return Err(SamplePartsError::WrongTopK { sample });
            }
        }
        if recount != column_counts {
            return Err(SamplePartsError::InconsistentCounts);
        }
        // The packed rows are pure derived state, so checkpoints never
        // carry them: rebuild from the restored top-k sets.
        let words = n.div_ceil(64);
        let bits = ones.iter().map(|one| pack_row(one, words)).collect();
        Ok(SampleSet { n, k, capacity, window, ones, bits, column_counts, generation: 0 })
    }

    /// Window capacity (maximum retained samples).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a sample, evicting the oldest one when at capacity.
    pub fn push(&mut self, values: Vec<f64>) {
        assert_eq!(values.len(), self.n, "sample size mismatch");
        if self.window.len() == self.capacity {
            self.window.pop_front();
            self.bits.pop_front();
            let old = self.ones.pop_front().expect("ones tracks window");
            for node in old {
                self.column_counts[node.index()] -= 1;
            }
        }
        let top = top_k_nodes(&values, self.k);
        for &node in &top {
            self.column_counts[node.index()] += 1;
        }
        self.bits.push_back(pack_row(&top, self.words_per_row()));
        self.window.push_back(values);
        self.ones.push_back(top);
        self.generation += 1;
    }

    /// A counter that changes whenever the window's readings do (every
    /// [`SampleSet::push`] and every non-empty
    /// [`SampleSet::mask_nodes`]). Anything derived from the readings —
    /// a [`BandTable`], say — stays valid while this reads the same.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no samples have been collected yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Network size.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Query parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Raw readings of sample `j` (0 = oldest in the window).
    pub fn values(&self, j: usize) -> &[f64] {
        &self.window[j]
    }

    /// Reading of `node` in sample `j`.
    pub fn value(&self, j: usize, node: NodeId) -> f64 {
        self.window[j][node.index()]
    }

    /// `ones(j)`: nodes providing the top-k values of sample `j`, in rank
    /// order.
    pub fn ones(&self, j: usize) -> &[NodeId] {
        &self.ones[j]
    }

    /// Words per packed top-k row (`⌈n/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Sample `j`'s top-k membership as a packed bit row: bit `i` (word
    /// `i/64`, bit `i%64`) is set iff node `i` is in the top k. The same
    /// sets as [`SampleSet::ones`], laid out for O(1) membership tests and
    /// word-wide intersections.
    pub fn topk_bits(&self, j: usize) -> &[u64] {
        &self.bits[j]
    }

    /// True iff the matrix entry `M[j][node]` is 1 — an O(1) bit test on
    /// the packed row (the old `contains` scan over `ones(j)` was O(k) per
    /// probe, which the lossy evaluator pays per answer reading per sample
    /// per candidate plan).
    pub fn is_one(&self, j: usize, node: NodeId) -> bool {
        let (w, b) = bit(node);
        self.bits[j][w] & b != 0
    }

    /// Size of the intersection of sample `j`'s top-k set with another
    /// packed row of the same width: a popcount loop over `⌈n/64⌉` words.
    pub fn intersect_count(&self, j: usize, other: &[u64]) -> usize {
        debug_assert_eq!(other.len(), self.words_per_row());
        self.bits[j].iter().zip(other).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Column sums of the Boolean matrix: in how many window samples each
    /// node ranked in the top k. This is the only statistic the greedy and
    /// LP−LF planners need.
    pub fn column_counts(&self) -> &[u32] {
        &self.column_counts
    }

    /// Removes `nodes` from every sample in the window, as if they had
    /// never reported: their readings become `NEG_INFINITY`, and the top-k
    /// sets, packed rows and column counts are those of a recompute over
    /// the survivors.
    ///
    /// Used after a permanent failure — historical samples from a dead
    /// node would otherwise keep steering planners toward it even though
    /// it can no longer answer.
    ///
    /// A row's top k is recomputed only when the mask can change it: when
    /// it holds a masked node, holds fewer than k entries, or its worst
    /// entry does not rank strictly above `NEG_INFINITY` under
    /// `total_cmp` (it is `−∞` or a negative NaN). Any other row keeps
    /// its k entries, since every masked reading now ranks below all of
    /// them. A recomputed row takes `top_k_nodes` over its masked
    /// readings with the `NEG_INFINITY` entries dropped (with fewer than
    /// k survivors a dead node must never count as a top-k holder), and
    /// its old and new entries move the column counts and bits. So a mask
    /// costs one write and one bit test per row and masked id, plus a
    /// top-k pass per recomputed row; a few deaths seldom hold a row's
    /// top k.
    pub fn mask_nodes(&mut self, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        self.generation += 1;
        let k = self.k;
        for ((row, ones), bits) in
            self.window.iter_mut().zip(self.ones.iter_mut()).zip(self.bits.iter_mut())
        {
            let mut recompute = ones.len() < k;
            for &node in nodes {
                row[node.index()] = f64::NEG_INFINITY;
                let (w, b) = bit(node);
                recompute |= bits[w] & b != 0;
            }
            recompute = recompute
                || ones.last().is_some_and(|worst| {
                    row[worst.index()].total_cmp(&f64::NEG_INFINITY) != Ordering::Greater
                });
            if !recompute {
                continue;
            }
            for &node in ones.iter() {
                self.column_counts[node.index()] -= 1;
                let (w, b) = bit(node);
                bits[w] &= !b;
            }
            *ones = top_k_nodes(row, k);
            ones.retain(|n| row[n.index()] != f64::NEG_INFINITY);
            for &node in ones.iter() {
                self.column_counts[node.index()] += 1;
                let (w, b) = bit(node);
                bits[w] |= b;
            }
        }
    }

    /// Prediction of `node`'s current reading from the sample window: the
    /// mean of its finite window values (masked `NEG_INFINITY` entries
    /// from dead nodes are skipped). Returns `None` when the window holds
    /// no usable reading for the node — callers decide how an unknown
    /// prediction competes (backfill maps it to `NEG_INFINITY` so it can
    /// never displace a real observation in rank order; gating treats it
    /// as "no evidence").
    ///
    /// This is what the root falls back to when a subtree's batch is lost
    /// in transit: estimate the missing readings from recent history
    /// rather than silently returning a short answer.
    pub fn predicted_value(&self, node: NodeId) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for row in &self.window {
            let v = row[node.index()];
            if v.is_finite() {
                sum += v;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Plausibility band for `node`'s next reading: window mean ±
    /// `z × max(sample stddev, min_sigma)`. Returns `None` when fewer than
    /// `max(min_window, 2)` finite readings are in the window — a short or
    /// heavily masked history degenerates to "no band" rather than a
    /// spuriously tight one. `min_sigma` floors the width so a constant
    /// history (zero variance) still tolerates sensor quantization.
    pub fn prediction_band(
        &self,
        node: NodeId,
        z: f64,
        min_sigma: f64,
        min_window: usize,
    ) -> Option<(f64, f64)> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for row in &self.window {
            let v = row[node.index()];
            if v.is_finite() {
                sum += v;
                count += 1;
            }
        }
        if count < min_window.max(2) {
            return None;
        }
        let mean = sum / count as f64;
        let mut sq = 0.0;
        for row in &self.window {
            let v = row[node.index()];
            if v.is_finite() {
                sq += (v - mean) * (v - mean);
            }
        }
        Some(band_edges(mean, sq, count, z, min_sigma))
    }

    /// [`SampleSet::prediction_band`] and [`SampleSet::predicted_value`]
    /// for every node at once, in two row-major passes over the window
    /// instead of three column walks per node. Each node's sums run over
    /// its readings in the same (oldest-first) order as the per-node
    /// calls, so every entry equals theirs bit for bit.
    pub fn band_table(&self, z: f64, min_sigma: f64, min_window: usize) -> BandTable {
        let n = self.n;
        let mut count = vec![0u32; n];
        // Sums, then means.
        let mut mean = vec![0.0; n];
        for row in &self.window {
            for ((m, c), &v) in mean.iter_mut().zip(&mut count).zip(row) {
                if v.is_finite() {
                    *m += v;
                    *c += 1;
                }
            }
        }
        for (m, &c) in mean.iter_mut().zip(&count) {
            if c > 0 {
                *m /= c as f64;
            }
        }
        // Squared deviations, then the band edges.
        let mut lo = vec![0.0; n];
        for row in &self.window {
            for ((sq, &m), &v) in lo.iter_mut().zip(&mean).zip(row) {
                if v.is_finite() {
                    *sq += (v - m) * (v - m);
                }
            }
        }
        let need = min_window.max(2);
        let mut hi = vec![0.0; n];
        for (((l, h), &m), &c) in lo.iter_mut().zip(&mut hi).zip(&mean).zip(&count) {
            if c as usize >= need {
                (*l, *h) = band_edges(m, *l, c as usize, z, min_sigma);
            }
        }
        BandTable { need, count, mean, lo, hi }
    }

    /// Nodes among `candidates` whose value in sample `j` is strictly
    /// smaller than `threshold` — the witness sets `smaller(·)` of the
    /// proof LP (Section 4.3).
    pub fn smaller_in<'a>(
        &'a self,
        j: usize,
        threshold: f64,
        candidates: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let row = &self.window[j];
        candidates.iter().copied().filter(move |node| row[node.index()] < threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_order_breaks_ties_by_id() {
        let a = Reading { node: NodeId(2), value: 5.0 };
        let b = Reading { node: NodeId(1), value: 5.0 };
        let c = Reading { node: NodeId(0), value: 7.0 };
        let mut v = [a, b, c];
        v.sort();
        assert_eq!(v[0].node, NodeId(0));
        assert_eq!(v[1].node, NodeId(1));
        assert_eq!(v[2].node, NodeId(2));
    }

    #[test]
    fn top_k_basic() {
        let values = vec![1.0, 9.0, 3.0, 7.0, 5.0];
        assert_eq!(top_k_nodes(&values, 2), vec![NodeId(1), NodeId(3)]);
        assert_eq!(top_k_nodes(&values, 5).len(), 5);
        // k larger than n clamps
        assert_eq!(top_k_nodes(&values, 10).len(), 5);
    }

    #[test]
    fn top_k_deterministic_under_ties() {
        let values = vec![5.0, 5.0, 5.0, 5.0];
        assert_eq!(top_k_nodes(&values, 2), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn top_k_empty_input_is_empty() {
        // Regression: `k.saturating_sub(1).min(readings.len() - 1)` used
        // to underflow (panic) on an empty slice.
        assert_eq!(top_k_nodes(&[], 3), Vec::<NodeId>::new());
        assert_eq!(top_k_nodes(&[], 0), Vec::<NodeId>::new());
    }

    #[test]
    fn top_k_zero_k_is_empty() {
        // Regression: k == 0 used to select the single best node anyway.
        assert_eq!(top_k_nodes(&[3.0, 1.0, 2.0], 0), Vec::<NodeId>::new());
    }

    #[test]
    fn top_k_above_n_clamps_to_all() {
        let got = top_k_nodes(&[1.0, 3.0, 2.0], 7);
        assert_eq!(got, vec![NodeId(1), NodeId(2), NodeId(0)]);
    }

    /// The packed rows must mirror `ones(j)` exactly through pushes,
    /// evictions and masking — the invariant every popcount evaluator
    /// rests on.
    fn assert_bits_mirror_ones(s: &SampleSet) {
        for j in 0..s.len() {
            let expect = pack_row(s.ones(j), s.words_per_row());
            assert_eq!(s.topk_bits(j), &expect[..], "sample {j} bits diverge from ones");
            for i in 0..s.num_nodes() {
                let node = NodeId::from_index(i);
                assert_eq!(s.is_one(j, node), s.ones(j).contains(&node));
            }
        }
    }

    #[test]
    fn packed_bits_track_push_evict_and_mask() {
        let mut s = SampleSet::new(70, 3, 2); // >64 nodes: two words per row
        for r in 0..3u64 {
            s.push((0..70).map(|i| ((i as u64 * 37 + r * 11) % 71) as f64).collect());
            assert_bits_mirror_ones(&s);
        }
        assert_eq!(s.words_per_row(), 2);
        s.mask_nodes(&[NodeId(69), NodeId(3)]);
        assert_bits_mirror_ones(&s);
    }

    #[test]
    fn intersect_count_popcounts_common_members() {
        let mut s = SampleSet::new(4, 2, 4);
        s.push(vec![1.0, 9.0, 3.0, 7.0]); // top-2: n1, n3
        let mut other = vec![0u64; s.words_per_row()];
        other[0] |= (1 << 1) | (1 << 2); // {n1, n2}
        assert_eq!(s.intersect_count(0, &other), 1);
        assert_eq!(s.intersect_count(0, &[0]), 0);
    }

    #[test]
    fn column_counts_track_pushes() {
        let mut s = SampleSet::new(4, 2, 10);
        s.push(vec![1.0, 4.0, 3.0, 2.0]); // top2: n1, n2
        s.push(vec![9.0, 0.0, 8.0, 1.0]); // top2: n0, n2
        assert_eq!(s.len(), 2);
        assert_eq!(s.column_counts(), &[1, 1, 2, 0]);
        assert!(s.is_one(0, NodeId(1)));
        assert!(!s.is_one(0, NodeId(0)));
        assert_eq!(s.ones(1), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    fn eviction_updates_counts() {
        let mut s = SampleSet::new(3, 1, 2);
        s.push(vec![3.0, 1.0, 0.0]); // top: n0
        s.push(vec![0.0, 3.0, 1.0]); // top: n1
        s.push(vec![0.0, 1.0, 3.0]); // top: n2, evicts first
        assert_eq!(s.len(), 2);
        assert_eq!(s.column_counts(), &[0, 1, 1]);
    }

    #[test]
    fn smaller_in_filters_by_value() {
        let mut s = SampleSet::new(4, 2, 4);
        s.push(vec![5.0, 2.0, 8.0, 3.0]);
        let cands = [NodeId(0), NodeId(1), NodeId(3)];
        let smaller: Vec<_> = s.smaller_in(0, 4.0, &cands).collect();
        assert_eq!(smaller, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn value_accessors() {
        let mut s = SampleSet::new(2, 1, 4);
        s.push(vec![1.5, 2.5]);
        assert_eq!(s.value(0, NodeId(1)), 2.5);
        assert_eq!(s.values(0), &[1.5, 2.5]);
    }

    #[test]
    fn mask_nodes_rewrites_window_and_counts() {
        let mut s = SampleSet::new(4, 2, 10);
        s.push(vec![1.0, 4.0, 3.0, 2.0]); // top2: n1, n2
        s.push(vec![9.0, 8.0, 0.0, 1.0]); // top2: n0, n1
        s.mask_nodes(&[NodeId(1)]);
        // n1 drops out everywhere; the next best node takes its place.
        assert_eq!(s.ones(0), &[NodeId(2), NodeId(3)]);
        assert_eq!(s.ones(1), &[NodeId(0), NodeId(3)]);
        assert_eq!(s.column_counts(), &[1, 0, 1, 2]);
        assert_eq!(s.value(0, NodeId(1)), f64::NEG_INFINITY);
    }

    #[test]
    fn mask_nodes_never_reports_dead_topk() {
        // 3 nodes, k = 2, two dead: only the lone survivor may rank.
        let mut s = SampleSet::new(3, 2, 4);
        s.push(vec![3.0, 2.0, 1.0]);
        s.mask_nodes(&[NodeId(0), NodeId(1)]);
        assert_eq!(s.ones(0), &[NodeId(2)]);
        assert_eq!(s.column_counts(), &[0, 0, 1]);
    }

    #[test]
    fn mask_nothing_is_identity() {
        let mut s = SampleSet::new(3, 1, 4);
        s.push(vec![1.0, 5.0, 2.0]);
        let before = s.clone();
        s.mask_nodes(&[]);
        assert_eq!(s.ones(0), before.ones(0));
        assert_eq!(s.column_counts(), before.column_counts());
        assert_eq!(s.values(0), before.values(0));
    }

    #[test]
    fn masking_composes_with_eviction() {
        let mut s = SampleSet::new(3, 1, 2);
        s.push(vec![3.0, 1.0, 0.0]); // top: n0
        s.push(vec![0.0, 3.0, 1.0]); // top: n1
        s.mask_nodes(&[NodeId(1)]);
        assert_eq!(s.column_counts(), &[1, 0, 1]);
        s.push(vec![0.0, 9.0, 1.0]); // evicts the oldest; n1 alive again in new data
        assert_eq!(s.column_counts(), &[0, 1, 1]);
    }

    #[test]
    fn predicted_value_averages_finite_history() {
        let mut s = SampleSet::new(3, 1, 4);
        s.push(vec![1.0, 4.0, 2.0]);
        s.push(vec![3.0, 6.0, 2.0]);
        assert!((s.predicted_value(NodeId(0)).unwrap() - 2.0).abs() < 1e-12);
        assert!((s.predicted_value(NodeId(1)).unwrap() - 5.0).abs() < 1e-12);
        // Masked (dead) nodes have no finite history left: the prediction
        // is `None`, not a `-inf` sentinel that callers could band around.
        s.mask_nodes(&[NodeId(2)]);
        assert_eq!(s.predicted_value(NodeId(2)), None);
        assert!((s.predicted_value(NodeId(0)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn predicted_value_empty_window_is_unknown() {
        let s = SampleSet::new(2, 1, 4);
        assert_eq!(s.predicted_value(NodeId(0)), None);
    }

    #[test]
    fn prediction_band_needs_a_long_enough_finite_window() {
        let mut s = SampleSet::new(2, 1, 8);
        assert_eq!(s.prediction_band(NodeId(0), 4.0, 0.0, 3), None, "empty window");
        s.push(vec![10.0, 0.0]);
        s.push(vec![12.0, 0.0]);
        assert_eq!(s.prediction_band(NodeId(0), 4.0, 0.0, 3), None, "2 < min_window");
        s.push(vec![14.0, 0.0]);
        let (lo, hi) = s.prediction_band(NodeId(0), 4.0, 0.0, 3).unwrap();
        // mean 12, sample stddev 2 → 12 ± 8.
        assert!((lo - 4.0).abs() < 1e-12, "lo {lo}");
        assert!((hi - 20.0).abs() < 1e-12, "hi {hi}");
        // Masking drains the finite count back below the floor.
        s.mask_nodes(&[NodeId(0)]);
        assert_eq!(s.prediction_band(NodeId(0), 4.0, 0.0, 3), None, "masked window");
    }

    #[test]
    fn prediction_band_floors_sigma_for_constant_history() {
        let mut s = SampleSet::new(1, 1, 4);
        for _ in 0..4 {
            s.push(vec![7.0]);
        }
        let (lo, hi) = s.prediction_band(NodeId(0), 2.0, 0.5, 2).unwrap();
        // Zero variance would give a zero-width band; min_sigma keeps it open.
        assert!((lo - 6.0).abs() < 1e-12, "lo {lo}");
        assert!((hi - 8.0).abs() < 1e-12, "hi {hi}");
        // min_window below 2 is clamped up: one reading never yields a band.
        let mut short = SampleSet::new(1, 1, 4);
        short.push(vec![7.0]);
        assert_eq!(short.prediction_band(NodeId(0), 2.0, 0.5, 0), None);
    }

    /// Every node's bulk band equals its per-node `prediction_band` plus
    /// `predicted_value`, compared bit for bit (`None` where they abstain).
    fn assert_table_matches_per_node(s: &SampleSet, z: f64, min_sigma: f64, min_window: usize) {
        let table = s.band_table(z, min_sigma, min_window);
        for i in 0..s.num_nodes() {
            let node = NodeId::from_index(i);
            let bulk = table.get(node).map(|b| [b.lo, b.hi, b.predicted].map(f64::to_bits));
            let per_node = s.prediction_band(node, z, min_sigma, min_window).map(|(lo, hi)| {
                let predicted = s.predicted_value(node).expect("band implies history");
                [lo, hi, predicted].map(f64::to_bits)
            });
            assert_eq!(bulk, per_node, "node {i} of a {}-sample window", s.len());
        }
    }

    /// The selection `top_k_nodes` replaced, kept as its oracle: every
    /// reading materialized, then `select_nth` and a sort.
    fn top_k_nodes_by_selection(values: &[f64], k: usize) -> Vec<NodeId> {
        if values.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut readings: Vec<Reading> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Reading { node: NodeId::from_index(i), value: v })
            .collect();
        let k = k.min(readings.len());
        readings.select_nth_unstable_by(k - 1, Reading::rank_cmp);
        readings.truncate(k);
        readings.sort_unstable_by(Reading::rank_cmp);
        readings.into_iter().map(|r| r.node).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_top_k_matches_the_selection(
            n in 0usize..60,
            k in 0usize..70,
            levels in 1u32..12,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Few distinct levels make ties common; dead nodes read −∞.
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..16) {
                    0 => f64::NEG_INFINITY,
                    1 => f64::NAN,
                    2 => -f64::NAN,
                    3 => f64::INFINITY,
                    4 => -0.0,
                    _ => rng.random_range(0..levels) as f64,
                })
                .collect();
            proptest::prop_assert_eq!(top_k_nodes(&values, k), top_k_nodes_by_selection(&values, k));
        }
    }

    proptest::proptest! {
        #[test]
        fn band_table_matches_per_node_calls(
            n in 1usize..40,
            capacity in 1usize..8,
            pushes in 0usize..14,
            min_window in 0usize..6,
            z in 0.5f64..10.0,
            min_sigma in 0.0f64..2.0,
            mask_after in 0usize..16,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut s = SampleSet::new(n, 1, capacity);
            // Empty, then shorter than `min_window`, then full and evicting.
            assert_table_matches_per_node(&s, z, min_sigma, min_window);
            for p in 0..pushes {
                let row = (0..n)
                    .map(|_| match rng.random_range(0..24) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => 1e308, // finite, but sums overflow
                        _ => rng.random_range(-50.0..50.0),
                    })
                    .collect();
                s.push(row);
                if p == mask_after {
                    let dead: Vec<NodeId> = (0..n)
                        .filter(|_| rng.random_range(0..3) == 0)
                        .map(NodeId::from_index)
                        .collect();
                    s.mask_nodes(&dead);
                }
                assert_table_matches_per_node(&s, z, min_sigma, min_window);
            }
        }
    }

    #[test]
    fn generation_moves_with_the_readings() {
        let mut s = SampleSet::new(3, 1, 2);
        let g0 = s.generation();
        s.push(vec![1.0, 2.0, 3.0]);
        let g1 = s.generation();
        assert_ne!(g1, g0, "push");
        s.mask_nodes(&[]);
        assert_eq!(s.generation(), g1, "an empty mask changes nothing");
        s.mask_nodes(&[NodeId(2)]);
        let g2 = s.generation();
        assert_ne!(g2, g1, "mask");
        s.push(vec![4.0, 5.0, 6.0]);
        s.push(vec![7.0, 8.0, 9.0]); // evicts
        assert_ne!(s.generation(), g2, "push at capacity");
    }

    #[test]
    #[should_panic]
    fn rejects_k_above_n() {
        SampleSet::new(3, 4, 2);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_sample_size() {
        let mut s = SampleSet::new(3, 1, 2);
        s.push(vec![1.0]);
    }

    /// Capture a masked window's parts and rebuild it: every accessor
    /// must agree with the original. A replay of plain pushes would not
    /// (masking retain-filters the top-k sets), which is the whole reason
    /// `from_parts` restores derived state verbatim.
    #[test]
    fn from_parts_roundtrips_a_masked_window() {
        let mut s = SampleSet::new(4, 2, 3);
        s.push(vec![1.0, 4.0, 3.0, 2.0]);
        s.push(vec![9.0, 0.0, 8.0, 1.0]);
        s.push(vec![2.0, 7.0, 1.0, 6.0]);
        s.mask_nodes(&[NodeId(2)]);
        let window: VecDeque<Vec<f64>> = (0..s.len()).map(|j| s.values(j).to_vec()).collect();
        let ones: VecDeque<Vec<NodeId>> = (0..s.len()).map(|j| s.ones(j).to_vec()).collect();
        let counts = s.column_counts().to_vec();
        let r = SampleSet::from_parts(4, 2, 3, window, ones, counts).expect("parts are consistent");
        assert_eq!(r.len(), s.len());
        assert_eq!(r.capacity(), s.capacity());
        assert_eq!(r.column_counts(), s.column_counts());
        for j in 0..s.len() {
            assert_eq!(r.values(j), s.values(j));
            assert_eq!(r.ones(j), s.ones(j));
            assert_eq!(r.topk_bits(j), s.topk_bits(j), "packed rows rebuilt from ones");
        }
    }

    /// Parts whose counts add up but whose lists are not their rows' top
    /// k: two rows' lists swapped, and one list out of rank order.
    #[test]
    fn from_parts_rejects_lists_that_are_not_their_rows_top_k() {
        let window: VecDeque<Vec<f64>> =
            VecDeque::from(vec![vec![1.0, 9.0, 3.0, 7.0], vec![8.0, 0.0, 5.0, 1.0]]);
        let right: VecDeque<Vec<NodeId>> =
            VecDeque::from(vec![vec![NodeId(1), NodeId(3)], vec![NodeId(0), NodeId(2)]]);
        let counts = vec![1, 1, 1, 1];
        assert!(SampleSet::from_parts(4, 2, 2, window.clone(), right, counts.clone()).is_ok());
        let swapped: VecDeque<Vec<NodeId>> =
            VecDeque::from(vec![vec![NodeId(0), NodeId(2)], vec![NodeId(1), NodeId(3)]]);
        assert_eq!(
            SampleSet::from_parts(4, 2, 2, window.clone(), swapped, counts.clone()).unwrap_err(),
            SamplePartsError::WrongTopK { sample: 0 }
        );
        let reordered: VecDeque<Vec<NodeId>> =
            VecDeque::from(vec![vec![NodeId(1), NodeId(3)], vec![NodeId(2), NodeId(0)]]);
        assert_eq!(
            SampleSet::from_parts(4, 2, 2, window, reordered, counts).unwrap_err(),
            SamplePartsError::WrongTopK { sample: 1 }
        );
        // A masked row's list may drop its −∞ entries, and only those.
        let masked: VecDeque<Vec<f64>> =
            VecDeque::from(vec![vec![f64::NEG_INFINITY, 2.0, f64::NEG_INFINITY]]);
        let short: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(1)]]);
        assert!(SampleSet::from_parts(3, 2, 1, masked.clone(), short, vec![0, 1, 0]).is_ok());
        let full: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(1), NodeId(0)]]);
        assert!(SampleSet::from_parts(3, 2, 1, masked.clone(), full, vec![1, 1, 0]).is_ok());
        let wrong_drop: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(0)]]);
        assert_eq!(
            SampleSet::from_parts(3, 2, 1, masked, wrong_drop, vec![1, 0, 0]).unwrap_err(),
            SamplePartsError::WrongTopK { sample: 0 }
        );
    }

    #[test]
    fn from_parts_rejects_inconsistent_captures() {
        let window: VecDeque<Vec<f64>> = VecDeque::from(vec![vec![1.0, 2.0, 3.0]]);
        let ones: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(2)]]);
        // Bad shape: k > n.
        assert!(matches!(
            SampleSet::from_parts(3, 4, 2, window.clone(), ones.clone(), vec![0, 0, 1]),
            Err(SamplePartsError::BadShape { .. })
        ));
        // Window longer than capacity.
        let long: VecDeque<Vec<f64>> = VecDeque::from(vec![vec![1.0, 2.0, 3.0]; 3]);
        let long_ones: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(2)]; 3]);
        assert!(matches!(
            SampleSet::from_parts(3, 1, 2, long, long_ones, vec![0, 0, 3]),
            Err(SamplePartsError::LengthMismatch { .. })
        ));
        // A sample row of the wrong width.
        let bad_row: VecDeque<Vec<f64>> = VecDeque::from(vec![vec![1.0, 2.0]]);
        assert!(matches!(
            SampleSet::from_parts(3, 1, 2, bad_row, ones.clone(), vec![0, 0, 1]),
            Err(SamplePartsError::BadSample { .. })
        ));
        // A top-k set naming a node outside the network.
        let oob: VecDeque<Vec<NodeId>> = VecDeque::from(vec![vec![NodeId(7)]]);
        assert!(matches!(
            SampleSet::from_parts(3, 1, 2, window.clone(), oob, vec![0, 0, 1]),
            Err(SamplePartsError::BadSample { .. })
        ));
        // Counts that disagree with the stored top-k sets.
        assert!(matches!(
            SampleSet::from_parts(3, 1, 2, window, ones, vec![1, 0, 0]),
            Err(SamplePartsError::InconsistentCounts)
        ));
    }

    /// The mask `mask_nodes` replaced, kept as its oracle: every row's
    /// top k, packed row and column counts recomputed from scratch.
    fn mask_nodes_by_recompute(s: &mut SampleSet, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        s.column_counts.fill(0);
        s.generation += 1;
        let words = s.words_per_row();
        for ((row, ones), bits) in s.window.iter_mut().zip(s.ones.iter_mut()).zip(s.bits.iter_mut())
        {
            for &node in nodes {
                row[node.index()] = f64::NEG_INFINITY;
            }
            *ones = top_k_nodes(row, s.k);
            ones.retain(|n| row[n.index()] != f64::NEG_INFINITY);
            *bits = pack_row(ones, words);
            for &node in ones.iter() {
                s.column_counts[node.index()] += 1;
            }
        }
    }

    /// Two windows agree in every reading (bit for bit), top-k list,
    /// packed row, column count and generation.
    fn assert_same_window(got: &SampleSet, want: &SampleSet, step: usize) {
        assert_eq!(got.len(), want.len(), "step {step}");
        for j in 0..want.len() {
            let bits = |s: &SampleSet| s.values(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "step {step}: readings of sample {j}");
            assert_eq!(got.ones(j), want.ones(j), "step {step}: top k of sample {j}");
            assert_eq!(got.topk_bits(j), want.topk_bits(j), "step {step}: bits of sample {j}");
        }
        assert_eq!(got.column_counts(), want.column_counts(), "step {step}: column counts");
        assert_eq!(got.generation(), want.generation(), "step {step}: generation");
    }

    /// A reading from a few levels (ties are common), or, `special`
    /// times in 16, one of ±∞, a NaN of either sign or −0.
    fn tied_reading(rng: &mut rand::rngs::StdRng, levels: u32, special: u32) -> f64 {
        use rand::RngExt;
        if rng.random_range(0..16u32) >= special {
            return rng.random_range(0..levels) as f64;
        }
        match rng.random_range(0..5) {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => f64::NAN,
            3 => -f64::NAN,
            _ => -0.0,
        }
    }

    // Masks interleaved with pushes, evictions and a restore from parts:
    // the window masked in place equals one masked by the full recompute
    // after every step. Small networks, k near n, many special readings
    // and masks of one or two ids are common: those are the windows
    // where a full top-k list ends in a negative NaN that a mask of a
    // non-member changes.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn masking_in_place_matches_the_full_recompute(
            largest in 0usize..3,
            capacity in 1usize..=12,
            levels in 1u32..8,
            special in 1u32..9,
            ops in proptest::collection::vec(0u8..8, 1..24),
            seed in 0u64..u64::MAX,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..=[6, 24, 200][largest]);
            let k = match rng.random_range(0..2) {
                0 => rng.random_range(1..=n),
                _ => n - rng.random_range(0..n.min(3)),
            };
            let mut live = SampleSet::new(n, k, capacity);
            let mut oracle = live.clone();
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    // Push (evicting once full).
                    0..=3 => {
                        let row: Vec<f64> =
                            (0..n).map(|_| tied_reading(&mut rng, levels, special)).collect();
                        live.push(row.clone());
                        oracle.push(row);
                    }
                    // Restore both from the live window's parts.
                    4 => {
                        let parts = |s: &SampleSet| {
                            let window = (0..s.len()).map(|j| s.values(j).to_vec()).collect();
                            let ones = (0..s.len()).map(|j| s.ones(j).to_vec()).collect();
                            (window, ones, s.column_counts().to_vec())
                        };
                        let (window, ones, counts) = parts(&live);
                        live = SampleSet::from_parts(n, k, capacity, window, ones, counts)
                            .expect("a live window's parts restore");
                        let (window, ones, counts) = parts(&oracle);
                        oracle = SampleSet::from_parts(n, k, capacity, window, ones, counts)
                            .expect("the oracle's parts restore");
                    }
                    // Mask 0..=n ids, with repeats, often ids masked before.
                    _ => {
                        let m = match rng.random_range(0..2) {
                            0 => rng.random_range(0..=n.min(2)),
                            _ => rng.random_range(0..=n),
                        };
                        let few = rng.random_range(1..=n.min(4));
                        let nodes: Vec<NodeId> = (0..m)
                            .map(|_| match rng.random_range(0..3) {
                                0 => NodeId::from_index(rng.random_range(0..few)),
                                _ => NodeId::from_index(rng.random_range(0..n)),
                            })
                            .collect();
                        live.mask_nodes(&nodes);
                        mask_nodes_by_recompute(&mut oracle, &nodes);
                    }
                }
                assert_same_window(&live, &oracle, step);
            }
        }
    }
}
