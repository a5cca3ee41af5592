//! q-digest quantile sketches — compact per-subtree value summaries for
//! the continuous-query protocol ("Medians and Beyond: New Aggregation
//! Techniques for Sensor Networks", Shrivastava et al., SenSys 2004).
//!
//! A [`QDigest`] summarizes a multiset of readings drawn from a bounded
//! value domain `[lo, hi]` quantized onto `2^depth` equal-width buckets.
//! The buckets are the leaves of a conceptual complete binary tree; the
//! sketch stores counts on a sparse set of tree nodes. Three properties
//! matter to the protocol:
//!
//! * **Associative, lossless merging.** [`QDigest::merge`] adds counts
//!   node-by-node and defers compression, so `(a ∪ b) ∪ c` and
//!   `a ∪ (b ∪ c)` are *identical* — subtree summaries can be combined
//!   in routing-tree order without the result depending on that order.
//! * **Bounded rank error.** After canonical compression the classic
//!   q-digest guarantee holds: any quantile query is answered with rank
//!   error at most `ε·n` where `ε = depth / compression`
//!   ([`QDigest::epsilon`]), at a size of `O(compression · depth)` nodes.
//! * **Byte-deterministic encoding.** [`QDigest::encode`] canonically
//!   compresses and then serializes counts in sorted node order, so two
//!   sketches summarizing the same multiset produce identical bytes no
//!   matter how they were built.
//!
//! The continuous protocol ships one sketch per root-child subtree on
//! every full refresh; the planner queries it for candidate thresholds
//! ([`QDigest::quantile`]) and the root uses [`QDigest::upper_bound`]
//! plus the delta tolerance to bound what a *silent* subtree could
//! possibly contribute to the answer.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Configuration of a [`QDigest`]: value domain and accuracy/size knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchPrecision {
    /// Universe depth: values are quantized onto `2^depth` buckets.
    pub depth: u32,
    /// The q-digest compression parameter `k`: larger is more accurate
    /// and bigger. Rank error is at most `depth / compression · n`.
    pub compression: u64,
    /// Inclusive lower edge of the value domain.
    pub lo: f64,
    /// Inclusive upper edge of the value domain.
    pub hi: f64,
}

impl SketchPrecision {
    /// Rejects non-representable configurations.
    pub fn validate(&self) -> Result<(), SketchConfigError> {
        if self.depth == 0 || self.depth > 24 {
            return Err(SketchConfigError::BadDepth(self.depth));
        }
        if self.compression == 0 {
            return Err(SketchConfigError::ZeroCompression);
        }
        if !(self.lo.is_finite() && self.hi.is_finite() && self.lo < self.hi) {
            return Err(SketchConfigError::BadDomain(self.lo, self.hi));
        }
        Ok(())
    }
}

/// A rejected [`SketchPrecision`], naming the bad knob.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchConfigError {
    /// `depth` must be in `1..=24`.
    BadDepth(u32),
    /// `compression` must be at least 1.
    ZeroCompression,
    /// The domain must satisfy `lo < hi` with both finite.
    BadDomain(f64, f64),
}

impl fmt::Display for SketchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchConfigError::BadDepth(d) => {
                write!(f, "sketch depth must be in 1..=24, got {d}")
            }
            SketchConfigError::ZeroCompression => {
                write!(f, "sketch compression must be at least 1")
            }
            SketchConfigError::BadDomain(lo, hi) => {
                write!(f, "sketch domain must be finite with lo < hi, got [{lo}, {hi}]")
            }
        }
    }
}

impl Error for SketchConfigError {}

/// A malformed [`QDigest::encode`] byte string.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchDecodeError {
    /// Fewer bytes than the fixed header requires, or a truncated body.
    Truncated,
    /// The header's precision fields failed [`SketchPrecision::validate`].
    Config(SketchConfigError),
    /// A count entry's node id is outside the tree, zero-count, out of
    /// order, or duplicated.
    BadEntry(u64),
    /// The stored total does not equal the sum of entry counts.
    BadTotal,
}

impl fmt::Display for SketchDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchDecodeError::Truncated => write!(f, "sketch bytes truncated"),
            SketchDecodeError::Config(e) => write!(f, "sketch header invalid: {e}"),
            SketchDecodeError::BadEntry(id) => write!(f, "sketch entry {id} invalid"),
            SketchDecodeError::BadTotal => write!(f, "sketch total mismatches entries"),
        }
    }
}

impl Error for SketchDecodeError {}

/// A q-digest over a bounded, quantized value domain. See the module
/// docs for the guarantees.
///
/// Tree-node ids are 1-based heap indices: the root is 1, node `v` has
/// children `2v` and `2v+1`, and the `2^depth` leaves occupy
/// `2^depth ..= 2^(depth+1) - 1` in bucket order.
#[derive(Debug, Clone, PartialEq)]
pub struct QDigest {
    precision: SketchPrecision,
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl QDigest {
    /// An empty sketch. Panics on an invalid precision; validate first
    /// when the configuration is untrusted.
    pub fn new(precision: SketchPrecision) -> QDigest {
        precision.validate().expect("invalid sketch precision");
        QDigest { precision, counts: BTreeMap::new(), total: 0 }
    }

    /// Builds a sketch from a slice of values: their leaf ids sorted,
    /// each run of equal ids one count, the map built in order.
    pub fn from_values(precision: SketchPrecision, values: &[f64]) -> QDigest {
        let mut d = QDigest::new(precision);
        let mut leaves: Vec<u64> = values.iter().map(|&v| d.leaf_of(v)).collect();
        leaves.sort_unstable();
        d.counts = leaves.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)).collect();
        d.total = values.len() as u64;
        d
    }

    /// The configured precision.
    pub fn precision(&self) -> SketchPrecision {
        self.precision
    }

    /// Number of summarized values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Worst-case relative rank error after compression:
    /// `depth / compression`.
    pub fn epsilon(&self) -> f64 {
        self.precision.depth as f64 / self.precision.compression as f64
    }

    fn universe(&self) -> u64 {
        1u64 << self.precision.depth
    }

    /// The bucket a value quantizes to. Values outside the domain clamp
    /// to the edge buckets; NaN clamps low.
    pub fn bucket_of(&self, value: f64) -> u64 {
        let SketchPrecision { lo, hi, .. } = self.precision;
        let v = if value.is_nan() { lo } else { value.clamp(lo, hi) };
        let u = self.universe();
        let b = ((v - lo) / (hi - lo) * u as f64) as u64;
        b.min(u - 1)
    }

    /// Inclusive value bounds `(lower, upper)` of bucket `b`.
    pub fn bucket_bounds(&self, b: u64) -> (f64, f64) {
        let SketchPrecision { lo, hi, .. } = self.precision;
        let u = self.universe() as f64;
        let width = (hi - lo) / u;
        (lo + b as f64 * width, lo + (b + 1) as f64 * width)
    }

    /// The tree-node id of the leaf a value quantizes to.
    fn leaf_of(&self, value: f64) -> u64 {
        self.universe() + self.bucket_of(value)
    }

    /// Adds one value.
    pub fn insert(&mut self, value: f64) {
        *self.counts.entry(self.leaf_of(value)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds every count of `other` into `self`. Pure count addition —
    /// no compression happens here, so merging is exactly associative
    /// and commutative. Panics when the precisions differ.
    pub fn merge(&mut self, other: &QDigest) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge q-digests with different precision"
        );
        for (&id, &c) in &other.counts {
            *self.counts.entry(id).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Canonically compresses in place: one deterministic bottom-up pass
    /// merging sibling pairs into their parent wherever the q-digest
    /// property `count(v) + count(sibling) + count(parent) ≤ ⌊n/k⌋`
    /// allows. Queries and encoding apply this automatically; calling it
    /// eagerly only trims memory.
    pub fn compress(&mut self) {
        self.counts = self.compressed().into_iter().collect();
    }

    /// The canonical compression of the stored counts as `(node id,
    /// count)` pairs in ascending id order, leaving `self` untouched.
    ///
    /// One merge walk over flat sorted vectors, deepest level first.
    /// Heap ids order the stored nodes level by level, so each level is
    /// a contiguous run of the sorted input. A level's nodes are its
    /// stored ones overlaid with the parents the level below merged
    /// into (a merged parent's count already includes its stored one).
    /// Siblings are adjacent in that run, and their parents' stored
    /// counts are read with a cursor advancing through the level above:
    /// `O(nodes · depth)` with no map and no per-parent lookup.
    ///
    /// Every parent owns its own pair of children, so the merges within
    /// a level never interact: each decision reads its pair as the level
    /// below left it and its parent's stored count, exactly as a
    /// level-by-level sweep that edits the counts in place would.
    fn compressed(&self) -> Vec<(u64, u64)> {
        let stored: Vec<(u64, u64)> = self.counts.iter().map(|(&id, &c)| (id, c)).collect();
        let budget = self.total / self.precision.compression;
        if budget == 0 {
            return stored;
        }
        // Survivors, deepest level first; `blocks[d]` is where the d-th
        // level from the bottom starts.
        let mut kept: Vec<(u64, u64)> = Vec::with_capacity(stored.len());
        let mut blocks = Vec::with_capacity(self.precision.depth as usize + 1);
        // `carried`: the parents the level below merged into, ascending;
        // `merged` collects this level's for the level above.
        let (mut carried, mut merged) = (Vec::new(), Vec::new());
        let mut level_nodes = Vec::new();
        let mut end = stored.len();
        for level in (1..=self.precision.depth).rev() {
            let start = stored[..end].partition_point(|&(id, _)| id < 1u64 << level);
            let parents_start =
                stored[..start].partition_point(|&(id, _)| id < 1u64 << (level - 1));
            let parents = &stored[parents_start..start];
            overlay(&stored[start..end], &carried, &mut level_nodes);
            blocks.push(kept.len());
            let mut cursor = 0;
            let mut nodes = level_nodes.iter().copied().peekable();
            while let Some((id, a)) = nodes.next() {
                let p = id >> 1;
                let sibling = nodes.next_if(|&(s, _)| s >> 1 == p);
                while cursor < parents.len() && parents[cursor].0 < p {
                    cursor += 1;
                }
                let c = parents.get(cursor).filter(|&&(q, _)| q == p).map_or(0, |&(_, c)| c);
                let sum = a + sibling.map_or(0, |(_, b)| b) + c;
                if sum <= budget {
                    merged.push((p, sum));
                } else {
                    kept.push((id, a));
                    kept.extend(sibling);
                }
            }
            std::mem::swap(&mut carried, &mut merged);
            merged.clear();
            end = start;
        }
        // The root level has no parent to merge into.
        blocks.push(kept.len());
        overlay(&stored[..end], &carried, &mut level_nodes);
        kept.extend_from_slice(&level_nodes);
        // Levels were produced bottom-up; ascending ids run top-down.
        let mut out = Vec::with_capacity(kept.len());
        let mut hi = kept.len();
        for &lo in blocks.iter().rev() {
            out.extend_from_slice(&kept[lo..hi]);
            hi = lo;
        }
        out
    }

    /// `nodes` (compressed, ascending id) as `(max_bucket, min_bucket,
    /// count)` sorted ascending: cumulative counts in this order are the
    /// classic q-digest ranks, ordered by the *highest* leaf bucket each
    /// node can cover.
    fn ranked_nodes(&self, nodes: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
        let depth = self.precision.depth;
        let mut v: Vec<(u64, u64, u64)> = nodes
            .iter()
            .map(|&(id, c)| {
                let level = 63 - id.leading_zeros();
                let span = depth - level; // levels below this node
                let first_leaf = id << span;
                let min_b = first_leaf - self.universe();
                let max_b = min_b + (1u64 << span) - 1;
                (max_b, min_b, c)
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The smallest bucket `b` such that at least `phi·n` values are
    /// summarized at or below `b`, up to the `ε·n` rank slack. Returns
    /// the bucket and its inclusive value bounds; `None` when empty.
    /// `phi` is clamped to `[0, 1]`.
    pub fn quantile(&self, phi: f64) -> Option<(u64, f64, f64)> {
        if self.total == 0 {
            return None;
        }
        let target = (phi.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        let mut last = None;
        for (max_b, _min_b, c) in self.ranked_nodes(&self.compressed()) {
            seen += c;
            last = Some(max_b);
            if seen >= target {
                break;
            }
        }
        let b = last.expect("non-empty digest has nodes");
        let (lo, hi) = self.bucket_bounds(b);
        Some((b, lo, hi))
    }

    /// Estimated number of summarized values in buckets `<= b`:
    /// every stored node whose covered range lies entirely at or below
    /// `b` contributes fully. The true quantized rank exceeds this by at
    /// most `ε·n` after compression.
    pub fn rank_of_bucket(&self, b: u64) -> u64 {
        self.ranked_nodes(&self.compressed())
            .into_iter()
            .take_while(|&(max_b, _, _)| max_b <= b)
            .map(|(_, _, c)| c)
            .sum()
    }

    /// Upper value bound over everything summarized: the upper edge of
    /// the highest occupied region. Adding the continuous-mode tolerance
    /// to this bounds what a silent subtree could contribute now.
    pub fn upper_bound(&self) -> Option<f64> {
        self.quantile(1.0).map(|(_, _, hi)| hi)
    }

    /// Canonical byte encoding: header (depth, compression, lo, hi,
    /// total) then the compressed counts as sorted `(node id, count)`
    /// pairs. Equal multisets encode to equal bytes regardless of
    /// insertion or merge order.
    pub fn encode(&self) -> Vec<u8> {
        let nodes = self.compressed();
        let mut out = Vec::with_capacity(44 + nodes.len() * 16);
        out.extend_from_slice(&self.precision.depth.to_le_bytes());
        out.extend_from_slice(&self.precision.compression.to_le_bytes());
        out.extend_from_slice(&self.precision.lo.to_bits().to_le_bytes());
        out.extend_from_slice(&self.precision.hi.to_bits().to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
        for (id, c) in nodes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Inverse of [`QDigest::encode`], validating structure as it goes.
    pub fn decode(bytes: &[u8]) -> Result<QDigest, SketchDecodeError> {
        fn take<const N: usize>(b: &mut &[u8]) -> Result<[u8; N], SketchDecodeError> {
            if b.len() < N {
                return Err(SketchDecodeError::Truncated);
            }
            let (head, tail) = b.split_at(N);
            *b = tail;
            Ok(head.try_into().expect("split_at guarantees length"))
        }
        let mut b = bytes;
        let depth = u32::from_le_bytes(take::<4>(&mut b)?);
        let compression = u64::from_le_bytes(take::<8>(&mut b)?);
        let lo = f64::from_bits(u64::from_le_bytes(take::<8>(&mut b)?));
        let hi = f64::from_bits(u64::from_le_bytes(take::<8>(&mut b)?));
        let precision = SketchPrecision { depth, compression, lo, hi };
        precision.validate().map_err(SketchDecodeError::Config)?;
        let total = u64::from_le_bytes(take::<8>(&mut b)?);
        let len = u64::from_le_bytes(take::<8>(&mut b)?);
        let max_id = (1u64 << (depth + 1)) - 1;
        let mut counts = BTreeMap::new();
        let mut prev = 0u64;
        let mut sum = 0u64;
        for _ in 0..len {
            let id = u64::from_le_bytes(take::<8>(&mut b)?);
            let c = u64::from_le_bytes(take::<8>(&mut b)?);
            if id <= prev || id > max_id || c == 0 {
                return Err(SketchDecodeError::BadEntry(id));
            }
            prev = id;
            sum = sum.checked_add(c).ok_or(SketchDecodeError::BadTotal)?;
            counts.insert(id, c);
        }
        if !b.is_empty() {
            return Err(SketchDecodeError::Truncated);
        }
        if sum != total {
            return Err(SketchDecodeError::BadTotal);
        }
        Ok(QDigest { precision, counts, total })
    }

    /// Number of stored tree nodes (sparse size before compression).
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }
}

/// Overlays two id-sorted runs of `(node id, count)` into `out`: the
/// union of both, ascending, where an id present in both takes `over`'s
/// count.
fn overlay(base: &[(u64, u64)], over: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < base.len() && j < over.len() {
        let (b, o) = (base[i], over[j]);
        if b.0 < o.0 {
            out.push(b);
            i += 1;
        } else {
            out.push(o);
            j += 1;
            i += usize::from(b.0 == o.0);
        }
    }
    out.extend_from_slice(&base[i..]);
    out.extend_from_slice(&over[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prec() -> SketchPrecision {
        SketchPrecision { depth: 8, compression: 16, lo: 0.0, hi: 256.0 }
    }

    #[test]
    fn insert_and_total() {
        let mut d = QDigest::new(prec());
        assert_eq!(d.total(), 0);
        d.insert(3.0);
        d.insert(200.0);
        assert_eq!(d.total(), 2);
        assert_eq!(d.node_count(), 2);
    }

    #[test]
    fn clamping_maps_out_of_domain_to_edges() {
        let d = QDigest::new(prec());
        assert_eq!(d.bucket_of(-10.0), 0);
        assert_eq!(d.bucket_of(1e9), 255);
        assert_eq!(d.bucket_of(f64::NAN), 0);
        assert_eq!(d.bucket_of(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn quantile_on_uniform_values_is_near_exact() {
        let values: Vec<f64> = (0..256).map(|i| i as f64 + 0.5).collect();
        let d = QDigest::from_values(prec(), &values);
        let (b, _, _) = d.quantile(0.5).unwrap();
        let err = (b as i64 - 127).unsigned_abs();
        assert!(err as f64 <= d.epsilon() * 256.0 + 1.0, "bucket {b}, err {err}");
    }

    #[test]
    fn compress_respects_budget_and_preserves_total() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 256) as f64).collect();
        let mut d = QDigest::from_values(prec(), &values);
        d.compress();
        assert_eq!(d.total(), 1000);
        // Size bound: at most 3k nodes after compression (classic bound).
        assert!(d.node_count() as u64 <= 3 * prec().compression);
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = QDigest::from_values(prec(), &[1.0, 2.0]);
        let b = QDigest::from_values(prec(), &[1.0, 250.0]);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        let direct = QDigest::from_values(prec(), &[1.0, 2.0, 1.0, 250.0]);
        assert_eq!(a, direct);
    }

    #[test]
    fn encode_decode_round_trips() {
        let values: Vec<f64> = (0..500).map(|i| (i * 7 % 256) as f64).collect();
        let d = QDigest::from_values(prec(), &values);
        let bytes = d.encode();
        let back = QDigest::decode(&bytes).unwrap();
        assert_eq!(back.total(), d.total());
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(QDigest::decode(&[1, 2, 3]), Err(SketchDecodeError::Truncated));
        let mut bytes = QDigest::from_values(prec(), &[1.0, 2.0]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(QDigest::decode(&bytes).is_err());
    }

    #[test]
    fn precision_validation() {
        assert!(prec().validate().is_ok());
        assert!(SketchPrecision { depth: 0, ..prec() }.validate().is_err());
        assert!(SketchPrecision { depth: 25, ..prec() }.validate().is_err());
        assert!(SketchPrecision { compression: 0, ..prec() }.validate().is_err());
        assert!(SketchPrecision { lo: 1.0, hi: 1.0, ..prec() }.validate().is_err());
        assert!(SketchPrecision { lo: f64::NAN, ..prec() }.validate().is_err());
    }

    #[test]
    fn upper_bound_covers_max() {
        let values = [3.0, 99.5, 17.25, 240.0];
        let d = QDigest::from_values(prec(), &values);
        assert!(d.upper_bound().unwrap() >= 240.0);
    }

    /// The map-based compression the one-pass walk replaced, kept as its
    /// oracle: level by level from the leaves, each stored node's parent
    /// is looked up and edited in a `BTreeMap`.
    fn reference_compress(d: &mut QDigest) {
        let budget = d.total / d.precision.compression;
        if budget == 0 {
            return;
        }
        for level in (1..=d.precision.depth).rev() {
            let lo_id = 1u64 << level;
            let hi_id = (1u64 << (level + 1)) - 1;
            let parents: Vec<u64> = d.counts.range(lo_id..=hi_id).map(|(&id, _)| id >> 1).collect();
            let mut last = 0u64;
            for p in parents {
                if p == last {
                    continue; // both siblings listed this parent once already
                }
                last = p;
                let a = d.counts.get(&(2 * p)).copied().unwrap_or(0);
                let b = d.counts.get(&(2 * p + 1)).copied().unwrap_or(0);
                let c = d.counts.get(&p).copied().unwrap_or(0);
                if a + b + c <= budget {
                    d.counts.remove(&(2 * p));
                    d.counts.remove(&(2 * p + 1));
                    d.counts.insert(p, a + b + c);
                }
            }
        }
    }

    /// The encoding that went with [`reference_compress`]: compress a
    /// clone, then serialize its map.
    fn reference_encode(d: &QDigest) -> Vec<u8> {
        let mut canon = d.clone();
        reference_compress(&mut canon);
        let mut out = Vec::with_capacity(44 + canon.counts.len() * 16);
        out.extend_from_slice(&canon.precision.depth.to_le_bytes());
        out.extend_from_slice(&canon.precision.compression.to_le_bytes());
        out.extend_from_slice(&canon.precision.lo.to_bits().to_le_bytes());
        out.extend_from_slice(&canon.precision.hi.to_bits().to_le_bytes());
        out.extend_from_slice(&canon.total.to_le_bytes());
        out.extend_from_slice(&(canon.counts.len() as u64).to_le_bytes());
        for (&id, &c) in &canon.counts {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// `n` readings on `[0, 100]` quantized to `depth` bits, in one of
    /// four shapes: 0 uniform over and past the domain (with NaN and
    /// ±∞, which clamp), 1 all identical, 2 pairs of sibling buckets
    /// `2j` and `2j + 1`, 3 a cluster a few buckets wide.
    fn oracle_values(depth: u32, shape: u8, n: usize, rng: &mut impl rand::RngExt) -> Vec<f64> {
        let buckets = 1u64 << depth;
        let width = 100.0 / buckets as f64;
        let at = |b: u64| (b as f64 + 0.5) * width;
        let same = rng.random_range(0..buckets);
        let center = rng.random_range(0..buckets);
        (0..n)
            .map(|i| match shape {
                0 => match rng.random_range(0..40) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => rng.random_range(-10.0..110.0),
                },
                1 => at(same),
                2 => {
                    let pair = rng.random_range(0..buckets.div_ceil(2).min(8)) * 2;
                    at((pair + (i as u64 & 1)).min(buckets - 1))
                }
                _ => at((center + rng.random_range(0..6u64)).min(buckets - 1)),
            })
            .collect()
    }

    // The one-pass walk compresses exactly like the map-based reference:
    // same stored counts, same encoded bytes, on plain, merged and
    // already-compressed digests at every depth and at budgets 0, 1,
    // ≥ total and in between.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        #[test]
        fn one_pass_compression_matches_the_map_reference(
            depth in 1u32..=24,
            shape in 0u8..4,
            budget in 0u8..4,
            parts in 0u8..3,
            precompress in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(0..300);
            let a = oracle_values(depth, shape, n, &mut rng);
            let m = if parts > 0 { rng.random_range(0..200) } else { 0 };
            let b = oracle_values(depth, shape, m, &mut rng);
            let total = (a.len() + b.len()) as u64;
            let compression = match budget {
                0 => total + 1,     // budget 0: nothing merges
                1 => total.max(1),  // budget 1: only lone nodes rise
                2 => 1,             // budget = total: everything may merge
                _ => rng.random_range(1..=64),
            };
            let p = SketchPrecision { depth, compression, lo: 0.0, hi: 100.0 };
            let mut d = QDigest::from_values(p, &a);
            if parts > 0 {
                let mut other = QDigest::from_values(p, &b);
                if parts == 2 {
                    // Interior nodes in the input, as after a decode.
                    reference_compress(&mut other);
                }
                d.merge(&other);
            }
            if precompress == 1 {
                reference_compress(&mut d);
            }
            let mut expect = d.clone();
            reference_compress(&mut expect);
            let mut got = d.clone();
            got.compress();
            proptest::prop_assert_eq!(&got.counts, &expect.counts);
            proptest::prop_assert_eq!(got.total, d.total);
            proptest::prop_assert_eq!(d.encode(), reference_encode(&d));
            proptest::prop_assert_eq!(got.encode(), reference_encode(&got));
        }
    }

    // Sorting the leaf ids builds what inserting the values one at a
    // time builds: the same stored counts, total and encoded bytes, on
    // every shape (NaN, ±∞ and out-of-domain values, duplicates) and on
    // empty input, at every depth.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        #[test]
        fn sorted_from_values_matches_one_at_a_time_inserts(
            depth in 1u32..=24,
            shape in 0u8..4,
            empty in 0u8..8,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = if empty == 0 { 0 } else { rng.random_range(1..1200) };
            let values = oracle_values(depth, shape, n, &mut rng);
            let compression = rng.random_range(1..=64);
            let p = SketchPrecision { depth, compression, lo: 0.0, hi: 100.0 };
            let mut inserted = QDigest::new(p);
            for &v in &values {
                inserted.insert(v);
            }
            let sorted = QDigest::from_values(p, &values);
            proptest::prop_assert_eq!(&sorted.counts, &inserted.counts);
            proptest::prop_assert_eq!(sorted.total, inserted.total);
            proptest::prop_assert_eq!(sorted.encode(), inserted.encode());
        }
    }

    #[test]
    fn sibling_pair_at_budget_merges_into_parent() {
        // 33 values at compression 16: budget 2. Buckets 4 and 5 hold one
        // value each and rise to their parent (256 + 4) / 2 = 130; bucket
        // 6's lone value rises to 131; at the next level 2 + 1 > 2, so
        // both stay. The far cluster's leaves hold 10 each and stay put.
        let mut values = vec![4.5, 5.5, 6.5];
        values.extend((0..30).map(|i| 200.5 + (i % 3) as f64 * 10.0));
        let mut d = QDigest::from_values(prec(), &values);
        let mut expect = d.clone();
        reference_compress(&mut expect);
        d.compress();
        assert_eq!(d.counts, expect.counts);
        let nodes: Vec<(u64, u64)> = d.counts.iter().map(|(&id, &c)| (id, c)).collect();
        assert_eq!(nodes, vec![(130, 2), (131, 1), (456, 10), (466, 10), (476, 10)]);
    }
}
