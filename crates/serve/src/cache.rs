//! The plan cache.
//!
//! Plans are cached under a [`PlanKey`] — topology epoch, `k`, budget
//! band, subset — plus the sample-window version the plan was computed
//! against. A cached plan is *exactly* the plan scratch planning would
//! produce for any request mapping to the same key (the service plans
//! with the band-floor budget, a pure function of the key), which is what
//! makes cache hits transparent: bit-identical answers and energy charges
//! with the cache on or off.
//!
//! Invalidation is two-layered:
//! * **topology epoch** — node deaths, repairs and link degradations bump
//!   the service's topology epoch; since the epoch is part of the key,
//!   stale entries can never be *looked up*, and [`PlanCache::invalidate`]
//!   purges them eagerly so the cache cannot grow without bound.
//! * **window version** — every sample push or mask bumps the window
//!   version; a lookup whose stored version disagrees is evicted and
//!   counted as a miss, so a plan computed against old samples is never
//!   served.

use prospector_core::Plan;
use std::collections::BTreeMap;

/// What a plan is a function of: everything else (the topology itself,
/// the energy model, the planner) is fixed per topology epoch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Bumped by every death/repair/degradation.
    pub topo_epoch: u64,
    /// Query parameter `k`.
    pub k: u32,
    /// `floor(budget / band_width)`: requests in the same band share a
    /// plan computed at the band floor.
    pub band: u64,
    /// Sorted, deduplicated subset node ids (`None` = whole network). The
    /// exact subset is stored — no fingerprints, no collisions.
    pub subset: Option<Vec<u32>>,
}

/// A cached plan plus the statistics that let the service skip both the
/// planner and the evaluator on a hit.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub plan: Plan,
    /// Expected accuracy of `plan` over the window it was planned on.
    pub expected_accuracy: f64,
    /// Generation ([`SampleSet::generation`](prospector_data::SampleSet::generation))
    /// of the sample window the plan was computed against.
    pub window_version: u64,
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable (including stale evictions).
    pub misses: u64,
    /// Entries evicted on lookup because the sample window had moved.
    pub stale_evictions: u64,
    /// Entries purged by a topology-epoch bump.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hits over lookups, 0 when nothing was ever looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cache proper. `BTreeMap` keeps iteration (and therefore purge
/// order) deterministic, like every other map on a traced path.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: BTreeMap<PlanKey, CacheEntry>,
    stats: CacheStats,
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks up a live entry for `key` at the current window version.
    /// An entry computed against an older window is evicted here — a
    /// stale plan is never returned.
    pub fn lookup(&mut self, key: &PlanKey, window_version: u64) -> Option<&CacheEntry> {
        match self.entries.get(key) {
            Some(e) if e.window_version == window_version => {
                self.stats.hits += 1;
                self.entries.get(key)
            }
            Some(_) => {
                self.entries.remove(key);
                self.stats.stale_evictions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly planned entry.
    pub fn insert(&mut self, key: PlanKey, entry: CacheEntry) {
        self.entries.insert(key, entry);
    }

    /// Purges every entry from a topology epoch other than `current`.
    /// Such entries could never be looked up again (the epoch is part of
    /// the key); this keeps the cache from growing without bound and
    /// makes the invalidation observable in [`CacheStats`].
    pub fn invalidate(&mut self, current_topo_epoch: u64) {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.topo_epoch == current_topo_epoch);
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(topo: u64, k: u32, band: u64) -> PlanKey {
        PlanKey { topo_epoch: topo, k, band, subset: None }
    }

    fn entry(version: u64) -> CacheEntry {
        CacheEntry { plan: Plan::empty(4), expected_accuracy: 1.0, window_version: version }
    }

    #[test]
    fn hit_then_stale_eviction() {
        let mut c = PlanCache::new();
        c.insert(key(0, 2, 3), entry(5));
        assert!(c.lookup(&key(0, 2, 3), 5).is_some());
        // The window moved: the entry must not be served.
        assert!(c.lookup(&key(0, 2, 3), 6).is_none());
        assert!(c.is_empty(), "stale entry evicted");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale_evictions), (1, 1, 1));
    }

    #[test]
    fn topology_bump_purges_old_epochs() {
        let mut c = PlanCache::new();
        c.insert(key(0, 2, 3), entry(0));
        c.insert(key(0, 3, 3), entry(0));
        c.insert(key(1, 2, 3), entry(0));
        c.invalidate(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().invalidations, 2);
        assert!(c.lookup(&key(0, 2, 3), 0).is_none());
        assert!(c.lookup(&key(1, 2, 3), 0).is_some());
    }

    #[test]
    fn subset_keys_are_exact() {
        let mut c = PlanCache::new();
        let a = PlanKey { topo_epoch: 0, k: 1, band: 1, subset: Some(vec![1, 2]) };
        let b = PlanKey { topo_epoch: 0, k: 1, band: 1, subset: Some(vec![1, 3]) };
        c.insert(a.clone(), entry(0));
        assert!(c.lookup(&a, 0).is_some());
        assert!(c.lookup(&b, 0).is_none(), "different subsets never collide");
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
