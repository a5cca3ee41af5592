//! Epoch kinds, nearest-rank percentiles and the percentile guard.

use std::fmt;

/// What an epoch spent its time on. The kind sequence of a run is a pure
/// function of its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A full-network sweep feeding the sample window.
    Sweep,
    /// A plan was computed (installed or not).
    Plan,
    /// Nodes died and the tree was repaired (and re-planned).
    Repair,
    /// Continuous mode re-collected the whole network.
    Refresh,
    /// Everything else: execute the installed plan or ship deltas.
    Collect,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::Sweep, Kind::Plan, Kind::Repair, Kind::Refresh, Kind::Collect];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Plan => "plan",
            Kind::Repair => "repair",
            Kind::Refresh => "refresh",
            Kind::Collect => "collect",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (0 for an empty set).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples that must lie beyond the p99 rank.
pub const MIN_BEYOND_P99: usize = 10;

/// Share of a rank's window that may be of another kind than the rest.
/// A preempted epoch of a cheap kind can land anywhere, up to the top
/// rank; a rank that sits where two kinds meet puts far more than this
/// of the other kind in its window.
pub const MAX_STRAY_SHARE: f64 = 0.1;

/// The kind that holds the samples around one rank.
#[derive(Debug, Clone, Copy)]
pub struct RankKind {
    pub kind: Kind,
    /// Samples in the window of another kind.
    pub strays: usize,
}

/// Where the guard found the p50 and p99 ranks.
#[derive(Debug, Clone)]
pub struct GuardReport {
    pub samples: usize,
    pub beyond_p99: usize,
    pub p50: RankKind,
    pub p99: RankKind,
}

/// The percentile guard: at least [`MIN_BEYOND_P99`] samples beyond p99,
/// and the samples within ±1% of the p50 and p99 ranks of one kind, but
/// for at most [`MAX_STRAY_SHARE`] of them. A percentile that sits where
/// two kinds meet jumps between their time levels from run to run.
pub fn guard(walls_ms: &[f64], kinds: &[Kind]) -> Result<GuardReport, String> {
    assert_eq!(walls_ms.len(), kinds.len(), "one kind per epoch");
    let n = walls_ms.len();
    let r99 = rank(99.0, n);
    if n == 0 || n - r99 < MIN_BEYOND_P99 {
        return Err(format!(
            "{} of {n} samples lie beyond p99; need {MIN_BEYOND_P99}",
            n.saturating_sub(r99)
        ));
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| walls_ms[a].total_cmp(&walls_ms[b]));
    let reach = (n as f64 * 0.01).ceil() as usize;
    let window_kind = |p: f64| -> Result<RankKind, String> {
        let r = rank(p, n);
        let (lo, hi) = (r.saturating_sub(reach).max(1), (r + reach).min(n));
        let window = &order[lo - 1..hi];
        let count = |k: Kind| window.iter().filter(|&&i| kinds[i] == k).count();
        let kind = Kind::ALL.into_iter().max_by_key(|&k| count(k)).expect("kinds exist");
        let strays = window.len() - count(kind);
        if strays as f64 > MAX_STRAY_SHARE * window.len() as f64 {
            return Err(format!(
                "p{p} sits where kinds meet: ranks {lo}..={hi} of {n} hold {strays} samples besides {kind}"
            ));
        }
        Ok(RankKind { kind, strays })
    };
    let p50 = window_kind(50.0)?;
    let p99 = window_kind(99.0)?;
    Ok(GuardReport { samples: n, beyond_p99: n - r99, p50, p99 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn guard_accepts_separated_kinds_and_rejects_a_mixed_rank() {
        // 960 cheap collects, 40 expensive plans: p50 and p99 each sit
        // deep inside one kind.
        let mut walls: Vec<f64> = (0..960).map(|i| 1.0 + i as f64 * 1e-4).collect();
        walls.extend((0..40).map(|i| 20.0 + i as f64 * 1e-2));
        let mut kinds = vec![Kind::Collect; 960];
        kinds.extend([Kind::Plan; 40]);
        let report = guard(&walls, &kinds).expect("separated kinds pass");
        assert_eq!((report.p50.kind, report.p99.kind), (Kind::Collect, Kind::Plan));
        // One stalled collect among the plans is a stray, not a mix.
        let mut stalled = walls.clone();
        stalled[0] = 100.0;
        let report = guard(&stalled, &kinds).expect("a single stall passes");
        assert_eq!((report.p99.kind, report.p99.strays), (Kind::Plan, 1));
        // With only 1% plans, p99 lands on the boundary.
        let mut kinds = vec![Kind::Collect; 990];
        kinds.extend([Kind::Plan; 10]);
        let walls: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(guard(&walls, &kinds).is_err());
        // Too few samples beyond p99.
        assert!(guard(&walls[..500], &kinds[..500]).is_err());
    }
}
