//! Exploration/exploitation sampling (Section 3) and its energy cost.
//!
//! "At randomly chosen timesteps, we spend more energy to collect all
//! values in the network and use them as a sample. The most recent samples
//! are maintained and used in optimization."

use crate::stats::mix_seed;
use prospector_net::{EnergyModel, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// When to pay for a full-network sweep that feeds the sample window.
#[derive(Debug, Clone)]
pub enum SamplePolicy {
    /// Collect the first `warmup` epochs, then every `period`-th epoch.
    Periodic { warmup: u64, period: u64 },
    /// Collect the first `warmup` epochs, then each epoch independently
    /// with probability `prob` (the exploration/exploitation scheme).
    Random { warmup: u64, prob: f64, seed: u64 },
    /// Never sample (plans run on whatever the window already holds).
    Never,
    /// Adaptive re-sampling (Section 4.4): collect the first `warmup`
    /// epochs, then when the query epochs since the last sweep reach the
    /// period. Query epochs numbered a multiple of `audit_every` run an
    /// exact audit, which halves the period when the answer scores below
    /// `accuracy_floor` and lengthens it otherwise.
    Adaptive { warmup: u64, audit_every: u64, accuracy_floor: f64 },
}

impl SamplePolicy {
    /// Should epoch `epoch` be spent on a full sweep? `since_sweep`
    /// counts the query epochs since the last sweep and `sweep_period` is
    /// the period the audits have set; only [`SamplePolicy::Adaptive`]
    /// reads them.
    pub fn should_sample(&self, epoch: u64, since_sweep: u64, sweep_period: u64) -> bool {
        match *self {
            SamplePolicy::Periodic { warmup, period } => {
                epoch < warmup || (period > 0 && epoch.is_multiple_of(period))
            }
            SamplePolicy::Random { warmup, prob, seed } => {
                if epoch < warmup {
                    true
                } else {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, epoch, 0x5A11));
                    prob > 0.0 && rng.random_bool(prob.min(1.0))
                }
            }
            SamplePolicy::Never => false,
            SamplePolicy::Adaptive { warmup, .. } => epoch < warmup || since_sweep >= sweep_period,
        }
    }
}

/// Energy cost (mJ) of one full-network sweep: every edge carries every
/// value in its subtree to the root in one message per edge (the cheapest
/// exact full collection).
pub fn full_sweep_cost(topology: &Topology, energy: &EnergyModel) -> f64 {
    topology.edges().map(|e| energy.unicast_values(topology.subtree_size(e))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_net::topology::{chain, star};

    #[test]
    fn periodic_policy() {
        let p = SamplePolicy::Periodic { warmup: 3, period: 10 };
        assert!(p.should_sample(0, 0, 0));
        assert!(p.should_sample(2, 0, 0));
        assert!(!p.should_sample(3, 0, 0));
        assert!(p.should_sample(10, 0, 0));
        assert!(!p.should_sample(11, 0, 0));
    }

    #[test]
    fn random_policy_rate() {
        let p = SamplePolicy::Random { warmup: 0, prob: 0.2, seed: 7 };
        let hits = (0..10_000).filter(|&e| p.should_sample(e, 0, 0)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
        // Deterministic per epoch.
        assert_eq!(p.should_sample(42, 0, 0), p.should_sample(42, 0, 0));
    }

    #[test]
    fn never_policy() {
        assert!(!SamplePolicy::Never.should_sample(0, 0, 0));
    }

    #[test]
    fn adaptive_policy_sweeps_when_the_period_runs_out() {
        let p = SamplePolicy::Adaptive { warmup: 3, audit_every: 4, accuracy_floor: 0.8 };
        assert!(p.should_sample(2, 5, 12), "warm-up sweeps whatever the period");
        assert!(!p.should_sample(3, 11, 12));
        assert!(p.should_sample(3, 12, 12));
        assert!(p.should_sample(40, 2, 2), "the period, not the epoch, decides");
    }

    #[test]
    fn sweep_cost_chain_vs_star() {
        let em = EnergyModel::mica2();
        // Chain of 4: edges carry 3, 2, 1 values → 3 messages + 6 values.
        let c = full_sweep_cost(&chain(4), &em);
        let expect = 3.0 * em.per_message_mj + 6.0 * em.per_value();
        assert!((c - expect).abs() < 1e-9);
        // Star of 4: edges carry 1 value each → 3 messages + 3 values.
        let s = full_sweep_cost(&star(4), &em);
        let expect = 3.0 * em.per_message_mj + 3.0 * em.per_value();
        assert!((s - expect).abs() < 1e-9);
        assert!(c > s, "deep topologies pay more per sweep");
    }
}
