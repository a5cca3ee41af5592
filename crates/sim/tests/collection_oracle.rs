//! The energy ledgers walk a plan's footprint (its used edges, its
//! trigger broadcasters and its charged nodes). This pins them to the
//! whole-tree scans they replaced, kept below as the oracle: on random
//! trees, plans, deaths, losses and retry budgets, the reliable path, the
//! ARQ path and the exploration sweep must produce the same answer, the
//! same meter bit for bit (every node, every phase, the total) and the
//! same event stream. A sweep's bill is built once per tree and alive set
//! and replayed, so it is checked against a fresh scan on every replay.
//!
//! The oracle prices the collection kernel's outcome; that the counting
//! kernel's outcome equals the merge-everything kernel's is pinned in
//! `prospector-core` (`exec::tests`, the `merge_oracle` proptests).

use proptest::prelude::*;
use prospector_core::{run_plan, run_plan_lossy, Plan};
use prospector_data::SampleSet;
use prospector_net::{
    ArqPolicy, Backoff, EnergyMeter, EnergyModel, FailureModel, LinkAttempts, NodeId, Phase,
    Topology,
};
use prospector_obs::{NullTracer, RingTracer, TraceEvent, Tracer};
use prospector_sim::{apply_deaths, execute_plan_arq_traced, execute_plan_traced, Sweep};
use prospector_testutil::random_tree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The ledgers as they were: every one scans the whole tree, and ARQ hops
/// are read from per-node records.
mod scan {
    use super::*;

    pub fn charge(
        meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
        node: NodeId,
        phase: Phase,
        mj: f64,
    ) {
        meter.charge(node, phase, mj);
        tracer.record(TraceEvent::Energy { node: node.0, phase: phase.name(), mj });
    }

    pub fn trigger(
        plan: &Plan,
        topology: &Topology,
        energy: &EnergyModel,
        meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) {
        for u in (0..topology.len()).map(NodeId::from_index) {
            if plan.visits(topology, u) && topology.children(u).iter().any(|&c| plan.is_used(c)) {
                charge(meter, tracer, u, Phase::Trigger, energy.broadcast());
            }
        }
    }

    pub fn collection(
        sent: &[u32],
        plan: &Plan,
        topology: &Topology,
        energy: &EnergyModel,
        meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
        mut failures: Option<(&FailureModel, &mut StdRng)>,
    ) {
        for e in topology.edges().filter(|&e| plan.is_used(e)) {
            let msg = energy.unicast_values(sent[e.index()] as usize);
            charge(meter, tracer, e, Phase::Collection, msg);
            if let Some((fm, rng)) = failures.as_mut() {
                if fm.sample_failure(e, rng) {
                    charge(meter, tracer, e, Phase::Rerouting, fm.reroute_penalty());
                }
            }
        }
    }

    /// Returns the retransmissions and the lost edges.
    pub fn links(
        topology: &Topology,
        energy: &EnergyModel,
        sent: &[u32],
        links: &[Option<LinkAttempts>],
        meter: &mut EnergyMeter,
        tracer: &mut dyn Tracer,
    ) -> (u32, Vec<NodeId>) {
        let (mut retransmissions, mut lost) = (0, Vec::new());
        for e in topology.edges() {
            let Some(link) = links[e.index()] else { continue };
            let msg = energy.unicast_values(sent[e.index()] as usize);
            charge(meter, tracer, e, Phase::Collection, msg);
            let acked = link.attempts > 1 && link.delivered;
            if link.attempts > 1 {
                let retries = link.retries() as f64 * msg + link.backoff_mj;
                charge(meter, tracer, e, Phase::Retransmit, retries);
                if acked {
                    charge(meter, tracer, e, Phase::Retransmit, energy.per_message_mj);
                }
            }
            retransmissions += link.retries();
            if !link.delivered {
                lost.push(e);
            }
            tracer.record(TraceEvent::LinkDelivery {
                child: e.0,
                sent_values: sent[e.index()],
                attempts: link.attempts,
                delivered: link.delivered,
                acked,
                backoff_mj: link.backoff_mj,
            });
        }
        (retransmissions, lost)
    }

    pub fn charge_as(
        dst: &mut EnergyMeter,
        src: &EnergyMeter,
        phase: Phase,
        tracer: &mut dyn Tracer,
    ) -> f64 {
        let mut total = 0.0;
        for (i, &mj) in src.node_totals().iter().enumerate() {
            if mj > 0.0 {
                charge(dst, tracer, NodeId::from_index(i), phase, mj);
                total += mj;
            }
        }
        total
    }
}

/// One epoch's world: a tree with some nodes dead (repaired, parked as
/// leaves, reading −∞), a plan (a full sweep, NAIVE-k or random
/// bandwidths with orphaned used edges, usually with the dead masked out)
/// and k up to beyond n.
struct World {
    topology: Topology,
    alive: Vec<bool>,
    plan: Plan,
    values: Vec<f64>,
    k: usize,
}

fn random_world(rng: &mut StdRng) -> World {
    let n = rng.random_range(1..40usize);
    let mut topology = random_tree(rng, n);
    let mut values: Vec<f64> = (0..n)
        .map(|_| match rng.random_range(0..16u32) {
            0 => f64::NAN,
            _ => rng.random_range(0..8u32) as f64,
        })
        .collect();
    let dead: Vec<NodeId> = topology.edges().filter(|_| rng.random_bool(0.1)).collect();
    let mut alive = vec![true; n];
    if !dead.is_empty() {
        topology = topology.repair(&dead).unwrap();
        for d in &dead {
            alive[d.index()] = false;
            values[d.index()] = f64::NEG_INFINITY;
        }
    }
    let mut plan = match rng.random_range(0..4u32) {
        0 => Plan::full_sweep(&topology),
        1 => Plan::naive_k(&topology, rng.random_range(1..4usize)),
        _ => {
            let mut plan = Plan::empty(n);
            for e in topology.edges() {
                if rng.random_bool(0.7) {
                    plan.set_bandwidth(e, rng.random_range(1..=topology.subtree_size(e) as u32));
                }
            }
            plan
        }
    };
    if rng.random_bool(0.8) {
        for d in &dead {
            plan.set_bandwidth(*d, 0);
        }
    }
    let k = rng.random_range(0..=n + 2);
    World { topology, alive, plan, values, k }
}

fn meter_bits(m: &EnergyMeter) -> (Vec<u64>, Vec<u64>, u64) {
    let nodes = m.node_totals().iter().map(|v| v.to_bits()).collect();
    let phases = Phase::ALL.iter().map(|&p| m.phase_total(p).to_bits()).collect();
    (nodes, phases, m.total().to_bits())
}

fn answer_bits(answer: &[prospector_data::Reading]) -> Vec<(NodeId, u64)> {
    answer.iter().map(|r| (r.node, r.value.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reliable_ledgers_match_the_scans(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_world(&mut rng);
        let em = EnergyModel::mica2();
        let fm = FailureModel::uniform(w.topology.len(), 0.3, 2.5);
        let inject = rng.random_bool(0.5);
        let rng_seed = rng.random_range(0..u64::MAX);
        let (mut a, mut b) = (StdRng::seed_from_u64(rng_seed), StdRng::seed_from_u64(rng_seed));

        let mut tracer = RingTracer::new(1 << 12);
        let failures = inject.then_some((&fm, &mut a));
        let report =
            execute_plan_traced(&w.plan, &w.topology, &em, &w.values, w.k, failures, &mut tracer);
        let got = tracer.take();

        let mut meter = EnergyMeter::new(w.topology.len());
        scan::trigger(&w.plan, &w.topology, &em, &mut meter, &mut tracer);
        let out = run_plan(&w.plan, &w.topology, &w.values, w.k);
        let failures = inject.then_some((&fm, &mut b));
        scan::collection(&out.sent, &w.plan, &w.topology, &em, &mut meter, &mut tracer, failures);

        prop_assert_eq!(answer_bits(&report.answer), answer_bits(&out.answer), "seed {}", seed);
        prop_assert_eq!(meter_bits(&report.meter), meter_bits(&meter), "seed {}", seed);
        prop_assert_eq!(got, tracer.take(), "seed {}", seed);
    }

    #[test]
    fn arq_ledgers_match_the_scans(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_world(&mut rng);
        let n = w.topology.len();
        let em = EnergyModel::mica2();
        let probs: Vec<f64> =
            (0..n).map(|_| [0.0, 0.2, 0.5, 1.0][rng.random_range(0..4usize)]).collect();
        let fm = FailureModel::per_edge(n, probs, 0.0).unwrap();
        let policy = ArqPolicy { max_retries: rng.random_range(0..4u32), backoff: Backoff::mica2() };
        let link_seed = rng.random_range(0..u64::MAX);

        let mut tracer = RingTracer::new(1 << 12);
        let report = execute_plan_arq_traced(
            &w.plan, &w.topology, &em, &w.values, w.k, &fm, &policy, link_seed, &mut tracer,
        );
        let got = tracer.take();

        let mut meter = EnergyMeter::new(n);
        scan::trigger(&w.plan, &w.topology, &em, &mut meter, &mut tracer);
        let out = run_plan_lossy(&w.plan, &w.topology, &w.values, w.k, &fm, &policy, link_seed);
        let mut links = vec![None; n];
        for h in &out.hops {
            links[h.edge.index()] = Some(h.link);
        }
        let (retransmissions, lost) =
            scan::links(&w.topology, &em, &out.sent, &links, &mut meter, &mut tracer);

        prop_assert_eq!(answer_bits(&report.answer), answer_bits(&out.answer), "seed {}", seed);
        prop_assert_eq!(meter_bits(&report.meter), meter_bits(&meter), "seed {}", seed);
        prop_assert_eq!(got, tracer.take(), "seed {}", seed);
        prop_assert_eq!(report.retransmissions, retransmissions);
        prop_assert_eq!(&report.lost_edges, &lost);
        prop_assert_eq!(report.delivered_fraction.to_bits(), out.delivered_fraction.to_bits());
    }

    #[test]
    fn sweep_bill_matches_the_scans(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = random_world(&mut rng);
        let n = w.topology.len();
        let em = EnergyModel::mica2();
        // Both sides bill onto a meter that already holds an epoch's
        // earlier charges.
        let mut earlier = EnergyMeter::new(n);
        for i in 0..n {
            if rng.random_bool(0.3) {
                earlier.charge(NodeId::from_index(i), Phase::Repair, rng.random_range(0.0..5.0));
            }
        }
        // The scans price the masked full sweep afresh and re-attribute
        // it node by node.
        let mut tracer = RingTracer::new(1 << 12);
        let check = |sweep: &Sweep, w: &World, values: &[f64], tracer: &mut RingTracer| {
            let mut meter = earlier.clone();
            let billed = sweep.charge(&mut meter, tracer);
            let got = tracer.take();

            let mut scanned = Plan::full_sweep(&w.topology);
            for e in w.topology.edges().filter(|e| !w.alive[e.index()]) {
                scanned.set_bandwidth(e, 0);
            }
            let mut bill = EnergyMeter::new(n);
            scan::trigger(&scanned, &w.topology, &em, &mut bill, &mut NullTracer);
            let out = run_plan(&scanned, &w.topology, values, 1);
            let sent = &out.sent;
            scan::collection(sent, &scanned, &w.topology, &em, &mut bill, &mut NullTracer, None);
            let mut want = earlier.clone();
            let total = scan::charge_as(&mut want, &bill, Phase::Sampling, tracer);

            prop_assert_eq!(billed.to_bits(), total.to_bits(), "seed {}", seed);
            prop_assert_eq!(meter_bits(&meter), meter_bits(&want), "seed {}", seed);
            prop_assert_eq!(got, tracer.take(), "seed {}", seed);
        };

        // One sweep billed twice, on two epochs' readings: the bill never
        // reads them.
        let sweep = Sweep::new(&w.topology, &w.alive, &em);
        check(&sweep, &w, &w.values, &mut tracer);
        let mut later: Vec<f64> = (0..n).map(|_| rng.random_range(-4.0..12.0)).collect();
        prospector_sim::mask_dead_values(&mut later, &w.alive);
        check(&sweep, &w, &later, &mut tracer);

        // A death wave changes the tree and the alive set; the sweep
        // rebuilt on the repaired tree bills what the scans price there.
        let wave: Vec<NodeId> = w.topology.edges().filter(|_| rng.random_bool(0.2)).collect();
        let mut samples = SampleSet::new(n, 1, 1);
        let mut repairs = EnergyMeter::new(n);
        apply_deaths(
            &wave,
            &mut w.topology,
            &mut w.alive,
            &mut samples,
            &em,
            &mut repairs,
            &mut NullTracer,
        )
        .unwrap();
        prospector_sim::mask_dead_values(&mut later, &w.alive);
        let sweep = Sweep::new(&w.topology, &w.alive, &em);
        check(&sweep, &w, &later, &mut tracer);
    }
}
