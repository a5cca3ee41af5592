//! Seeded chaos harness for lossy collection (the ARQ subsystem's
//! contract, end to end).
//!
//! Sweeps loss rates × retry budgets × fault schedules with fixed seeds
//! and asserts the invariants the subsystem is built on:
//!
//! 1. **Zero-loss ARQ ≡ reliable execution, bit for bit** — with a
//!    trivial failure model, `execute_plan_arq` returns the same answer
//!    and the same `EnergyMeter` (total, per node, per phase, compared
//!    through `to_bits`) as `execute_plan`.
//! 2. **Energy exact to the attempt** — replaying each link's recorded
//!    `LinkAttempts` through the documented charging rule reproduces the
//!    meter exactly; every retransmission, backoff window and ack lands
//!    under `Phase::Retransmit`, first attempts under `Phase::Collection`.
//! 3. **Accuracy monotone in the retry budget** — per-(epoch, edge) RNG
//!    streams make a bigger budget replay a prefix of the same draws, so
//!    delivered links stay delivered; over the sweep at 20% uniform loss,
//!    hits over delivered + backfilled answers strictly increase with
//!    `max_retries`.
//! 4. **Parallel ≡ serial** — `expected_accuracy_under_loss` reduces
//!    integer per-sample counts, so every thread count returns the same
//!    bits.
//! 5. **No-surprises under combined chaos** — loss × retries × mid-run
//!    degradations, deaths and data faults, under periodic sampling and
//!    under the adaptive policy's exact audits: every epoch completes, all
//!    reported fractions stay in range, backfill only accompanies loss,
//!    retry escalation never shrinks, the cumulative meter equals the
//!    sum of per-epoch bills exactly, and the plausibility gate never
//!    flags or quarantines anything on schedules with no data faults
//!    (the false-positive guard).
//! 6. **Continuous mode survives the same chaos** — with the delta
//!    protocol active under loss × drift × degradations, deaths and data
//!    faults: the incrementally patched answer equals a recompute every
//!    epoch, the custody invariant holds (silence is never misread), a
//!    repair always forces a full refresh, refresh epochs ship no
//!    deltas, energy bills stay consistent, and a perfectly quiet
//!    network ships zero deltas outside refreshes.
//!
//! `CHAOS_FAST=1` (the CI profile) shrinks the sweep; the invariants are
//! identical in both profiles.

use prospector::core::evaluate::expected_accuracy_under_loss_with;
use prospector::core::{run_plan_lossy, Plan};
use prospector::data::{top_k_nodes, IndependentGaussian, SamplePolicy, SampleSet, ValueSource};
use prospector::net::{
    epoch_seed, topology, ArqPolicy, Backoff, DataFault, EnergyMeter, EnergyModel, FailureModel,
    FaultSchedule, NodeId, Phase, Topology,
};
use prospector::obs::{RingTracer, TraceEvent};
use prospector::sim::{
    backfill_answer, execute_plan, execute_plan_arq, ExperimentConfig, ExperimentRunner,
};
use prospector_testutil::{lossy_config, meters_bit_identical};

/// CI profile: a smaller sweep with the same invariants.
fn fast() -> bool {
    std::env::var_os("CHAOS_FAST").is_some()
}

/// Invariant 1: with a failure model that can never fail, the ARQ path is
/// the reliable path — same answer, same energy, down to the f64 bits.
#[test]
fn zero_loss_arq_is_bit_identical_to_reliable_execution() {
    let em = EnergyModel::mica2();
    let seeds: &[u64] = if fast() { &[7] } else { &[7, 88, 4242] };
    for t in [topology::balanced(3, 2), topology::balanced(2, 4)] {
        let n = t.len();
        let zero_loss = FailureModel::uniform(n, 0.0, 0.0);
        let k = 4;
        for plan in [Plan::naive_k(&t, k), Plan::full_sweep(&t)] {
            let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 31);
            for epoch in 0..if fast() { 4u64 } else { 12 } {
                let values = source.values(epoch);
                let reliable = execute_plan(&plan, &t, &em, &values, k, None);
                for &seed in seeds {
                    let arq = execute_plan_arq(
                        &plan,
                        &t,
                        &em,
                        &values,
                        k,
                        &zero_loss,
                        &ArqPolicy::default(),
                        epoch_seed(seed, epoch),
                    );
                    assert_eq!(arq.answer, reliable.answer);
                    assert!(arq.lost_edges.is_empty());
                    assert_eq!(arq.retransmissions, 0);
                    assert_eq!(arq.delivered_fraction, 1.0);
                    assert!(
                        meters_bit_identical(&arq.meter, &reliable.meter, n),
                        "zero-loss ARQ meter drifted from the reliable path \
                         (epoch {epoch}, seed {seed})"
                    );
                }
            }
        }
    }
}

/// Invariant 2: the meter is a pure function of the recorded link
/// attempts. Replaying the charging rule — trigger broadcasts, one
/// reliable unicast per used edge under Collection, `retries × batch +
/// backoff` plus a header ack for retried deliveries under Retransmit —
/// reproduces every counter bit for bit.
#[test]
fn energy_is_exact_to_the_attempt() {
    let t = topology::balanced(3, 3);
    let n = t.len();
    let em = EnergyModel::mica2();
    let k = 5;
    let plan = Plan::naive_k(&t, k);
    let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 5);
    let values = source.values(0);

    let rates: &[f64] = if fast() { &[0.3] } else { &[0.1, 0.3, 0.5, 1.0] };
    let budgets: &[u32] = if fast() { &[2] } else { &[0, 1, 2, 4] };
    let seeds: &[u64] = if fast() { &[11] } else { &[11, 97, 2026] };
    for &p in rates {
        let fm = FailureModel::uniform(n, p, 0.0);
        for &max_retries in budgets {
            for &policy in &[
                ArqPolicy { max_retries, backoff: Backoff::none() },
                ArqPolicy { max_retries, backoff: Backoff::mica2() },
            ] {
                for &seed in seeds {
                    let report = execute_plan_arq(&plan, &t, &em, &values, k, &fm, &policy, seed);
                    let out = run_plan_lossy(&plan, &t, &values, k, &fm, &policy, seed);

                    // Replay the documented charging rule in the same
                    // (trigger, then Topology::edges) order.
                    let mut expected = EnergyMeter::new(n);
                    for u in (0..n).map(NodeId::from_index) {
                        if plan.visits(&t, u) && t.children(u).iter().any(|&c| plan.is_used(c)) {
                            expected.charge(u, Phase::Trigger, em.broadcast());
                        }
                    }
                    let mut retransmissions = 0u32;
                    for e in t.edges() {
                        if !plan.is_used(e) {
                            continue;
                        }
                        let msg = em.unicast_values(out.sent[e.index()] as usize);
                        expected.charge(e, Phase::Collection, msg);
                        let hop = out.hops.iter().find(|h| h.edge == e);
                        let link = hop.expect("used edge has a record").link;
                        if link.attempts > 1 {
                            retransmissions += link.retries();
                            expected.charge(
                                e,
                                Phase::Retransmit,
                                link.retries() as f64 * msg + link.backoff_mj,
                            );
                            if link.delivered {
                                expected.charge(e, Phase::Retransmit, em.per_message_mj);
                            }
                        }
                    }
                    assert_eq!(report.retransmissions, retransmissions);
                    assert!(
                        meters_bit_identical(&report.meter, &expected, n),
                        "meter is not exact to the attempt (p={p}, retries={max_retries}, \
                         seed={seed})"
                    );
                    // Retry work never leaks into the reliable phases:
                    // Collection is exactly the first attempts.
                    let first_attempts: f64 = t
                        .edges()
                        .filter(|&e| plan.is_used(e))
                        .map(|e| em.unicast_values(out.sent[e.index()] as usize))
                        .sum();
                    assert_eq!(
                        report.meter.phase_total(Phase::Collection).to_bits(),
                        first_attempts.to_bits()
                    );
                    if max_retries == 0 {
                        assert_eq!(report.meter.phase_total(Phase::Retransmit), 0.0);
                    }
                }
            }
        }
    }
}

/// Invariant 3: at 20% uniform loss, hits over delivered + backfilled
/// answers, aggregated across the sweep, strictly increase with the
/// retry budget (per-edge draws for budget r are a prefix of budget
/// r + 1's, so no delivered link is ever lost by retrying more).
#[test]
fn accuracy_is_strictly_monotone_in_retry_budget_at_20pct_loss() {
    let t = topology::balanced(3, 3);
    let n = t.len();
    let k = 5;
    let plan = Plan::naive_k(&t, k);
    let fm = FailureModel::uniform(n, 0.2, 0.0);
    let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 77);

    // Warm a sample window so lost subtrees can be backfilled.
    let mut samples = SampleSet::new(n, k, 10);
    for epoch in 0..10u64 {
        samples.push(source.values(epoch));
    }

    let epochs: u64 = if fast() { 60 } else { 200 };
    let base_seeds: &[u64] = if fast() { &[3] } else { &[3, 41, 913] };
    let budgets = [0u32, 1, 2, 4];
    let mut total_hits = [0usize; 4];
    for (i, &max_retries) in budgets.iter().enumerate() {
        let policy = ArqPolicy { max_retries, backoff: Backoff::none() };
        for &base in base_seeds {
            for epoch in 0..epochs {
                let values = source.values(100 + epoch);
                let truth = top_k_nodes(&values, k);
                let out =
                    run_plan_lossy(&plan, &t, &values, k, &fm, &policy, epoch_seed(base, epoch));
                let entries = backfill_answer(&out.answer, &out.lost_edges, &plan, &t, &samples, k);
                total_hits[i] += entries.iter().filter(|e| truth.contains(&e.reading.node)).count();
            }
        }
    }
    assert!(
        total_hits.windows(2).all(|w| w[0] < w[1]),
        "hits must strictly increase with the retry budget: {total_hits:?}"
    );
}

/// Invariant 4: the loss-aware evaluator reduces integer per-sample
/// counts, so its result is the same bits at every thread count.
#[test]
fn lossy_evaluation_is_bit_identical_across_thread_counts() {
    let t = topology::balanced(3, 3);
    let n = t.len();
    let k = 5;
    let plan = Plan::naive_k(&t, k);
    let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 19);
    let mut samples = SampleSet::new(n, k, 12);
    for epoch in 0..12u64 {
        samples.push(source.values(epoch));
    }
    let rates: &[f64] = if fast() { &[0.2] } else { &[0.0, 0.2, 0.5] };
    for &p in rates {
        let fm = FailureModel::uniform(n, p, 0.0);
        for max_retries in [0u32, 3] {
            let policy = ArqPolicy { max_retries, ..ArqPolicy::default() };
            let serial =
                expected_accuracy_under_loss_with(&plan, &t, &samples, &fm, &policy, 87, 1);
            for threads in [2usize, 8] {
                let par = expected_accuracy_under_loss_with(
                    &plan, &t, &samples, &fm, &policy, 87, threads,
                );
                assert_eq!(
                    serial.to_bits(),
                    par.to_bits(),
                    "threads={threads}, p={p}, retries={max_retries}"
                );
            }
        }
    }
}

/// Invariant 5: the full epoch loop under combined chaos — uniform loss,
/// mid-run link degradations and a node death — completes every epoch
/// with all reported metrics in range, escalates its retry budget
/// monotonically, backfills only when something was lost, and bills
/// energy consistently (cumulative meter ≡ the sum of per-epoch bills).
#[test]
fn chaos_sweep_keeps_epoch_loop_invariants() {
    use prospector::core::FallbackPlanner;

    fn schedules(t: &Topology) -> Vec<(&'static str, FaultSchedule)> {
        let mut degradations = FaultSchedule::new();
        for e in t.edges() {
            degradations = degradations.with_degradation(14, e, 0.25);
        }
        let victim = t.children(t.root())[0];
        let combined = degradations.clone().with_death(20, victim);
        // Everything at once: degradations, a death, a stuck sensor, a
        // noisy sensor. The stuck level rides high enough to hijack
        // forwarding slots, so the gate actually sees it under loss.
        let everything = combined
            .clone()
            .with_data_fault(10, t.children(t.root())[1], DataFault::StuckAt { level: 500.0 }, 8)
            .with_data_fault(16, t.children(t.root())[2], DataFault::Noise { amplitude: 80.0 }, 6)
            .with_noise_seed(87);
        vec![
            ("none", FaultSchedule::new()),
            ("degradations", degradations),
            ("degradations+death", combined),
            ("degradations+death+data", everything),
        ]
    }

    let t = topology::balanced(3, 2);
    let n = t.len();
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let epochs: u64 = if fast() { 30 } else { 48 };
    let rates: &[f64] = if fast() { &[0.3] } else { &[0.1, 0.3] };
    let budgets: &[u32] = if fast() { &[1] } else { &[0, 2] };
    // The sampling dimension: the fixture's periodic sweeps, and the
    // adaptive policy, whose exact audits on some query epochs move the
    // sweep period.
    let periodic = lossy_config(n, 0.0, 0, FaultSchedule::new()).policy;
    let adaptive = SamplePolicy::Adaptive { warmup: 5, audit_every: 4, accuracy_floor: 0.8 };
    let runs = |t: &Topology| {
        let policies = [("periodic", &periodic), ("adaptive", &adaptive)];
        schedules(t).into_iter().flat_map(move |(name, faults)| {
            policies.map(|(sampling, policy)| (name, sampling, policy.clone(), faults.clone()))
        })
    };
    for &p in rates {
        for &max_retries in budgets {
            for (name, sampling, policy, faults) in runs(&t) {
                let name = format!("{name}, {sampling}");
                let has_data_faults = faults.has_data_faults();
                let config = ExperimentConfig { policy, ..lossy_config(n, p, max_retries, faults) };
                let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 87);
                let mut runner = ExperimentRunner::new(&t, &em, &planner, config);
                let mut tracer = RingTracer::new(1 << 16);
                let reports = runner
                    .run_to(&mut source, epochs, &mut tracer)
                    .unwrap_or_else(|e| panic!("chaos run aborted ({name}, p={p}): {e:?}"));
                assert_eq!(reports.len(), epochs as usize);
                // Audits run exactly when the policy asks for them.
                let audits = tracer.events().filter(|e| matches!(e, TraceEvent::Audit { .. }));
                assert_eq!(audits.count() > 0, sampling == "adaptive", "{name}: audits");

                let mut billed = 0.0f64;
                let mut last_budget = 0u32;
                for r in &reports {
                    billed += r.energy_mj;
                    assert!((0.0..=1.0).contains(&r.accuracy), "{name}: {r:?}");
                    assert!((0.0..=1.0).contains(&r.delivered_fraction), "{name}: {r:?}");
                    assert!(r.backfilled <= 3, "never more estimates than k: {r:?}");
                    assert!(
                        r.lost_edges > 0 || r.backfilled == 0,
                        "backfill only accompanies loss: {r:?}"
                    );
                    assert!(r.flagged <= n && r.quarantined <= n, "{name}: {r:?}");
                    if !has_data_faults {
                        // False-positive guard: with gating enabled but
                        // no data faults scheduled, the gate must stay
                        // silent — loss, deaths and degradations alone
                        // never flag, quarantine or readmit anything.
                        assert_eq!(
                            (r.flagged, r.quarantined, r.readmitted),
                            (0, 0, 0),
                            "{name}: gate fired without data faults: {r:?}"
                        );
                    }
                    if !r.sampled {
                        assert!(r.retry_budget >= last_budget, "{name}: escalation never shrinks");
                        last_budget = r.retry_budget;
                    }
                }
                assert_eq!(
                    billed.to_bits(),
                    runner.meter().total().to_bits(),
                    "{name}: cumulative meter must equal the sum of epoch bills"
                );
                // Loss with a retry budget exercises (and bills) the ARQ.
                if max_retries > 0 {
                    assert!(runner.meter().phase_total(Phase::Retransmit) > 0.0, "{name}");
                }
                // And a schedule with data faults exercises the gate: a
                // stuck-high reading wins forwarding slots, so some epoch
                // delivers it to the root and gets it flagged.
                if has_data_faults {
                    assert!(
                        reports.iter().map(|r| r.flagged).sum::<usize>() > 0,
                        "{name}: data faults never reached the gate (p={p})"
                    );
                }
            }
        }
    }
}

/// Invariant 6: the continuous protocol under combined chaos — loss,
/// drift, mid-run degradations, a death and a stuck sensor. Every epoch
/// the root's incrementally patched answer must equal a from-scratch
/// sort of its cached view, silence must be accounted for in custody,
/// repairs must force full refreshes, and the billing contract of the
/// classic loop carries over unchanged.
#[test]
fn continuous_mode_keeps_chaos_invariants() {
    use prospector::core::{ContinuousPolicy, FallbackPlanner, SketchPrecision};
    use prospector::data::DriftField;

    fn schedules(t: &Topology) -> Vec<(&'static str, FaultSchedule)> {
        let mut degradations = FaultSchedule::new();
        for e in t.edges() {
            degradations = degradations.with_degradation(10, e, 0.25);
        }
        let everything = degradations
            .with_death(14, t.children(t.root())[0])
            .with_data_fault(8, t.children(t.root())[1], DataFault::StuckAt { level: 500.0 }, 6)
            .with_noise_seed(87);
        vec![("none", FaultSchedule::new()), ("degradations+death+data", everything)]
    }

    let t = topology::balanced(3, 2);
    let n = t.len();
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let epochs: u64 = if fast() { 24 } else { 40 };
    let rates: &[f64] = if fast() { &[0.0, 0.3] } else { &[0.0, 0.1, 0.3] };
    let drifts: &[f64] = if fast() { &[0.0, 0.2] } else { &[0.0, 0.2, 1.0] };
    for &p in rates {
        for &change_prob in drifts {
            for (name, faults) in schedules(&t) {
                let is_quiet = p == 0.0 && change_prob == 0.0 && name == "none";
                let mut config = lossy_config(n, p, 2, faults);
                config.continuous = Some(ContinuousPolicy {
                    tolerance: 0.25,
                    refresh_period: 6,
                    sketch: Some(SketchPrecision { depth: 8, compression: 8, lo: 0.0, hi: 100.0 }),
                });
                let k = config.k;
                let mut source = DriftField::random(n, 40.0..60.0, 1.0..4.0, change_prob, 87);
                let mut runner = ExperimentRunner::new(&t, &em, &planner, config);
                let mut billed = 0.0f64;
                for epoch in 0..epochs {
                    let r = runner
                        .step(&mut source, epoch)
                        .unwrap_or_else(|e| panic!("continuous chaos ({name}, p={p}): {e:?}"));
                    billed += r.energy_mj;
                    assert!((0.0..=1.0).contains(&r.accuracy), "{name}: {r:?}");
                    assert!((0.0..=1.0).contains(&r.delivered_fraction), "{name}: {r:?}");
                    if r.repaired {
                        assert!(r.full_refresh, "{name}: a repair must force a refresh: {r:?}");
                    }
                    if r.full_refresh {
                        assert_eq!(r.deltas_shipped, 0, "{name}: refreshes ship no deltas: {r:?}");
                    }
                    if is_quiet && !r.full_refresh {
                        assert_eq!(
                            r.deltas_shipped, 0,
                            "quiet network shipped a delta at epoch {epoch}: {r:?}"
                        );
                    }
                    let state = runner.continuous_state().expect("continuous mode");
                    let (patched, full) = (state.answer(k), state.recompute_answer(k));
                    assert_eq!(patched.len(), full.len(), "{name}: epoch {epoch}");
                    for (x, y) in patched.iter().zip(&full) {
                        assert_eq!(x.node, y.node, "{name}: epoch {epoch}");
                        assert_eq!(x.value.to_bits(), y.value.to_bits(), "{name}: epoch {epoch}");
                    }
                    assert!(
                        state.custody_invariant_holds(runner.alive(), t.root()),
                        "{name}: silence unaccounted for at epoch {epoch}"
                    );
                }
                assert_eq!(
                    billed.to_bits(),
                    runner.meter().total().to_bits(),
                    "{name}: cumulative meter must equal the sum of epoch bills"
                );
            }
        }
    }
}

/// Invariant 7: the quarantine gauge every report carries is the count
/// the runner keeps as trust changes, and it must equal a scan of the
/// trust states (read from the runner's checkpoint image) after every
/// epoch: through the `data_fault` golden's quarantine and parole, and
/// through the chaos sweep's combined schedule under both sampling
/// policies, resuming from a checkpoint mid-run.
#[test]
fn quarantine_gauge_matches_a_scan_of_trust_states() {
    use prospector::core::FallbackPlanner;
    use prospector::sim::Checkpoint;
    use prospector_testutil::golden;

    fn scan(ckpt: &Checkpoint) -> usize {
        ckpt.trust.iter().filter(|t| t.is_quarantined()).count()
    }

    let sc = golden::scenario("data_fault");
    let mut source = sc.source();
    let mut runner = sc.runner();
    let mut peak = 0;
    for epoch in 0..golden::EPOCHS {
        let report = runner.step(&mut source, epoch).expect("data_fault runs");
        assert_eq!(report.quarantined, scan(&runner.checkpoint()), "data_fault epoch {epoch}");
        peak = peak.max(report.quarantined);
    }
    assert!(peak > 0, "the data_fault golden quarantines a node");

    let t = topology::balanced(3, 2);
    let n = t.len();
    let em = EnergyModel::mica2();
    let planner = FallbackPlanner::standard();
    let faults = FaultSchedule::new()
        .with_death(20, t.children(t.root())[0])
        .with_data_fault(10, t.children(t.root())[1], DataFault::StuckAt { level: 500.0 }, 8)
        .with_data_fault(16, t.children(t.root())[2], DataFault::Noise { amplitude: 80.0 }, 6)
        .with_noise_seed(87);
    let adaptive = SamplePolicy::Adaptive { warmup: 5, audit_every: 4, accuracy_floor: 0.8 };
    let periodic = lossy_config(n, 0.0, 0, FaultSchedule::new()).policy;
    for policy in [periodic, adaptive] {
        let config = ExperimentConfig { policy, ..lossy_config(n, 0.3, 1, faults.clone()) };
        let mut source = IndependentGaussian::random(n, 40.0..60.0, 1.0..4.0, 87);
        let mut runner = ExperimentRunner::new(&t, &em, &planner, config);
        let mut peak = 0;
        for epoch in 0..48 {
            if epoch == 24 {
                // A resumed runner rebuilds the count from the image.
                runner = ExperimentRunner::resume(runner.checkpoint(), &em, &planner).unwrap();
            }
            let report = runner.step(&mut source, epoch).expect("chaos run");
            assert_eq!(report.quarantined, scan(&runner.checkpoint()), "epoch {epoch}");
            peak = peak.max(report.quarantined);
        }
        assert!(peak > 0, "the stuck sensor is quarantined at some epoch");
    }
}
