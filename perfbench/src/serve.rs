//! The `serve_mix` workload: seeded `QUERY`/`TICK` lines from 4 tenants,
//! fed to `Repl::handle_line` (timed) or parsed and served through
//! `QueryService::begin_epoch` and `serve_batch` (traced).

use crate::layers::{ms_since, LayerTracer, Probes};
use crate::planner::{SharedLog, TimedPlanner};
use crate::stats::{mean, median, Kind};
use crate::{instance_seed, Checks, Epoch, Profile, Shape};
use prospector_data::{top_k_nodes, IndependentGaussian, ValueSource};
use prospector_net::{EnergyModel, NetworkBuilder, NodeId};
use prospector_obs::{NullTracer, Tracer};
use prospector_serve::{parse_line, Command, QueryService, Repl, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Network size and requests per epoch, shaped like `serve --loadgen`.
fn shape(profile: Profile) -> (usize, usize) {
    match profile {
        Profile::Full => (120, 48),
        Profile::Fast => (30, 16),
    }
}

/// `QUERY` lines per epoch.
pub fn queries_per_epoch(profile: Profile) -> u64 {
    shape(profile).1 as u64
}

/// Window samples the service needs before it plans.
const MIN_HISTORY: usize = 2;

/// The service refreshes its window every this many epochs.
const SAMPLE_EVERY: u64 = 4;

/// Set-up is over once the window holds `MIN_HISTORY` samples and the
/// next epoch refreshes it, so the first timed epoch plans every key
/// together with a refresh, as every later refresh epoch does.
fn warm(window_len: usize, next_epoch: u64) -> bool {
    window_len >= MIN_HISTORY && next_epoch.is_multiple_of(SAMPLE_EVERY)
}

fn service(profile: Profile, seed: u64, log: SharedLog) -> QueryService {
    let (nodes, per_epoch) = shape(profile);
    let side = 40.0 * (nodes as f64).sqrt();
    let network = NetworkBuilder::new(nodes, side, side, 70.0)
        .seed(seed)
        .build()
        .expect("seeded placement connects");
    let config = ServiceConfig {
        window: 8,
        min_history: MIN_HISTORY,
        band_width_mj: 5.0,
        epoch_budget_mj: per_epoch as f64 * 12.0,
        max_k: 8,
        // The window, and with it every cached plan, refreshes every 4th
        // epoch; between refreshes repeated (k, band) pairs hit.
        sample_every: SAMPLE_EVERY,
        cache: true,
        failures: None,
    };
    QueryService::new(
        network.topology,
        EnergyModel::mica2(),
        Box::new(TimedPlanner::new(log)),
        config,
    )
    .expect("serve_mix config is valid")
}

fn source(profile: Profile, seed: u64) -> IndependentGaussian {
    IndependentGaussian::random(shape(profile).0, 40.0..60.0, 1.0..4.0, seed ^ 0x5eed)
}

/// The refusal a query line asks for, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Served, or refused once the epoch's energy ledger runs dry.
    Served,
    DeadlineExpired,
    BudgetBelowBand,
}

/// One seeded query line and what it should get back.
struct Query {
    id: u64,
    k: usize,
    line: String,
    expect: Expect,
}

const KS: [usize; 3] = [2, 3, 4];
const BUDGETS: [f64; 4] = [10.0, 15.0, 22.0, 30.0];

/// The seeded request stream. Each batch opens with every (k, budget)
/// pair once, in a seeded order, so every cache key is planned in the
/// epoch that refreshes the window and only there; the rest repeat pairs
/// from the same pools, with a sliver of sub-band budgets and deadlines.
struct Requests {
    rng: StdRng,
    next_id: u64,
    per_epoch: usize,
}

impl Requests {
    fn new(profile: Profile, seed: u64) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(seed ^ 0x10ad),
            next_id: 0,
            per_epoch: shape(profile).1,
        }
    }

    fn query(&mut self, epoch: u64, k: usize, budget: f64, extras: bool) -> Query {
        self.next_id += 1;
        let rng = &mut self.rng;
        let tenant = rng.random_range(0u32..4);
        let mut expect = Expect::Served;
        let budget = if extras && rng.random_bool(0.04) {
            expect = Expect::BudgetBelowBand;
            1.0
        } else {
            budget
        };
        let mut line = format!("QUERY {} {tenant} k={k} budget={budget}", self.next_id);
        if extras && rng.random_bool(0.1) {
            // Half of the deadlines have already passed.
            let expired = rng.random_bool(0.5);
            if expired {
                expect = Expect::DeadlineExpired;
            }
            line.push_str(&format!(
                " deadline={}",
                if expired { epoch.saturating_sub(1) } else { epoch }
            ));
        }
        Query { id: self.next_id, k, line, expect }
    }

    fn batch(&mut self, epoch: u64) -> Vec<Query> {
        let mut pairs: Vec<(usize, f64)> =
            KS.iter().flat_map(|&k| BUDGETS.map(|b| (k, b))).collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, self.rng.random_range(0..=i));
        }
        let mut batch: Vec<Query> =
            pairs.into_iter().map(|(k, budget)| self.query(epoch, k, budget, false)).collect();
        while batch.len() < self.per_epoch {
            let k = KS[self.rng.random_range(0..KS.len())];
            let budget = BUDGETS[self.rng.random_range(0..BUDGETS.len())];
            batch.push(self.query(epoch, k, budget, true));
        }
        batch
    }
}

/// The timed path: a `Repl` over one `QueryService`.
pub struct Serve {
    repl: Repl<IndependentGaussian>,
    truth: IndependentGaussian,
    requests: Requests,
    epoch: u64,
    metered_mj: f64,
    misses: u64,
    pub checks: Checks,
}

impl Serve {
    /// Builds the service and ticks empty epochs until it is warm.
    pub fn setup(profile: Profile, seed: u64) -> Serve {
        let mut repl =
            Repl::new(service(profile, seed, SharedLog::default()), source(profile, seed));
        let mut epoch = 0;
        while !warm(repl.service().window_len(), epoch) {
            repl.handle_line("TICK");
            epoch += 1;
        }
        let metered_mj = repl.service().meter().total();
        let misses = repl.service().cache_stats().misses;
        Serve {
            repl,
            truth: source(profile, seed),
            requests: Requests::new(profile, seed),
            epoch,
            metered_mj,
            misses,
            checks: Checks::default(),
        }
    }

    /// One epoch: the batch's `QUERY` lines and its `TICK`, timed as one.
    pub fn step(&mut self) -> Epoch {
        let epoch = self.epoch;
        let batch = self.requests.batch(epoch);
        let mut queued = Vec::with_capacity(batch.len());
        let started = Instant::now();
        for q in &batch {
            queued.extend(self.repl.handle_line(&q.line));
        }
        let ticked = self.repl.handle_line("TICK");
        let wall_ms = ms_since(started);
        self.epoch += 1;
        self.score(epoch, &batch, &queued, &ticked, wall_ms)
    }

    /// Checks that every query got exactly one answer of the kind it
    /// asked for and scores the served ones against the epoch's true
    /// top k.
    fn score(
        &mut self,
        epoch: u64,
        batch: &[Query],
        queued: &[String],
        ticked: &[String],
        wall_ms: f64,
    ) -> Epoch {
        let checks = &mut self.checks;
        checks.expect(
            queued.len() == batch.len()
                && batch.iter().zip(queued).all(|(q, line)| *line == format!("QUEUED {}", q.id)),
            || format!("epoch {epoch}: QUERY lines were not each queued once"),
        );
        let (tick, answers) = ticked.split_last().expect("TICK answers at least its own line");
        checks.expect(tick.starts_with(&format!("TICK {epoch} ")), || {
            format!("epoch {epoch}: unexpected TICK line {tick:?}")
        });
        let truth = self.truth.values(epoch);
        let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
        let mut out = Epoch { wall_ms, queries: batch.len() as u64, ..Epoch::default() };
        for line in answers {
            let mut fields = line.split(' ');
            let status = fields.next().unwrap_or("");
            let id: Option<u64> = fields.next().and_then(|id| id.parse().ok());
            let code = fields.next().unwrap_or("");
            let Some(query) = id.and_then(|id| batch.iter().find(|q| q.id == id)) else {
                checks.expect(false, || format!("epoch {epoch}: answer for no query: {line:?}"));
                continue;
            };
            *seen.entry(query.id).or_default() += 1;
            match (status, query.expect, code) {
                ("OK", Expect::Served, _) => {
                    let top = top_k_nodes(&truth, query.k);
                    let hits = line
                        .rsplit_once("answer=")
                        .map(|(_, list)| list)
                        .unwrap_or("")
                        .split(',')
                        .filter_map(|entry| entry.split_once(':'))
                        .filter_map(|(node, _)| node.parse::<u32>().ok())
                        .filter(|&node| top.contains(&NodeId(node)))
                        .count();
                    out.accuracy_sum += hits as f64 / query.k as f64;
                    out.scored += 1;
                }
                ("ERR", Expect::Served, "energy-exhausted")
                | ("ERR", Expect::DeadlineExpired, "deadline-expired")
                | ("ERR", Expect::BudgetBelowBand, "budget-below-band") => out.refused += 1,
                ("ERR", Expect::Served, "plan-failed") => out.failed += 1,
                _ => checks.expect(false, || {
                    format!("epoch {epoch}: {:?} query got {line:?}", query.expect)
                }),
            }
        }
        checks.expect(batch.iter().all(|q| seen.get(&q.id) == Some(&1)), || {
            format!("epoch {epoch}: a QUERY did not get exactly one OK or ERR")
        });
        let service = self.repl.service();
        let metered = service.meter().total();
        let misses = service.cache_stats().misses;
        out.kind = if tick.contains(" sampled=1 ") {
            Kind::Sweep
        } else if misses > self.misses {
            Kind::Plan
        } else {
            Kind::Collect
        };
        out.energy_mj = metered - self.metered_mj;
        (self.metered_mj, self.misses) = (metered, misses);
        out
    }

    /// End-of-run check on the service's own books.
    pub fn finish(&mut self) {
        let stats = self.repl.service().stats();
        self.checks.expect(stats.accepted == stats.served + stats.plan_failures, || {
            format!(
                "accepted {} != served {} + plan failures {}",
                stats.accepted, stats.served, stats.plan_failures
            )
        });
    }
}

/// The traced path: the same lines, parsed with `parse_line` and served
/// through `QueryService` directly so that a tracer can ride along.
struct Direct {
    service: QueryService,
    source: IndependentGaussian,
    requests: Requests,
    epoch: u64,
    misses: u64,
}

/// What one direct-path epoch cost, split by layer.
struct DirectEpoch {
    wall_ms: f64,
    kind: Kind,
    parse_us: Vec<f64>,
    begin_epoch_ms: f64,
    serve_ms: f64,
    /// Fresh planner solves of the batch (`QueryResponse.plan_ms`).
    solves_ms: Vec<f64>,
}

impl Direct {
    fn setup(profile: Profile, seed: u64, log: SharedLog) -> Direct {
        let mut service = service(profile, seed, log);
        let mut source = source(profile, seed);
        let mut epoch = 0;
        while !warm(service.window_len(), epoch) {
            service.begin_epoch(&source.values(epoch), &mut NullTracer);
            service.serve_batch(&[], &mut NullTracer);
            epoch += 1;
        }
        let misses = service.cache_stats().misses;
        Direct { service, source, requests: Requests::new(profile, seed), epoch, misses }
    }

    fn step(&mut self, tracer: &mut dyn Tracer) -> DirectEpoch {
        let epoch = self.epoch;
        let lines = self.requests.batch(epoch);
        let values = self.source.values(epoch);
        let mut parse_us = Vec::with_capacity(lines.len());
        let mut batch = Vec::with_capacity(lines.len());
        let started = Instant::now();
        for q in &lines {
            let t0 = Instant::now();
            let parsed = parse_line(&q.line);
            parse_us.push(ms_since(t0) * 1e3);
            if let Ok(Command::Query(request)) = parsed {
                batch.push(request);
            }
        }
        let t0 = Instant::now();
        let begun = self.service.begin_epoch(&values, tracer);
        let begin_epoch_ms = ms_since(t0);
        let t0 = Instant::now();
        let responses = self.service.serve_batch(&batch, tracer);
        let serve_ms = ms_since(t0);
        let wall_ms = ms_since(started);
        self.epoch += 1;
        let solves_ms: Vec<f64> =
            responses.iter().flatten().filter(|r| !r.cached).map(|r| r.plan_ms).collect();
        let misses = self.service.cache_stats().misses;
        let kind = if begun.sampled {
            Kind::Sweep
        } else if misses > self.misses {
            Kind::Plan
        } else {
            Kind::Collect
        };
        self.misses = misses;
        DirectEpoch { wall_ms, kind, parse_us, begin_epoch_ms, serve_ms, solves_ms }
    }
}

/// The traced run over one cycle: each instance runs untraced and then
/// traced, back to back, so a drifting host moves both passes alike.
/// Returns the per-layer values, both passes' epoch walls and the
/// tracer's event counts.
pub fn traced(profile: Profile, seed: u64, shape: &Shape, checks: &mut Checks) -> crate::Traced {
    let log = SharedLog::default();
    let mut tracer = LayerTracer::default();
    let mut probes = Probes::default();
    let (mut plain_kinds, mut plain_walls) = (Vec::new(), Vec::new());
    let (mut kinds, mut walls) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut rejected) = (0u64, 0u64, 0u64);
    for index in 0..shape.instances {
        let seed = instance_seed(seed, index);
        let mut plain = Direct::setup(profile, seed, SharedLog::default());
        for _ in 0..shape.epochs {
            let e = plain.step(&mut NullTracer);
            plain_kinds.push(e.kind);
            plain_walls.push(e.wall_ms);
        }
        drop(plain);

        let mut direct = Direct::setup(profile, seed, Rc::clone(&log));
        let before = direct.service.cache_stats();
        for _ in 0..shape.epochs {
            let e = direct.step(&mut tracer);
            probes.parse_us.extend(e.parse_us);
            probes.begin_epoch_ms.push(e.begin_epoch_ms);
            let solved: f64 = e.solves_ms.iter().sum();
            probes.serve_overhead_ms.push(e.serve_ms - solved);
            probes.serve_plan_ms.extend(e.solves_ms);
            kinds.push(e.kind);
            walls.push(e.wall_ms);
        }
        let after = direct.service.cache_stats();
        hits += after.hits - before.hits;
        lookups += after.hits + after.misses - before.hits - before.misses;
        rejected += direct.service.stats().rejected;
    }
    checks.expect(kinds == plain_kinds, || {
        "traced epochs differ in kind from untraced ones".to_string()
    });
    let wall: f64 = walls.iter().sum();
    let solved: f64 = probes.serve_plan_ms.iter().sum();
    let parsed_ms: f64 = probes.parse_us.iter().sum::<f64>() / 1e3;
    let begun: f64 = probes.begin_epoch_ms.iter().sum();
    let log = log.borrow();
    let metrics = vec![
        ("core.plan.ms", median(&log.ms)),
        ("core.plan.share", log.ms.iter().sum::<f64>() / wall),
        ("lp.iterations", mean(&log.lp_iterations.iter().map(|&i| i as f64).collect::<Vec<_>>())),
        ("core.plan.fallbacks", log.fallbacks as f64),
        ("serve.protocol.parse_us", median(&probes.parse_us)),
        ("serve.begin_epoch.ms", mean(&probes.begin_epoch_ms)),
        ("serve.plan.ms", mean(&probes.serve_plan_ms)),
        ("serve.plan.share", solved / wall),
        ("serve.cache.hit_rate", hits as f64 / lookups.max(1) as f64),
        ("serve.overhead.ms", mean(&probes.serve_overhead_ms)),
        ("serve.admit.rejected", rejected as f64),
        ("obs.trace_coverage", (parsed_ms + begun + solved) / wall),
    ];
    (metrics, plain_walls, walls, tracer.event_counts())
}
