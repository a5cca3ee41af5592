//! The traced run's instruments: a benchmark-side [`Tracer`] that counts
//! events and timestamps the boundaries the program already emits, and
//! the wall-clock samples of direct calls into single layers. Nothing
//! here reaches the program's deterministic traces.

use prospector_obs::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts every event by kind and stamps the epoch, repair, plan and
/// refresh boundaries. Keeps everything in memory until the run ends.
#[derive(Debug, Default)]
pub struct LayerTracer {
    pub counts: BTreeMap<&'static str, u64>,
    pub marks: Vec<(&'static str, Instant)>,
    pub plans_chosen: u64,
    pub plans_installed: u64,
    pub full_refreshes: u64,
}

impl Tracer for LayerTracer {
    fn record(&mut self, event: TraceEvent) {
        let kind = event.kind();
        *self.counts.entry(kind).or_default() += 1;
        match event {
            TraceEvent::PlanChosen { installed, .. } => {
                self.plans_chosen += 1;
                self.plans_installed += u64::from(installed);
            }
            TraceEvent::FullRefresh { .. } => self.full_refreshes += 1,
            TraceEvent::EpochStart { .. }
            | TraceEvent::TreeRepaired { .. }
            | TraceEvent::PlanInstalled { .. }
            | TraceEvent::EpochEnd { .. } => {}
            _ => return,
        }
        self.marks.push((kind, Instant::now()));
    }
}

impl LayerTracer {
    /// Every event kind seen, with its count.
    pub fn event_counts(&self) -> String {
        self.counts.iter().map(|(kind, n)| format!("{kind}={n}")).collect::<Vec<_>>().join(" ")
    }

    /// Milliseconds from the first `from` mark to the first `to` mark
    /// after it, among the marks recorded since index `since`.
    pub fn span_ms(&self, since: usize, from: &str, to: &str) -> Option<f64> {
        let marks = &self.marks[since..];
        let start = marks.iter().position(|(k, _)| *k == from)?;
        let (_, t0) = marks[start];
        let (_, t1) = marks[start..].iter().find(|(k, _)| *k == to)?;
        Some(t1.duration_since(t0).as_secs_f64() * 1e3)
    }
}

/// Wall-clock samples of single layers: spans between program events
/// and direct calls to public functions on each epoch's inputs.
#[derive(Debug, Default)]
pub struct Probes {
    /// `expected_misses_with` at the pinned width.
    pub evaluate_ms: Vec<f64>,
    /// The same call with `PAR_WIDTH` workers.
    pub evaluate_par_ms: Vec<f64>,
    pub install_ms: Vec<f64>,
    pub collect_ms: Vec<f64>,
    pub backfill_ms: Vec<f64>,
    pub repair_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    pub push_ms: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub begin_epoch_ms: Vec<f64>,
    pub serve_plan_ms: Vec<f64>,
    pub serve_overhead_ms: Vec<f64>,
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
