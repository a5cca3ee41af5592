//! The trace-event taxonomy.
//!
//! One epoch's trace is a flat event stream bracketed by
//! [`TraceEvent::EpochStart`] / [`TraceEvent::EpochEnd`]; events between
//! the brackets (energy charges, link deliveries, backfills) belong to
//! that epoch and therefore do not repeat the epoch number. Every field is
//! a pure function of seeded simulation state — see the crate docs for the
//! determinism contract.

use crate::json;

/// One failed (or succeeded) link of a planner fallback chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAttemptInfo {
    /// Planner name as used in the paper's figures.
    pub planner: &'static str,
    /// Why the attempt failed; `None` for the succeeding link.
    pub error: Option<String>,
}

/// A structured observation of the pipeline. See the module docs for the
/// stream layout and the crate docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An epoch began.
    EpochStart { epoch: u64 },
    /// A planner (or a fallback-chain link) was asked for a plan. One
    /// event per failed link plus one for the link that succeeded.
    PlanAttempt { planner: &'static str, error: Option<String> },
    /// A plan was chosen for this epoch (it may or may not be installed,
    /// see `installed`). `fallback_depth` counts the chain links that
    /// failed first; `lp_iterations`/`lp_objective` are present when the
    /// producing planner is LP-backed. `lp_iterations` 0 means no simplex
    /// ran: the LP's optimum was known in closed form (LP+LF's capture-all
    /// plan fit the budget), and `lp_objective` is that optimum.
    PlanChosen {
        planner: &'static str,
        fallback_depth: u32,
        lp_iterations: Option<u64>,
        lp_objective: Option<f64>,
        cost_mj: f64,
        total_bandwidth: u64,
        installed: bool,
    },
    /// A plan-installation pass finished (lossy or reliable).
    PlanInstalled { edges: u32, undelivered: u32, attempts: u32 },
    /// One used edge's delivery record during ARQ collection: how many
    /// values were batched, how many transmissions it took, whether the
    /// batch arrived, whether a retried delivery was acked, and the
    /// backoff idle-listening paid. `delivered == false` means the edge
    /// exhausted its budget and lost its subtree's batch.
    LinkDelivery {
        child: u32,
        sent_values: u32,
        attempts: u32,
        delivered: bool,
        acked: bool,
        backoff_mj: f64,
    },
    /// One energy charge, mirroring `EnergyMeter::charge` in call order:
    /// summing `mj` over a merge-free execution's events reproduces its
    /// meter total bit-for-bit.
    Energy { node: u32, phase: &'static str, mj: f64 },
    /// A scheduled permanent node death fired.
    NodeDeath { node: u32 },
    /// A scheduled link degradation fired (loss probability raised).
    LinkDegraded { child: u32, added: f64 },
    /// The spanning tree was rebuilt around this epoch's deaths.
    TreeRepaired { deaths: u32 },
    /// Adaptive reliability raised the collection retry budget.
    RetryEscalated { max_retries: u32 },
    /// Adaptive reliability exhausted the retry budget and forced a
    /// replan to route around the loss.
    ReplanForced { delivered_fraction: f64 },
    /// A lost subtree's answer entry was backfilled from the sample
    /// window (an estimate, not an observation).
    Backfill { node: u32, predicted: f64 },
    /// A scheduled data fault corrupted a sourced reading: the node
    /// reported `corrupted` where the truth was `clean`.
    DataFault { node: u32, kind: &'static str, clean: f64, corrupted: f64 },
    /// A delivered reading fell outside its plausibility band
    /// `[lo, hi]` and was substituted with the window prediction.
    ReadingFlagged { node: u32, value: f64, lo: f64, hi: f64, predicted: f64 },
    /// A node crossed the consecutive-strike threshold into quarantine.
    NodeQuarantined { node: u32, strikes: u32 },
    /// A quarantined node completed parole and is trusted again.
    NodeReadmitted { node: u32, clean_epochs: u32 },
    /// An adaptive run's exact audit (Section 4.4, "Re-sampling") scored
    /// this epoch's answer at `accuracy` and set the sampling period to
    /// `period` query epochs.
    Audit { accuracy: f64, period: u64 },
    /// A service request cleared validation and admission control
    /// (`prospector-serve`). `band` is the budget band the request was
    /// admitted into — the plan-cache key component, not the raw budget.
    RequestAccepted { id: u64, tenant: u32, k: u32, band: u64 },
    /// A service request was rejected; `reason` is the stringified typed
    /// error (validation or admission), which is deterministic.
    RequestRejected { id: u64, tenant: u32, reason: String },
    /// A service request was answered by a cached plan — no LP ran.
    PlanCacheHit { topo_epoch: u64, k: u32, band: u64 },
    /// No usable cached plan existed for this key; the service planned
    /// from scratch (and cached the result).
    PlanCacheMiss { topo_epoch: u64, k: u32, band: u64 },
    /// A service batch finished planning: `requests` admitted requests
    /// shared `unique_keys` distinct cache keys, of which `planned`
    /// required a fresh planner run.
    BatchPlanned { requests: u32, unique_keys: u32, planned: u32 },
    /// Continuous mode: a node's changed reading was applied to the
    /// root's cached view this epoch (delta epochs only).
    DeltaShipped { node: u32, value: f64 },
    /// Continuous mode: this epoch ran a full from-scratch collection
    /// instead of shipping deltas. `reason` is one of `"first"`,
    /// `"period"`, `"repair"`, `"loss"`, `"sweep"`.
    FullRefresh { reason: &'static str },
    /// Continuous mode: the k-th threshold moved beyond the tolerance
    /// and was re-broadcast down the tree.
    ThresholdBroadcast { threshold: f64 },
    /// An epoch finished; scalar summary mirroring `EpochReport`.
    EpochEnd {
        epoch: u64,
        sampled: bool,
        replanned: bool,
        accuracy: f64,
        energy_mj: f64,
        lost_edges: u32,
        retransmissions: u32,
        delivered_fraction: f64,
        backfilled: u32,
    },
}

impl TraceEvent {
    /// Stable kind tag used as the JSONL `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EpochStart { .. } => "epoch_start",
            TraceEvent::PlanAttempt { .. } => "plan_attempt",
            TraceEvent::PlanChosen { .. } => "plan_chosen",
            TraceEvent::PlanInstalled { .. } => "plan_installed",
            TraceEvent::LinkDelivery { .. } => "link_delivery",
            TraceEvent::Energy { .. } => "energy",
            TraceEvent::NodeDeath { .. } => "node_death",
            TraceEvent::LinkDegraded { .. } => "link_degraded",
            TraceEvent::TreeRepaired { .. } => "tree_repaired",
            TraceEvent::RetryEscalated { .. } => "retry_escalated",
            TraceEvent::ReplanForced { .. } => "replan_forced",
            TraceEvent::Backfill { .. } => "backfill",
            TraceEvent::DataFault { .. } => "data_fault",
            TraceEvent::ReadingFlagged { .. } => "reading_flagged",
            TraceEvent::NodeQuarantined { .. } => "node_quarantined",
            TraceEvent::NodeReadmitted { .. } => "node_readmitted",
            TraceEvent::Audit { .. } => "audit",
            TraceEvent::RequestAccepted { .. } => "request_accepted",
            TraceEvent::RequestRejected { .. } => "request_rejected",
            TraceEvent::PlanCacheHit { .. } => "plan_cache_hit",
            TraceEvent::PlanCacheMiss { .. } => "plan_cache_miss",
            TraceEvent::BatchPlanned { .. } => "batch_planned",
            TraceEvent::DeltaShipped { .. } => "delta_shipped",
            TraceEvent::FullRefresh { .. } => "full_refresh",
            TraceEvent::ThresholdBroadcast { .. } => "threshold_broadcast",
            TraceEvent::EpochEnd { .. } => "epoch_end",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    /// Field order is fixed by this function, making the output
    /// byte-stable for identical events.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(96);
        o.push_str("{\"ev\":");
        json::push_str(&mut o, self.kind());
        match self {
            TraceEvent::EpochStart { epoch } => {
                push_u64(&mut o, "epoch", *epoch);
            }
            TraceEvent::PlanAttempt { planner, error } => {
                push_static(&mut o, "planner", planner);
                o.push(',');
                json::push_key(&mut o, "error");
                match error {
                    Some(e) => json::push_str(&mut o, e),
                    None => o.push_str("null"),
                }
            }
            TraceEvent::PlanChosen {
                planner,
                fallback_depth,
                lp_iterations,
                lp_objective,
                cost_mj,
                total_bandwidth,
                installed,
            } => {
                push_static(&mut o, "planner", planner);
                push_u64(&mut o, "fallback_depth", u64::from(*fallback_depth));
                o.push(',');
                json::push_key(&mut o, "lp_iterations");
                match lp_iterations {
                    Some(i) => o.push_str(&format!("{i}")),
                    None => o.push_str("null"),
                }
                o.push(',');
                json::push_key(&mut o, "lp_objective");
                match lp_objective {
                    Some(v) => json::push_f64(&mut o, *v),
                    None => o.push_str("null"),
                }
                push_f64_field(&mut o, "cost_mj", *cost_mj);
                push_u64(&mut o, "total_bandwidth", *total_bandwidth);
                push_bool(&mut o, "installed", *installed);
            }
            TraceEvent::PlanInstalled { edges, undelivered, attempts } => {
                push_u64(&mut o, "edges", u64::from(*edges));
                push_u64(&mut o, "undelivered", u64::from(*undelivered));
                push_u64(&mut o, "attempts", u64::from(*attempts));
            }
            TraceEvent::LinkDelivery {
                child,
                sent_values,
                attempts,
                delivered,
                acked,
                backoff_mj,
            } => {
                push_u64(&mut o, "child", u64::from(*child));
                push_u64(&mut o, "sent_values", u64::from(*sent_values));
                push_u64(&mut o, "attempts", u64::from(*attempts));
                push_bool(&mut o, "delivered", *delivered);
                push_bool(&mut o, "acked", *acked);
                push_f64_field(&mut o, "backoff_mj", *backoff_mj);
            }
            TraceEvent::Energy { node, phase, mj } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_static(&mut o, "phase", phase);
                push_f64_field(&mut o, "mj", *mj);
            }
            TraceEvent::NodeDeath { node } => {
                push_u64(&mut o, "node", u64::from(*node));
            }
            TraceEvent::LinkDegraded { child, added } => {
                push_u64(&mut o, "child", u64::from(*child));
                push_f64_field(&mut o, "added", *added);
            }
            TraceEvent::TreeRepaired { deaths } => {
                push_u64(&mut o, "deaths", u64::from(*deaths));
            }
            TraceEvent::RetryEscalated { max_retries } => {
                push_u64(&mut o, "max_retries", u64::from(*max_retries));
            }
            TraceEvent::ReplanForced { delivered_fraction } => {
                push_f64_field(&mut o, "delivered_fraction", *delivered_fraction);
            }
            TraceEvent::Backfill { node, predicted } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_f64_field(&mut o, "predicted", *predicted);
            }
            TraceEvent::DataFault { node, kind, clean, corrupted } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_static(&mut o, "kind", kind);
                push_f64_field(&mut o, "clean", *clean);
                push_f64_field(&mut o, "corrupted", *corrupted);
            }
            TraceEvent::ReadingFlagged { node, value, lo, hi, predicted } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_f64_field(&mut o, "value", *value);
                push_f64_field(&mut o, "lo", *lo);
                push_f64_field(&mut o, "hi", *hi);
                push_f64_field(&mut o, "predicted", *predicted);
            }
            TraceEvent::NodeQuarantined { node, strikes } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_u64(&mut o, "strikes", u64::from(*strikes));
            }
            TraceEvent::NodeReadmitted { node, clean_epochs } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_u64(&mut o, "clean_epochs", u64::from(*clean_epochs));
            }
            TraceEvent::Audit { accuracy, period } => {
                push_f64_field(&mut o, "accuracy", *accuracy);
                push_u64(&mut o, "period", *period);
            }
            TraceEvent::RequestAccepted { id, tenant, k, band } => {
                push_u64(&mut o, "id", *id);
                push_u64(&mut o, "tenant", u64::from(*tenant));
                push_u64(&mut o, "k", u64::from(*k));
                push_u64(&mut o, "band", *band);
            }
            TraceEvent::RequestRejected { id, tenant, reason } => {
                push_u64(&mut o, "id", *id);
                push_u64(&mut o, "tenant", u64::from(*tenant));
                o.push(',');
                json::push_key(&mut o, "reason");
                json::push_str(&mut o, reason);
            }
            TraceEvent::PlanCacheHit { topo_epoch, k, band } => {
                push_u64(&mut o, "topo_epoch", *topo_epoch);
                push_u64(&mut o, "k", u64::from(*k));
                push_u64(&mut o, "band", *band);
            }
            TraceEvent::PlanCacheMiss { topo_epoch, k, band } => {
                push_u64(&mut o, "topo_epoch", *topo_epoch);
                push_u64(&mut o, "k", u64::from(*k));
                push_u64(&mut o, "band", *band);
            }
            TraceEvent::BatchPlanned { requests, unique_keys, planned } => {
                push_u64(&mut o, "requests", u64::from(*requests));
                push_u64(&mut o, "unique_keys", u64::from(*unique_keys));
                push_u64(&mut o, "planned", u64::from(*planned));
            }
            TraceEvent::DeltaShipped { node, value } => {
                push_u64(&mut o, "node", u64::from(*node));
                push_f64_field(&mut o, "value", *value);
            }
            TraceEvent::FullRefresh { reason } => {
                push_static(&mut o, "reason", reason);
            }
            TraceEvent::ThresholdBroadcast { threshold } => {
                push_f64_field(&mut o, "threshold", *threshold);
            }
            TraceEvent::EpochEnd {
                epoch,
                sampled,
                replanned,
                accuracy,
                energy_mj,
                lost_edges,
                retransmissions,
                delivered_fraction,
                backfilled,
            } => {
                push_u64(&mut o, "epoch", *epoch);
                push_bool(&mut o, "sampled", *sampled);
                push_bool(&mut o, "replanned", *replanned);
                push_f64_field(&mut o, "accuracy", *accuracy);
                push_f64_field(&mut o, "energy_mj", *energy_mj);
                push_u64(&mut o, "lost_edges", u64::from(*lost_edges));
                push_u64(&mut o, "retransmissions", u64::from(*retransmissions));
                push_f64_field(&mut o, "delivered_fraction", *delivered_fraction);
                push_u64(&mut o, "backfilled", u64::from(*backfilled));
            }
        }
        o.push('}');
        o
    }
}

/// Serializes events as JSON lines (one event per line, trailing newline).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

fn push_u64(o: &mut String, key: &str, v: u64) {
    o.push(',');
    json::push_key(o, key);
    o.push_str(&format!("{v}"));
}

fn push_bool(o: &mut String, key: &str, v: bool) {
    o.push(',');
    json::push_key(o, key);
    o.push_str(if v { "true" } else { "false" });
}

fn push_f64_field(o: &mut String, key: &str, v: f64) {
    o.push(',');
    json::push_key(o, key);
    json::push_f64(o, v);
}

fn push_static(o: &mut String, key: &str, v: &str) {
    o.push(',');
    json::push_key(o, key);
    json::push_str(o, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_event_serializes_compactly() {
        let ev = TraceEvent::Energy { node: 3, phase: "collection", mj: 1.5 };
        assert_eq!(ev.to_json(), r#"{"ev":"energy","node":3,"phase":"collection","mj":1.5}"#);
    }

    #[test]
    fn optional_fields_serialize_as_null() {
        let ev = TraceEvent::PlanChosen {
            planner: "greedy",
            fallback_depth: 1,
            lp_iterations: None,
            lp_objective: None,
            cost_mj: 2.0,
            total_bandwidth: 7,
            installed: true,
        };
        let j = ev.to_json();
        assert!(j.contains("\"lp_iterations\":null"));
        assert!(j.contains("\"fallback_depth\":1"));
        assert!(j.contains("\"installed\":true"));
    }

    #[test]
    fn backfill_minus_infinity_is_representable() {
        let ev = TraceEvent::Backfill { node: 2, predicted: f64::NEG_INFINITY };
        assert_eq!(ev.to_json(), r#"{"ev":"backfill","node":2,"predicted":"-inf"}"#);
    }

    #[test]
    fn gating_events_serialize_with_fixed_field_order() {
        let ev = TraceEvent::DataFault { node: 5, kind: "stuck_at", clean: 42.5, corrupted: 99.0 };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"data_fault","node":5,"kind":"stuck_at","clean":42.5,"corrupted":99}"#
        );
        let ev = TraceEvent::ReadingFlagged {
            node: 5,
            value: 99.0,
            lo: 40.0,
            hi: 45.0,
            predicted: 42.5,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"reading_flagged","node":5,"value":99,"lo":40,"hi":45,"predicted":42.5}"#
        );
        let ev = TraceEvent::NodeQuarantined { node: 5, strikes: 3 };
        assert_eq!(ev.to_json(), r#"{"ev":"node_quarantined","node":5,"strikes":3}"#);
        let ev = TraceEvent::NodeReadmitted { node: 5, clean_epochs: 4 };
        assert_eq!(ev.to_json(), r#"{"ev":"node_readmitted","node":5,"clean_epochs":4}"#);
    }

    #[test]
    fn identical_events_serialize_identically() {
        let a = TraceEvent::LinkDelivery {
            child: 9,
            sent_values: 4,
            attempts: 3,
            delivered: true,
            acked: true,
            backoff_mj: 0.1 + 0.2,
        };
        assert_eq!(a.to_json(), a.clone().to_json());
    }

    #[test]
    fn serve_events_serialize_with_fixed_field_order() {
        let ev = TraceEvent::RequestAccepted { id: 7, tenant: 2, k: 4, band: 3 };
        assert_eq!(ev.to_json(), r#"{"ev":"request_accepted","id":7,"tenant":2,"k":4,"band":3}"#);
        let ev = TraceEvent::RequestRejected {
            id: 8,
            tenant: 1,
            reason: "energy budget exhausted".to_string(),
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"request_rejected","id":8,"tenant":1,"reason":"energy budget exhausted"}"#
        );
        let ev = TraceEvent::PlanCacheHit { topo_epoch: 2, k: 4, band: 5 };
        assert_eq!(ev.to_json(), r#"{"ev":"plan_cache_hit","topo_epoch":2,"k":4,"band":5}"#);
        let ev = TraceEvent::PlanCacheMiss { topo_epoch: 2, k: 4, band: 5 };
        assert_eq!(ev.to_json(), r#"{"ev":"plan_cache_miss","topo_epoch":2,"k":4,"band":5}"#);
        let ev = TraceEvent::BatchPlanned { requests: 6, unique_keys: 3, planned: 2 };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"batch_planned","requests":6,"unique_keys":3,"planned":2}"#
        );
    }

    #[test]
    fn continuous_events_serialize_with_fixed_field_order() {
        let ev = TraceEvent::DeltaShipped { node: 10, value: 48.5 };
        assert_eq!(ev.to_json(), r#"{"ev":"delta_shipped","node":10,"value":48.5}"#);
        let ev = TraceEvent::FullRefresh { reason: "repair" };
        assert_eq!(ev.to_json(), r#"{"ev":"full_refresh","reason":"repair"}"#);
        let ev = TraceEvent::ThresholdBroadcast { threshold: 47.0 };
        assert_eq!(ev.to_json(), r#"{"ev":"threshold_broadcast","threshold":47}"#);
        let ev = TraceEvent::ThresholdBroadcast { threshold: f64::NEG_INFINITY };
        assert_eq!(ev.to_json(), r#"{"ev":"threshold_broadcast","threshold":"-inf"}"#);
    }

    #[test]
    fn audit_event_serializes_with_fixed_field_order() {
        let ev = TraceEvent::Audit { accuracy: 0.8, period: 16 };
        assert_eq!(ev.to_json(), r#"{"ev":"audit","accuracy":0.8,"period":16}"#);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = vec![
            TraceEvent::EpochStart { epoch: 0 },
            TraceEvent::EpochEnd {
                epoch: 0,
                sampled: true,
                replanned: false,
                accuracy: 1.0,
                energy_mj: 0.5,
                lost_edges: 0,
                retransmissions: 0,
                delivered_fraction: 1.0,
                backfilled: 0,
            },
        ];
        let text = to_jsonl(&evs);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
