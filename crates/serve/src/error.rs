//! Typed errors of the serve path.
//!
//! Every rejection a request can suffer is a value of one of these enums —
//! nothing on the serve path panics on user input or fails silently. The
//! `Display` strings double as the `reason` field of
//! [`TraceEvent::RequestRejected`](prospector_obs::TraceEvent), so they
//! must be pure functions of the error's fields (no wall clock, no
//! addresses), keeping rejected requests golden-traceable.

use prospector_core::PlanError;
use std::fmt;

/// Why a request failed validation before admission was even considered.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// `k` is zero, exceeds the service's `max_k`, or exceeds the number
    /// of queryable nodes (the subset size for subset queries, the
    /// network size otherwise).
    BadK { k: usize, max: usize },
    /// The budget is non-finite or not positive.
    BadBudget { budget_mj: f64 },
    /// A subset member is outside the network.
    SubsetOutOfRange { node: u32, n: usize },
    /// The subset is empty after deduplication.
    EmptySubset,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::BadK { k, max } => write!(f, "k={k} outside 1..={max}"),
            RequestError::BadBudget { budget_mj } => {
                write!(f, "budget {budget_mj} mJ is not a positive finite number")
            }
            RequestError::SubsetOutOfRange { node, n } => {
                write!(f, "subset node {node} outside network of {n}")
            }
            RequestError::EmptySubset => write!(f, "subset is empty"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Why admission control turned a valid request away. Admission is never
/// silent: every rejection carries one of these and is traced.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The budget rounds down to zero bands — too small to buy any plan
    /// the cache could share.
    BudgetBelowBand { budget_mj: f64, band_mj: f64 },
    /// Admitting the request would overdraw this epoch's energy ledger.
    EnergyExhausted { requested_mj: f64, remaining_mj: f64 },
    /// The request's deadline epoch has already passed.
    DeadlineExpired { deadline: u64, epoch: u64 },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::BudgetBelowBand { budget_mj, band_mj } => {
                write!(f, "budget {budget_mj} mJ is below one band ({band_mj} mJ)")
            }
            AdmitError::EnergyExhausted { requested_mj, remaining_mj } => write!(
                f,
                "energy ledger exhausted: {requested_mj} mJ requested, {remaining_mj} mJ left"
            ),
            AdmitError::DeadlineExpired { deadline, epoch } => {
                write!(f, "deadline {deadline} already passed at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Everything that can go wrong serving one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// `serve_batch` was called before any `begin_epoch`.
    NoEpoch,
    /// The sample window is too cold to predict from: either the window
    /// holds fewer than the configured minimum of samples (a rejection),
    /// or a node that answered has no finite reading in the window (the
    /// service's per-node prediction table abstained; counted in
    /// [`ServiceStats::cold_starts`](crate::ServiceStats::cold_starts)).
    /// Cold starts surface here as a typed error — the `None` is never
    /// unwrapped on the serve path.
    InsufficientHistory { have: usize, need: usize },
    /// The request failed validation.
    Request(RequestError),
    /// The request was refused by admission control.
    Admit(AdmitError),
    /// Every planner in the fallback chain failed for this request.
    Plan(PlanError),
}

impl ServiceError {
    /// Stable kebab-case code for the line protocol's `ERR` responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::NoEpoch => "no-epoch",
            ServiceError::InsufficientHistory { .. } => "insufficient-history",
            ServiceError::Request(RequestError::BadK { .. }) => "bad-k",
            ServiceError::Request(RequestError::BadBudget { .. }) => "bad-budget",
            ServiceError::Request(RequestError::SubsetOutOfRange { .. }) => "bad-subset",
            ServiceError::Request(RequestError::EmptySubset) => "bad-subset",
            ServiceError::Admit(AdmitError::BudgetBelowBand { .. }) => "budget-below-band",
            ServiceError::Admit(AdmitError::EnergyExhausted { .. }) => "energy-exhausted",
            ServiceError::Admit(AdmitError::DeadlineExpired { .. }) => "deadline-expired",
            ServiceError::Plan(_) => "plan-failed",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoEpoch => write!(f, "no epoch has begun"),
            ServiceError::InsufficientHistory { have, need } => {
                write!(f, "insufficient history: {have} samples, {need} needed")
            }
            ServiceError::Request(e) => write!(f, "{e}"),
            ServiceError::Admit(e) => write!(f, "{e}"),
            ServiceError::Plan(e) => write!(f, "planning failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RequestError> for ServiceError {
    fn from(e: RequestError) -> Self {
        ServiceError::Request(e)
    }
}

impl From<AdmitError> for ServiceError {
    fn from(e: AdmitError) -> Self {
        ServiceError::Admit(e)
    }
}

impl From<PlanError> for ServiceError {
    fn from(e: PlanError) -> Self {
        ServiceError::Plan(e)
    }
}

/// An invalid [`ServiceConfig`](crate::ServiceConfig).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `band_width_mj` must be positive and finite: it quantizes budgets
    /// into cache bands.
    BadBandWidth { band_width_mj: f64 },
    /// `epoch_budget_mj` must be non-negative and finite.
    BadEpochBudget { epoch_budget_mj: f64 },
    /// `window`, `sample_every` and `max_k` must all be at least 1.
    BadShape { window: usize, sample_every: u64, max_k: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadBandWidth { band_width_mj } => {
                write!(f, "band width {band_width_mj} mJ is not positive finite")
            }
            ConfigError::BadEpochBudget { epoch_budget_mj } => {
                write!(f, "epoch budget {epoch_budget_mj} mJ is not non-negative finite")
            }
            ConfigError::BadShape { window, sample_every, max_k } => write!(
                f,
                "window {window}, sample_every {sample_every} and max_k {max_k} must all be ≥ 1"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_pure_functions_of_fields() {
        let e = AdmitError::EnergyExhausted { requested_mj: 10.0, remaining_mj: 2.5 };
        assert_eq!(e.to_string(), "energy ledger exhausted: 10 mJ requested, 2.5 mJ left");
        assert_eq!(e.to_string(), e.clone().to_string());
        let e = ServiceError::InsufficientHistory { have: 0, need: 2 };
        assert_eq!(e.to_string(), "insufficient history: 0 samples, 2 needed");
        assert_eq!(e.code(), "insufficient-history");
    }

    #[test]
    fn codes_are_kebab_and_stable() {
        let cases: Vec<ServiceError> = vec![
            ServiceError::NoEpoch,
            ServiceError::Request(RequestError::BadK { k: 0, max: 4 }),
            ServiceError::Request(RequestError::BadBudget { budget_mj: f64::NAN }),
            ServiceError::Admit(AdmitError::BudgetBelowBand { budget_mj: 1.0, band_mj: 5.0 }),
            ServiceError::Admit(AdmitError::DeadlineExpired { deadline: 1, epoch: 3 }),
        ];
        for e in cases {
            let c = e.code();
            assert!(c.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'), "{c}");
        }
    }
}
