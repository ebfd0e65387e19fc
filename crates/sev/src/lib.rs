//! # dcnr-sev
//!
//! Service-level events (SEVs): the incident records at the heart of the
//! paper's intra-datacenter analysis (§4.2), the in-memory database that
//! stands in for Facebook's MySQL SEV store, the query layer that stands
//! in for their SQL, and the reliability metrics of §5.
//!
//! * [`severity`] — the three SEV levels and their Table 3 rubric
//!   (SEV3: contained; SEV2: feature/regional; SEV1: site-level).
//! * [`record`] — one SEV report: offending device name, root causes,
//!   severity, open/resolve timestamps. Device-type classification
//!   happens by **parsing the device-name prefix** exactly as §4.3.1
//!   describes — the record does not carry a type field.
//! * [`store`] — [`store::SevDb`], an append-only store with
//!   stable ids.
//! * [`query`] — composable filters and group-bys over the store
//!   (by year, severity, device type, network design, root cause) — the
//!   operations every figure of §5 reduces to.
//! * [`metrics`] — incident rates (Fig. 3), MTBI (Fig. 12), p75 incident
//!   resolution time (Fig. 13), and per-device SEV rates (Fig. 5).
//!   Population-dependent metrics take the population as a closure so
//!   this crate stays decoupled from the growth model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod metrics;
pub mod query;
pub mod record;
pub mod severity;
pub mod store;

pub use document::{prevention_checklist, render_postmortem};
pub use metrics::MetricsExt;
pub use query::SevQuery;
pub use record::SevRecord;
pub use severity::SevLevel;
pub use store::SevDb;
