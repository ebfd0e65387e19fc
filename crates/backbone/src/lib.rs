//! # dcnr-backbone
//!
//! The inter-datacenter side of the study (§3.2, §6): edge nodes
//! connected by vendor-operated fiber links, the repair-ticket pipeline
//! that measures them, and the exponential reliability models of
//! Figures 15–18.
//!
//! * [`geo`] — continents with Table 4's edge distribution and
//!   reliability characteristics.
//! * [`vendor`] — fiber vendors, whose link reliability "varies by
//!   orders of magnitude" (§6.2).
//! * [`topo`] — the backbone graph: edges (PoP sites) and fiber links,
//!   every edge connected by **at least three** links ("An edge connects
//!   to the backbone and Internet using at least three links. When all
//!   of an edge's links fail, the edge fails.").
//! * [`models`] — the paper's fitted quantile models
//!   (`MTBF_edge(p) = 462.88·e^{2.3408p}` et al.) used both as ground
//!   truth for the generator and as the comparison targets for our fits.
//! * [`failure_model`] — per-entity target sampling: each edge/vendor
//!   draws its MTBF/MTTR from the quantile models with log-normal
//!   jitter, reproducing the reported variances and min/max tails.
//! * [`sim`] — the eighteen-month renewal simulation: per-link vendor
//!   failures plus per-edge conduit (fate-sharing) cuts that take all of
//!   an edge's links down together.
//! * [`email`] — the vendor notification e-mail format: generation and
//!   a tolerant parser. "When the vendor starts repairing a link ...
//!   Facebook is notified via email. ... The emails are automatically
//!   parsed and stored in a database for later analysis." The simulator
//!   emits e-mails; the analysis only sees what the parser recovers —
//!   the same measurement boundary the paper had.
//! * [`ticket`] — the parsed-ticket database and its conversion to
//!   per-entity renewal logs.
//! * [`metrics`] — per-edge / per-vendor / per-continent MTBF & MTTR,
//!   percentile curves, and least-squares exponential fits with R²
//!   (Figs. 15–18, Table 4).
//! * [`planning`] — conditional-risk capacity planning: "We plan edge
//!   and link capacity to tolerate the 99.99th percentile of conditional
//!   risk" (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod email;
pub mod failure_model;
pub mod geo;
pub mod metrics;
pub mod models;
pub mod planning;
pub mod sim;
pub mod ticket;
pub mod topo;
pub mod vendor;
pub mod wan;

pub use email::{parse_email, render_email, EmailParseError, VendorEmail};
pub use failure_model::EntityTargets;
pub use geo::Continent;
pub use metrics::{BackboneMetrics, ContinentRow};
pub use models::PaperModels;
pub use sim::{BackboneSim, BackboneSimConfig};
pub use ticket::{Ticket, TicketDb, TicketKind};
pub use topo::{BackboneTopology, EdgeNodeId, FiberLinkId};
pub use vendor::VendorId;
pub use wan::{CrossDcPlanes, RerouteImpact};
