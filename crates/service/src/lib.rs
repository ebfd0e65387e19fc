//! # dcnr-service
//!
//! The service-level side of the study: how network device failures
//! manifest as impact on the software systems running in the data
//! centers — "frontend web servers, caching systems, storage systems,
//! data processing systems, and real-time monitoring systems" (§4.1).
//!
//! The paper's central argument is that device failures and service
//! impact are *not* the same thing: redundancy and automation mask most
//! faults, and only emergent, unmasked misbehavior becomes a SEV. This
//! crate models that translation in two complementary ways:
//!
//! * [`placement`] + [`impact`] — a **mechanistic** model: services
//!   placed on racks of a representative topology; a candidate failure's
//!   blast radius (from `dcnr-topology`) plus tier utilization gives a
//!   concrete request-failure rate and lost-capacity figure, which maps
//!   to a severity rubric. Used by the examples and the TOR-redundancy
//!   ablation (§5.4's one-TOR-per-rack discussion).
//! * [`emergent`] + [`resolution`] — the models used by the fleet-scale
//!   study: per-type severity mixes derived from forwarding-state path
//!   losses over an ensemble of operating conditions (Fig. 4, checked
//!   against Table 3's 82/13/5), and year-dependent log-normal
//!   resolution times (Fig. 13).
//! * [`sevgen`] — the bridge from remediation escalations to SEV
//!   reports: every escalated issue becomes a [`dcnr_sev::SevRecord`]
//!   with an emergent severity, a sampled resolution time, and an
//!   impact summary.
//! * [`drill`] — §5.7's fault-injection and disaster-recovery testing:
//!   single-failure sweeps per tier and disconnect-a-datacenter drills.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drill;
pub mod emergent;
pub mod impact;
pub mod placement;
pub mod resolution;
pub mod sevgen;

pub use drill::{disaster_drill, DisasterDrillReport, FaultInjectionDrill, TierDrillReport};
pub use emergent::{reference_conditions, EmergentSeverityModel, OperatingCondition};
pub use impact::{ImpactAssessment, ImpactEngine, ImpactModel};
pub use placement::{Placement, ServiceKind};
pub use resolution::ResolutionModel;
pub use sevgen::SevGenerator;
