//! # dcnr-faults
//!
//! Failure models for the `dcnr` reliability study: everything stochastic
//! about *what goes wrong* in the fleet, calibrated against the anchors
//! published in the paper.
//!
//! * [`root_cause`] — the Table 2 taxonomy (maintenance, hardware,
//!   configuration, bug, accidents, capacity planning, undetermined) and
//!   its sampling distribution, including the paper's observation that
//!   ESWs recorded no bug-rooted SEVs (§5.1).
//! * [`calibration`] — every numeric anchor extracted from the paper,
//!   in one place, with derivations documented. These constants are the
//!   ground truth that the simulation encodes and the analysis pipeline
//!   must recover.
//! * [`growth`] — the fleet growth model: per-type device populations
//!   2011–2017 (Fig. 11), total switches, and the employee headcount
//!   proxy (Fig. 6). Fabric devices appear in 2015; cluster devices
//!   decline after 2015.
//! * [`hazard`] — per-type, per-year *incident* rates (Fig. 3) and the
//!   derived *issue* rates (raw device problems before automated
//!   remediation filters them, §4.1), with the escalation probabilities
//!   implied by Table 1's repair ratios.
//! * [`generator`] — the Poisson issue generator: turns populations ×
//!   issue rates into a deterministic, seeded stream of
//!   [`generator::RawIssue`] events over the study window.
//!
//! The boundary between this crate and `dcnr-remediation` mirrors §4.1's
//! incident definition: this crate produces *issues*; remediation decides
//! which become *incidents* (SEVs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod generator;
pub mod growth;
pub mod hazard;
pub mod root_cause;

pub use generator::{device_name_of_word, IssueGenerator, MergedIssues, RawIssue};
pub use growth::FleetGrowth;
pub use hazard::HazardModel;
pub use root_cause::{RootCause, RootCauseModel};
