//! # dcnr-remediation
//!
//! The automated repair system model (§4.1 and Table 1 of the paper) —
//! the layer that decides which raw device issues become service-level
//! incidents.
//!
//! "Facebook relies on this automated repair system to shield our
//! infrastructure from the vast majority of issues that arise in our
//! intra data center networks. Remediation coordinates between using
//! software to repair simple issues and alerting human technicians to
//! repair complex issues."
//!
//! * [`action`] — the remediation action taxonomy of §4.1.3 (port cycle
//!   50%, configuration-service restart 32.4%, fan alert 4.5%, liveness
//!   task 4.0%, other) and which of them auto-resolve vs. page a human.
//! * [`policy`] — per-device-type repair policy: coverage, repair ratio,
//!   priority assignment (0 = highest .. 3 = lowest), and the wait/exec
//!   time models behind Table 1's "4 m / 30.1 s" style numbers.
//! * [`queue`] — a deterministic priority repair queue: repairs wait
//!   longer the lower their priority, matching "repairs assigned a lower
//!   priority wait longer than repairs assigned a higher priority".
//! * [`engine`] — the triage pipeline: issue → (covered by automation?)
//!   → scheduled repair → success | escalation to a human ticket.
//!   Escalations are the incident candidates handed to `dcnr-service`.
//! * [`report`] — Table 1 aggregation over a processed window: repair
//!   ratio, average priority, average wait, average repair time, folded
//!   one outcome at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod engine;
pub mod policy;
pub mod queue;
pub mod report;

pub use action::RemediationAction;
pub use engine::{RemediationEngine, RemediationOutcome, RepairRecord};
pub use policy::RepairPolicy;
pub use queue::{QueuedRepair, RepairQueue};
pub use report::{DeviceRepairStats, Table1Accumulator, Table1Report};
