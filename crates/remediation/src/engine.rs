//! The remediation triage pipeline.
//!
//! For every raw issue (§4.1's pre-incident events) the engine decides:
//!
//! 1. **Is the device type covered by automation this year?**
//!    Coverage follows the hazard model (RSWs/FSWs/some Cores, from
//!    2013; honors the automation-off ablation).
//! 2. **Covered:** assign a priority, schedule the repair after the
//!    priority-weighted wait, execute it; with probability
//!    `repair_ratio` the repair succeeds and the issue disappears into a
//!    [`RepairRecord`]. Otherwise automation failed — the issue
//!    escalates to a human and becomes an incident candidate.
//! 3. **Not covered:** manual operations resolve most issues invisibly
//!    (the [`dcnr_faults::calibration::MANUAL_ESCALATION_PROB`]
//!    assumption); the rest escalate.
//!
//! The escalated stream is exactly what the paper's SEV database
//! records: "the class of incidents that can not be solved by automated
//! repair" (§4.1.3).

use crate::action::{ActionModel, RemediationAction};
use crate::policy::RepairPolicy;
use dcnr_faults::{
    calibration::MANUAL_ESCALATION_PROB, device_name_of_word, HazardModel, RawIssue,
};
use dcnr_sim::{stream_rng, SimDuration, SimTime};
use dcnr_telemetry::{CounterFamily, StageTrace};
use dcnr_topology::DeviceType;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;

/// A completed automated repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRecord {
    /// The repaired issue.
    pub issue: RawIssue,
    /// Assigned priority (0 = highest .. 3 = lowest).
    pub priority: u8,
    /// Seconds the repair waited in the queue.
    pub wait_secs: f64,
    /// Seconds the repair took to execute.
    pub exec_secs: f64,
    /// The action taken.
    pub action: RemediationAction,
    /// When the repair completed.
    pub completed_at: SimTime,
}

/// The outcome of triaging one issue.
#[derive(Debug, Clone, PartialEq)]
pub enum RemediationOutcome {
    /// Automation fixed it; no service-level incident.
    AutoRepaired(RepairRecord),
    /// A human fixed it quietly (uncovered type, issue without
    /// service-level impact).
    ManuallyResolved {
        /// The resolved issue.
        issue: RawIssue,
    },
    /// Automation (or manual ops) could not contain it: this is an
    /// incident candidate for the SEV pipeline.
    Escalated {
        /// The escalating issue.
        issue: RawIssue,
        /// Whether automation attempted a repair first.
        automation_attempted: bool,
    },
}

impl RemediationOutcome {
    /// The underlying issue.
    pub fn issue(&self) -> &RawIssue {
        match self {
            RemediationOutcome::AutoRepaired(r) => &r.issue,
            RemediationOutcome::ManuallyResolved { issue } => issue,
            RemediationOutcome::Escalated { issue, .. } => issue,
        }
    }

    /// Whether this outcome escalated to an incident candidate.
    pub fn is_escalated(&self) -> bool {
        matches!(self, RemediationOutcome::Escalated { .. })
    }
}

/// The remediation engine.
pub struct RemediationEngine {
    hazard: HazardModel,
    actions: ActionModel,
    policies: [Option<RepairPolicy>; 7],
    /// One RNG stream per device type (plus a fallback), so a change in
    /// one type's issue volume — e.g. under the drain-policy ablation —
    /// never perturbs another type's triage decisions.
    rngs: [StdRng; 8],
}

impl RemediationEngine {
    /// Creates an engine for the given hazard configuration. The `seed`
    /// drives independent per-device-type streams
    /// (`"remediation.engine.<type>"`).
    pub fn new(hazard: HazardModel, seed: u64) -> Self {
        let policies = dcnr_topology::DeviceType::INTRA_DC.map(RepairPolicy::for_type);
        let mut types = dcnr_topology::DeviceType::INTRA_DC
            .iter()
            .map(|t| stream_rng(seed, &format!("remediation.engine.{}", t.name_prefix())));
        let rngs = [
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            types.next().expect("7 types"),
            stream_rng(seed, "remediation.engine.other"),
        ];
        Self {
            hazard,
            actions: ActionModel::paper(),
            policies,
            rngs,
        }
    }

    /// The repair policy for `t`, if automation covers the type.
    pub fn policy(&self, t: DeviceType) -> Option<&RepairPolicy> {
        dcnr_faults::calibration::type_index(t).and_then(|i| self.policies[i].as_ref())
    }

    /// Triage one issue.
    pub fn triage(&mut self, issue: RawIssue) -> RemediationOutcome {
        let outcome = self.triage_inner(issue);
        TriageTelemetry::resolve().observe(&outcome);
        outcome
    }

    fn triage_inner(&mut self, issue: RawIssue) -> RemediationOutcome {
        let year = issue.at.year();
        let t = issue.device_type;
        let rng_idx = dcnr_faults::calibration::type_index(t).unwrap_or(7);
        if self.hazard.automation_active(t, year) {
            // Split borrows: the policy table and the RNGs live in
            // disjoint fields.
            let Self {
                policies,
                rngs,
                actions,
                ..
            } = self;
            let rng = &mut rngs[rng_idx];
            let policy = dcnr_faults::calibration::type_index(t)
                .and_then(|i| policies[i].as_ref())
                .expect("active implies covered");
            let priority = policy.sample_priority(rng);
            let wait_secs = policy.sample_wait_secs(rng, priority);
            let exec_secs = policy.sample_exec_secs(rng);
            if policy.roll_repair(rng) {
                let action = actions.sample(rng);
                let completed_at = issue.at
                    + SimDuration::from_secs((wait_secs + exec_secs).round().max(0.0) as u64);
                RemediationOutcome::AutoRepaired(RepairRecord {
                    issue,
                    priority,
                    wait_secs,
                    exec_secs,
                    action,
                    completed_at,
                })
            } else {
                RemediationOutcome::Escalated {
                    issue,
                    automation_attempted: true,
                }
            }
        } else if self.rngs[rng_idx].gen::<f64>() < MANUAL_ESCALATION_PROB {
            RemediationOutcome::Escalated {
                issue,
                automation_attempted: false,
            }
        } else {
            RemediationOutcome::ManuallyResolved { issue }
        }
    }

    /// Triage a whole issue stream, preserving order: the outcomes of
    /// [`triage_stream`](Self::triage_stream), collected.
    pub fn triage_all(&mut self, issues: Vec<RawIssue>) -> Vec<RemediationOutcome> {
        self.triage_stream(issues).collect()
    }

    /// Triages `issues` one at a time, in order, as the returned
    /// iterator is advanced, so a caller can fold the outcomes without
    /// keeping them. Its counters and trace batch are bound once, to the
    /// collector installed when this is called, and flushed when the
    /// iterator drops.
    pub fn triage_stream<'a, I>(
        &'a mut self,
        issues: I,
    ) -> impl Iterator<Item = RemediationOutcome> + 'a
    where
        I: IntoIterator<Item = RawIssue>,
        I::IntoIter: 'a,
    {
        let mut telemetry = TriageTelemetry::resolve();
        issues.into_iter().map(move |issue| {
            let outcome = self.triage_inner(issue);
            telemetry.observe(&outcome);
            outcome
        })
    }
}

/// The triage counters and `repair_dispatch` trace of one `triage` call
/// or `triage_stream` iterator. They observe each outcome strictly after
/// `triage_inner` made all of its RNG draws, and reach the collector
/// when the `TriageTelemetry` drops.
struct TriageTelemetry {
    /// `auto_repaired`, `manually_resolved`, `escalated`.
    outcomes: CounterFamily<3>,
    /// Indexed like [`RemediationAction::ALL`], which is declaration order.
    actions: CounterFamily<5>,
    trace: StageTrace,
}

impl TriageTelemetry {
    fn resolve() -> Self {
        Self {
            outcomes: CounterFamily::new(
                "dcnr_remediation_outcomes_total",
                "outcome",
                ["auto_repaired", "manually_resolved", "escalated"],
            ),
            actions: CounterFamily::new(
                "dcnr_remediation_actions_total",
                "action",
                RemediationAction::ALL.map(RemediationAction::label),
            ),
            trace: dcnr_telemetry::stage_trace(),
        }
    }

    fn observe(&mut self, outcome: &RemediationOutcome) {
        if !self.outcomes.active() {
            return;
        }
        let kind = match outcome {
            RemediationOutcome::AutoRepaired(r) => {
                self.actions.inc(r.action as usize);
                self.trace.event(
                    r.issue.at.as_secs(),
                    "repair_dispatch",
                    [
                        r.issue.device_word(),
                        r.action as u64,
                        u64::from(r.priority),
                        0,
                    ],
                    write_repair_dispatch,
                );
                0
            }
            RemediationOutcome::ManuallyResolved { .. } => 1,
            RemediationOutcome::Escalated { .. } => 2,
        };
        self.outcomes.inc(kind);
    }
}

/// Writes a `repair_dispatch` detail: `[device word, action, priority]`.
fn write_repair_dispatch([device, action, priority, _]: [u64; 4], d: &mut String) {
    let action = RemediationAction::ALL[action as usize];
    let device = device_name_of_word(device);
    let _ = write!(d, "{device}: {action} (priority {priority})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_faults::{HazardModel, RootCause};
    use dcnr_sim::SimTime;

    fn issue(t: DeviceType, year: i32) -> RawIssue {
        RawIssue {
            at: SimTime::from_date(year, 6, 15).unwrap(),
            device_type: t,
            unit: 0,
            root_cause: RootCause::Hardware,
        }
    }

    fn engine() -> RemediationEngine {
        RemediationEngine::new(HazardModel::paper(), 99)
    }

    #[test]
    fn rsw_issues_rarely_escalate() {
        let mut e = engine();
        let n = 20_000;
        let escalated = (0..n)
            .filter(|_| e.triage(issue(DeviceType::Rsw, 2017)).is_escalated())
            .count() as f64;
        // Expect ~0.3% (Table 1: 99.7% repair ratio).
        assert!(
            (escalated / n as f64 - 0.003).abs() < 0.002,
            "rate {}",
            escalated / n as f64
        );
    }

    #[test]
    fn core_issues_escalate_a_quarter_of_the_time() {
        let mut e = engine();
        let n = 20_000;
        let escalated = (0..n)
            .filter(|_| e.triage(issue(DeviceType::Core, 2017)).is_escalated())
            .count() as f64;
        assert!((escalated / n as f64 - 0.25).abs() < 0.02);
    }

    #[test]
    fn uncovered_types_use_manual_probability() {
        let mut e = engine();
        let n = 20_000;
        let escalated = (0..n)
            .filter(|_| e.triage(issue(DeviceType::Csa, 2017)).is_escalated())
            .count() as f64;
        assert!((escalated / n as f64 - MANUAL_ESCALATION_PROB).abs() < 0.02);
    }

    #[test]
    fn pre_2013_everything_is_manual() {
        let mut e = engine();
        for _ in 0..1000 {
            if let RemediationOutcome::AutoRepaired(_) = e.triage(issue(DeviceType::Rsw, 2012)) {
                panic!("automation did not exist in 2012")
            }
        }
    }

    #[test]
    fn repaired_records_have_sane_fields() {
        let mut e = engine();
        let mut saw_repair = false;
        for _ in 0..200 {
            if let RemediationOutcome::AutoRepaired(r) = e.triage(issue(DeviceType::Rsw, 2017)) {
                saw_repair = true;
                assert!(r.priority <= 3);
                assert!(r.wait_secs >= 0.0);
                assert!(r.exec_secs >= 0.0);
                assert!(r.completed_at >= r.issue.at);
            }
        }
        assert!(saw_repair);
    }

    #[test]
    fn escalation_marks_automation_attempt() {
        let mut e = engine();
        for _ in 0..50_000 {
            match e.triage(issue(DeviceType::Csw, 2017)) {
                RemediationOutcome::Escalated {
                    automation_attempted,
                    ..
                } => {
                    assert!(!automation_attempted, "CSWs have no automation")
                }
                RemediationOutcome::AutoRepaired(_) => panic!("CSWs have no automation"),
                _ => {}
            }
        }
    }

    #[test]
    fn outcome_accessors() {
        let mut e = engine();
        let o = e.triage(issue(DeviceType::Rsw, 2016));
        assert_eq!(o.issue().device_type, DeviceType::Rsw);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = RemediationEngine::new(HazardModel::paper(), 7);
        let mut b = RemediationEngine::new(HazardModel::paper(), 7);
        for _ in 0..100 {
            assert_eq!(
                a.triage(issue(DeviceType::Fsw, 2016)),
                b.triage(issue(DeviceType::Fsw, 2016))
            );
        }
    }
}
