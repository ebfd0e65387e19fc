//! Table 1 aggregation: repair ratio / priority / wait / repair time.
//!
//! Given a window of triage outcomes, compute per-device-type statistics
//! in the exact shape of the paper's Table 1 so the bench harness can
//! print the same rows. [`Table1Accumulator`] takes the outcomes one at
//! a time, so the study folds the table during triage instead of
//! keeping every outcome.

use crate::engine::RemediationOutcome;
use dcnr_topology::DeviceType;
use std::collections::BTreeMap;

/// Per-type repair statistics (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRepairStats {
    /// Device type.
    pub device_type: DeviceType,
    /// Issues automation attempted (repaired + escalated-after-attempt).
    pub attempted: u64,
    /// Issues automation repaired.
    pub repaired: u64,
    /// Issues that escalated to incidents after an automation attempt.
    pub escalated: u64,
    /// Mean priority over repaired issues.
    pub avg_priority: f64,
    /// Mean queue wait over repaired issues, seconds.
    pub avg_wait_secs: f64,
    /// Mean execution time over repaired issues, seconds.
    pub avg_exec_secs: f64,
}

impl DeviceRepairStats {
    /// Table 1's "Repair Ratio": repaired / (repaired + escalated).
    pub fn repair_ratio(&self) -> f64 {
        let denom = (self.repaired + self.escalated) as f64;
        if denom > 0.0 {
            self.repaired as f64 / denom
        } else {
            0.0
        }
    }
}

/// The whole Table 1: one row per automated type seen in the window.
#[derive(Debug, Clone, Default)]
pub struct Table1Report {
    rows: BTreeMap<DeviceType, DeviceRepairStats>,
}

/// One type's running Table 1 sums.
#[derive(Debug, Clone, Copy, Default)]
struct RowSums {
    attempted: u64,
    repaired: u64,
    escalated: u64,
    prio_sum: f64,
    wait_sum: f64,
    exec_sum: f64,
}

/// Table 1 folded one triage outcome at a time, so a pass over the
/// issue stream can build it without keeping the outcomes. Only
/// outcomes where automation was involved contribute (manual
/// resolutions and manual escalations are outside the table's scope).
/// Each type's sums add in observation order, so the finished report is
/// bit-identical to [`Table1Report::from_outcomes`] over the same
/// outcomes.
#[derive(Debug, Clone, Default)]
pub struct Table1Accumulator {
    /// Indexed by `t as usize`, the order of `DeviceType::ALL`.
    sums: [RowSums; DeviceType::ALL.len()],
}

impl Table1Accumulator {
    /// Adds one outcome to its type's row.
    pub fn observe(&mut self, outcome: &RemediationOutcome) {
        match outcome {
            RemediationOutcome::AutoRepaired(r) => {
                let a = &mut self.sums[r.issue.device_type as usize];
                a.attempted += 1;
                a.repaired += 1;
                a.prio_sum += r.priority as f64;
                a.wait_sum += r.wait_secs;
                a.exec_sum += r.exec_secs;
            }
            RemediationOutcome::Escalated {
                issue,
                automation_attempted: true,
            } => {
                let a = &mut self.sums[issue.device_type as usize];
                a.attempted += 1;
                a.escalated += 1;
            }
            _ => {}
        }
    }

    /// The finished table: a row for every type automation attempted.
    pub fn finish(self) -> Table1Report {
        let rows = DeviceType::ALL
            .into_iter()
            .zip(self.sums)
            .filter(|(_, a)| a.attempted > 0)
            .map(|(t, a)| {
                let n = a.repaired.max(1) as f64;
                (
                    t,
                    DeviceRepairStats {
                        device_type: t,
                        attempted: a.attempted,
                        repaired: a.repaired,
                        escalated: a.escalated,
                        avg_priority: a.prio_sum / n,
                        avg_wait_secs: a.wait_sum / n,
                        avg_exec_secs: a.exec_sum / n,
                    },
                )
            })
            .collect();
        Table1Report { rows }
    }
}

impl Table1Report {
    /// Aggregates triage outcomes into Table 1 rows: a
    /// [`Table1Accumulator`] fold over them.
    pub fn from_outcomes<'a>(outcomes: impl IntoIterator<Item = &'a RemediationOutcome>) -> Self {
        outcomes
            .into_iter()
            .fold(Table1Accumulator::default(), |mut acc, o| {
                acc.observe(o);
                acc
            })
            .finish()
    }

    /// The row for `t`, if automation handled any of its issues.
    pub fn row(&self, t: DeviceType) -> Option<&DeviceRepairStats> {
        self.rows.get(&t)
    }

    /// All rows, ordered by device type.
    pub fn rows(&self) -> impl Iterator<Item = &DeviceRepairStats> {
        self.rows.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RemediationEngine;
    use dcnr_faults::{HazardModel, RawIssue, RootCause};
    use dcnr_sim::SimTime;

    fn make_outcomes(t: DeviceType, n: usize) -> Vec<RemediationOutcome> {
        let mut e = RemediationEngine::new(HazardModel::paper(), 1234);
        (0..n)
            .map(|i| {
                e.triage(RawIssue {
                    at: SimTime::from_date(2017, 6, 1).unwrap()
                        + dcnr_sim::SimDuration::from_secs(i as u64),
                    device_type: t,
                    unit: (i % 100) as u32,
                    root_cause: RootCause::Hardware,
                })
            })
            .collect()
    }

    #[test]
    fn rsw_row_matches_table1() {
        let outcomes = make_outcomes(DeviceType::Rsw, 50_000);
        let report = Table1Report::from_outcomes(&outcomes);
        let row = report.row(DeviceType::Rsw).unwrap();
        assert!(
            (row.repair_ratio() - 0.997).abs() < 0.002,
            "ratio {}",
            row.repair_ratio()
        );
        assert!(
            (row.avg_priority - 2.22).abs() < 0.05,
            "priority {}",
            row.avg_priority
        );
        assert!(
            (row.avg_wait_secs - 86_400.0).abs() / 86_400.0 < 0.05,
            "wait {}",
            row.avg_wait_secs
        );
        assert!(
            (row.avg_exec_secs - 2.91).abs() < 0.15,
            "exec {}",
            row.avg_exec_secs
        );
    }

    #[test]
    fn core_row_matches_table1() {
        let outcomes = make_outcomes(DeviceType::Core, 50_000);
        let report = Table1Report::from_outcomes(&outcomes);
        let row = report.row(DeviceType::Core).unwrap();
        assert!((row.repair_ratio() - 0.75).abs() < 0.01);
        assert!(
            row.avg_priority.abs() < 1e-9,
            "Core repairs are always priority 0"
        );
        assert!((row.avg_wait_secs - 240.0).abs() / 240.0 < 0.05);
        assert!((row.avg_exec_secs - 30.1).abs() < 1.0);
    }

    #[test]
    fn uncovered_types_have_no_row() {
        let outcomes = make_outcomes(DeviceType::Csa, 10_000);
        let report = Table1Report::from_outcomes(&outcomes);
        assert!(report.row(DeviceType::Csa).is_none());
    }

    #[test]
    fn empty_outcomes_empty_report() {
        let report = Table1Report::from_outcomes(&[]);
        assert_eq!(report.rows().count(), 0);
    }

    #[test]
    fn ratio_counts_attempted_only() {
        let outcomes = make_outcomes(DeviceType::Fsw, 30_000);
        let report = Table1Report::from_outcomes(&outcomes);
        let row = report.row(DeviceType::Fsw).unwrap();
        assert_eq!(row.attempted, row.repaired + row.escalated);
        assert!((row.repair_ratio() - 0.995).abs() < 0.003);
    }
}
