//! The remediation action taxonomy (§4.1.3).
//!
//! "The most frequent 90% of automated repairs are: device port ping
//! failures that are repaired by turning the port off and on again (50%
//! of remediations), configuration file backup failures ... repaired by
//! restarting the configuration service and reestablishing a secure
//! shell connection (32.4%), fan failures which are remediated by
//! extracting failure details and alerting a technician (4.5%), unable
//! to ping the device ... which collects details about the device and
//! assigns a task to a technician (4.0%)."

use dcnr_faults::calibration::ACTION_MIX;
use dcnr_stats::Categorical;
use rand::Rng;
use std::fmt;

/// What the automated repair system did about an issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemediationAction {
    /// Port ping failure → turn the port off and on again (50%).
    PortCycle,
    /// Configuration file backup failure → restart the configuration
    /// service and re-establish SSH (32.4%).
    ConfigServiceRestart,
    /// Fan failure → extract details and alert a technician (4.5%).
    FanAlert,
    /// Device unreachable from the liveness monitor → collect details
    /// and assign a technician task (4.0%).
    LivenessTask,
    /// Everything else (the long tail outside the "most frequent 90%").
    Other,
}

impl RemediationAction {
    /// All actions, in §4.1.3 order.
    pub const ALL: [RemediationAction; 5] = [
        RemediationAction::PortCycle,
        RemediationAction::ConfigServiceRestart,
        RemediationAction::FanAlert,
        RemediationAction::LivenessTask,
        RemediationAction::Other,
    ];

    /// The paper's share for this action.
    pub fn paper_share(self) -> f64 {
        let idx = Self::ALL.iter().position(|&a| a == self).expect("in ALL");
        ACTION_MIX[idx]
    }

    /// The action's display name, which also labels its telemetry
    /// series.
    pub fn label(self) -> &'static str {
        match self {
            RemediationAction::PortCycle => "port off/on cycle",
            RemediationAction::ConfigServiceRestart => "configuration service restart",
            RemediationAction::FanAlert => "fan failure alert",
            RemediationAction::LivenessTask => "liveness technician task",
            RemediationAction::Other => "other",
        }
    }

    /// Whether the action still involves a human technician (fan alerts
    /// and liveness tasks page someone; the repair system's contribution
    /// is triage and data collection).
    pub fn involves_technician(self) -> bool {
        matches!(
            self,
            RemediationAction::FanAlert | RemediationAction::LivenessTask
        )
    }
}

impl fmt::Display for RemediationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sampler over the action mix.
#[derive(Debug, Clone)]
pub struct ActionModel {
    dist: Categorical,
}

impl ActionModel {
    /// The §4.1.3 mix.
    pub fn paper() -> Self {
        Self {
            dist: Categorical::new(&ACTION_MIX).expect("valid mix"),
        }
    }

    /// Samples one action.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RemediationAction {
        RemediationAction::ALL[self.dist.sample_index(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shares_match_paper() {
        assert_eq!(RemediationAction::PortCycle.paper_share(), 0.50);
        assert_eq!(RemediationAction::ConfigServiceRestart.paper_share(), 0.324);
        assert_eq!(RemediationAction::FanAlert.paper_share(), 0.045);
        assert_eq!(RemediationAction::LivenessTask.paper_share(), 0.040);
    }

    #[test]
    fn technician_involvement() {
        assert!(!RemediationAction::PortCycle.involves_technician());
        assert!(!RemediationAction::ConfigServiceRestart.involves_technician());
        assert!(RemediationAction::FanAlert.involves_technician());
        assert!(RemediationAction::LivenessTask.involves_technician());
    }

    #[test]
    fn sampling_frequency() {
        let m = ActionModel::paper();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 100_000;
        let cycles = (0..n)
            .filter(|_| m.sample(&mut rng) == RemediationAction::PortCycle)
            .count() as f64;
        assert!((cycles / n as f64 - 0.50).abs() < 0.01);
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            RemediationAction::PortCycle.to_string(),
            "port off/on cycle"
        );
    }
}
