//! SEV severity levels (§4.2, Table 3).
//!
//! "SEVs fall into three categories of severity ranging from SEV3
//! (lowest severity, no external outage) to SEV1 (highest severity,
//! widespread external outage). ... A SEV level reflects the high water
//! mark for an incident. A SEV's level is never downgraded to reflect
//! progress in resolving the SEV." (§5.3)

use std::fmt;

/// A SEV's severity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SevLevel {
    /// Highest severity: "Entire Facebook product or service outage,
    /// data center outage, major portions of the site are unavailable,
    /// outages that affect multiple products or services." (Table 3)
    Sev1,
    /// "Service outages that affect a particular Facebook feature,
    /// regional network impairment, critical internal tool outages that
    /// put the site at risk."
    Sev2,
    /// Lowest severity: "Redundant or contained system failures, system
    /// impairments that do not affect or only minimally affect customer
    /// experience, internal tool failures."
    Sev3,
}

impl SevLevel {
    /// All levels, most severe first.
    pub const ALL: [SevLevel; 3] = [SevLevel::Sev1, SevLevel::Sev2, SevLevel::Sev3];

    /// Numeric level (1 = most severe).
    pub fn number(self) -> u8 {
        match self {
            SevLevel::Sev1 => 1,
            SevLevel::Sev2 => 2,
            SevLevel::Sev3 => 3,
        }
    }

    /// The display name (`SEV1`…`SEV3`), which also labels telemetry
    /// series.
    pub fn label(self) -> &'static str {
        match self {
            SevLevel::Sev1 => "SEV1",
            SevLevel::Sev2 => "SEV2",
            SevLevel::Sev3 => "SEV3",
        }
    }

    /// From a numeric level.
    pub fn from_number(n: u8) -> Option<SevLevel> {
        match n {
            1 => Some(SevLevel::Sev1),
            2 => Some(SevLevel::Sev2),
            3 => Some(SevLevel::Sev3),
            _ => None,
        }
    }

    /// The *high-water-mark* combination rule: an incident's level can
    /// only escalate (toward SEV1), never downgrade.
    pub fn escalate_to(self, other: SevLevel) -> SevLevel {
        if other.number() < self.number() {
            other
        } else {
            self
        }
    }

    /// Whether this level implies externally visible impact.
    pub fn externally_visible(self) -> bool {
        !matches!(self, SevLevel::Sev3)
    }
}

impl fmt::Display for SevLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_roundtrip() {
        for l in SevLevel::ALL {
            assert_eq!(SevLevel::from_number(l.number()), Some(l));
        }
        assert_eq!(SevLevel::from_number(0), None);
        assert_eq!(SevLevel::from_number(4), None);
    }

    #[test]
    fn ordering_most_severe_first() {
        assert!(SevLevel::Sev1 < SevLevel::Sev2);
        assert!(SevLevel::Sev2 < SevLevel::Sev3);
    }

    #[test]
    fn high_water_mark_never_downgrades() {
        assert_eq!(SevLevel::Sev3.escalate_to(SevLevel::Sev1), SevLevel::Sev1);
        assert_eq!(SevLevel::Sev1.escalate_to(SevLevel::Sev3), SevLevel::Sev1);
        assert_eq!(SevLevel::Sev2.escalate_to(SevLevel::Sev2), SevLevel::Sev2);
    }

    #[test]
    fn visibility() {
        assert!(SevLevel::Sev1.externally_visible());
        assert!(SevLevel::Sev2.externally_visible());
        assert!(!SevLevel::Sev3.externally_visible());
    }

    #[test]
    fn display() {
        assert_eq!(SevLevel::Sev1.to_string(), "SEV1");
        assert_eq!(SevLevel::Sev3.to_string(), "SEV3");
    }
}
