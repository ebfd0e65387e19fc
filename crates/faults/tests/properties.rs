//! Property-based tests for the fault models.

use dcnr_faults::hazard::HazardConfig;
use dcnr_faults::{FleetGrowth, HazardModel, IssueGenerator, RootCauseModel};
use dcnr_sim::StudyCalendar;
use dcnr_topology::{parse_device_type, DeviceType};
use proptest::prelude::*;

fn any_type() -> impl Strategy<Value = DeviceType> {
    proptest::sample::select(DeviceType::INTRA_DC.to_vec())
}

fn any_config() -> impl Strategy<Value = HazardConfig> {
    (any::<bool>(), any::<bool>()).prop_map(|(automation_enabled, drain_policy_enabled)| {
        HazardConfig {
            automation_enabled,
            drain_policy_enabled,
        }
    })
}

proptest! {
    #[test]
    fn issue_times_escalation_equals_incident_under_any_config(
        config in any_config(),
        t in any_type(),
        year in 2011i32..=2017
    ) {
        let m = HazardModel::with_config(config);
        let lhs = m.issue_rate(t, year) * m.escalation_probability(t, year);
        let rhs = m.incident_rate(t, year);
        prop_assert!((lhs - rhs).abs() < 1e-9, "{t} {year} {config:?}: {lhs} vs {rhs}");
    }

    #[test]
    fn rates_are_finite_and_nonnegative(config in any_config(), t in any_type(), year in 2005i32..2025) {
        let m = HazardModel::with_config(config);
        for v in [m.incident_rate(t, year), m.issue_rate(t, year), m.escalation_probability(t, year)] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
        prop_assert!(m.escalation_probability(t, year) <= 1.0);
    }

    #[test]
    fn ablations_never_reduce_incident_rates(t in any_type(), year in 2011i32..=2017) {
        // Turning protective mechanisms *off* can only raise (or keep)
        // the incident rate.
        let base = HazardModel::paper();
        for config in [
            HazardConfig { automation_enabled: false, drain_policy_enabled: true },
            HazardConfig { automation_enabled: true, drain_policy_enabled: false },
            HazardConfig { automation_enabled: false, drain_policy_enabled: false },
        ] {
            let ablated = HazardModel::with_config(config);
            prop_assert!(
                ablated.incident_rate(t, year) + 1e-12 >= base.incident_rate(t, year),
                "{t} {year} {config:?}"
            );
        }
    }

    #[test]
    fn growth_scaling_is_linear(scale in 0.1..20.0f64, t in any_type(), year in 2011i32..=2017) {
        let unit = FleetGrowth::paper();
        let scaled = FleetGrowth::scaled(scale);
        prop_assert!(
            (scaled.population(t, year) - unit.population(t, year) * scale).abs() < 1e-6
        );
    }

    #[test]
    fn population_fractions_sum_to_one(year in 2011i32..=2017, scale in 0.5..8.0f64) {
        let g = FleetGrowth::scaled(scale);
        let sum: f64 = DeviceType::INTRA_DC.iter().map(|&t| g.population_fraction(t, year)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generated_issues_are_well_formed(seed in any::<u64>(), year in 2011i32..=2017) {
        let gen = IssueGenerator::new(
            FleetGrowth::scaled(0.5),
            HazardModel::paper(),
            RootCauseModel::paper(),
            seed,
        );
        let window = StudyCalendar::year(year);
        let issues = gen.generate(window);
        prop_assert!(issues.windows(2).all(|p| p[0].at <= p[1].at), "sorted");
        for issue in &issues {
            prop_assert!(window.contains(issue.at));
            prop_assert_eq!(parse_device_type(&issue.device_name().to_string()).unwrap(), issue.device_type);
        }
    }
}
