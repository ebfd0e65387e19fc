//! The issue generator: populations × issue rates → a deterministic
//! stream of raw device issues.
//!
//! Each device type's issue arrivals form a Poisson process whose rate is
//! piecewise-constant per calendar year (`population(year) ×
//! issue_rate(year)`). Arrivals are produced by exponential inter-arrival
//! sampling within each year, per type, on an independent RNG stream —
//! so changing one type's model never perturbs another's stream.
//!
//! Every issue carries a synthetic offending-device name generated with
//! the fleet naming convention, which is how the downstream SEV analysis
//! classifies incidents (§4.3.1) — the pipeline genuinely parses names
//! rather than cheating with an enum field.

use crate::growth::FleetGrowth;
use crate::hazard::HazardModel;
use crate::root_cause::{RootCause, RootCauseModel};
use dcnr_sim::{stream_rng, SimDuration, SimTime, StudyCalendar};
use dcnr_topology::{format_device_name, DeviceType};
use rand::Rng;
use std::fmt::Write;

/// One raw device issue, before remediation triage.
#[derive(Debug, Clone, PartialEq)]
pub struct RawIssue {
    /// When the issue manifested.
    pub at: SimTime,
    /// The offending device's type.
    pub device_type: DeviceType,
    /// The offending device's name (convention-formatted; the SEV
    /// pipeline re-derives the type by parsing this).
    pub device_name: String,
    /// The underlying root cause.
    pub root_cause: RootCause,
}

/// Deterministic generator of [`RawIssue`] streams.
#[derive(Debug, Clone)]
pub struct IssueGenerator {
    growth: FleetGrowth,
    hazard: HazardModel,
    causes: RootCauseModel,
    seed: u64,
}

impl IssueGenerator {
    /// Creates a generator from fleet, hazard, and root-cause models.
    pub fn new(
        growth: FleetGrowth,
        hazard: HazardModel,
        causes: RootCauseModel,
        seed: u64,
    ) -> Self {
        Self {
            growth,
            hazard,
            causes,
            seed,
        }
    }

    /// The paper-calibrated generator at the given fleet scale.
    pub fn paper(scale: f64, seed: u64) -> Self {
        Self::new(
            FleetGrowth::scaled(scale),
            HazardModel::paper(),
            RootCauseModel::paper(),
            seed,
        )
    }

    /// The fleet model.
    pub fn growth(&self) -> &FleetGrowth {
        &self.growth
    }

    /// The hazard model.
    pub fn hazard(&self) -> &HazardModel {
        &self.hazard
    }

    /// Generates all issues for one device type within `window`,
    /// time-ordered.
    pub fn generate_type(&self, t: DeviceType, window: StudyCalendar) -> Vec<RawIssue> {
        // Telemetry observes the generation, it never participates in
        // it: the RNG stream below is fully drawn regardless of whether
        // a collector is installed, and the per-issue counter handle is
        // resolved once (None when telemetry is off).
        let _span = dcnr_telemetry::span(&format!("intra.issue_gen.{}", t.name_prefix()));
        let issue_counter = dcnr_telemetry::counter(
            "dcnr_faults_issues_total",
            &[("device_type", t.name_prefix())],
        );
        let mut rng = stream_rng(self.seed, &format!("faults.issues.{}", t.name_prefix()));
        let mut out = Vec::new();
        for year in window.years() {
            let year_window = StudyCalendar::year(year);
            let start = year_window.start.max(window.start);
            let end = year_window.end.min(window.end);
            if start >= end {
                continue;
            }
            let pop = self.growth.population(t, year);
            let rate_per_dev_year = self.hazard.issue_rate(t, year);
            let hourly = pop * rate_per_dev_year / year_window.hours();
            if hourly <= 0.0 {
                continue;
            }
            let mean_gap_hours = 1.0 / hourly;
            let mut at = start;
            loop {
                let u: f64 = rng.gen();
                let gap = -mean_gap_hours * (1.0 - u).ln();
                at += SimDuration::from_hours_f64(gap);
                if at >= end {
                    break;
                }
                let device_name = self.sample_device_name(&mut rng, t, pop);
                let root_cause = self.causes.sample(&mut rng, t);
                if let Some(counter) = &issue_counter {
                    counter.inc();
                    dcnr_telemetry::trace_event(at.as_secs(), "device_failure", |d| {
                        let _ = write!(d, "{device_name}: {root_cause}");
                    });
                }
                out.push(RawIssue {
                    at,
                    device_type: t,
                    device_name,
                    root_cause,
                });
            }
        }
        out
    }

    /// Generates the full multi-type issue stream for `window`, merged
    /// and time-ordered.
    pub fn generate(&self, window: StudyCalendar) -> Vec<RawIssue> {
        let mut all: Vec<RawIssue> = DeviceType::INTRA_DC
            .iter()
            .flat_map(|&t| self.generate_type(t, window))
            .collect();
        all.sort_by_key(|i| i.at);
        all
    }

    /// Picks a concrete device within the population: data centers hold
    /// up to 4096 devices of a type, scopes (cluster/pod) up to 64.
    fn sample_device_name<R: Rng + ?Sized>(&self, rng: &mut R, t: DeviceType, pop: f64) -> String {
        let unit = rng.gen_range(0..(pop.ceil() as u32).max(1));
        let datacenter = (unit / 4096) as u16;
        let scope_idx = (unit / 64) % 64;
        let scope = match t.design() {
            dcnr_topology::NetworkDesign::Cluster => 'c',
            dcnr_topology::NetworkDesign::Fabric => 'p',
            dcnr_topology::NetworkDesign::Shared => 'x',
        };
        format_device_name(t, datacenter, scope, scope_idx, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_topology::parse_device_type;

    fn gen() -> IssueGenerator {
        IssueGenerator::paper(1.0, 0xFACE)
    }

    #[test]
    fn deterministic_across_calls() {
        let w = StudyCalendar::intra_dc();
        let a = gen().generate_type(DeviceType::Csa, w);
        let b = gen().generate_type(DeviceType::Csa, w);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_is_time_ordered_and_in_window() {
        let w = StudyCalendar::intra_dc();
        let issues = gen().generate(w);
        assert!(!issues.is_empty());
        assert!(issues.windows(2).all(|p| p[0].at <= p[1].at));
        assert!(issues.iter().all(|i| w.contains(i.at)));
    }

    #[test]
    fn names_parse_back_to_their_type() {
        let w = StudyCalendar::year(2017);
        for issue in gen().generate(w) {
            assert_eq!(
                parse_device_type(&issue.device_name).unwrap(),
                issue.device_type
            );
        }
    }

    #[test]
    fn issue_volume_matches_rate_times_population() {
        // CSA 2013: 30 devices × (1.7 / 0.25 manual escalation) = 204
        // expected issues; Poisson σ ≈ 14.
        let w = StudyCalendar::year(2013);
        let n = gen().generate_type(DeviceType::Csa, w).len() as f64;
        assert!((n - 204.0).abs() < 60.0, "n = {n}");
    }

    #[test]
    fn no_fabric_issues_before_2015() {
        let w = StudyCalendar::year(2014);
        assert!(gen().generate_type(DeviceType::Fsw, w).is_empty());
        assert!(gen().generate_type(DeviceType::Ssw, w).is_empty());
        assert!(gen().generate_type(DeviceType::Esw, w).is_empty());
    }

    #[test]
    fn rsw_issue_stream_dwarfs_incident_expectations() {
        // 2017: 41 500 RSWs × 0.000877/0.003 ≈ 12 131 issues expected.
        let w = StudyCalendar::year(2017);
        let n = gen().generate_type(DeviceType::Rsw, w).len() as f64;
        assert!((n - 12_131.0).abs() / 12_131.0 < 0.05, "n = {n}");
    }

    #[test]
    fn scale_multiplies_volume() {
        let w = StudyCalendar::year(2016);
        let n1 = gen().generate_type(DeviceType::Csw, w).len() as f64;
        let n4 = IssueGenerator::paper(4.0, 0xFACE)
            .generate_type(DeviceType::Csw, w)
            .len() as f64;
        assert!((n4 / n1 - 4.0).abs() < 0.8, "ratio {}", n4 / n1);
    }

    #[test]
    fn telemetry_counts_issues_without_perturbing_them() {
        let w = StudyCalendar::year(2016);
        let bare = gen().generate_type(DeviceType::Csw, w);
        let t = dcnr_telemetry::Telemetry::new_handle();
        let observed = {
            let _guard = dcnr_telemetry::installed(t.clone());
            gen().generate_type(DeviceType::Csw, w)
        };
        assert_eq!(bare, observed, "telemetry must not perturb generation");
        let snap = t.metrics.snapshot();
        assert_eq!(
            snap.counter_value("dcnr_faults_issues_total", &[("device_type", "csw")]),
            bare.len() as u64
        );
        let trace = t.trace.snapshot();
        assert_eq!(trace.seen, bare.len() as u64);
    }

    #[test]
    fn different_seeds_differ() {
        let w = StudyCalendar::year(2016);
        let a = IssueGenerator::paper(1.0, 1).generate_type(DeviceType::Csw, w);
        let b = IssueGenerator::paper(1.0, 2).generate_type(DeviceType::Csw, w);
        assert_ne!(a, b);
    }

    #[test]
    fn partial_year_window_clips() {
        // Only the last quarter of 2017.
        let w = StudyCalendar {
            start: SimTime::from_date(2017, 10, 1).unwrap(),
            end: SimTime::from_date(2018, 1, 1).unwrap(),
        };
        let issues = gen().generate_type(DeviceType::Rsw, w);
        let full = gen().generate_type(DeviceType::Rsw, StudyCalendar::year(2017));
        let ratio = issues.len() as f64 / full.len() as f64;
        assert!((ratio - 92.0 / 365.0).abs() < 0.05, "ratio {ratio}");
        assert!(issues.iter().all(|i| w.contains(i.at)));
    }
}
