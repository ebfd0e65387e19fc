//! From remediation escalations to SEV reports.
//!
//! The last stage of the intra-DC pipeline: every issue that automation
//! (or manual operations) could not contain becomes a SEV report with a
//! severity drawn from the *emergent* per-type mixes (derived from
//! forwarding-state path losses, [`EmergentSeverityModel`] — not the
//! sampled Table 3 input), a sampled resolution time (Fig. 13 model),
//! and an impact summary — landing in the [`SevDb`] that the §5
//! analysis queries.

use crate::emergent::EmergentSeverityModel;
use crate::resolution::ResolutionModel;
use dcnr_faults::device_name_of_word;
use dcnr_remediation::RemediationOutcome;
use dcnr_sev::{SevDb, SevLevel};
use dcnr_sim::{stream_rng, SimDuration};
use dcnr_telemetry::CounterFamily;
use rand::rngs::StdRng;
use std::fmt::Write;

/// Builds SEV databases from triage outcomes.
pub struct SevGenerator {
    severity: &'static EmergentSeverityModel,
    resolution: ResolutionModel,
    rng: StdRng,
}

impl SevGenerator {
    /// Creates a generator on its own RNG stream (`"service.sevgen"`).
    /// Severities come from the shared [`EmergentSeverityModel`] — the
    /// 82/13/5 split is an output of the forwarding layer, checked by
    /// tests, never an input drawn from the paper's table.
    pub fn new(seed: u64) -> Self {
        Self {
            severity: EmergentSeverityModel::reference(),
            resolution: ResolutionModel::paper(),
            rng: stream_rng(seed, "service.sevgen"),
        }
    }

    /// Converts escalated outcomes into SEV reports, appending to `db`.
    /// Non-escalated outcomes are ignored (they never reached service
    /// impact). Returns the number of reports created.
    pub fn ingest(&mut self, outcomes: &[RemediationOutcome], db: &mut SevDb) -> usize {
        // Bound once, to the collector installed when the call starts,
        // and flushed when it returns. Indexed like `SevLevel::ALL`,
        // which is declaration order.
        let mut sevs = CounterFamily::new(
            "dcnr_service_sevs_total",
            "severity",
            SevLevel::ALL.map(SevLevel::label),
        );
        let mut trace = dcnr_telemetry::stage_trace();
        let mut created = 0;
        for outcome in outcomes {
            let RemediationOutcome::Escalated {
                issue,
                automation_attempted,
            } = outcome
            else {
                continue;
            };
            let severity = self.severity.sample(&mut self.rng, issue.device_type);
            let year = issue.at.year();
            let duration = self.resolution.sample(&mut self.rng, year, severity);
            let device_name = issue.device_name().to_string();
            let impact = format!(
                "{} on {device_name}: service-level impact{}",
                issue.root_cause,
                if *automation_attempted {
                    " (automated repair failed)"
                } else {
                    ""
                }
            );
            // All sampling for this record is done; telemetry below is
            // observation only.
            if sevs.active() {
                sevs.inc(severity as usize);
                let closed = issue.at + duration;
                let payload = [issue.device_word(), severity as u64, duration.as_secs(), 0];
                trace.event(issue.at.as_secs(), "sev_open", payload, write_sev_open);
                trace.event(closed.as_secs(), "sev_close", payload, write_sev_close);
            }
            db.insert(
                severity,
                device_name,
                vec![issue.root_cause],
                issue.at,
                issue.at + duration,
                impact,
            );
            created += 1;
        }
        created
    }
}

/// Writes a `sev_open` detail: `[device word, severity, ..]`.
fn write_sev_open([device, severity, ..]: [u64; 4], d: &mut String) {
    let severity = SevLevel::ALL[severity as usize];
    let _ = write!(d, "{severity} on {}", device_name_of_word(device));
}

/// Writes a `sev_close` detail: `[device word, severity, duration]`.
fn write_sev_close(payload: [u64; 4], d: &mut String) {
    write_sev_open(payload, d);
    let _ = write!(d, " after {}", SimDuration::from_secs(payload[2]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_faults::{HazardModel, IssueGenerator};
    use dcnr_remediation::RemediationEngine;
    use dcnr_sev::{MetricsExt, SevLevel};
    use dcnr_sim::StudyCalendar;
    use dcnr_topology::DeviceType;

    /// Run the full pipeline for one year and return the DB.
    fn pipeline(year: i32, seed: u64) -> SevDb {
        let gen = IssueGenerator::paper(1.0, seed);
        let issues = gen.generate(StudyCalendar::year(year));
        let mut engine = RemediationEngine::new(HazardModel::paper(), seed);
        let outcomes = engine.triage_all(issues);
        let mut db = SevDb::new();
        SevGenerator::new(seed).ingest(&outcomes, &mut db);
        db
    }

    #[test]
    fn escalations_become_sevs() {
        let db = pipeline(2017, 7);
        assert!(!db.is_empty());
        // Every record parses to a known type and carries a cause.
        for r in db.iter() {
            assert!(r.device_type().is_ok());
            assert!(!r.root_causes.is_empty());
            assert!(r.resolved_at >= r.opened_at);
        }
    }

    #[test]
    fn incident_volume_tracks_calibration() {
        // 2017 expectation: ~130 incidents at unit scale (see the
        // calibration tables). Poisson noise makes this loose.
        let db = pipeline(2017, 8);
        let n = db.len() as f64;
        assert!((n - 130.0).abs() < 45.0, "n = {n}");
    }

    #[test]
    fn severity_mix_emerges_within_calibrated_band() {
        // Cross-seed band machinery instead of a pooled point estimate:
        // each seed's SEV3 share is one replica; the bootstrap band
        // over replicas must sit within the documented tolerance of the
        // paper's 82% — which is *derived* (forwarding-state losses),
        // not sampled from Table 3.
        let shares: Vec<f64> = (0..6)
            .map(|seed| {
                let db = pipeline(2017, 100 + seed);
                let sev3 = db.iter().filter(|r| r.severity == SevLevel::Sev3).count();
                sev3 as f64 / db.len() as f64
            })
            .collect();
        let mut rng = dcnr_sim::stream_rng(4242, "test.sevband");
        let band = dcnr_stats::aggregate(&mut rng, &shares, 500, 0.95).expect("band");
        assert!(
            (band.mean - 0.82).abs() < EmergentSeverityModel::AGGREGATE_TOLERANCE,
            "cross-seed SEV3 band mean {} (band {band:?})",
            band.mean
        );
        // The per-seed spread is sampling noise, not model drift.
        assert!(band.stddev < 0.10, "band {band:?}");
    }

    #[test]
    fn core_share_dominates_2017() {
        let db = pipeline(2017, 9);
        let fractions = db.query().fraction_by_device_type();
        let core = fractions.get(&DeviceType::Core).copied().unwrap_or(0.0);
        assert!(core > 0.2, "core share {core}");
    }

    #[test]
    fn mtbi_metric_wired_through() {
        let db = pipeline(2017, 10);
        let growth = dcnr_faults::FleetGrowth::paper();
        let mtbi = db
            .mtbi_hours(DeviceType::Core, 2017, |t, y| growth.population(t, y))
            .expect("cores had incidents");
        // Target: 39 495 device-hours; allow generous Poisson noise.
        assert!((mtbi - 39_495.0).abs() / 39_495.0 < 0.5, "mtbi {mtbi}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = pipeline(2016, 77);
        let b = pipeline(2016, 77);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn non_escalated_outcomes_ignored() {
        let mut db = SevDb::new();
        let issue = dcnr_faults::RawIssue {
            at: dcnr_sim::SimTime::from_date(2017, 1, 1).unwrap(),
            device_type: DeviceType::Rsw,
            unit: 0,
            root_cause: dcnr_faults::RootCause::Hardware,
        };
        let outcomes = vec![RemediationOutcome::ManuallyResolved { issue }];
        let n = SevGenerator::new(1).ingest(&outcomes, &mut db);
        assert_eq!(n, 0);
        assert!(db.is_empty());
    }
}
