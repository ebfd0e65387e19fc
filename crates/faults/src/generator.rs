//! The issue generator: populations × issue rates → a deterministic
//! stream of raw device issues.
//!
//! Each device type's issue arrivals form a Poisson process whose rate is
//! piecewise-constant per calendar year (`population(year) ×
//! issue_rate(year)`). Arrivals are produced by exponential inter-arrival
//! sampling within each year, per type, on an independent RNG stream —
//! so changing one type's model never perturbs another's stream.
//!
//! Every issue records which device of its type's fleet it struck, as
//! the drawn unit index. Its convention name ([`RawIssue::device_name`])
//! is formatted only where it is read: when an escalated issue becomes a
//! SEV report, whose analysis classifies incidents by parsing that name
//! (§4.3.1) rather than cheating with an enum field, and in trace output.

use crate::growth::FleetGrowth;
use crate::hazard::HazardModel;
use crate::root_cause::{RootCause, RootCauseModel};
use dcnr_sim::{stream_rng, SimDuration, SimTime, StudyCalendar};
use dcnr_topology::{DeviceName, DeviceType};
use rand::Rng;
use std::fmt::Write;

/// One raw device issue, before remediation triage.
#[derive(Debug, Clone, PartialEq)]
pub struct RawIssue {
    /// When the issue manifested.
    pub at: SimTime,
    /// The offending device's type.
    pub device_type: DeviceType,
    /// The offending device: its index within its type's fleet.
    pub unit: u32,
    /// The underlying root cause.
    pub root_cause: RootCause,
}

// A scale-10 replica streams ~390k issues through triage; a heap field
// here (a formatted name) would cost an allocation each.
const _: () = assert!(std::mem::size_of::<RawIssue>() <= 16);

impl RawIssue {
    /// The offending device's convention name (the SEV pipeline
    /// re-derives the type by parsing it), formatted when displayed.
    pub fn device_name(&self) -> DeviceName {
        DeviceName::of_unit(self.device_type, self.unit)
    }

    /// The offending device as one trace-payload word; see
    /// [`device_name_of_word`].
    pub fn device_word(&self) -> u64 {
        (self.device_type as u64) << 32 | u64::from(self.unit)
    }
}

/// The name of the device a [`RawIssue::device_word`] packs, for trace
/// detail writers.
pub fn device_name_of_word(word: u64) -> DeviceName {
    DeviceName::of_unit(DeviceType::ALL[(word >> 32) as usize], word as u32)
}

/// Writes a `device_failure` detail: `[device word, root cause]`.
fn write_device_failure([device, cause, ..]: [u64; 4], d: &mut String) {
    let cause = RootCause::ALL[cause as usize];
    let _ = write!(d, "{}: {cause}", device_name_of_word(device));
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
        // a collector is installed. The counter and the trace batch are
        // bound once (inert when telemetry is off); the count is added
        // once, and the batch reaches the trace when this call returns.
        let _span = dcnr_telemetry::span(&format!("intra.issue_gen.{}", t.name_prefix()));
        let issue_counter = dcnr_telemetry::counter(
            "dcnr_faults_issues_total",
            &[("device_type", t.name_prefix())],
        );
        let mut trace = dcnr_telemetry::stage_trace();
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
                // A concrete device within the population.
                let unit = rng.gen_range(0..(pop.ceil() as u32).max(1));
                let root_cause = self.causes.sample(&mut rng, t);
                let issue = RawIssue {
                    at,
                    device_type: t,
                    unit,
                    root_cause,
                };
                if trace.active() {
                    trace.event(
                        at.as_secs(),
                        "device_failure",
                        [issue.device_word(), root_cause as u64, 0, 0],
                        write_device_failure,
                    );
                }
                out.push(issue);
            }
        }
        if let Some(counter) = issue_counter {
            counter.add(out.len() as u64);
        }
        out
    }

    /// Generates the full multi-type issue stream for `window`, merged
    /// and time-ordered.
    pub fn generate(&self, window: StudyCalendar) -> Vec<RawIssue> {
        self.merged(window).collect()
    }

    /// The issues [`generate`](Self::generate) returns, yielded one at a
    /// time. Each type's stream is generated up front, in
    /// [`DeviceType::INTRA_DC`] order; the merge then hands out issues
    /// without copying the streams into one sorted vector.
    pub fn merged(&self, window: StudyCalendar) -> MergedIssues {
        MergedIssues {
            streams: DeviceType::INTRA_DC.map(|t| self.generate_type(t, window).into_iter()),
            current: 0,
            run: 0,
        }
    }
}

/// A k-way merge of the per-type issue streams, ordered by `at`. Issues
/// at the same instant come in [`DeviceType::INTRA_DC`] order, and within
/// one type in generation order: the order of concatenating the streams
/// and sorting the result stably by `at`.
///
/// Issues are handed out in runs: one stream's issues up to the next
/// head of any other stream, so the heads are compared once per switch
/// between streams rather than once per issue.
#[derive(Debug)]
pub struct MergedIssues {
    streams: [std::vec::IntoIter<RawIssue>; DeviceType::INTRA_DC.len()],
    /// The stream the current run comes from.
    current: usize,
    /// How many issues the current run has left.
    run: usize,
}

impl MergedIssues {
    /// Starts the next run, or returns `false` once every stream is
    /// drained. Every issue is ordered by `(at, stream index)`: the
    /// stream with the least head runs while its issues come before the
    /// least head among the others.
    fn next_run(&mut self) -> bool {
        let head =
            |(i, s): (usize, &std::vec::IntoIter<RawIssue>)| Some((s.as_slice().first()?.at, i));
        let heads = || self.streams.iter().enumerate().filter_map(head);
        let Some((_, current)) = heads().min() else {
            return false;
        };
        let bound = heads().filter(|&(_, i)| i != current).min();
        let issues = self.streams[current].as_slice();
        self.run = match bound {
            Some(bound) => issues
                .iter()
                .take_while(|x| (x.at, current) < bound)
                .count(),
            None => issues.len(),
        };
        self.current = current;
        true
    }
}

impl Iterator for MergedIssues {
    type Item = RawIssue;

    fn next(&mut self) -> Option<RawIssue> {
        if self.run == 0 && !self.next_run() {
            return None;
        }
        self.run -= 1;
        self.streams[self.current].next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for MergedIssues {
    fn len(&self) -> usize {
        self.streams.iter().map(ExactSizeIterator::len).sum()
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
    fn merge_orders_ties_like_a_stable_sort_of_the_concatenated_streams() {
        // The oracle is the concatenate-then-sort the merge replaced. At
        // scale 2 some issues of different types share an instant, so
        // the tie order is exercised, not only the time order.
        let gen = IssueGenerator::paper(2.0, 7);
        let w = StudyCalendar::intra_dc();
        let mut oracle: Vec<RawIssue> = DeviceType::INTRA_DC
            .iter()
            .flat_map(|&t| gen.generate_type(t, w))
            .collect();
        oracle.sort_by_key(|i| i.at);
        let merged = gen.generate(w);
        let cross_type_ties = merged
            .windows(2)
            .filter(|p| p[0].at == p[1].at && p[0].device_type != p[1].device_type)
            .count();
        assert!(cross_type_ties > 0, "no two types share an instant");
        assert!(merged == oracle, "merge order differs from the stable sort");
    }

    #[test]
    fn names_parse_back_to_their_type() {
        let w = StudyCalendar::year(2017);
        for issue in gen().generate(w) {
            assert_eq!(
                parse_device_type(&issue.device_name().to_string()).unwrap(),
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
        let retained = trace.head.iter().chain(&trace.tail);
        let issues = bare.iter().take(trace.head.len());
        let issues = issues.chain(&bare[bare.len() - trace.tail.len()..]);
        for (event, issue) in retained.zip(issues) {
            let expected = format!("{}: {}", issue.device_name(), issue.root_cause);
            assert_eq!(
                (event.at_secs, event.detail.as_str()),
                (issue.at.as_secs(), &*expected)
            );
        }
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
