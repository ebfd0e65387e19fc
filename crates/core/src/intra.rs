//! The seven-year intra-datacenter study (§5).
//!
//! Pipeline: calibrated issue generation ([`dcnr_faults`]) → automated
//! remediation triage ([`dcnr_remediation`]) → SEV creation
//! ([`dcnr_service`]) → the SEV database and query layer
//! ([`dcnr_sev`]). Each `table*`/`fig*` method reproduces one published
//! artifact from the resulting database — by querying it, exactly as the
//! paper's SQL did, never by reading the calibration tables.

use dcnr_faults::hazard::HazardConfig;
use dcnr_faults::{
    calibration, FleetGrowth, HazardModel, IssueGenerator, RootCause, RootCauseModel,
};
use dcnr_remediation::{RemediationEngine, Table1Accumulator, Table1Report};
use dcnr_service::SevGenerator;
use dcnr_sev::{MetricsExt, SevDb, SevLevel};
use dcnr_sim::StudyCalendar;
use dcnr_stats::{pearson_correlation, YearSeries};
use dcnr_topology::{DeviceType, NetworkDesign};
use std::collections::BTreeMap;

/// Configuration for one intra-DC study run.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Fleet scale multiplier. 1.0 is the calibrated baseline fleet;
    /// the default of 10.0 produces "thousands of incidents" like the
    /// paper's dataset (§4.2) from ~390k raw issues; a release-build
    /// `dcnr intra` takes ~0.05 s on a 2-vCPU VM and peaks at ~9.5 MiB
    /// resident.
    pub scale: f64,
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Hazard-model knobs (ablations A-1 and A-2).
    pub hazard: HazardConfig,
    /// Observation window (defaults to the paper's 2011–2017).
    pub window: StudyCalendar,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            scale: 10.0,
            seed: 0xDC_2018,
            hazard: HazardConfig::default(),
            window: StudyCalendar::intra_dc(),
        }
    }
}

/// A completed intra-DC study: the SEV database plus everything needed
/// to reproduce Tables 1–2 and Figures 2–14. It keeps no per-issue
/// record: Table 1 is folded during triage, and only the escalated
/// issues, the ones that become SEVs, outlive it.
pub struct IntraDcStudy {
    config: StudyConfig,
    growth: FleetGrowth,
    db: SevDb,
    issue_count: usize,
    table1: Table1Report,
}

impl IntraDcStudy {
    /// Runs the full pipeline as one pass over the merged issue stream:
    /// each issue is triaged, folded into Table 1 and, if it escalated,
    /// kept for SEV ingest. The result equals the staged public pipeline
    /// ([`IssueGenerator::generate`], [`RemediationEngine::triage_all`],
    /// then [`Table1Report::from_outcomes`] and
    /// [`SevGenerator::ingest`]) without holding its outcome vector.
    pub fn run(config: StudyConfig) -> Self {
        let build = dcnr_telemetry::span("intra.fleet_build");
        let growth = FleetGrowth::scaled(config.scale);
        let hazard = HazardModel::with_config(config.hazard);
        let generator = IssueGenerator::new(
            growth.clone(),
            hazard.clone(),
            RootCauseModel::paper(),
            config.seed,
        );
        build.finish();
        let issues = generator.merged(config.window);
        let issue_count = issues.len();
        let remediation = dcnr_telemetry::span("intra.remediation");
        let mut engine = RemediationEngine::new(hazard, config.seed);
        let mut table1 = Table1Accumulator::default();
        let mut escalated = Vec::new();
        for outcome in engine.triage_stream(issues) {
            table1.observe(&outcome);
            if outcome.is_escalated() {
                escalated.push(outcome);
            }
        }
        remediation.finish();
        let sev = dcnr_telemetry::span("intra.sev_analysis");
        let mut db = SevDb::new();
        SevGenerator::new(config.seed).ingest(&escalated, &mut db);
        sev.finish();
        Self {
            config,
            growth,
            db,
            issue_count,
            table1: table1.finish(),
        }
    }

    /// The study's configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The SEV database (for ad-hoc queries).
    pub fn db(&self) -> &SevDb {
        &self.db
    }

    /// The fleet growth model used.
    pub fn growth(&self) -> &FleetGrowth {
        &self.growth
    }

    /// How many raw issues triage saw (incident and non-incident).
    pub fn issue_count(&self) -> usize {
        self.issue_count
    }

    /// First study year.
    pub fn first_year(&self) -> i32 {
        calibration::FIRST_YEAR
    }

    /// Last study year.
    pub fn last_year(&self) -> i32 {
        calibration::LAST_YEAR
    }

    fn population(&self) -> impl Fn(DeviceType, i32) -> f64 + '_ {
        |t, y| self.growth.population(t, y)
    }

    // ---------------- Tables ----------------

    /// **Table 1** — automated repair ratio / priority / wait / repair
    /// time per covered device type, measured from the triage outcomes.
    pub fn table1_automated_repair(&self) -> &Table1Report {
        &self.table1
    }

    /// **Table 2** — root-cause shares over all seven years (multi-cause
    /// SEVs count toward each category).
    pub fn table2_root_causes(&self) -> BTreeMap<RootCause, f64> {
        self.db.query().fraction_by_root_cause()
    }

    // ---------------- Figures ----------------

    /// **Fig. 2** — root-cause distribution per device type: for each
    /// root cause, the fraction of its incidents on each device type.
    pub fn fig2_root_cause_by_device(&self) -> BTreeMap<RootCause, BTreeMap<DeviceType, f64>> {
        RootCause::ALL
            .iter()
            .map(|&c| (c, self.db.query().root_cause(c).fraction_by_device_type()))
            .collect()
    }

    /// **Fig. 3** — incident rate (incidents per device) per type per
    /// year.
    pub fn fig3_incident_rate(&self) -> BTreeMap<DeviceType, YearSeries> {
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let mut s = YearSeries::new(self.first_year(), self.last_year());
                for y in self.first_year()..=self.last_year() {
                    s.set(y, self.db.incident_rate(t, y, self.population()));
                }
                (t, s)
            })
            .collect()
    }

    /// **Fig. 4** — for each severity level in 2017, the device-type
    /// breakdown, plus each level's share of all 2017 SEVs.
    pub fn fig4_severity_by_device(&self) -> BTreeMap<SevLevel, (f64, BTreeMap<DeviceType, f64>)> {
        let total = self.db.query().year(2017).count() as f64;
        SevLevel::ALL
            .iter()
            .map(|&l| {
                let q = self.db.query().year(2017).severity(l);
                let share = if total > 0.0 {
                    q.count() as f64 / total
                } else {
                    0.0
                };
                (l, (share, q.fraction_by_device_type()))
            })
            .collect()
    }

    /// **Fig. 5** — per-device SEV rate by severity level over the years.
    pub fn fig5_sev_rates(&self) -> BTreeMap<SevLevel, YearSeries> {
        SevLevel::ALL
            .iter()
            .map(|&l| {
                (
                    l,
                    self.db
                        .sev_rate_series(l, self.first_year(), self.last_year(), |y| {
                            self.growth.total_population(y)
                        }),
                )
            })
            .collect()
    }

    /// **Fig. 6** — `(employees, normalized switches)` scatter and its
    /// Pearson correlation.
    pub fn fig6_switches_vs_employees(&self) -> (Vec<(f64, f64)>, f64) {
        let pts = self.growth.switches_vs_employees();
        let r = pearson_correlation(&pts).unwrap_or(0.0);
        (pts, r)
    }

    /// **Fig. 7** — each device type's fraction of that year's incidents.
    pub fn fig7_incident_fractions(&self) -> BTreeMap<DeviceType, YearSeries> {
        let totals = self
            .db
            .query()
            .count_by_year(self.first_year(), self.last_year());
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let counts = self
                    .db
                    .query()
                    .device_type(t)
                    .count_by_year(self.first_year(), self.last_year());
                (t, counts.per(&totals))
            })
            .collect()
    }

    /// **Fig. 8** — incidents per type per year, normalized to the total
    /// number of SEVs in 2017 (the paper's fixed baseline).
    pub fn fig8_normalized_incidents(&self) -> BTreeMap<DeviceType, YearSeries> {
        let baseline = self.db.query().year(2017).count() as f64;
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let counts = self
                    .db
                    .query()
                    .device_type(t)
                    .count_by_year(self.first_year(), self.last_year());
                (t, counts.normalized_to(baseline.max(1.0)))
            })
            .collect()
    }

    /// **Fig. 9** — incidents per network design per year, normalized to
    /// the 2017 SEV total.
    pub fn fig9_design_incidents(&self) -> BTreeMap<NetworkDesign, YearSeries> {
        let baseline = self.db.query().year(2017).count() as f64;
        [NetworkDesign::Cluster, NetworkDesign::Fabric]
            .iter()
            .map(|&d| {
                let counts = self
                    .db
                    .query()
                    .design(d)
                    .count_by_year(self.first_year(), self.last_year());
                (d, counts.normalized_to(baseline.max(1.0)))
            })
            .collect()
    }

    /// **Fig. 10** — incidents per device for each network design per
    /// year.
    pub fn fig10_design_rate(&self) -> BTreeMap<NetworkDesign, YearSeries> {
        [NetworkDesign::Cluster, NetworkDesign::Fabric]
            .iter()
            .map(|&d| {
                let counts = self
                    .db
                    .query()
                    .design(d)
                    .count_by_year(self.first_year(), self.last_year());
                let mut pops = YearSeries::new(self.first_year(), self.last_year());
                for y in self.first_year()..=self.last_year() {
                    pops.set(y, self.growth.design_population(d, y));
                }
                (d, counts.per(&pops))
            })
            .collect()
    }

    /// **Fig. 11** — population fraction per device type per year.
    pub fn fig11_population_fractions(&self) -> BTreeMap<DeviceType, YearSeries> {
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let mut s = YearSeries::new(self.first_year(), self.last_year());
                for y in self.first_year()..=self.last_year() {
                    s.set(y, self.growth.population_fraction(t, y));
                }
                (t, s)
            })
            .collect()
    }

    /// **Fig. 12** — MTBI (device-hours) per type per year; `None`
    /// years are omitted from the series (plotted as gaps).
    pub fn fig12_mtbi(&self) -> BTreeMap<DeviceType, Vec<(i32, f64)>> {
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let pts = (self.first_year()..=self.last_year())
                    .filter_map(|y| self.db.mtbi_hours(t, y, self.population()).map(|m| (y, m)))
                    .collect();
                (t, pts)
            })
            .collect()
    }

    /// §5.6's fabric-vs-cluster MTBI comparison for `year`.
    pub fn design_mtbi(&self, year: i32) -> (Option<f64>, Option<f64>) {
        (
            self.db
                .design_mtbi_hours(NetworkDesign::Fabric, year, self.population()),
            self.db
                .design_mtbi_hours(NetworkDesign::Cluster, year, self.population()),
        )
    }

    /// **Fig. 13** — p75 incident resolution time per type per year.
    pub fn fig13_p75irt(&self) -> BTreeMap<DeviceType, Vec<(i32, f64)>> {
        DeviceType::INTRA_DC
            .iter()
            .map(|&t| {
                let pts = (self.first_year()..=self.last_year())
                    .filter_map(|y| self.db.p75irt_hours(t, y).map(|p| (y, p)))
                    .collect();
                (t, pts)
            })
            .collect()
    }

    /// **Fig. 14** — `(p75IRT across all types, normalized switches)`
    /// per year, with the Pearson correlation.
    pub fn fig14_irt_vs_fleet(&self) -> (Vec<(f64, f64)>, f64) {
        let max_pop = self.growth.total_population(self.last_year());
        let pts: Vec<(f64, f64)> = (self.first_year()..=self.last_year())
            .filter_map(|y| {
                let hours = self.db.query().year(y).resolution_hours();
                let p75 = dcnr_stats::Summary::new(&hours)?.p75();
                Some((p75, self.growth.total_population(y) / max_pop))
            })
            .collect();
        let r = pearson_correlation(&pts).unwrap_or(0.0);
        (pts, r)
    }

    /// Total SEV growth factor 2011 → 2017 (the paper reports 9.4×).
    pub fn sev_growth_factor(&self) -> Option<f64> {
        self.db
            .query()
            .count_by_year(self.first_year(), self.last_year())
            .growth_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> IntraDcStudy {
        // Scale 2 keeps unit tests quick while leaving ~260 incidents in
        // 2017 for stable shares.
        IntraDcStudy::run(StudyConfig {
            scale: 2.0,
            seed: 0xAB,
            ..Default::default()
        })
    }

    #[test]
    fn pipeline_produces_thousands_of_issues_hundreds_of_sevs() {
        let s = study();
        assert!(s.issue_count() > 10_000, "issues {}", s.issue_count());
        assert!(s.db().len() > 400, "sevs {}", s.db().len());
        assert!(s.db().len() < 3000, "sevs {}", s.db().len());
    }

    #[test]
    fn table1_matches_paper() {
        let s = study();
        let t1 = s.table1_automated_repair();
        let rsw = t1.row(DeviceType::Rsw).expect("RSW row");
        assert!((rsw.repair_ratio() - 0.997).abs() < 0.003);
        let core = t1.row(DeviceType::Core).expect("Core row");
        assert!((core.repair_ratio() - 0.75).abs() < 0.05);
        assert!(t1.row(DeviceType::Csa).is_none());
    }

    #[test]
    fn table2_maintenance_leads_determined_causes() {
        let s = study();
        let t2 = s.table2_root_causes();
        let m = t2[&RootCause::Maintenance];
        for c in [
            RootCause::Hardware,
            RootCause::Configuration,
            RootCause::Bug,
        ] {
            assert!(m >= t2[&c] - 0.03, "maintenance {m} vs {c}: {}", t2[&c]);
        }
        assert!((t2[&RootCause::Undetermined] - 0.29).abs() < 0.06);
    }

    #[test]
    fn fig3_anchors() {
        let s = study();
        let rates = s.fig3_incident_rate();
        // CSA spike 2013.
        let csa_2013 = rates[&DeviceType::Csa].get(2013);
        assert!((csa_2013 - 1.7).abs() < 0.6, "csa 2013 {csa_2013}");
        // RSW stays under 1%.
        assert!(rates[&DeviceType::Rsw].get(2017) < 0.01);
        // Fabric types have zero rate before deployment.
        assert_eq!(rates[&DeviceType::Fsw].get(2014), 0.0);
    }

    #[test]
    fn fig4_core_and_rsw_dominate_2017() {
        let s = study();
        let f4 = s.fig4_severity_by_device();
        let (sev3_share, by_dev) = &f4[&SevLevel::Sev3];
        assert!(*sev3_share > 0.7, "SEV3 share {sev3_share}");
        let core = by_dev.get(&DeviceType::Core).copied().unwrap_or(0.0);
        let rsw = by_dev.get(&DeviceType::Rsw).copied().unwrap_or(0.0);
        assert!(core > 0.2, "core {core}");
        assert!(rsw > 0.15, "rsw {rsw}");
    }

    #[test]
    fn fig5_inflection_mid_study() {
        let s = study();
        let f5 = s.fig5_sev_rates();
        let sev3 = &f5[&SevLevel::Sev3];
        // Rate grows early, then falls after the fabric deployment.
        assert!(sev3.get(2013) > sev3.get(2011));
        assert!(sev3.get(2017) < sev3.get(2014));
    }

    #[test]
    fn fig6_strong_correlation() {
        let (pts, r) = study().fig6_switches_vs_employees();
        assert_eq!(pts.len(), 7);
        assert!(r > 0.97, "r {r}");
    }

    #[test]
    fn fig7_fractions_sum_to_one_each_year() {
        let s = study();
        let f7 = s.fig7_incident_fractions();
        for y in 2011..=2017 {
            let sum: f64 = f7.values().map(|series| series.get(y)).sum();
            assert!((sum - 1.0).abs() < 0.02, "{y}: {sum}");
        }
    }

    #[test]
    fn fig9_fabric_half_of_cluster_2017() {
        let s = study();
        let f9 = s.fig9_design_incidents();
        let fabric = f9[&NetworkDesign::Fabric].get(2017);
        let cluster = f9[&NetworkDesign::Cluster].get(2017);
        let ratio = fabric / cluster;
        assert!((ratio - 0.5).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn fig10_cluster_rate_exceeds_fabric() {
        let s = study();
        let f10 = s.fig10_design_rate();
        for y in 2015..=2017 {
            assert!(
                f10[&NetworkDesign::Cluster].get(y) > f10[&NetworkDesign::Fabric].get(y),
                "{y}"
            );
        }
    }

    #[test]
    fn fig12_mtbi_span_and_anchor() {
        let s = study();
        let f12 = s.fig12_mtbi();
        let core_2017 = f12[&DeviceType::Core]
            .iter()
            .find(|&&(y, _)| y == 2017)
            .map(|&(_, m)| m)
            .expect("core 2017");
        assert!(
            (core_2017 - 39_495.0).abs() / 39_495.0 < 0.35,
            "core {core_2017}"
        );
        let rsw_2017 = f12[&DeviceType::Rsw]
            .iter()
            .find(|&&(y, _)| y == 2017)
            .map(|&(_, m)| m)
            .expect("rsw 2017");
        assert!(rsw_2017 / core_2017 > 50.0, "span {}", rsw_2017 / core_2017);
    }

    #[test]
    fn design_mtbi_ratio_about_3x() {
        let s = study();
        let (fabric, cluster) = s.design_mtbi(2017);
        let ratio = fabric.unwrap() / cluster.unwrap();
        assert!(ratio > 1.8 && ratio < 6.5, "ratio {ratio}");
    }

    #[test]
    fn fig13_irt_grows() {
        let s = study();
        let f13 = s.fig13_p75irt();
        let rsw = &f13[&DeviceType::Rsw];
        let first = rsw.first().expect("data").1;
        let last = rsw.last().expect("data").1;
        assert!(last > 3.0 * first, "p75IRT {first} -> {last}");
    }

    #[test]
    fn fig14_positive_correlation() {
        let (pts, r) = study().fig14_irt_vs_fleet();
        assert_eq!(pts.len(), 7);
        assert!(r > 0.7, "r {r}");
    }

    #[test]
    fn growth_factor_near_9_4() {
        let g = study().sev_growth_factor().expect("growth");
        assert!((g - 9.4).abs() < 3.5, "growth {g}");
    }

    #[test]
    fn deterministic() {
        let a = IntraDcStudy::run(StudyConfig {
            scale: 1.0,
            seed: 5,
            ..Default::default()
        });
        let b = IntraDcStudy::run(StudyConfig {
            scale: 1.0,
            seed: 5,
            ..Default::default()
        });
        assert_eq!(a.db().records(), b.db().records());
    }
}
