//! The query layer: SQL-shaped filters and group-bys over the SEV store.
//!
//! Every figure in §5 reduces to compositions of the operations here:
//!
//! * Fig. 2 — `query().root_cause(c).fraction_by_device_type()`
//! * Fig. 4 — `query().year(2017).severity(s).count_by_device_type()`
//! * Fig. 7 — `query().device_type(t).count_by_year()` ÷ yearly totals
//! * Fig. 8/9 — the same, normalized to the 2017 total
//!
//! A [`SevQuery`] is a borrowed, filtered view; filters compose by value
//! (builder style), each narrowing the view in place. Year, device-type
//! and design filters and group-bys read the keys the store derived
//! once at insert ([`crate::store`]), never the record's name or
//! timestamp.

use crate::record::SevRecord;
use crate::severity::SevLevel;
use crate::store::{SevDb, SevKey};
use dcnr_faults::RootCause;
use dcnr_stats::YearSeries;
use dcnr_topology::{DeviceType, NetworkDesign};
use std::collections::BTreeMap;

/// A composable filtered view over a [`SevDb`].
#[derive(Clone)]
pub struct SevQuery<'a> {
    rows: Vec<(&'a SevRecord, SevKey)>,
}

impl SevDb {
    /// Starts a query over all reports.
    pub fn query(&self) -> SevQuery<'_> {
        SevQuery {
            rows: self.keyed().collect(),
        }
    }
}

impl<'a> SevQuery<'a> {
    /// Keeps the rows whose derived keys satisfy `pred`.
    fn retain_keys(mut self, pred: impl Fn(SevKey) -> bool) -> Self {
        self.rows.retain(|&(_, k)| pred(k));
        self
    }

    /// Restricts to incidents opened in `year`.
    pub fn year(self, year: i32) -> Self {
        self.retain_keys(|k| k.year == year)
    }

    /// Restricts to incidents opened in `[first, last]`.
    pub fn years(self, first: i32, last: i32) -> Self {
        self.retain_keys(|k| (first..=last).contains(&k.year))
    }

    /// Restricts to one severity level.
    pub fn severity(self, level: SevLevel) -> Self {
        self.filter(|r| r.severity == level)
    }

    /// Restricts to incidents whose offending device parses to `t`.
    pub fn device_type(self, t: DeviceType) -> Self {
        self.retain_keys(|k| k.device_type == Some(t))
    }

    /// Restricts to incidents on devices of one network design.
    pub fn design(self, d: NetworkDesign) -> Self {
        self.retain_keys(|k| k.device_type.map(DeviceType::design) == Some(d))
    }

    /// Restricts to incidents carrying `cause` among their root causes.
    pub fn root_cause(self, cause: RootCause) -> Self {
        self.filter(|r| r.has_root_cause(cause))
    }

    /// Generic predicate filter.
    pub fn filter(mut self, pred: impl Fn(&SevRecord) -> bool) -> Self {
        self.rows.retain(|(r, _)| pred(r));
        self
    }

    // ----- terminals -------------------------------------------------

    /// Number of matching reports.
    pub fn count(&self) -> usize {
        self.rows.len()
    }

    /// Group count by parsed device type; unparsable names are skipped
    /// (they are outside the intra-DC taxonomy).
    pub fn count_by_device_type(&self) -> BTreeMap<DeviceType, usize> {
        let mut out = BTreeMap::new();
        for t in self.rows.iter().filter_map(|(_, k)| k.device_type) {
            *out.entry(t).or_insert(0) += 1;
        }
        out
    }

    /// Group count by severity level.
    pub fn count_by_severity(&self) -> BTreeMap<SevLevel, usize> {
        let mut out = BTreeMap::new();
        for (r, _) in &self.rows {
            *out.entry(r.severity).or_insert(0) += 1;
        }
        out
    }

    /// Group count by root cause. Multi-cause reports count toward each
    /// of their categories (§5.1's counting rule), so the total can
    /// exceed [`SevQuery::count`].
    pub fn count_by_root_cause(&self) -> BTreeMap<RootCause, usize> {
        let mut out = BTreeMap::new();
        for (r, _) in &self.rows {
            for &c in &r.root_causes {
                *out.entry(c).or_insert(0) += 1;
            }
        }
        out
    }

    /// Yearly counts over `[first, last]` as a [`YearSeries`].
    pub fn count_by_year(&self, first: i32, last: i32) -> YearSeries {
        let mut s = YearSeries::new(first, last);
        for (_, k) in &self.rows {
            s.add(k.year, 1.0);
        }
        s
    }

    /// Fractions by device type (normalized over parsable records).
    pub fn fraction_by_device_type(&self) -> BTreeMap<DeviceType, f64> {
        let counts = self.count_by_device_type();
        let total: usize = counts.values().sum();
        counts
            .into_iter()
            .map(|(t, c)| {
                (
                    t,
                    if total > 0 {
                        c as f64 / total as f64
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Fractions by severity level.
    pub fn fraction_by_severity(&self) -> BTreeMap<SevLevel, f64> {
        let counts = self.count_by_severity();
        let total: usize = counts.values().sum();
        counts
            .into_iter()
            .map(|(l, c)| {
                (
                    l,
                    if total > 0 {
                        c as f64 / total as f64
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Root-cause shares normalized over category counts (matching
    /// Table 2, where multi-cause reports inflate the denominator).
    pub fn fraction_by_root_cause(&self) -> BTreeMap<RootCause, f64> {
        let counts = self.count_by_root_cause();
        let total: usize = counts.values().sum();
        counts
            .into_iter()
            .map(|(c, n)| {
                (
                    c,
                    if total > 0 {
                        n as f64 / total as f64
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Resolution times (hours) of matching reports — the p75IRT input.
    pub fn resolution_hours(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|(r, _)| r.resolution_time().as_hours())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_sim::{SimDuration, SimTime};

    fn db() -> SevDb {
        let mut db = SevDb::new();
        let t = |y: i32, d: u32| SimTime::from_date(y, 6, d).unwrap();
        // 2017: 2 RSW (1x SEV3, 1x SEV1), 1 Core SEV3, 1 FSW SEV2.
        db.insert(
            SevLevel::Sev3,
            "rsw.dc01.c000.u0001",
            vec![RootCause::Hardware],
            t(2017, 1),
            t(2017, 2),
            "",
        );
        db.insert(
            SevLevel::Sev1,
            "rsw.dc01.c000.u0002",
            vec![RootCause::Maintenance, RootCause::Configuration],
            t(2017, 3),
            t(2017, 5),
            "",
        );
        db.insert(
            SevLevel::Sev3,
            "core.dc01.x000.u0000",
            vec![RootCause::Bug],
            t(2017, 4),
            t(2017, 4),
            "",
        );
        db.insert(
            SevLevel::Sev2,
            "fsw.dc02.p000.u0003",
            vec![RootCause::Maintenance],
            t(2017, 8),
            t(2017, 9),
            "",
        );
        // 2016: 1 CSA SEV3; plus one unparsable legacy name.
        db.insert(
            SevLevel::Sev3,
            "csa.dc01.x000.u0000",
            vec![RootCause::Accident],
            t(2016, 1),
            t(2016, 3),
            "",
        );
        db.insert(
            SevLevel::Sev3,
            "legacy-router-7",
            vec![],
            t(2016, 2),
            t(2016, 2),
            "",
        );
        db
    }

    #[test]
    fn filters_compose() {
        let db = db();
        assert_eq!(db.query().year(2017).count(), 4);
        assert_eq!(db.query().year(2017).severity(SevLevel::Sev3).count(), 2);
        assert_eq!(db.query().device_type(DeviceType::Rsw).count(), 2);
        assert_eq!(db.query().design(NetworkDesign::Fabric).count(), 1);
        assert_eq!(db.query().root_cause(RootCause::Maintenance).count(), 2);
        assert_eq!(db.query().years(2016, 2016).count(), 2);
    }

    #[test]
    fn group_by_device_type_skips_unparsable() {
        let counts = db().query().count_by_device_type();
        let total: usize = counts.values().sum();
        assert_eq!(total, 5, "the legacy name contributes nothing");
        assert_eq!(counts[&DeviceType::Rsw], 2);
        assert_eq!(counts[&DeviceType::Csa], 1);
    }

    #[test]
    fn multi_cause_counts_in_both_categories() {
        let counts = db().query().count_by_root_cause();
        assert_eq!(counts[&RootCause::Maintenance], 2);
        assert_eq!(counts[&RootCause::Configuration], 1);
        // The no-cause record was normalized to undetermined.
        assert_eq!(counts[&RootCause::Undetermined], 1);
        let total: usize = counts.values().sum();
        assert_eq!(total, 7, "6 records, one double-counted");
    }

    #[test]
    fn fractions_normalize() {
        let f = db().query().year(2017).fraction_by_severity();
        assert!((f[&SevLevel::Sev3] - 0.5).abs() < 1e-12);
        assert!((f[&SevLevel::Sev2] - 0.25).abs() < 1e-12);
        assert!((f[&SevLevel::Sev1] - 0.25).abs() < 1e-12);
        let sum: f64 = db().query().fraction_by_device_type().values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn count_by_year_series() {
        let s = db().query().count_by_year(2011, 2017);
        assert_eq!(s.get(2016), 2.0);
        assert_eq!(s.get(2017), 4.0);
        assert_eq!(s.get(2013), 0.0);
        assert_eq!(s.total(), 6.0);
    }

    #[test]
    fn resolution_hours() {
        let mut db = SevDb::new();
        let open = SimTime::from_date(2017, 1, 1).unwrap();
        db.insert(
            SevLevel::Sev3,
            "rsw.dc01.c000.u0000",
            vec![],
            open,
            open + SimDuration::from_hours(36),
            "",
        );
        let hours = db.query().resolution_hours();
        assert_eq!(hours, vec![36.0]);
    }

    #[test]
    fn empty_query_terminals() {
        let db = SevDb::new();
        assert_eq!(db.query().count(), 0);
        assert!(db.query().count_by_device_type().is_empty());
        assert!(db.query().fraction_by_severity().is_empty());
        assert_eq!(db.query().count_by_year(2011, 2017).total(), 0.0);
    }
}
