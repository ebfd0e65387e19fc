//! Property-based tests for the SEV store and query layer.

use dcnr_faults::RootCause;
use dcnr_sev::{SevDb, SevLevel, SevRecord};
use dcnr_sim::{SimDuration, SimTime};
use dcnr_topology::{DeviceType, NetworkDesign};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn any_level() -> impl Strategy<Value = SevLevel> {
    proptest::sample::select(SevLevel::ALL.to_vec())
}

fn any_cause() -> impl Strategy<Value = RootCause> {
    proptest::sample::select(RootCause::ALL.to_vec())
}

fn any_device_name() -> impl Strategy<Value = String> {
    proptest::sample::select(DeviceType::INTRA_DC.to_vec()).prop_flat_map(|t| {
        (0u16..12, 0u32..40, 0u32..500).prop_map(move |(dc, scope, unit)| {
            dcnr_topology::format_device_name(t, dc, 'c', scope, unit)
        })
    })
}

/// Names the prefix parse accepts (canonical, and with an upper-case
/// prefix) and rejects (no dot, a prefix outside the taxonomy, an empty
/// prefix).
fn any_keyed_name() -> impl Strategy<Value = String> {
    let junk = proptest::sample::select(vec!["legacy-router-7", "dr.pop7.x.1", ".dc01"]);
    (0u8..3, any_device_name(), junk).prop_map(|(form, name, junk)| match form {
        0 => name,
        1 => {
            let (prefix, rest) = name.split_once('.').expect("canonical names have a dot");
            format!("{}.{rest}", prefix.to_ascii_uppercase())
        }
        _ => junk.to_string(),
    })
}

/// Opens across the study window and the year after it, a third of them
/// on the first or last second of a year.
fn any_keyed_open() -> impl Strategy<Value = SimTime> {
    (2011i32..=2018, 0u8..3, 1u32..=28, 0u32..86_400).prop_map(|(year, form, day, secs)| {
        match form {
            0 => SimTime::from_ymd_hms(year, 1, 1, 0, 0, 0),
            1 => SimTime::from_ymd_hms(year, 12, 31, 23, 59, 59),
            _ => SimTime::from_ymd_hms(
                year,
                1 + day % 12,
                day,
                secs / 3600,
                secs / 60 % 60,
                secs % 60,
            ),
        }
        .expect("valid civil time")
    })
}

prop_compose! {
    fn any_keyed_record()(
        level in any_level(),
        name in any_keyed_name(),
        open in any_keyed_open(),
        dur_hours in 0u64..5_000,
    ) -> SevRecord {
        SevRecord::new(
            0,
            level,
            name,
            vec![],
            open,
            open + SimDuration::from_hours(dur_hours),
            "",
        )
    }
}

prop_compose! {
    fn any_record()(
        level in any_level(),
        name in any_device_name(),
        causes in proptest::collection::vec(any_cause(), 0..3),
        year in 2011i32..=2017,
        day in 1u32..=28,
        dur_hours in 0u64..5_000,
    ) -> SevRecord {
        let open = SimTime::from_date(year, 1 + day % 12, day).unwrap();
        SevRecord::new(
            0,
            level,
            name,
            causes,
            open,
            open + SimDuration::from_hours(dur_hours),
            "synthetic",
        )
    }
}

proptest! {
    #[test]
    fn filters_are_restrictions(records in proptest::collection::vec(any_record(), 0..80)) {
        let db: SevDb = records.into_iter().collect();
        let total = db.query().count();
        for level in SevLevel::ALL {
            prop_assert!(db.query().severity(level).count() <= total);
        }
        for t in DeviceType::INTRA_DC {
            prop_assert!(db.query().device_type(t).count() <= total);
        }
        for year in 2011..=2017 {
            prop_assert!(db.query().year(year).count() <= total);
        }
        // Severity partitions the database.
        let by_sev: usize = SevLevel::ALL.iter().map(|&l| db.query().severity(l).count()).sum();
        prop_assert_eq!(by_sev, total);
        // Device types partition it too (all names parse by construction).
        let by_type: usize =
            DeviceType::INTRA_DC.iter().map(|&t| db.query().device_type(t).count()).sum();
        prop_assert_eq!(by_type, total);
    }

    #[test]
    fn fractions_sum_to_one_when_nonempty(records in proptest::collection::vec(any_record(), 1..60)) {
        let db: SevDb = records.into_iter().collect();
        let sev_sum: f64 = db.query().fraction_by_severity().values().sum();
        prop_assert!((sev_sum - 1.0).abs() < 1e-9);
        let type_sum: f64 = db.query().fraction_by_device_type().values().sum();
        prop_assert!((type_sum - 1.0).abs() < 1e-9);
        let cause_sum: f64 = db.query().fraction_by_root_cause().values().sum();
        prop_assert!((cause_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn count_by_year_totals_match(records in proptest::collection::vec(any_record(), 0..60)) {
        let db: SevDb = records.into_iter().collect();
        let series = db.query().count_by_year(2011, 2017);
        prop_assert_eq!(series.total() as usize, db.len());
    }

    #[test]
    fn record_invariants(record in any_record()) {
        prop_assert!(record.resolved_at >= record.opened_at);
        prop_assert!(!record.root_causes.is_empty(), "empty causes become undetermined");
        prop_assert!(record.resolution_time().as_hours() >= 0.0);
        prop_assert!(record.device_type().is_ok());
        prop_assert!((2011..=2017).contains(&record.year()));
    }

    #[test]
    fn ids_are_dense_and_stable(records in proptest::collection::vec(any_record(), 0..40)) {
        let db: SevDb = records.into_iter().collect();
        for (i, r) in db.iter().enumerate() {
            prop_assert_eq!(r.id as usize, i);
            prop_assert_eq!(db.get(r.id).unwrap().id, r.id);
        }
    }

    #[test]
    fn resolution_hours_match_filtered_records(records in proptest::collection::vec(any_record(), 0..40)) {
        let db: SevDb = records.into_iter().collect();
        let q = db.query().severity(SevLevel::Sev3);
        prop_assert_eq!(q.resolution_hours().len(), q.count());
    }

    #[test]
    fn keyed_filters_match_a_brute_force_scan(
        records in proptest::collection::vec(any_keyed_record(), 0..60),
        first in 2010i32..=2019,
        span in 0i32..4,
    ) {
        let db: SevDb = records.into_iter().collect();
        // The oracle derives every key from the record itself, through
        // `SevRecord::{year, device_type, design}`, on every scan.
        let scan = |pred: &dyn Fn(&SevRecord) -> bool| -> Vec<f64> {
            db.iter()
                .filter(|r| pred(r))
                .map(|r| r.resolution_time().as_hours())
                .collect()
        };
        for year in 2010..=2019 {
            for t in DeviceType::ALL {
                prop_assert_eq!(
                    db.query().year(year).device_type(t).resolution_hours(),
                    scan(&|r| r.year() == year && r.device_type().ok() == Some(t)),
                    "year {} type {}", year, t
                );
            }
        }
        for d in [NetworkDesign::Cluster, NetworkDesign::Fabric, NetworkDesign::Shared] {
            prop_assert_eq!(
                db.query().design(d).resolution_hours(),
                scan(&|r| r.design() == Some(d)),
                "design {}", d
            );
        }
        let last = first + span;
        prop_assert_eq!(
            db.query().years(first, last).resolution_hours(),
            scan(&|r| (first..=last).contains(&r.year()))
        );
        let mut by_type = BTreeMap::new();
        for t in db.iter().filter_map(|r| r.device_type().ok()) {
            *by_type.entry(t).or_insert(0) += 1;
        }
        prop_assert_eq!(db.query().count_by_device_type(), by_type);
        let series = db.query().count_by_year(first, last);
        for year in first - 1..=last + 1 {
            let expected = if (first..=last).contains(&year) {
                db.iter().filter(|r| r.year() == year).count() as f64
            } else {
                0.0
            };
            prop_assert_eq!(series.get(year), expected, "year {}", year);
        }
    }
}
