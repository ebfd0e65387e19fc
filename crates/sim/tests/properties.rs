//! Property-based tests for simulated time and seeding: calendar
//! correctness, time arithmetic, stream separation.

use dcnr_sim::{derive_seed, SimDuration, SimTime, StudyCalendar};
use proptest::prelude::*;

proptest! {
    #[test]
    fn civil_date_roundtrip(y in 2011i32..2100, m in 1u32..=12, d in 1u32..=28) {
        let t = SimTime::from_date(y, m, d).unwrap();
        prop_assert_eq!(t.ymd(), (y, m, d));
        prop_assert_eq!(t.year(), y);
    }

    #[test]
    fn time_addition_is_consistent(base in 0u64..1_000_000_000, delta in 0u64..1_000_000_000) {
        let t = SimTime::from_secs(base);
        let later = t + SimDuration::from_secs(delta);
        prop_assert_eq!((later - t).as_secs(), delta);
        prop_assert_eq!(later.as_secs(), base + delta);
        // Saturating reverse direction.
        prop_assert_eq!((t - later).as_secs(), base.saturating_sub(base + delta));
    }

    #[test]
    fn duration_hours_roundtrip(h in 0.0..1.0e6f64) {
        let d = SimDuration::from_hours_f64(h);
        prop_assert!((d.as_hours() - h).abs() < 1.0 / 3600.0 + 1e-9);
    }

    #[test]
    fn year_windows_partition_time(y in 2011i32..2030) {
        let w = StudyCalendar::year(y);
        let next = StudyCalendar::year(y + 1);
        prop_assert_eq!(w.end, next.start);
        prop_assert!(w.contains(w.start));
        prop_assert!(!w.contains(w.end));
        // Every second of the window maps to year y.
        prop_assert_eq!(w.start.year(), y);
        prop_assert_eq!(SimTime::from_secs(w.end.as_secs() - 1).year(), y);
    }

    #[test]
    fn derived_seeds_separate_tags(master in any::<u64>(), a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(master, &a), derive_seed(master, &b));
    }
}
