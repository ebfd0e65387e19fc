//! Property-based tests for the remediation system.

use dcnr_faults::{HazardModel, RawIssue, RootCause};
use dcnr_remediation::{
    RemediationEngine, RemediationOutcome, RepairPolicy, RepairQueue, Table1Report,
};
use dcnr_sim::{SimDuration, SimTime};
use dcnr_topology::DeviceType;
use proptest::prelude::*;

fn any_type() -> impl Strategy<Value = DeviceType> {
    proptest::sample::select(DeviceType::INTRA_DC.to_vec())
}

proptest! {
    #[test]
    fn repair_queue_orders_by_priority_then_time_then_seq(
        entries in proptest::collection::vec((0u8..4, 0u64..10_000), 1..100)
    ) {
        let mut q = RepairQueue::new();
        for (i, &(prio, t)) in entries.iter().enumerate() {
            q.push(prio, SimTime::from_secs(t), i);
        }
        let mut popped = Vec::new();
        while let Some(r) = q.pop() {
            popped.push((r.priority, r.ready_at, r.payload));
        }
        prop_assert_eq!(popped.len(), entries.len());
        for w in popped.windows(2) {
            let (p1, t1, s1) = w[0];
            let (p2, t2, s2) = w[1];
            prop_assert!(
                p1 < p2 || (p1 == p2 && (t1 < t2 || (t1 == t2 && s1 < s2))),
                "order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn policy_samples_are_sane(t in proptest::sample::select(vec![DeviceType::Core, DeviceType::Fsw, DeviceType::Rsw]), seed in any::<u64>()) {
        use rand::SeedableRng;
        let policy = RepairPolicy::for_type(t).expect("covered type");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let prio = policy.sample_priority(&mut rng);
            prop_assert!(prio <= 3);
            prop_assert!(policy.sample_wait_secs(&mut rng, prio) >= 0.0);
            prop_assert!(policy.sample_exec_secs(&mut rng) >= 0.0);
        }
        prop_assert!((0.0..=1.0).contains(&policy.repair_ratio()));
    }

    #[test]
    fn triage_partitions_and_respects_coverage(
        t in any_type(),
        year in 2011i32..=2017,
        seed in any::<u64>(),
    ) {
        let mut engine = RemediationEngine::new(HazardModel::paper(), seed);
        let issue = RawIssue {
            at: SimTime::from_date(year, 6, 1).unwrap(),
            device_type: t,
            unit: 0,
            root_cause: RootCause::Hardware,
        };
        let automation_possible = t.has_automated_repair() && year >= 2013;
        for _ in 0..30 {
            match engine.triage(issue.clone()) {
                RemediationOutcome::AutoRepaired(r) => {
                    prop_assert!(automation_possible, "{t} {year} cannot auto-repair");
                    prop_assert!(r.completed_at >= r.issue.at);
                    prop_assert!(r.priority <= 3);
                }
                RemediationOutcome::Escalated { automation_attempted, .. } => {
                    if automation_attempted {
                        prop_assert!(automation_possible);
                    }
                }
                RemediationOutcome::ManuallyResolved { .. } => {
                    prop_assert!(!automation_possible, "{t} {year} is covered by automation");
                }
            }
        }
    }

    #[test]
    fn table1_report_internally_consistent(seed in any::<u64>(), n in 10usize..400) {
        let mut engine = RemediationEngine::new(HazardModel::paper(), seed);
        let base = SimTime::from_date(2017, 2, 1).unwrap();
        let outcomes: Vec<RemediationOutcome> = (0..n)
            .map(|i| {
                let t = DeviceType::INTRA_DC[i % 7];
                engine.triage(RawIssue {
                    at: base + SimDuration::from_secs(i as u64),
                    device_type: t,
                    unit: i as u32,
                    root_cause: RootCause::Maintenance,
                })
            })
            .collect();
        let report = Table1Report::from_outcomes(&outcomes);
        for row in report.rows() {
            prop_assert_eq!(row.attempted, row.repaired + row.escalated);
            prop_assert!((0.0..=1.0).contains(&row.repair_ratio()));
            prop_assert!(row.avg_priority >= 0.0 && row.avg_priority <= 3.0);
            prop_assert!(row.avg_wait_secs >= 0.0);
            prop_assert!(row.avg_exec_secs >= 0.0);
            prop_assert!(row.device_type.has_automated_repair());
        }
    }
}
