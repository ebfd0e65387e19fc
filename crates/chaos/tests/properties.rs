//! Property-based tests for the chaos subsystem: the zero-rate identity
//! contract, injector determinism, and pipeline crash-safety under
//! arbitrary fault mixes.

use dcnr_backbone::email::{render_email, RawEmail, VendorEmail};
use dcnr_backbone::topo::FiberLinkId;
use dcnr_backbone::vendor::VendorId;
use dcnr_backbone::{parse_email, TicketDb, TicketKind};
use dcnr_chaos::{inject, run_pipeline, ChaosConfig};
use dcnr_sim::{SimDuration, SimTime, StudyCalendar};
use proptest::prelude::*;

fn window() -> StudyCalendar {
    StudyCalendar::backbone()
}

prop_compose! {
    /// A stream of well-formed start/complete pairs on a few links,
    /// delivered in event order.
    fn ticket_stream()(
        pairs in proptest::collection::vec((0u32..6, 0u64..10_000, 1u64..200), 0..25)
    ) -> Vec<(SimTime, RawEmail)> {
        let base = window().start;
        let mut out: Vec<(SimTime, RawEmail)> = Vec::new();
        let mut cursor = [base; 6];
        for (link, gap_h, dur_h) in pairs {
            let start = cursor[link as usize] + SimDuration::from_hours(1 + gap_h % 400);
            let end = start + SimDuration::from_hours(dur_h % 40 + 1);
            if end >= window().end {
                continue;
            }
            cursor[link as usize] = end;
            let mk = |is_start: bool, at: SimTime| VendorEmail {
                vendor: VendorId::from_index(link % 3),
                link: FiberLinkId::from_index(link),
                kind: TicketKind::Repair,
                is_start,
                at,
                circuits: vec![1, 2],
                location: "NA prop".into(),
                estimated_hours: None,
            };
            out.push((start, render_email(&mk(true, start))));
            out.push((end, render_email(&mk(false, end))));
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

prop_compose! {
    /// An arbitrary (possibly aggressive) fault mix.
    fn any_rates()(
        seed in any::<u64>(),
        corrupt in 0.0..0.5f64,
        truncate in 0.0..0.3f64,
        loss in 0.0..0.3f64,
        dup in 0.0..0.3f64,
        reorder in 0.0..0.3f64,
        store in 0.0..0.4f64,
    ) -> ChaosConfig {
        ChaosConfig {
            corrupt_rate: corrupt,
            truncate_rate: truncate,
            loss_rate: loss,
            dup_rate: dup,
            reorder_rate: reorder,
            store_fail_rate: store,
            ..ChaosConfig::quiescent(seed)
        }
    }
}

proptest! {
    #[test]
    fn zero_rates_are_byte_identical(seed in any::<u64>(), stream in ticket_stream()) {
        let cfg = ChaosConfig::quiescent(seed);
        let (delivered, stats) = inject(&cfg, &stream);
        prop_assert_eq!(&delivered, &stream);
        prop_assert_eq!(stats.input, stream.len() as u64);
        prop_assert_eq!(stats.delivered, stream.len() as u64);
        prop_assert_eq!(
            stats.lost + stats.duplicated + stats.corrupted + stats.truncated + stats.delayed,
            0
        );
    }

    #[test]
    fn zero_rate_pipeline_equals_direct_ingestion(seed in any::<u64>(), stream in ticket_stream()) {
        let cfg = ChaosConfig::quiescent(seed);
        let out = run_pipeline(&cfg, window(), &stream);
        let mut direct = TicketDb::new();
        for (_, raw) in &stream {
            direct.ingest(&parse_email(raw).unwrap());
        }
        prop_assert_eq!(out.tickets.tickets(), direct.tickets());
        prop_assert_eq!(out.tickets.rejected, direct.rejected);
        prop_assert!(out.report.is_pristine());
    }

    #[test]
    fn injection_is_deterministic(cfg in any_rates(), stream in ticket_stream()) {
        let (a, sa) = inject(&cfg, &stream);
        let (b, sb) = inject(&cfg, &stream);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn pipeline_never_panics_and_accounts_for_everything(
        cfg in any_rates(),
        stream in ticket_stream(),
    ) {
        let (delivered, _) = inject(&cfg, &stream);
        let out = run_pipeline(&cfg, window(), &delivered);
        let r = &out.report;
        prop_assert_eq!(r.delivered, delivered.len() as u64);
        prop_assert!(r.ingested <= r.delivered + r.retries_scheduled);
        prop_assert!(r.duplicates_dropped + r.quarantined() <= r.delivered);
        prop_assert!(r.healed_by_retry <= r.retries_scheduled);
        // Every surviving ticket is well-formed in time.
        for t in out.tickets.tickets() {
            if let Some(c) = t.completed_at {
                prop_assert!(c >= t.started_at);
            }
        }
    }

    #[test]
    fn pipeline_is_deterministic(cfg in any_rates(), stream in ticket_stream()) {
        let (delivered, _) = inject(&cfg, &stream);
        let a = run_pipeline(&cfg, window(), &delivered);
        let b = run_pipeline(&cfg, window(), &delivered);
        prop_assert_eq!(a.tickets.tickets(), b.tickets.tickets());
        prop_assert_eq!(a.report.ingested, b.report.ingested);
        prop_assert_eq!(a.report.quarantined(), b.report.quarantined());
    }

    #[test]
    fn garbage_streams_never_panic(
        seed in any::<u64>(),
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..10),
    ) {
        let cfg = ChaosConfig::drill(seed);
        let base = window().start;
        let deliveries: Vec<(SimTime, RawEmail)> = blobs
            .into_iter()
            .enumerate()
            .map(|(i, b)| (base + SimDuration::from_hours(i as u64), RawEmail::from(b)))
            .collect();
        let (delivered, _) = inject(&cfg, &deliveries);
        let out = run_pipeline(&cfg, window(), &delivered);
        prop_assert_eq!(out.report.ingested, 0);
    }
}
