//! Property-based tests for the backbone substrate: e-mail wire format,
//! ticket ingestion invariants, topology invariants.

use dcnr_backbone::topo::{BackboneParams, BackboneTopology};
use dcnr_backbone::{parse_email, render_email, Ticket, TicketDb, TicketKind, VendorEmail};
use dcnr_backbone::{EdgeNodeId, FiberLinkId, VendorId};
use dcnr_sim::{SimTime, StudyCalendar};
use proptest::prelude::*;

prop_compose! {
    fn any_email()(
        vendor in 0u32..10_000,
        link in 0u32..100_000,
        kind in any::<bool>(),
        is_start in any::<bool>(),
        at in 0u64..10_000_000_000,
        circuits in proptest::collection::vec(0u8..16, 0..8),
        location in "[ -~]{0,40}",
        est in proptest::option::of(0.0..10_000.0f64),
    ) -> VendorEmail {
        VendorEmail {
            vendor: VendorId::from_index(vendor),
            link: FiberLinkId::from_index(link),
            kind: if kind { TicketKind::Repair } else { TicketKind::Maintenance },
            is_start,
            at: SimTime::from_secs(at),
            circuits,
            location: location.trim().to_string(),
            estimated_hours: if is_start { est } else { None },
        }
    }
}

proptest! {
    #[test]
    fn email_render_parse_roundtrip(email in any_email()) {
        let raw = render_email(&email);
        let parsed = parse_email(&raw).unwrap();
        // Estimated hours are rendered with one decimal; compare coarsely.
        prop_assert_eq!(parsed.vendor, email.vendor);
        prop_assert_eq!(parsed.link, email.link);
        prop_assert_eq!(parsed.kind, email.kind);
        prop_assert_eq!(parsed.is_start, email.is_start);
        prop_assert_eq!(parsed.at, email.at);
        prop_assert_eq!(parsed.circuits, email.circuits);
        prop_assert_eq!(parsed.location, email.location);
        match (parsed.estimated_hours, email.estimated_hours) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 0.051),
            (None, None) => {}
            other => prop_assert!(false, "estimate mismatch {other:?}"),
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = parse_email(&data);
    }

    #[test]
    fn parser_never_panics_on_header_shaped_text(lines in proptest::collection::vec("[ -~]{0,60}", 0..12)) {
        let text = lines.join("\r\n");
        let _ = parse_email(text.as_bytes());
    }

    #[test]
    fn roundtrip_survives_header_permutation_and_junk(
        email in any_email(),
        shuffle_seed in any::<u64>(),
        junk in proptest::collection::vec("Z-Junk[a-z]{0,8}: [ -~]{0,30}", 0..6),
    ) {
        let raw = render_email(&email);
        let reference = parse_email(&raw).unwrap();

        // Split the header block from the body, permute the headers,
        // and splice unknown-header junk lines in between.
        let text = std::str::from_utf8(&raw).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let body_at = lines.iter().position(|l| l.is_empty()).unwrap();
        let body: Vec<&str> = lines.split_off(body_at);
        for j in &junk {
            lines.push(j.as_str());
        }
        // Fisher-Yates driven by the generated seed.
        let mut rng = dcnr_sim::stream_rng(shuffle_seed, "test.shuffle");
        for i in (1..lines.len()).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..=i);
            lines.swap(i, j);
        }
        lines.extend(body);
        let mangled = lines.join("\r\n");

        let parsed = parse_email(mangled.as_bytes()).unwrap();
        prop_assert_eq!(parsed, reference);
    }

    #[test]
    fn ticket_db_invariants_under_arbitrary_streams(
        events in proptest::collection::vec((0u32..5, any::<bool>(), 0u64..1_000_000), 0..100)
    ) {
        let mut db = TicketDb::new();
        let mut accepted = 0u64;
        for (link, is_start, at) in events {
            let email = VendorEmail {
                vendor: VendorId::from_index(link % 3),
                link: FiberLinkId::from_index(link),
                kind: TicketKind::Repair,
                is_start,
                at: SimTime::from_secs(at),
                circuits: vec![],
                location: String::new(),
                estimated_hours: None,
            };
            if db.ingest(&email) {
                accepted += 1;
            }
        }
        // Every completed ticket is well-formed.
        let mut open_per_link = std::collections::HashMap::new();
        for t in db.tickets() {
            if let Some(c) = t.completed_at {
                prop_assert!(c >= t.started_at);
            } else {
                let n: &mut u32 = open_per_link.entry(t.link).or_default();
                *n += 1;
            }
        }
        // At most one open ticket per link.
        prop_assert!(open_per_link.values().all(|&n| n <= 1));
        // Accepted = tickets + completions.
        let completions = db.tickets().iter().filter(|t| t.completed_at.is_some()).count() as u64;
        prop_assert_eq!(accepted, db.len() as u64 + completions);
    }

    #[test]
    fn vendor_logs_availability_in_unit_interval(
        tickets in proptest::collection::vec((0u32..4, 0.0..10_000.0f64, 0.0..500.0f64), 0..40)
    ) {
        let window = StudyCalendar::backbone();
        let mut db = TicketDb::new();
        for (link, start_h, dur_h) in tickets {
            let start = window.start + dcnr_sim::SimDuration::from_hours_f64(start_h);
            let end = start + dcnr_sim::SimDuration::from_hours_f64(dur_h.max(0.01));
            let mk = |is_start: bool, at: SimTime| VendorEmail {
                vendor: VendorId::from_index(0),
                link: FiberLinkId::from_index(link),
                kind: TicketKind::Repair,
                is_start,
                at,
                circuits: vec![],
                location: String::new(),
                estimated_hours: None,
            };
            if db.ingest(&mk(true, start)) {
                db.ingest(&mk(false, end.min(window.end)));
            }
        }
        for (_, log) in db.vendor_logs(window) {
            if let Some(est) = log.estimate() {
                prop_assert!((0.0..=1.0).contains(&est.availability));
                prop_assert!(est.mtbf >= 0.0);
            }
        }
    }

    #[test]
    fn backbone_builder_invariants(edges in 2u32..60, vendors in 1u32..20, min_links in 1u32..5, seed in any::<u64>()) {
        let topo = BackboneTopology::build(
            BackboneParams { edges, vendors, min_links_per_edge: min_links },
            seed,
        );
        prop_assert_eq!(topo.edges().len() as u32, edges);
        prop_assert_eq!(topo.vendors().len() as u32, vendors);
        for e in topo.edges() {
            prop_assert!(e.links.len() as u32 >= min_links);
            for &l in &e.links {
                let link = topo.link(l);
                prop_assert!(link.a == e.id || link.b == e.id);
            }
        }
        for l in topo.links() {
            prop_assert!(l.vendor.index() < vendors as usize);
        }
        // Connectivity via the ring.
        let mut seen = vec![false; edges as usize];
        let mut stack = vec![EdgeNodeId::from_index(0)];
        seen[0] = true;
        while let Some(e) = stack.pop() {
            for &l in &topo.edge(e).links {
                let link = topo.link(l);
                for next in [link.a, link.b] {
                    if !seen[next.index()] {
                        seen[next.index()] = true;
                        stack.push(next);
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ticket_duration_hours_nonnegative(start in 0u64..1_000_000, extra in 0u64..1_000_000) {
        let t = Ticket {
            link: FiberLinkId::from_index(0),
            vendor: VendorId::from_index(0),
            kind: TicketKind::Repair,
            started_at: SimTime::from_secs(start),
            completed_at: Some(SimTime::from_secs(start + extra)),
        };
        prop_assert!(t.duration_hours().unwrap() >= 0.0);
        let open = Ticket { completed_at: None, ..t };
        prop_assert!(open.duration_hours().is_none());
    }
}
