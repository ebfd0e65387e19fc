//! The eighteen-month backbone failure simulation.
//!
//! Two failure processes generate vendor tickets, matching the paper's
//! two measurement granularities (§6.1 edges, §6.2 vendor links):
//!
//! 1. **Conduit cuts (fate-sharing).** Each edge draws an alternating
//!    renewal process from its target MTBF/MTTR: when a conduit is cut
//!    (backhoe, storm, submarine fault), **all** of the edge's links go
//!    down together and recover together — the only realistic way an
//!    edge loses all ≥3 of its links at once, and hence the events the
//!    §6.1 edge analysis sees.
//! 2. **Independent link failures.** Each vendor's links fail on their
//!    own at a per-vendor budget calibrated so the vendor's *total*
//!    ticket rate (conduit-induced + independent) matches its target
//!    MTBF. Durations follow the vendor's target MTTR. A share of these
//!    are planned maintenance.
//!
//! The simulator's only output is a time-ordered stream of **rendered
//! vendor e-mails** — the analysis must go through
//! [`crate::email::parse_email`] and [`crate::ticket::TicketDb`] to see
//! anything, reproducing the paper's measurement boundary.

use crate::email::{render_email, VendorEmail};
use crate::failure_model::EntityTargets;
use crate::ticket::TicketKind;
use crate::topo::{BackboneParams, BackboneTopology, EdgeNodeId};
use bytes::Bytes;
use dcnr_sim::{stream_rng, SimDuration, SimTime, StudyCalendar};
use rand::Rng;
use std::fmt::Write;

/// Configuration for one backbone simulation.
#[derive(Debug, Clone, Copy)]
pub struct BackboneSimConfig {
    /// Topology shape.
    pub params: BackboneParams,
    /// Observation window (defaults to the paper's Oct 2016 – Apr 2018).
    pub window: StudyCalendar,
    /// Master seed.
    pub seed: u64,
}

impl Default for BackboneSimConfig {
    fn default() -> Self {
        Self {
            params: BackboneParams::default(),
            window: StudyCalendar::backbone(),
            seed: 0xB0_E5,
        }
    }
}

/// The simulation's outputs.
pub struct BackboneSimOutput {
    /// The simulated backbone.
    pub topology: BackboneTopology,
    /// The per-entity ground-truth targets (kept for verification; the
    /// analysis pipeline never reads them).
    pub targets: EntityTargets,
    /// Time-ordered rendered vendor e-mails.
    pub emails: Vec<(SimTime, Bytes)>,
}

/// The backbone simulator.
pub struct BackboneSim {
    config: BackboneSimConfig,
}

impl BackboneSim {
    /// Creates a simulator.
    pub fn new(config: BackboneSimConfig) -> Self {
        Self { config }
    }

    /// Runs the simulation.
    pub fn run(&self) -> BackboneSimOutput {
        let cfg = &self.config;
        let topology = BackboneTopology::build(cfg.params, cfg.seed);
        let targets = EntityTargets::sample(&topology, cfg.seed);
        let window_h = cfg.window.hours();

        // ---- 1. conduit schedules per edge (hours from window start) ----
        // Every RNG draw below happens whether or not telemetry is on;
        // the fiber-cut counter/trace observe sampled intervals after
        // the fact.
        let cut_counter = dcnr_telemetry::counter("dcnr_backbone_fiber_cuts_total", &[]);
        let mut conduits: Vec<Vec<(f64, f64)>> = Vec::with_capacity(topology.edges().len());
        for (i, edge) in topology.edges().iter().enumerate() {
            let t = targets.edge(i);
            let mut rng = stream_rng(cfg.seed, &format!("backbone.conduit.{}", edge.id));
            let mut intervals = Vec::new();
            let mut cursor = 0.0f64;
            loop {
                let up: f64 = -t.mtbf_hours * (1.0 - rng.gen::<f64>()).ln();
                let start = cursor + up;
                if start >= window_h {
                    break;
                }
                let down: f64 = (t.mttr_hours * duration_jitter(&mut rng)).max(0.01);
                let end = (start + down).min(window_h);
                if let Some(counter) = &cut_counter {
                    counter.inc();
                    dcnr_telemetry::trace_event(
                        at_hours(cfg.window, start).as_secs(),
                        "fiber_cut",
                        [u64::from(edge.id.0), (end - start).to_bits(), 0, 0],
                        write_fiber_cut,
                    );
                }
                intervals.push((start, end));
                cursor = end;
                if end >= window_h {
                    break;
                }
            }
            conduits.push(intervals);
        }

        // ---- 2. per-vendor repair budgets ----
        // Vendor reliability (§6.2) is measured over unplanned repair
        // tickets only, so each vendor's repair budget is exactly its
        // target rate (conduit maintenance events are accounted
        // separately and do not dilute vendor statistics).
        let mut independent_budget = vec![0.0f64; topology.vendors().len()];
        for v in topology.vendors() {
            let t = targets.vendor(v.id);
            independent_budget[v.id.index()] = window_h / t.mtbf_hours;
        }

        // ---- 3. per-link ticket streams ----
        let mut events: Vec<(SimTime, u64, Bytes)> = Vec::new();
        let mut seq = 0u64;
        let emit = |events: &mut Vec<(SimTime, u64, Bytes)>, seq: &mut u64, email: VendorEmail| {
            events.push((email.at, *seq, render_email(&email)));
            *seq += 1;
        };

        for link in topology.links() {
            let vendor = topology.vendor(link.vendor);
            let vt = targets.vendor(link.vendor);
            let n_links = topology.links_of_vendor(link.vendor).len().max(1) as f64;
            let per_link_tickets = independent_budget[link.vendor.index()] / n_links;
            // The generator's cursor advances by gap + repair duration;
            // subtract the expected duration so the realized ticket rate
            // matches the budget (floored so saturated vendors still
            // leave some uptime between tickets).
            let mean_gap = if per_link_tickets > 0.0 {
                let spacing = window_h / per_link_tickets;
                (spacing - vt.mttr_hours).max(0.2 * spacing)
            } else {
                f64::INFINITY
            };

            // Conduit intervals affecting this link: both endpoints.
            let mut blocked: Vec<(f64, f64)> = conduits[link.a.index()]
                .iter()
                .chain(conduits[link.b.index()].iter())
                .copied()
                .collect();
            blocked.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            // Merge overlaps.
            let mut merged: Vec<(f64, f64)> = Vec::with_capacity(blocked.len());
            for (s, e) in blocked {
                match merged.last_mut() {
                    Some((_, pe)) if s <= *pe => *pe = pe.max(e),
                    _ => merged.push((s, e)),
                }
            }

            let mut rng = stream_rng(
                cfg.seed,
                &format!("backbone.link.{}.{}", link.id, vendor.id),
            );

            // Vendor-specific recovery lag: after a conduit is spliced,
            // each vendor still has to re-test and re-light its own
            // circuits, so this link's ticket closes a little after the
            // conduit repair — keeping per-vendor MTTR differences
            // visible in the ticket data (the edge recovers at the
            // *first* link's return, so edge MTTR is barely biased).
            let merged: Vec<(f64, f64)> = {
                let extended: Vec<(f64, f64)> = merged
                    .iter()
                    .map(|&(s, e)| {
                        let extra: f64 = -0.3 * vt.mttr_hours * (1.0 - rng.gen::<f64>()).ln();
                        (s, (e + extra).min(window_h))
                    })
                    .collect();
                let mut remerged: Vec<(f64, f64)> = Vec::with_capacity(extended.len());
                for (s, e) in extended {
                    match remerged.last_mut() {
                        Some((_, pe)) if s <= *pe => *pe = pe.max(e),
                        _ => remerged.push((s, e)),
                    }
                }
                remerged
            };

            // Conduit tickets for this link. These are *planned
            // maintenance / shared-infrastructure* events (§6.1: edge
            // failures come from "planned fiber maintenances or
            // unplanned fiber cuts" on the shared plant); the vendor
            // reliability analysis (§6.2) measures unplanned repairs,
            // which the independent stream below generates.
            for &(s, e) in &merged {
                let circuits: Vec<u8> = (0..link.circuits).collect();
                let location = format!(
                    "{} conduit corridor {}-{}",
                    topology.edge(link.a).continent.code(),
                    link.a,
                    link.b
                );
                emit(
                    &mut events,
                    &mut seq,
                    VendorEmail {
                        vendor: link.vendor,
                        link: link.id,
                        kind: TicketKind::Maintenance,
                        is_start: true,
                        at: at_hours(cfg.window, s),
                        circuits: circuits.clone(),
                        location: location.clone(),
                        estimated_hours: Some((e - s) * 1.2),
                    },
                );
                if e < window_h {
                    emit(
                        &mut events,
                        &mut seq,
                        VendorEmail {
                            vendor: link.vendor,
                            link: link.id,
                            kind: TicketKind::Maintenance,
                            is_start: false,
                            at: at_hours(cfg.window, e),
                            circuits,
                            location,
                            estimated_hours: None,
                        },
                    );
                }
            }

            // Independent tickets, avoiding conduit intervals.
            if mean_gap.is_finite() {
                let mut cursor = 0.0f64;
                let mut blocked_iter = 0usize;
                loop {
                    let gap: f64 = -mean_gap * (1.0 - rng.gen::<f64>()).ln();
                    let mut start = cursor + gap;
                    let dur = (vt.mttr_hours * duration_jitter(&mut rng)).max(0.01);
                    let mut end = start + dur;
                    // Skip past conduit intervals that intersect.
                    while blocked_iter < merged.len() {
                        let (bs, be) = merged[blocked_iter];
                        if be <= start {
                            blocked_iter += 1;
                        } else if bs < end {
                            // Intersects: move wholly after the conduit.
                            start = be + 0.01;
                            end = start + dur;
                            blocked_iter += 1;
                        } else {
                            break;
                        }
                    }
                    if start >= window_h {
                        break;
                    }
                    end = end.min(window_h);
                    let kind = TicketKind::Repair; // unplanned: the §6.2 stream
                    let circuits: Vec<u8> = vec![rng.gen_range(0..link.circuits.max(1))];
                    let location = format!(
                        "{} span {}",
                        topology.edge(link.a).continent.code(),
                        link.id
                    );
                    emit(
                        &mut events,
                        &mut seq,
                        VendorEmail {
                            vendor: link.vendor,
                            link: link.id,
                            kind,
                            is_start: true,
                            at: at_hours(cfg.window, start),
                            circuits: circuits.clone(),
                            location: location.clone(),
                            estimated_hours: Some(dur),
                        },
                    );
                    if end < window_h {
                        emit(
                            &mut events,
                            &mut seq,
                            VendorEmail {
                                vendor: link.vendor,
                                link: link.id,
                                kind,
                                is_start: false,
                                at: at_hours(cfg.window, end),
                                circuits,
                                location,
                                estimated_hours: None,
                            },
                        );
                    }
                    cursor = end;
                    if cursor >= window_h {
                        break;
                    }
                }
            }
        }

        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let emails = events.into_iter().map(|(t, _, b)| (t, b)).collect();
        BackboneSimOutput {
            topology,
            targets,
            emails,
        }
    }
}

fn at_hours(window: StudyCalendar, hours: f64) -> SimTime {
    window.start + SimDuration::from_hours_f64(hours)
}

/// Writes a `fiber_cut` detail: `[edge index, f64 bits of hours down]`.
fn write_fiber_cut([edge, hours, ..]: [u64; 4], d: &mut String) {
    let edge = EdgeNodeId(edge as u32);
    let _ = write!(d, "edge {edge} down {:.1}h", f64::from_bits(hours));
}

/// Mean-one log-normal duration jitter (sigma 0.5): repair durations are
/// multiplicative and right-skewed, but far less dispersed within one
/// entity than the exponential — which keeps per-entity MTTR estimates
/// stable at the handful-of-samples scale the window allows.
fn duration_jitter<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    const SIGMA: f64 = 0.5;
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (SIGMA * z - SIGMA * SIGMA / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::email::parse_email;
    use crate::ticket::TicketDb;

    fn small_config() -> BackboneSimConfig {
        BackboneSimConfig {
            params: BackboneParams {
                edges: 30,
                vendors: 12,
                min_links_per_edge: 3,
            },
            seed: 42,
            ..Default::default()
        }
    }

    fn run_and_ingest(cfg: BackboneSimConfig) -> (BackboneSimOutput, TicketDb) {
        let out = BackboneSim::new(cfg).run();
        let mut db = TicketDb::new();
        for (_, raw) in &out.emails {
            let email = parse_email(raw).expect("simulator emits valid emails");
            db.ingest(&email);
        }
        (out, db)
    }

    #[test]
    fn emails_parse_and_ingest_cleanly() {
        let (out, db) = run_and_ingest(small_config());
        assert!(!out.emails.is_empty());
        assert!(db.len() > 50, "tickets: {}", db.len());
        // The pipeline should ingest without rejects: the simulator
        // never emits overlapping tickets on one link.
        assert_eq!(db.rejected, 0);
    }

    #[test]
    fn emails_are_time_ordered() {
        let out = BackboneSim::new(small_config()).run();
        assert!(out.emails.windows(2).all(|w| w[0].0 <= w[1].0));
        let window = small_config().window;
        for (t, _) in &out.emails {
            assert!(*t >= window.start && *t <= window.end);
        }
    }

    #[test]
    fn every_edge_fails_at_least_once_in_expectation() {
        // Median edge MTBF ~1.7k h over a 13k h window: ~7 failures
        // expected per edge; all 30 edges should record at least one.
        let (out, db) = run_and_ingest(small_config());
        let logs = db.edge_logs(&out.topology, small_config().window);
        assert!(logs.len() >= 28, "edges with failures: {}", logs.len());
    }

    #[test]
    fn edge_mtbf_estimates_track_targets() {
        let (out, db) = run_and_ingest(small_config());
        let logs = db.edge_logs(&out.topology, small_config().window);
        let mut rel_errors = Vec::new();
        for (id, log) in &logs {
            let est = log.estimate().unwrap();
            let target = out.targets.edge(id.index()).mtbf_hours;
            if est.failures >= 4 {
                rel_errors.push((est.mtbf - target).abs() / target);
            }
        }
        assert!(!rel_errors.is_empty());
        let mean_err: f64 = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
        // Renewal estimates with a handful of events are noisy; the
        // *average* relative error across edges should still be modest.
        assert!(mean_err < 0.6, "mean relative error {mean_err}");
    }

    #[test]
    fn vendor_ticket_rates_track_targets() {
        let (out, db) = run_and_ingest(small_config());
        let window_h = small_config().window.hours();
        let mut counts = vec![0usize; out.topology.vendors().len()];
        for t in db.tickets() {
            counts[t.vendor.index()] += 1;
        }
        // Conduit (fate-sharing) tickets add on top of each vendor's own
        // budget, so a vendor's observed ticket count is *at least* its
        // target rate; for high-rate vendors the independent budget
        // dominates and the count should also be close to the target.
        let mut checked_floor = 0;
        let mut checked_close = 0;
        for v in out.topology.vendors() {
            let target = out.targets.vendor(v.id).mtbf_hours;
            let expected = window_h / target;
            let observed = counts[v.id.index()] as f64;
            if expected >= 10.0 {
                assert!(
                    observed >= 0.5 * expected,
                    "{}: observed {observed} below target floor {expected}",
                    v.id
                );
                checked_floor += 1;
            }
            if expected >= 200.0 {
                assert!(
                    (observed - expected).abs() / expected < 0.5,
                    "{}: observed {observed} vs expected {expected}",
                    v.id
                );
                checked_close += 1;
            }
        }
        assert!(
            checked_floor >= 1,
            "no vendor cleared the statistical floor"
        );
        assert!(checked_close >= 1, "no high-rate vendor to verify closely");
    }

    #[test]
    fn conduit_events_are_maintenance_repairs_are_unplanned() {
        let (_, db) = run_and_ingest(small_config());
        let maint = db
            .tickets()
            .iter()
            .filter(|t| t.kind == TicketKind::Maintenance)
            .count();
        let repair = db
            .tickets()
            .iter()
            .filter(|t| t.kind == TicketKind::Repair)
            .count();
        assert!(maint > 0, "conduit maintenance events exist");
        assert!(repair > 0, "unplanned repairs exist");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = BackboneSim::new(small_config()).run();
        let b = BackboneSim::new(small_config()).run();
        assert_eq!(a.emails.len(), b.emails.len());
        for ((t1, e1), (t2, e2)) in a.emails.iter().zip(&b.emails) {
            assert_eq!(t1, t2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = BackboneSim::new(small_config()).run();
        let mut cfg = small_config();
        cfg.seed = 43;
        let b = BackboneSim::new(cfg).run();
        assert_ne!(a.emails.len(), b.emails.len());
    }
}
