//! The chaos ingestion pipeline.
//!
//! Drives a delivery stream through the same stages a production mail
//! ingester has, in simulated time:
//!
//! ```text
//! delivery ──> parse ──> dedup ──> commit gate ──> TicketDb::ingest
//!                │                     │                 │
//!                └── retry ◀── dead-letter queue ◀───────┘
//!                            (exponential backoff,
//!                             quarantine on exhaustion)
//! ```
//!
//! Deliveries and scheduled retries are merged in time order, so a
//! completion that arrived before its (reordered) start fails ingestion
//! once, waits out its backoff, and succeeds on a later attempt — the
//! dead-letter queue is what makes the pipeline self-healing rather
//! than merely lossy. Whatever cannot be healed is quarantined and
//! handed to [`reconcile`].

use crate::config::ChaosConfig;
use crate::dead_letter::{DeadLetterQueue, QuarantineReason};
use crate::dedup::IdempotencyFilter;
use crate::reconcile::{reconcile, ReconcileStats};
use crate::report::DataQualityReport;
use crate::store::FlakyGate;
use bytes::Bytes;
use dcnr_backbone::email::VendorEmail;
use dcnr_backbone::{parse_email, TicketDb};
use dcnr_sim::{SimTime, StudyCalendar};

/// A message travelling through the pipeline.
#[derive(Debug, Clone)]
enum Envelope {
    /// Raw bytes, not yet parsed (or parse failed and is being retried).
    Raw(Bytes),
    /// Parsed and past dedup; failed at the commit gate or the ticket
    /// state machine.
    Parsed(VendorEmail),
}

/// The pipeline's result: the healed database plus its paper trail.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The ticket database after ingestion and reconciliation.
    pub tickets: TicketDb,
    /// Everything the data-quality report needs about this run.
    pub report: DataQualityReport,
}

/// Runs the full chaos ingestion pipeline over an already-injected
/// delivery stream (see [`crate::inject::inject`]).
pub fn run(
    cfg: &ChaosConfig,
    window: StudyCalendar,
    deliveries: &[(SimTime, Bytes)],
) -> PipelineOutput {
    let _span = dcnr_telemetry::span("chaos.pipeline");
    let mut tickets = TicketDb::new();
    let mut dedup = IdempotencyFilter::new();
    let mut dlq: DeadLetterQueue<Envelope> = DeadLetterQueue::new();
    let mut commit_gate = FlakyGate::new(cfg, "tickets");
    let mut report = DataQualityReport::new(*cfg);
    report.delivered = deliveries.len() as u64;
    let mut closed_inline: u64 = 0;

    let mut next = deliveries.iter();
    let mut pending_delivery = next.next();

    // Merge fresh deliveries and scheduled retries in time order.
    loop {
        let take_retry = match (pending_delivery, dlq.next_retry_at()) {
            (Some((at, _)), Some(retry_at)) => retry_at <= *at,
            (None, Some(_)) => true,
            (_, None) if pending_delivery.is_none() => break,
            _ => false,
        };

        let (now, attempts, envelope) = if take_retry {
            let (at, prior, env) = dlq.pop().expect("peeked");
            (at, prior, env)
        } else {
            let (at, raw) = pending_delivery.expect("checked");
            pending_delivery = next.next();
            (*at, 0, Envelope::Raw(raw.clone()))
        };

        // Stage 1: parse (idempotent; retried only because a real
        // ingester retries infrastructure errors it cannot classify).
        let email = match envelope {
            Envelope::Parsed(email) => email,
            Envelope::Raw(raw) => match parse_email(&raw) {
                Ok(email) => {
                    // Stage 2: dedup, exactly once per delivery.
                    if !dedup.admit(&email) {
                        report.note_duplicate();
                        continue;
                    }
                    email
                }
                Err(_) => {
                    report.note_parse_failure();
                    if !dlq.defer(
                        cfg,
                        now,
                        attempts + 1,
                        Envelope::Raw(raw),
                        QuarantineReason::ParseFailed,
                    ) {
                        report.note_quarantined(QuarantineReason::ParseFailed);
                    }
                    continue;
                }
            },
        };

        // Stage 2.5: validation. Corruption can flip a timestamp byte
        // and still parse, so under a nonzero corrupt rate, reject
        // notifications dated outside the study window and completions
        // implying an impossibly long outage. Deterministic — no retry.
        if cfg.corrupt_rate > 0.0 {
            let outside_window = email.at < window.start || email.at > window.end;
            // A fresh delivery is sent at its event time (plus at most
            // a few hours of injected delay), so an event time more
            // than the orphan timeout away from the delivery time means
            // the timestamp itself was corrupted. Checked on first
            // sight only: retries legitimately age in the queue.
            let untimely =
                attempts == 0 && (email.at - now).max(now - email.at) > cfg.orphan_timeout;
            let implausible_outage = !email.is_start
                && tickets
                    .open_since(email.link)
                    .is_some_and(|started| email.at - started > cfg.max_plausible_outage);
            if outside_window || untimely || implausible_outage {
                report.note_quarantined(QuarantineReason::Implausible);
                dlq.quarantine(Envelope::Parsed(email), QuarantineReason::Implausible);
                continue;
            }
        }

        // Stage 3: the commit gate (transient store faults).
        if !commit_gate.attempt() {
            if !dlq.defer(
                cfg,
                now,
                attempts + 1,
                Envelope::Parsed(email),
                QuarantineReason::StoreFailed,
            ) {
                report.note_quarantined(QuarantineReason::StoreFailed);
            }
            continue;
        }

        // Stage 3.5: lazy reconciliation. Two outages on one link never
        // overlap in truth, so a start arriving while the link still
        // carries an open ticket proves that ticket's completion was
        // lost. Close it at its timeout (never later than the new
        // start) — otherwise the stale ticket swallows the new outage's
        // completion and records one huge gap-spanning repair.
        if cfg.can_lose_messages() && email.is_start {
            if let Some(started) = tickets.open_since(email.link) {
                if started < email.at {
                    let closure = VendorEmail {
                        is_start: false,
                        at: (started + cfg.orphan_timeout).min(email.at),
                        circuits: vec![],
                        location: "[reconciled: timeout]".into(),
                        estimated_hours: None,
                        ..email.clone()
                    };
                    if tickets.ingest(&closure) {
                        closed_inline += 1;
                    }
                }
            }
        }

        // Stage 4: the ticket state machine.
        if tickets.ingest(&email) {
            report.note_ingested();
            if attempts > 0 {
                report.note_healed(now, email.at);
            }
        } else if !dlq.defer(
            cfg,
            now,
            attempts + 1,
            Envelope::Parsed(email),
            QuarantineReason::Unmatched,
        ) {
            report.note_quarantined(QuarantineReason::Unmatched);
        }
    }

    report.retries_scheduled = dlq.retries_scheduled;
    report.store = commit_gate.stats;

    // Reconciliation: heal what retry could not.
    let orphans: Vec<VendorEmail> = dlq
        .into_quarantined()
        .into_iter()
        .filter_map(|(env, reason)| match (env, reason) {
            (Envelope::Parsed(e), QuarantineReason::Unmatched) => Some(e),
            _ => None,
        })
        .collect();
    let mut rec: ReconcileStats = reconcile(cfg, window, &mut tickets, &orphans);
    rec.closed_by_timeout += closed_inline;
    report.set_reconcile(rec);

    PipelineOutput { tickets, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::inject;
    use dcnr_backbone::email::render_email;
    use dcnr_backbone::topo::FiberLinkId;
    use dcnr_backbone::vendor::VendorId;
    use dcnr_backbone::TicketKind;
    use dcnr_sim::SimDuration;

    fn email(link: u32, is_start: bool, at: SimTime) -> VendorEmail {
        VendorEmail {
            vendor: VendorId::from_index(0),
            link: FiberLinkId::from_index(link),
            kind: TicketKind::Repair,
            is_start,
            at,
            circuits: vec![1],
            location: "NA test".into(),
            estimated_hours: None,
        }
    }

    fn window() -> StudyCalendar {
        StudyCalendar::backbone()
    }

    /// A small clean ticket stream: `n` sequential outages on one link.
    fn stream(n: u64) -> Vec<(SimTime, Bytes)> {
        let base = window().start;
        let mut out = Vec::new();
        for i in 0..n {
            let start = base + SimDuration::from_hours(i * 100);
            let end = start + SimDuration::from_hours(10);
            out.push((start, render_email(&email(1, true, start))));
            out.push((end, render_email(&email(1, false, end))));
        }
        out
    }

    #[test]
    fn clean_stream_ingests_fully() {
        let cfg = ChaosConfig::quiescent(1);
        let out = run(&cfg, window(), &stream(50));
        assert_eq!(out.tickets.len(), 50);
        assert_eq!(out.report.ingested, 100);
        assert_eq!(out.report.parse_failures, 0);
        assert_eq!(out.report.quarantined(), 0);
        assert_eq!(out.report.reconcile.reconciled(), 0);
    }

    #[test]
    fn reordered_completion_heals_via_retry() {
        let cfg = ChaosConfig::quiescent(1);
        let base = window().start;
        let start_at = base + SimDuration::from_hours(10);
        let end_at = base + SimDuration::from_hours(20);
        // Completion delivered BEFORE its start (reordered transport):
        // delivery times inverted, event times intact.
        let deliveries = vec![
            (
                base + SimDuration::from_hours(1),
                render_email(&email(1, false, end_at)),
            ),
            (
                base + SimDuration::from_hours(2),
                render_email(&email(1, true, start_at)),
            ),
        ];
        let out = run(&cfg, window(), &deliveries);
        assert_eq!(out.tickets.len(), 1);
        let t = &out.tickets.tickets()[0];
        assert_eq!(t.started_at, start_at);
        assert_eq!(t.completed_at, Some(end_at));
        assert_eq!(out.report.healed_by_retry, 1);
        assert!(out.report.retries_scheduled >= 1);
    }

    #[test]
    fn garbage_is_quarantined_not_panicked() {
        let cfg = ChaosConfig::quiescent(1);
        let deliveries = vec![
            (window().start, Bytes::from(vec![0xFF, 0xFE, 0x00, 0x01])),
            (
                window().start + SimDuration::from_hours(1),
                Bytes::from("not an email at all"),
            ),
        ];
        let out = run(&cfg, window(), &deliveries);
        assert_eq!(out.tickets.len(), 0);
        assert_eq!(out.report.quarantined_parse, 2);
        // Each message was retried to exhaustion.
        assert_eq!(
            out.report.retries_scheduled,
            2 * (cfg.max_attempts - 1) as u64
        );
    }

    #[test]
    fn duplicate_delivery_is_deduped() {
        let cfg = ChaosConfig::quiescent(1);
        let base = window().start + SimDuration::from_hours(5);
        let raw = render_email(&email(2, true, base));
        let deliveries = vec![
            (base, raw.clone()),
            (base + SimDuration::from_minutes(3), raw.clone()),
            (base + SimDuration::from_hours(2), raw),
        ];
        let out = run(&cfg, window(), &deliveries);
        assert_eq!(out.tickets.len(), 1);
        assert_eq!(out.report.duplicates_dropped, 2);
        // The deduped replays never reach the state machine: no
        // duplicate-start rejections.
        assert_eq!(out.tickets.rejected, 0);
    }

    #[test]
    fn lost_completion_is_closed_by_timeout() {
        // A lossy mix arms timeout closure (the stream here is
        // hand-crafted; the rate itself never fires in the pipeline).
        let cfg = ChaosConfig {
            loss_rate: 0.02,
            ..ChaosConfig::quiescent(1)
        };
        let base = window().start;
        let start_at = base + SimDuration::from_hours(10);
        // The completion e-mail never arrives.
        let deliveries = vec![(start_at, render_email(&email(3, true, start_at)))];
        let out = run(&cfg, window(), &deliveries);
        assert_eq!(out.report.reconcile.closed_by_timeout, 1);
        let t = &out.tickets.tickets()[0];
        assert_eq!(t.completed_at, Some(start_at + cfg.orphan_timeout));
    }

    #[test]
    fn lost_start_is_synthesized() {
        let cfg = ChaosConfig::quiescent(1);
        let base = window().start;
        let end_at = base + SimDuration::from_hours(300);
        // Only the completion arrives.
        let deliveries = vec![(end_at, render_email(&email(4, false, end_at)))];
        let out = run(&cfg, window(), &deliveries);
        assert_eq!(out.report.reconcile.synthesized_starts, 1);
        let t = &out.tickets.tickets()[0];
        assert_eq!(t.completed_at, Some(end_at));
        assert_eq!(t.started_at, end_at - cfg.synthesized_outage);
    }

    #[test]
    fn store_faults_delay_but_do_not_lose_tickets() {
        let cfg = ChaosConfig {
            store_fail_rate: 0.3,
            ..ChaosConfig::quiescent(7)
        };
        let out = run(&cfg, window(), &stream(100));
        assert_eq!(out.tickets.len(), 100, "all tickets eventually commit");
        assert!(out.report.store.transient_failures > 20);
        assert_eq!(
            out.report.quarantined_store, 0,
            "budget absorbs a 30% failure rate"
        );
    }

    #[test]
    fn zero_rate_pipeline_matches_direct_ingestion() {
        let cfg = ChaosConfig::quiescent(1);
        let emails = stream(40);
        let (delivered, _) = inject(&cfg, &emails);
        assert_eq!(delivered, emails);
        let out = run(&cfg, window(), &delivered);

        let mut direct = TicketDb::new();
        for (_, raw) in &emails {
            direct.ingest(&parse_email(raw).unwrap());
        }
        assert_eq!(out.tickets.tickets(), direct.tickets());
        assert_eq!(out.tickets.rejected, direct.rejected);
    }
}
