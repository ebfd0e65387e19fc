//! The data-quality report.
//!
//! Regenerating the paper's tables and figures from a faulted feed is
//! only honest if the output says how much of the feed survived and
//! what was repaired along the way. [`DataQualityReport`] carries every
//! counter the pipeline and reconciler accumulate, and renders both a
//! full report and a one-line annotation banner for stamping onto
//! regenerated tables/figures.

use crate::config::ChaosConfig;
use crate::dead_letter::QuarantineReason;
use crate::inject::InjectionStats;
use crate::reconcile::ReconcileStats;
use crate::store::StoreStats;
use dcnr_sim::{SimDuration, SimTime};
use std::fmt;

/// Everything measured about one chaos-ingestion run.
#[derive(Debug, Clone, Copy)]
pub struct DataQualityReport {
    /// The configuration the run used.
    pub config: ChaosConfig,
    /// What the injector did to the stream (zeroed when the pipeline
    /// is fed directly).
    pub injection: InjectionStats,
    /// Messages handed to the pipeline (after loss, with duplicates).
    pub delivered: u64,
    /// Notifications accepted into the ticket database.
    pub ingested: u64,
    /// Exact re-deliveries dropped by the idempotency filter.
    pub duplicates_dropped: u64,
    /// Parse attempts that failed (includes retries of the same bytes).
    pub parse_failures: u64,
    /// Messages quarantined because they never parsed.
    pub quarantined_parse: u64,
    /// Messages quarantined because the store never accepted them.
    pub quarantined_store: u64,
    /// Messages quarantined because they never matched the ticket state
    /// machine (fed to reconciliation).
    pub quarantined_semantic: u64,
    /// Messages quarantined by validation: dated outside the window or
    /// implying an impossibly long outage (presumed corrupt).
    pub quarantined_implausible: u64,
    /// Retries the dead-letter queue scheduled.
    pub retries_scheduled: u64,
    /// Messages that failed at least once and later succeeded.
    pub healed_by_retry: u64,
    /// Largest observed ingestion delay among healed messages
    /// (ingestion time minus event time).
    pub max_heal_delay: SimDuration,
    /// Ticket-store commit-gate counters.
    pub store: StoreStats,
    /// What reconciliation synthesized.
    pub reconcile: ReconcileStats,
}

impl DataQualityReport {
    /// An empty report for a run under `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            config,
            injection: InjectionStats::default(),
            delivered: 0,
            ingested: 0,
            duplicates_dropped: 0,
            parse_failures: 0,
            quarantined_parse: 0,
            quarantined_store: 0,
            quarantined_semantic: 0,
            quarantined_implausible: 0,
            retries_scheduled: 0,
            healed_by_retry: 0,
            max_heal_delay: SimDuration::ZERO,
            store: StoreStats::default(),
            reconcile: ReconcileStats::default(),
        }
    }

    /// Records the ingestion delay of a healed message.
    pub fn note_commit_delay(&mut self, ingested_at: SimTime, event_at: SimTime) {
        let delay = ingested_at - event_at;
        if delay > self.max_heal_delay {
            self.max_heal_delay = delay;
        }
    }

    // The `note_*` accounting helpers below are the single bookkeeping
    // path for the pipeline's per-message tallies; `publish_tallies`
    // copies them into the telemetry registry once per run, and the
    // `set_*` helpers mirror the stats they store. Telemetry never
    // feeds back, so the rendered report is byte-identical with it on
    // or off.

    /// Counts one exact re-delivery dropped by the idempotency filter.
    pub fn note_duplicate(&mut self) {
        self.duplicates_dropped += 1;
    }

    /// Counts one failed parse attempt.
    pub fn note_parse_failure(&mut self) {
        self.parse_failures += 1;
    }

    /// Counts one message quarantined under `reason`.
    pub fn note_quarantined(&mut self, reason: QuarantineReason) {
        match reason {
            QuarantineReason::ParseFailed => self.quarantined_parse += 1,
            QuarantineReason::StoreFailed => self.quarantined_store += 1,
            QuarantineReason::Unmatched => self.quarantined_semantic += 1,
            QuarantineReason::Implausible => self.quarantined_implausible += 1,
        }
    }

    /// Counts one notification accepted into the ticket database.
    pub fn note_ingested(&mut self) {
        self.ingested += 1;
    }

    /// Counts a message that failed at least once and later succeeded,
    /// recording its ingestion delay.
    pub fn note_healed(&mut self, ingested_at: SimTime, event_at: SimTime) {
        self.healed_by_retry += 1;
        self.note_commit_delay(ingested_at, event_at);
    }

    /// Adds the `note_*` tallies to the installed collector's counters
    /// (a no-op without one). A tally still at zero creates no series,
    /// just as no per-message bump would have.
    pub(crate) fn publish_tallies(&self) {
        for (name, n) in [
            (
                "dcnr_chaos_duplicates_dropped_total",
                self.duplicates_dropped,
            ),
            ("dcnr_chaos_parse_failures_total", self.parse_failures),
            ("dcnr_chaos_ingested_total", self.ingested),
            ("dcnr_chaos_healed_by_retry_total", self.healed_by_retry),
        ] {
            if n > 0 {
                dcnr_telemetry::counter_add(name, &[], n);
            }
        }
        for (reason, n) in [
            (QuarantineReason::ParseFailed, self.quarantined_parse),
            (QuarantineReason::StoreFailed, self.quarantined_store),
            (QuarantineReason::Unmatched, self.quarantined_semantic),
            (QuarantineReason::Implausible, self.quarantined_implausible),
        ] {
            if n > 0 {
                dcnr_telemetry::counter_add(
                    "dcnr_chaos_quarantined_total",
                    &[("reason", reason.label())],
                    n,
                );
            }
        }
    }

    /// Stores the injector's stats, mirroring the fault counts into
    /// telemetry.
    pub fn set_injection(&mut self, stats: InjectionStats) {
        if dcnr_telemetry::active() {
            for (kind, n) in [
                ("lost", stats.lost),
                ("duplicated", stats.duplicated),
                ("corrupted", stats.corrupted),
                ("truncated", stats.truncated),
                ("delayed", stats.delayed),
            ] {
                dcnr_telemetry::counter_add(
                    "dcnr_chaos_injected_faults_total",
                    &[("kind", kind)],
                    n,
                );
            }
        }
        self.injection = stats;
    }

    /// Stores the reconciler's stats, mirroring them into telemetry.
    pub fn set_reconcile(&mut self, stats: ReconcileStats) {
        if dcnr_telemetry::active() {
            for (kind, n) in [
                ("closed_by_timeout", stats.closed_by_timeout),
                ("synthesized_starts", stats.synthesized_starts),
                ("unreconcilable", stats.unreconcilable),
                ("censored_open", stats.censored_open),
            ] {
                dcnr_telemetry::counter_add("dcnr_chaos_reconciled_total", &[("kind", kind)], n);
            }
        }
        self.reconcile = stats;
    }

    /// Total messages quarantined (all reasons).
    pub fn quarantined(&self) -> u64 {
        self.quarantined_parse
            + self.quarantined_store
            + self.quarantined_semantic
            + self.quarantined_implausible
    }

    /// Fraction of delivered messages the database accepted.
    pub fn ingest_rate(&self) -> f64 {
        if self.delivered == 0 {
            return 1.0;
        }
        self.ingested as f64 / self.delivered as f64
    }

    /// Fraction of delivered messages dropped as exact re-deliveries.
    pub fn dedup_rate(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.duplicates_dropped as f64 / self.delivered as f64
    }

    /// The one-line banner stamped onto regenerated tables/figures.
    ///
    /// Quiet runs (no faults fired, nothing repaired) annotate as
    /// clean so the unperturbed pipeline's output is visibly pristine.
    pub fn annotation(&self) -> String {
        if self.is_pristine() {
            return "[data quality: clean feed, no faults observed]".to_string();
        }
        format!(
            "[data quality: ingest {:.1}% | dedup {:.1}% | quarantined {} | reconciled {} | censored-open {}]",
            self.ingest_rate() * 100.0,
            self.dedup_rate() * 100.0,
            self.quarantined(),
            self.reconcile.reconciled(),
            self.reconcile.censored_open,
        )
    }

    /// Whether the run saw no faults at all.
    pub fn is_pristine(&self) -> bool {
        self.duplicates_dropped == 0
            && self.parse_failures == 0
            && self.quarantined() == 0
            && self.healed_by_retry == 0
            && self.store.transient_failures == 0
            && self.reconcile.reconciled() == 0
            && self.injection.lost + self.injection.duplicated == 0
            && self.injection.corrupted + self.injection.truncated + self.injection.delayed == 0
    }
}

impl fmt::Display for DataQualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "data-quality report")?;
        writeln!(f, "  delivery stream")?;
        writeln!(
            f,
            "    offered by simulator      : {}",
            self.injection.input
        )?;
        writeln!(
            f,
            "    injected faults           : {} lost, {} duplicated, {} corrupted, {} truncated, {} delayed",
            self.injection.lost,
            self.injection.duplicated,
            self.injection.corrupted,
            self.injection.truncated,
            self.injection.delayed,
        )?;
        writeln!(f, "    delivered to pipeline     : {}", self.delivered)?;
        writeln!(f, "  ingestion")?;
        writeln!(
            f,
            "    accepted into ticket db   : {} ({:.2}% of delivered)",
            self.ingested,
            self.ingest_rate() * 100.0
        )?;
        writeln!(
            f,
            "    deduped re-deliveries     : {} ({:.2}%)",
            self.duplicates_dropped,
            self.dedup_rate() * 100.0
        )?;
        writeln!(f, "    parse failures (attempts) : {}", self.parse_failures)?;
        writeln!(f, "  dead-letter queue")?;
        writeln!(
            f,
            "    retries scheduled         : {}",
            self.retries_scheduled
        )?;
        writeln!(
            f,
            "    healed by retry           : {}",
            self.healed_by_retry
        )?;
        writeln!(f, "    max heal delay            : {}", self.max_heal_delay)?;
        writeln!(
            f,
            "    quarantined               : {} ({} parse, {} store, {} unmatched, {} implausible)",
            self.quarantined(),
            self.quarantined_parse,
            self.quarantined_store,
            self.quarantined_semantic,
            self.quarantined_implausible,
        )?;
        writeln!(f, "  ticket store (commit gate)")?;
        writeln!(f, "    attempts                  : {}", self.store.attempts)?;
        writeln!(
            f,
            "    transient failures        : {}",
            self.store.transient_failures
        )?;
        writeln!(f, "  reconciliation")?;
        writeln!(
            f,
            "    closed by timeout         : {}",
            self.reconcile.closed_by_timeout
        )?;
        writeln!(
            f,
            "    synthesized lost starts   : {}",
            self.reconcile.synthesized_starts
        )?;
        writeln!(
            f,
            "    unreconcilable orphans    : {}",
            self.reconcile.unreconcilable
        )?;
        write!(
            f,
            "    right-censored open       : {}",
            self.reconcile.censored_open
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_report_annotates_clean() {
        let r = DataQualityReport::new(ChaosConfig::quiescent(0));
        assert!(r.is_pristine());
        assert!(r.annotation().contains("clean feed"));
        assert_eq!(r.ingest_rate(), 1.0);
        assert_eq!(r.dedup_rate(), 0.0);
    }

    #[test]
    fn faulted_report_annotates_rates() {
        let mut r = DataQualityReport::new(ChaosConfig::drill(0));
        r.delivered = 200;
        r.ingested = 180;
        r.duplicates_dropped = 10;
        r.quarantined_parse = 4;
        r.reconcile.closed_by_timeout = 3;
        assert!(!r.is_pristine());
        let a = r.annotation();
        assert!(a.contains("ingest 90.0%"), "{a}");
        assert!(a.contains("dedup 5.0%"), "{a}");
        assert!(a.contains("quarantined 4"), "{a}");
        assert!(a.contains("reconciled 3"), "{a}");
    }

    #[test]
    fn display_renders_every_section() {
        let mut r = DataQualityReport::new(ChaosConfig::drill(0));
        r.delivered = 10;
        r.note_commit_delay(SimTime::from_secs(7_200), SimTime::from_secs(0));
        let s = r.to_string();
        for needle in [
            "delivery stream",
            "ingestion",
            "dead-letter queue",
            "ticket store",
            "reconciliation",
            "2h00m00s",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
