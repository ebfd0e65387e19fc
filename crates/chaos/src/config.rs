//! Chaos-ingestion configuration.

use dcnr_sim::SimDuration;

/// All knobs for one chaos-ingestion run.
///
/// Every rate is a per-e-mail probability in `[0, 1]`. A rate of
/// exactly `0.0` disables that fault *without consuming randomness*, so
/// an all-zero configuration leaves the delivery stream byte-identical
/// to the un-injected pipeline (verified by tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed for every injection decision. Independent from the
    /// simulation seed: the same traffic can be replayed under
    /// different fault schedules and vice versa.
    pub seed: u64,
    /// Probability an e-mail has random bytes flipped in transit.
    pub corrupt_rate: f64,
    /// Probability an e-mail is truncated mid-message.
    pub truncate_rate: f64,
    /// Probability an e-mail is silently dropped.
    pub loss_rate: f64,
    /// Probability an e-mail is delivered twice (MTA retry after a
    /// lost ACK; the duplicate carries the same — possibly corrupted —
    /// payload).
    pub dup_rate: f64,
    /// Probability an e-mail's delivery is delayed by up to
    /// [`reorder_max_delay`](Self::reorder_max_delay), letting later
    /// messages overtake it.
    pub reorder_rate: f64,
    /// Maximum delivery delay for reordered (and duplicated) messages.
    pub reorder_max_delay: SimDuration,
    /// Probability a ticket-store commit transiently fails and must be
    /// retried from the dead-letter queue (a delayed commit).
    pub store_fail_rate: f64,
    /// First retry backoff; doubles every attempt (exponential).
    pub retry_base: SimDuration,
    /// Retry budget per message before it is quarantined.
    pub max_attempts: u32,
    /// A ticket still open this long after its start is presumed to
    /// have lost its completion e-mail; reconciliation synthesizes a
    /// closure at `start + orphan_timeout`.
    pub orphan_timeout: SimDuration,
    /// Outage length assumed when synthesizing a start for an orphan
    /// completion (a lost start e-mail).
    pub synthesized_outage: SimDuration,
    /// Longest outage the validator believes. Corruption can flip a
    /// byte inside a timestamp and still parse, so when
    /// `corrupt_rate > 0` the pipeline quarantines notifications dated
    /// outside the study window and completions implying an outage
    /// longer than this. Must sit far above the genuine repair-time
    /// tail (hundreds of hours) to avoid censoring real data.
    pub max_plausible_outage: SimDuration,
}

impl ChaosConfig {
    /// A configuration with every fault disabled: the pipeline behaves
    /// exactly like the clean one.
    pub fn quiescent(seed: u64) -> Self {
        Self {
            seed,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            loss_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            reorder_max_delay: SimDuration::from_hours(4),
            store_fail_rate: 0.0,
            retry_base: SimDuration::from_minutes(15),
            max_attempts: 6,
            orphan_timeout: SimDuration::from_hours(48),
            synthesized_outage: SimDuration::from_hours(8),
            max_plausible_outage: SimDuration::from_hours(24 * 60),
        }
    }

    /// The default chaos drill: the acceptance-test fault mix.
    pub fn drill(seed: u64) -> Self {
        Self {
            corrupt_rate: 0.05,
            truncate_rate: 0.01,
            loss_rate: 0.02,
            dup_rate: 0.02,
            reorder_rate: 0.02,
            store_fail_rate: 0.01,
            ..Self::quiescent(seed)
        }
    }

    /// A deliberately hostile mix: every fault rate an order of
    /// magnitude above the drill's, with a tight retry budget. Used to
    /// run sweeps over a workload that is *expected* to fail its
    /// tolerance gate: failing acceptance is a replica verdict, not a
    /// sweep error.
    pub fn hostile(seed: u64) -> Self {
        Self {
            corrupt_rate: 0.30,
            truncate_rate: 0.10,
            loss_rate: 0.20,
            dup_rate: 0.15,
            reorder_rate: 0.15,
            store_fail_rate: 0.10,
            max_attempts: 2,
            ..Self::quiescent(seed)
        }
    }

    /// Whether any delivery-stream fault can fire.
    pub fn perturbs_stream(&self) -> bool {
        self.corrupt_rate > 0.0
            || self.truncate_rate > 0.0
            || self.loss_rate > 0.0
            || self.dup_rate > 0.0
            || self.reorder_rate > 0.0
    }

    /// Whether an e-mail can disappear outright (dropped, or mangled
    /// beyond parsing). Timeout-based orphan closure is justified only
    /// when this holds: on a loss-free feed, a ticket still open at
    /// window end is genuinely right-censored, not an orphan.
    pub fn can_lose_messages(&self) -> bool {
        self.corrupt_rate > 0.0 || self.truncate_rate > 0.0 || self.loss_rate > 0.0
    }

    /// Validates that all rates are probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("corrupt-rate", self.corrupt_rate),
            ("truncate-rate", self.truncate_rate),
            ("loss-rate", self.loss_rate),
            ("dup-rate", self.dup_rate),
            ("reorder-rate", self.reorder_rate),
            ("store-fail-rate", self.store_fail_rate),
        ] {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(format!("{name} must be in [0, 1], got {r}"));
            }
        }
        if self.max_attempts == 0 {
            return Err("max-attempts must be at least 1".into());
        }
        Ok(())
    }

    /// Exponential backoff for retry `attempt` (1-based):
    /// `retry_base * 2^(attempt-1)`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let base = self.retry_base.as_secs();
        SimDuration::from_secs(base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_is_valid_and_quiet() {
        let c = ChaosConfig::quiescent(1);
        assert!(c.validate().is_ok());
        assert!(!c.perturbs_stream());
    }

    #[test]
    fn drill_is_valid_and_noisy() {
        let c = ChaosConfig::drill(1);
        assert!(c.validate().is_ok());
        assert!(c.perturbs_stream());
    }

    #[test]
    fn hostile_is_valid_and_strictly_noisier_than_the_drill() {
        let h = ChaosConfig::hostile(1);
        assert!(h.validate().is_ok());
        assert!(h.perturbs_stream() && h.can_lose_messages());
        let d = ChaosConfig::drill(1);
        for (hr, dr) in [
            (h.corrupt_rate, d.corrupt_rate),
            (h.truncate_rate, d.truncate_rate),
            (h.loss_rate, d.loss_rate),
            (h.dup_rate, d.dup_rate),
            (h.reorder_rate, d.reorder_rate),
            (h.store_fail_rate, d.store_fail_rate),
        ] {
            assert!(hr > dr, "hostile must exceed drill: {hr} vs {dr}");
        }
        assert!(h.max_attempts < d.max_attempts);
    }

    #[test]
    fn rates_are_validated() {
        let c = ChaosConfig {
            loss_rate: 1.5,
            ..ChaosConfig::quiescent(0)
        };
        assert!(c.validate().is_err());
        let c = ChaosConfig {
            corrupt_rate: f64::NAN,
            ..ChaosConfig::quiescent(0)
        };
        assert!(c.validate().is_err());
        let c = ChaosConfig {
            max_attempts: 0,
            ..ChaosConfig::quiescent(0)
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let c = ChaosConfig::quiescent(0);
        let b1 = c.backoff(1).as_secs();
        assert_eq!(c.backoff(2).as_secs(), b1 * 2);
        assert_eq!(c.backoff(3).as_secs(), b1 * 4);
        // Huge attempt numbers must not overflow.
        assert!(c.backoff(u32::MAX).as_secs() >= c.backoff(17).as_secs());
    }
}
