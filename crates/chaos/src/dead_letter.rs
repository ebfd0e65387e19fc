//! The dead-letter queue: bounded, sim-time exponential-backoff retry.
//!
//! Every message the pipeline cannot process right now — a parse
//! failure, a transient store failure, a completion that arrived before
//! its start — is deferred here with a retry scheduled `retry_base ·
//! 2^(attempt-1)` later. A message that exhausts its attempt budget is
//! quarantined with the reason for its final failure; quarantined
//! messages feed the reconciler and the data-quality report instead of
//! silently disappearing.

use crate::config::ChaosConfig;
use dcnr_sim::SimTime;
use dcnr_telemetry::{CounterFamily, StageTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;

/// Why a message ended up in quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The bytes never parsed as a vendor e-mail.
    ParseFailed,
    /// The ticket store kept failing transiently.
    StoreFailed,
    /// Parsed fine but never matched the ticket state machine (e.g. a
    /// completion whose start was lost).
    Unmatched,
    /// Parsed fine but failed validation: dated outside the study
    /// window, or implying an impossibly long outage. Deterministic,
    /// so never retried.
    Implausible,
}

impl QuarantineReason {
    /// Every reason, in declaration order, so `r as usize` indexes it.
    pub const ALL: [QuarantineReason; 4] = [
        QuarantineReason::ParseFailed,
        QuarantineReason::StoreFailed,
        QuarantineReason::Unmatched,
        QuarantineReason::Implausible,
    ];

    /// Stable lowercase label, used by telemetry counters.
    pub fn label(self) -> &'static str {
        match self {
            QuarantineReason::ParseFailed => "parse",
            QuarantineReason::StoreFailed => "store",
            QuarantineReason::Unmatched => "unmatched",
            QuarantineReason::Implausible => "implausible",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    retry_at: SimTime,
    seq: u64,
    attempts: u32,
    item: T,
}

// Ordered by (retry time, insertion sequence); `seq` is unique, so this
// is a total order regardless of the payload type.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.retry_at == other.retry_at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.retry_at
            .cmp(&other.retry_at)
            .then(self.seq.cmp(&other.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A retry scheduler over simulated time.
///
/// Its telemetry is a stage batch bound to the collector installed when
/// the queue is created: each scheduled retry is tallied per reason
/// and traced locally, and both reach the collector when the queue
/// drops (see [`dcnr_telemetry::StageTrace`]).
#[derive(Debug)]
pub struct DeadLetterQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    quarantined: Vec<(T, QuarantineReason)>,
    /// Total retries ever scheduled.
    pub retries_scheduled: u64,
    retries: CounterFamily<4>,
    trace: StageTrace,
}

impl<T> Default for DeadLetterQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeadLetterQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            quarantined: Vec::new(),
            retries_scheduled: 0,
            retries: CounterFamily::new(
                "dcnr_chaos_dlq_retries_total",
                "reason",
                QuarantineReason::ALL.map(QuarantineReason::label),
            ),
            trace: dcnr_telemetry::stage_trace(),
        }
    }

    /// Defers `item` after its `attempts`-th failure at `now`. Returns
    /// `true` if a retry was scheduled, `false` if the attempt budget
    /// is exhausted and the item was quarantined under `reason`.
    pub fn defer(
        &mut self,
        cfg: &ChaosConfig,
        now: SimTime,
        attempts: u32,
        item: T,
        reason: QuarantineReason,
    ) -> bool {
        if attempts >= cfg.max_attempts {
            self.quarantined.push((item, reason));
            return false;
        }
        let retry_at = now + cfg.backoff(attempts);
        let seq = self.seq;
        self.seq += 1;
        self.retries_scheduled += 1;
        self.retries.inc(reason as usize);
        self.trace.event(
            retry_at.as_secs(),
            "dead_letter_retry",
            [u64::from(attempts), reason as u64, 0, 0],
            write_retry,
        );
        self.heap.push(Reverse(Entry {
            retry_at,
            seq,
            attempts,
            item,
        }));
        true
    }

    /// Quarantines `item` immediately, bypassing retry — for
    /// deterministic failures where retrying cannot help.
    pub fn quarantine(&mut self, item: T, reason: QuarantineReason) {
        self.quarantined.push((item, reason));
    }

    /// The time of the earliest scheduled retry.
    pub fn next_retry_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.retry_at)
    }

    /// Pops the earliest retry: `(retry time, prior attempts, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u32, T)> {
        self.heap
            .pop()
            .map(|Reverse(e)| (e.retry_at, e.attempts, e.item))
    }

    /// Number of retries currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Messages that exhausted their retry budget, in quarantine order.
    pub fn quarantined(&self) -> &[(T, QuarantineReason)] {
        &self.quarantined
    }

    /// Consumes the queue, returning the quarantined messages.
    pub fn into_quarantined(self) -> Vec<(T, QuarantineReason)> {
        self.quarantined
    }
}

/// Writes a `dead_letter_retry` detail: `[attempts, reason]`.
fn write_retry([attempts, reason, ..]: [u64; 4], d: &mut String) {
    let reason = QuarantineReason::ALL[reason as usize].label();
    let _ = write!(d, "attempt {attempts} deferred ({reason})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChaosConfig {
        ChaosConfig::quiescent(0)
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let mut q = DeadLetterQueue::new();
        let t0 = SimTime::from_secs(1_000);
        assert!(q.defer(&cfg(), t0, 1, "a", QuarantineReason::ParseFailed));
        let (r1, attempts, _) = q.pop().unwrap();
        assert_eq!(attempts, 1);
        assert_eq!(r1.as_secs() - t0.as_secs(), cfg().backoff(1).as_secs());
        assert!(q.defer(&cfg(), r1, 2, "a", QuarantineReason::ParseFailed));
        let (r2, _, _) = q.pop().unwrap();
        assert_eq!(r2.as_secs() - r1.as_secs(), 2 * cfg().backoff(1).as_secs());
    }

    #[test]
    fn exhaustion_quarantines() {
        let mut q = DeadLetterQueue::new();
        let t0 = SimTime::from_secs(0);
        let budget = cfg().max_attempts;
        assert!(!q.defer(&cfg(), t0, budget, "dead", QuarantineReason::Unmatched));
        assert_eq!(q.pending(), 0);
        assert_eq!(q.quarantined(), &[("dead", QuarantineReason::Unmatched)]);
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = DeadLetterQueue::new();
        let t0 = SimTime::from_secs(0);
        // Same attempt count => same retry time => FIFO by insertion.
        q.defer(&cfg(), t0, 2, "first", QuarantineReason::ParseFailed);
        q.defer(&cfg(), t0, 2, "second", QuarantineReason::ParseFailed);
        // Earlier retry time wins regardless of insertion order.
        q.defer(&cfg(), t0, 1, "zeroth", QuarantineReason::ParseFailed);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, i)| i)).collect();
        assert_eq!(order, vec!["zeroth", "first", "second"]);
    }

    #[test]
    fn deferrals_leave_the_telemetry_of_recording_each_event_in_turn() {
        // Twice a trace's retention, so the batch drops from the middle
        // as the shared trace would; the last attempt count exhausts the
        // budget and records nothing.
        let cfg = cfg();
        let deferrals: Vec<(SimTime, u32, QuarantineReason)> = (0..1_100u64)
            .map(|i| {
                (
                    SimTime::from_secs(i * 97 % 5_000),
                    1 + (i % u64::from(cfg.max_attempts)) as u32,
                    QuarantineReason::ALL[(i % 3) as usize],
                )
            })
            .collect();
        let batched = dcnr_telemetry::Telemetry::new_handle();
        {
            let _guard = dcnr_telemetry::installed(batched.clone());
            let mut q = DeadLetterQueue::new();
            for &(now, attempts, reason) in &deferrals {
                q.defer(&cfg, now, attempts, (), reason);
            }
        }
        let direct = dcnr_telemetry::Telemetry::new_handle();
        {
            let _guard = dcnr_telemetry::installed(direct.clone());
            for &(now, attempts, reason) in deferrals.iter().filter(|d| d.1 < cfg.max_attempts) {
                dcnr_telemetry::counter_add(
                    "dcnr_chaos_dlq_retries_total",
                    &[("reason", reason.label())],
                    1,
                );
                dcnr_telemetry::trace_event(
                    (now + cfg.backoff(attempts)).as_secs(),
                    "dead_letter_retry",
                    [u64::from(attempts), reason as u64, 0, 0],
                    write_retry,
                );
            }
        }
        let (batched_metrics, batched_trace) = batched.snapshots();
        let (direct_metrics, direct_trace) = direct.snapshots();
        assert!(batched_trace.dropped() > 0);
        assert_eq!(batched_trace, direct_trace);
        assert_eq!(batched_metrics, direct_metrics);
        assert_eq!(
            batched_metrics.counter_value("dcnr_chaos_dlq_retries_total", &[("reason", "parse")]),
            deferrals
                .iter()
                .filter(|d| d.1 < cfg.max_attempts && d.2 == QuarantineReason::ParseFailed)
                .count() as u64
        );
    }

    #[test]
    fn retries_are_traced_with_attempt_and_reason() {
        let t = dcnr_telemetry::Telemetry::new_handle();
        {
            let _guard = dcnr_telemetry::installed(t.clone());
            let mut q = DeadLetterQueue::new();
            for (attempts, reason) in (1..).zip(QuarantineReason::ALL) {
                q.defer(&cfg(), SimTime::from_secs(0), attempts, (), reason);
            }
        }
        let details: Vec<String> = t
            .trace
            .snapshot()
            .head
            .into_iter()
            .map(|e| e.detail)
            .collect();
        assert_eq!(
            details,
            [
                "attempt 1 deferred (parse)",
                "attempt 2 deferred (store)",
                "attempt 3 deferred (unmatched)",
                "attempt 4 deferred (implausible)",
            ]
        );
    }
}
