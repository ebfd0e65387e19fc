//! A bounded sim-time event trace with deterministic head/tail
//! sampling.
//!
//! Long runs emit far more events than anyone wants to keep; the buffer
//! retains the **first** `capacity` events verbatim plus a ring of the
//! **last** `capacity`, and counts the middle it dropped. Given the
//! same event stream the retained set is identical — no reservoir
//! sampling, no randomness — so traces from a fixed seed are stable
//! run-to-run.
//!
//! Events carry sim time as plain `u64` seconds since the study epoch;
//! this crate deliberately knows nothing about `SimTime`.

use std::sync::{Mutex, PoisonError};

/// Default per-half retention (first 256 + last 256 events).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time, seconds since the study epoch (2011-01-01T00:00:00Z).
    pub at_secs: u64,
    /// Event kind, e.g. `device_failure`, `repair_dispatch`,
    /// `sev_open`, `sev_close`, `fiber_cut`, `dead_letter_retry`.
    pub kind: &'static str,
    /// Free-form detail (device name, root cause, reason, …).
    pub detail: String,
}

impl TraceEvent {
    fn written(at_secs: u64, kind: &'static str, detail: impl FnOnce(&mut String)) -> Self {
        let mut text = String::new();
        detail(&mut text);
        Self {
            at_secs,
            kind,
            detail: text,
        }
    }
}

#[derive(Debug)]
struct TraceInner {
    head: Vec<TraceEvent>,
    /// A ring of the latest events after the head; once full, `oldest`
    /// is the slot the next event overwrites.
    tail: Vec<TraceEvent>,
    oldest: usize,
    seen: u64,
    capacity: usize,
}

/// The bounded event buffer. Thread-safe; in practice each replica
/// thread owns its own buffer via its installed collector.
#[derive(Debug)]
pub struct TraceBuffer {
    inner: Mutex<TraceInner>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// A buffer retaining the first `capacity` and last `capacity`
    /// events. At capacity 0 it only counts them.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(TraceInner {
                head: Vec::new(),
                tail: Vec::new(),
                oldest: 0,
                seen: 0,
                capacity,
            }),
        }
    }

    /// Records one event whose detail text `detail` writes into the
    /// buffer it is given. Once the tail ring is full, each event reuses
    /// the slot, and the detail buffer, of the event it evicts, so it
    /// allocates only when its detail outgrows that buffer. At capacity
    /// 0 `detail` never runs. It runs under the buffer's lock, so it
    /// must not record events.
    pub fn record(&self, at_secs: u64, kind: &'static str, detail: impl FnOnce(&mut String)) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        inner.seen += 1;
        if inner.head.len() < inner.capacity {
            inner.head.push(TraceEvent::written(at_secs, kind, detail));
        } else if inner.tail.len() < inner.capacity {
            inner.tail.push(TraceEvent::written(at_secs, kind, detail));
        } else if let Some(slot) = inner.tail.get_mut(inner.oldest) {
            slot.at_secs = at_secs;
            slot.kind = kind;
            slot.detail.clear();
            detail(&mut slot.detail);
            inner.oldest = (inner.oldest + 1) % inner.capacity;
        }
    }

    /// Freezes the current contents.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (newer, older) = inner.tail.split_at(inner.oldest);
        TraceSnapshot {
            head: inner.head.clone(),
            tail: older.iter().chain(newer).cloned().collect(),
            seen: inner.seen,
        }
    }
}

/// A frozen trace: the retained head and tail plus the total event
/// count (events not retained were dropped from the middle).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The first events, in emission order.
    pub head: Vec<TraceEvent>,
    /// The last events, in emission order.
    pub tail: Vec<TraceEvent>,
    /// Total events emitted (retained + dropped).
    pub seen: u64,
}

impl TraceSnapshot {
    /// How many events were dropped from the middle.
    pub fn dropped(&self) -> u64 {
        self.seen - self.head.len() as u64 - self.tail.len() as u64
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Appends `other`'s retained events after this snapshot's, summing
    /// the seen counts. Concatenation (not re-sampling), so folding
    /// per-replica traces in a fixed order is deterministic.
    pub fn merge(&mut self, other: &TraceSnapshot) {
        self.head.extend(other.head.iter().cloned());
        self.tail.extend(other.tail.iter().cloned());
        self.seen += other.seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    fn record(b: &TraceBuffer, i: u64) {
        b.record(i, "test", |d| {
            let _ = write!(d, "e{i}");
        });
    }

    #[test]
    fn small_streams_are_kept_whole() {
        let b = TraceBuffer::with_capacity(4);
        for i in 0..3 {
            record(&b, i);
        }
        let s = b.snapshot();
        assert_eq!(s.head.len(), 3);
        assert!(s.tail.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn long_streams_keep_first_and_last() {
        let b = TraceBuffer::with_capacity(2);
        for i in 0..10 {
            record(&b, i);
        }
        let s = b.snapshot();
        let heads: Vec<u64> = s.head.iter().map(|e| e.at_secs).collect();
        let tails: Vec<u64> = s.tail.iter().map(|e| e.at_secs).collect();
        assert_eq!(heads, vec![0, 1]);
        assert_eq!(tails, vec![8, 9]);
        assert_eq!(s.seen, 10);
        assert_eq!(s.dropped(), 6);
    }

    #[test]
    fn sampling_is_deterministic() {
        let run = || {
            let b = TraceBuffer::with_capacity(3);
            for i in 0..50 {
                record(&b, i);
            }
            b.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_zero_counts_without_writing() {
        let b = TraceBuffer::with_capacity(0);
        for i in 0..5 {
            b.record(i, "test", |_| {
                panic!("nothing is retained, so nothing is written")
            });
        }
        let s = b.snapshot();
        assert!(s.head.is_empty() && s.tail.is_empty());
        assert_eq!((s.seen, s.dropped()), (5, 5));
    }
}
