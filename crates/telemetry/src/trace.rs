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
//! this crate deliberately knows nothing about `SimTime`. An event's
//! detail is recorded unformatted, as a [`TracePayload`] plus the
//! [`DetailWriter`] that formats it, and only the retained events are
//! ever formatted, when a snapshot is taken.
//!
//! A stage that records many events fills a batch instead, retained
//! exactly as the buffer would retain them, and appends it to the
//! buffer under one lock (see [`crate::StageTrace`]); the retained head,
//! tail and count are those of recording each event in turn.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default per-half retention (first 256 + last 256 events).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// The unformatted detail of a trace event: a few plain words that the
/// event's [`DetailWriter`] turns into text.
pub type TracePayload = [u64; 4];

/// Writes the detail text a [`TracePayload`] encodes. A plain `fn`, so
/// a retained slot holds it without allocating or borrowing anything.
pub type DetailWriter = fn(TracePayload, &mut String);

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

/// A retained event before formatting.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at_secs: u64,
    kind: &'static str,
    payload: TracePayload,
    write: DetailWriter,
}

impl Slot {
    fn event(&self) -> TraceEvent {
        let mut detail = String::new();
        (self.write)(self.payload, &mut detail);
        TraceEvent {
            at_secs: self.at_secs,
            kind: self.kind,
            detail,
        }
    }
}

/// The retained events of one stream: the first `capacity`, a ring of
/// the last `capacity` after those, and how many were seen in all. A
/// [`TraceBuffer`] keeps one behind its lock; a stage batch fills one
/// without a lock and appends it to the buffer in one step.
#[derive(Debug)]
pub(crate) struct Retained {
    head: Vec<Slot>,
    /// A ring of the latest events after the head; once full, `oldest`
    /// is the slot the next event overwrites.
    tail: Vec<Slot>,
    oldest: usize,
    seen: u64,
    capacity: usize,
}

impl Retained {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            head: Vec::new(),
            tail: Vec::new(),
            oldest: 0,
            seen: 0,
            capacity,
        }
    }

    /// Records one event, as [`TraceBuffer::record`] does.
    pub(crate) fn record(
        &mut self,
        at_secs: u64,
        kind: &'static str,
        payload: TracePayload,
        write: DetailWriter,
    ) {
        self.seen += 1;
        self.retain(Slot {
            at_secs,
            kind,
            payload,
            write,
        });
    }

    /// Keeps `slot` in the head while it has room, then in the tail
    /// ring, overwriting the oldest tail event once the ring is full.
    fn retain(&mut self, slot: Slot) {
        if self.head.len() < self.capacity {
            self.head.push(slot);
        } else if self.tail.len() < self.capacity {
            self.tail.push(slot);
        } else if let Some(evicted) = self.tail.get_mut(self.oldest) {
            *evicted = slot;
            self.oldest += 1;
            if self.oldest == self.capacity {
                self.oldest = 0;
            }
        }
    }

    /// The tail ring in emission order.
    fn tail_in_order(&self) -> impl Iterator<Item = &Slot> {
        let (newer, older) = self.tail.split_at(self.oldest);
        older.iter().chain(newer)
    }

    /// Appends `later`, a stream retained at the same capacity, leaving
    /// the same head, tail and `seen` as recording its events here one
    /// at a time. Only its first `capacity` events can still reach the
    /// head, and only its last `capacity` can survive in the tail, and
    /// `later` retained both: replaying them in order leaves its tail
    /// as the newest events of the ring. The events `later` dropped
    /// from its middle matter only as a count.
    fn append(&mut self, later: &Retained) {
        debug_assert_eq!(
            self.capacity, later.capacity,
            "appended at another capacity"
        );
        for slot in later.head.iter().chain(later.tail_in_order()) {
            self.retain(*slot);
        }
        self.seen += later.seen;
    }
}

/// The bounded event buffer. Thread-safe: each sweep replica owns the
/// buffer of its own collector, while the server's worker threads all
/// record into one.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    inner: Mutex<Retained>,
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
            capacity,
            inner: Mutex::new(Retained::with_capacity(capacity)),
        }
    }

    /// Records one event whose detail `write` formats from `payload`.
    /// Nothing is formatted here: the slot keeps the payload and the
    /// writer, and [`snapshot`](Self::snapshot) runs the writer of each
    /// retained event. Once the tail ring is full, each event overwrites
    /// the slot of the event it evicts.
    pub fn record(
        &self,
        at_secs: u64,
        kind: &'static str,
        payload: TracePayload,
        write: DetailWriter,
    ) {
        self.lock().record(at_secs, kind, payload, write);
    }

    /// An empty batch retaining events as this buffer would, to be
    /// [`append`](Self::append)ed here under one lock.
    pub(crate) fn batch(&self) -> Retained {
        Retained::with_capacity(self.capacity)
    }

    /// Appends `batch`'s events after every event recorded so far, with
    /// the same result as recording each of them here in turn.
    pub(crate) fn append(&self, batch: &Retained) {
        self.lock().append(batch);
    }

    /// Freezes the current contents, formatting the detail of each
    /// retained event (and of no other). The writers run after the
    /// buffer's lock is released.
    pub fn snapshot(&self) -> TraceSnapshot {
        let (head, tail, seen) = {
            let inner = self.lock();
            let tail: Vec<Slot> = inner.tail_in_order().copied().collect();
            (inner.head.clone(), tail, inner.seen)
        };
        TraceSnapshot {
            head: head.iter().map(Slot::event).collect(),
            tail: tail.iter().map(Slot::event).collect(),
            seen,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Retained> {
        // Every update leaves the retained slots and counts valid, so a
        // panic elsewhere while the lock was held loses nothing.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn write_index([i, ..]: TracePayload, d: &mut String) {
        let _ = write!(d, "e{i}");
    }

    fn record(b: &TraceBuffer, i: u64) {
        b.record(i, "test", [i, 0, 0, 0], write_index);
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
        fn unreachable(_: TracePayload, _: &mut String) {
            panic!("nothing is retained, so nothing is written")
        }
        let b = TraceBuffer::with_capacity(0);
        for i in 0..5 {
            b.record(i, "test", [i, 0, 0, 0], unreachable);
        }
        let s = b.snapshot();
        assert!(s.head.is_empty() && s.tail.is_empty());
        assert_eq!((s.seen, s.dropped()), (5, 5));
    }

    #[test]
    fn details_are_formatted_only_at_snapshot_time() {
        static WRITES: AtomicUsize = AtomicUsize::new(0);
        fn counted([i, ..]: TracePayload, d: &mut String) {
            WRITES.fetch_add(1, Ordering::Relaxed);
            let _ = write!(d, "e{i}");
        }
        let b = TraceBuffer::with_capacity(4);
        for i in 0..10_000 {
            b.record(i, "test", [i, 0, 0, 0], counted);
        }
        assert_eq!(
            WRITES.load(Ordering::Relaxed),
            0,
            "recording formats nothing"
        );
        let s = b.snapshot();
        assert_eq!(
            WRITES.load(Ordering::Relaxed),
            8,
            "one write per retained event"
        );
        let details: Vec<&str> = s
            .head
            .iter()
            .chain(&s.tail)
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(
            details,
            ["e0", "e1", "e2", "e3", "e9996", "e9997", "e9998", "e9999"]
        );
    }
}
