//! The metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, keyed by name + label set.
//!
//! Every stored value is an integer (`u64` counts, `i64` gauge sums,
//! microsecond durations), so [`MetricsSnapshot::merge`] is exact
//! integer addition — associative and commutative — and a multi-thread
//! sweep's merged totals are bit-identical to a serial run's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bucket upper bounds (microseconds, inclusive) used for all duration
/// histograms, spanning 100µs to 2 minutes; slower observations land in
/// the implicit overflow (`+Inf`) bucket.
pub const DURATION_BOUNDS_MICROS: [u64; 10] = [
    100,
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    30_000_000,
    120_000_000,
];

/// A metric series identity: metric name plus its sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric (family) name, e.g. `dcnr_faults_issues_total`.
    pub name: String,
    /// Label pairs, sorted by label name for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// Builds a key, canonicalizing the label order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing count. Cloning shares the cell, so a hot
/// path can resolve the handle once and bump it without re-locking the
/// registry.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `by`.
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed up/down value (queue depths, in-flight counts). Merged by
/// summation, so instrument it with deltas (`add`/`sub`), not absolute
/// `set`s.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `by` (may be negative).
    pub fn add(&self, by: i64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Subtracts `by`.
    pub fn sub(&self, by: i64) {
        self.0.fetch_sub(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound plus a final overflow (`+Inf`) bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (typically
/// microseconds). Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Self(Arc::new(HistogramCell {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let cell = &self.0;
        let idx = cell.bounds.partition_point(|&b| value > b);
        cell.counts[idx].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// The registry: one cell per key, lazily created on first touch.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Counter>>,
    gauges: Mutex<BTreeMap<Key, Gauge>>,
    histograms: Mutex<BTreeMap<Key, Histogram>>,
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    // A thread that panicked while holding a lock (a sweep replica or a
    // server worker, both caught by `catch_unwind`) left its
    // half-updated counters as integers, so the registry stays usable.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Resolves (creating if needed) the counter for `name` + `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        unpoison(self.counters.lock())
            .entry(Key::new(name, labels))
            .or_default()
            .clone()
    }

    /// Resolves (creating if needed) the gauge for `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        unpoison(self.gauges.lock())
            .entry(Key::new(name, labels))
            .or_default()
            .clone()
    }

    /// Resolves (creating if needed) the histogram for `name` +
    /// `labels`. An existing cell keeps its original bounds; `bounds`
    /// only applies on first creation.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        unpoison(self.histograms.lock())
            .entry(Key::new(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: unpoison(self.counters.lock())
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: unpoison(self.gauges.lock())
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: unpoison(self.histograms.lock())
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A frozen histogram: parallel `bounds`/`counts` (counts has one extra
/// overflow slot), plus the running `sum` and `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A frozen, mergeable copy of a [`Registry`].
///
/// `merge` is plain integer addition per series, so it is associative
/// and commutative: folding per-replica snapshots in any grouping or
/// order yields identical totals (the sweep still folds in replica
/// index order, for a canonical narrative).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: BTreeMap<Key, u64>,
    /// Gauge sums.
    pub gauges: BTreeMap<Key, i64>,
    /// Histogram states.
    pub histograms: BTreeMap<Key, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when no series exist at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds every series of `other` into `self`.
    ///
    /// # Panics
    /// If the same histogram key was created with different bucket
    /// bounds in the two snapshots — a programming error, since bounds
    /// are compile-time constants per metric name.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.wrapping_add(*v);
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = slot.wrapping_add(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(
                        mine.bounds, h.bounds,
                        "histogram {:?} merged with mismatched bounds",
                        k.name
                    );
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a = a.wrapping_add(*b);
                    }
                    mine.sum = mine.sum.wrapping_add(h.sum);
                    mine.count = mine.count.wrapping_add(h.count);
                }
            }
        }
    }

    /// Counter value for `name` + `labels`, or 0 when absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&Key::new(name, labels))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::default();
        let c = r.counter("hits_total", &[("kind", "a")]);
        c.inc();
        c.add(4);
        // Same key resolves the same cell.
        r.counter("hits_total", &[("kind", "a")]).inc();
        r.counter("hits_total", &[("kind", "b")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("hits_total", &[("kind", "a")]), 6);
        assert_eq!(snap.counter_value("hits_total", &[("kind", "b")]), 1);
        assert_eq!(snap.counter_value("hits_total", &[("kind", "c")]), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::default();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauges_go_up_and_down() {
        let r = Registry::default();
        let g = r.gauge("depth", &[]);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.add(-4);
        assert_eq!(r.snapshot().gauges[&Key::new("depth", &[])], -1);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let r = Registry::default();
        let h = r.histogram("lat", &[], &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        let snap = r.snapshot().histograms[&Key::new("lat", &[])].clone();
        assert_eq!(snap.counts, vec![2, 2, 2]); // ≤10, ≤100, overflow
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 5_222);
        assert_eq!(snap.mean(), Some(5_222.0 / 6.0));
    }

    #[test]
    fn merge_adds_series_pointwise() {
        let a = {
            let r = Registry::default();
            r.counter("c", &[]).add(3);
            r.histogram("h", &[], &[10]).observe(4);
            r.snapshot()
        };
        let b = {
            let r = Registry::default();
            r.counter("c", &[]).add(5);
            r.counter("only_b", &[]).inc();
            r.histogram("h", &[], &[10]).observe(40);
            r.snapshot()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter_value("c", &[]), 8);
        assert_eq!(m.counter_value("only_b", &[]), 1);
        let h = &m.histograms[&Key::new("h", &[])];
        assert_eq!(h.counts, vec![1, 1]);
        assert_eq!((h.sum, h.count), (44, 2));
        // Commutes.
        let mut m2 = b;
        m2.merge(&a);
        assert_eq!(m, m2);
    }
}
