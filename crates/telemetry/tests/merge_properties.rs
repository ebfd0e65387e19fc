//! Property tests for snapshot merging: the algebra the sweep's
//! jobs-independence rests on. Merge must be associative and
//! order-independent, and sharding one operation stream across k
//! registries ("--jobs k") then merging must equal applying it to one
//! registry ("--jobs 1").

use dcnr_telemetry::metrics::{MetricsSnapshot, Registry};
use dcnr_telemetry::trace::{TraceBuffer, TraceEvent, TraceSnapshot};
use proptest::prelude::*;
use std::fmt::Write;

const NAMES: [&str; 3] = ["dcnr_a_total", "dcnr_b_total", "dcnr_c_total"];
const LABELS: [&str; 3] = ["x", "y", "z"];
const BOUNDS: [u64; 3] = [10, 100, 1000];

/// One abstract instrumentation event, applied identically no matter
/// which registry it lands on.
#[derive(Debug, Clone, Copy)]
struct Op {
    name: usize,
    label: usize,
    value: u64,
    kind: u8, // 0: counter, 1: gauge, 2: histogram
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0usize..NAMES.len(),
        0usize..LABELS.len(),
        0u64..10_000,
        0u8..3,
    )
        .prop_map(|(name, label, value, kind)| Op {
            name,
            label,
            value,
            kind,
        })
}

fn apply(registry: &Registry, op: Op) {
    let name = NAMES[op.name];
    let labels = [("k", LABELS[op.label])];
    match op.kind {
        0 => registry.counter(name, &labels).add(op.value),
        1 => registry.gauge(name, &labels).add(op.value as i64 - 5_000),
        _ => registry.histogram(name, &labels, &BOUNDS).observe(op.value),
    }
}

fn snapshot_of(ops: &[Op]) -> MetricsSnapshot {
    let r = Registry::default();
    for &op in ops {
        apply(&r, op);
    }
    r.snapshot()
}

fn merged(parts: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
    let mut acc = MetricsSnapshot::default();
    for part in parts {
        acc.merge(&part);
    }
    acc
}

proptest! {
    #[test]
    fn metrics_merge_is_associative(
        a in proptest::collection::vec(op_strategy(), 0..40),
        b in proptest::collection::vec(op_strategy(), 0..40),
        c in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn metrics_merge_is_order_independent(
        a in proptest::collection::vec(op_strategy(), 0..40),
        b in proptest::collection::vec(op_strategy(), 0..40),
        c in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let abc = merged([sa.clone(), sb.clone(), sc.clone()]);
        let cba = merged([sc, sb, sa]);
        prop_assert_eq!(abc, cba);
    }

    #[test]
    fn sharded_registries_merge_to_the_serial_totals(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        jobs in 1usize..6,
    ) {
        // "--jobs 1": every op on one registry.
        let serial = snapshot_of(&ops);
        // "--jobs N": ops sharded round-robin across N registries,
        // snapshots merged afterwards.
        let shards: Vec<Registry> = (0..jobs).map(|_| Registry::default()).collect();
        for (i, &op) in ops.iter().enumerate() {
            apply(&shards[i % jobs], op);
        }
        let parallel = merged(shards.iter().map(|r| r.snapshot()));
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn histogram_merge_preserves_total_mass(
        a in proptest::collection::vec(0u64..5_000, 0..60),
        b in proptest::collection::vec(0u64..5_000, 0..60),
    ) {
        let snap = |vals: &[u64]| {
            let r = Registry::default();
            for &v in vals {
                r.histogram("dcnr_h_micros", &[], &BOUNDS).observe(v);
            }
            r.snapshot()
        };
        let mut m = snap(&a);
        m.merge(&snap(&b));
        if a.is_empty() && b.is_empty() {
            prop_assert!(m.histograms.is_empty());
        } else {
            let h = m.histograms.values().next().unwrap();
            prop_assert_eq!(h.count, (a.len() + b.len()) as u64);
            prop_assert_eq!(h.sum, a.iter().sum::<u64>() + b.iter().sum::<u64>());
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        }
    }

    #[test]
    fn trace_merge_concatenates_and_sums_seen(
        a in proptest::collection::vec(0u64..1_000_000, 0..30),
        b in proptest::collection::vec(0u64..1_000_000, 0..30),
        capacity in 0usize..8,
    ) {
        let snap = |times: &[u64]| -> TraceSnapshot {
            let buf = TraceBuffer::with_capacity(capacity);
            for &t in times {
                buf.record(t, "p", |d| {
                    let _ = write!(d, "t{t}");
                });
            }
            buf.snapshot()
        };
        let events = |times: &[u64]| -> Vec<TraceEvent> {
            times
                .iter()
                .map(|&t| TraceEvent { at_secs: t, kind: "p", detail: format!("t{t}") })
                .collect()
        };
        let (sa, sb) = (snap(&a), snap(&b));
        // Each buffer keeps the first `capacity` events verbatim and the
        // last `capacity` of the rest, in emission order.
        for (times, s) in [(&a, &sa), (&b, &sb)] {
            let (first, rest) = times.split_at(capacity.min(times.len()));
            let last = &rest[rest.len().saturating_sub(capacity)..];
            prop_assert_eq!(&s.head, &events(first));
            prop_assert_eq!(&s.tail, &events(last));
        }
        let mut m = sa.clone();
        m.merge(&sb);
        prop_assert_eq!(m.seen, (a.len() + b.len()) as u64);
        prop_assert_eq!(m.head.len(), sa.head.len() + sb.head.len());
        prop_assert_eq!(m.tail.len(), sa.tail.len() + sb.tail.len());
        prop_assert_eq!(m.dropped(), sa.dropped() + sb.dropped());
        // Fixed fold order ⇒ deterministic bytes: merging again the
        // same way gives the identical snapshot.
        let mut again = sa.clone();
        again.merge(&sb);
        prop_assert_eq!(m, again);
    }
}
