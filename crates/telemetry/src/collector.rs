//! The per-thread collector: which [`Telemetry`] instance, if any, the
//! current thread records into.
//!
//! Instrumented code calls the free functions below unconditionally;
//! with no collector installed each call is a thread-local check and an
//! early return. A stage that observes each event it handles binds its
//! instruments once, when the stage call starts, to the collector
//! installed at that moment: a [`CounterFamily`] (or a [`counter`]
//! handle for a single series) and a [`StageTrace`]. They count and
//! record without touching the collector, and flush when they drop:
//! one registry add per counted series and one trace lock for the whole
//! stage, leaving the same counts and trace as per-event recording. A
//! `/metrics` scrape taken while a stage runs therefore sees that
//! stage's counts only once it has ended. A trace event is recorded as
//! a fixed-size payload and formatted only if it is still retained when
//! the trace is snapshotted (see [`TraceBuffer::record`]).
//! A caller that wants telemetry installs a handle — usually through
//! the RAII [`installed`] guard — runs the workload, and snapshots the
//! registry/trace afterwards. Sweep replicas each install a **fresh**
//! instance on their worker thread, so attribution is exact and merging
//! is an explicit, ordered post-join step.

use crate::metrics::{Counter, MetricsSnapshot, Registry, DURATION_BOUNDS_MICROS};
use crate::trace::{DetailWriter, Retained, TraceBuffer, TracePayload, TraceSnapshot};
use crate::PHASE_HISTOGRAM;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// One telemetry domain: a metrics registry plus an event trace.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The metrics registry.
    pub metrics: Registry,
    /// The bounded sim-time event trace.
    pub trace: TraceBuffer,
}

impl Telemetry {
    /// A fresh, empty instance behind a shareable handle.
    pub fn new_handle() -> TelemetryHandle {
        Arc::new(Telemetry::default())
    }

    /// Freezes both instruments at once.
    pub fn snapshots(&self) -> (MetricsSnapshot, TraceSnapshot) {
        (self.metrics.snapshot(), self.trace.snapshot())
    }
}

/// Shared handle to a [`Telemetry`] instance.
pub type TelemetryHandle = Arc<Telemetry>;

thread_local! {
    static CURRENT: RefCell<Option<TelemetryHandle>> = const { RefCell::new(None) };
}

/// Installs `handle` as the current thread's collector, returning the
/// previously installed one (if any). Prefer [`installed`].
pub fn install(handle: TelemetryHandle) -> Option<TelemetryHandle> {
    CURRENT.with(|c| c.borrow_mut().replace(handle))
}

/// Removes and returns the current thread's collector.
pub fn uninstall() -> Option<TelemetryHandle> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// The current thread's collector, if one is installed.
pub fn current() -> Option<TelemetryHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether a collector is installed on this thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// RAII scope: installs a handle on creation, restores the previous
/// collector (possibly none) on drop.
#[derive(Debug)]
pub struct InstallGuard {
    prior: Option<TelemetryHandle>,
    restored: bool,
}

/// Installs `handle` for the lifetime of the returned guard.
pub fn installed(handle: TelemetryHandle) -> InstallGuard {
    InstallGuard {
        prior: install(handle),
        restored: false,
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            let prior = self.prior.take();
            CURRENT.with(|c| *c.borrow_mut() = prior);
        }
    }
}

fn with<R>(f: impl FnOnce(&Telemetry) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| f(t)))
}

/// Adds `by` to the named counter. No-op without a collector.
pub fn counter_add(name: &str, labels: &[(&str, &str)], by: u64) {
    with(|t| t.metrics.counter(name, labels).add(by));
}

/// Resolves a shared counter handle, creating its series now, so a
/// stage can add its whole count once when it ends and still show the
/// series when that count is zero. `None` without a collector.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
    with(|t| t.metrics.counter(name, labels))
}

/// The counts of one metric family whose one label ranges over a fixed
/// set of values, kept by one stage call. A family is bound to the
/// collector installed when it is created — inert without one — and
/// tallies each value locally; when it drops, it adds each nonzero
/// tally to its series, creating exactly the series a registry lookup
/// per event would have created. Counting is a plain add, and the
/// registry sees one lookup per counted value per stage.
#[derive(Debug)]
pub struct CounterFamily<const N: usize> {
    collector: Option<TelemetryHandle>,
    name: &'static str,
    label: &'static str,
    values: [&'static str; N],
    counts: [u64; N],
}

impl<const N: usize> CounterFamily<N> {
    /// Binds the family `name{label=values[i]}` to the current thread's
    /// collector.
    pub fn new(name: &'static str, label: &'static str, values: [&'static str; N]) -> Self {
        Self {
            collector: current(),
            name,
            label,
            values,
            counts: [0; N],
        }
    }

    /// Whether a collector was installed when the family was created.
    pub fn active(&self) -> bool {
        self.collector.is_some()
    }

    /// Counts one for the series labeled `values[index]`.
    pub fn inc(&mut self, index: usize) {
        self.counts[index] += 1;
    }
}

impl<const N: usize> Drop for CounterFamily<N> {
    fn drop(&mut self) {
        let Some(t) = &self.collector else { return };
        for (value, &n) in self.values.iter().zip(&self.counts) {
            if n > 0 {
                t.metrics.counter(self.name, &[(self.label, value)]).add(n);
            }
        }
    }
}

/// The trace events of one stage call. It is bound to the collector
/// installed when it is created — inert without one — and keeps its
/// events without a lock, retained as that collector's trace would
/// retain them; when it drops, it appends them to that trace under one
/// lock, exactly as if each had been recorded there in turn. A stage's
/// events therefore reach the trace when the stage ends, before the
/// next stage records anything.
#[derive(Debug)]
pub struct StageTrace {
    bound: Option<(TelemetryHandle, Retained)>,
}

/// Starts a [`StageTrace`] bound to the current thread's collector.
pub fn stage_trace() -> StageTrace {
    StageTrace {
        bound: current().map(|t| {
            let batch = t.trace.batch();
            (t, batch)
        }),
    }
}

impl StageTrace {
    /// Whether a collector was installed when the batch was created.
    pub fn active(&self) -> bool {
        self.bound.is_some()
    }

    /// Records a sim-time event whose detail `write` formats from
    /// `payload`, as [`trace_event`] does.
    pub fn event(
        &mut self,
        at_secs: u64,
        kind: &'static str,
        payload: TracePayload,
        write: DetailWriter,
    ) {
        if let Some((_, batch)) = &mut self.bound {
            batch.record(at_secs, kind, payload, write);
        }
    }
}

impl Drop for StageTrace {
    fn drop(&mut self) {
        if let Some((t, batch)) = &self.bound {
            t.trace.append(batch);
        }
    }
}

/// Adds `by` (may be negative) to the named gauge. No-op without a
/// collector.
pub fn gauge_add(name: &str, labels: &[(&str, &str)], by: i64) {
    with(|t| t.metrics.gauge(name, labels).add(by));
}

/// Records a microsecond observation into the named duration
/// histogram. No-op without a collector.
pub fn observe_micros(name: &str, labels: &[(&str, &str)], micros: u64) {
    with(|t| {
        t.metrics
            .histogram(name, labels, &DURATION_BOUNDS_MICROS)
            .observe(micros)
    });
}

/// Records a sim-time trace event whose detail `write` formats from
/// `payload`. No-op without a collector; with one, `write` runs only
/// for events the trace still retains when it is snapshotted, so
/// instrumented hot loops pay no formatting.
pub fn trace_event(at_secs: u64, kind: &'static str, payload: TracePayload, write: DetailWriter) {
    with(|t| t.trace.record(at_secs, kind, payload, write));
}

/// A wall-clock phase timer. On drop it records the elapsed time (in
/// microseconds) into the [`PHASE_HISTOGRAM`] series labeled
/// `phase=<name>`. Inert — it does not even read the clock — when no
/// collector was installed at creation.
#[derive(Debug)]
pub struct Span {
    phase: String,
    start: Option<Instant>,
}

/// Starts timing `phase`. Wall-clock readings stay inside telemetry
/// output and never reach artifact bytes, so reports remain
/// byte-identical with telemetry on or off.
pub fn span(phase: &str) -> Span {
    if active() {
        Span {
            phase: phase.to_string(),
            start: Some(Instant::now()),
        }
    } else {
        Span {
            phase: String::new(),
            start: None,
        }
    }
}

impl Span {
    /// Stops the timer and records the duration now, instead of at
    /// scope end.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            observe_micros(PHASE_HISTOGRAM, &[("phase", &self.phase)], micros);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Key;

    #[test]
    fn free_functions_are_noops_without_a_collector() {
        assert!(!active());
        counter_add("nope_total", &[], 3);
        gauge_add("nope", &[], -1);
        observe_micros("nope_micros", &[], 5);
        trace_event(0, "test", [0; 4], |_, _| {
            panic!("detail writer must not run when inactive")
        });
        assert!(current().is_none());
    }

    #[test]
    fn installed_guard_scopes_collection_and_restores() {
        let t = Telemetry::new_handle();
        {
            let _guard = installed(t.clone());
            assert!(active());
            counter_add("seen_total", &[], 2);
            trace_event(7, "test", [0; 4], |_, d| d.push('x'));
            // Nested scope: inner handle wins, outer restored after.
            let inner = Telemetry::new_handle();
            {
                let _inner_guard = installed(inner.clone());
                counter_add("seen_total", &[], 100);
            }
            counter_add("seen_total", &[], 1);
            assert_eq!(
                inner.metrics.snapshot().counter_value("seen_total", &[]),
                100
            );
        }
        assert!(!active());
        let (metrics, trace) = t.snapshots();
        assert_eq!(metrics.counter_value("seen_total", &[]), 3);
        assert_eq!(trace.seen, 1);
        assert_eq!(
            (trace.head[0].at_secs, trace.head[0].detail.as_str()),
            (7, "x")
        );
    }

    #[test]
    fn counter_families_bind_at_creation_and_resolve_on_first_bump() {
        let mut idle = CounterFamily::new("fam_total", "kind", ["a"]);
        idle.inc(0);
        assert!(!idle.active());
        let t = Telemetry::new_handle();
        let mut family = {
            let _guard = installed(t.clone());
            CounterFamily::new("fam_total", "kind", ["a", "b", "c"])
        };
        // Bound at creation: bumps land in `t` after its guard dropped.
        family.inc(2);
        family.inc(2);
        family.inc(0);
        drop(family);
        let snap = t.metrics.snapshot();
        assert_eq!(snap.counters.len(), 2, "`b` never counted: no series");
        assert_eq!(snap.counter_value("fam_total", &[("kind", "c")]), 2);
        assert_eq!(snap.counter_value("fam_total", &[("kind", "a")]), 1);
    }

    #[test]
    fn counter_families_flush_on_drop_even_when_the_stage_panics() {
        let t = Telemetry::new_handle();
        let _guard = installed(t.clone());
        let mut family = CounterFamily::new("fam_total", "kind", ["a", "b"]);
        family.inc(1);
        family.inc(1);
        assert!(
            t.metrics.snapshot().counters.is_empty(),
            "counts stay local while the stage runs"
        );
        drop(family);
        let snap = t.metrics.snapshot();
        assert_eq!(snap.counter_value("fam_total", &[("kind", "b")]), 2);
        assert_eq!(snap.counters.len(), 1, "`a` never counted: no series");

        let stage = std::panic::catch_unwind(|| {
            let mut family = CounterFamily::new("fam_total", "kind", ["a", "b"]);
            family.inc(0);
            panic!("the stage fails after counting");
        });
        assert!(stage.is_err());
        let snap = t.metrics.snapshot();
        assert_eq!(snap.counter_value("fam_total", &[("kind", "a")]), 1);
        assert_eq!(snap.counter_value("fam_total", &[("kind", "b")]), 2);
    }

    #[test]
    fn stage_traces_append_on_drop_to_the_collector_bound_at_creation() {
        let idle = stage_trace();
        assert!(!idle.active());
        let t = Telemetry::new_handle();
        let mut stage = {
            let _guard = installed(t.clone());
            stage_trace()
        };
        stage.event(1, "test", [0; 4], |_, d| d.push('a'));
        stage.event(2, "test", [0; 4], |_, d| d.push('b'));
        assert!(t.trace.snapshot().is_empty(), "nothing appended yet");
        drop(stage);
        let trace = t.trace.snapshot();
        let details: Vec<&str> = trace.head.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!((trace.seen, details), (2, vec!["a", "b"]));
    }

    #[test]
    fn spans_record_into_the_phase_histogram() {
        let t = Telemetry::new_handle();
        {
            let _guard = installed(t.clone());
            span("unit.test").finish();
            let _scoped = span("unit.test");
        }
        let snap = t.metrics.snapshot();
        let h = &snap.histograms[&Key::new(crate::PHASE_HISTOGRAM, &[("phase", "unit.test")])];
        assert_eq!(h.count, 2);
    }

    #[test]
    fn spans_are_inert_without_a_collector() {
        span("nobody.listens").finish();
        let t = Telemetry::new_handle();
        let _guard = installed(t.clone());
        assert!(t.metrics.snapshot().histograms.is_empty());
    }
}
