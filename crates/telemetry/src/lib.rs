//! Deterministic observability for the dcnr reproduction.
//!
//! Three instruments, one invariant:
//!
//! * a thread-safe **metrics registry** ([`metrics::Registry`]) of atomic
//!   counters, gauges, and fixed-bucket histograms, keyed by name +
//!   label set, snapshottable and exactly mergeable across sweep-replica
//!   threads;
//! * a bounded **sim-time event trace** ([`trace::TraceBuffer`]) with
//!   deterministic head/tail sampling of structured events (device
//!   failure, repair dispatch, SEV open/close, fiber cut, dead-letter
//!   retry);
//! * a **span/phase timer** ([`span`]) recording wall-clock durations
//!   per pipeline stage into a well-known histogram, strictly outside
//!   artifact bytes.
//!
//! The invariant: **enabling telemetry must not perturb a single RNG
//! draw**. This crate enforces it structurally — it has no dependencies
//! at all (no `rand`, no sim types), every recording call is a no-op
//! unless a collector is installed on the current thread, and nothing
//! here ever feeds back into simulation state. Sim time crosses the
//! boundary as plain `u64` seconds since the study epoch.
//!
//! Instrumented code calls the free functions ([`counter_add`],
//! [`gauge_add`], [`trace_event`], [`span`], …). A stage that observes
//! every event it handles (each issue, repair, SEV or fiber cut) binds
//! its instruments once per stage call instead: a [`CounterFamily`]
//! tallies locally and a [`StageTrace`] batches its events, and both
//! reach the collector in one step when the stage ends, so a stage
//! takes the trace's lock once and makes one registry add per series,
//! however many events it saw. A caller that wants
//! telemetry installs a [`Telemetry`] collector on the thread first
//! (see [`installed`]) and takes snapshots when done. All metric
//! arithmetic is integer (`u64`/`i64`, durations in microseconds), so
//! merging per-replica snapshots is associative and order-independent:
//! a `--jobs N` sweep reports exactly the totals of `--jobs 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
pub mod logger;
pub mod metrics;
pub mod prometheus;
pub mod trace;

pub use collector::{
    active, counter, counter_add, current, gauge_add, install, installed, observe_micros, span,
    stage_trace, trace_event, uninstall, CounterFamily, InstallGuard, Span, StageTrace, Telemetry,
    TelemetryHandle,
};

/// Name of the well-known histogram every [`span`] records into, with a
/// `phase` label carrying the span's name. `dcnr profile` reads this
/// series back out of a snapshot to build its phase-breakdown table.
pub const PHASE_HISTOGRAM: &str = "dcnr_phase_duration_micros";
