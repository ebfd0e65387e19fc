//! Property tests for stage batches: a trace that receives some events
//! through [`StageTrace`] batches and the rest through direct records
//! must end up exactly as if every event had been recorded directly, in
//! order, at every capacity.

use dcnr_telemetry::trace::{TraceBuffer, TracePayload, TraceSnapshot};
use dcnr_telemetry::{installed, stage_trace, trace_event, Telemetry};
use proptest::prelude::*;
use std::fmt::Write;
use std::sync::Arc;

fn write_index([i, ..]: TracePayload, d: &mut String) {
    let _ = write!(d, "e{i}");
}

/// Events `0..n`, recorded one at a time into a buffer of `capacity`.
fn recorded_directly(capacity: usize, n: u64) -> TraceSnapshot {
    let buffer = TraceBuffer::with_capacity(capacity);
    for i in 0..n {
        buffer.record(i, "e", [i, 0, 0, 0], write_index);
    }
    buffer.snapshot()
}

proptest! {
    #[test]
    fn batches_leave_the_trace_of_recording_each_event_in_turn(
        capacity in 0usize..=6,
        n in 0u64..=40,
        runs in proptest::collection::vec((1u64..=12, any::<bool>()), 0..=40),
    ) {
        // `runs` splits events `0..n` into consecutive runs; each run
        // goes through one stage batch or straight to the trace.
        let t = Arc::new(Telemetry {
            trace: TraceBuffer::with_capacity(capacity),
            ..Telemetry::default()
        });
        let _guard = installed(t.clone());
        let mut next = 0;
        for (len, batched) in runs.into_iter().chain([(n, false)]) {
            let end = (next + len).min(n);
            if batched {
                let mut stage = stage_trace();
                for i in next..end {
                    stage.event(i, "e", [i, 0, 0, 0], write_index);
                }
            } else {
                for i in next..end {
                    trace_event(i, "e", [i, 0, 0, 0], write_index);
                }
            }
            next = end;
        }
        prop_assert_eq!(t.trace.snapshot(), recorded_directly(capacity, n));
    }
}
