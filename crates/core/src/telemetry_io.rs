//! Serialization of telemetry snapshots: the files behind `--metrics`
//! and `--trace`.
//!
//! Metrics are written either as Prometheus text exposition (the
//! default) or as JSON when the path ends in `.json`; traces are always
//! JSON. Both renderings iterate `BTreeMap` snapshots, so the bytes are
//! deterministic for a given snapshot. JSON goes through
//! [`crate::json::write_str`], the same escape-correct writer the
//! checkpoint format uses — no serde in the build.

use crate::error::DcnrError;
use crate::json::write_str;
use dcnr_telemetry::metrics::{Key, MetricsSnapshot};
use dcnr_telemetry::trace::TraceSnapshot;
use std::fmt::Write as _;
use std::path::Path;

fn push_key(out: &mut String, key: &Key) {
    out.push_str("{\"name\": ");
    write_str(out, &key.name);
    out.push_str(", \"labels\": {");
    for (i, (k, v)) in key.labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, k);
        out.push_str(": ");
        write_str(out, v);
    }
    out.push('}');
}

/// Renders a metrics snapshot as a JSON document with `counters`,
/// `gauges`, and `histograms` arrays (series in sorted key order).
pub fn render_metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": [");
    for (i, (key, value)) in snapshot.counters.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_key(&mut out, key);
        let _ = write!(out, ", \"value\": {value}}}");
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    for (i, (key, value)) in snapshot.gauges.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_key(&mut out, key);
        let _ = write!(out, ", \"value\": {value}}}");
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, (key, h)) in snapshot.histograms.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_key(&mut out, key);
        let _ = write!(out, ", \"bounds\": {:?}", h.bounds);
        let _ = write!(out, ", \"counts\": {:?}", h.counts);
        let _ = write!(out, ", \"sum\": {}, \"count\": {}}}", h.sum, h.count);
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders a trace snapshot as a JSON document: retained `head` and
/// `tail` event arrays plus the `seen`/`dropped` accounting.
pub fn render_trace_json(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"seen\": {},", snapshot.seen);
    let _ = writeln!(out, "  \"dropped\": {},", snapshot.dropped());
    for (field, events) in [("head", &snapshot.head), ("tail", &snapshot.tail)] {
        let _ = write!(out, "  \"{field}\": [");
        for (i, e) in events.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(out, "{{\"at_secs\": {}, \"kind\": ", e.at_secs);
            write_str(&mut out, e.kind);
            out.push_str(", \"detail\": ");
            write_str(&mut out, &e.detail);
            out.push('}');
        }
        out.push_str(if field == "head" {
            "\n  ],\n"
        } else {
            "\n  ]\n"
        });
    }
    out.push_str("}\n");
    out
}

fn write_file(path: &str, contents: &str) -> Result<(), DcnrError> {
    std::fs::write(path, contents).map_err(|e| DcnrError::Io {
        path: path.to_string(),
        message: format!("write: {e}"),
    })
}

/// Writes a metrics snapshot to `path`: JSON when the extension is
/// `.json`, Prometheus text exposition otherwise.
pub fn write_metrics_file(path: &str, snapshot: &MetricsSnapshot) -> Result<(), DcnrError> {
    let json = Path::new(path)
        .extension()
        .is_some_and(|ext| ext.eq_ignore_ascii_case("json"));
    let contents = if json {
        render_metrics_json(snapshot)
    } else {
        dcnr_telemetry::prometheus::render(snapshot)
    };
    write_file(path, &contents)
}

/// Writes a trace snapshot to `path` as JSON.
pub fn write_trace_file(path: &str, snapshot: &TraceSnapshot) -> Result<(), DcnrError> {
    write_file(path, &render_trace_json(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use dcnr_telemetry::metrics::Registry;
    use dcnr_telemetry::trace::TraceBuffer;

    fn sample_metrics() -> MetricsSnapshot {
        let r = Registry::default();
        r.counter("dcnr_events_total", &[("kind", "a \"q\"")])
            .add(3);
        r.gauge("dcnr_depth", &[]).add(-2);
        r.histogram("dcnr_lat_micros", &[("phase", "x")], &[10, 100])
            .observe(7);
        r.snapshot()
    }

    #[test]
    fn metrics_json_parses_and_round_trips_values() {
        let text = render_metrics_json(&sample_metrics());
        let doc = json::parse(&text).expect("valid JSON");
        let counters = doc.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("value").unwrap().as_u64().unwrap(), 3);
        assert_eq!(
            counters[0]
                .get("labels")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "a \"q\""
        );
        let hists = doc.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists[0].get("sum").unwrap().as_u64().unwrap(), 7);
        assert_eq!(hists[0].get("counts").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn trace_json_parses_and_keeps_accounting() {
        let b = TraceBuffer::with_capacity(1);
        for i in 0..4u64 {
            b.record(i, "test", |d| {
                let _ = writeln!(d, "e{i}");
            });
        }
        let text = render_trace_json(&b.snapshot());
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("seen").unwrap().as_u64().unwrap(), 4);
        assert_eq!(doc.get("dropped").unwrap().as_u64().unwrap(), 2);
        let head = doc.get("head").unwrap().as_arr().unwrap();
        assert_eq!(head[0].get("detail").unwrap().as_str().unwrap(), "e0\n");
        assert_eq!(doc.get("tail").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn metrics_file_format_follows_the_extension() {
        let dir = std::env::temp_dir().join("dcnr-telemetry-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample_metrics();

        let prom = dir.join("metrics.prom");
        write_metrics_file(prom.to_str().unwrap(), &snap).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(dcnr_telemetry::prometheus::validate(&text).is_ok());
        assert!(text.contains("# TYPE dcnr_events_total counter"));

        let as_json = dir.join("metrics.json");
        write_metrics_file(as_json.to_str().unwrap(), &snap).unwrap();
        let text = std::fs::read_to_string(&as_json).unwrap();
        assert!(json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
