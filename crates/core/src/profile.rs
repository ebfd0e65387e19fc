//! The `dcnr profile` phase breakdown.
//!
//! Every [`dcnr_telemetry::span`] records its wall-clock duration into
//! the [`dcnr_telemetry::PHASE_HISTOGRAM`] series labeled by phase
//! name. This module reads that series back out of a snapshot and
//! renders it two ways: a fixed-layout text table for stdout and the
//! JSON document `dcnr profile --json PATH` writes. The *layout* is
//! deterministic — rows sorted by phase name, stable columns — while
//! the duration values naturally vary run to run.

use crate::json::write_str;
use dcnr_telemetry::metrics::MetricsSnapshot;
use dcnr_telemetry::PHASE_HISTOGRAM;
use std::fmt::Write as _;

/// One pipeline phase: how often it ran and how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name, e.g. `intra.issue_gen.rack_switch`.
    pub phase: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock time across all calls, microseconds.
    pub total_micros: u64,
    /// Mean wall-clock time per call, microseconds (0 when no calls).
    pub mean_micros: u64,
}

/// Extracts the phase-duration rows from a metrics snapshot, sorted by
/// phase name. Snapshots with no spans yield an empty vec.
pub fn phase_rows(snapshot: &MetricsSnapshot) -> Vec<PhaseRow> {
    let mut rows: Vec<PhaseRow> = snapshot
        .histograms
        .iter()
        .filter(|(key, _)| key.name == PHASE_HISTOGRAM)
        .map(|(key, hist)| {
            let phase = key
                .labels
                .iter()
                .find(|(k, _)| k == "phase")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            PhaseRow {
                phase,
                calls: hist.count,
                total_micros: hist.sum,
                mean_micros: hist.sum.checked_div(hist.count).unwrap_or_default(),
            }
        })
        .collect();
    rows.sort_by(|a, b| a.phase.cmp(&b.phase));
    rows
}

/// Renders the phase table: name, calls, total ms, mean µs — one row
/// per phase, sorted by name, widest-phase-name column sizing.
pub fn render_profile_table(rows: &[PhaseRow]) -> String {
    let width = rows
        .iter()
        .map(|r| r.phase.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$}  {:>8}  {:>12}  {:>10}",
        "phase", "calls", "total_ms", "mean_us"
    );
    let _ = writeln!(out, "{}", "-".repeat(width + 36));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>12.3}  {:>10}",
            r.phase,
            r.calls,
            r.total_micros as f64 / 1000.0,
            r.mean_micros
        );
    }
    out
}

/// Renders the profile JSON document: scenario context plus the sorted
/// phase rows.
pub fn render_profile_json(scenario: &str, seed: u64, scale: f64, rows: &[PhaseRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": ");
    write_str(&mut out, scenario);
    let _ = writeln!(out, ",\n  \"seed\": {seed},\n  \"scale\": {scale},");
    out.push_str("  \"phases\": [");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str("{\"phase\": ");
        write_str(&mut out, &r.phase);
        let _ = write!(
            out,
            ", \"calls\": {}, \"total_micros\": {}, \"mean_micros\": {}}}",
            r.calls, r.total_micros, r.mean_micros
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use dcnr_telemetry::metrics::Registry;

    fn sample() -> Vec<PhaseRow> {
        let r = Registry::default();
        let h = r.histogram(
            PHASE_HISTOGRAM,
            &[("phase", "intra.remediation")],
            &dcnr_telemetry::metrics::DURATION_BOUNDS_MICROS,
        );
        h.observe(100);
        h.observe(300);
        r.histogram(
            PHASE_HISTOGRAM,
            &[("phase", "backbone.sim")],
            &dcnr_telemetry::metrics::DURATION_BOUNDS_MICROS,
        )
        .observe(50);
        // A non-phase histogram must not leak into the profile.
        r.histogram("dcnr_other_micros", &[], &[10]).observe(1);
        phase_rows(&r.snapshot())
    }

    #[test]
    fn rows_are_sorted_and_averaged() {
        let rows = sample();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].phase, "backbone.sim");
        assert_eq!(rows[1].phase, "intra.remediation");
        assert_eq!(rows[1].calls, 2);
        assert_eq!(rows[1].total_micros, 400);
        assert_eq!(rows[1].mean_micros, 200);
    }

    #[test]
    fn table_has_one_line_per_phase_plus_header() {
        let rows = sample();
        let table = render_profile_table(&rows);
        assert_eq!(table.lines().count(), 2 + rows.len());
        assert!(table.contains("intra.remediation"));
        assert!(table.starts_with("phase"));
    }

    #[test]
    fn profile_json_parses_and_names_phases() {
        let text = render_profile_json("intra", 7, 1.0, &sample());
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("scenario").unwrap().as_str().unwrap(), "intra");
        assert_eq!(doc.get("seed").unwrap().as_u64().unwrap(), 7);
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0].get("phase").unwrap().as_str().unwrap(),
            "backbone.sim"
        );
        assert_eq!(
            phases[1].get("total_micros").unwrap().as_u64().unwrap(),
            400
        );
    }

    #[test]
    fn empty_snapshot_yields_empty_profile() {
        let rows = phase_rows(&Registry::default().snapshot());
        assert!(rows.is_empty());
        let text = render_profile_json("chaos", 1, 0.5, &rows);
        assert!(json::parse(&text).is_ok());
    }
}
