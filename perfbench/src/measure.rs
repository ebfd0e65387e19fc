//! Measurement plumbing shared by every workload: op accounting, sample
//! statistics, per-layer accumulators, and process facts for the run
//! record.

use std::collections::BTreeMap;
use std::time::Instant;

/// Attempted/failed op accounting plus every failed output check of one
/// run. A failure is a `DcnrError`, a non-200, a shed, or a body that
/// does not match its reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one op; `Err` marks it failed and records why.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// Records an output check that is not tied to a single op.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(why());
        }
    }

    /// Folds another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// The timed samples of one end-to-end run, in seconds.
#[derive(Debug, Default)]
pub struct E2e {
    /// Latency of the workload's plain op (no collector installed):
    /// a replica for `intra`, a cache hit for `serve`.
    pub plain: Vec<f64>,
    /// Latency of the op that runs with a telemetry collector
    /// installed: a replica inside `telemetry::installed` for `intra`,
    /// a cache miss (rendered under the server's collector) for `serve`.
    pub collector: Vec<f64>,
    /// Wall time of the measured window.
    pub wall: f64,
    /// Workload-specific facts for the run record, as JSON values.
    pub notes: Vec<(&'static str, String)>,
}

/// Per-layer values of a traced run: one value per traced round, reported
/// as the mean so that layer times and the unattributed remainder add up
/// to the traced end-to-end time exactly.
#[derive(Debug, Default)]
pub struct Layers {
    rounds: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.rounds.entry(name).or_default().push(value);
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        let v = self.rounds.get(name)?;
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Wall-clock stopwatch for one layer: `time` runs a call and adds its
/// duration, so a layer called many times accumulates its busy time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stopwatch(pub f64);

impl Stopwatch {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.0 += t.elapsed().as_secs_f64();
        v
    }
}

/// Times one call, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` quantile (`0 < q < 1`); NaN if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a digest of the workspace sources the benchmark was built from
/// (`Cargo.toml`, `Cargo.lock`, `crates/`), read from the current
/// directory. Stands in for a commit id: a checkout need not be a git
/// repository.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(body) = std::fs::read(&f) {
            bytes.extend_from_slice(f.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&body);
        }
    }
    format!("fnv1a64:{:016x}", dcnr_server::body_checksum(&bytes))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become null.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.1), 100.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_helpers_escape_and_null_non_finite() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
