//! Sweep checkpointing: per-replica JSON shards plus a manifest.
//!
//! A checkpointed sweep persists every completed replica's comparison
//! rows under a run directory:
//!
//! ```text
//! <dir>/manifest.json       the full sweep configuration
//! <dir>/replica-0003.json   replica 3's rows, verdict, and seed
//! ```
//!
//! Shards double as the cross-sweep **artifact cache**: a rerun (or
//! `dcnr sweep --resume <dir>`) loads valid shards instead of
//! re-executing their replicas, and the manifest guards against reusing
//! shards from a different configuration.
//!
//! Exactness contract: floats are stored as IEEE-754 bit patterns
//! (`u64` JSON integers, with a human-readable `*_text` companion), so
//! a loaded shard reproduces the original [`Comparison`] values **bit
//! for bit** — a resumed sweep aggregates to byte-identical output. A
//! shard written by a retried attempt records which attempt produced
//! it, because retries run under a fresh derived seed.

use crate::error::DcnrError;
use crate::experiments::Comparison;
use crate::json::{self, Json};
use crate::scenario::{Scenario, ScenarioKind};
use crate::sweep::SweepConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The checkpoint format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One completed replica, as persisted in its shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRecord {
    /// Replica index within the sweep.
    pub replica: usize,
    /// Which attempt produced the result (0 = first run; retries run
    /// under a fresh derived seed).
    pub attempt: u32,
    /// The seed the successful attempt actually ran under.
    pub seed: u64,
    /// The replica's own acceptance verdict.
    pub passed: bool,
    /// Every comparison row the replica produced, in plan order.
    pub comparisons: Vec<Comparison>,
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> DcnrError {
    DcnrError::Io {
        path: path.display().to_string(),
        message: format!("{op}: {e}"),
    }
}

fn format_err(path: &Path, message: impl Into<String>) -> DcnrError {
    DcnrError::Checkpoint {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// Creates the run directory (and parents) if needed.
pub fn prepare_dir(dir: &Path) -> Result<(), DcnrError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create directory", e))
}

/// The shard path for `replica` under `dir`.
pub fn shard_path(dir: &Path, replica: usize) -> PathBuf {
    dir.join(format!("replica-{replica:04}.json"))
}

/// The manifest path under `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Writes `text` atomically: a temp file in the same directory, then a
/// rename, so an interrupted sweep never leaves a half-written shard.
fn write_atomic(path: &Path, text: &str) -> Result<(), DcnrError> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, "write", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, "rename into place", e))
}

fn push_f64_fields(out: &mut String, indent: &str, name: &str, value: f64) {
    let _ = write!(out, "{indent}\"{name}_bits\": {}, ", value.to_bits());
    let _ = write!(out, "\"{name}_text\": ");
    json::write_str(out, &format!("{value}"));
}

fn read_f64_bits(value: &Json, name: &str) -> Result<f64, String> {
    value.get(&format!("{name}_bits"))?.as_f64_bits()
}

/// Serializes a replica record to its shard text.
pub fn render_shard(record: &ReplicaRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {CHECKPOINT_VERSION},");
    let _ = writeln!(out, "  \"replica\": {},", record.replica);
    let _ = writeln!(out, "  \"attempt\": {},", record.attempt);
    let _ = writeln!(out, "  \"seed\": {},", record.seed);
    let _ = writeln!(out, "  \"passed\": {},", record.passed);
    let _ = writeln!(out, "  \"comparisons\": [");
    for (i, c) in record.comparisons.iter().enumerate() {
        out.push_str("    {\"metric\": ");
        json::write_str(&mut out, &c.metric);
        out.push_str(", ");
        push_f64_fields(&mut out, "", "paper", c.paper);
        out.push_str(", ");
        push_f64_fields(&mut out, "", "measured", c.measured);
        out.push('}');
        if i + 1 < record.comparisons.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Persists `record` as `dir/replica-NNNN.json` (atomically).
pub fn write_shard(dir: &Path, record: &ReplicaRecord) -> Result<(), DcnrError> {
    write_atomic(&shard_path(dir, record.replica), &render_shard(record))
}

/// Loads the shard for `replica`, if present.
///
/// Returns `Ok(None)` when the shard does not exist; a shard that
/// exists but is malformed, claims a different replica index, or is
/// from another checkpoint version yields a named
/// [`DcnrError::Checkpoint`] (the supervisor records the reason and
/// re-executes the replica).
pub fn read_shard(dir: &Path, replica: usize) -> Result<Option<ReplicaRecord>, DcnrError> {
    let path = shard_path(dir, replica);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, "read", e)),
    };
    parse_shard(&text, replica)
        .map(Some)
        .map_err(|m| format_err(&path, m))
}

fn parse_shard(text: &str, replica: usize) -> Result<ReplicaRecord, String> {
    let v = json::parse(text)?;
    let version = v.get("version")?.as_u64()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "version {version} (this build writes {CHECKPOINT_VERSION})"
        ));
    }
    let stored = v.get("replica")?.as_usize()?;
    if stored != replica {
        return Err(format!("shard claims replica {stored}, expected {replica}"));
    }
    let mut comparisons = Vec::new();
    for item in v.get("comparisons")?.as_arr()? {
        comparisons.push(Comparison {
            metric: item.get("metric")?.as_str()?.to_string(),
            paper: read_f64_bits(item, "paper")?,
            measured: read_f64_bits(item, "measured")?,
        });
    }
    Ok(ReplicaRecord {
        replica,
        attempt: v.get("attempt")?.as_u64()? as u32,
        seed: v.get("seed")?.as_u64()?,
        passed: v.get("passed")?.as_bool()?,
        comparisons,
    })
}

/// The persisted sweep configuration: everything that affects replica
/// results (worker count deliberately excluded — it never does).
///
/// `scenario_debug` is a safety net: resume rebuilds the scenario from
/// the explicit fields and then requires its `Debug` rendering to match
/// the stored one, so any future scenario knob that is not (yet)
/// serialized here fails loudly instead of silently resuming a
/// different workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scenario kind (CLI name).
    pub kind: ScenarioKind,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Number of replicas.
    pub seeds: u32,
    /// Bootstrap resamples per metric.
    pub resamples: usize,
    /// Bootstrap confidence level.
    pub confidence: f64,
    /// Intra-DC fleet scale.
    pub scale: f64,
    /// Backbone edge count.
    pub edges: u32,
    /// Backbone vendor count.
    pub vendors: u32,
    /// Backbone minimum links per edge.
    pub min_links_per_edge: u32,
    /// Hazard ablation: automated remediation enabled.
    pub automation: bool,
    /// Hazard ablation: drain policy enabled.
    pub drain: bool,
    /// Chaos fault rates, in the CLI's flag order.
    pub chaos_rates: [f64; 6],
    /// Zoo topology id (the survivability lifespan member).
    pub topology: String,
    /// `format!("{:?}")` of the base scenario, for exact matching.
    pub scenario_debug: String,
}

impl Manifest {
    /// Captures the manifest for `config`.
    pub fn from_config(config: &SweepConfig) -> Self {
        let s = &config.base;
        Self {
            kind: s.kind,
            master_seed: s.seed,
            seeds: config.seeds,
            resamples: config.resamples,
            confidence: config.confidence,
            scale: s.scale,
            edges: s.backbone.edges,
            vendors: s.backbone.vendors,
            min_links_per_edge: s.backbone.min_links_per_edge,
            automation: s.hazard.automation_enabled,
            drain: s.hazard.drain_policy_enabled,
            chaos_rates: [
                s.chaos.corrupt_rate,
                s.chaos.truncate_rate,
                s.chaos.loss_rate,
                s.chaos.dup_rate,
                s.chaos.reorder_rate,
                s.chaos.store_fail_rate,
            ],
            topology: s.topology.to_string(),
            scenario_debug: format!("{s:?}"),
        }
    }

    /// Rebuilds the sweep configuration this manifest describes.
    ///
    /// `jobs` is caller-chosen (it never affects results). Fails with a
    /// named error when the rebuilt scenario's `Debug` rendering does
    /// not reproduce `scenario_debug` — the manifest predates a
    /// scenario knob this build has — or when the stored settings fail
    /// [`SweepConfig::check`].
    pub fn to_config(&self, jobs: usize) -> Result<SweepConfig, DcnrError> {
        let mut base = Scenario {
            kind: self.kind,
            ..Scenario::intra(self.master_seed)
        }
        .with_seed(self.master_seed);
        base.scale = self.scale;
        base.backbone.edges = self.edges;
        base.backbone.vendors = self.vendors;
        base.backbone.min_links_per_edge = self.min_links_per_edge;
        base.hazard.automation_enabled = self.automation;
        base.hazard.drain_policy_enabled = self.drain;
        base.chaos.corrupt_rate = self.chaos_rates[0];
        base.chaos.truncate_rate = self.chaos_rates[1];
        base.chaos.loss_rate = self.chaos_rates[2];
        base.chaos.dup_rate = self.chaos_rates[3];
        base.chaos.reorder_rate = self.chaos_rates[4];
        base.chaos.store_fail_rate = self.chaos_rates[5];
        base.topology = dcnr_topology::zoo::find(&self.topology)
            .ok_or_else(|| DcnrError::Checkpoint {
                path: "manifest.json".into(),
                message: format!(
                    "stored topology {:?} is not in this build's zoo (valid ids: {})",
                    self.topology,
                    dcnr_topology::zoo::id_list()
                ),
            })?
            .id;
        let rebuilt = format!("{base:?}");
        if rebuilt != self.scenario_debug {
            return Err(DcnrError::Checkpoint {
                path: "manifest.json".into(),
                message: "the stored scenario has knobs this build cannot rebuild \
                          (manifest written by an incompatible version)"
                    .into(),
            });
        }
        let config = SweepConfig {
            base,
            seeds: self.seeds,
            jobs,
            resamples: self.resamples,
            confidence: self.confidence,
        };
        // The manifest stores no worker count: `jobs` is the caller's,
        // and `run_supervised` checks it as a flag.
        SweepConfig { jobs: 1, ..config }
            .check()
            .map_err(|message| DcnrError::Checkpoint {
                path: "manifest.json".into(),
                message,
            })?;
        Ok(config)
    }

    /// Requires `self` (the stored manifest) to describe the same sweep
    /// as `current`; the error names the first differing field.
    pub fn ensure_matches(&self, current: &Manifest, dir: &Path) -> Result<(), DcnrError> {
        let mismatch = |field: &str| {
            Err(format_err(
                &manifest_path(dir),
                format!(
                    "existing checkpoint is for a different sweep ({field} differs); \
                     use a fresh directory or matching flags"
                ),
            ))
        };
        if self.kind != current.kind {
            return mismatch("scenario");
        }
        if self.master_seed != current.master_seed {
            return mismatch("master seed");
        }
        if self.seeds != current.seeds {
            return mismatch("seeds");
        }
        if self.resamples != current.resamples {
            return mismatch("resamples");
        }
        if self.confidence.to_bits() != current.confidence.to_bits() {
            return mismatch("confidence");
        }
        if self.scenario_debug != current.scenario_debug {
            return mismatch("scenario knobs");
        }
        Ok(())
    }
}

/// Serializes the manifest text.
pub fn render_manifest(m: &Manifest) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {CHECKPOINT_VERSION},");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", m.kind.name());
    let _ = writeln!(out, "  \"master_seed\": {},", m.master_seed);
    let _ = writeln!(out, "  \"seeds\": {},", m.seeds);
    let _ = writeln!(out, "  \"resamples\": {},", m.resamples);
    push_f64_fields(&mut out, "  ", "confidence", m.confidence);
    out.push_str(",\n");
    push_f64_fields(&mut out, "  ", "scale", m.scale);
    out.push_str(",\n");
    let _ = writeln!(out, "  \"edges\": {},", m.edges);
    let _ = writeln!(out, "  \"vendors\": {},", m.vendors);
    let _ = writeln!(out, "  \"min_links_per_edge\": {},", m.min_links_per_edge);
    let _ = writeln!(out, "  \"automation\": {},", m.automation);
    let _ = writeln!(out, "  \"drain\": {},", m.drain);
    for (i, name) in CHAOS_RATE_FIELDS.iter().enumerate() {
        push_f64_fields(&mut out, "  ", name, m.chaos_rates[i]);
        out.push_str(",\n");
    }
    out.push_str("  \"topology\": ");
    json::write_str(&mut out, &m.topology);
    out.push_str(",\n");
    out.push_str("  \"scenario_debug\": ");
    json::write_str(&mut out, &m.scenario_debug);
    out.push('\n');
    let _ = writeln!(out, "}}");
    out
}

const CHAOS_RATE_FIELDS: [&str; 6] = [
    "corrupt_rate",
    "truncate_rate",
    "loss_rate",
    "dup_rate",
    "reorder_rate",
    "store_fail_rate",
];

/// Writes `dir/manifest.json` (atomically).
pub fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), DcnrError> {
    write_atomic(&manifest_path(dir), &render_manifest(m))
}

/// Loads `dir/manifest.json`, if present.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, DcnrError> {
    let path = manifest_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, "read", e)),
    };
    parse_manifest(&text)
        .map(Some)
        .map_err(|m| format_err(&path, m))
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let v = json::parse(text)?;
    let version = v.get("version")?.as_u64()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "version {version} (this build writes {CHECKPOINT_VERSION})"
        ));
    }
    let kind_name = v.get("scenario")?.as_str()?;
    let kind = ScenarioKind::parse(kind_name)
        .ok_or_else(|| format!("unknown scenario kind {kind_name:?}"))?;
    let mut chaos_rates = [0.0; 6];
    for (i, name) in CHAOS_RATE_FIELDS.iter().enumerate() {
        chaos_rates[i] = read_f64_bits(&v, name)?;
    }
    Ok(Manifest {
        kind,
        master_seed: v.get("master_seed")?.as_u64()?,
        seeds: v.get("seeds")?.as_u64()? as u32,
        resamples: v.get("resamples")?.as_usize()?,
        confidence: read_f64_bits(&v, "confidence")?,
        scale: read_f64_bits(&v, "scale")?,
        edges: v.get("edges")?.as_u64()? as u32,
        vendors: v.get("vendors")?.as_u64()? as u32,
        min_links_per_edge: v.get("min_links_per_edge")?.as_u64()? as u32,
        automation: v.get("automation")?.as_bool()?,
        drain: v.get("drain")?.as_bool()?,
        chaos_rates,
        // Manifests written before the zoo existed have no topology
        // key; default it so they fail through `to_config`'s clearer
        // debug-string safety net instead of a raw parse error.
        topology: match v.get("topology") {
            Ok(t) => t.as_str()?.to_string(),
            Err(_) => "fat-tree".to_string(),
        },
        scenario_debug: v.get("scenario_debug")?.as_str()?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ReplicaRecord {
        ReplicaRecord {
            replica: 3,
            attempt: 1,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            passed: true,
            comparisons: vec![
                Comparison {
                    metric: "fig15 median (h)".into(),
                    paper: 1710.0,
                    measured: 1689.4375,
                },
                Comparison {
                    metric: "odd \"name\"\nwith controls \u{2}".into(),
                    paper: 0.1,
                    measured: -0.30000000000000004,
                },
            ],
        }
    }

    #[test]
    fn shard_round_trips_bit_exactly() {
        let rec = record();
        let text = render_shard(&rec);
        let back = parse_shard(&text, 3).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            back.comparisons[1].measured.to_bits(),
            rec.comparisons[1].measured.to_bits()
        );
    }

    #[test]
    fn shard_rejects_wrong_replica_and_version() {
        let text = render_shard(&record());
        let err = parse_shard(&text, 4).unwrap_err();
        assert!(err.contains("claims replica 3"), "{err}");
        let bumped = text.replace("\"version\": 1", "\"version\": 99");
        assert!(parse_shard(&bumped, 3).unwrap_err().contains("version 99"));
    }

    #[test]
    fn shard_rejects_truncation() {
        let text = render_shard(&record());
        let cut = &text[..text.len() / 2];
        assert!(parse_shard(cut, 3).is_err());
    }

    #[test]
    fn manifest_round_trips_and_rebuilds_the_config() {
        let base = Scenario {
            scale: 0.5,
            ..Scenario::backbone(0xFEED)
        };
        let config = SweepConfig::new(base, 6, 4);
        let m = Manifest::from_config(&config);
        let back = parse_manifest(&render_manifest(&m)).unwrap();
        assert_eq!(back, m);
        let rebuilt = back.to_config(2).unwrap();
        assert_eq!(rebuilt.seeds, 6);
        assert_eq!(rebuilt.jobs, 2, "jobs is caller-chosen");
        assert_eq!(format!("{:?}", rebuilt.base), format!("{base:?}"));
    }

    #[test]
    fn manifest_preserves_the_topology_knob() {
        let base = Scenario {
            scale: 0.25,
            topology: "bcube",
            ..Scenario::survivability(7)
        };
        let m = Manifest::from_config(&SweepConfig::new(base, 3, 2));
        let back = parse_manifest(&render_manifest(&m)).unwrap();
        assert_eq!(back, m);
        let rebuilt = back.to_config(1).unwrap();
        assert_eq!(rebuilt.base.topology, "bcube");
        assert_eq!(format!("{:?}", rebuilt.base), format!("{base:?}"));
        // A manifest naming a topology this build doesn't register is a
        // named checkpoint error, not a silent fat-tree resume.
        let mut alien = back.clone();
        alien.topology = "hypercube".into();
        let err = alien.to_config(1).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        assert!(err.to_string().contains("hypercube"), "{err}");
    }

    #[test]
    fn manifest_settings_that_fail_the_sweep_check_are_checkpoint_errors() {
        let good = Manifest::from_config(&SweepConfig::new(Scenario::backbone(3), 2, 1));
        let mut zero_seeds = good.clone();
        zero_seeds.seeds = 0;
        let mut zero_resamples = good.clone();
        zero_resamples.resamples = 0;
        let mut wide = good.clone();
        wide.confidence = 1.5;
        let mut nan = good.clone();
        nan.confidence = f64::NAN;
        for bad in [zero_seeds, zero_resamples, wide, nan] {
            let err = bad.to_config(2).unwrap_err();
            assert_eq!(err.kind(), "checkpoint", "{err}");
        }
        // The worker count is the caller's, checked as a flag by the
        // sweep runner, never blamed on the manifest.
        assert_eq!(good.to_config(0).unwrap().jobs, 0);
    }

    #[test]
    fn manifest_mismatch_names_the_field() {
        let a = Manifest::from_config(&SweepConfig::new(Scenario::intra(1), 4, 1));
        let mut b = a.clone();
        b.seeds = 8;
        let err = a.ensure_matches(&b, Path::new("/tmp/x")).unwrap_err();
        assert!(err.to_string().contains("seeds"), "{err}");
        let mut c = a.clone();
        c.master_seed = 2;
        let err = a.ensure_matches(&c, Path::new("/tmp/x")).unwrap_err();
        assert!(err.to_string().contains("master seed"), "{err}");
        assert!(a.ensure_matches(&a.clone(), Path::new("/tmp/x")).is_ok());
    }

    #[test]
    fn shard_files_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("dcnr-ckpt-test-{}", std::process::id()));
        prepare_dir(&dir).unwrap();
        let rec = record();
        write_shard(&dir, &rec).unwrap();
        assert_eq!(read_shard(&dir, 3).unwrap(), Some(rec));
        assert_eq!(read_shard(&dir, 7).unwrap(), None);
        // Corrupt shard: named checkpoint error, not a panic.
        std::fs::write(shard_path(&dir, 5), "{ nope").unwrap();
        let err = read_shard(&dir, 5).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
