//! Scenario-engine and sweep determinism guarantees, end to end.
//!
//! The sweep's contract is that parallelism is invisible: the same
//! scenario and seed produce byte-identical reports whether one worker
//! or eight execute the replicas, and the aggregated bands are a
//! function of (scenario, seeds) alone. A checkpointed sweep resumes to
//! the same bytes, re-executing only the replicas without a valid shard
//! run under their planned seed.

use dcnr_core::{checkpoint, run_sweep, RunContext, Scenario, StudyKind, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn small(kind: StudyKind, seed: u64) -> Scenario {
    Scenario {
        kind,
        scale: 0.5,
        backbone: dcnr_core::backbone::topo::BackboneParams {
            edges: 30,
            vendors: 12,
            min_links_per_edge: 3,
        },
        ..Scenario::intra(seed)
    }
}

/// A unique temp directory per call: tests run in parallel in one
/// process, so the pid alone is not enough.
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcnr-sweep-{tag}-{}-{n}", std::process::id()))
}

#[test]
fn scenario_report_is_identical_across_repeat_executions() {
    // The engine itself is deterministic: two fresh contexts over the
    // same scenario render byte-identical reports.
    for kind in [StudyKind::Intra, StudyKind::Backbone, StudyKind::Chaos] {
        let a = RunContext::new(small(kind, 77)).execute();
        let b = RunContext::new(small(kind, 77)).execute();
        assert_eq!(a.rendered, b.rendered, "{kind}");
        assert_eq!(a.passed, b.passed, "{kind}");
    }
}

#[test]
fn sweep_report_is_byte_identical_for_any_worker_count() {
    let base = small(StudyKind::Backbone, 0xFA_57);
    let serial = run_sweep(SweepConfig::new(base, 4, 1), None).unwrap();
    let parallel = run_sweep(SweepConfig::new(base, 4, 8), None).unwrap();
    assert_eq!(serial.rendered, parallel.rendered);
    assert_eq!(serial.replica_seeds, parallel.replica_seeds);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.band, b.band, "{}", a.metric);
    }
}

#[test]
fn intra_sweep_aggregate_is_independent_of_worker_count() {
    let base = small(StudyKind::Intra, 0x1A_77);
    let a = run_sweep(SweepConfig::new(base, 3, 1), None).unwrap();
    let b = run_sweep(SweepConfig::new(base, 3, 3), None).unwrap();
    assert_eq!(a.rendered, b.rendered);
}

#[test]
fn sweep_bands_quantify_cross_seed_spread() {
    let out = run_sweep(
        SweepConfig::new(small(StudyKind::Backbone, 0xBA_4D), 4, 2),
        None,
    )
    .unwrap();
    assert_eq!(out.passed_replicas, 4);
    // Every metric was measured in all four replicas and has a CI.
    for row in &out.rows {
        assert_eq!(row.band.n, 4, "{}", row.metric);
        let ci = row.band.ci.as_ref().expect("n=4 admits a bootstrap CI");
        assert!(
            ci.lo <= ci.estimate && ci.estimate <= ci.hi,
            "{}",
            row.metric
        );
    }
    // Seeds genuinely differ: at least one metric has nonzero spread.
    assert!(out.rows.iter().any(|r| r.band.stddev > 0.0));
    assert!(out.rendered.contains("paper"));
}

#[test]
fn different_master_seeds_give_different_replica_sets() {
    let a = run_sweep(SweepConfig::new(small(StudyKind::Backbone, 1), 3, 2), None).unwrap();
    let b = run_sweep(SweepConfig::new(small(StudyKind::Backbone, 2), 3, 2), None).unwrap();
    assert_ne!(a.replica_seeds, b.replica_seeds);
    assert_ne!(a.rendered, b.rendered);
}

#[test]
fn sweep_settings_that_would_print_a_false_header_exit_1() {
    let dcnr = env!("CARGO_BIN_EXE_dcnr");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(dcnr)
            .args(["sweep", "--scenario", "backbone", "--seeds", "2"])
            .args(args)
            .output()
            .expect("run dcnr");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        stderr
    };
    for args in [
        ["--confidence", "1.5"],
        ["--confidence", "nan"],
        ["--confidence", "-1"],
        ["--confidence", "0"],
        ["--resamples", "0"],
        ["--jobs", "0"],
    ] {
        let stderr = run(&args);
        assert!(
            stderr.contains("invalid configuration"),
            "{args:?}: {stderr}"
        );
    }

    // A resumed manifest edited to zero resamples is a checkpoint error.
    let dir = std::env::temp_dir().join(format!("dcnr-false-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut config = SweepConfig::new(small(StudyKind::Backbone, 5), 2, 1);
    config.resamples = 200;
    dcnr_core::checkpoint::write_manifest(&dir, &dcnr_core::Manifest::from_config(&config))
        .unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains("\"resamples\": 200"), "{text}");
    std::fs::write(
        &manifest,
        text.replace("\"resamples\": 200", "\"resamples\": 0"),
    )
    .unwrap();
    let out = std::process::Command::new(dcnr)
        .args(["sweep", "--resume", dir.to_str().unwrap()])
        .output()
        .expect("run dcnr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_sweep_resumes_byte_identically_and_only_reruns_missing() {
    let base = small(StudyKind::Backbone, 0xC0DE);
    let config = SweepConfig::new(base, 4, 2);
    let dir = temp_dir("resume");

    let first = run_sweep(config, Some(&dir)).unwrap();
    assert_eq!(first.cache_hits, 0);
    for i in 0..4 {
        assert!(
            checkpoint::shard_path(&dir, i).exists(),
            "shard {i} must be persisted"
        );
    }

    // Simulate an interrupted sweep: drop one shard, then resume.
    std::fs::remove_file(checkpoint::shard_path(&dir, 2)).unwrap();
    let resumed = run_sweep(config, Some(&dir)).unwrap();
    assert_eq!(resumed.cache_hits, 3, "only replica 2 re-executes");
    assert_eq!(resumed.rendered, first.rendered, "byte-identical aggregate");

    // A corrupt shard is ignored and its replica re-executed, not fatal.
    std::fs::write(checkpoint::shard_path(&dir, 0), "{ not json").unwrap();
    let healed = run_sweep(config, Some(&dir)).unwrap();
    assert_eq!(healed.cache_hits, 3, "replica 0 re-executes");
    assert_eq!(healed.rendered, first.rendered);
    let rewritten = checkpoint::read_shard(&dir, 0).unwrap().expect("shard 0");
    assert_eq!(rewritten.seed, first.replica_seeds[0]);

    // A shard run under another seed (an older build's retry) is
    // foreign: its replica re-executes under the planned seed.
    let path = checkpoint::shard_path(&dir, 1);
    let planned = first.replica_seeds[1];
    let text = std::fs::read_to_string(&path).unwrap();
    let needle = format!("\"seed\": {planned},");
    assert!(text.contains(&needle), "{text}");
    std::fs::write(&path, text.replace(&needle, "\"seed\": 7,")).unwrap();
    let reclaimed = run_sweep(config, Some(&dir)).unwrap();
    assert_eq!(reclaimed.cache_hits, 3, "replica 1 re-executes");
    assert_eq!(reclaimed.rendered, first.rendered);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_dir_rejects_a_different_sweep() {
    let dir = temp_dir("mismatch");
    let a = SweepConfig::new(small(StudyKind::Backbone, 1), 2, 1);
    run_sweep(a, Some(&dir)).unwrap();
    let b = SweepConfig::new(small(StudyKind::Backbone, 2), 2, 1);
    let err = run_sweep(b, Some(&dir)).unwrap_err();
    assert_eq!(err.kind(), "checkpoint");
    assert!(err.to_string().contains("master seed"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_round_trips_through_resume_config() {
    let dir = temp_dir("manifest");
    let config = SweepConfig::new(small(StudyKind::Chaos, 0xABCD), 2, 2);
    let first = run_sweep(config, Some(&dir)).unwrap();

    // What `dcnr sweep --resume` does: rebuild the config from the
    // manifest alone, then run against the same directory.
    let manifest = checkpoint::read_manifest(&dir).unwrap().expect("manifest");
    let rebuilt = manifest.to_config(1).unwrap();
    let resumed = run_sweep(rebuilt, Some(&dir)).unwrap();
    assert_eq!(resumed.cache_hits, 2, "everything served from shards");
    assert_eq!(resumed.rendered, first.rendered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_chaos_sweep_completes_with_replicas_failing_acceptance() {
    // A fault mix hostile enough that replicas fail their tolerance
    // gate: the sweep still completes, aggregates, and reports how many
    // replicas passed.
    let mut base = small(StudyKind::Chaos, 0x0DD5);
    base.chaos = dcnr_core::chaos::ChaosConfig::hostile(base.chaos.seed);
    let out = run_sweep(SweepConfig::new(base, 2, 2), None).unwrap();
    assert!(
        out.passed_replicas < 2,
        "the hostile mix must push drift outside tolerance"
    );
    assert!(!out.rows.is_empty());
}
