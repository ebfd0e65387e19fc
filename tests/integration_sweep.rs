//! Scenario-engine and sweep determinism guarantees, end to end.
//!
//! The sweep's contract is that parallelism is invisible: the same
//! scenario and seed produce byte-identical reports whether one worker
//! or eight execute the replicas, and the aggregated bands are a
//! function of (scenario, seeds) alone.

use dcnr_core::{run_sweep, RunContext, Scenario, StudyKind, SweepConfig};

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
    let serial = run_sweep(SweepConfig::new(base, 4, 1)).unwrap();
    let parallel = run_sweep(SweepConfig::new(base, 4, 8)).unwrap();
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
    let a = run_sweep(SweepConfig::new(base, 3, 1)).unwrap();
    let b = run_sweep(SweepConfig::new(base, 3, 3)).unwrap();
    assert_eq!(a.rendered, b.rendered);
}

#[test]
fn sweep_bands_quantify_cross_seed_spread() {
    let out = run_sweep(SweepConfig::new(small(StudyKind::Backbone, 0xBA_4D), 4, 2)).unwrap();
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
    let a = run_sweep(SweepConfig::new(small(StudyKind::Backbone, 1), 3, 2)).unwrap();
    let b = run_sweep(SweepConfig::new(small(StudyKind::Backbone, 2), 3, 2)).unwrap();
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
