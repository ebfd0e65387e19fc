//! End-to-end guarantees of the sweep supervision layer: panic
//! isolation, watchdog deadlines, retry with fresh seeds, degraded-mode
//! aggregation, and checkpoint/resume byte-identity.

use dcnr_core::{
    checkpoint, run_supervised, run_sweep, FaultMode, FaultPlan, FaultSpec, ReplicaStatus,
    Scenario, StudyKind, SupervisorConfig, SweepConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
    std::env::temp_dir().join(format!("dcnr-supervision-{tag}-{}-{n}", std::process::id()))
}

fn fault(replica: usize, mode: FaultMode, once: bool) -> FaultSpec {
    FaultSpec {
        replica,
        mode,
        once,
    }
}

#[test]
fn panic_and_hang_degrade_the_sweep_without_moving_survivors() {
    let base = small(StudyKind::Backbone, 0xFA_57);
    let config = SweepConfig::new(base, 4, 4);
    let healthy = run_sweep(config).unwrap();

    // Replica 1 panics on every attempt; replica 2 hangs until the
    // watchdog abandons it. The deadline must comfortably exceed a
    // healthy replica's runtime (~1s here) — the watchdog cannot tell
    // slow from hung.
    let sup = SupervisorConfig {
        deadline: Some(Duration::from_secs(10)),
        retries: 1,
        faults: FaultPlan::new(vec![
            fault(1, FaultMode::Panic, false),
            fault(2, FaultMode::Hang, false),
        ]),
        ..SupervisorConfig::default()
    };
    let degraded = run_supervised(config, &sup).unwrap();

    assert_eq!(degraded.failed_replicas, 2);
    assert_eq!(degraded.completed_replicas(), 2);
    assert!(matches!(
        degraded.outcomes[1].status,
        ReplicaStatus::Quarantined { .. }
    ));
    assert_eq!(degraded.outcomes[1].retries, 1, "panic was retried once");
    assert!(matches!(
        degraded.outcomes[2].status,
        ReplicaStatus::DeadlineKilled { .. }
    ));
    assert!(degraded.supervision.contains("quarantined"));
    assert!(degraded.supervision.contains("deadline-killed"));
    assert!(degraded.rendered.contains("DEGRADED"));

    // The survivors' bands cover exactly the healthy replicas 0 and 3:
    // the same order statistics, untouched by the failures elsewhere.
    assert_eq!(degraded.rows.len(), healthy.rows.len());
    for (d, h) in degraded.rows.iter().zip(&healthy.rows) {
        assert_eq!(d.metric, h.metric);
        assert_eq!(d.band.n, 2, "{}", d.metric);
        assert_eq!(d.missing, 2, "{}", d.metric);
        assert!(
            d.band.min >= h.band.min && d.band.max <= h.band.max,
            "{}: survivor range must be inside the full range",
            d.metric
        );
    }

    // The gate: two failures pass a budget of 2, fail a budget of 1.
    assert!(degraded.gate(2).is_ok());
    assert_eq!(degraded.gate(1).unwrap_err().kind(), "failed");
}

#[test]
fn transient_panic_is_retried_on_a_fresh_seed_and_succeeds() {
    let base = small(StudyKind::Backbone, 0x7E57);
    let config = SweepConfig::new(base, 3, 2);
    let sup = SupervisorConfig {
        faults: FaultPlan::new(vec![fault(0, FaultMode::Panic, true)]),
        ..SupervisorConfig::default()
    };
    let out = run_supervised(config, &sup).unwrap();
    assert_eq!(out.failed_replicas, 0);
    let ReplicaStatus::Completed {
        attempt, cached, ..
    } = out.outcomes[0].status
    else {
        panic!("replica 0 must complete: {:?}", out.outcomes[0].status);
    };
    assert_eq!(attempt, 1, "succeeded on the retry");
    assert!(!cached);
    assert_eq!(out.outcomes[0].retries, 1);
    assert!(
        out.supervision.contains("after 1 retry"),
        "{}",
        out.supervision
    );
    // Every metric has all three replicas: the retried one contributed
    // (under its fresh derived seed).
    for row in &out.rows {
        assert_eq!(row.band.n, 3, "{}", row.metric);
    }
}

#[test]
fn zero_retries_quarantines_on_first_panic() {
    let base = small(StudyKind::Backbone, 0xBEEF);
    let config = SweepConfig::new(base, 2, 2);
    let sup = SupervisorConfig {
        retries: 0,
        faults: FaultPlan::new(vec![fault(0, FaultMode::Panic, true)]),
        ..SupervisorConfig::default()
    };
    let out = run_supervised(config, &sup).unwrap();
    assert_eq!(out.failed_replicas, 1);
    assert_eq!(out.outcomes[0].retries, 0);
    let ReplicaStatus::Quarantined { error } = &out.outcomes[0].status else {
        panic!("expected quarantine");
    };
    assert_eq!(error.kind(), "panic");
    assert!(error.to_string().contains("injected fault"), "{error}");
}

#[test]
fn checkpointed_sweep_resumes_byte_identically_and_only_reruns_missing() {
    let base = small(StudyKind::Backbone, 0xC0DE);
    let config = SweepConfig::new(base, 4, 2);
    let dir = temp_dir("resume");

    let sup = SupervisorConfig {
        checkpoint: Some(dir.clone()),
        ..SupervisorConfig::default()
    };
    let first = run_supervised(config, &sup).unwrap();
    assert_eq!(first.cache_hits(), 0);
    for i in 0..4 {
        assert!(
            checkpoint::shard_path(&dir, i).exists(),
            "shard {i} must be persisted"
        );
    }

    // Simulate an interrupted sweep: drop one shard, then resume.
    std::fs::remove_file(checkpoint::shard_path(&dir, 2)).unwrap();
    let resumed = run_supervised(config, &sup).unwrap();
    assert_eq!(resumed.cache_hits(), 3, "only replica 2 re-executes");
    assert_eq!(resumed.rendered, first.rendered, "byte-identical aggregate");
    assert_eq!(first.failed_replicas, 0);
    assert_eq!(resumed.failed_replicas, 0);

    // A corrupt shard is ignored with a note, not fatal.
    std::fs::write(checkpoint::shard_path(&dir, 0), "{ not json").unwrap();
    let healed = run_supervised(config, &sup).unwrap();
    assert_eq!(healed.rendered, first.rendered);
    assert!(healed.outcomes[0].cache_note.is_some(), "shard was ignored");
    assert!(healed.supervision.contains("invalid shard"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_shards_from_a_degraded_run_serve_a_healthy_resume() {
    // A sweep with one deterministic panic, checkpointed; re-running
    // without the fault completes only the quarantined replica and
    // produces the same bytes as a never-faulted checkpointed run.
    let base = small(StudyKind::Backbone, 0xD1CE);
    let config = SweepConfig::new(base, 3, 2);
    let dir = temp_dir("degraded");

    let faulty = SupervisorConfig {
        retries: 0,
        checkpoint: Some(dir.clone()),
        faults: FaultPlan::new(vec![fault(1, FaultMode::Panic, false)]),
        ..SupervisorConfig::default()
    };
    let degraded = run_supervised(config, &faulty).unwrap();
    assert_eq!(degraded.failed_replicas, 1);
    assert!(!checkpoint::shard_path(&dir, 1).exists());

    let clean = SupervisorConfig {
        checkpoint: Some(dir.clone()),
        ..SupervisorConfig::default()
    };
    let recovered = run_supervised(config, &clean).unwrap();
    assert_eq!(recovered.failed_replicas, 0);
    assert_eq!(recovered.cache_hits(), 2);

    let reference = run_sweep(config).unwrap();
    assert_eq!(recovered.rendered, reference.rendered);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_dir_rejects_a_different_sweep() {
    let dir = temp_dir("mismatch");
    let sup = SupervisorConfig {
        checkpoint: Some(dir.clone()),
        ..SupervisorConfig::default()
    };
    let a = SweepConfig::new(small(StudyKind::Backbone, 1), 2, 1);
    run_supervised(a, &sup).unwrap();
    let b = SweepConfig::new(small(StudyKind::Backbone, 2), 2, 1);
    let err = run_supervised(b, &sup).unwrap_err();
    assert_eq!(err.kind(), "checkpoint");
    assert!(err.to_string().contains("master seed"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_round_trips_through_resume_config() {
    let dir = temp_dir("manifest");
    let config = SweepConfig::new(small(StudyKind::Chaos, 0xABCD), 2, 2);
    let sup = SupervisorConfig {
        checkpoint: Some(dir.clone()),
        ..SupervisorConfig::default()
    };
    let first = run_supervised(config, &sup).unwrap();

    // What `dcnr sweep --resume` does: rebuild the config from the
    // manifest alone, then run against the same directory.
    let manifest = checkpoint::read_manifest(&dir).unwrap().expect("manifest");
    let rebuilt = manifest.to_config(1).unwrap();
    let resumed = run_supervised(rebuilt, &sup).unwrap();
    assert_eq!(resumed.cache_hits(), 2, "everything served from shards");
    assert_eq!(resumed.rendered, first.rendered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_chaos_sweep_survives_under_supervision() {
    // The supervisor against the repo's own chaos machinery: a fault
    // mix hostile enough that replicas fail their tolerance gate, yet
    // the sweep still completes, aggregates, and reports honestly.
    let mut base = small(StudyKind::Chaos, 0x0DD5);
    base.chaos = dcnr_core::chaos::ChaosConfig::hostile(base.chaos.seed);
    let out = run_sweep(SweepConfig::new(base, 2, 2)).unwrap();
    assert_eq!(out.failed_replicas, 0, "failing acceptance is not a crash");
    assert!(
        out.passed_replicas < 2,
        "the hostile mix must push drift outside tolerance"
    );
    assert!(!out.rows.is_empty());
    assert!(out.gate(0).is_ok(), "acceptance failures are not failures");
}
