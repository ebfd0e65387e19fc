//! End-to-end guarantees of the topology-zoo survivability study: the
//! scenario renders both `surv.*` artifacts deterministically, the
//! element-class ranking flip is visible in the report, and multi-seed
//! sweeps carry cross-seed bands with checkpoint/resume byte-identity.

use dcnr_core::survivability::{ElementClass, SurvivabilityConfig, SurvivabilityStudy, FRACTIONS};
use dcnr_core::{checkpoint, run_sweep, RunContext, Scenario, StudyKind, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A quarter-scale survivability scenario: every zoo member is tiny
/// (the fat-tree collapses to k=4, DCell to n=2) so the full sweep and
/// lifespan replay run in well under a second.
fn quarter(seed: u64) -> Scenario {
    Scenario {
        scale: 0.25,
        topology: "dcell",
        ..Scenario::survivability(seed)
    }
}

/// A unique temp directory per call: tests run in parallel in one
/// process, so the pid alone is not enough.
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcnr-surv-{tag}-{}-{n}", std::process::id()))
}

#[test]
fn scenario_renders_both_surv_artifacts_deterministically() {
    let a = RunContext::new(quarter(0x51)).execute();
    let b = RunContext::new(quarter(0x51)).execute();
    assert_eq!(a.rendered, b.rendered, "same scenario, same bytes");
    assert!(a.passed);
    for line in [
        "surv.ranking: zoo survivability vs failed fraction",
        "surv.lifespan: Monte-Carlo fleet lifespan",
        "survivability ranking @30% switch loss:",
        "lifespan band [lo hi]",
        "lifespan on `dcell`",
    ] {
        assert!(
            a.rendered.contains(line),
            "missing {line:?}:\n{}",
            a.rendered
        );
    }
    // A different master seed draws different failure sets.
    let c = RunContext::new(quarter(0x52)).execute();
    assert_ne!(a.rendered, c.rendered);
}

#[test]
fn element_class_rankings_flip_between_switch_and_server_loss() {
    // The headline result of the zoo (cf. arXiv:1510.02735 §4): under
    // switch loss the server-centric DCell out-survives the fat-tree
    // (servers relay around dead switches), while under server loss the
    // ranking flips — fat-tree pairs only die with their endpoints, so
    // its curve is the no-relay baseline, and DCell falls below it as
    // dead servers take relay capacity with them.
    let study = SurvivabilityStudy::run(SurvivabilityConfig {
        scale: 0.25,
        seed: 11,
        topology: "fat-tree",
    });
    assert!(study.ranking_flip(), "ranking flip must hold");

    let by_switch = study.ranking(ElementClass::Switch, FRACTIONS[3]);
    let by_server = study.ranking(ElementClass::Server, FRACTIONS[3]);
    assert_ne!(
        by_switch, by_server,
        "element-class rankings must differ: switch {by_switch:?} vs server {by_server:?}"
    );

    // And the flip survives into the rendered artifact.
    let out = RunContext::new(quarter(0xF11)).execute();
    assert!(
        out.rendered
            .contains("ranking flip (dcell vs fat-tree, switch loss vs server loss): true"),
        "{}",
        out.rendered
    );
}

#[test]
fn survivability_sweep_is_byte_identical_for_any_worker_count() {
    let base = quarter(0x5EED);
    let serial = run_sweep(SweepConfig::new(base, 4, 1), None).unwrap();
    let parallel = run_sweep(SweepConfig::new(base, 4, 2), None).unwrap();
    assert_eq!(serial.rendered, parallel.rendered);
    assert_eq!(serial.replica_seeds, parallel.replica_seeds);

    // The sweep carries genuine cross-seed bands: every surv metric was
    // measured in all four replicas, and the seeded failure draws give
    // at least one metric nonzero spread.
    let surv_rows: Vec<_> = serial
        .rows
        .iter()
        .filter(|r| r.metric.starts_with("surv."))
        .collect();
    assert!(!surv_rows.is_empty(), "sweep must aggregate surv.* metrics");
    for row in &surv_rows {
        assert_eq!(row.band.n, 4, "{}", row.metric);
    }
    assert!(surv_rows.iter().any(|r| r.band.stddev > 0.0));
    // The structural invariants hold in every replica, so their bands
    // are degenerate at 1.0.
    let flip = surv_rows
        .iter()
        .find(|r| r.metric.contains("ranking flip"))
        .expect("ranking-flip metric is swept");
    assert_eq!(flip.band.mean, 1.0, "flip holds across all seeds");
}

#[test]
fn survivability_checkpoint_resumes_byte_identically() {
    let config = SweepConfig::new(quarter(0xC4), 3, 2);
    let dir = temp_dir("resume");
    let first = run_sweep(config, Some(&dir)).unwrap();
    for i in 0..3 {
        assert!(checkpoint::shard_path(&dir, i).exists(), "shard {i}");
    }

    // Drop one shard; the resume re-executes only that replica and
    // renders the same bytes.
    std::fs::remove_file(checkpoint::shard_path(&dir, 1)).unwrap();
    let resumed = run_sweep(config, Some(&dir)).unwrap();
    assert_eq!(first.rendered, resumed.rendered);
    assert_eq!(resumed.cache_hits, 2, "two replicas served from shards");
    std::fs::remove_dir_all(&dir).ok();
}

/// Renders `dcnr survivability --scale 0.25 [--topology ID]` in process
/// and compares it with the committed golden named `golden`.
fn assert_cli_render_matches(topology: Option<&'static str>, golden: &str, name: &str) {
    let base = Scenario::cli_default(StudyKind::Survivability);
    let rendered = RunContext::new(Scenario {
        scale: 0.25,
        topology: topology.unwrap_or(base.topology),
        ..base
    })
    .execute()
    .rendered;
    let first_diff = rendered
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want)
        .map(|i| i + 1);
    let flag = topology.map_or(String::new(), |t| format!(" --topology {t}"));
    assert!(
        rendered == golden,
        "the survivability report drifted from tests/golden/{name} \
         (first differing line: {first_diff:?}); if the change is intended, \
         regenerate it with `cargo run --release -q --bin dcnr -- survivability \
         --scale 0.25{flag} > tests/golden/{name}`"
    );
}

#[test]
fn survivability_report_bytes_match_the_committed_golden() {
    // Every ranking sample reads the forwarding state's reachability
    // labels after an incremental apply, so these bytes pin the labels
    // as well as the ECMP path counts behind the capacity column.
    assert_cli_render_matches(
        None,
        include_str!("golden/survivability_scale0.25.txt"),
        "survivability_scale0.25.txt",
    );
}

#[test]
fn dcell_survivability_report_bytes_match_the_committed_golden() {
    assert_cli_render_matches(
        Some("dcell"),
        include_str!("golden/survivability_dcell_scale0.25.txt"),
        "survivability_dcell_scale0.25.txt",
    );
}
