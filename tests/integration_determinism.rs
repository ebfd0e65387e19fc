//! Determinism and seed-sensitivity guarantees, end to end.
//!
//! The whole study is a function of `(config, seed)`: identical inputs
//! must produce byte-identical outputs; different seeds must produce
//! different (but statistically equivalent) datasets; and component
//! streams must be isolated — perturbing one subsystem's draws must not
//! reshuffle another's.

use dcnr_core::backbone::BackboneSimConfig;
use dcnr_core::faults::hazard::HazardConfig;
use dcnr_core::faults::{FleetGrowth, HazardModel, IssueGenerator, RawIssue, RootCauseModel};
use dcnr_core::{InterDcStudy, IntraDcStudy, StudyConfig};

fn intra(seed: u64) -> IntraDcStudy {
    IntraDcStudy::run(StudyConfig {
        scale: 1.0,
        seed,
        ..Default::default()
    })
}

#[test]
fn intra_identical_seeds_identical_databases() {
    let a = intra(424242);
    let b = intra(424242);
    assert_eq!(a.db().records(), b.db().records());
    assert_eq!(a.issue_count(), b.issue_count());
}

#[test]
fn intra_different_seeds_differ_but_agree_statistically() {
    let a = intra(1);
    let b = intra(2);
    assert_ne!(a.db().records(), b.db().records());
    // Same calibration: totals within Poisson noise of each other.
    let (na, nb) = (a.db().len() as f64, b.db().len() as f64);
    assert!((na - nb).abs() / na < 0.25, "{na} vs {nb}");
}

#[test]
fn backbone_identical_seeds_identical_emails() {
    let cfg = BackboneSimConfig {
        seed: 777,
        ..Default::default()
    };
    let a = InterDcStudy::run(cfg);
    let b = InterDcStudy::run(cfg);
    assert_eq!(a.output().emails, b.output().emails);
}

#[test]
fn ablation_changes_only_the_escalation_side() {
    // Stream isolation: the ablation flips escalation decisions, but
    // the physical issue stream (count and timing) is identical because
    // the generator draws from its own streams.
    let base = StudyConfig {
        scale: 1.0,
        seed: 9,
        ..Default::default()
    };
    let ablated = StudyConfig {
        hazard: HazardConfig {
            automation_enabled: false,
            drain_policy_enabled: true,
        },
        ..base
    };
    let issues = |c: StudyConfig| -> Vec<RawIssue> {
        IssueGenerator::new(
            FleetGrowth::scaled(c.scale),
            HazardModel::with_config(c.hazard),
            RootCauseModel::paper(),
            c.seed,
        )
        .generate(c.window)
    };
    let (a, b) = (issues(base), issues(ablated));
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a, b, "the ablation must not shift the issue stream");
    }
}

#[test]
fn scale_preserves_rates() {
    // Scaling the fleet scales counts linearly but leaves rates alone.
    use dcnr_core::topology::DeviceType;
    let s1 = IntraDcStudy::run(StudyConfig {
        scale: 1.0,
        seed: 4,
        ..Default::default()
    });
    let s3 = IntraDcStudy::run(StudyConfig {
        scale: 3.0,
        seed: 4,
        ..Default::default()
    });
    let n1 = s1.db().len() as f64;
    let n3 = s3.db().len() as f64;
    assert!((n3 / n1 - 3.0).abs() < 0.5, "count ratio {}", n3 / n1);
    let r1 = s1.fig3_incident_rate()[&DeviceType::Core].get(2017);
    let r3 = s3.fig3_incident_rate()[&DeviceType::Core].get(2017);
    assert!((r1 - r3).abs() / r1 < 0.35, "rates {r1} vs {r3}");
}

#[test]
fn experiment_outcomes_are_reproducible() {
    use dcnr_core::{Experiment, RunContext, Scenario};
    let ctx1 = RunContext::new(Scenario {
        scale: 1.0,
        ..Scenario::intra(55)
    });
    let ctx2 = RunContext::new(Scenario {
        scale: 1.0,
        ..Scenario::intra(55)
    });
    for e in [
        Experiment::Table2,
        Experiment::Fig7,
        Experiment::Fig15,
        Experiment::Table4,
    ] {
        let a = ctx1.artifact(e);
        let b = ctx2.artifact(e);
        assert_eq!(a.rendered, b.rendered, "{e}");
        for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
            assert_eq!(ca.measured, cb.measured, "{e}: {}", ca.metric);
        }
    }
}
