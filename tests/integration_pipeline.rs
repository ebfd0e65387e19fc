//! Pipeline-boundary integration tests: the measurement boundaries the
//! paper describes are actually enforced in code — the SEV analysis
//! sees only what remediation escalates; the backbone analysis sees
//! only what the e-mail parser recovers.

use dcnr_core::backbone::{parse_email, render_email, BackboneSim, BackboneSimConfig, TicketDb};
use dcnr_core::faults::hazard::HazardConfig;
use dcnr_core::faults::{FleetGrowth, HazardModel, IssueGenerator, RootCauseModel};
use dcnr_core::remediation::{
    DeviceRepairStats, RemediationEngine, RemediationOutcome, Table1Report,
};
use dcnr_core::sim::StudyCalendar;
use dcnr_core::{IntraDcStudy, RunContext, Scenario, StudyConfig, StudyKind};

#[test]
fn incident_boundary_only_escalations_become_sevs() {
    let seed = 99;
    let gen = IssueGenerator::paper(1.0, seed);
    let issues = gen.generate(StudyCalendar::year(2017));
    let mut engine = RemediationEngine::new(HazardModel::paper(), seed);
    let outcomes = engine.triage_all(issues);
    let escalated = outcomes.iter().filter(|o| o.is_escalated()).count();

    let mut db = dcnr_core::sev::SevDb::new();
    let created = dcnr_core::service::SevGenerator::new(seed).ingest(&outcomes, &mut db);
    assert_eq!(created, escalated, "exactly the escalations became SEVs");
    assert_eq!(db.len(), escalated);

    // The vast majority of issues never reach the SEV database (§4.1).
    assert!(
        escalated * 20 < outcomes.len(),
        "{escalated} of {}",
        outcomes.len()
    );
}

#[test]
fn study_equals_the_staged_public_pipeline() {
    // `IntraDcStudy::run` triages in one pass and keeps only Table 1 and
    // the escalations; the staged calls keep every issue and outcome.
    // Both must give the same SEVs, the same Table 1 bits and the same
    // issue count, under every hazard configuration.
    let row_bits = |r: &DeviceRepairStats| {
        (
            r.device_type,
            (r.attempted, r.repaired, r.escalated),
            r.avg_priority.to_bits(),
            r.avg_wait_secs.to_bits(),
            r.avg_exec_secs.to_bits(),
        )
    };
    let hazards = [
        HazardConfig::default(),
        HazardConfig {
            automation_enabled: false,
            drain_policy_enabled: true,
        },
        HazardConfig {
            automation_enabled: true,
            drain_policy_enabled: false,
        },
    ];
    for hazard_config in hazards {
        for seed in [3, 17, 0xDC_2018] {
            let config = StudyConfig {
                scale: 0.5,
                seed,
                hazard: hazard_config,
                ..Default::default()
            };
            let study = IntraDcStudy::run(config);

            let hazard = HazardModel::with_config(config.hazard);
            let issues = IssueGenerator::new(
                FleetGrowth::scaled(config.scale),
                hazard.clone(),
                RootCauseModel::paper(),
                config.seed,
            )
            .generate(config.window);
            let outcomes = RemediationEngine::new(hazard, config.seed).triage_all(issues);
            let table1 = Table1Report::from_outcomes(&outcomes);
            let mut db = dcnr_core::sev::SevDb::new();
            dcnr_core::service::SevGenerator::new(config.seed).ingest(&outcomes, &mut db);

            let label = format!("{hazard_config:?} seed {seed}");
            assert_eq!(study.issue_count(), outcomes.len(), "{label}");
            assert!(study.db().records() == db.records(), "{label}: SEVs differ");
            let study_rows: Vec<_> = study
                .table1_automated_repair()
                .rows()
                .map(row_bits)
                .collect();
            let staged_rows: Vec<_> = table1.rows().map(row_bits).collect();
            assert_eq!(study_rows, staged_rows, "{label}: Table 1 bits differ");
            assert!(!db.is_empty(), "{label}");
        }
    }
}

#[test]
fn automation_shield_quantified() {
    // §4.1.2's what-if, end to end: disabling automation multiplies
    // 2017 incidents dramatically while the issue stream is unchanged.
    let on = IntraDcStudy::run(StudyConfig {
        scale: 1.0,
        seed: 5,
        ..Default::default()
    });
    let off = IntraDcStudy::run(StudyConfig {
        scale: 1.0,
        seed: 5,
        hazard: HazardConfig {
            automation_enabled: false,
            drain_policy_enabled: true,
        },
        ..Default::default()
    });
    assert_eq!(on.issue_count(), off.issue_count(), "same physical issues");
    let on_2017 = on.db().query().year(2017).count() as f64;
    let off_2017 = off.db().query().year(2017).count() as f64;
    assert!(
        off_2017 / on_2017 > 10.0,
        "automation shields: {on_2017} vs {off_2017} incidents"
    );
}

#[test]
fn drain_policy_ablation_raises_cluster_incidents() {
    let with = IntraDcStudy::run(StudyConfig {
        scale: 2.0,
        seed: 8,
        ..Default::default()
    });
    let without = IntraDcStudy::run(StudyConfig {
        scale: 2.0,
        seed: 8,
        hazard: HazardConfig {
            automation_enabled: true,
            drain_policy_enabled: false,
        },
        ..Default::default()
    });
    use dcnr_core::topology::DeviceType;
    let w = with
        .db()
        .query()
        .years(2015, 2017)
        .device_type(DeviceType::Csa)
        .count();
    let wo = without
        .db()
        .query()
        .years(2015, 2017)
        .device_type(DeviceType::Csa)
        .count();
    assert!(
        wo as f64 > 3.0 * w as f64,
        "drain policy matters: {w} vs {wo}"
    );
    // Fabric devices unaffected by the cluster-only policy.
    let fw = with
        .db()
        .query()
        .years(2015, 2017)
        .device_type(DeviceType::Fsw)
        .count();
    let fwo = without
        .db()
        .query()
        .years(2015, 2017)
        .device_type(DeviceType::Fsw)
        .count();
    assert_eq!(fw, fwo);
}

#[test]
fn email_boundary_round_trips_the_whole_stream() {
    // Every simulator e-mail survives render → parse → re-render.
    let out = BackboneSim::new(BackboneSimConfig {
        params: dcnr_core::backbone::topo::BackboneParams {
            edges: 20,
            vendors: 8,
            min_links_per_edge: 3,
        },
        seed: 12,
        ..Default::default()
    })
    .run();
    for (_, raw) in &out.emails {
        let parsed = parse_email(raw).expect("valid");
        let rerendered = render_email(&parsed);
        assert_eq!(
            raw, &rerendered,
            "render/parse is a bijection on the stream"
        );
    }
}

#[test]
fn corrupted_emails_are_dropped_not_fatal() {
    // Feed the ticket DB a stream with injected garbage; the good
    // tickets still land, the bad ones count as rejects.
    let out = BackboneSim::new(BackboneSimConfig {
        params: dcnr_core::backbone::topo::BackboneParams {
            edges: 10,
            vendors: 4,
            min_links_per_edge: 3,
        },
        seed: 13,
        ..Default::default()
    })
    .run();
    let mut db = TicketDb::new();
    let mut parse_failures = 0u64;
    for (i, (_, raw)) in out.emails.iter().enumerate() {
        if i % 10 == 3 {
            // Corrupt every tenth message.
            let garbled = format!("X-Event: EXPLODED\r\n{}", raw.escape_ascii());
            if parse_email(garbled.as_bytes()).is_err() {
                parse_failures += 1;
                continue;
            }
        }
        if let Ok(email) = parse_email(raw) {
            db.ingest(&email);
        }
    }
    assert!(parse_failures > 0);
    assert!(!db.is_empty());
    // Dropped completions leave open tickets; dropped starts cause
    // orphan completions that the DB rejects — all non-fatal.
    assert!(
        db.rejected > 0,
        "orphan completions were rejected, not crashed on"
    );
}

#[test]
fn full_experiment_suite_runs_on_shared_context() {
    // One context serves all 20 artifacts: the intra and backbone
    // studies each execute exactly once, whatever order artifacts ask.
    let scenario = Scenario {
        scale: 1.0,
        backbone: dcnr_core::backbone::topo::BackboneParams {
            edges: 40,
            vendors: 16,
            min_links_per_edge: 3,
        },
        ..Scenario::intra(21)
    };
    let ctx = RunContext::new(scenario);
    let mut rendered_total = 0;
    for a in dcnr_core::artifacts::registry() {
        rendered_total += ctx.artifact(a.id).rendered.len();
    }
    assert!(
        rendered_total > 5_000,
        "all experiments rendered substantial output"
    );
    // The engine's execute() covers the same artifacts for each driver.
    let intra_out = RunContext::new(scenario).execute();
    assert_eq!(intra_out.artifacts.len(), 15);
    let backbone_out = RunContext::new(Scenario {
        kind: StudyKind::Backbone,
        ..scenario
    })
    .execute();
    assert_eq!(backbone_out.artifacts.len(), 5);
}

#[test]
fn outcome_variants_partition_the_issue_stream() {
    let seed = 31;
    let gen = IssueGenerator::paper(1.0, seed);
    let issues = gen.generate(StudyCalendar::year(2016));
    let n = issues.len();
    let mut engine = RemediationEngine::new(HazardModel::paper(), seed);
    let outcomes = engine.triage_all(issues);
    assert_eq!(outcomes.len(), n);
    let (mut auto, mut manual, mut esc) = (0, 0, 0);
    for o in &outcomes {
        match o {
            RemediationOutcome::AutoRepaired(_) => auto += 1,
            RemediationOutcome::ManuallyResolved { .. } => manual += 1,
            RemediationOutcome::Escalated { .. } => esc += 1,
        }
    }
    assert_eq!(auto + manual + esc, n);
    assert!(auto > 0 && manual > 0 && esc > 0);
}
