//! The telemetry subsystem's hard invariant, end to end: **turning
//! telemetry on must not perturb a single RNG draw**. Reports and sweep
//! artifacts must be byte-identical with and without a collector
//! installed, merged sweep totals must be independent of the worker
//! count, the profile must attribute issue generation per device type,
//! and an intra study's counters and trace must account for every
//! issue, repair and SEV it recorded.

use dcnr_core::faults::{FleetGrowth, HazardModel, IssueGenerator, RootCauseModel};
use dcnr_core::remediation::{RemediationEngine, RemediationOutcome};
use dcnr_core::sim::SimTime;
use dcnr_core::telemetry::metrics::Key;
use dcnr_core::telemetry::trace::TraceBuffer;
use dcnr_core::telemetry::{installed, Telemetry};
use dcnr_core::{phase_rows, run_sweep, RunContext, Scenario, StudyKind, SweepConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
fn scenario_reports_are_byte_identical_with_telemetry_on() {
    for kind in [StudyKind::Intra, StudyKind::Backbone, StudyKind::Chaos] {
        let plain = RunContext::new(small(kind, 0x7E1E)).execute();
        let handle = Telemetry::new_handle();
        let observed = {
            let _guard = installed(handle.clone());
            RunContext::new(small(kind, 0x7E1E)).execute()
        };
        assert_eq!(plain.rendered, observed.rendered, "{kind}");
        assert_eq!(plain.passed, observed.passed, "{kind}");
        let (metrics, _) = handle.snapshots();
        assert!(
            !metrics.is_empty(),
            "{kind}: the instrumented run must actually record metrics"
        );
    }
}

#[test]
fn sweep_output_is_byte_identical_with_telemetry_on() {
    let base = small(StudyKind::Backbone, 0xBEE5);
    let plain = run_sweep(SweepConfig::new(base, 3, 2), None).unwrap();
    let handle = Telemetry::new_handle();
    let observed = {
        let _guard = installed(handle);
        run_sweep(SweepConfig::new(base, 3, 2), None).unwrap()
    };
    assert_eq!(plain.rendered, observed.rendered);
    assert!(plain.replica_metrics.is_none(), "no collector, no folding");
    let merged = observed.replica_metrics.expect("collector installed");
    assert!(
        merged.counter_value("dcnr_backbone_fiber_cuts_total", &[]) > 0,
        "replica counters must survive the fold"
    );
    let trace = observed.replica_trace.expect("collector installed");
    assert!(trace.seen > 0, "fiber cuts must be traced");
    assert!(trace.head.iter().all(|e| e.kind == "fiber_cut"));
}

#[test]
fn merged_sweep_totals_are_independent_of_worker_count() {
    let base = small(StudyKind::Intra, 0x90B5);
    let run_with_jobs = |jobs: usize| {
        let handle = Telemetry::new_handle();
        let out = {
            let _guard = installed(handle);
            run_sweep(SweepConfig::new(base, 3, jobs), None).unwrap()
        };
        (
            out.replica_metrics.expect("collector installed"),
            out.replica_trace.expect("collector installed"),
        )
    };
    let (serial_metrics, serial_trace) = run_with_jobs(1);
    let (parallel_metrics, parallel_trace) = run_with_jobs(3);
    // Exact equality for everything event-driven. Phase histograms
    // hold wall-clock durations — the one legitimately nondeterministic
    // series — so for them only the observation counts must agree.
    assert_eq!(serial_metrics.counters, parallel_metrics.counters);
    assert_eq!(serial_metrics.gauges, parallel_metrics.gauges);
    let keys: Vec<_> = serial_metrics.histograms.keys().collect();
    assert_eq!(keys, parallel_metrics.histograms.keys().collect::<Vec<_>>());
    for (key, serial_hist) in &serial_metrics.histograms {
        assert_eq!(
            serial_hist.count, parallel_metrics.histograms[key].count,
            "{key:?}"
        );
    }
    assert_eq!(serial_trace, parallel_trace);
    assert!(
        serial_metrics.counter_value("dcnr_faults_issues_total", &[("device_type", "rsw")]) > 0,
        "per-type issue counters must be present"
    );
}

#[test]
fn profile_names_issue_generation_per_device_type() {
    let handle = Telemetry::new_handle();
    {
        let _guard = installed(handle.clone());
        RunContext::new(small(StudyKind::Intra, 0x1DEA)).execute();
    }
    let (metrics, _) = handle.snapshots();
    let rows = phase_rows(&metrics);
    let phases: Vec<&str> = rows.iter().map(|r| r.phase.as_str()).collect();
    for expected in [
        "intra.fleet_build",
        "intra.remediation",
        "intra.render",
        "intra.sev_analysis",
    ] {
        assert!(phases.contains(&expected), "missing {expected}: {phases:?}");
    }
    let per_type: Vec<&&str> = phases
        .iter()
        .filter(|p| p.starts_with("intra.issue_gen."))
        .collect();
    assert!(
        per_type.len() >= 5,
        "issue generation must be attributed per device type, got {phases:?}"
    );
    assert!(phases.windows(2).all(|w| w[0] <= w[1]), "rows sorted");
    for row in &rows {
        assert!(row.calls > 0, "{}: zero-call phase in profile", row.phase);
    }
}

#[test]
fn telemetry_off_records_nothing_and_costs_no_formatting() {
    // With no collector on this thread, a full study leaves no global
    // residue: a later install starts from an empty registry.
    RunContext::new(small(StudyKind::Intra, 0x0FF)).execute();
    let handle = Telemetry::new_handle();
    let _guard = installed(handle.clone());
    let (metrics, trace) = handle.snapshots();
    assert!(metrics.is_empty());
    assert!(trace.is_empty());
}

#[test]
fn intra_counters_and_trace_account_for_every_event_exactly() {
    // Wide enough that the tail reaches back past the SEV events into
    // the repair dispatches, so all four intra kinds are retained.
    let handle = Arc::new(Telemetry {
        metrics: Default::default(),
        trace: TraceBuffer::with_capacity(4096),
    });
    let ctx = RunContext::new(Scenario {
        scale: 0.25,
        ..Scenario::intra(0xACC7)
    });
    {
        let _guard = installed(handle.clone());
        ctx.intra();
    }
    let study = ctx.intra();
    let (metrics, trace) = handle.snapshots();

    // The study keeps no per-issue outcome, so they are rebuilt through
    // the staged public pipeline, with no collector installed.
    let config = ctx.scenario().intra_config();
    let hazard = HazardModel::with_config(config.hazard);
    let issues = IssueGenerator::new(
        FleetGrowth::scaled(config.scale),
        hazard.clone(),
        RootCauseModel::paper(),
        config.seed,
    )
    .generate(config.window);
    let outcomes = RemediationEngine::new(hazard, config.seed).triage_all(issues);
    assert_eq!(outcomes.len(), study.issue_count());

    // Every per-event series, counted from the study's own records.
    let mut expected: BTreeMap<Key, u64> = BTreeMap::new();
    let mut count = |name: &str, label: &str, value: &str| {
        *expected
            .entry(Key::new(name, &[(label, value)]))
            .or_default() += 1;
    };
    let mut auto_repaired = 0;
    for outcome in &outcomes {
        let device_type = outcome.issue().device_type.name_prefix();
        count("dcnr_faults_issues_total", "device_type", device_type);
        let kind = match outcome {
            RemediationOutcome::AutoRepaired(r) => {
                auto_repaired += 1;
                let action = r.action.to_string();
                count("dcnr_remediation_actions_total", "action", &action);
                "auto_repaired"
            }
            RemediationOutcome::ManuallyResolved { .. } => "manually_resolved",
            RemediationOutcome::Escalated { .. } => "escalated",
        };
        count("dcnr_remediation_outcomes_total", "outcome", kind);
    }
    for record in study.db().iter() {
        let severity = record.severity.to_string();
        count("dcnr_service_sevs_total", "severity", &severity);
    }
    assert_eq!(metrics.counters, expected);
    assert!(
        metrics.counters.values().all(|&v| v > 0),
        "series resolve on first use, so none is zero: {:?}",
        metrics.counters
    );

    // One trace event per issue and per automated repair, two per SEV.
    let (issues, sevs) = (outcomes.len(), study.db().len());
    assert!(auto_repaired > 0 && sevs > 0);
    assert_eq!(trace.seen, (issues + auto_repaired + 2 * sevs) as u64);

    // Every retained event's detail, rebuilt from the same records and
    // matched by time and kind (distinct events may share both).
    let mut details: BTreeMap<(u64, &str), BTreeSet<String>> = BTreeMap::new();
    let mut expect = |at: SimTime, kind, detail| {
        details
            .entry((at.as_secs(), kind))
            .or_default()
            .insert(detail);
    };
    for outcome in &outcomes {
        let issue = outcome.issue();
        let name = issue.device_name();
        let cause = issue.root_cause;
        expect(issue.at, "device_failure", format!("{name}: {cause}"));
        if let RemediationOutcome::AutoRepaired(r) = outcome {
            let (action, priority) = (r.action, r.priority);
            let detail = format!("{name}: {action} (priority {priority})");
            expect(issue.at, "repair_dispatch", detail);
        }
    }
    for record in study.db().iter() {
        let (sev, name) = (record.severity, &record.device_name);
        let duration = record.resolved_at - record.opened_at;
        expect(record.opened_at, "sev_open", format!("{sev} on {name}"));
        let detail = format!("{sev} on {name} after {duration}");
        expect(record.resolved_at, "sev_close", detail);
    }
    let mut kinds = BTreeSet::new();
    for event in trace.head.iter().chain(&trace.tail) {
        let expected = details.get(&(event.at_secs, event.kind));
        assert!(
            expected.is_some_and(|d| d.contains(&event.detail)),
            "{event:?} matches no record; expected one of {expected:?}"
        );
        kinds.insert(event.kind);
    }
    assert!(trace.dropped() > 0, "the ring must have evicted events");
    assert_eq!(
        kinds,
        BTreeSet::from(["device_failure", "repair_dispatch", "sev_close", "sev_open"])
    );
}
