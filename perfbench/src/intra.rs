//! The `intra` workload: one thread runs uncached intra-DC replicas at
//! fleet scale 0.15 back to back, each rendering Tables 1–2 and Figs 2–14.
//! Almost all the work is in `faults`, `remediation`, `service` and
//! `sev`. Each seed runs twice — once with no collector and once inside
//! `telemetry::installed(Telemetry::new_handle())`, the path
//! `dcnr --metrics` and `dcnr profile` take. The order is fixed (off,
//! then on): alternating it made every other no-collector replica follow
//! a collector replica, and the heap left behind split its wall time
//! into two modes whose median jumped between them from run to run.

use crate::measure::{timed, E2e, Layers, Stopwatch, Tally};
use dcnr_core::faults::{FleetGrowth, HazardModel, IssueGenerator, RootCauseModel};
use dcnr_core::remediation::RemediationEngine;
use dcnr_core::service::SevGenerator;
use dcnr_core::sev::SevDb;
use dcnr_core::sim::{derive_indexed_seed, derive_seed};
use dcnr_core::telemetry::{self, Telemetry};
use dcnr_core::{RunContext, Scenario, StudyConfig};
use std::time::Instant;

/// Fleet scale of every intra replica. On a host whose last-level cache
/// and memory are shared with other tenants, how far a replica's wall
/// time swings with their load follows its heap: the paper-default 10
/// (~85 MiB) and 2 (~22 MiB) swung by a third between runs, 0.5
/// (~8 MiB) by up to two thirds under heavy load, and 0.15 by a seventh
/// in the same stretch of load.
pub const SCALE: f64 = 0.15;

fn scenario(seed: u64) -> Scenario {
    Scenario {
        scale: SCALE,
        ..Scenario::intra(seed)
    }
}

/// One uncached replica: context construction, `try_execute` and
/// teardown, all timed. Returns the wall time and the rendered report.
fn replica(scenario: Scenario, collector: bool) -> (f64, Result<String, String>) {
    let started = Instant::now();
    let result = {
        let _guard = collector.then(|| telemetry::installed(Telemetry::new_handle()));
        match RunContext::new(scenario).try_execute() {
            Ok(out) if out.passed => Ok(out.rendered),
            Ok(_) => Err(format!("seed {:#x}: report did not pass", scenario.seed)),
            Err(e) => Err(format!("seed {:#x}: {e}", scenario.seed)),
        }
    };
    (started.elapsed().as_secs_f64(), result)
}

/// Lazy statics plus one untimed replica, so timing starts warm.
pub fn setup(seed: u64, tally: &mut Tally) {
    let (_, result) = replica(scenario(derive_seed(seed, "perfbench.intra.warmup")), false);
    tally.check(result.is_ok(), || format!("intra warm-up: {result:?}"));
}

/// Runs seed pairs until `deadline`, checking that each seed's
/// collector-on and collector-off reports are byte-identical.
pub fn run(seed: u64, deadline: Instant, tally: &mut Tally) -> E2e {
    let mut e2e = E2e::default();
    let started = Instant::now();
    let mut pairs = 0u64;
    while Instant::now() < deadline {
        let s = scenario(derive_indexed_seed(seed, "perfbench.intra", pairs));
        let mut reports = Vec::with_capacity(2);
        for collector in [false, true] {
            let (secs, result) = replica(s, collector);
            match &result {
                Ok(_) if collector => e2e.collector.push(secs),
                Ok(_) => e2e.plain.push(secs),
                Err(_) => {}
            }
            tally.op(result.as_ref().map(|_| ()).map_err(Clone::clone));
            reports.push(result);
        }
        if let [Ok(a), Ok(b)] = &reports[..] {
            tally.check(a == b, || {
                format!(
                    "seed {:#x}: collector-on and collector-off reports differ",
                    s.seed
                )
            });
        }
        pairs += 1;
    }
    e2e.wall = started.elapsed().as_secs_f64();
    e2e.notes.push(("seed_pairs", pairs.to_string()));
    e2e
}

/// What the three pipeline stages produced, for cross-checks.
struct Stages {
    issues: usize,
    escalated: usize,
    records: usize,
}

/// The intra pipeline rebuilt from public calls, each stage timed at
/// its crate boundary: `faults` (fleet, hazard, issue generation),
/// `remediation` (triage) and `service` (SEV ingest into a `SevDb`).
fn stages(config: &StudyConfig, watches: &mut [Stopwatch; 3]) -> Stages {
    let [faults, remediation, service] = watches;
    let (hazard, issues) = faults.time(|| {
        let hazard = HazardModel::with_config(config.hazard);
        let generator = IssueGenerator::new(
            FleetGrowth::scaled(config.scale),
            hazard.clone(),
            RootCauseModel::paper(),
            config.seed,
        );
        (hazard, generator.generate(config.window))
    });
    let issue_count = issues.len();
    let outcomes =
        remediation.time(|| RemediationEngine::new(hazard, config.seed).triage_all(issues));
    let escalated = outcomes.iter().filter(|o| o.is_escalated()).count();
    let mut db = SevDb::new();
    service.time(|| SevGenerator::new(config.seed).ingest(&outcomes, &mut db));
    Stages {
        issues: issue_count,
        escalated,
        records: db.len(),
    }
}

/// One traced round. The untraced replica (`RunContext::try_execute`)
/// is the end-to-end reference and leaves its study cached; the traced
/// replica is the rebuilt pipeline plus `RunContext::execute` on that
/// cached study (the render of every plan artifact). Teardown is outside
/// both. The rebuilt stages then run again under a collector.
pub fn trace_round(seed: u64, layers: &mut Layers, tally: &mut Tally) {
    let scenario = scenario(seed);
    let ctx = RunContext::new(scenario);
    let (reference, untraced) = timed(|| ctx.try_execute());
    let reference = match reference {
        Ok(out) => out,
        Err(e) => return tally.op(Err(format!("intra trace seed {seed:#x}: {e}"))),
    };
    let config = scenario.intra_config();

    let mut watches = [Stopwatch::default(); 3];
    let (built, glue) = timed(|| stages(&config, &mut watches));
    let (rendered, render) = timed(|| ctx.execute());
    let traced = glue + render;
    let sevs = ctx.intra().db().len();
    tally.op(if built.records != sevs {
        Err(format!(
            "intra trace seed {seed:#x}: rebuilt pipeline has {} SEVs, IntraDcStudy::run has {sevs}",
            built.records
        ))
    } else if rendered.rendered != reference.rendered {
        Err(format!(
            "intra trace seed {seed:#x}: cached re-render differs"
        ))
    } else {
        Ok(())
    });

    let [faults, remediation, service] = watches;
    layers.add("faults.generate_s", faults.0);
    layers.add("faults.issues", built.issues as f64);
    layers.add("remediation.triage_s", remediation.0);
    layers.add(
        "remediation.escalated_ratio",
        built.escalated as f64 / built.issues.max(1) as f64,
    );
    layers.add("service.sev_ingest_s", service.0);
    layers.add("sev.records", built.records as f64);
    layers.add("core.render_s", render);
    layers.add(
        "intra.unattributed_s",
        traced - faults.0 - remediation.0 - service.0 - render,
    );
    layers.add("intra.traced_s", traced);
    layers.add("intra.tracing_overhead_s", traced - untraced);

    let mut watches = [Stopwatch::default(); 3];
    let with_collector = {
        let _guard = telemetry::installed(Telemetry::new_handle());
        stages(&config, &mut watches)
    };
    tally.op(if with_collector.records == sevs {
        Ok(())
    } else {
        Err(format!(
            "intra trace seed {seed:#x}: collector changed the SEV count"
        ))
    });
    let [faults, remediation, service] = watches;
    layers.add("faults.generate_telemetry_s", faults.0);
    layers.add("remediation.triage_telemetry_s", remediation.0);
    layers.add("service.sev_ingest_telemetry_s", service.0);
}
