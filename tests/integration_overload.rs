//! End-to-end contract of the open-loop overload harness: `dcnr serve`
//! with deadline-aware admission control under `dcnr loadgen
//! --open-loop`. Covers the accounting invariants (every arrival is
//! dispatched or client-dropped; every dispatch is good, shed, or an
//! error), the two-phase overload bench record, and the health-probe
//! floor.

use dcnr_core::loadgen::{self, LoadgenOptions, OpenLoopOptions};
use dcnr_core::serve::{self, ServeOptions};
use dcnr_core::{json, Experiment};
use dcnr_server::AdmissionConfig;
use std::time::Duration;

/// A server with every admission-control knob enabled, sized so a 2×
/// overload actually queues: two workers, a shallow queue, a sojourn
/// target low enough to trip under pressure.
fn admission_server() -> serve::RunningServer {
    serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        admission: AdmissionConfig {
            sojourn_target: Some(Duration::from_millis(100)),
            priority_depth: 8,
            adaptive_retry_after: true,
        },
        ..ServeOptions::default()
    })
    .expect("bind an ephemeral port")
}

/// Options for a fast, deterministic overload run: the sustainable
/// rate is given (no calibration phase), the scenario is quarter
/// scale, and the verdict floors are generous — these tests assert the
/// harness's accounting, not a particular machine's performance.
fn overload_options(server: &serve::RunningServer) -> LoadgenOptions {
    LoadgenOptions {
        addr: server.addr().to_string(),
        artifacts: vec![Experiment::Fig15],
        scenario_seeds: 1,
        scenario_args: ["--scale", "0.25", "--edges", "40", "--vendors", "16"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        timeout: Duration::from_secs(10),
        open_loop: Some(OpenLoopOptions {
            rate: Some(400.0),
            overload: 2.0,
            arrivals: 300,
            max_in_flight: 32,
            goodput_floor: 0.02,
            p99_cap: Duration::from_secs(10),
            health_floor: 0.5,
        }),
        ..LoadgenOptions::default()
    }
}

fn temp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("dcnr-overload-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn overload_run_accounts_for_every_arrival_and_writes_the_bench() {
    let server = admission_server();
    let bench = temp_path("bench.json");
    let mut opts = overload_options(&server);
    opts.bench_json = Some(bench.clone());

    let report = loadgen::run_open_loop(&opts).expect("generous floors must pass");

    // Accounting invariants: nothing is lost and nothing is counted
    // twice. Every scheduled arrival was either dispatched or dropped
    // at the client-side in-flight bound, and every dispatched request
    // resolved to exactly one of good / shed / error.
    assert_eq!(report.arrivals, 300);
    assert_eq!(report.dispatched + report.client_dropped, report.arrivals);
    assert_eq!(report.good + report.shed + report.errors, report.dispatched);
    assert!(
        report.stale <= report.good,
        "stale responses are a subset of good"
    );
    assert!(
        report.good > 0,
        "some requests must be admitted: {}",
        report.rendered
    );
    assert_eq!(report.rate_source, "given");
    assert!((report.overload - 2.0).abs() < 1e-9);
    assert!(report.health_probes > 0, "the health prober must have run");
    assert!(report.verdict_pass());
    assert!(
        report.rendered.contains("overload verdict: PASS"),
        "{}",
        report.rendered
    );

    // The bench record has both phases and parses as strict JSON.
    let text = std::fs::read_to_string(&bench).expect("bench file written");
    let parsed = json::parse(&text).expect("bench record is valid JSON");
    let rendered = format!("{parsed:?}");
    assert!(text.contains("\"phase\": \"calibrate\""), "{text}");
    assert!(text.contains("\"phase\": \"overload\""), "{text}");
    assert!(text.contains("\"verdict\": \"pass\""), "{text}");
    assert!(rendered.contains("sustainable_rps"), "{rendered}");
    let _ = std::fs::remove_file(&bench);
    server.shutdown_and_join();
}

#[test]
fn forced_overload_sheds_yet_health_keeps_answering() {
    // One worker, a slow-ish render mix, and a hard offered rate well
    // beyond what one worker can serve: the run must shed (server 503s,
    // sojourn drops, or client-side bound drops) while the priority
    // lane keeps /healthz and /readyz answering.
    let server = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
        admission: AdmissionConfig {
            sojourn_target: Some(Duration::from_millis(50)),
            priority_depth: 8,
            adaptive_retry_after: true,
        },
        ..ServeOptions::default()
    })
    .expect("bind an ephemeral port");
    let mut opts = overload_options(&server);
    if let Some(ol) = opts.open_loop.as_mut() {
        ol.rate = Some(600.0);
        ol.overload = 3.0;
        ol.arrivals = 400;
        ol.max_in_flight = 24;
        ol.health_floor = 0.5;
    }
    let report = loadgen::run_open_loop(&opts).expect("accounting floors are generous");
    let refused = report.shed + report.client_dropped + report.errors;
    assert!(
        refused > 0,
        "a 1-worker server at 1800 req/s offered must refuse load somewhere: {}",
        report.rendered
    );
    assert!(report.health_probes > 0);
    assert!(
        report.health_ok as f64 >= report.health_probes as f64 * 0.5,
        "health must keep answering under overload: {}/{}",
        report.health_ok,
        report.health_probes
    );
    server.shutdown_and_join();
}
