//! End-to-end contract of `dcnr serve`: byte-identity between the HTTP
//! surface and the CLI rendering path (cold cache, warm cache, and
//! under concurrent clients), saturation shedding with 503 +
//! `Retry-After` instead of hangs, a strictly validated Prometheus
//! `/metrics` endpoint, checkpoint-directory sweep reports, and
//! graceful drain via `/admin/shutdown`.

use dcnr_core::serve::{self, ServeOptions};
use dcnr_core::telemetry::prometheus;
use dcnr_core::{checkpoint, Experiment, Scenario, StudyKind, SweepConfig};
use dcnr_server::client;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

/// A fast scenario: quarter scale, small backbone.
const SMALL_QUERY: &str = "seed=11&scale=0.25&edges=40&vendors=16";

fn small_server(admin: bool) -> serve::RunningServer {
    serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        admin,
        ..ServeOptions::default()
    })
    .expect("bind an ephemeral port")
}

fn get(server: &serve::RunningServer, target: &str) -> client::ClientResponse {
    client::get(&server.addr().to_string(), target, TIMEOUT).expect(target)
}

/// Fetches `/metrics`, asserting it passes the strict text-format
/// validator, and returns the body. Every test that scrapes goes
/// through here, so no response ever skips validation.
fn validated_metrics(server: &serve::RunningServer) -> String {
    let resp = get(server, "/metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let body = String::from_utf8(resp.body.clone()).expect("metrics are UTF-8");
    prometheus::validate(&body).expect("metrics must satisfy the strict validator");
    body
}

/// How many times the server ran `phase` (a study span), read from
/// its phase-duration histogram count.
fn phase_runs(server: &serve::RunningServer, phase: &str) -> f64 {
    let series = format!("dcnr_phase_duration_micros_count{{phase=\"{phase}\"}} ");
    validated_metrics(server)
        .lines()
        .find_map(|l| l.strip_prefix(&series))
        .map_or(0.0, |v| v.parse().expect("a numeric sample"))
}

/// Sums the samples of `name` (across label sets) in a metrics body.
fn metric_total(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.split(&[' ', '{'][..])
                .next()
                .is_some_and(|metric| metric == name)
        })
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

#[test]
fn basic_routes_respond_and_admin_is_opt_in() {
    let server = small_server(false);
    let health = get(&server, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");
    assert_eq!(get(&server, "/readyz").body, b"ready\n");
    assert_eq!(get(&server, "/no/such/route").status, 404);
    let unknown = get(&server, "/artifacts/fig99");
    assert_eq!(unknown.status, 404);
    // The 404 lists the registry ids, the same list `dcnr artifact` prints.
    assert!(
        String::from_utf8_lossy(&unknown.body).contains("surv.lifespan"),
        "the 404 names every valid id"
    );
    // Admin endpoints do not exist unless the server opted in.
    assert_eq!(get(&server, "/admin/shutdown").status, 404);
    assert!(!server.shutdown_requested());
    let body = validated_metrics(&server);
    assert!(body.contains("dcnr_server_requests_total"), "{body}");
    assert!(body.contains("dcnr_server_workers"), "{body}");
    server.shutdown_and_join();
}

#[test]
fn artifact_bodies_are_byte_identical_to_the_cli_render_cold_and_warm() {
    let server = Arc::new(small_server(false));
    let artifacts = [Experiment::Fig15, Experiment::Fig16, Experiment::Table4];

    // The expected bytes, rendered locally through the exact function
    // `dcnr artifact` prints from.
    let expected: Vec<String> = artifacts
        .iter()
        .map(|&e| {
            let scenario = serve::scenario_for_artifact(e, SMALL_QUERY).unwrap();
            serve::render_artifact_text(&scenario, e).unwrap()
        })
        .collect();

    // Two rounds: the first renders into the cache (cold), the second
    // must be served from it (warm). Each round hammers every artifact
    // from 4 clients at once.
    for round in ["cold", "warm"] {
        let mut handles = Vec::new();
        for client_id in 0..4 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for e in artifacts {
                    let target = format!("/artifacts/{}?{SMALL_QUERY}", e.key());
                    let resp = get(&server, &target);
                    assert_eq!(resp.status, 200, "client {client_id} {target}");
                    bodies.push(String::from_utf8(resp.body).unwrap());
                }
                bodies
            }));
        }
        for handle in handles {
            let bodies = handle.join().expect("client thread");
            assert_eq!(bodies, expected, "{round}: HTTP bytes must equal the CLI's");
        }
        if round == "cold" {
            // The three artifacts share one scenario, so all twelve
            // cold requests render from one backbone simulation.
            assert_eq!(phase_runs(&server, "backbone.sim"), 1.0);
        }
    }

    let metrics = validated_metrics(&server);
    let hits = metric_total(&metrics, "dcnr_server_cache_hits_total");
    let misses = metric_total(&metrics, "dcnr_server_cache_misses_total");
    // 8 requests per artifact; every render happens at most a handful of
    // times (concurrent cold-start misses may race), and the warm round
    // alone guarantees at least 4 hits per artifact.
    assert!(hits >= 12.0, "expected a warm cache, got {hits} hits");
    assert!(misses >= 3.0, "each artifact missed at least once");

    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown_and_join(),
        Err(_) => panic!("client threads were joined; the Arc must be unique"),
    }
}

#[test]
fn resident_studies_serve_the_newest_scenarios_and_evicted_ones_rerun() {
    let server = small_server(false);
    let target = |e: Experiment, seed: u64| {
        format!(
            "/artifacts/{}?seed={seed}&scale=0.25&edges=40&vendors=16",
            e.key()
        )
    };
    // One artifact for each of five scenarios: five studies, and the
    // fifth evicts the first scenario's context.
    for seed in 1..=5 {
        assert_eq!(get(&server, &target(Experiment::Fig15, seed)).status, 200);
    }
    assert_eq!(phase_runs(&server, "backbone.sim"), 5.0);
    // A second artifact of the newest scenario renders from its
    // resident study...
    assert_eq!(get(&server, &target(Experiment::Fig16, 5)).status, 200);
    assert_eq!(phase_runs(&server, "backbone.sim"), 5.0);
    // ...while the first scenario's study runs again.
    assert_eq!(get(&server, &target(Experiment::Fig16, 1)).status, 200);
    assert_eq!(phase_runs(&server, "backbone.sim"), 6.0);
    server.shutdown_and_join();
}

#[test]
fn query_parameters_reuse_the_cli_parser_and_reject_typos() {
    let server = small_server(false);
    let bad = get(&server, "/artifacts/fig15?bogus=1");
    assert_eq!(bad.status, 400);
    assert!(
        String::from_utf8_lossy(&bad.body).contains("--bogus"),
        "the error names the unknown flag like the CLI does"
    );
    let bad = get(&server, "/artifacts/fig15?seed=banana");
    assert_eq!(bad.status, 400);
    let bad = get(&server, "/artifacts/fig15?scale=-1");
    assert_eq!(
        bad.status, 400,
        "validation failures are the client's fault"
    );
    server.shutdown_and_join();
}

#[test]
fn saturation_sheds_503_with_retry_after_and_the_server_survives() {
    let server = Arc::new(
        serve::start(&ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 1,
            admin: true,
            ..ServeOptions::default()
        })
        .unwrap(),
    );

    // 8 concurrent slow requests against 1 worker + 1 queue slot: at
    // most 2 can be in the building, so most must shed immediately.
    let mut handles = Vec::new();
    for _ in 0..8 {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            get(&server, "/admin/sleep?millis=200")
        }));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert_eq!(ok + shed, 8, "nothing may hang or error");
    assert!(ok >= 1, "the worker served someone");
    assert!(shed >= 4, "most of the burst must shed, got {shed}");
    for r in responses.iter().filter(|r| r.status == 503) {
        assert!(
            r.header("retry-after").is_some(),
            "shed responses carry Retry-After"
        );
        // The whole body arrived: the shed path half-closes and drains
        // the request, so the client reads a FIN rather than an RST.
        assert_eq!(r.body, b"server busy; retry later\n");
    }

    // The server is still healthy and its metrics report the sheds.
    assert_eq!(get(&server, "/healthz").status, 200);
    let metrics = validated_metrics(&server);
    assert!(
        metric_total(&metrics, "dcnr_server_shed_total") >= shed as f64,
        "{metrics}"
    );

    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .shutdown_and_join();
}

#[test]
fn sweeps_route_serves_the_checkpoint_report_byte_identically() {
    let root = std::env::temp_dir().join(format!("dcnr-serve-sweeps-{}", std::process::id()));
    let dir = root.join("nightly");
    std::fs::create_dir_all(&dir).unwrap();

    // A tiny sweep that checkpoints into the directory.
    let base = Scenario {
        scale: 0.25,
        backbone: dcnr_core::backbone::topo::BackboneParams {
            edges: 40,
            vendors: 16,
            min_links_per_edge: 3,
        },
        ..Scenario::cli_default(StudyKind::Backbone)
    };
    let live = dcnr_core::run_sweep(SweepConfig::new(base, 2, 1), Some(&dir)).unwrap();

    let server = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        sweep_root: root.clone(),
        ..ServeOptions::default()
    })
    .unwrap();
    let resp = get(&server, "/sweeps/nightly");
    assert_eq!(resp.status, 200);
    assert_eq!(
        String::from_utf8(resp.body).unwrap(),
        live.rendered,
        "the served report must be byte-identical to the live sweep"
    );

    // A partial checkpoint still answers 200: the report says how many
    // replicas have no valid shard and bands the rest.
    let partial = root.join("partial");
    std::fs::create_dir_all(&partial).unwrap();
    for name in ["manifest.json", "replica-0000.json"] {
        std::fs::copy(dir.join(name), partial.join(name)).unwrap();
    }
    assert!(!checkpoint::shard_path(&partial, 1).exists());
    let resp = get(&server, "/sweeps/partial");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).unwrap();
    assert!(
        body.contains("DEGRADED: 1 of 2 replicas have no valid shard; bands cover the rest"),
        "{body}"
    );
    assert!(body.contains("[1/2 replicas]"), "{body}");

    // Traversal and absent checkpoints are rejected, not resolved.
    assert_eq!(get(&server, "/sweeps/..").status, 400);
    assert_eq!(get(&server, "/sweeps/a%2F..%2Fb").status, 400);
    assert_eq!(get(&server, "/sweeps/absent").status, 404);
    // So is a manifest whose settings would print a false header.
    let edited = root.join("edited");
    std::fs::create_dir_all(&edited).unwrap();
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"resamples\": 1000"), "{manifest}");
    std::fs::write(
        edited.join("manifest.json"),
        manifest.replace("\"resamples\": 1000", "\"resamples\": 0"),
    )
    .unwrap();
    let resp = get(&server, "/sweeps/edited");
    assert_eq!(resp.status, 404);
    assert!(
        String::from_utf8(resp.body).unwrap().contains("resample"),
        "the 404 names the bad setting"
    );

    server.shutdown_and_join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn loadgen_verify_requests_every_scenario_flag_it_renders_locally() {
    // --verify compares each body against a local render of the mix
    // entry's scenario; a flag the request left out (here --topology)
    // would make the server render a different artifact.
    let server = small_server(false);
    let report = dcnr_core::loadgen::run(&dcnr_core::LoadgenOptions {
        addr: server.addr().to_string(),
        clients: 2,
        requests: 4,
        artifacts: vec![Experiment::SurvLifespan],
        scenario_args: ["--scale", "0.25", "--topology", "dcell"]
            .map(String::from)
            .to_vec(),
        verify: true,
        ..dcnr_core::LoadgenOptions::default()
    })
    .expect("every body matches its local render");
    assert_eq!(report.verify_failures, 0);
    assert_eq!(report.ok + report.retried_ok, 8, "{}", report.rendered);
    server.shutdown_and_join();
}

#[test]
fn admin_shutdown_flips_readiness_and_drains() {
    let server = small_server(true);
    assert_eq!(get(&server, "/readyz").body, b"ready\n");
    let resp = get(&server, "/admin/shutdown");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"draining\n");
    assert!(server.shutdown_requested());
    // Still serving while the drain is pending (the CLI loop is what
    // notices the flag); readiness now warns traffic away.
    let ready = get(&server, "/readyz");
    assert_eq!(ready.status, 503);
    assert_eq!(ready.body, b"draining\n");
    assert_eq!(get(&server, "/healthz").status, 200);
    server.shutdown_and_join();
}
