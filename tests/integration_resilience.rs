//! End-to-end resilience contract of `dcnr serve` under transport
//! chaos: zero-rate plans leave every response byte-identical, the
//! `loadgen --chaos` harness reaches its eventual-success floor with
//! zero undetected corruption, mid-write clients still receive the
//! shed `503` (the half-close + drain regression), and the per-route
//! circuit breaker opens, serves stale, and recovers through a
//! half-open probe — all visible on a strictly validated `/metrics`.

use dcnr_core::serve::{self, RenderFaultPlan, ServeOptions};
use dcnr_core::telemetry::prometheus;
use dcnr_core::{loadgen, LoadgenOptions, RetryPolicy};
use dcnr_server::breaker::BreakerConfig;
use dcnr_server::chaos::FaultPlan;
use dcnr_server::client;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

/// A fast scenario: quarter scale, small backbone.
const SMALL_QUERY: &str = "seed=11&scale=0.25&edges=40&vendors=16";

fn get(server: &serve::RunningServer, target: &str) -> client::ClientResponse {
    client::get(&server.addr().to_string(), target, TIMEOUT).expect(target)
}

/// Fetches `/metrics` through the strict text-format validator.
fn validated_metrics(server: &serve::RunningServer) -> String {
    let resp = get(server, "/metrics");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body.clone()).expect("metrics are UTF-8");
    prometheus::validate(&body).expect("metrics must satisfy the strict validator");
    body
}

/// Sums the samples of `name` whose label set contains every `(k, v)`
/// pair in `labels`.
fn labeled_total(body: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.split(&[' ', '{'][..])
                .next()
                .is_some_and(|metric| metric == name)
        })
        .filter(|l| {
            labels
                .iter()
                .all(|(k, v)| l.contains(&format!("{k}=\"{v}\"")))
        })
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

/// One raw HTTP/1.1 GET, returning the exact bytes the server put on
/// the wire (headers and all) — the byte-identity tests compare these.
fn raw_get(addr: &str, target: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: dcnr\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    bytes
}

#[test]
fn zero_rate_chaos_serving_is_byte_identical_to_chaos_off() {
    let plain = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    })
    .unwrap();
    // A zero-rate plan with a non-default seed: the shim is installed
    // and drawing, but must never perturb a single byte.
    let shimmed = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        chaos: Some(FaultPlan {
            seed: 0xBEEF,
            ..FaultPlan::default()
        }),
        ..ServeOptions::default()
    })
    .unwrap();
    assert!(shimmed.chaos().is_some(), "the shim is actually installed");

    let targets = [
        format!("/artifacts/fig15?{SMALL_QUERY}"),
        format!("/artifacts/table4?{SMALL_QUERY}"),
        "/healthz".to_string(),
        "/no/such/route".to_string(),
    ];
    // Two rounds per target: cold (renders) and warm (cache hits) must
    // both match on the wire, status line through last body byte.
    for round in ["cold", "warm"] {
        for target in &targets {
            let want = raw_get(&plain.addr().to_string(), target);
            let got = raw_get(&shimmed.addr().to_string(), target);
            assert!(
                got == want,
                "{round} {target}: zero-rate chaos changed the wire bytes"
            );
        }
    }
    assert_eq!(
        shimmed.chaos().unwrap().stats.total(),
        0,
        "a zero-rate plan must never count an injection"
    );

    plain.shutdown_and_join();
    shimmed.shutdown_and_join();
}

#[test]
fn loadgen_chaos_harness_passes_with_zero_undetected_corruption() {
    let mut plan = FaultPlan {
        seed: 7,
        ..FaultPlan::default()
    };
    for (key, value) in [
        ("read-delay-rate", "0.10"),
        ("write-delay-rate", "0.10"),
        ("delay-ms", "5"),
        ("reset-rate", "0.06"),
        ("truncate-rate", "0.06"),
        ("corrupt-rate", "0.06"),
        ("stall-rate", "0.03"),
        ("stall-ms", "50"),
    ] {
        plan.set(key, value).unwrap();
    }
    let server = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        chaos: Some(plan),
        ..ServeOptions::default()
    })
    .unwrap();

    let report = loadgen::run(&LoadgenOptions {
        addr: server.addr().to_string(),
        clients: 3,
        requests: 8,
        scenario_seeds: 1,
        scenario_args: vec![
            "--scale".into(),
            "0.25".into(),
            "--edges".into(),
            "40".into(),
            "--vendors".into(),
            "16".into(),
        ],
        chaos: true,
        timeout: Duration::from_secs(10),
        ..LoadgenOptions::default()
    })
    .expect("the chaos harness must pass at these fault rates");

    assert!(report.chaos, "the report records harness mode");
    assert!(report.verdict_pass(), "verdict: {}", report.rendered);
    assert_eq!(
        report.verify_failures, 0,
        "every corruption must be caught by the integrity layer"
    );
    assert!(
        report.eventual_success_rate() >= report.min_success,
        "eventual success {} under floor {}",
        report.eventual_success_rate(),
        report.min_success
    );
    // At these rates some faults certainly fired across ~24 requests,
    // and the clients survived them via retries.
    assert!(
        server.chaos().unwrap().stats.total() >= 1,
        "no injection was ever applied"
    );
    assert!(report.rendered.contains("chaos verdict: PASS"));

    // The scrape itself runs under chaos, so it retries like any client.
    let scrape = dcnr_core::resilient_get(
        &server.addr().to_string(),
        "/metrics",
        &RetryPolicy::default(),
        0x5C4A,
    );
    assert!(scrape.outcome.is_success(), "scrape failed: {scrape:?}");
    let metrics =
        String::from_utf8(scrape.response.expect("scrape body").body).expect("UTF-8 metrics");
    prometheus::validate(&metrics).expect("metrics must satisfy the strict validator");
    assert!(
        metrics.contains("dcnr_server_chaos_injections_total"),
        "injections are exported: {metrics}"
    );
    server.shutdown_and_join();
}

/// The half-close + drain regression: a client still mid-way through
/// *writing* its request when the queue fills must receive the shed
/// `503` + `Retry-After`, not a connection reset that destroys it.
#[test]
fn mid_write_clients_still_receive_the_shed_response() {
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

    // Saturate: 1 worker sleeping + 1 queue slot held for a full second.
    // The sleepers go in one at a time, each once the server's stats
    // show the previous one placed: the first in the worker, the second
    // in the queue, the last two shed. (Sent together, the accept loop
    // can shed three of them before the worker takes the first off the
    // queue, which then stays empty; a fixed sleep races the scheduler
    // on a loaded host and the writer below slips in before saturation.)
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let wait_until = |placed: &dyn Fn(u64, u64, u64, i64) -> bool| loop {
        let stats = server.stats();
        let accepted = stats.accepted.load(std::sync::atomic::Ordering::SeqCst);
        let handled = stats.handled.load(std::sync::atomic::Ordering::SeqCst);
        let shed = stats.shed.load(std::sync::atomic::Ordering::SeqCst);
        let queued = stats.queue_depth.load(std::sync::atomic::Ordering::SeqCst);
        if placed(accepted, handled, shed, queued) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sleepers never saturated the server (accepted {accepted}, shed {shed})"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut sleepers = Vec::new();
    for i in 0..4 {
        let sleeper = server.clone();
        sleepers.push(std::thread::spawn(move || {
            get(&sleeper, "/admin/sleep?millis=1000")
        }));
        match i {
            0 => wait_until(&|_, handled, _, _| handled >= 1),
            1 => wait_until(&|_, _, _, queued| queued >= 1),
            _ => {}
        }
    }
    // All 4 dispositioned: with 1 worker sleeping and 1 queue slot, two
    // of them must have shed, and the queue stays full for the sleep's
    // duration.
    wait_until(&|accepted, _, shed, _| accepted >= 4 && shed >= 2);

    // A slow writer: half the request line, a pause, then the rest.
    // The shed answer is written at accept time, before any of this
    // arrives, and the server half-closes + drains so the 503 survives.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let request = format!("GET /artifacts/fig15?{SMALL_QUERY} HTTP/1.1\r\nHost: dcnr\r\n\r\n");
    let (head, tail) = request.split_at(request.len() / 2);
    stream.write_all(head.as_bytes()).unwrap();
    stream.flush().ok();
    std::thread::sleep(Duration::from_millis(50));
    // The server may already have dropped us after its bounded drain;
    // a write error here is fine — the 503 is already in our buffer.
    let _ = stream.write_all(tail.as_bytes());
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let text = String::from_utf8_lossy(&bytes).to_ascii_lowercase();
    assert!(
        text.starts_with("http/1.1 503"),
        "mid-write client must see the shed 503, got: {text:?}"
    );
    assert!(
        text.contains("retry-after:"),
        "the shed response carries Retry-After: {text:?}"
    );

    for sleeper in sleepers {
        let resp = sleeper.join().unwrap();
        assert!(matches!(resp.status, 200 | 503), "got {}", resp.status);
    }
    assert_eq!(get(&server, "/healthz").status, 200, "server survives");
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .shutdown_and_join();
}

#[test]
fn breaker_opens_serves_stale_and_recovers_via_half_open_probe() {
    // Render attempts are numbered globally: 0 = fig15 (ok), 1 = fig16
    // (ok, evicts fig15 from the 1-entry cache), 2..5 = scripted
    // failures, 5.. = healthy again. Breaker: 3 failures open it,
    // cooldown 200ms, then a half-open probe closes it.
    let server = serve::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        cache_entries: 1,
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(200),
        },
        render_faults: RenderFaultPlan {
            rate: 1.0,
            skip: 2,
            limit: 3,
            ..RenderFaultPlan::default()
        },
        ..ServeOptions::default()
    })
    .unwrap();
    let fig15 = format!("/artifacts/fig15?{SMALL_QUERY}");
    let fig16 = format!("/artifacts/fig16?{SMALL_QUERY}");

    // Healthy renders populate both the cache and the stale store.
    let fresh = get(&server, &fig15);
    assert_eq!(fresh.status, 200);
    assert_eq!(fresh.header("x-dcnr-stale"), None);
    assert_eq!(get(&server, &fig16).status, 200); // evicts fig15

    // Three scripted render failures: each serves last-known-good,
    // flagged stale, byte-identical to the fresh body.
    for _ in 0..3 {
        let resp = get(&server, &fig15);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-dcnr-stale"), Some("render-failed"));
        assert_eq!(resp.body, fresh.body, "stale body is last-known-good");
    }

    // The third failure opened the breaker: no render is attempted,
    // the stale copy is served with the breaker-open cause.
    let resp = get(&server, &fig15);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-dcnr-stale"), Some("breaker-open"));
    assert_eq!(resp.body, fresh.body);

    // After the cooldown a half-open probe runs the (now healthy)
    // render and closes the breaker again.
    std::thread::sleep(Duration::from_millis(250));
    let recovered = get(&server, &fig15);
    assert_eq!(recovered.status, 200);
    assert_eq!(recovered.header("x-dcnr-stale"), None, "fresh again");
    assert_eq!(recovered.body, fresh.body);

    let metrics = validated_metrics(&server);
    let fig15_label = [("artifact", "fig15")];
    for (labels, at_least) in [
        (vec![("artifact", "fig15"), ("to", "open")], 1.0),
        (vec![("artifact", "fig15"), ("to", "half_open")], 1.0),
        (vec![("artifact", "fig15"), ("to", "closed")], 1.0),
    ] {
        assert!(
            labeled_total(&metrics, "dcnr_server_breaker_transitions_total", &labels) >= at_least,
            "missing breaker transition {labels:?}: {metrics}"
        );
    }
    assert_eq!(
        labeled_total(&metrics, "dcnr_server_breaker_state", &fig15_label),
        0.0,
        "the breaker ends closed"
    );
    assert!(
        labeled_total(
            &metrics,
            "dcnr_server_stale_total",
            &[("artifact", "fig15"), ("cause", "render-failed")]
        ) >= 3.0
    );
    assert!(
        labeled_total(
            &metrics,
            "dcnr_server_stale_total",
            &[("artifact", "fig15"), ("cause", "breaker-open")]
        ) >= 1.0
    );
    assert!(labeled_total(&metrics, "dcnr_server_render_faults_total", &fig15_label) >= 3.0);
    assert!(labeled_total(&metrics, "dcnr_server_render_failures_total", &fig15_label) >= 3.0);

    server.shutdown_and_join();
}
