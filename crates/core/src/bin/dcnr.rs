//! `dcnr` — command-line front end for the reliability study toolkit.
//!
//! Every study subcommand lowers its flags onto a [`Scenario`] and
//! hands it to the scenario engine; `sweep` replicates one scenario
//! across derived seeds under the supervision layer (panic isolation,
//! watchdog deadlines, checkpoint/resume) and prints cross-seed
//! confidence bands.

use dcnr_core::cli::{parse_loadgen_args, parse_scenario_kind, parse_serve_args};
use dcnr_core::telemetry::metrics::MetricsSnapshot;
use dcnr_core::telemetry::trace::TraceSnapshot;
use dcnr_core::telemetry::{logger, Telemetry};
use dcnr_core::{
    apply_scenario_flags, artifacts, checkpoint, loadgen, parse_sweep_args, phase_rows,
    render_profile_json, render_profile_table, run_supervised, serve, telemetry_io, ArgScanner,
    DcnrError, FaultPlan, InterDcStudy, RunContext, Scenario, StudyKind, SupervisorConfig,
    SweepConfig,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
dcnr — Data Center Network Reliability study toolkit

Global flags (any command):
    --metrics FILE    write telemetry metrics on exit: Prometheus text,
                      or JSON when FILE ends in .json
    --trace FILE      write the bounded sim-time event trace as JSON
    --quiet, -q       only errors on stderr
    -v                debug detail on stderr
                      Telemetry never perturbs results: report and
                      sweep bytes are identical with or without it.

Scenario flags (shared by intra/backbone/chaos/routes/survivability/
sweep/profile):
    --seed N          master seed; every derived stream follows it
    --scale S         intra-DC fleet scale multiplier
    --topology NAME   zoo member for the survivability lifespan replay
                      (see `dcnr topology --list`; default fat-tree)
    --edges E         backbone edge count
    --vendors V       backbone vendor count
    --no-automation   disable the automated-remediation hazard model
    --no-drain        disable the drain-policy hazard model
    --corrupt-rate R  --truncate-rate R  --loss-rate R
    --dup-rate R      --reorder-rate R   --store-fail-rate R
                      chaos ingestion fault rates (default: drill mix)

USAGE:
    dcnr intra     [scenario flags]
                   Run the seven-year intra-DC study; print Tables 1-2
                   and Figures 2-14 with paper-vs-measured comparisons.
    dcnr backbone  [scenario flags]
                   Run the eighteen-month backbone study; print
                   Figures 15-18 and Table 4.
    dcnr chaos     [scenario flags]
                   Run the backbone study twice — clean and under
                   injected ingestion faults — print the data-quality
                   report, and check the paper statistics stay within
                   tolerance.
    dcnr routes    [scenario flags]
                   Run the forwarding-state study: per-device ECMP path
                   sets with incremental invalidation, capacity loss
                   derived from surviving path fractions, the emergent
                   SEV mix checked against Table 3's 82/13/5, and a
                   workload-degradation curve. --scale here scales the
                   study region (racks per cluster/pod), default 1.0.
    dcnr survivability [scenario flags]
                   Run the topology-zoo survivability study: pair
                   survivability and surviving core capacity vs. failed
                   element fraction (links, switches, servers) across
                   every registered zoo topology, plus a seeded
                   Monte-Carlo fleet-lifespan replay on the --topology
                   member. Prints the surv.ranking and surv.lifespan
                   artifacts with paper-vs-measured comparisons.
    dcnr topology  --list
                   List every registered zoo topology with its
                   parameter schema and node/link counts at scale 1,
                   in registry order.
    dcnr sweep     [--scenario intra|backbone|chaos|routes|survivability]
                   [--seeds N]
                   [--jobs J] [--resamples B] [--confidence C]
                   [--deadline SECS] [--retries K] [--max-failures F]
                   [--checkpoint DIR] [--resume DIR]
                   [--bench-json PATH] [scenario flags]
                   Run N replicas of one scenario (seeds derived from
                   the master seed) on a J-wide supervised worker pool
                   and print paper values against cross-seed confidence
                   bands. A replica that panics is retried up to K
                   times on a fresh derived seed, then quarantined; one
                   that exceeds --deadline is abandoned. The sweep
                   degrades to the survivors and exits nonzero only
                   when more than F replicas failed.
                   --checkpoint persists each completed replica as a
                   JSON shard in DIR (doubling as a result cache);
                   --resume reloads DIR's manifest and shards and
                   re-executes only the missing replicas, rendering
                   byte-identical output. --bench-json additionally
                   times the sweep at 1 and J workers, checks the
                   reports are byte-identical, and writes the wall
                   clocks to PATH.
    dcnr profile   [--scenario intra|backbone|chaos|routes|survivability]
                   [--json PATH]
                   [scenario flags]
                   Run one scenario with the phase timers on, print the
                   wall-clock breakdown per pipeline stage (fleet
                   build, issue generation per device type,
                   remediation, SEV analysis, backbone, aggregation);
                   --json also writes it to PATH as JSON.
    dcnr serve     [--addr HOST:PORT] [--workers W] [--queue-depth Q]
                   [--cache-entries E] [--sweep-root DIR] [--admin]
                   [--port-file PATH] [--chaos-* ...]
                   Serve study reports over HTTP on a fixed worker pool
                   with a bounded accept queue (overload sheds 503 +
                   Retry-After; never hangs). --workers 0 auto-detects
                   available parallelism. GET /artifacts/{id} (with
                   scenario flags as query parameters, e.g.
                   /artifacts/fig15?seed=7&scale=0.5) renders any
                   registry artifact byte-identically to
                   `dcnr artifact`, through an LRU result cache keyed
                   by scenario+seed+artifact; /sweeps/{dir} aggregates
                   an existing checkpoint directory under --sweep-root;
                   /metrics is live Prometheus text (requests, latency
                   histograms, cache hits/misses, shed count, chaos
                   injections, breaker states, stale serves);
                   /healthz and /readyz report liveness. --admin adds
                   /admin/shutdown (graceful drain) for tests and
                   scripts; SIGINT drains too. --addr with port 0 picks
                   an ephemeral port, written to --port-file.
                   Transport chaos (deterministic, seeded; off unless a
                   --chaos-* flag is set; zero rates are
                   byte-identical to off): --chaos-seed S plus
                   --chaos-{accept,read,write}-delay-rate R,
                   --chaos-delay-ms MS, --chaos-reset-rate R,
                   --chaos-truncate-rate R, --chaos-corrupt-rate R,
                   --chaos-stall-rate R, --chaos-stall-ms MS.
                   Render failures trip a per-artifact circuit breaker
                   (3 consecutive failures open it for 1 s, then one
                   half-open probe); misses under an open breaker or a
                   saturated queue serve the last good render flagged
                   X-Dcnr-Stale, or shed 503 + Retry-After.
                   Admission control (off by default; off is
                   byte-identical to the pre-admission server):
                   --sojourn-target-ms MS sheds queued connections at
                   dequeue once their queue wait exceeds MS
                   (CoDel-style head drop), --priority-depth N gives
                   /healthz, /readyz, and /metrics their own N-deep
                   lane that is drained first and never sojourn-shed,
                   --adaptive-retry-after derives the shed Retry-After
                   from the observed drain rate (clamped to 1..=30s)
                   instead of the fixed hint.
    dcnr loadgen   [--addr HOST:PORT] [--clients N] [--requests R]
                   [--mix-seed S] [--scenario-seeds K]
                   [--artifacts id,id,...] [--verify] [--chaos]
                   [--retries K] [--backoff-ms MS] [--backoff-cap-ms MS]
                   [--deadline-ms MS] [--min-success F]
                   [--bench-json PATH] [--bench-append]
                   [--timeout-secs T] [scenario flags]
                   [--open-loop [--rate R] [--overload X]
                   [--arrivals N] [--max-in-flight N]
                   [--goodput-floor F] [--p99-cap-ms MS]
                   [--health-floor F]]
                   Closed-loop load harness: N client threads drive a
                   running `dcnr serve` with a seeded artifact/scenario
                   request mix and report throughput and p50/p95/p99
                   latency. Every request retries under a per-request
                   deadline with capped jittered exponential backoff,
                   honoring the server's Retry-After on 503; outcomes
                   are classified ok / retried-ok / shed / gave-up /
                   corrupt. --verify compares every body byte-for-byte
                   against a local render; --bench-json writes the run
                   record (--bench-append adds to an existing file).
                   --chaos is the resilience harness: verification is
                   forced, the verdict fails unless the eventual
                   success rate is >= --min-success (default 0.99) AND
                   no corruption went undetected.
                   --open-loop is the overload harness: arrivals fire
                   on their own seeded clock (Poisson at
                   sustainable * --overload, default 2x) regardless of
                   responses,
                   bounded by --max-in-flight (excess arrivals are
                   counted as client-dropped, not deferred). The
                   sustainable rate is measured with a short
                   closed-loop calibration unless --rate gives it.
                   Requests are single-attempt (no retries — retrying
                   would re-close the loop); health endpoints are
                   probed throughout. The verdict fails unless goodput
                   >= --goodput-floor (default 0.5) of sustainable,
                   admitted p99 <= --p99-cap-ms (default 1000), and
                   >= --health-floor (default 0.9) of health probes
                   answer. Conflicts with --chaos, --verify,
                   --clients, and --requests.
    dcnr artifact  ID [scenario flags]
                   Render one registry artifact (every ID is listed by
                   `dcnr artifact --list`) for the scenario — the same
                   bytes `dcnr serve` returns for /artifacts/ID.
    dcnr artifact  --list
                   List every registry artifact id with its title and
                   the paper baseline it reproduces, in registry order.
    dcnr fetch     ADDR TARGET [--validate] [--timeout-secs T]
                   [--retries K] [--deadline-ms MS]
                   One-shot HTTP GET against a running server (no curl
                   needed in scripts); prints the body, fails on
                   non-200. Transient failures (503 shed, transport
                   errors, detected truncation/corruption) retry up to
                   K times (default 2) under the deadline budget,
                   honoring Retry-After. --validate additionally runs
                   the strict Prometheus text-format validator over
                   the body.
    dcnr drill     Run the fault-injection and disaster-recovery drills
                   on the reference mixed region.
    dcnr risk      [--trials N] [--seed N]
                   Conditional-risk capacity planning over a simulated
                   backbone.
    dcnr help      Show this message.

Environment:
    DCNR_FAULT_REPLICA=idx[:panic|panic-once|hang][,...]
                   Test hook: force sweep replica idx to panic or hang,
                   exercising the supervision path end to end.
";

/// The global flags every command accepts, stripped from argv before
/// subcommand dispatch.
struct GlobalFlags {
    metrics: Option<String>,
    trace: Option<String>,
}

fn parse_global_flags(argv: Vec<String>) -> Result<(GlobalFlags, Vec<String>), DcnrError> {
    let mut scan = ArgScanner::new(argv);
    if scan.flag("--quiet") || scan.flag("-q") {
        logger::set_verbosity(logger::Level::Error);
    }
    let mut verbose = false;
    while scan.flag("-v") {
        verbose = true;
    }
    if verbose {
        logger::set_verbosity(logger::Level::Debug);
    }
    let flags = GlobalFlags {
        metrics: scan.value("--metrics")?,
        trace: scan.value("--trace")?,
    };
    Ok((flags, scan.into_rest()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (global, mut argv) = match parse_global_flags(argv) {
        Ok(parsed) => parsed,
        Err(error) => {
            logger::error(format!("error: {error}"));
            return ExitCode::from(error.exit_code());
        }
    };
    if argv.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let command = argv.remove(0);

    // Install a collector only when telemetry output was requested:
    // with none installed every instrumentation call in the engine is
    // a no-op, and either way the study results are byte-identical.
    let handle = (global.metrics.is_some() || global.trace.is_some() || command == "profile")
        .then(Telemetry::new_handle);
    let _guard = handle.clone().map(dcnr_core::telemetry::installed);

    // Sweep replicas run on their own threads with their own
    // collectors; cmd_sweep parks the merged snapshots here so the
    // epilogue can fold them into the main thread's.
    let mut replica_telemetry: Option<(MetricsSnapshot, TraceSnapshot)> = None;

    let mut result = match command.as_str() {
        "topology" => cmd_topology(argv),
        "sweep" => cmd_sweep(ArgScanner::new(argv), &mut replica_telemetry),
        "serve" => cmd_serve(ArgScanner::new(argv)),
        "loadgen" => cmd_loadgen(ArgScanner::new(argv)),
        "artifact" => cmd_artifact(argv),
        "fetch" => cmd_fetch(argv),
        "profile" => cmd_profile(ArgScanner::new(argv), handle.as_ref()),
        "drill" => cmd_drill(ArgScanner::new(argv)),
        "risk" => cmd_risk(ArgScanner::new(argv)),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => match StudyKind::parse(other) {
            Some(kind) => cmd_scenario(Scenario::cli_default(kind), ArgScanner::new(argv)),
            None => Err(DcnrError::Usage(format!(
                "unknown command {other:?}\n\n{USAGE}"
            ))),
        },
    };

    // Telemetry epilogue: fold replica snapshots into the main
    // thread's and write the requested files (even after a failed
    // command — the telemetry often explains the failure).
    if let Some(handle) = &handle {
        let (mut metrics, mut trace) = handle.snapshots();
        if let Some((m, t)) = &replica_telemetry {
            metrics.merge(m);
            trace.merge(t);
        }
        let mut write = |out: Result<(), DcnrError>| {
            if let Err(error) = out {
                if result.is_ok() {
                    result = Err(error);
                } else {
                    logger::error(format!("error: {error}"));
                }
            }
        };
        if let Some(path) = &global.metrics {
            write(telemetry_io::write_metrics_file(path, &metrics));
        }
        if let Some(path) = &global.trace {
            write(telemetry_io::write_trace_file(path, &trace));
        }
    }

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            logger::error(format!("error: {error}"));
            ExitCode::from(error.exit_code())
        }
    }
}

/// Shared driver for the study commands (`intra`, `backbone`, `chaos`,
/// `routes`, `survivability`): flags → scenario → engine → printed
/// report.
fn cmd_scenario(base: Scenario, mut args: ArgScanner) -> Result<(), DcnrError> {
    let scenario = apply_scenario_flags(&mut args, base)?;
    args.finish()?;
    logger::info(format!(
        "running {} scenario (seed {:#x}, scale {}, {} edges, {} vendors)...",
        scenario.kind,
        scenario.seed,
        scenario.scale,
        scenario.backbone.edges,
        scenario.backbone.vendors
    ));
    let out = RunContext::new(scenario).try_execute()?;
    print!("{}", out.rendered);
    if out.passed {
        Ok(())
    } else {
        Err(DcnrError::Failed(
            "paper statistics drifted outside tolerance under injected faults".into(),
        ))
    }
}

fn cmd_sweep(
    mut args: ArgScanner,
    replica_telemetry: &mut Option<(MetricsSnapshot, TraceSnapshot)>,
) -> Result<(), DcnrError> {
    let parsed = parse_sweep_args(&mut args)?;
    let jobs = parsed
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

    let (config, checkpoint_dir) = match &parsed.resume {
        Some(dir) => {
            // The sweep definition comes from the manifest; any stray
            // scenario flag is rejected by finish() below.
            args.finish()?;
            let manifest =
                checkpoint::read_manifest(dir)?.ok_or_else(|| DcnrError::Checkpoint {
                    path: dir.display().to_string(),
                    message: "no manifest.json here; nothing to resume".into(),
                })?;
            (manifest.to_config(jobs)?, Some(dir.clone()))
        }
        None => {
            let kind = parsed.scenario.unwrap_or(StudyKind::Intra);
            let base = apply_scenario_flags(&mut args, Scenario::cli_default(kind))?;
            args.finish()?;
            let mut config = SweepConfig::new(base, parsed.seeds.unwrap_or(8), jobs);
            if let Some(r) = parsed.resamples {
                config.resamples = r;
            }
            if let Some(c) = parsed.confidence {
                config.confidence = c;
            }
            (config, parsed.checkpoint.clone())
        }
    };

    let sup = SupervisorConfig {
        deadline: parsed.deadline.map(Duration::from_secs_f64),
        retries: parsed.retries.unwrap_or(1),
        max_failures: parsed.max_failures.unwrap_or(0),
        checkpoint: checkpoint_dir,
        faults: FaultPlan::from_env()?,
    };

    // Reject bad settings before the progress line states them.
    config.check().map_err(DcnrError::Config)?;
    logger::info(format!(
        "sweeping {} scenario: {} seeds on {} workers...",
        config.base.kind,
        config.seeds,
        config.jobs.min(config.seeds as usize)
    ));
    let started = Instant::now();
    let out = run_supervised(config, &sup)?;
    let elapsed = started.elapsed();
    logger::info(format!("sweep finished in {:.2}s", elapsed.as_secs_f64()));
    print!("{}", out.rendered);
    logger::info(out.supervision.trim_end_matches('\n'));
    if let (Some(m), Some(t)) = (out.replica_metrics.clone(), out.replica_trace.clone()) {
        *replica_telemetry = Some((m, t));
    }

    if let Some(path) = &parsed.bench_json {
        write_bench_json(path, config, &sup, elapsed.as_secs_f64(), &out.rendered)?;
    }
    out.gate(sup.max_failures)
}

/// Re-times the sweep single-threaded, checks byte-identity against the
/// parallel report, and records both wall clocks. Runs under the same
/// supervision policy — so with a checkpoint directory the serial rerun
/// is served from the shards the parallel run just wrote.
fn write_bench_json(
    path: &str,
    config: SweepConfig,
    sup: &SupervisorConfig,
    parallel_secs: f64,
    parallel_rendered: &str,
) -> Result<(), DcnrError> {
    logger::info("re-running the sweep on 1 worker for the benchmark baseline...");
    let started = Instant::now();
    let serial = run_supervised(SweepConfig { jobs: 1, ..config }, sup)?;
    let serial_secs = started.elapsed().as_secs_f64();
    let identical = serial.rendered == parallel_rendered;
    if !identical {
        return Err(DcnrError::Failed(
            "sweep reports differ between --jobs 1 and the parallel run".into(),
        ));
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = if config.jobs > host_cpus {
        ",\n  \"note\": \"jobs exceed host CPUs; oversubscription can erase the speedup\""
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"scenario\": \"{}\",\n  \"seeds\": {},\n  \"jobs\": {},\n  \
         \"host_cpus\": {},\n  \"wall_secs_jobs_1\": {:.3},\n  \
         \"wall_secs_jobs_n\": {:.3},\n  \"speedup\": {:.3},\n  \
         \"identical_output\": {},\n  \"serial_cache_hits\": {}{note}\n}}\n",
        config.base.kind,
        config.seeds,
        config.jobs,
        host_cpus,
        serial_secs,
        parallel_secs,
        serial_secs / parallel_secs.max(1e-9),
        identical,
        serial.cache_hits()
    );
    std::fs::write(path, json).map_err(|e| DcnrError::Io {
        path: path.to_string(),
        message: format!("write: {e}"),
    })?;
    logger::info(format!(
        "wrote {path} (serial {serial_secs:.2}s, parallel {parallel_secs:.2}s)"
    ));
    Ok(())
}

/// `dcnr profile`: run one scenario with the phase timers on, print the
/// wall-clock breakdown per pipeline stage, and write it as JSON when
/// `--json PATH` names a file. The table *layout* is deterministic (rows
/// sorted by phase name); the durations are wall-clock and vary run to
/// run.
fn cmd_profile(
    mut args: ArgScanner,
    handle: Option<&dcnr_core::telemetry::TelemetryHandle>,
) -> Result<(), DcnrError> {
    let kind = parse_scenario_kind(&mut args)?.unwrap_or(StudyKind::Intra);
    let base = Scenario::cli_default(kind);
    let json_path = args.value::<String>("--json")?;
    let scenario = apply_scenario_flags(&mut args, base)?;
    args.finish()?;
    let handle = handle.expect("main installs a collector for the profile command");
    logger::info(format!(
        "profiling {} scenario (seed {:#x}, scale {})...",
        scenario.kind, scenario.seed, scenario.scale
    ));
    let _out = RunContext::new(scenario).try_execute()?;
    let (metrics, _) = handle.snapshots();
    let rows = phase_rows(&metrics);
    print!("{}", render_profile_table(&rows));
    if let Some(path) = json_path {
        let json = render_profile_json(&kind.to_string(), scenario.seed, scenario.scale, &rows);
        std::fs::write(&path, json).map_err(|e| DcnrError::Io {
            path: path.clone(),
            message: format!("write: {e}"),
        })?;
        logger::info(format!("wrote {path}"));
    }
    Ok(())
}

/// `dcnr serve`: the blocking report server. Runs until SIGINT or (in
/// `--admin` mode) `GET /admin/shutdown`, then drains gracefully.
fn cmd_serve(mut args: ArgScanner) -> Result<(), DcnrError> {
    let opts = parse_serve_args(&mut args)?;
    args.finish()?;
    serve::run(&opts)
}

/// `dcnr loadgen`: the closed-loop load harness. Flags the parser does
/// not own (scenario flags) are passed through to the shared scenario
/// path, so `dcnr loadgen --scale 0.25` means the same thing it does on
/// every other subcommand.
fn cmd_loadgen(mut args: ArgScanner) -> Result<(), DcnrError> {
    let mut opts = parse_loadgen_args(&mut args)?;
    opts.scenario_args = args.into_rest();
    if let Some(ol) = &opts.open_loop {
        logger::info(format!(
            "open-loop overload against http://{} ({} arrivals, {:.1}x)...",
            opts.addr, ol.arrivals, ol.overload
        ));
        let report = loadgen::run_open_loop(&opts)?;
        print!("{}", report.rendered);
    } else {
        logger::info(format!(
            "driving http://{} with {} clients x {} requests...",
            opts.addr, opts.clients, opts.requests
        ));
        let report = loadgen::run(&opts)?;
        print!("{}", report.rendered);
    }
    if let Some(path) = &opts.bench_json {
        logger::info(format!("wrote {path}"));
    }
    Ok(())
}

/// `dcnr artifact ID`: render exactly one registry artifact for the
/// scenario — the byte-identical CLI twin of `GET /artifacts/ID`.
fn cmd_artifact(mut argv: Vec<String>) -> Result<(), DcnrError> {
    if argv.first().map(String::as_str) == Some("--list") {
        ArgScanner::new(argv.split_off(1)).finish()?;
        for a in artifacts::registry() {
            println!("{:<22} {}", a.key, a.title);
            println!("{:<22} paper: {}", "", a.paper_baseline);
        }
        return Ok(());
    }
    if argv.is_empty() || argv[0].starts_with('-') {
        return Err(DcnrError::Usage(
            "usage: dcnr artifact ID [scenario flags] (`dcnr artifact --list` lists every ID)"
                .into(),
        ));
    }
    let experiment = artifacts::lookup(&argv.remove(0))?;
    let mut args = ArgScanner::new(argv);
    let base = Scenario::cli_default(artifacts::descriptor(experiment).study);
    let scenario = apply_scenario_flags(&mut args, base)?;
    args.finish()?;
    print!("{}", serve::render_artifact_text(&scenario, experiment)?);
    Ok(())
}

/// `dcnr topology --list`: enumerate the registered zoo topologies in
/// stable registry order, with each member's parameter schema and its
/// node/link counts when built at scale 1.
fn cmd_topology(mut argv: Vec<String>) -> Result<(), DcnrError> {
    if argv.first().map(String::as_str) != Some("--list") {
        return Err(DcnrError::Usage("usage: dcnr topology --list".into()));
    }
    ArgScanner::new(argv.split_off(1)).finish()?;
    for model in &dcnr_core::topology::zoo::ZOO {
        let topo = model.build(1.0);
        println!("{:<10} {}", model.id, model.summary);
        println!(
            "{:<10} at scale 1: {} nodes, {} links",
            "",
            topo.device_count(),
            topo.link_count()
        );
        for p in model.params {
            println!(
                "{:<10}   {:<18} = {:<6} ({})",
                "", p.name, p.at_scale_1, p.summary
            );
        }
    }
    Ok(())
}

/// `dcnr fetch ADDR TARGET`: one-shot GET for scripts and CI smoke
/// tests in environments without curl. Non-200 responses fail.
/// Transient failures (shed, transport, detected truncation or
/// corruption) retry with backoff under a deadline budget.
fn cmd_fetch(argv: Vec<String>) -> Result<(), DcnrError> {
    let mut args = ArgScanner::new(argv);
    let validate = args.flag("--validate");
    let timeout = Duration::from_secs(args.value::<u64>("--timeout-secs")?.unwrap_or(10));
    let retries = args.value::<u32>("--retries")?.unwrap_or(2);
    let deadline = Duration::from_millis(args.value::<u64>("--deadline-ms")?.unwrap_or(30_000));
    let rest = args.into_rest();
    let [addr, target] = rest.as_slice() else {
        return Err(DcnrError::Usage(
            "usage: dcnr fetch ADDR TARGET [--validate] [--timeout-secs T] \
             [--retries K] [--deadline-ms MS]"
                .into(),
        ));
    };
    let policy = dcnr_core::resilience::RetryPolicy {
        retries,
        attempt_timeout: timeout,
        deadline,
        ..Default::default()
    };
    let result = dcnr_core::resilient_get(addr, target, &policy, 0xFE7C);
    let Some(response) = result.response else {
        let detail = result.error.map(|e| format!(" ({e})")).unwrap_or_default();
        return Err(DcnrError::Failed(format!(
            "fetch http://{addr}{target}: {} after {} attempt{}{detail}",
            result.outcome.label(),
            result.attempts,
            if result.attempts == 1 { "" } else { "s" },
        )));
    };
    if result.attempts > 1 {
        logger::info(format!(
            "{target}: succeeded after {} attempts",
            result.attempts
        ));
    }
    if result.stale {
        logger::info(format!("{target}: response served stale (X-Dcnr-Stale)"));
    }
    let body = String::from_utf8_lossy(&response.body);
    if validate {
        dcnr_core::telemetry::prometheus::validate(&body)
            .map_err(|e| DcnrError::Failed(format!("{target}: invalid Prometheus text: {e}")))?;
        logger::info(format!("{target}: Prometheus text format validated"));
    }
    print!("{body}");
    Ok(())
}

fn cmd_drill(args: ArgScanner) -> Result<(), DcnrError> {
    args.finish()?;
    use dcnr_core::service::{disaster_drill, FaultInjectionDrill, ImpactModel, Placement};
    use dcnr_core::topology::Region;
    let region = Region::mixed_reference();
    let placement = Placement::default_mix(&region.topology);
    let model = ImpactModel::default();

    println!("fault-injection sweep (every device, one at a time):");
    let drill = FaultInjectionDrill::sweep(&region, &placement, &model);
    for r in drill.reports() {
        println!(
            "  {:<5} n={:<4} worst={}   mean capacity loss {:>6.3}%",
            r.device_type.to_string(),
            r.devices,
            r.worst_severity,
            r.mean_capacity_loss * 100.0
        );
    }
    println!("\ndisaster drills:");
    for dc in &region.datacenters {
        let r = disaster_drill(&region, &placement, &model, dc);
        println!(
            "  dc{}: {} racks lost / {} surviving, {:.1}% capacity lost",
            r.datacenter,
            r.racks_lost,
            r.racks_surviving,
            r.capacity_lost_fraction * 100.0
        );
    }
    Ok(())
}

fn cmd_risk(mut args: ArgScanner) -> Result<(), DcnrError> {
    let trials: u32 = args.value("--trials")?.unwrap_or(400_000);
    let seed: u64 = args.value("--seed")?.unwrap_or(0xB0_E5);
    args.finish()?;
    if trials == 0 {
        return Err(DcnrError::Usage("--trials must be positive".into()));
    }
    logger::info(format!(
        "simulating backbone and planning capacity ({trials} trials)..."
    ));
    let inter = InterDcStudy::run(dcnr_core::backbone::BackboneSimConfig {
        seed,
        ..Default::default()
    });
    let report = inter
        .risk_report(trials)
        .ok_or_else(|| DcnrError::Failed("no edge failures observed; cannot assess risk".into()))?;
    println!(
        "expected concurrently-failed edges : {:.3}",
        report.expected_failures
    );
    println!(
        "p99.99 concurrent edge failures    : {}",
        report.p9999_failures
    );
    println!(
        "P(all edges up)                    : {:.3}",
        report.p_all_up
    );
    println!(
        "capacity headroom rule             : {:.1}%",
        report.headroom_fraction * 100.0
    );
    Ok(())
}
