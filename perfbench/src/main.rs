//! `perfbench` — the dcnr benchmark.
//!
//! Two seeded workloads, each putting most of its work in a different
//! set of crates:
//!
//! * `intra` — uncached scale-0.15 intra-DC replicas (faults, remediation,
//!   service, sev), each seed with and without a telemetry collector;
//! * `serve` — an in-process `dcnr serve` driven closed loop by two
//!   clients: hits on a warmed hot set, a small share of misses that
//!   render fresh intra scenarios.
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the intra, routes and serve traced
//! pipelines instead, timing calls into each crate's public functions
//! from here, and reports the per-layer metrics.
//!
//! ```text
//! perfbench --workload intra|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the workspace root. The last stdout line is the result JSON;
//! the line before it is the run record (host, build, source digest,
//! seeds, scales, and the sample count behind every percentile).

mod intra;
mod measure;
mod routes;
mod serve;

use measure::{json_num, json_str, median, peak_rss_mib, percentile, E2e, Layers, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`, reported by every workload.
/// Throughput is not one of them: in a closed loop it is the client
/// count over the mean op latency, and the mean carries every slow
/// stretch of a shared host (its spread over ten `intra` runs was
/// 0.16–0.20 of its median).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("tail_ms", "ms"),
    ("collector_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, `(name, unit)`.
const PER_LAYER: [(&str, &str); 33] = [
    ("faults.generate_s", "s"),
    ("faults.issues", "count"),
    ("remediation.triage_s", "s"),
    ("remediation.escalated_ratio", "ratio"),
    ("service.sev_ingest_s", "s"),
    ("sev.records", "count"),
    ("core.render_s", "s"),
    ("intra.unattributed_s", "s"),
    ("intra.traced_s", "s"),
    ("intra.tracing_overhead_s", "s"),
    ("faults.generate_telemetry_s", "s"),
    ("remediation.triage_telemetry_s", "s"),
    ("service.sev_ingest_telemetry_s", "s"),
    ("topology.region_build_s", "s"),
    ("topology.forwarding_build_s", "s"),
    ("service.impact_assess_s", "s"),
    ("topology.blast_oracle_s", "s"),
    ("topology.blast_scratch_s", "s"),
    ("topology.bfs_s", "s"),
    ("topology.forwarding_apply_s", "s"),
    ("topology.devices_recomputed", "count"),
    ("routes.unattributed_s", "s"),
    ("routes.traced_s", "s"),
    ("routes.tracing_overhead_s", "s"),
    ("server.hit_server_us", "us"),
    ("server.hit_wire_us", "us"),
    ("core.miss_render_ms", "ms"),
    ("core.miss_render_telemetry_ms", "ms"),
    ("server.miss_overhead_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("core.study_runs_per_miss", "ratio"),
    ("server.shed", "count"),
    ("server.read_errors", "count"),
];

/// Set-ups measured per run (this process plus child processes); the
/// median is reported. A single set-up is short enough to fall wholly
/// inside one of the host's slow stretches, which last seconds.
const SETUPS: usize = 5;
/// Pause before each child set-up, so the set-ups of one run sample
/// different stretches of host load rather than one.
const SETUP_GAP: Duration = Duration::from_millis(1500);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Intra,
    Serve,
}

/// The fixed quantile behind each timing metric of a workload.
struct Quantiles {
    latency: f64,
    tail: f64,
    collector: f64,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "intra" => Some(Workload::Intra),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Intra => "intra",
            Workload::Serve => "serve",
        }
    }

    /// `intra` replicas are CPU-bound on one thread, and on a shared host
    /// stretches of a run slow down by up to a half at once; the slowdown
    /// only ever adds time, so the low percentile tracks the program's
    /// own cost while the median moves with the host. Served misses are
    /// few (~3000 a run) and their p90 was the steadiest of their
    /// percentiles.
    fn quantiles(self) -> Quantiles {
        match self {
            Workload::Intra => Quantiles {
                latency: 0.05,
                tail: 0.9,
                collector: 0.05,
            },
            Workload::Serve => Quantiles {
                latency: 0.5,
                tail: 0.99,
                collector: 0.9,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: set up, print the set-up time, exit.
    setup_only: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut setup_only = false;
        while let Some(flag) = argv.next() {
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (valid: intra, serve)")
                    })?)
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is out of range (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace,
            setup_only,
        })
    }
}

/// The workload's set-up, timed from process start to the first timed
/// op. `serve` keeps its running server.
fn setup(args: &Args, t0: Instant, tally: &mut Tally) -> (f64, Option<serve::Serve>) {
    let server = match args.workload {
        Workload::Intra => {
            intra::setup(args.seed, tally);
            None
        }
        Workload::Serve => serve::setup(args.seed, tally),
    };
    (t0.elapsed().as_secs_f64(), server)
}

/// Set-up time of a fresh child process of this benchmark. Lazy statics
/// run once per process, so a repeated set-up needs a new process.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
    {
        Some(v) if out.status.success() => v.parse().map_err(|_| format!("child printed {v:?}")),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

/// The `q` quantile of `xs`, failing the run when fewer than ten samples
/// lie beyond it on its far side.
fn checked_percentile(xs: &[f64], q: f64, what: &str, tally: &mut Tally) -> f64 {
    let beyond = xs.len() as f64 * q.min(1.0 - q);
    tally.check(beyond >= 10.0 - 1e-9, || {
        format!(
            "{what}: {} samples leave fewer than ten beyond p{}",
            xs.len(),
            q * 100.0
        )
    });
    percentile(xs, q)
}

/// End-to-end run: set up, measure for `seconds`, then time the
/// remaining set-ups in child processes.
fn end_to_end(args: &Args, t0: Instant, tally: &mut Tally) -> (Vec<f64>, Vec<String>) {
    let (own, server) = setup(args, t0, tally);
    let mut setups = vec![own];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let e2e = match (args.workload, &server) {
        (Workload::Intra, _) => intra::run(args.seed, deadline, tally),
        (Workload::Serve, Some(s)) => serve::run(s, args.seed, deadline, tally),
        (Workload::Serve, None) => E2e::default(),
    };
    if let Some(s) = server {
        s.shutdown();
    }
    let rss = peak_rss_mib();
    for _ in 1..SETUPS {
        std::thread::sleep(SETUP_GAP);
        match child_setup(args) {
            Ok(s) => setups.push(s),
            Err(e) => tally.check(false, || e),
        }
    }
    let q = args.workload.quantiles();
    let values = vec![
        median(&setups),
        checked_percentile(&e2e.plain, q.latency, "latency_ms", tally) * 1e3,
        checked_percentile(&e2e.plain, q.tail, "tail_ms", tally) * 1e3,
        checked_percentile(&e2e.collector, q.collector, "collector_ms", tally) * 1e3,
        rss,
    ];
    let setup_list: Vec<String> = setups.iter().map(|&s| json_num(s)).collect();
    let record = vec![
        format!("\"setup_samples_s\":[{}]", setup_list.join(",")),
        format!("\"plain_samples\":{}", e2e.plain.len()),
        format!("\"collector_samples\":{}", e2e.collector.len()),
        format!(
            "\"quantiles\":{{\"latency_ms\":{},\"tail_ms\":{},\"collector_ms\":{}}}",
            json_num(q.latency),
            json_num(q.tail),
            json_num(q.collector)
        ),
        format!("\"measured_s\":{}", json_num(e2e.wall)),
    ]
    .into_iter()
    .chain(
        e2e.notes
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), v)),
    )
    .collect();
    (values, record)
}

/// Traced run: the intra, routes and serve pipelines round-robin with
/// seeds derived from the workload seed, until `seconds` have passed and
/// each has run at least once. Every per-layer metric is measured in
/// every workload's traced run.
fn traced(args: &Args, tally: &mut Tally) -> (Vec<f64>, Vec<String>) {
    let seed = dcnr_core::sim::derive_seed(args.seed, args.workload.name());
    let server = serve::setup(dcnr_core::sim::derive_seed(seed, "serve"), tally);
    let mut layers = Layers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        let s = |label| dcnr_core::sim::derive_indexed_seed(seed, label, round);
        intra::trace_round(s("intra"), &mut layers, tally);
        routes::trace_round(s("routes"), &mut layers, tally);
        if let Some(server) = &server {
            serve::trace_round(server, s("serve"), &mut layers, tally);
        }
        round += 1;
    }
    if let Some(s) = server {
        s.shutdown();
    }
    let values = PER_LAYER
        .iter()
        .map(|(name, _)| {
            layers.mean(name).unwrap_or_else(|| {
                tally.check(false, || {
                    format!("per-layer metric {name} was not measured")
                });
                f64::NAN
            })
        })
        .collect();
    let record = vec![
        format!("\"rounds\":{round}"),
        "\"layer_values\":\"mean over rounds\"".to_string(),
    ];
    (values, record)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    if args.setup_only {
        let (secs, server) = setup(&args, t0, &mut tally);
        if let Some(s) = server {
            s.shutdown();
        }
        if !tally.problems.is_empty() {
            eprintln!("perfbench: set-up failed: {:?}", tally.problems);
            return ExitCode::from(1);
        }
        println!("setup_s {secs}");
        return ExitCode::SUCCESS;
    }

    let (specs, values, record): (&[(&str, &str)], Vec<f64>, Vec<String>) = if args.trace {
        let (values, record) = traced(&args, &mut tally);
        (&PER_LAYER, values, record)
    } else {
        let (values, record) = end_to_end(&args, t0, &mut tally);
        (&END_TO_END, values, record)
    };
    for (&(name, _), v) in specs.iter().zip(&values) {
        tally.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    tally.check(tally.attempted > 0, || "no op was attempted".into());
    let correct = tally.problems.is_empty();
    for p in tally.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let scenario = match (args.trace, args.workload) {
        (true, _) => format!(
            "traced: Scenario::intra (fleet scale {}), Scenario::routes (region scale 1), serve (scale={})",
            intra::SCALE,
            serve::SCALE
        ),
        (false, Workload::Intra) => format!("Scenario::intra (fleet scale {})", intra::SCALE),
        (false, Workload::Serve) => format!(
            "serve: intra/backbone artifacts at scale={}",
            serve::SCALE
        ),
    };
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"profile\":{},\"source\":{},\"scenario\":{},{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        json_str(profile),
        json_str(&measure::source_digest()),
        json_str(&scenario),
        record.join(",")
    );
    let metrics: Vec<String> = specs
        .iter()
        .zip(&values)
        .map(|(&(name, unit), &v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
