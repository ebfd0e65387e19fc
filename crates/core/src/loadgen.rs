//! The `dcnr loadgen` closed-loop load harness: N client threads drive
//! a running `dcnr serve` with a seeded artifact/scenario request mix,
//! then report throughput and latency percentiles (and optionally write
//! a `BENCH_serve.json` record).
//!
//! Closed loop means each client issues its next request only after the
//! previous response completes, so offered load adapts to the server
//! instead of timing out into meaningless numbers. The request mix is
//! deterministic: client `i` draws from `stream_rng(mix_seed,
//! "loadgen.client.{i}")`, and the candidate scenarios are minted with
//! the same [`seed_sequence`] discipline the sweep runner uses.
//!
//! Every request goes through [`crate::resilience::resilient_get`], so
//! a `503` shed is a *retryable* event that honors the server's
//! `Retry-After` — the summary classifies terminal outcomes as
//! ok / retried-ok / shed / gave-up / corrupt instead of lumping sheds
//! in with transport errors.
//!
//! With `--verify`, every response body is compared byte-for-byte
//! against [`crate::serve::render_artifact_text`] computed locally —
//! the load test doubles as the cache-coherence test. With `--chaos`
//! the run becomes a resilience harness: it assumes the server is
//! fault-injected, forces verification, and emits a pass/fail verdict
//! (eventual-success rate ≥ `min_success`, undetected corruption
//! exactly zero). Either mode writes its bench record only when
//! `--bench-json PATH` names one.

use crate::artifacts;
use crate::cli::{apply_scenario_flags, ArgScanner};
use crate::error::DcnrError;
use crate::experiments::Experiment;
use crate::json;
use crate::resilience::{self, Outcome, RetryCauses, RetryPolicy};
use crate::scenario::Scenario;
use crate::serve;
use dcnr_server::client;
use dcnr_sim::rng::derive_indexed_seed;
use dcnr_sim::{seed_sequence, stream_rng};
use dcnr_telemetry::logger;
use rand::Rng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one `dcnr loadgen` run needs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Seed for the per-client request mix.
    pub mix_seed: u64,
    /// How many distinct scenario seeds per artifact to spread requests
    /// across (1 = everything hits the same cache entry).
    pub scenario_seeds: usize,
    /// The artifacts in the mix.
    pub artifacts: Vec<Experiment>,
    /// Scenario flags (`--scale 0.25 ...`), sent with every request as
    /// query parameters (`--seed` replaced by each minted seed) and
    /// parsed by the server's own query path.
    pub scenario_args: Vec<String>,
    /// Compare every body against a locally rendered expectation.
    pub verify: bool,
    /// Write (or append) a bench record here.
    pub bench_json: Option<String>,
    /// Append to an existing bench file instead of overwriting.
    pub bench_append: bool,
    /// Per-request client timeout (the retry policy's attempt timeout).
    pub timeout: Duration,
    /// Retry/backoff/deadline policy for every request.
    pub policy: RetryPolicy,
    /// Resilience-harness mode: verify every body and emit a pass/fail
    /// verdict against `min_success` and zero undetected corruption.
    pub chaos: bool,
    /// Minimum eventual-success rate the chaos verdict requires.
    pub min_success: f64,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            clients: 4,
            requests: 25,
            mix_seed: 0x10AD,
            scenario_seeds: 2,
            artifacts: vec![Experiment::Fig15, Experiment::Fig16, Experiment::Table4],
            scenario_args: Vec::new(),
            verify: false,
            bench_json: None,
            bench_append: false,
            timeout: Duration::from_secs(30),
            policy: RetryPolicy::default(),
            chaos: false,
            min_success: 0.99,
        }
    }
}

/// One entry in the request mix: a target URL plus what it renders.
#[derive(Debug, Clone)]
struct MixEntry {
    experiment: Experiment,
    scenario: Scenario,
    target: String,
}

/// Aggregated result of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests attempted per client.
    pub requests_per_client: usize,
    /// First-attempt successes.
    pub ok: usize,
    /// Successes after one or more retries.
    pub retried_ok: usize,
    /// Requests that exhausted their budget still being shed (terminal
    /// 503 after honoring every `Retry-After`).
    pub shed: usize,
    /// Requests that gave up on transport or server errors.
    pub errors: usize,
    /// Requests that gave up on *detected* integrity failures
    /// (truncation / checksum mismatch on every attempt).
    pub corrupt: usize,
    /// Successful responses flagged `X-Dcnr-Stale` by the server's
    /// degraded paths.
    pub stale: usize,
    /// Retry counts by cause across all clients.
    pub retries: RetryCauses,
    /// Byte-for-byte mismatches against the local render on responses
    /// that *passed* integrity checks — undetected corruption. Must be
    /// zero; only counted when `verify` was on.
    pub verify_failures: usize,
    /// Wall-clock for the whole run.
    pub wall: Duration,
    /// Completed (eventual 200 or terminal 503) requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles over successful requests (including retry
    /// and backoff time), in microseconds: (p50, p95, p99, mean, max).
    pub latency_micros: (u64, u64, u64, u64, u64),
    /// The `dcnr_server_workers` gauge scraped from `/metrics` after
    /// the run (0 when the scrape failed).
    pub server_workers: u64,
    /// Total transport fault injections scraped from the server's
    /// `dcnr_server_chaos_injections_total` counters (0 when absent).
    pub chaos_injections: u64,
    /// Whether this run was the `--chaos` resilience harness.
    pub chaos: bool,
    /// The eventual-success floor the verdict requires.
    pub min_success: f64,
    /// Human-readable report.
    pub rendered: String,
}

impl LoadReport {
    /// Fraction of requests that eventually succeeded.
    pub fn eventual_success_rate(&self) -> f64 {
        let total = self.clients * self.requests_per_client;
        if total == 0 {
            return 0.0;
        }
        (self.ok + self.retried_ok) as f64 / total as f64
    }

    /// The chaos-harness verdict: eventual success meets the floor and
    /// corruption never slipped past the integrity checks.
    pub fn verdict_pass(&self) -> bool {
        self.eventual_success_rate() >= self.min_success && self.verify_failures == 0
    }
}

/// Per-client tallies, merged across threads at the end of a run.
#[derive(Debug, Default)]
struct ClientTally {
    ok: usize,
    retried_ok: usize,
    shed: usize,
    gave_up: usize,
    corrupt: usize,
    stale: usize,
    verify_failures: usize,
    retries: RetryCauses,
    latencies: Vec<u64>,
}

impl ClientTally {
    fn merge(&mut self, other: ClientTally) {
        self.ok += other.ok;
        self.retried_ok += other.retried_ok;
        self.shed += other.shed;
        self.gave_up += other.gave_up;
        self.corrupt += other.corrupt;
        self.stale += other.stale;
        self.verify_failures += other.verify_failures;
        self.retries.merge(&other.retries);
        self.latencies.extend(other.latencies);
    }
}

/// Builds the deterministic request mix: every artifact crossed with
/// `scenario_seeds` seeds minted from its base scenario's seed. The
/// base scenario is read from the user's scenario flags as typed,
/// through the CLI's own parser, so a typo fails as it does on
/// `dcnr intra`. Each target's query is those flags with `seed`
/// replaced by the minted seed, and each entry's scenario is what the
/// server resolves that query to, so `--verify` compares against the
/// server's own render for every scenario flag.
fn build_mix(opts: &LoadgenOptions) -> Result<Vec<MixEntry>, DcnrError> {
    if opts.artifacts.is_empty() {
        return Err(DcnrError::Usage("loadgen: artifact list is empty".into()));
    }
    if opts.clients == 0 || opts.requests == 0 || opts.scenario_seeds == 0 {
        return Err(DcnrError::Usage(
            "loadgen: --clients, --requests, and --scenario-seeds must be positive".into(),
        ));
    }
    let seeds = u32::try_from(opts.scenario_seeds)
        .map_err(|_| DcnrError::Usage("loadgen: --scenario-seeds too large".into()))?;
    let unseeded: String = query_pairs(&opts.scenario_args)
        .iter()
        .filter(|p| p.split('=').next() != Some("seed"))
        .map(|p| format!("&{p}"))
        .collect();
    let mut mix = Vec::new();
    for &e in &opts.artifacts {
        let mut args = ArgScanner::new(opts.scenario_args.clone());
        let study = artifacts::descriptor(e).study;
        let base = apply_scenario_flags(&mut args, Scenario::cli_default(study))?;
        args.finish()?;
        for seed in seed_sequence(base.seed, "loadgen.scenario", seeds) {
            let query = format!("seed={seed}{unseeded}");
            mix.push(MixEntry {
                experiment: e,
                scenario: serve::scenario_for_artifact(e, &query)?,
                target: format!("/artifacts/{}?{query}", e.key()),
            });
        }
    }
    Ok(mix)
}

/// Rewrites scenario flags into query pairs, the inverse of the rewrite
/// [`serve::scenario_from_query`] applies: `--k v` and `--k=v` become
/// `k=v`, and a bare `--k` becomes `k`. As in [`ArgScanner`], a flag
/// takes the next argument as its value unless that starts with `--`.
/// [`build_mix`] sends no pair before it has parsed `args` as CLI
/// flags, so every argument is a flag or a flag's value.
fn query_pairs(args: &[String]) -> Vec<String> {
    let mut pairs = Vec::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let flag = arg.strip_prefix("--").unwrap_or(arg);
        match args.next_if(|v| !flag.contains('=') && !v.starts_with("--")) {
            Some(value) => pairs.push(format!("{flag}={value}")),
            None => pairs.push(flag.to_string()),
        }
    }
    pairs
}

/// Runs the closed loop against `opts.addr` and returns the aggregate.
///
/// Fails with [`DcnrError::Failed`] when no request succeeds (server
/// down or every response shed) or when `verify` finds any body that
/// differs from the local render.
pub fn run(opts: &LoadgenOptions) -> Result<LoadReport, DcnrError> {
    let mix = Arc::new(build_mix(opts)?);
    logger::info(format!(
        "driving http://{} with {} clients x {} requests...",
        opts.addr, opts.clients, opts.requests
    ));
    let verify = opts.verify || opts.chaos;
    // Local expectations, rendered serially before the clock starts.
    let expected: Arc<Vec<Option<String>>> = Arc::new(if verify {
        mix.iter()
            .map(|m| serve::render_artifact_text(&m.scenario, m.experiment).map(Some))
            .collect::<Result<_, _>>()?
    } else {
        mix.iter().map(|_| None).collect()
    });

    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..opts.clients {
        let mix = mix.clone();
        let expected = expected.clone();
        let addr = opts.addr.clone();
        let requests = opts.requests;
        let mix_seed = opts.mix_seed;
        let policy = RetryPolicy {
            attempt_timeout: opts.timeout,
            ..opts.policy
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("dcnr-loadgen-{i}"))
                .spawn(move || {
                    let mut rng = stream_rng(mix_seed, &format!("loadgen.client.{i}"));
                    let backoff_tag = format!("loadgen.backoff.{i}");
                    let mut tally = ClientTally::default();
                    for j in 0..requests {
                        let pick = rng.gen_range(0..mix.len());
                        let entry = &mix[pick];
                        let seed = derive_indexed_seed(mix_seed, &backoff_tag, j as u64);
                        let r = resilience::resilient_get(&addr, &entry.target, &policy, seed);
                        tally.retries.merge(&r.retries);
                        match r.outcome {
                            Outcome::Ok | Outcome::RetriedOk => {
                                if r.outcome == Outcome::Ok {
                                    tally.ok += 1;
                                } else {
                                    tally.retried_ok += 1;
                                }
                                if r.stale {
                                    tally.stale += 1;
                                }
                                tally.latencies.push(r.elapsed.as_micros() as u64);
                                // A body that passed Content-Length and
                                // checksum but differs from the local
                                // render is corruption the integrity
                                // layer MISSED.
                                if let (Some(want), Some(resp)) = (&expected[pick], &r.response) {
                                    if resp.body != want.as_bytes() {
                                        tally.verify_failures += 1;
                                    }
                                }
                            }
                            Outcome::Shed => tally.shed += 1,
                            Outcome::GaveUp => tally.gave_up += 1,
                            Outcome::Corrupt => tally.corrupt += 1,
                        }
                    }
                    tally
                })
                .map_err(|e| DcnrError::Failed(format!("spawn loadgen client: {e}")))?,
        );
    }

    let mut tally = ClientTally::default();
    for handle in handles {
        tally.merge(
            handle
                .join()
                .map_err(|_| DcnrError::Failed("loadgen client panicked".into()))?,
        );
    }
    let wall = started.elapsed();
    let succeeded = tally.ok + tally.retried_ok;

    if succeeded == 0 {
        return Err(DcnrError::Failed(format!(
            "loadgen: no successful responses from {} ({} shed, {} gave up, {} corrupt) — is the server up?",
            opts.addr, tally.shed, tally.gave_up, tally.corrupt
        )));
    }

    let mut latencies = tally.latencies;
    latencies.sort_unstable();
    let latency_micros = latency_summary(&latencies);
    let completed = succeeded + tally.shed;
    let throughput_rps = completed as f64 / wall.as_secs_f64().max(1e-9);
    let server_workers = scrape_metric(&opts.addr, opts.timeout, "dcnr_server_workers");
    let chaos_injections = scrape_counter_sum(
        &opts.addr,
        opts.timeout,
        "dcnr_server_chaos_injections_total",
    );

    let mut rendered = String::new();
    let _ = writeln!(rendered, "loadgen against http://{}", opts.addr);
    let _ = writeln!(
        rendered,
        "  clients {}  requests/client {}  mix entries {}  verify {}  chaos {}",
        opts.clients,
        opts.requests,
        mix.len(),
        if verify { "on" } else { "off" },
        if opts.chaos { "on" } else { "off" }
    );
    let _ = writeln!(
        rendered,
        "  ok {}  retried-ok {}  shed {}  gave-up {}  corrupt {}  stale {}  wall {:.3}s  throughput {throughput_rps:.1} req/s",
        tally.ok,
        tally.retried_ok,
        tally.shed,
        tally.gave_up,
        tally.corrupt,
        tally.stale,
        wall.as_secs_f64()
    );
    let _ = writeln!(
        rendered,
        "  retries  shed {}  transport {}  integrity {}  status {}",
        tally.retries.shed, tally.retries.transport, tally.retries.integrity, tally.retries.status
    );
    let _ = writeln!(
        rendered,
        "  latency micros  p50 {}  p95 {}  p99 {}  mean {}  max {}",
        latency_micros.0, latency_micros.1, latency_micros.2, latency_micros.3, latency_micros.4
    );

    let report = LoadReport {
        clients: opts.clients,
        requests_per_client: opts.requests,
        ok: tally.ok,
        retried_ok: tally.retried_ok,
        shed: tally.shed,
        errors: tally.gave_up,
        corrupt: tally.corrupt,
        stale: tally.stale,
        retries: tally.retries,
        verify_failures: tally.verify_failures,
        wall,
        throughput_rps,
        latency_micros,
        server_workers,
        chaos_injections,
        chaos: opts.chaos,
        min_success: opts.min_success,
        rendered,
    };
    let mut report = report;
    if opts.chaos {
        let _ = writeln!(
            report.rendered,
            "  chaos verdict: {}  eventual success {:.2}% (min {:.2}%)  undetected corruption {}  observed injections {}",
            if report.verdict_pass() { "PASS" } else { "FAIL" },
            report.eventual_success_rate() * 100.0,
            report.min_success * 100.0,
            report.verify_failures,
            report.chaos_injections
        );
    }
    if let Some(path) = &opts.bench_json {
        write_bench(path, opts.bench_append, &report)?;
    }
    if report.verify_failures > 0 {
        return Err(DcnrError::Failed(format!(
            "loadgen: {} response bodies passed integrity checks but differed from the local render (undetected corruption)",
            report.verify_failures
        )));
    }
    if opts.chaos && !report.verdict_pass() {
        return Err(DcnrError::Failed(format!(
            "loadgen: chaos verdict FAIL — eventual success {:.2}% below the {:.2}% floor",
            report.eventual_success_rate() * 100.0,
            report.min_success * 100.0
        )));
    }
    Ok(report)
}

/// Nearest-rank percentile on an already-sorted sample. Total for any
/// input: an empty sample answers 0 instead of panicking, a singleton
/// answers its only element for every `p`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p95, p99, mean, max)` over a sorted sample; all zeros when
/// the sample is empty.
fn latency_summary(sorted: &[u64]) -> (u64, u64, u64, u64, u64) {
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().sum::<u64>() / sorted.len() as u64
    };
    let max = *sorted.last().unwrap_or(&0);
    (
        percentile(sorted, 50.0),
        percentile(sorted, 95.0),
        percentile(sorted, 99.0),
        mean,
        max,
    )
}

/// Scrapes one unlabeled series off `/metrics` so the bench record
/// states what it actually measured against. Best-effort: 0 when the
/// scrape fails or the series is absent.
fn scrape_metric(addr: &str, timeout: Duration, name: &str) -> u64 {
    let Ok(resp) = client::get(addr, "/metrics", Some(timeout)) else {
        return 0;
    };
    let prefix = format!("{name} ");
    let body = String::from_utf8_lossy(&resp.body);
    body.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// Sums every labeled sample of a counter family off `/metrics` (e.g.
/// all `dcnr_server_chaos_injections_total{fault="..."}` series).
/// Best-effort: 0 when the scrape fails or the family is absent.
fn scrape_counter_sum(addr: &str, timeout: Duration, family: &str) -> u64 {
    let Ok(resp) = client::get(addr, "/metrics", Some(timeout)) else {
        return 0;
    };
    let brace = format!("{family}{{");
    let plain = format!("{family} ");
    let body = String::from_utf8_lossy(&resp.body);
    body.lines()
        .filter(|l| l.starts_with(brace.as_str()) || l.starts_with(plain.as_str()))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

/// One bench run as a JSON object literal.
fn bench_record(report: &LoadReport) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let oversubscribed = report.clients + report.server_workers as usize > cpus;
    let mut out = String::from("    {\n");
    let _ = writeln!(out, "      \"clients\": {},", report.clients);
    let _ = writeln!(
        out,
        "      \"requests_per_client\": {},",
        report.requests_per_client
    );
    let _ = writeln!(out, "      \"server_workers\": {},", report.server_workers);
    let _ = writeln!(out, "      \"host_cpus\": {cpus},");
    let _ = writeln!(
        out,
        "      \"wall_secs\": {:.6},",
        report.wall.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "      \"throughput_rps\": {:.3},",
        report.throughput_rps
    );
    let (p50, p95, p99, mean, max) = report.latency_micros;
    let _ = writeln!(
        out,
        "      \"latency_micros\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"mean\": {mean}, \"max\": {max} }},"
    );
    let _ = writeln!(
        out,
        "      \"outcomes\": {{ \"ok\": {}, \"retried_ok\": {}, \"shed\": {}, \"gave_up\": {}, \"corrupt\": {} }},",
        report.ok, report.retried_ok, report.shed, report.errors, report.corrupt
    );
    let _ = writeln!(
        out,
        "      \"retries\": {{ \"shed\": {}, \"transport\": {}, \"integrity\": {}, \"status\": {} }},",
        report.retries.shed, report.retries.transport, report.retries.integrity, report.retries.status
    );
    let _ = writeln!(out, "      \"stale_served\": {},", report.stale);
    if report.chaos {
        let _ = writeln!(
            out,
            "      \"chaos\": {{ \"verdict\": \"{}\", \"eventual_success_rate\": {:.6}, \"min_success\": {:.6}, \"undetected_corruption\": {}, \"observed_injections\": {} }},",
            if report.verdict_pass() { "pass" } else { "fail" },
            report.eventual_success_rate(),
            report.min_success,
            report.verify_failures,
            report.chaos_injections
        );
    }
    let _ = writeln!(out, "      \"verified\": {},", report.verify_failures == 0);
    let note = if oversubscribed {
        "clients + server workers exceed host CPUs; latency includes scheduling contention"
    } else {
        "clients + server workers fit within host CPUs"
    };
    let _ = writeln!(out, "      \"note\": \"{note}\"");
    out.push_str("    }");
    out
}

/// Writes (or appends to) the `BENCH_serve.json` run list and
/// re-validates the result with the in-tree JSON parser so a malformed
/// splice can never land on disk unnoticed.
fn write_bench(path: &str, append: bool, report: &LoadReport) -> Result<(), DcnrError> {
    let record = bench_record(report);
    let io_err = |e: std::io::Error| DcnrError::Io {
        path: path.to_string(),
        message: e.to_string(),
    };
    let text = if append {
        let existing = std::fs::read_to_string(path).map_err(io_err)?;
        let trimmed = existing.trim_end();
        // Splice before the closing "]\n}" of {"runs": [ ... ]}.
        let Some(idx) = trimmed.rfind(']') else {
            return Err(DcnrError::Failed(format!(
                "{path}: no run list to append to"
            )));
        };
        let (head, tail) = trimmed.split_at(idx);
        let head = head.trim_end();
        let separator = if head.ends_with('[') { "\n" } else { ",\n" };
        format!("{head}{separator}{record}\n  {tail}\n")
    } else {
        format!("{{\n  \"runs\": [\n{record}\n  ]\n}}\n")
    };
    json::parse(&text)
        .map_err(|e| DcnrError::Failed(format!("{path}: bench JSON would be malformed: {e}")))?;
    std::fs::write(path, text).map_err(io_err)?;
    Ok(())
}

/// Parses a comma-separated artifact list (`fig15,fig16,table4`).
pub fn parse_artifact_list(list: &str) -> Result<Vec<Experiment>, DcnrError> {
    let mut out = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        out.push(artifacts::lookup(name)?);
    }
    if out.is_empty() {
        return Err(DcnrError::Usage(format!("no artifacts in {list:?}")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_loadgen_args;

    #[test]
    fn mix_is_deterministic_and_covers_every_artifact_and_seed() {
        let opts = LoadgenOptions::default();
        let a = build_mix(&opts).unwrap();
        let b = build_mix(&opts).unwrap();
        assert_eq!(a.len(), opts.artifacts.len() * opts.scenario_seeds);
        assert_eq!(
            a.iter().map(|m| m.target.clone()).collect::<Vec<_>>(),
            b.iter().map(|m| m.target.clone()).collect::<Vec<_>>()
        );
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|m| m.scenario.seed).collect();
        assert_eq!(
            seeds.len(),
            opts.scenario_seeds,
            "seeds are shared per base"
        );
    }

    #[test]
    fn mix_applies_scenario_flags_through_the_shared_parser() {
        let opts = LoadgenOptions {
            scenario_args: vec![
                "--edges".into(),
                "40".into(),
                "--vendors".into(),
                "16".into(),
            ],
            ..LoadgenOptions::default()
        };
        let mix = build_mix(&opts).unwrap();
        assert!(mix.iter().all(|m| m.scenario.backbone.edges == 40));
        assert!(mix.iter().all(|m| m.target.contains("edges=40")));
        let bad = LoadgenOptions {
            scenario_args: vec!["--bogus".into()],
            ..LoadgenOptions::default()
        };
        assert_eq!(build_mix(&bad).unwrap_err().kind(), "usage");
    }

    #[test]
    fn mix_targets_carry_every_scenario_flag() {
        let opts = LoadgenOptions {
            artifacts: vec![Experiment::SurvLifespan, Experiment::Fig15],
            scenario_args: ["--topology", "dcell", "--scale=0.25", "--no-drain"]
                .map(String::from)
                .to_vec(),
            ..LoadgenOptions::default()
        };
        let mix = build_mix(&opts).unwrap();
        for m in &mix {
            let (_, query) = m.target.split_once('?').unwrap();
            assert!(query.starts_with("seed="), "{query}");
            assert!(query.ends_with("&topology=dcell&scale=0.25&no-drain"));
            let served = serve::scenario_for_artifact(m.experiment, query).unwrap();
            assert_eq!(format!("{:?}", m.scenario), format!("{served:?}"));
        }
        assert!(mix
            .iter()
            .filter(|m| m.experiment == Experiment::SurvLifespan)
            .all(|m| m.scenario.topology == "dcell"));
        // A user --seed is replaced by the seeds minted from it.
        let seeded = LoadgenOptions {
            scenario_args: ["--seed", "7"].map(String::from).to_vec(),
            ..LoadgenOptions::default()
        };
        let mix = build_mix(&seeded).unwrap();
        for (m, seed) in mix.iter().zip(seed_sequence(7, "loadgen.scenario", 2)) {
            assert_eq!(m.scenario.seed, seed);
            assert_eq!(m.target.matches("seed=").count(), 1, "{}", m.target);
        }
        // A stray positional is a usage error naming it.
        let stray = LoadgenOptions {
            scenario_args: vec!["dcell".into()],
            ..LoadgenOptions::default()
        };
        let err = build_mix(&stray).unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("\"dcell\""), "{err}");
    }

    #[test]
    fn empty_or_zero_options_are_usage_errors() {
        let opts = LoadgenOptions {
            artifacts: Vec::new(),
            ..LoadgenOptions::default()
        };
        assert_eq!(build_mix(&opts).unwrap_err().kind(), "usage");
        let opts = LoadgenOptions {
            clients: 0,
            ..LoadgenOptions::default()
        };
        assert_eq!(build_mix(&opts).unwrap_err().kind(), "usage");
    }

    #[test]
    fn removed_open_loop_flags_are_unrecognized_usage_errors() {
        for case in [
            &["--open-loop"][..],
            &["--rate", "200"],
            &["--overload", "2"],
            &["--arrivals", "400"],
            &["--max-in-flight", "32"],
            &["--goodput-floor", "0.2"],
            &["--p99-cap-ms", "2000"],
            &["--health-floor", "0.8"],
        ] {
            // What `dcnr loadgen` does: the parser leaves every flag it
            // does not own for the scenario query.
            let mut args = ArgScanner::new(case.iter().map(|a| a.to_string()).collect());
            let mut opts = parse_loadgen_args(&mut args).unwrap();
            opts.scenario_args = args.into_rest();
            let err = build_mix(&opts).unwrap_err();
            assert_eq!(err.kind(), "usage", "{case:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{case:?}");
            // Named as typed, as `dcnr intra` names it, not as the query
            // pair it would have become.
            let message = err.to_string();
            assert!(
                message.starts_with(&format!("unrecognized argument {:?}", case[0])),
                "{case:?}: {err}"
            );
            assert!(!message.contains("query string"), "{case:?}: {err}");
        }
    }

    #[test]
    fn artifact_lists_parse_and_reject_unknown_keys() {
        let list = parse_artifact_list("fig15, fig16,table4").unwrap();
        assert_eq!(
            list,
            vec![Experiment::Fig15, Experiment::Fig16, Experiment::Table4]
        );
        assert_eq!(parse_artifact_list("fig99").unwrap_err().kind(), "usage");
        assert_eq!(parse_artifact_list(" , ").unwrap_err().kind(), "usage");
    }

    #[test]
    fn bench_files_write_and_append_as_valid_json() {
        let report = LoadReport {
            clients: 2,
            requests_per_client: 5,
            ok: 8,
            retried_ok: 1,
            shed: 1,
            errors: 0,
            corrupt: 0,
            stale: 1,
            retries: RetryCauses {
                shed: 2,
                transport: 1,
                integrity: 0,
                status: 0,
            },
            verify_failures: 0,
            wall: Duration::from_millis(1500),
            throughput_rps: 7.33,
            latency_micros: (100, 200, 300, 120, 400),
            server_workers: 4,
            chaos_injections: 12,
            chaos: true,
            min_success: 0.99,
            rendered: String::new(),
        };
        let dir = std::env::temp_dir().join(format!("dcnr-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json").display().to_string();
        write_bench(&path, false, &report).unwrap();
        write_bench(&path, true, &report).unwrap();
        let parsed = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("clients").unwrap().as_u64().unwrap(), 2);
        assert_eq!(
            runs[1]
                .get("outcomes")
                .unwrap()
                .get("shed")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        let chaos = runs[0].get("chaos").unwrap();
        assert_eq!(chaos.get("verdict").unwrap().as_str().unwrap(), "fail");
        assert_eq!(
            chaos
                .get("undetected_corruption")
                .unwrap()
                .as_u64()
                .unwrap(),
            0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn percentiles_are_total_for_empty_and_singleton_samples() {
        assert_eq!(percentile(&[], 50.0), 0, "empty sample must not panic");
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(latency_summary(&[]), (0, 0, 0, 0, 0));
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 100.0), 42);
        assert_eq!(latency_summary(&[42]), (42, 42, 42, 42, 42));
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 50.0), 50, "nearest rank on even samples");
        assert_eq!(percentile(&s, 95.0), 100);
        assert_eq!(percentile(&s, 99.0), 100);
    }

    #[test]
    fn verdicts_require_the_success_floor_and_zero_undetected_corruption() {
        let mut report = LoadReport {
            clients: 10,
            requests_per_client: 10,
            ok: 95,
            retried_ok: 4,
            shed: 1,
            errors: 0,
            corrupt: 0,
            stale: 0,
            retries: RetryCauses::default(),
            verify_failures: 0,
            wall: Duration::from_secs(1),
            throughput_rps: 100.0,
            latency_micros: (1, 2, 3, 2, 3),
            server_workers: 1,
            chaos_injections: 0,
            chaos: true,
            min_success: 0.99,
            rendered: String::new(),
        };
        assert!((report.eventual_success_rate() - 0.99).abs() < 1e-9);
        assert!(report.verdict_pass());
        // One undetected corruption fails the verdict outright.
        report.verify_failures = 1;
        assert!(!report.verdict_pass());
        report.verify_failures = 0;
        // Dropping below the floor fails it too.
        report.ok = 94;
        report.errors = 1;
        assert!(!report.verdict_pass());
    }
}
