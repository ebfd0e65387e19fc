//! The `serve` workload: an in-process `dcnr serve` with CLI-default
//! options (threads engine, 4 workers, queue 64, cache 64), driven closed
//! loop by two client connections — scripts and dashboards that each wait
//! for their report. Most requests hit a warmed hot set (every intra and
//! backbone artifact of one scenario each); a fixed share miss on
//! never-seen intra scenarios, each requested for two different
//! artifacts, so every miss renders a fresh study.

use crate::measure::{median, timed, E2e, Layers, Tally};
use dcnr_core::artifacts;
use dcnr_core::serve::{render_artifact_text, scenario_for_artifact, RunningServer, ServeOptions};
use dcnr_core::sim::{derive_indexed_seed, derive_seed, stream_rng};
use dcnr_core::telemetry::{self, Telemetry};
use dcnr_core::{Experiment, StudyKind};
use dcnr_server::client;
use dcnr_server::http::CHECKSUM_HEADER;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Concurrent closed-loop client connections.
const CLIENTS: usize = 2;
/// The one reduced intra scale every served scenario uses (~20 ms a
/// miss); the same scale as the `intra` workload, for the same reason.
pub const SCALE: f64 = 0.15;
/// Every `MISS_EVERY`th request of a client (at a seeded phase) misses
/// on a never-seen scenario: a fixed 2.5% share.
const MISS_EVERY: u64 = 40;
/// Share of misses byte-compared against `render_artifact_text`.
const SAMPLE_SHARE: f64 = 0.125;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Per traced round: hits per client, fresh keys per miss phase, and
/// requests per client in the mixed phase.
const TRACE_HITS: u64 = 300;
const TRACE_MISSES: usize = 4;
const TRACE_MIXED: u64 = 160;

/// One cacheable artifact request.
#[derive(Debug, Clone, Copy)]
struct Key {
    experiment: Experiment,
    seed: u64,
}

impl Key {
    fn query(&self) -> String {
        format!("seed={}&scale={SCALE}", self.seed)
    }

    fn target(&self) -> String {
        format!("/artifacts/{}?{}", self.experiment.key(), self.query())
    }

    /// The bytes `dcnr artifact` would print for this key.
    fn reference(&self) -> Result<String, String> {
        let scenario = scenario_for_artifact(self.experiment, &self.query())
            .map_err(|e| format!("{}: {e}", self.target()))?;
        render_artifact_text(&scenario, self.experiment)
            .map_err(|e| format!("{}: {e}", self.target()))
    }
}

fn artifacts_of(kind: StudyKind) -> Vec<Experiment> {
    artifacts::registry()
        .iter()
        .filter(|a| a.study == kind)
        .map(|a| a.id)
        .collect()
}

/// One GET: `Ok(body)` only for a 200 whose checksum header was present
/// (the client verifies it against the body).
fn fetch(addr: &str, target: &str) -> Result<Vec<u8>, String> {
    let r = client::get(addr, target, Some(TIMEOUT)).map_err(|e| format!("GET {target}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET {target}: status {}", r.status));
    }
    if r.header(CHECKSUM_HEADER).is_none() {
        return Err(format!("GET {target}: no {CHECKSUM_HEADER} header"));
    }
    Ok(r.body)
}

/// The `/metrics` series the benchmark reads, summed over label sets.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    hits: f64,
    misses: f64,
    artifact_micros: f64,
    artifact_requests: f64,
    study_runs: f64,
}

impl Scrape {
    fn take(addr: &str) -> Result<Scrape, String> {
        let text = String::from_utf8(fetch(addr, "/metrics")?)
            .map_err(|_| "/metrics: not UTF-8".to_string())?;
        let sum = |name: &str, label: &str| -> f64 {
            text.lines()
                .filter_map(|line| {
                    let (series, value) = line.rsplit_once(' ')?;
                    let (n, labels) = series.split_once('{').unwrap_or((series, ""));
                    (n == name && labels.contains(label))
                        .then(|| value.parse::<f64>().ok())
                        .flatten()
                })
                .sum()
        };
        let route = "route=\"/artifacts/{id}\"";
        Ok(Scrape {
            hits: sum("dcnr_server_cache_hits_total", ""),
            misses: sum("dcnr_server_cache_misses_total", ""),
            artifact_micros: sum("dcnr_server_request_duration_micros_sum", route),
            artifact_requests: sum("dcnr_server_request_duration_micros_count", route),
            study_runs: sum(
                "dcnr_phase_duration_micros_count",
                "phase=\"intra.remediation\"",
            ),
        })
    }

    fn since(self, before: Scrape) -> Scrape {
        Scrape {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            artifact_micros: self.artifact_micros - before.artifact_micros,
            artifact_requests: self.artifact_requests - before.artifact_requests,
            study_runs: self.study_runs - before.study_runs,
        }
    }
}

/// A started server with its warmed hot set.
pub struct Serve {
    server: RunningServer,
    addr: String,
    /// Hot keys with the body each returned while warming.
    hot: Vec<(Key, Vec<u8>)>,
    intra: Vec<Experiment>,
}

/// Binds the server on an ephemeral port and warms the hot set (untimed
/// by the run, counted in `setup_s`).
pub fn setup(seed: u64, tally: &mut Tally) -> Option<Serve> {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    };
    let server = match dcnr_core::serve::start(&opts) {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, || format!("serve start: {e}"));
            return None;
        }
    };
    let addr = server.addr().to_string();
    let intra = artifacts_of(StudyKind::Intra);
    let intra_seed = derive_seed(seed, "perfbench.serve.hot.intra");
    let backbone_seed = derive_seed(seed, "perfbench.serve.hot.backbone");
    let keys: Vec<Key> = intra
        .iter()
        .map(|&experiment| Key {
            experiment,
            seed: intra_seed,
        })
        .chain(
            artifacts_of(StudyKind::Backbone)
                .into_iter()
                .map(|experiment| Key {
                    experiment,
                    seed: backbone_seed,
                }),
        )
        .collect();
    let mut hot = Vec::with_capacity(keys.len());
    for key in keys {
        match fetch(&addr, &key.target()) {
            Ok(body) => hot.push((key, body)),
            Err(e) => tally.check(false, || format!("warm-up {e}")),
        }
    }
    Some(Serve {
        server,
        addr,
        hot,
        intra,
    })
}

impl Serve {
    pub fn shutdown(self) {
        self.server.shutdown_and_join();
    }
}

enum Req {
    Hit(usize),
    Miss { key: Key, sampled: bool },
}

/// A client's seeded request stream: every `miss_every`th request (none
/// if 0) misses on a fresh intra scenario, each scenario used for two
/// distinct artifacts on consecutive misses; the rest hit the hot set
/// uniformly.
struct Plan<'a> {
    serve: &'a Serve,
    rng: StdRng,
    seed: u64,
    miss_every: u64,
    phase: u64,
    sent: u64,
    scenarios: u64,
    pending: Option<Key>,
}

impl<'a> Plan<'a> {
    fn new(serve: &'a Serve, seed: u64, miss_every: u64) -> Self {
        let mut rng = stream_rng(seed, "perfbench.serve.plan");
        let phase = rng.gen_range(0..miss_every.max(1));
        Plan {
            serve,
            rng,
            seed,
            miss_every,
            phase,
            sent: 0,
            scenarios: 0,
            pending: None,
        }
    }

    fn next(&mut self) -> Req {
        let miss = self.miss_every != 0 && self.sent % self.miss_every == self.phase;
        self.sent += 1;
        if miss {
            let key = self.fresh();
            let sampled = self.rng.gen::<f64>() < SAMPLE_SHARE;
            Req::Miss { key, sampled }
        } else {
            Req::Hit(self.rng.gen_range(0..self.serve.hot.len()))
        }
    }

    fn fresh(&mut self) -> Key {
        if let Some(key) = self.pending.take() {
            return key;
        }
        let seed = derive_indexed_seed(self.seed, "perfbench.serve.fresh", self.scenarios);
        self.scenarios += 1;
        let n = self.serve.intra.len();
        let a = self.rng.gen_range(0..n);
        let b = (a + self.rng.gen_range(1..n)) % n;
        self.pending = Some(Key {
            experiment: self.serve.intra[b],
            seed,
        });
        Key {
            experiment: self.serve.intra[a],
            seed,
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    tally: Tally,
    hit_secs: Vec<f64>,
    miss_secs: Vec<f64>,
    hits: u64,
    misses: u64,
    sampled: Vec<(Key, Vec<u8>)>,
}

impl ClientRun {
    fn merge(&mut self, other: ClientRun) {
        self.tally.merge(other.tally);
        self.hit_secs.extend(other.hit_secs);
        self.miss_secs.extend(other.miss_secs);
        self.hits += other.hits;
        self.misses += other.misses;
        self.sampled.extend(other.sampled);
    }
}

/// Closed loop: send the next request only after the previous answered,
/// until `deadline` or `limit` requests.
fn client_loop(plan: &mut Plan, deadline: Option<Instant>, limit: u64) -> ClientRun {
    let serve = plan.serve;
    let mut run = ClientRun::default();
    for _ in 0..limit {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        match plan.next() {
            Req::Hit(i) => {
                let (key, warm) = &serve.hot[i];
                let target = key.target();
                let (result, secs) = timed(|| fetch(&serve.addr, &target));
                run.hits += 1;
                let result = result.and_then(|body| {
                    if body == *warm {
                        Ok(())
                    } else {
                        Err(format!("hit {target}: body differs from its warm-up body"))
                    }
                });
                if result.is_ok() {
                    run.hit_secs.push(secs);
                }
                run.tally.op(result);
            }
            Req::Miss { key, sampled } => {
                let target = key.target();
                let (result, secs) = timed(|| fetch(&serve.addr, &target));
                run.misses += 1;
                if let Ok(body) = &result {
                    run.miss_secs.push(secs);
                    if sampled {
                        run.sampled.push((key, body.clone()));
                    }
                }
                run.tally.op(result.map(|_| ()));
            }
        }
    }
    run
}

/// Runs `CLIENTS` concurrent closed loops with plans seeded from `seed`.
fn clients(
    serve: &Serve,
    seed: u64,
    miss_every: u64,
    deadline: Option<Instant>,
    limit: u64,
) -> ClientRun {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut plan = Plan::new(
                        serve,
                        derive_indexed_seed(seed, "perfbench.serve.client", c),
                        miss_every,
                    );
                    client_loop(&mut plan, deadline, limit)
                })
            })
            .collect();
        let mut all = ClientRun::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    })
}

/// Checks the `/metrics` cache deltas against the benchmark's own
/// hit/miss classification: an eviction that turned a hit into a miss
/// shows here.
fn check_cache_deltas(delta: &Scrape, run: &ClientRun, tally: &mut Tally) {
    tally.check(
        delta.hits == run.hits as f64 && delta.misses == run.misses as f64,
        || {
            format!(
                "/metrics counted {} hits / {} misses; the benchmark sent {} / {}",
                delta.hits, delta.misses, run.hits, run.misses
            )
        },
    );
}

pub fn run(serve: &Serve, seed: u64, deadline: Instant, tally: &mut Tally) -> E2e {
    let before = Scrape::take(&serve.addr);
    let started = Instant::now();
    let run = clients(serve, seed, MISS_EVERY, Some(deadline), u64::MAX);
    let wall = started.elapsed().as_secs_f64();
    match (before, Scrape::take(&serve.addr)) {
        (Ok(before), Ok(after)) => check_cache_deltas(&after.since(before), &run, tally),
        (Err(e), _) | (_, Err(e)) => tally.check(false, || e),
    }
    // Every hit was compared with its warm-up body; the warm-up bodies
    // and a seeded sample of misses are compared with the CLI's bytes.
    let references = serve
        .hot
        .iter()
        .map(|(k, b)| (k, b))
        .chain(run.sampled.iter().map(|(k, b)| (k, b)));
    let mut compared = 0usize;
    for (key, body) in references {
        compared += 1;
        let same = key.reference().map(|text| text.as_bytes() == &body[..]);
        tally.check(same == Ok(true), || {
            format!(
                "{}: served bytes differ from render_artifact_text ({same:?})",
                key.target()
            )
        });
    }
    let notes = vec![
        ("clients", CLIENTS.to_string()),
        ("hot_keys", serve.hot.len().to_string()),
        ("miss_every", MISS_EVERY.to_string()),
        ("scale", SCALE.to_string()),
        ("hits", run.hits.to_string()),
        ("misses", run.misses.to_string()),
        ("byte_compared", compared.to_string()),
    ];
    tally.merge(run.tally);
    E2e {
        plain: run.hit_secs,
        collector: run.miss_secs,
        wall,
        notes,
    }
}

/// One traced round against the running server, in four phases:
/// hits only (server-side vs wire time from `/metrics` deltas), in-process
/// renders of fresh keys without and with a collector, client misses on
/// fresh keys (overhead beyond the render and study runs per miss), and a
/// short mixed phase for the cache hit ratio.
pub fn trace_round(serve: &Serve, seed: u64, layers: &mut Layers, tally: &mut Tally) {
    let stats = serve.server.stats();
    let (shed0, read0) = (
        stats.shed.load(Ordering::Relaxed),
        stats.read_errors.load(Ordering::Relaxed),
    );
    let scrape = |tally: &mut Tally| {
        Scrape::take(&serve.addr).unwrap_or_else(|e| {
            tally.check(false, || e);
            Scrape::default()
        })
    };

    let before = scrape(tally);
    let hits = clients(serve, derive_seed(seed, "hits"), 0, None, TRACE_HITS);
    let delta = scrape(tally).since(before);
    check_cache_deltas(&delta, &hits, tally);
    let client_us = hits.hit_secs.iter().sum::<f64>() / hits.hit_secs.len().max(1) as f64 * 1e6;
    let server_us = delta.artifact_micros / delta.artifact_requests.max(1.0);
    layers.add("server.hit_server_us", server_us);
    layers.add("server.hit_wire_us", client_us - server_us);
    tally.merge(hits.tally);

    let mut plan = Plan::new(serve, derive_seed(seed, "fresh"), 1);
    let mut render = |collector: bool, tally: &mut Tally| -> Vec<f64> {
        (0..TRACE_MISSES)
            .filter_map(|_| {
                let key = plan.fresh();
                let (result, secs) = timed(|| {
                    let _guard = collector.then(|| telemetry::installed(Telemetry::new_handle()));
                    key.reference()
                });
                tally.op(result.as_ref().map(|_| ()).map_err(Clone::clone));
                result.ok().map(|_| secs * 1e3)
            })
            .collect()
    };
    let render_ms = median(&render(false, tally));
    let render_telemetry_ms = median(&render(true, tally));
    layers.add("core.miss_render_ms", render_ms);
    layers.add("core.miss_render_telemetry_ms", render_telemetry_ms);

    let before = scrape(tally);
    let misses = client_loop(&mut plan, None, TRACE_MISSES as u64);
    let delta = scrape(tally).since(before);
    check_cache_deltas(&delta, &misses, tally);
    layers.add(
        "server.miss_overhead_ms",
        median(&misses.miss_secs) * 1e3 - render_telemetry_ms,
    );
    layers.add(
        "core.study_runs_per_miss",
        delta.study_runs / misses.misses.max(1) as f64,
    );
    tally.merge(misses.tally);

    let before = scrape(tally);
    let mixed = clients(
        serve,
        derive_seed(seed, "mixed"),
        MISS_EVERY,
        None,
        TRACE_MIXED,
    );
    let delta = scrape(tally).since(before);
    check_cache_deltas(&delta, &mixed, tally);
    layers.add(
        "server.cache_hit_ratio",
        delta.hits / (delta.hits + delta.misses).max(1.0),
    );
    tally.merge(mixed.tally);

    layers.add(
        "server.shed",
        (stats.shed.load(Ordering::Relaxed) - shed0) as f64,
    );
    layers.add(
        "server.read_errors",
        (stats.read_errors.load(Ordering::Relaxed) - read0) as f64,
    );
}
