//! The `dcnr serve` application layer: routes, the rendered-artifact
//! cache, and live metrics on top of the `dcnr-server` substrate.
//!
//! Endpoints:
//!
//! | route                | serves                                        |
//! |----------------------|-----------------------------------------------|
//! | `/artifacts/{id}`    | one registry artifact for the scenario in the |
//! |                      | query string, through the LRU result cache    |
//! | `/sweeps/{dir}`      | the aggregated band report for an existing    |
//! |                      | checkpoint directory under `--sweep-root`     |
//! | `/metrics`           | Prometheus text: server + study metrics       |
//! | `/healthz`, `/readyz`| liveness / readiness (503 while draining)     |
//! | `/admin/shutdown`    | graceful drain (only with `--admin`)          |
//! | `/admin/sleep`       | test hook: hold a worker busy (only `--admin`)|
//!
//! Determinism contract: an `/artifacts/{id}` response is byte-identical
//! to `dcnr artifact {id}` with the same flags. Both paths build the
//! scenario from [`Scenario::cli_default`] for the artifact's study and
//! apply the **same** [`crate::cli::apply_scenario_flags`] (query pairs
//! are rewritten to `--flag=value` arguments), then render one block
//! from a [`RunContext`] through the same private helper. The cache is
//! keyed like a checkpoint shard — scenario kind + seed + artifact id,
//! with the scenario's `Debug` rendering as the same safety net
//! [`crate::checkpoint::Manifest`] uses — so a hit can never serve a
//! response the miss path would not have produced.
//!
//! One study per scenario: `dcnr artifact` runs a fresh context, while
//! the server keeps the contexts of the four most recently rendered
//! scenarios, keyed by the scenario part of that key. Every miss
//! renders from its scenario's shared context, so a dashboard asking
//! for five backbone figures of one scenario runs the backbone
//! simulation once; concurrent misses on one scenario wait on the
//! context's `OnceLock` for that single run.

use crate::artifacts;
use crate::cli::{apply_scenario_flags, ArgScanner};
use crate::error::{panic_message, DcnrError};
use crate::experiments::Experiment;
use crate::scenario::{RunContext, Scenario};
use crate::sweep;
use dcnr_server::cache::LruCache;
use dcnr_server::chaos::ChaosState;
use dcnr_server::http::{percent_decode, Request, Response};
use dcnr_server::pool::{Handler, Server, ServerConfig, ServerStats};
use dcnr_telemetry::logger;
use dcnr_telemetry::metrics::Key;
use dcnr_telemetry::trace::TraceBuffer;
use dcnr_telemetry::{prometheus, Telemetry, TelemetryHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Everything `dcnr serve` needs to start.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker thread count; `0` auto-detects
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Accept-queue depth; connections beyond it shed with 503.
    pub queue_depth: usize,
    /// Rendered-artifact LRU cache capacity (entries).
    pub cache_entries: usize,
    /// Directory `/sweeps/{dir}` resolves checkpoint names under.
    pub sweep_root: PathBuf,
    /// Enable `/admin/shutdown` and `/admin/sleep` (test mode).
    pub admin: bool,
    /// Write the bound address here after binding (ephemeral-port
    /// discovery for scripts and CI).
    pub port_file: Option<PathBuf>,
    /// Transport fault injection (`--chaos-*`); `None` leaves the write
    /// path untouched, and an all-zero plan is byte-identical to `None`.
    pub chaos: Option<dcnr_server::chaos::FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            cache_entries: 64,
            sweep_root: PathBuf::from("."),
            admin: false,
            port_file: None,
            chaos: None,
        }
    }
}

/// How many scenarios' run contexts the server keeps resident. Four
/// matches the default worker count, so each worker can be rendering a
/// different scenario without evicting another's study. Measured as the
/// server's resident-set growth, four CLI-default (scale 10) intra
/// contexts add about 23 MiB (a study keeps its SEVs and Table 1, not
/// its triage outcomes), a backbone context about 3 MiB at any scale
/// and a scale-0.15 intra context about 0.35 MiB. A context evicted
/// mid-render lives on in its renders' `Arc`s until they finish.
const RESIDENT_CONTEXTS: usize = 4;

/// Shared state behind the request handler.
struct ServeState {
    /// Metrics only: nothing reads a trace back out of the server, so
    /// its buffer keeps no events and renders format no trace details.
    telemetry: TelemetryHandle,
    /// Rendered-artifact result cache, the only copy of a render the
    /// server keeps: a render is a pure function of its key, so a miss
    /// just renders again.
    cache: Mutex<LruCache<String, Arc<String>>>,
    /// The run contexts of the most recently rendered scenarios, keyed
    /// by [`scenario_key`]; misses render from these.
    contexts: Mutex<LruCache<String, Arc<RunContext>>>,
    stats: Arc<ServerStats>,
    sweep_root: PathBuf,
    admin: bool,
    workers: usize,
    queue_depth: usize,
    draining: AtomicBool,
    chaos: Option<Arc<ChaosState>>,
}

/// A started server plus the state handles tests and the CLI loop need.
pub struct RunningServer {
    server: Option<Server>,
    state: Arc<ServeState>,
    addr: SocketAddr,
}

impl RunningServer {
    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether `/admin/shutdown` has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// The live substrate counters (accepted/shed/handled/...).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.state.stats
    }

    /// The resolved worker count (after `--workers 0` auto-detection).
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// The live chaos state, when fault injection is enabled.
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.state.chaos.as_ref()
    }

    /// Drains and joins every server thread.
    pub fn shutdown_and_join(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

/// Binds and starts the server; returns immediately. The CLI wraps this
/// in [`run`]; tests drive the returned handle directly.
pub fn start(opts: &ServeOptions) -> Result<RunningServer, DcnrError> {
    let stats = Arc::new(ServerStats::default());
    let workers = resolve_workers(opts.workers);
    let chaos = opts
        .chaos
        .clone()
        .map(|plan| Arc::new(ChaosState::new(plan)));
    if let Some(c) = &chaos {
        logger::info(format!("chaos enabled: {}", c.plan().describe()));
    }
    let state = Arc::new(ServeState {
        telemetry: Arc::new(Telemetry {
            trace: TraceBuffer::with_capacity(0),
            ..Telemetry::default()
        }),
        cache: Mutex::new(LruCache::new(opts.cache_entries.max(1))),
        contexts: Mutex::new(LruCache::new(RESIDENT_CONTEXTS)),
        stats: stats.clone(),
        sweep_root: opts.sweep_root.clone(),
        admin: opts.admin,
        workers,
        queue_depth: opts.queue_depth.max(1),
        draining: AtomicBool::new(false),
        chaos: chaos.clone(),
    });
    let handler: Handler = {
        let state = state.clone();
        Arc::new(move |req| handle(&state, req))
    };
    let config = ServerConfig {
        workers,
        queue_depth: opts.queue_depth.max(1),
        chaos,
        ..ServerConfig::default()
    };
    let server =
        Server::bind(opts.addr.as_str(), config, stats, handler).map_err(|e| DcnrError::Io {
            path: opts.addr.clone(),
            message: format!("bind: {e}"),
        })?;
    let addr = server.local_addr();
    if let Some(path) = &opts.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| DcnrError::Io {
            path: path.display().to_string(),
            message: format!("write port file: {e}"),
        })?;
    }
    Ok(RunningServer {
        server: Some(server),
        state,
        addr,
    })
}

/// Resolves a `--workers` value: `0` auto-detects the machine's
/// available parallelism (logged, and exported as the
/// `dcnr_server_workers` gauge); anything else is taken as given. The
/// detected count is never below 1.
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    let detected = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(1);
    logger::info(format!(
        "--workers 0: auto-detected {detected} worker thread{}",
        if detected == 1 { "" } else { "s" }
    ));
    detected
}

/// The blocking `dcnr serve` loop: start, wait for SIGINT or
/// `/admin/shutdown`, drain, join.
pub fn run(opts: &ServeOptions) -> Result<(), DcnrError> {
    dcnr_server::signal::install_sigint_latch();
    let server = start(opts)?;
    logger::info(format!(
        "serving on http://{} ({} workers, queue depth {}, cache {} entries)",
        server.addr(),
        server.workers(),
        opts.queue_depth.max(1),
        opts.cache_entries.max(1),
    ));
    loop {
        if dcnr_server::signal::sigint_received() {
            logger::info("SIGINT received; draining...");
            break;
        }
        if server.shutdown_requested() {
            logger::info("/admin/shutdown received; draining...");
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown_and_join();
    logger::info("drained; all connections served and threads joined");
    Ok(())
}

/// The normalized route label a request is accounted under. Patterns,
/// not raw paths, so the metric cardinality stays bounded — and the
/// values deliberately contain `/` (and `{}`) to keep the Prometheus
/// renderer honest against its own validator.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/metrics" => "/metrics",
        "/admin/shutdown" => "/admin/shutdown",
        "/admin/sleep" => "/admin/sleep",
        p if p.starts_with("/artifacts/") => "/artifacts/{id}",
        p if p.starts_with("/sweeps/") => "/sweeps/{dir}",
        _ => "unmatched",
    }
}

/// Top-level handler: installs the server's telemetry on this worker
/// thread (study spans recorded while rendering land in `/metrics`),
/// dispatches, and accounts the request.
fn handle(state: &ServeState, req: &Request) -> Response {
    let _guard = dcnr_telemetry::installed(state.telemetry.clone());
    let route = route_label(&req.path);
    let started = Instant::now();
    let response = dispatch(state, req);
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let status = response.status.to_string();
    dcnr_telemetry::counter_add(
        "dcnr_server_requests_total",
        &[("route", route), ("status", &status)],
        1,
    );
    dcnr_telemetry::observe_micros(
        "dcnr_server_request_duration_micros",
        &[("route", route)],
        micros,
    );
    response
}

fn dispatch(state: &ServeState, req: &Request) -> Response {
    match req.path.as_str() {
        "/healthz" => Response::ok("ok\n"),
        "/readyz" => {
            if state.draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else {
                Response::ok("ready\n")
            }
        }
        "/metrics" => metrics_response(state),
        "/admin/shutdown" if state.admin => {
            state.draining.store(true, Ordering::SeqCst);
            Response::ok("draining\n")
        }
        "/admin/sleep" if state.admin => sleep_response(&req.query),
        path => {
            if let Some(id) = path.strip_prefix("/artifacts/") {
                artifact_response(state, id, &req.query)
            } else if let Some(name) = path.strip_prefix("/sweeps/") {
                sweep_response(state, name)
            } else {
                Response::not_found(path)
            }
        }
    }
}

/// Test hook: occupies a worker for `millis` so saturation tests can
/// fill the queue deterministically instead of racing real renders.
fn sleep_response(query: &str) -> Response {
    let millis = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("millis="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(50)
        .min(10_000);
    std::thread::sleep(Duration::from_millis(millis));
    Response::ok(format!("slept {millis} ms\n"))
}

/// Prometheus text of the server's own registry (request counters,
/// latency histograms, cache hits, study phase spans) with the live
/// substrate counters spliced in at scrape time.
fn metrics_response(state: &ServeState) -> Response {
    let mut snapshot = state.telemetry.metrics.snapshot();
    let key = |name: &str| Key::new(name, &[]);
    let stats = &state.stats;
    for (name, value) in [
        ("dcnr_server_connections_total", &stats.accepted),
        ("dcnr_server_shed_total", &stats.shed),
        ("dcnr_server_handled_total", &stats.handled),
        ("dcnr_server_read_errors_total", &stats.read_errors),
    ] {
        snapshot
            .counters
            .insert(key(name), value.load(Ordering::Relaxed));
    }
    let cache_entries = lock(&state.cache).len() as i64;
    for (name, value) in [
        (
            "dcnr_server_queue_depth",
            stats.queue_depth.load(Ordering::Relaxed),
        ),
        (
            "dcnr_server_queue_peak",
            stats.queue_peak.load(Ordering::Relaxed) as i64,
        ),
        ("dcnr_server_workers", state.workers as i64),
        ("dcnr_server_cache_entries", cache_entries),
        (
            "dcnr_server_draining",
            i64::from(state.draining.load(Ordering::SeqCst)),
        ),
    ] {
        snapshot.gauges.insert(key(name), value);
    }
    if let Some(chaos) = &state.chaos {
        for (fault, count) in chaos.stats.by_fault() {
            snapshot.counters.insert(
                Key::new("dcnr_server_chaos_injections_total", &[("fault", fault)]),
                count,
            );
        }
    }
    let mut response = Response::ok(prometheus::render(&snapshot));
    response.content_type = "text/plain; version=0.0.4";
    response
}

/// Locks the cache or the resident contexts. Every update to them is a
/// single map operation that leaves the data
/// valid, so a guard poisoned by a panicking handler is still safe to
/// use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The accept-queue depth at which cache misses brown out: renders are
/// the expensive path, so once the queue is three-quarters full the
/// server answers misses with the shed `503` and spends its workers on
/// cheap routes and cache hits until the queue drains.
fn brownout_threshold(queue_depth: usize) -> usize {
    (queue_depth * 3 / 4).max(2)
}

/// `/artifacts/{id}`: a hit answers from the cache; a miss is shed
/// under brownout or rendered from its scenario's resident context.
fn artifact_response(state: &ServeState, id: &str, query: &str) -> Response {
    let experiment = match artifacts::lookup(id) {
        Ok(e) => e,
        Err(e) => return Response::not_found(&e.to_string()),
    };
    let scenario = match scenario_for_artifact(experiment, query) {
        Ok(s) => s,
        Err(e) => return Response::bad_request(e),
    };
    let artifact_key = experiment.key();
    let key = cache_key(&scenario, artifact_key);
    let hit = lock(&state.cache).get(&key).cloned();
    if let Some(body) = hit {
        dcnr_telemetry::counter_add(
            "dcnr_server_cache_hits_total",
            &[("artifact", artifact_key)],
            1,
        );
        return Response::ok(body.as_str());
    }
    dcnr_telemetry::counter_add(
        "dcnr_server_cache_misses_total",
        &[("artifact", artifact_key)],
        1,
    );

    let depth = state.stats.queue_depth.load(Ordering::Relaxed).max(0) as usize;
    if depth >= brownout_threshold(state.queue_depth) {
        dcnr_telemetry::counter_add(
            "dcnr_server_brownout_total",
            &[("artifact", artifact_key)],
            1,
        );
        return Response::unavailable(1);
    }

    match resident_context(state, &scenario).and_then(|ctx| render_from(&ctx, experiment)) {
        Ok(text) => {
            // The guard is released at the end of the statement; what
            // the insert evicted drops only when this arm ends.
            let _evicted = lock(&state.cache).insert(key, Arc::new(text.clone()));
            Response::ok(text)
        }
        Err(e @ (DcnrError::Config(_) | DcnrError::Usage(_))) => Response::bad_request(e),
        Err(e) => {
            dcnr_telemetry::counter_add(
                "dcnr_server_render_failures_total",
                &[("artifact", artifact_key)],
                1,
            );
            Response::internal_error(e)
        }
    }
}

fn sweep_response(state: &ServeState, name: &str) -> Response {
    // The path component is already percent-decoded; a traversal-free
    // plain name is all the server will resolve under --sweep-root.
    if name.is_empty() || name == "." || name == ".." || name.contains('/') || name.contains('\\') {
        return Response::bad_request("sweep name must be a plain directory name");
    }
    match sweep::report_from_checkpoint(&state.sweep_root.join(name)) {
        Ok(text) => Response::ok(text),
        Err(e @ (DcnrError::Checkpoint { .. } | DcnrError::Io { .. })) => {
            Response::not_found(&format!("sweep {name:?}: {e}"))
        }
        Err(e) => Response::internal_error(e),
    }
}

/// The scenario an `/artifacts/{id}` query resolves to: the CLI default
/// for the artifact's study, adjusted by the query string through the
/// same flag path the CLI uses.
pub fn scenario_for_artifact(e: Experiment, query: &str) -> Result<Scenario, DcnrError> {
    scenario_from_query(Scenario::cli_default(artifacts::descriptor(e).study), query)
}

/// Rewrites query pairs (`seed=7&no-automation`) into the CLI's flag
/// form (`--seed=7 --no-automation`) and applies them via
/// [`apply_scenario_flags`] — one parser for both surfaces, so a flag
/// added there is automatically a query parameter here, and unknown
/// parameters fail with the same named usage error.
pub fn scenario_from_query(base: Scenario, query: &str) -> Result<Scenario, DcnrError> {
    let mut argv = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = match pair.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (pair, None),
        };
        let k = percent_decode(k).map_err(|e| DcnrError::Usage(format!("query: {e}")))?;
        match v {
            Some(v) => {
                let v = percent_decode(v).map_err(|e| DcnrError::Usage(format!("query: {e}")))?;
                argv.push(format!("--{k}={v}"));
            }
            None => argv.push(format!("--{k}")),
        }
    }
    let mut scan = ArgScanner::new(argv);
    let scenario = apply_scenario_flags(&mut scan, base)?;
    scan.finish()
        .map_err(|e| DcnrError::Usage(format!("query string: {e}")))?;
    Ok(scenario)
}

/// The run-context key for `scenario`: kind + master seed, plus the
/// scenario's `Debug` rendering as the exact-match safety net the
/// checkpoint manifest uses — any scenario knob, present or future,
/// distinguishes contexts.
pub(crate) fn scenario_key(scenario: &Scenario) -> String {
    format!("{}|{:#018x}|{:?}", scenario.kind, scenario.seed, scenario)
}

/// The result-cache key for (`scenario`, `artifact`): the scenario's
/// run-context key (kind + master seed + its `Debug` rendering) with
/// the artifact id, formatted in one pass because every hit builds it.
pub fn cache_key(scenario: &Scenario, artifact: &str) -> String {
    format!(
        "{}|{:#018x}|{}|{:?}",
        scenario.kind, scenario.seed, artifact, scenario
    )
}

/// The resident context for `scenario`, inserted (most recently used)
/// if absent. Validates first, so an invalid scenario never occupies a
/// slot. The lock covers only the lookup: the study runs later, inside
/// the context's `OnceLock`, so different scenarios render concurrently,
/// and an evicted context is freed after the lock is released, so no
/// other miss's lookup waits on a study being dropped.
fn resident_context(state: &ServeState, scenario: &Scenario) -> Result<Arc<RunContext>, DcnrError> {
    scenario.validate()?;
    let key = scenario_key(scenario);
    let mut contexts = lock(&state.contexts);
    if let Some(ctx) = contexts.get(&key) {
        return Ok(ctx.clone());
    }
    let ctx = Arc::new(RunContext::new(*scenario));
    let evicted = contexts.insert(key, ctx.clone());
    drop(contexts);
    drop(evicted);
    Ok(ctx)
}

/// Renders one artifact for `scenario` from a fresh context: validate,
/// run the study, render the block. `dcnr artifact` prints this; the
/// server's miss path renders through the same private helper over its
/// resident context, which is what makes their bytes identical.
pub fn render_artifact_text(scenario: &Scenario, e: Experiment) -> Result<String, DcnrError> {
    scenario.validate()?;
    render_from(&RunContext::new(*scenario), e)
}

/// Renders artifact `e`'s block from `ctx`, running its study on first
/// use, with a panic converted to a typed error at this boundary,
/// exactly like `RunContext::try_execute`. A study that panics leaves
/// its `OnceLock` empty, so the next render of the context retries it.
pub(crate) fn render_from(ctx: &RunContext, e: Experiment) -> Result<String, DcnrError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        artifacts::render_block(&ctx.artifact(e))
    }))
    .map_err(|payload| DcnrError::Panic {
        context: format!(
            "artifact {} ({} scenario seed {:#x})",
            e.key(),
            ctx.scenario().kind,
            ctx.scenario().seed
        ),
        message: panic_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StudyKind;

    fn small_query() -> &'static str {
        "seed=11&scale=0.25&edges=40&vendors=16"
    }

    #[test]
    fn query_round_trips_through_the_cli_flag_parser() {
        let s =
            scenario_from_query(Scenario::cli_default(StudyKind::Backbone), small_query()).unwrap();
        assert_eq!(s.seed, 11);
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.backbone.edges, 40);
    }

    #[test]
    fn query_errors_are_usage_errors_naming_the_parameter() {
        let base = Scenario::cli_default(StudyKind::Intra);
        let err = scenario_from_query(base, "seed=banana").unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("--seed"), "{err}");
        let err = scenario_from_query(base, "bogus=1").unwrap_err();
        assert_eq!(err.kind(), "usage");
        let err = scenario_from_query(base, "scale=-1").unwrap_err();
        assert_eq!(err.kind(), "config", "validation failures stay config");
    }

    #[test]
    fn cache_key_distinguishes_every_knob() {
        let a = Scenario::cli_default(StudyKind::Backbone);
        let b = a.with_seed(a.seed + 1);
        let mut c = a;
        c.backbone.edges += 1;
        assert_ne!(cache_key(&a, "fig15"), cache_key(&b, "fig15"));
        assert_ne!(cache_key(&a, "fig15"), cache_key(&a, "fig16"));
        assert_ne!(cache_key(&a, "fig15"), cache_key(&c, "fig15"));
        assert_eq!(
            cache_key(&a, "fig15"),
            cache_key(&a.with_seed(a.seed), "fig15")
        );
    }

    #[test]
    fn render_artifact_text_matches_the_full_report_block() {
        let scenario =
            scenario_from_query(Scenario::cli_default(StudyKind::Backbone), small_query()).unwrap();
        let text = render_artifact_text(&scenario, Experiment::Fig15).unwrap();
        let full = RunContext::new(scenario).execute();
        assert!(
            full.rendered.contains(&text),
            "single-artifact rendering must be a byte-exact slice of the scenario report"
        );
    }

    #[test]
    fn render_artifact_text_rejects_invalid_scenarios() {
        let mut s = Scenario::cli_default(StudyKind::Backbone);
        s.scale = -1.0;
        assert_eq!(
            render_artifact_text(&s, Experiment::Fig15)
                .unwrap_err()
                .kind(),
            "config"
        );
    }

    #[test]
    fn an_invalid_scenario_answers_400_and_inserts_no_context() {
        let server = start(&ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        })
        .unwrap();
        let state = &server.state;
        let req = Request {
            method: "GET".into(),
            path: "/artifacts/fig15".into(),
            query: "scale=-1".into(),
            headers: Vec::new(),
        };
        assert_eq!(handle(state, &req).status, 400);
        let mut invalid = Scenario::cli_default(StudyKind::Backbone);
        invalid.scale = -1.0;
        let err = resident_context(state, &invalid)
            .err()
            .expect("-1 is not a scale");
        assert_eq!(err.kind(), "config");
        assert!(lock(&state.contexts).is_empty());
        server.shutdown_and_join();
    }

    #[test]
    fn brownout_threshold_is_three_quarters_with_a_floor() {
        assert_eq!(brownout_threshold(64), 48);
        assert_eq!(brownout_threshold(4), 3);
        assert_eq!(brownout_threshold(1), 2, "tiny queues keep the floor");
    }

    #[test]
    fn worker_auto_detection_never_yields_zero() {
        // Explicit counts pass through untouched; zero auto-detects, and
        // whatever the machine reports, the result is at least one pool
        // thread.
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn route_labels_stay_bounded() {
        assert_eq!(route_label("/artifacts/fig15"), "/artifacts/{id}");
        assert_eq!(route_label("/sweeps/nightly"), "/sweeps/{dir}");
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/anything/else"), "unmatched");
    }
}
