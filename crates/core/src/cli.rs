//! Shared command-line flag parsing for the `dcnr` binary.
//!
//! Every subcommand used to hand-roll its own `--flag value` loop; this
//! module is the single [`ArgScanner`] they all share, plus
//! [`apply_scenario_flags`] — the one place scenario knobs (`--seed`,
//! `--scale`, `--edges`, chaos rates, hazard ablations) are mapped onto
//! a [`Scenario`], and the one list of them (the report server's query
//! strings and `dcnr loadgen` go through it too) — [`parse_scenario_kind`]
//! for `--scenario`, and [`parse_sweep_args`], which owns the sweep's
//! replication and checkpoint flags (including the `--resume` /
//! fresh-sweep conflict rules).
//!
//! The scanner accepts both `--name value` and `--name=value`, reports
//! malformed numbers with the offending text as a typed
//! [`DcnrError::Usage`], and [`ArgScanner::finish`] rejects anything
//! left over so typos fail loudly instead of being silently ignored.

use crate::error::DcnrError;
use crate::scenario::{Scenario, StudyKind};
use std::path::PathBuf;

/// Order-insensitive flag scanner over a subcommand's arguments.
pub struct ArgScanner {
    rest: Vec<String>,
}

impl ArgScanner {
    /// Wraps the argument list that follows the subcommand name.
    pub fn new(args: Vec<String>) -> Self {
        Self { rest: args }
    }

    /// Consumes a boolean `--name` flag; `true` if it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        if let Some(pos) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(pos);
            true
        } else {
            false
        }
    }

    /// Consumes `--name value` or `--name=value`, parsing the value.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, DcnrError> {
        let raw = if let Some(pos) = self
            .rest
            .iter()
            .position(|a| a.strip_prefix(name).is_some_and(|r| r.starts_with('=')))
        {
            let arg = self.rest.remove(pos);
            arg[name.len() + 1..].to_string()
        } else if let Some(pos) = self.rest.iter().position(|a| a == name) {
            if pos + 1 >= self.rest.len() || self.rest[pos + 1].starts_with("--") {
                return Err(DcnrError::Usage(format!("{name} requires a value")));
            }
            let raw = self.rest.remove(pos + 1);
            self.rest.remove(pos);
            raw
        } else {
            return Ok(None);
        };
        raw.parse::<T>()
            .map(Some)
            .map_err(|_| DcnrError::Usage(format!("invalid value for {name}: {raw:?}")))
    }

    /// Returns the arguments not yet consumed. Used by the binary to
    /// strip global flags (`--metrics`, `--trace`, `--quiet`, `-v`)
    /// before handing the remainder to the subcommand parser.
    pub fn into_rest(self) -> Vec<String> {
        self.rest
    }

    /// Fails if any argument was not consumed (unknown flag or stray
    /// positional).
    pub fn finish(self) -> Result<(), DcnrError> {
        match self.rest.as_slice() {
            [] => Ok(()),
            [first, ..] => Err(DcnrError::Usage(format!(
                "unrecognized argument {first:?} (run `dcnr help` for the flag list)"
            ))),
        }
    }
}

/// Applies the shared scenario flags to `base` and returns the adjusted
/// scenario. `--seed` rebinds through [`Scenario::with_seed`] so every
/// derived stream (including chaos injection) follows the master seed.
pub fn apply_scenario_flags(args: &mut ArgScanner, base: Scenario) -> Result<Scenario, DcnrError> {
    let mut s = base;
    if let Some(seed) = args.value::<u64>("--seed")? {
        s = s.with_seed(seed);
    }
    if let Some(scale) = args.value::<f64>("--scale")? {
        s.scale = scale;
    }
    if let Some(topology) = args.value::<String>("--topology")? {
        // The scenario stores a `&'static str`, so resolve through the
        // zoo registry; an unknown id is a usage error naming the menu.
        s.topology = dcnr_topology::zoo::find(&topology)
            .ok_or_else(|| {
                DcnrError::Usage(format!(
                    "unknown topology {:?} (valid ids: {})",
                    topology,
                    dcnr_topology::zoo::id_list()
                ))
            })?
            .id;
    }
    if let Some(edges) = args.value::<u32>("--edges")? {
        s.backbone.edges = edges;
    }
    if let Some(vendors) = args.value::<u32>("--vendors")? {
        s.backbone.vendors = vendors;
    }
    if args.flag("--no-automation") {
        s.hazard.automation_enabled = false;
    }
    if args.flag("--no-drain") {
        s.hazard.drain_policy_enabled = false;
    }
    for (name, field) in [
        ("--corrupt-rate", 0usize),
        ("--truncate-rate", 1),
        ("--loss-rate", 2),
        ("--dup-rate", 3),
        ("--reorder-rate", 4),
        ("--store-fail-rate", 5),
    ] {
        if let Some(rate) = args.value::<f64>(name)? {
            let c = &mut s.chaos;
            *[
                &mut c.corrupt_rate,
                &mut c.truncate_rate,
                &mut c.loss_rate,
                &mut c.dup_rate,
                &mut c.reorder_rate,
                &mut c.store_fail_rate,
            ][field] = rate;
        }
    }
    s.validate()?;
    Ok(s)
}

/// The sweep subcommand's replication and checkpoint flags, parsed but
/// not yet resolved against defaults (the binary owns the defaults so
/// `--resume` can take them from the manifest instead).
#[derive(Debug)]
pub struct SweepArgs {
    /// `--scenario intra|backbone|chaos|routes|survivability`.
    pub scenario: Option<StudyKind>,
    /// `--seeds N`.
    pub seeds: Option<u32>,
    /// `--jobs J`.
    pub jobs: Option<usize>,
    /// `--resamples B`.
    pub resamples: Option<usize>,
    /// `--confidence C`.
    pub confidence: Option<f64>,
    /// `--checkpoint DIR`: persist replica shards while sweeping.
    pub checkpoint: Option<PathBuf>,
    /// `--resume DIR`: reload the sweep definition from `DIR`'s
    /// manifest, skip completed shards, and keep checkpointing there.
    pub resume: Option<PathBuf>,
    /// `--bench-json PATH`.
    pub bench_json: Option<String>,
}

/// Consumes `--scenario NAME`, the study `sweep` and `profile` run. An
/// unknown name is a usage error.
pub fn parse_scenario_kind(args: &mut ArgScanner) -> Result<Option<StudyKind>, DcnrError> {
    args.value::<String>("--scenario")?
        .map(|name| {
            StudyKind::parse(&name).ok_or_else(|| {
                DcnrError::Usage(format!(
                    "unknown scenario {name:?} (intra, backbone, chaos, routes, or survivability)"
                ))
            })
        })
        .transpose()
}

/// Parses the sweep-only flags off `args`, leaving the shared scenario
/// flags for [`apply_scenario_flags`]. Enforces the resume conflict
/// rules: a resumed sweep's definition lives in the checkpoint
/// manifest, so `--resume` cannot be combined with flags that would
/// re-define it (`--scenario`, `--seeds`, `--resamples`,
/// `--confidence`, or a second `--checkpoint` directory).
pub fn parse_sweep_args(args: &mut ArgScanner) -> Result<SweepArgs, DcnrError> {
    let parsed = SweepArgs {
        scenario: parse_scenario_kind(args)?,
        seeds: args.value("--seeds")?,
        jobs: args.value("--jobs")?,
        resamples: args.value("--resamples")?,
        confidence: args.value("--confidence")?,
        checkpoint: args.value::<String>("--checkpoint")?.map(PathBuf::from),
        resume: args.value::<String>("--resume")?.map(PathBuf::from),
        bench_json: args.value("--bench-json")?,
    };
    if parsed.resume.is_some() {
        for (flag, present) in [
            ("--scenario", parsed.scenario.is_some()),
            ("--seeds", parsed.seeds.is_some()),
            ("--resamples", parsed.resamples.is_some()),
            ("--confidence", parsed.confidence.is_some()),
            ("--checkpoint", parsed.checkpoint.is_some()),
        ] {
            if present {
                return Err(DcnrError::Usage(format!(
                    "--resume takes the sweep definition from the checkpoint manifest; \
                     it conflicts with {flag}"
                )));
            }
        }
    }
    Ok(parsed)
}

/// Parses the `dcnr serve` flags into ready-to-run options. Unlike the
/// scenario flags there is no partial application here: the scanner
/// must be empty afterwards, so the caller runs [`ArgScanner::finish`].
///
/// `--workers 0` means "auto-detect available parallelism". Passing
/// any `--chaos-*` flag enables the transport fault shim.
pub fn parse_serve_args(args: &mut ArgScanner) -> Result<crate::serve::ServeOptions, DcnrError> {
    let mut opts = crate::serve::ServeOptions::default();
    if let Some(addr) = args.value::<String>("--addr")? {
        opts.addr = addr;
    }
    if let Some(workers) = args.value::<usize>("--workers")? {
        opts.workers = workers; // 0 = auto-detect
    }
    if let Some(depth) = args.value::<usize>("--queue-depth")? {
        if depth == 0 {
            return Err(DcnrError::Usage("--queue-depth must be positive".into()));
        }
        opts.queue_depth = depth;
    }
    if let Some(entries) = args.value::<usize>("--cache-entries")? {
        if entries == 0 {
            return Err(DcnrError::Usage("--cache-entries must be positive".into()));
        }
        opts.cache_entries = entries;
    }
    if let Some(root) = args.value::<String>("--sweep-root")? {
        opts.sweep_root = PathBuf::from(root);
    }
    opts.admin = args.flag("--admin");
    opts.port_file = args.value::<String>("--port-file")?.map(PathBuf::from);
    opts.chaos = parse_chaos_flags(args)?;
    Ok(opts)
}

/// The `--chaos-*` flag family. Returns `None` (shim disabled) when no
/// chaos flag is present.
fn parse_chaos_flags(
    args: &mut ArgScanner,
) -> Result<Option<dcnr_server::chaos::FaultPlan>, DcnrError> {
    let mut plan: Option<dcnr_server::chaos::FaultPlan> = None;
    for key in [
        "seed",
        "accept-delay-rate",
        "read-delay-rate",
        "write-delay-rate",
        "delay-ms",
        "reset-rate",
        "truncate-rate",
        "corrupt-rate",
        "stall-rate",
        "stall-ms",
    ] {
        let flag = format!("--chaos-{key}");
        if let Some(value) = args.value::<String>(&flag)? {
            plan.get_or_insert_with(Default::default)
                .set(key, &value)
                .map_err(|e| DcnrError::Usage(format!("{flag}: {e}")))?;
        }
    }
    if let Some(plan) = &plan {
        plan.validate().map_err(DcnrError::Usage)?;
    }
    Ok(plan)
}

/// Parses the `dcnr loadgen` flags. Scenario flags (`--seed`,
/// `--scale`, ...) are deliberately *not* consumed here: the caller
/// passes the scanner's remainder as `scenario_args`, and
/// [`crate::loadgen`] sends them as each request's query string, which
/// both the server and the local `--verify` render resolve through
/// [`crate::serve::scenario_for_artifact`], so the two can never drift.
pub fn parse_loadgen_args(
    args: &mut ArgScanner,
) -> Result<crate::loadgen::LoadgenOptions, DcnrError> {
    let mut opts = crate::loadgen::LoadgenOptions::default();
    if let Some(addr) = args.value::<String>("--addr")? {
        opts.addr = addr;
    }
    for (name, slot) in [
        ("--clients", &mut opts.clients),
        ("--requests", &mut opts.requests),
        ("--scenario-seeds", &mut opts.scenario_seeds),
    ] {
        if let Some(n) = args.value::<usize>(name)? {
            if n == 0 {
                return Err(DcnrError::Usage(format!("{name} must be positive")));
            }
            *slot = n;
        }
    }
    if let Some(seed) = args.value::<u64>("--mix-seed")? {
        opts.mix_seed = seed;
    }
    if let Some(list) = args.value::<String>("--artifacts")? {
        opts.artifacts = crate::loadgen::parse_artifact_list(&list)?;
    }
    if let Some(secs) = args.value::<u64>("--timeout-secs")? {
        if secs == 0 {
            return Err(DcnrError::Usage("--timeout-secs must be positive".into()));
        }
        opts.timeout = std::time::Duration::from_secs(secs);
    }
    opts.verify = args.flag("--verify");
    opts.chaos = args.flag("--chaos");
    if let Some(retries) = args.value::<u32>("--retries")? {
        opts.policy.retries = retries;
    }
    if let Some(ms) = args.value::<u64>("--backoff-ms")? {
        if ms == 0 {
            return Err(DcnrError::Usage("--backoff-ms must be positive".into()));
        }
        opts.policy.backoff_base = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.value::<u64>("--backoff-cap-ms")? {
        if ms == 0 {
            return Err(DcnrError::Usage("--backoff-cap-ms must be positive".into()));
        }
        opts.policy.backoff_cap = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.value::<u64>("--deadline-ms")? {
        if ms == 0 {
            return Err(DcnrError::Usage("--deadline-ms must be positive".into()));
        }
        opts.policy.deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(floor) = args.value::<f64>("--min-success")? {
        if !floor.is_finite() || !(0.0..=1.0).contains(&floor) {
            return Err(DcnrError::Usage(format!(
                "--min-success must be in [0, 1], got {floor}"
            )));
        }
        opts.min_success = floor;
    }
    opts.bench_json = args.value::<String>("--bench-json")?;
    opts.bench_append = args.flag("--bench-append");
    if opts.bench_append && opts.bench_json.is_none() {
        return Err(DcnrError::Usage(
            "--bench-append requires --bench-json PATH".into(),
        ));
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(args: &[&str]) -> ArgScanner {
        ArgScanner::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_separate_and_equals_forms() {
        let mut a = scan(&["--seed", "7", "--scale=2.5"]);
        assert_eq!(a.value::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(a.value::<f64>("--scale").unwrap(), Some(2.5));
        a.finish().unwrap();
    }

    #[test]
    fn reports_malformed_numbers_with_the_text() {
        let mut a = scan(&["--seed", "banana"]);
        let err = a.value::<u64>("--seed").unwrap_err();
        assert_eq!(err.kind(), "usage");
        let msg = err.to_string();
        assert!(msg.contains("--seed") && msg.contains("banana"), "{msg}");
    }

    #[test]
    fn missing_value_and_flag_as_value_are_usage_errors() {
        let mut a = scan(&["--seed"]);
        let err = a.value::<u64>("--seed").unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("requires a value"), "{err}");
        let mut a = scan(&["--seed", "--scale", "1.0"]);
        assert!(a.value::<u64>("--seed").is_err());
    }

    #[test]
    fn finish_rejects_unknown_flags_as_usage_errors() {
        let mut a = scan(&["--seed", "7", "--bogus"]);
        let _ = a.value::<u64>("--seed").unwrap();
        let err = a.finish().unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert_eq!(err.exit_code(), 2, "usage errors exit 2");
        assert!(err.to_string().contains("--bogus"), "{err}");
    }

    #[test]
    fn scenario_flags_rebind_the_master_seed() {
        let base = Scenario::intra(1);
        let mut a = scan(&["--seed", "99", "--scale", "0.5", "--no-automation"]);
        let s = apply_scenario_flags(&mut a, base).unwrap();
        a.finish().unwrap();
        assert_eq!(s.seed, 99);
        assert_eq!(s.scale, 0.5);
        assert!(!s.hazard.automation_enabled);
        assert_ne!(s.chaos.seed, base.chaos.seed, "chaos seed must follow");
    }

    #[test]
    fn scenario_flags_set_chaos_rates_and_validate() {
        let mut a = scan(&["--loss-rate", "0.5"]);
        let s = apply_scenario_flags(&mut a, Scenario::chaos(1)).unwrap();
        assert_eq!(s.chaos.loss_rate, 0.5);
        let mut a = scan(&["--loss-rate", "2.0"]);
        let err = apply_scenario_flags(&mut a, Scenario::chaos(1)).unwrap_err();
        assert_eq!(err.kind(), "config", "validation is config, not usage");
        let mut a = scan(&["--scale", "-4"]);
        assert!(apply_scenario_flags(&mut a, Scenario::intra(1)).is_err());
    }

    #[test]
    fn topology_flag_resolves_through_the_zoo() {
        let mut a = scan(&["--topology", "dcell"]);
        let s = apply_scenario_flags(&mut a, Scenario::survivability(1)).unwrap();
        a.finish().unwrap();
        assert_eq!(s.topology, "dcell");
        // The default survives when the flag is absent.
        let mut a = scan(&[]);
        let s = apply_scenario_flags(&mut a, Scenario::survivability(1)).unwrap();
        assert_eq!(s.topology, "fat-tree");
    }

    #[test]
    fn topology_misuse_is_a_usage_error() {
        // Every bad topology spelling must exit 2 and list the valid ids.
        let cases: &[&[&str]] = &[
            &["--topology", "hypercube"], // not in the zoo
            &["--topology", "FatTree"],   // ids are exact, kebab-case
            &["--topology", ""],          // empty id
            &["--topology", "fat-tree "], // stray whitespace
            &["--topology=dcell2"],       // close but unregistered
        ];
        for case in cases {
            let mut a = scan(case);
            let err = apply_scenario_flags(&mut a, Scenario::survivability(1)).unwrap_err();
            assert_eq!(err.kind(), "usage", "{case:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{case:?} must exit 2");
            assert!(
                err.to_string().contains("dcell"),
                "{case:?} must list ids: {err}"
            );
        }
    }

    #[test]
    fn sweep_args_parse_the_replication_flags() {
        let mut a = scan(&[
            "--scenario",
            "backbone",
            "--seeds",
            "6",
            "--jobs=3",
            "--resamples",
            "200",
            "--confidence",
            "0.9",
            "--checkpoint",
            "/tmp/ckpt",
        ]);
        let s = parse_sweep_args(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(s.scenario, Some(StudyKind::Backbone));
        assert_eq!(s.seeds, Some(6));
        assert_eq!(s.jobs, Some(3));
        assert_eq!(s.resamples, Some(200));
        assert_eq!(s.confidence, Some(0.9));
        assert_eq!(s.checkpoint, Some(PathBuf::from("/tmp/ckpt")));
        assert!(s.resume.is_none());
    }

    #[test]
    fn removed_supervision_flags_are_unrecognized_usage_errors() {
        for case in [
            &["--retries", "0"][..],
            &["--deadline", "30"],
            &["--max-failures", "1"],
        ] {
            let mut a = scan(case);
            parse_sweep_args(&mut a).unwrap();
            let err = a.finish().unwrap_err();
            assert_eq!(err.kind(), "usage", "{case:?}: {err}");
            assert!(err.to_string().contains(case[0]), "{case:?}: {err}");
        }
    }

    #[test]
    fn sweep_non_numeric_seeds_and_jobs_are_named_usage_errors() {
        let mut a = scan(&["--seeds", "lots"]);
        let err = parse_sweep_args(&mut a).unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("--seeds"), "{err}");
        let mut a = scan(&["--jobs", "3.5"]);
        let err = parse_sweep_args(&mut a).unwrap_err();
        assert!(err.to_string().contains("--jobs"), "{err}");
    }

    #[test]
    fn sweep_resume_conflicts_with_redefinition_flags() {
        let mut a = scan(&["--resume", "/tmp/run", "--seeds", "4"]);
        let err = parse_sweep_args(&mut a).unwrap_err();
        assert_eq!(err.kind(), "usage");
        let msg = err.to_string();
        assert!(msg.contains("--resume") && msg.contains("--seeds"), "{msg}");
        for conflicting in [
            &["--resume", "/tmp/run", "--scenario", "intra"][..],
            &["--resume", "/tmp/run", "--checkpoint", "/tmp/other"][..],
            &["--resume", "/tmp/run", "--confidence", "0.9"][..],
        ] {
            let mut a = scan(conflicting);
            let err = parse_sweep_args(&mut a).unwrap_err();
            assert_eq!(err.kind(), "usage", "{conflicting:?}");
        }
        // --resume with only the worker count is fine.
        let mut a = scan(&["--resume", "/tmp/run", "--jobs", "2"]);
        let s = parse_sweep_args(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(s.resume, Some(PathBuf::from("/tmp/run")));
        assert_eq!(s.jobs, Some(2));
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let mut a = scan(&[
            "--addr",
            "127.0.0.1:0",
            "--workers=2",
            "--queue-depth",
            "8",
            "--cache-entries",
            "16",
            "--sweep-root",
            "/tmp/sweeps",
            "--admin",
            "--port-file",
            "/tmp/port",
        ]);
        let opts = parse_serve_args(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.queue_depth, 8);
        assert_eq!(opts.cache_entries, 16);
        assert_eq!(opts.sweep_root, PathBuf::from("/tmp/sweeps"));
        assert!(opts.admin);
        assert_eq!(opts.port_file, Some(PathBuf::from("/tmp/port")));
        assert!(opts.chaos.is_none(), "no chaos flags, no chaos shim");
        for bad in [&["--queue-depth=0"][..], &["--cache-entries", "0"][..]] {
            let mut a = scan(bad);
            let err = parse_serve_args(&mut a).unwrap_err();
            assert_eq!(err.kind(), "usage", "{bad:?}");
        }
        // --workers 0 means auto-detect, not an error.
        let mut a = scan(&["--workers", "0"]);
        let opts = parse_serve_args(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(opts.workers, 0);
    }

    #[test]
    fn serve_chaos_flags_build_a_fault_plan() {
        let mut a = scan(&[
            "--chaos-seed",
            "9",
            "--chaos-reset-rate=0.25",
            "--chaos-delay-ms",
            "5",
        ]);
        let opts = parse_serve_args(&mut a).unwrap();
        a.finish().unwrap();
        let plan = opts.chaos.expect("chaos flags enable the shim");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.reset_rate, 0.25);
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.truncate_rate, 0.0, "untouched rates stay zero");
        // Out-of-range rates are usage errors.
        let mut a = scan(&["--chaos-corrupt-rate", "1.5"]);
        assert_eq!(parse_serve_args(&mut a).unwrap_err().kind(), "usage");
    }

    #[test]
    fn loadgen_chaos_flags_set_the_policy_and_no_default_bench_path() {
        let mut a = scan(&[
            "--chaos",
            "--retries",
            "5",
            "--backoff-ms=10",
            "--backoff-cap-ms",
            "200",
            "--deadline-ms",
            "4000",
            "--min-success",
            "0.95",
        ]);
        let opts = parse_loadgen_args(&mut a).unwrap();
        a.finish().unwrap();
        assert!(opts.chaos);
        assert_eq!(opts.policy.retries, 5);
        assert_eq!(
            opts.policy.backoff_base,
            std::time::Duration::from_millis(10)
        );
        assert_eq!(
            opts.policy.backoff_cap,
            std::time::Duration::from_millis(200)
        );
        assert_eq!(opts.policy.deadline, std::time::Duration::from_millis(4000));
        assert_eq!(opts.min_success, 0.95);
        assert_eq!(opts.bench_json, None, "--chaos writes no unnamed file");
        // An explicit path is taken; a bad floor is a usage error.
        let mut a = scan(&["--chaos", "--bench-json", "/tmp/r.json"]);
        let opts = parse_loadgen_args(&mut a).unwrap();
        assert_eq!(opts.bench_json.as_deref(), Some("/tmp/r.json"));
        let mut a = scan(&["--min-success", "1.5"]);
        assert_eq!(parse_loadgen_args(&mut a).unwrap_err().kind(), "usage");
    }

    #[test]
    fn loadgen_args_parse_and_leave_scenario_flags_for_the_shared_path() {
        let mut a = scan(&[
            "--clients",
            "8",
            "--requests=10",
            "--artifacts",
            "fig15,table4",
            "--verify",
            "--scale",
            "0.25",
        ]);
        let opts = parse_loadgen_args(&mut a).unwrap();
        assert_eq!(opts.clients, 8);
        assert_eq!(opts.requests, 10);
        assert_eq!(opts.artifacts.len(), 2);
        assert!(opts.verify);
        // --scale stays unconsumed for apply_scenario_flags.
        assert_eq!(a.into_rest(), vec!["--scale", "0.25"]);
    }

    #[test]
    fn removed_admission_flags_are_unrecognized_usage_errors() {
        for case in [
            &["--sojourn-target-ms", "50"][..],
            &["--priority-depth", "8"],
            &["--adaptive-retry-after"],
        ] {
            let mut a = scan(case);
            parse_serve_args(&mut a).unwrap();
            let err = a.finish().unwrap_err();
            assert_eq!(err.kind(), "usage", "{case:?}: {err}");
            assert!(err.to_string().contains(case[0]), "{case:?}: {err}");
        }
    }

    #[test]
    fn loadgen_bench_append_requires_a_path() {
        let mut a = scan(&["--bench-append"]);
        let err = parse_loadgen_args(&mut a).unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("--bench-json"), "{err}");
        let mut a = scan(&["--clients", "0"]);
        assert_eq!(parse_loadgen_args(&mut a).unwrap_err().kind(), "usage");
        let mut a = scan(&["--artifacts", "fig99"]);
        assert_eq!(parse_loadgen_args(&mut a).unwrap_err().kind(), "usage");
    }

    #[test]
    fn sweep_unknown_scenario_is_a_usage_error() {
        let mut a = scan(&["--scenario", "bogus"]);
        let err = parse_sweep_args(&mut a).unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("bogus"), "{err}");
    }
}
