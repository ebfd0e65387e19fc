//! The multi-seed sweep runner: N replicas of one scenario, a
//! supervised worker pool, and cross-seed confidence bands.
//!
//! A sweep takes a base [`Scenario`], mints `seeds` replicas that
//! differ **only** in master seed (via [`dcnr_sim::seed_sequence`]),
//! executes them under the supervision layer
//! ([`crate::supervisor`]) — panic isolation, watchdog deadlines,
//! bounded retry, quarantine — and folds every comparison metric into a
//! [`Band`] — mean, spread, and a bootstrap confidence interval —
//! rendered as "paper value vs. measured band" rows.
//!
//! Determinism contract: the aggregated outcome is **byte-identical**
//! regardless of worker count, and each surviving replica's result is
//! byte-identical with or without failures elsewhere. Replica outputs
//! depend only on the seed their successful attempt ran under, results
//! land in per-replica slots keyed by index (not completion order), and
//! aggregation runs single-threaded after the join, drawing each
//! metric's bootstrap randomness from its own derived stream. With a
//! checkpoint directory, completed replicas persist as JSON shards
//! ([`crate::checkpoint`]) and a resumed or re-run sweep loads them
//! instead of recomputing — and still renders byte-identical output.

use crate::checkpoint::{self, Manifest, ReplicaRecord};
use crate::error::DcnrError;
use crate::scenario::Scenario;
use crate::supervisor::{self, effective_seed, ReplicaOutcome, ReplicaStatus, SupervisorConfig};
use dcnr_sim::{seed_sequence, stream_rng};
use dcnr_stats::{aggregate_partial, Band};
use dcnr_telemetry::metrics::MetricsSnapshot;
use dcnr_telemetry::trace::TraceSnapshot;
use std::fmt::Write as _;

/// How to sweep: the base workload plus replication knobs.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// The scenario every replica runs (each rebound to its own seed).
    pub base: Scenario,
    /// Number of replica seeds.
    pub seeds: u32,
    /// Worker-pool width: at least 1, capped at `seeds`; never affects
    /// results.
    pub jobs: usize,
    /// Bootstrap resamples per metric.
    pub resamples: usize,
    /// Two-sided bootstrap confidence level, e.g. `0.95`.
    pub confidence: f64,
}

impl SweepConfig {
    /// A sweep of `seeds` replicas over `base` with the default
    /// bootstrap settings (1000 resamples, 95% confidence).
    pub fn new(base: Scenario, seeds: u32, jobs: usize) -> Self {
        Self {
            base,
            seeds,
            jobs,
            resamples: 1000,
            confidence: 0.95,
        }
    }

    /// Checks the replication settings the report header states: at
    /// least one seed, worker and bootstrap resample, and a confidence
    /// level strictly between 0 and 1. Past these the header would be
    /// false ("bootstrap 150% CI", "(0 resamples)") and every band's CI
    /// would silently fall back to the replicas' min–max range.
    pub fn check(&self) -> Result<(), String> {
        if self.seeds == 0 {
            return Err("sweep needs at least one seed".into());
        }
        if self.jobs == 0 {
            return Err("sweep needs at least one worker (jobs 0)".into());
        }
        if self.resamples == 0 {
            return Err("bootstrap needs at least one resample (resamples 0)".into());
        }
        // Written so NaN fails too.
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!(
                "confidence must lie strictly between 0 and 1, got {}",
                self.confidence
            ));
        }
        Ok(())
    }
}

/// One aggregated metric: the paper's point value against the band of
/// per-seed measurements, plus an honest account of how many planned
/// replicas contributed.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Metric name (as emitted by the artifact comparisons).
    pub metric: String,
    /// The paper's reported value.
    pub paper: f64,
    /// The cross-seed measurement band over the surviving replicas.
    pub band: Band,
    /// How many replicas were planned.
    pub planned: usize,
    /// How many planned replicas contributed no value (failed, or did
    /// not emit this metric).
    pub missing: usize,
}

/// Everything a sweep produces.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The configuration that ran.
    pub config: SweepConfig,
    /// The derived replica seeds, in replica order.
    pub replica_seeds: Vec<u64>,
    /// How many replicas completed AND passed their own acceptance.
    pub passed_replicas: usize,
    /// How many replicas failed outright (quarantined or
    /// deadline-killed) and contributed nothing.
    pub failed_replicas: usize,
    /// Per-replica supervision records, in replica order.
    pub outcomes: Vec<ReplicaOutcome>,
    /// Aggregated rows, in order of first appearance across replicas.
    pub rows: Vec<SweepRow>,
    /// The rendered band report. Deliberately omits the worker count so
    /// the bytes are identical for any `jobs` value.
    pub rendered: String,
    /// The rendered supervision report (per-replica outcome, retries,
    /// cache hits, quarantines, deadline kills). Also jobs-free and
    /// wall-clock-free, so it is deterministic for a given fault plan.
    pub supervision: String,
    /// The replicas' metrics, folded in replica-index order. `None`
    /// when the sweep ran without a telemetry collector installed.
    pub replica_metrics: Option<MetricsSnapshot>,
    /// The replicas' event traces, concatenated in replica-index order.
    /// `None` when the sweep ran without a collector installed.
    pub replica_trace: Option<TraceSnapshot>,
}

impl SweepOutcome {
    /// How many replicas completed (fresh or from cache).
    pub fn completed_replicas(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.failed()).count()
    }

    /// How many replica results were loaded from checkpoint shards.
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached()).count()
    }

    /// The `--max-failures` gate: `Ok` when at most `max_failures`
    /// replicas failed, a [`DcnrError::Failed`] otherwise.
    pub fn gate(&self, max_failures: u32) -> Result<(), DcnrError> {
        if self.failed_replicas as u64 <= u64::from(max_failures) {
            Ok(())
        } else {
            Err(DcnrError::Failed(format!(
                "sweep degraded beyond --max-failures: {} of {} replicas failed (allowed {})",
                self.failed_replicas,
                self.replica_seeds.len(),
                max_failures
            )))
        }
    }
}

/// Runs the sweep with the default supervision policy (no deadline, one
/// retry, no checkpoint). Returns `Err` for settings that fail
/// [`SweepConfig::check`] or an invalid base scenario; individual
/// replica failures degrade the aggregate instead of failing the sweep.
pub fn run_sweep(config: SweepConfig) -> Result<SweepOutcome, DcnrError> {
    run_supervised(config, &SupervisorConfig::default())
}

/// Runs the sweep under an explicit supervision policy: watchdog
/// deadline, bounded retry, fault injection (tests), and checkpointing.
pub fn run_supervised(
    config: SweepConfig,
    sup: &SupervisorConfig,
) -> Result<SweepOutcome, DcnrError> {
    config.check().map_err(DcnrError::Config)?;
    config.base.validate()?;
    let replica_seeds = seed_sequence(config.base.seed, "sweep.replica", config.seeds);
    let n = replica_seeds.len();
    let jobs = config.jobs.min(n);

    // Checkpoint prologue: verify (or create) the manifest, then load
    // every valid shard so its replica is never re-executed.
    let mut cached: Vec<(Option<ReplicaRecord>, Option<String>)> =
        (0..n).map(|_| (None, None)).collect();
    if let Some(dir) = &sup.checkpoint {
        checkpoint::prepare_dir(dir)?;
        let manifest = Manifest::from_config(&config);
        match checkpoint::read_manifest(dir)? {
            Some(existing) => existing.ensure_matches(&manifest, dir)?,
            None => checkpoint::write_manifest(dir, &manifest)?,
        }
        let read = dcnr_telemetry::span("checkpoint.read");
        for (i, slot) in cached.iter_mut().enumerate() {
            match checkpoint::read_shard(dir, i) {
                Ok(Some(rec)) => {
                    if rec.seed == effective_seed(replica_seeds[i], rec.attempt) {
                        slot.0 = Some(rec);
                    } else {
                        slot.1 =
                            Some("shard seed does not belong to this sweep; re-executing".into());
                    }
                }
                Ok(None) => {}
                Err(e) => slot.1 = Some(format!("ignored invalid shard ({e}); re-executing")),
            }
        }
        read.finish();
    }

    let (outcomes, records, telemetries) =
        supervisor::supervise(&config.base, &replica_seeds, jobs, sup, cached)?;

    // Fold per-replica telemetry in replica-index order: counter merge
    // is exact integer addition and trace merge is concatenation, so
    // the folded snapshots are independent of worker count.
    let (replica_metrics, replica_trace) = if dcnr_telemetry::active() {
        let mut metrics = MetricsSnapshot::default();
        let mut trace = TraceSnapshot::default();
        for (m, t) in telemetries.iter().flatten() {
            metrics.merge(m);
            trace.merge(t);
        }
        (Some(metrics), Some(trace))
    } else {
        (None, None)
    };

    let passed_replicas = outcomes
        .iter()
        .filter(|o| matches!(o.status, ReplicaStatus::Completed { passed: true, .. }))
        .count();
    let failed_replicas = outcomes.iter().filter(|o| o.failed()).count();

    let aggregate = dcnr_telemetry::span("sweep.aggregate");
    let rows = aggregate_rows(
        config.base.seed,
        &records,
        config.resamples,
        config.confidence,
    );
    aggregate.finish();
    let rendered = render(
        &config,
        &replica_seeds,
        passed_replicas,
        failed_replicas,
        &rows,
    );
    let supervision = supervisor::render_supervision(sup, &outcomes);
    Ok(SweepOutcome {
        config,
        replica_seeds,
        passed_replicas,
        failed_replicas,
        outcomes,
        rows,
        rendered,
        supervision,
        replica_metrics,
        replica_trace,
    })
}

/// Renders the aggregated band report for an existing checkpoint
/// directory **without executing anything**: the sweep definition comes
/// from `dir`'s manifest and every replica from its shard. Shards that
/// are missing, invalid, or belong to a different seed schedule count
/// as failed replicas (the report degrades exactly like a live sweep
/// with those replicas quarantined). For a complete checkpoint the
/// output is byte-identical to the sweep that wrote it — this is what
/// the report server's `GET /sweeps/{dir}` serves. A manifest whose
/// settings fail [`SweepConfig::check`] is a checkpoint error, which
/// the server answers with 404.
pub fn report_from_checkpoint(dir: &std::path::Path) -> Result<String, DcnrError> {
    let manifest = checkpoint::read_manifest(dir)?.ok_or_else(|| DcnrError::Checkpoint {
        path: dir.display().to_string(),
        message: "no manifest.json here; not a sweep checkpoint".into(),
    })?;
    // jobs never affects results or rendering; 1 is as good as any.
    let config = manifest.to_config(1)?;
    let replica_seeds = seed_sequence(config.base.seed, "sweep.replica", config.seeds);
    let records: Vec<Option<ReplicaRecord>> = replica_seeds
        .iter()
        .enumerate()
        .map(|(i, &planned)| match checkpoint::read_shard(dir, i) {
            Ok(Some(rec)) if rec.seed == effective_seed(planned, rec.attempt) => Some(rec),
            _ => None,
        })
        .collect();
    let passed = records
        .iter()
        .flatten()
        .filter(|record| record.passed)
        .count();
    let failed = records.iter().filter(|record| record.is_none()).count();
    let rows = aggregate_rows(
        config.base.seed,
        &records,
        config.resamples,
        config.confidence,
    );
    Ok(render(&config, &replica_seeds, passed, failed, &rows))
}

/// Joins per-replica comparisons by metric **name** (artifact rows can
/// vary in count across seeds — e.g. Fig. 12's design-MTBI rows need
/// both designs present) and folds each metric into a band over the
/// replicas that have it. A failed replica (`None` record) is a missing
/// slot for every metric. Metric order is first appearance scanning
/// replicas in index order, so the output is independent of worker
/// scheduling and of failures elsewhere.
fn aggregate_rows(
    master_seed: u64,
    records: &[Option<ReplicaRecord>],
    resamples: usize,
    confidence: f64,
) -> Vec<SweepRow> {
    let mut order: Vec<(&str, f64)> = Vec::new();
    for record in records.iter().flatten() {
        for c in &record.comparisons {
            if !order.iter().any(|(m, _)| *m == c.metric) {
                order.push((&c.metric, c.paper));
            }
        }
    }
    order
        .into_iter()
        .filter_map(|(metric, paper)| {
            // One slot per planned replica: `None` marks a replica that
            // contributed nothing for this metric (it failed, or its
            // seed produced no such row).
            let slots: Vec<Option<f64>> = records
                .iter()
                .map(|record| {
                    record.as_ref().and_then(|r| {
                        r.comparisons
                            .iter()
                            .find(|c| c.metric == metric)
                            .map(|c| c.measured)
                    })
                })
                .collect();
            let mut rng = stream_rng(master_seed, &format!("sweep.bootstrap.{metric}"));
            let partial = aggregate_partial(&mut rng, &slots, resamples, confidence)?;
            Some(SweepRow {
                metric: metric.to_string(),
                paper,
                band: partial.band,
                planned: partial.planned,
                missing: partial.missing,
            })
        })
        .collect()
}

fn render(
    config: &SweepConfig,
    replica_seeds: &[u64],
    passed_replicas: usize,
    failed_replicas: usize,
    rows: &[SweepRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} scenario, {} replica seeds derived from master {:#x}",
        config.base.kind,
        replica_seeds.len(),
        config.base.seed
    );
    let _ = writeln!(
        out,
        "bands: mean over replicas, bootstrap {:.0}% CI for the mean ({} resamples)",
        config.confidence * 100.0,
        config.resamples
    );
    let _ = writeln!(
        out,
        "replicas passing their own acceptance: {}/{}",
        passed_replicas,
        replica_seeds.len()
    );
    if failed_replicas > 0 {
        let _ = writeln!(
            out,
            "DEGRADED: {failed_replicas} of {} replicas failed; bands cover survivors only \
             (see the supervision report)",
            replica_seeds.len()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<40} {:>12}  {:>12} {:>26}  {:>10}  verdict",
        "metric", "paper", "mean", "CI / range", "stddev"
    );
    for row in rows {
        let b = &row.band;
        let (lo, hi) = match &b.ci {
            Some(ci) => (ci.lo, ci.hi),
            None => (b.min, b.max),
        };
        let verdict = if b.covers(row.paper) {
            "covered"
        } else if row.paper >= b.min && row.paper <= b.max {
            "in range"
        } else {
            "outside"
        };
        let degraded = if row.missing > 0 {
            format!(" [{}/{} replicas]", b.n, row.planned)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<40} {:>12.4}  {:>12.4} [{:>11.4}, {:>11.4}]  {:>10.4}  {}{}",
            row.metric, row.paper, b.mean, lo, hi, b.stddev, verdict, degraded
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Comparison;
    use crate::scenario::ScenarioKind;

    fn small_base(kind: ScenarioKind) -> Scenario {
        Scenario {
            kind,
            scale: 0.5,
            backbone: dcnr_backbone::topo::BackboneParams {
                edges: 30,
                vendors: 12,
                min_links_per_edge: 3,
            },
            ..Scenario::intra(0x5EED)
        }
    }

    fn record(replica: usize, comparisons: Vec<Comparison>) -> Option<ReplicaRecord> {
        Some(ReplicaRecord {
            replica,
            attempt: 0,
            seed: replica as u64,
            passed: true,
            comparisons,
        })
    }

    #[test]
    fn rejects_zero_seeds_and_bad_scenarios() {
        let err =
            run_sweep(SweepConfig::new(small_base(ScenarioKind::Backbone), 0, 1)).unwrap_err();
        assert_eq!(err.kind(), "config");
        let mut bad = small_base(ScenarioKind::Intra);
        bad.scale = -1.0;
        let err = run_sweep(SweepConfig::new(bad, 2, 1)).unwrap_err();
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn rejects_zero_jobs() {
        let err =
            run_sweep(SweepConfig::new(small_base(ScenarioKind::Backbone), 2, 0)).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("worker"), "{err}");
    }

    #[test]
    fn rejects_zero_resamples() {
        let mut config = SweepConfig::new(small_base(ScenarioKind::Backbone), 2, 1);
        config.resamples = 0;
        let err = run_sweep(config).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("resample"), "{err}");
    }

    #[test]
    fn rejects_confidence_outside_the_open_unit_interval() {
        for confidence in [1.5, f64::NAN, -1.0, 0.0, 1.0] {
            let mut config = SweepConfig::new(small_base(ScenarioKind::Backbone), 2, 1);
            config.confidence = confidence;
            let err = run_sweep(config).unwrap_err();
            assert_eq!(err.kind(), "config", "{confidence}");
            assert!(err.to_string().contains("confidence"), "{err}");
        }
        let mut config = SweepConfig::new(small_base(ScenarioKind::Backbone), 2, 1);
        for confidence in [0.5, 0.9, 0.999] {
            config.confidence = confidence;
            assert_eq!(config.check(), Ok(()), "{confidence}");
        }
    }

    #[test]
    fn aggregate_rows_joins_by_name_in_first_appearance_order() {
        let c = |m: &str, paper: f64, measured: f64| Comparison {
            metric: m.into(),
            paper,
            measured,
        };
        // Replica 1 lacks "b": name-joining must still band "b" from
        // the replicas that have it.
        let records = vec![
            record(0, vec![c("a", 1.0, 1.1), c("b", 2.0, 2.2)]),
            record(1, vec![c("a", 1.0, 0.9)]),
            record(2, vec![c("a", 1.0, 1.0), c("b", 2.0, 1.8)]),
        ];
        let rows = aggregate_rows(7, &records, 200, 0.95);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "a");
        assert_eq!(rows[0].band.n, 3);
        assert_eq!(rows[0].missing, 0);
        assert_eq!(rows[1].metric, "b");
        assert_eq!(rows[1].band.n, 2);
        assert_eq!(rows[1].missing, 1, "replica 1 is a missing slot for b");
        assert!((rows[1].band.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_rows_skips_failed_replicas_without_moving_survivor_values() {
        let c = |m: &str, v: f64| Comparison {
            metric: m.into(),
            paper: 1.0,
            measured: v,
        };
        let healthy = vec![
            record(0, vec![c("x", 1.1)]),
            record(1, vec![c("x", 0.9)]),
            record(2, vec![c("x", 1.2)]),
        ];
        let mut degraded = healthy.clone();
        degraded[1] = None; // replica 1 quarantined
        let h = aggregate_rows(42, &healthy, 300, 0.9);
        let d = aggregate_rows(42, &degraded, 300, 0.9);
        assert_eq!(d[0].band.n, 2);
        assert_eq!(d[0].missing, 1);
        assert_eq!(d[0].planned, 3);
        // Survivor order statistics come from the same values.
        assert_eq!(d[0].band.min, 1.1);
        assert_eq!(d[0].band.max, 1.2);
        assert_eq!(h[0].band.min, 0.9);
    }

    #[test]
    fn aggregate_rows_is_deterministic() {
        let c = |m: &str, v: f64| Comparison {
            metric: m.into(),
            paper: 1.0,
            measured: v,
        };
        let records = vec![
            record(0, vec![c("x", 1.1), c("y", 5.0)]),
            record(1, vec![c("x", 0.9), c("y", 6.0)]),
            record(2, vec![c("x", 1.2), c("y", 4.5)]),
        ];
        let a = aggregate_rows(42, &records, 300, 0.9);
        let b = aggregate_rows(42, &records, 300, 0.9);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.band, rb.band);
        }
    }

    #[test]
    fn backbone_sweep_bands_cover_their_own_mean() {
        let out = run_sweep(SweepConfig::new(small_base(ScenarioKind::Backbone), 3, 2)).unwrap();
        assert_eq!(out.replica_seeds.len(), 3);
        assert!(!out.rows.is_empty());
        for row in &out.rows {
            assert_eq!(row.band.n, 3, "{}", row.metric);
            assert!(row.band.covers(row.band.mean), "{}", row.metric);
        }
        assert_eq!(out.failed_replicas, 0);
        assert_eq!(out.cache_hits(), 0);
        assert!(out.rendered.contains("sweep: backbone scenario"));
        assert!(!out.rendered.contains("jobs"), "report must omit jobs");
        assert!(!out.supervision.contains("jobs"), "supervision too");
    }

    #[test]
    fn chaos_sweep_counts_replica_verdicts() {
        let out = run_sweep(SweepConfig::new(small_base(ScenarioKind::Chaos), 2, 2)).unwrap();
        assert_eq!(out.passed_replicas, 2, "drill rates stay in tolerance");
        assert!(out.rows.iter().all(|r| r.paper == 0.0));
    }

    #[test]
    fn gate_enforces_max_failures() {
        let out = run_sweep(SweepConfig::new(small_base(ScenarioKind::Backbone), 2, 2)).unwrap();
        assert!(out.gate(0).is_ok(), "healthy run passes a zero budget");
        let mut degraded = out;
        degraded.failed_replicas = 2;
        assert!(degraded.gate(2).is_ok());
        let err = degraded.gate(1).unwrap_err();
        assert_eq!(err.kind(), "failed");
        assert!(err.to_string().contains("max-failures"), "{err}");
    }
}
