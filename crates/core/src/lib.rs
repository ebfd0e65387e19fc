//! # dcnr-core
//!
//! The study façade for the `dcnr` reproduction of *"A Large Scale Study
//! of Data Center Network Reliability"* (Meza, Xu, Veeraraghavan, Mutlu —
//! IMC 2018).
//!
//! This crate wires the substrates together into the paper's two
//! studies and exposes one runner per published table and figure:
//!
//! * [`intra`] — the seven-year intra-datacenter study (§5): issue
//!   generation → automated remediation triage → SEV creation → the
//!   SQL-shaped analysis behind Tables 1–2 and Figures 2–14.
//! * [`inter`] — the eighteen-month backbone study (§6): fiber
//!   simulation → vendor e-mail parsing → ticket database → MTBF/MTTR
//!   distributions, exponential fits, Table 4, and conditional-risk
//!   planning (Figures 15–18).
//! * [`experiments`] — the per-experiment index: every table/figure as
//!   a named experiment with its measured result and the paper's
//!   reported value, powering EXPERIMENTS.md.
//! * [`scenario`] — the scenario engine: a [`Scenario`] (a
//!   [`StudyKind`] + scale + seed + hazard/backbone/chaos knobs) runs
//!   in a [`RunContext`], which executes its study exactly once and
//!   caches the output for every artifact.
//! * [`artifacts`] — the artifact registry: one descriptor per paper
//!   table/figure (id, study, paper baseline, render fn), all pulling
//!   from the shared [`RunContext`]; the one map from a study to its
//!   artifacts.
//! * [`routes`] — the forwarding-state study behind the `routes.*`
//!   artifacts: per-device ECMP path sets with incremental
//!   invalidation, capacity loss derived from surviving path fractions,
//!   the emergent severity mix checked against Table 3's 82/13/5, and
//!   a workload-degradation curve (cf. arXiv:1808.06115).
//! * [`survivability`] — the topology-zoo study behind the `surv.*`
//!   artifacts: element-class survivability curves across every
//!   [`dcnr_topology::zoo`] member (cf. arXiv:1510.02735) and seeded
//!   Monte-Carlo fleet-lifespan replays (cf. arXiv:1401.7528).
//! * [`sweep`] — the multi-seed sweep runner: N derived-seed replicas
//!   on a supervised worker pool, folded into cross-seed confidence
//!   bands ([`dcnr_stats::aggregate`](mod@dcnr_stats::aggregate));
//!   byte-identical output for any worker count.
//! * [`supervisor`] — the sweep supervision layer: panic-isolated
//!   replica attempts, watchdog deadlines, bounded retry with fresh
//!   derived seeds, quarantine, and fault injection for testing the
//!   supervisor itself.
//! * [`checkpoint`] — per-replica JSON result shards plus a sweep
//!   manifest, the substrate behind `dcnr sweep --checkpoint` /
//!   `--resume` and cross-run replica caching.
//! * [`error`] — the [`DcnrError`] taxonomy every fallible layer of the
//!   engine reports through (config, usage, I/O, checkpoint, panic,
//!   deadline, failed-acceptance).
//! * [`cli`] — the shared flag scanner behind every `dcnr` subcommand,
//!   and the one list of scenario flags.
//! * [`report`] — plain-text rendering of tables and figure series in
//!   the same rows/columns the paper prints.
//! * [`telemetry_io`] — JSON and Prometheus-text serialization of
//!   `dcnr-telemetry` snapshots, behind the `--metrics` / `--trace`
//!   flags.
//! * [`profile`] — the `dcnr profile` phase-breakdown table and its
//!   JSON record (written with `--json PATH`).
//! * [`serve`] — the `dcnr serve` report server: artifact rendering
//!   over HTTP through an LRU result cache, live Prometheus metrics,
//!   and checkpoint-directory sweep reports, on the zero-dependency
//!   `dcnr-server` substrate (bounded accept queue, 503 shedding,
//!   graceful drain).
//! * [`loadgen`] — the `dcnr loadgen` closed-loop load harness: seeded
//!   request mixes, byte-for-byte response verification, and bench
//!   records written with `--bench-json PATH`; `--chaos` turns it into
//!   a resilience harness with a pass/fail verdict; `--open-loop` turns
//!   it into the overload harness (seeded open-loop arrivals at a
//!   multiple of the sustainable rate, goodput / admitted-p99 / health
//!   verdict).
//! * [`resilience`] — client-side retries: deterministic capped
//!   jittered backoff, per-request deadlines, `Retry-After` honoring,
//!   and outcome classification (ok / retried-ok / shed / gave-up /
//!   corrupt) over the `dcnr-server` client.
//! * [`traffic`] — the seeded open-loop traffic model: a lazily drawn
//!   Poisson arrival stream with per-arrival request-mix draws on an
//!   independent seed stream; the demand side of `dcnr loadgen
//!   --open-loop`.
//!
//! ## Quickstart
//!
//! ```
//! use dcnr_core::{IntraDcStudy, StudyConfig};
//!
//! // A small, fast configuration (half fleet scale).
//! let study = IntraDcStudy::run(StudyConfig { scale: 0.5, seed: 1, ..Default::default() });
//! let t2 = study.table2_root_causes();
//! // Maintenance should be the largest *determined* root cause (§5.1).
//! let m = t2.get(&dcnr_faults::RootCause::Maintenance).copied().unwrap_or(0.0);
//! assert!(m > 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod checkpoint;
pub mod cli;
pub mod error;
pub mod experiments;
pub mod inter;
pub mod intra;
pub mod json;
pub mod loadgen;
pub mod profile;
pub mod report;
pub mod resilience;
pub mod routes;
pub mod scenario;
pub mod serve;
pub mod supervisor;
pub mod survivability;
pub mod sweep;
pub mod telemetry_io;
pub mod traffic;

pub use artifacts::Artifact;
pub use checkpoint::{Manifest, ReplicaRecord};
pub use cli::{apply_scenario_flags, parse_sweep_args, ArgScanner, SweepArgs};
pub use error::DcnrError;
pub use experiments::{Comparison, Experiment, ExperimentOutcome};
pub use inter::InterDcStudy;
pub use intra::{IntraDcStudy, StudyConfig};
pub use loadgen::{LoadReport, LoadgenOptions, OpenLoopOptions, OverloadReport};
pub use profile::{phase_rows, render_profile_json, render_profile_table, PhaseRow};
pub use resilience::{resilient_get, FetchResult, Outcome, RetryCauses, RetryPolicy};
pub use routes::{RoutesConfig, RoutesStudy};
pub use scenario::{RunContext, Scenario, ScenarioOutcome, StudyKind};
pub use serve::{RunningServer, ServeOptions};
pub use supervisor::{
    FaultMode, FaultPlan, FaultSpec, ReplicaOutcome, ReplicaStatus, SupervisorConfig, FAULT_ENV,
};
pub use survivability::{SurvivabilityConfig, SurvivabilityStudy};
pub use sweep::{run_supervised, run_sweep, SweepConfig, SweepOutcome, SweepRow};
pub use traffic::{Arrival, TrafficConfig};

// Re-export the substrate crates under one roof so downstream users and
// the examples need a single dependency.
pub use dcnr_backbone as backbone;
pub use dcnr_chaos as chaos;
pub use dcnr_faults as faults;
pub use dcnr_remediation as remediation;
pub use dcnr_service as service;
pub use dcnr_sev as sev;
pub use dcnr_sim as sim;
pub use dcnr_stats as stats;
pub use dcnr_telemetry as telemetry;
pub use dcnr_topology as topology;
