//! The scenario engine: one run-plan layer behind every study driver.
//!
//! A [`Scenario`] names a workload (study kind + scale + seed +
//! hazard/backbone/chaos knobs). It lowers to a [`RunPlan`] — which
//! studies must execute and which artifacts they feed — and a
//! [`RunContext`] executes each required study **exactly once**,
//! caching its output so every artifact pulls from the shared context
//! instead of re-running pipelines. The CLI's `intra`, `backbone`, and
//! `chaos` subcommands, the sweep runner, the report server, and the
//! examples all drive the same engine.
//!
//! Dataflow: `Scenario` → [`Scenario::plan`] → `RunPlan` →
//! [`RunContext::execute`] → [`ScenarioOutcome`].

use crate::artifacts;
use crate::error::{panic_message, DcnrError};
use crate::experiments::{Comparison, Experiment, ExperimentOutcome};
use crate::inter::InterDcStudy;
use crate::intra::{IntraDcStudy, StudyConfig};
use crate::routes::{RoutesConfig, RoutesStudy};
use crate::survivability::{SurvivabilityConfig, SurvivabilityStudy};
use dcnr_chaos::{run_study, ChaosConfig, ChaosStudyOutput, Tolerance};
use dcnr_faults::hazard::HazardConfig;
use dcnr_sim::derive_seed;
use std::fmt;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// A study pipeline a scenario may require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyKind {
    /// The seven-year intra-DC study (§5).
    Intra,
    /// The eighteen-month backbone study (§6).
    Backbone,
    /// The two-arm chaos-ingestion study (clean vs. fault-injected).
    Chaos,
    /// The forwarding-state routes study (`routes.*` artifacts).
    Routes,
    /// The topology-zoo survivability study (`surv.*` artifacts).
    Survivability,
}

/// Which workload a scenario runs — the former three drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Tables 1–2 and Figures 2–14 from the intra-DC study.
    Intra,
    /// Figures 15–18 and Table 4 from the backbone study.
    Backbone,
    /// The chaos-ingestion drill with clean-vs-perturbed deviations.
    Chaos,
    /// The forwarding-state study: ECMP capacity loss, emergent
    /// severity mix, and the workload-degradation curve.
    Routes,
    /// The topology-zoo survivability study: element-class
    /// survivability curves and Monte-Carlo lifespan sweeps.
    Survivability,
}

impl ScenarioKind {
    /// Parses a CLI scenario name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "intra" => Some(Self::Intra),
            "backbone" => Some(Self::Backbone),
            "chaos" => Some(Self::Chaos),
            "routes" => Some(Self::Routes),
            "survivability" => Some(Self::Survivability),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Intra => "intra",
            Self::Backbone => "backbone",
            Self::Chaos => "chaos",
            Self::Routes => "routes",
            Self::Survivability => "survivability",
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully-specified workload: everything a run needs except the
/// execution strategy (single run vs. sweep, thread count).
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Which workload to run.
    pub kind: ScenarioKind,
    /// Master seed. Every derived stream — intra, backbone, chaos
    /// injection — is a stable function of this one value.
    pub seed: u64,
    /// Intra-DC fleet scale multiplier.
    pub scale: f64,
    /// Hazard-model knobs (automation / drain-policy ablations).
    pub hazard: HazardConfig,
    /// Backbone topology parameters (edges, vendors, links).
    pub backbone: dcnr_backbone::topo::BackboneParams,
    /// Chaos-injection knobs. Its embedded seed is rederived from
    /// [`Scenario::seed`] by [`Scenario::with_seed`], so one scenario
    /// seed still controls the whole run.
    pub chaos: ChaosConfig,
    /// Tolerances the chaos deviations are held to.
    pub tolerance: Tolerance,
    /// Zoo member id the survivability lifespan replay runs on. Always
    /// one of [`dcnr_topology::zoo::ZOO`]'s ids (validation rejects
    /// anything else), so the `&'static str` keeps `Scenario: Copy`.
    pub topology: &'static str,
}

impl Scenario {
    /// The intra-DC scenario at the paper-default scale.
    pub fn intra(seed: u64) -> Self {
        Self {
            kind: ScenarioKind::Intra,
            seed,
            scale: 10.0,
            hazard: HazardConfig::default(),
            backbone: dcnr_backbone::topo::BackboneParams::default(),
            chaos: ChaosConfig::drill(derive_seed(seed, "scenario.chaos")),
            tolerance: Tolerance::default(),
            topology: "fat-tree",
        }
        .with_seed(seed)
    }

    /// The backbone scenario at the paper-default topology.
    pub fn backbone(seed: u64) -> Self {
        Self {
            kind: ScenarioKind::Backbone,
            ..Self::intra(seed)
        }
    }

    /// The chaos drill scenario (drill fault mix, default tolerances).
    pub fn chaos(seed: u64) -> Self {
        Self {
            kind: ScenarioKind::Chaos,
            ..Self::intra(seed)
        }
    }

    /// The routes scenario at the reference region (`scale` here is a
    /// *region* scale — racks per cluster/pod — not the intra fleet
    /// multiplier, so the default is 1.0).
    pub fn routes(seed: u64) -> Self {
        Self {
            kind: ScenarioKind::Routes,
            scale: 1.0,
            ..Self::intra(seed)
        }
    }

    /// The survivability scenario: the zoo sweep at scale 1.0 with the
    /// lifespan replay on the default fat-tree member.
    pub fn survivability(seed: u64) -> Self {
        Self {
            kind: ScenarioKind::Survivability,
            scale: 1.0,
            ..Self::intra(seed)
        }
    }

    /// The default scenario the CLI (and the report server) uses for
    /// `kind` when no `--seed` is given. One definition, so
    /// `dcnr artifact fig15` and `GET /artifacts/fig15` agree byte for
    /// byte on what the unparameterized workload is.
    pub fn cli_default(kind: ScenarioKind) -> Self {
        match kind {
            ScenarioKind::Intra => Self::intra(0xDC_2018),
            ScenarioKind::Backbone => Self::backbone(0xB0_E5),
            ScenarioKind::Chaos => Self::chaos(0xC4_05),
            ScenarioKind::Routes => Self::routes(0x70_07E5),
            ScenarioKind::Survivability => Self::survivability(0x5012_0735),
        }
    }

    /// Rebinds the scenario to `seed`, rederiving every embedded
    /// sub-seed. This is what the sweep runner uses to mint replicas:
    /// the replica differs from the base scenario *only* in seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.chaos.seed = derive_seed(seed, "scenario.chaos");
        self
    }

    /// Validates the knobs that the engine's own expectations depend on.
    pub fn validate(&self) -> Result<(), DcnrError> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(DcnrError::Config("scale must be positive".into()));
        }
        if dcnr_topology::zoo::find(self.topology).is_none() {
            return Err(DcnrError::Usage(format!(
                "unknown topology {:?} (valid ids: {})",
                self.topology,
                dcnr_topology::zoo::id_list()
            )));
        }
        if self.kind == ScenarioKind::Survivability && self.scale > 100.0 {
            return Err(DcnrError::Usage(format!(
                "survivability scale {} is out of range (zoo builders accept 0 < scale <= 100)",
                self.scale
            )));
        }
        if self.backbone.edges < 2 || self.backbone.vendors < 1 {
            return Err(DcnrError::Config(
                "need at least 2 edges and 1 vendor".into(),
            ));
        }
        self.chaos
            .validate()
            .map_err(|e| DcnrError::Config(format!("chaos: {e}")))
    }

    /// Lowers the scenario to its run plan.
    pub fn plan(&self) -> RunPlan {
        let artifacts: Vec<Experiment> = match self.kind {
            ScenarioKind::Intra => artifacts::registry()
                .iter()
                .filter(|a| a.study == StudyKind::Intra)
                .map(|a| a.id)
                .collect(),
            ScenarioKind::Backbone => artifacts::registry()
                .iter()
                .filter(|a| a.study == StudyKind::Backbone)
                .map(|a| a.id)
                .collect(),
            ScenarioKind::Routes => artifacts::registry()
                .iter()
                .filter(|a| a.study == StudyKind::Routes)
                .map(|a| a.id)
                .collect(),
            ScenarioKind::Survivability => artifacts::registry()
                .iter()
                .filter(|a| a.study == StudyKind::Survivability)
                .map(|a| a.id)
                .collect(),
            ScenarioKind::Chaos => Vec::new(),
        };
        let mut studies: Vec<StudyKind> = Vec::new();
        if self.kind == ScenarioKind::Chaos {
            studies.push(StudyKind::Chaos);
        }
        for e in &artifacts {
            let s = artifacts::descriptor(*e).study;
            if !studies.contains(&s) {
                studies.push(s);
            }
        }
        RunPlan {
            scenario: *self,
            studies,
            artifacts,
        }
    }

    /// The intra-DC study configuration this scenario implies.
    pub fn intra_config(&self) -> StudyConfig {
        StudyConfig {
            scale: self.scale,
            seed: self.seed,
            hazard: self.hazard,
            ..Default::default()
        }
    }

    /// The backbone simulation configuration this scenario implies.
    pub fn backbone_config(&self) -> dcnr_backbone::BackboneSimConfig {
        dcnr_backbone::BackboneSimConfig {
            params: self.backbone,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The routes study configuration this scenario implies.
    pub fn routes_config(&self) -> RoutesConfig {
        RoutesConfig {
            scale: self.scale,
            seed: self.seed,
            backbone: self.backbone,
        }
    }

    /// The survivability study configuration this scenario implies.
    pub fn survivability_config(&self) -> SurvivabilityConfig {
        SurvivabilityConfig {
            scale: self.scale,
            seed: self.seed,
            topology: self.topology,
        }
    }
}

/// What a scenario resolves to before anything runs: the studies it
/// needs (each executed exactly once) and the artifacts they feed.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The scenario this plan was lowered from.
    pub scenario: Scenario,
    /// Required studies, deduplicated, in execution order.
    pub studies: Vec<StudyKind>,
    /// Artifacts to render, in paper order (empty for chaos, whose
    /// output is the deviation report rather than paper artifacts).
    pub artifacts: Vec<Experiment>,
}

/// The shared execution context: runs each required study exactly once
/// and caches its output for every artifact that needs it.
///
/// Thread-safe (`OnceLock` caches), so one context can be shared across
/// threads.
pub struct RunContext {
    scenario: Scenario,
    intra: OnceLock<IntraDcStudy>,
    inter: OnceLock<InterDcStudy>,
    chaos: OnceLock<ChaosStudyOutput>,
    routes: OnceLock<RoutesStudy>,
    survivability: OnceLock<SurvivabilityStudy>,
}

impl RunContext {
    /// A context that will lazily run whatever `scenario` requires.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            intra: OnceLock::new(),
            inter: OnceLock::new(),
            chaos: OnceLock::new(),
            routes: OnceLock::new(),
            survivability: OnceLock::new(),
        }
    }

    /// The scenario this context executes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The intra-DC study (run on first use, then cached).
    pub fn intra(&self) -> &IntraDcStudy {
        self.intra
            .get_or_init(|| IntraDcStudy::run(self.scenario.intra_config()))
    }

    /// The backbone study (run on first use, then cached).
    pub fn inter(&self) -> &InterDcStudy {
        self.inter
            .get_or_init(|| InterDcStudy::run(self.scenario.backbone_config()))
    }

    /// The chaos study (run on first use, then cached).
    pub fn chaos(&self) -> &ChaosStudyOutput {
        self.chaos.get_or_init(|| {
            run_study(
                self.scenario.backbone_config(),
                &self.scenario.chaos,
                self.scenario.tolerance,
            )
        })
    }

    /// The routes study (run on first use, then cached).
    pub fn routes(&self) -> &RoutesStudy {
        self.routes
            .get_or_init(|| RoutesStudy::run(self.scenario.routes_config()))
    }

    /// The survivability study (run on first use, then cached).
    pub fn survivability(&self) -> &SurvivabilityStudy {
        self.survivability
            .get_or_init(|| SurvivabilityStudy::run(self.scenario.survivability_config()))
    }

    /// Ensures `kind` has executed (idempotent).
    pub fn ensure(&self, kind: StudyKind) {
        match kind {
            StudyKind::Intra => {
                self.intra();
            }
            StudyKind::Backbone => {
                self.inter();
            }
            StudyKind::Chaos => {
                self.chaos();
            }
            StudyKind::Routes => {
                self.routes();
            }
            StudyKind::Survivability => {
                self.survivability();
            }
        }
    }

    /// Renders one artifact from the cached studies via its registry
    /// descriptor.
    pub fn artifact(&self, e: Experiment) -> ExperimentOutcome {
        (artifacts::descriptor(e).render)(self)
    }

    /// Fallible [`RunContext::execute`]: validates the scenario first
    /// and converts a study/artifact panic into a typed
    /// [`DcnrError::Panic`] instead of unwinding through the caller.
    /// This is the boundary the supervision layer (and the CLI) run
    /// scenarios behind.
    pub fn try_execute(&self) -> Result<ScenarioOutcome, DcnrError> {
        self.scenario.validate()?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute())).map_err(
            |payload| DcnrError::Panic {
                context: format!(
                    "{} scenario seed {:#x}",
                    self.scenario.kind, self.scenario.seed
                ),
                message: panic_message(payload.as_ref()),
            },
        )
    }

    /// Executes the scenario's full plan and renders the report.
    pub fn execute(&self) -> ScenarioOutcome {
        let plan = self.scenario.plan();
        for kind in &plan.studies {
            self.ensure(*kind);
        }
        match self.scenario.kind {
            ScenarioKind::Intra
            | ScenarioKind::Backbone
            | ScenarioKind::Routes
            | ScenarioKind::Survivability => self.execute_artifacts(&plan),
            ScenarioKind::Chaos => self.execute_chaos(),
        }
    }

    fn execute_artifacts(&self, plan: &RunPlan) -> ScenarioOutcome {
        let mut rendered = String::new();
        let _ = writeln!(rendered, "{}", self.dataset_line());
        let artifacts: Vec<ExperimentOutcome> =
            plan.artifacts.iter().map(|&e| self.artifact(e)).collect();
        let mut comparisons = Vec::new();
        for out in &artifacts {
            let _ = writeln!(rendered);
            rendered.push_str(&artifacts::render_block(out));
            // Qualify metric names with the artifact key: the flattened
            // list must be joinable by name across sweep replicas, and
            // Figs. 15-18 all emit "median (h)", "fit a", ... locally.
            comparisons.extend(out.comparisons.iter().map(|c| Comparison {
                metric: format!("{} {}", out.experiment.key(), c.metric),
                paper: c.paper,
                measured: c.measured,
            }));
        }
        ScenarioOutcome {
            scenario: self.scenario,
            artifacts,
            comparisons,
            rendered,
            passed: true,
        }
    }

    fn execute_chaos(&self) -> ScenarioOutcome {
        let out = self.chaos();
        let mut rendered = String::new();
        let _ = writeln!(rendered, "{}", out.report);
        let _ = writeln!(rendered);
        let _ = writeln!(
            rendered,
            "paper statistics, clean vs chaos (Figures 15-18, Table 4):"
        );
        let mut comparisons = Vec::new();
        for d in &out.deviations {
            let _ = writeln!(rendered, "  {d}");
            // The sweepable value is the *drift*: ideal is zero, so a
            // cross-seed band on it reads directly against the limit.
            comparisons.push(Comparison {
                metric: format!("{} drift", d.metric),
                paper: 0.0,
                measured: d.deviation,
            });
        }
        let _ = writeln!(rendered);
        let _ = writeln!(
            rendered,
            "write-path drill (SEV store + remediation queue):"
        );
        let _ = writeln!(
            rendered,
            "  sev         : {} committed, {} transient failures, {} abandoned, max delay {}",
            out.drill.sev.committed,
            out.drill.sev.transient_failures,
            out.drill.sev.abandoned,
            out.drill.sev.max_delay,
        );
        let _ = writeln!(
            rendered,
            "  remediation : {} committed, {} transient failures, {} abandoned, max delay {}",
            out.drill.remediation.committed,
            out.drill.remediation.transient_failures,
            out.drill.remediation.abandoned,
            out.drill.remediation.max_delay,
        );
        let _ = writeln!(rendered);
        let _ = writeln!(rendered, "annotation for regenerated tables/figures:");
        let _ = writeln!(rendered, "  {}", out.report.annotation());
        let passed = out.within_tolerance();
        let _ = writeln!(rendered);
        if passed {
            let _ = writeln!(
                rendered,
                "verdict: paper statistics within tolerance under injected faults"
            );
        } else {
            let _ = writeln!(
                rendered,
                "verdict: paper statistics drifted outside tolerance under injected faults"
            );
        }
        ScenarioOutcome {
            scenario: self.scenario,
            artifacts: Vec::new(),
            comparisons,
            rendered,
            passed,
        }
    }

    fn dataset_line(&self) -> String {
        match self.scenario.kind {
            ScenarioKind::Intra => {
                let s = self.intra();
                format!(
                    "dataset: {} issues -> {} SEVs (2011-2017)",
                    s.outcomes().len(),
                    s.db().len()
                )
            }
            ScenarioKind::Backbone => {
                let s = self.inter();
                format!(
                    "dataset: {} e-mails -> {} tickets (Oct 2016 - Apr 2018)",
                    s.output().emails.len(),
                    s.tickets().len()
                )
            }
            ScenarioKind::Routes => {
                let s = self.routes();
                let stats = s.forwarding_stats();
                format!(
                    "dataset: {} devices / {} racks; {} table builds, {} invalidations, \
                     {} scoped recomputes",
                    s.devices(),
                    s.racks(),
                    stats.builds,
                    stats.invalidations,
                    stats.devices_recomputed
                )
            }
            ScenarioKind::Survivability => {
                let s = self.survivability();
                format!(
                    "dataset: {} zoo members x {} element classes, {} samples; \
                     lifespan on `{}` ({} devices, {} links)",
                    dcnr_topology::zoo::ZOO.len(),
                    3,
                    s.samples(),
                    s.config().topology,
                    s.lifespan_devices(),
                    s.lifespan_links()
                )
            }
            ScenarioKind::Chaos => String::new(),
        }
    }
}

/// Everything one scenario execution produces.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Rendered artifacts in plan order (empty for chaos).
    pub artifacts: Vec<ExperimentOutcome>,
    /// Every comparison row, flattened in plan order. For chaos these
    /// are the deviation drifts (paper value 0.0 = no drift).
    pub comparisons: Vec<Comparison>,
    /// The full plain-text report (what the CLI prints).
    pub rendered: String,
    /// Whether the run passed its own acceptance (always true for
    /// artifact scenarios; the chaos tolerance verdict otherwise).
    pub passed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: ScenarioKind) -> Scenario {
        Scenario {
            kind,
            scale: 1.0,
            backbone: dcnr_backbone::topo::BackboneParams {
                edges: 40,
                vendors: 16,
                min_links_per_edge: 3,
            },
            ..Scenario::intra(0x5CEA)
        }
    }

    #[test]
    fn plan_requires_exactly_the_needed_studies() {
        let p = small(ScenarioKind::Intra).plan();
        assert_eq!(p.studies, vec![StudyKind::Intra]);
        assert_eq!(p.artifacts.len(), 15, "Tables 1-2 + Figs 2-14");
        let p = small(ScenarioKind::Backbone).plan();
        assert_eq!(p.studies, vec![StudyKind::Backbone]);
        assert_eq!(p.artifacts.len(), 5, "Figs 15-18 + Table 4");
        let p = small(ScenarioKind::Routes).plan();
        assert_eq!(p.studies, vec![StudyKind::Routes]);
        assert_eq!(
            p.artifacts.len(),
            3,
            "routes.{{capacity,severity_mix,workload}}"
        );
        let p = small(ScenarioKind::Survivability).plan();
        assert_eq!(p.studies, vec![StudyKind::Survivability]);
        assert_eq!(p.artifacts.len(), 2, "surv.{{ranking,lifespan}}");
        let p = small(ScenarioKind::Chaos).plan();
        assert_eq!(p.studies, vec![StudyKind::Chaos]);
        assert!(p.artifacts.is_empty());
    }

    #[test]
    fn context_runs_each_study_once_and_caches() {
        let ctx = RunContext::new(small(ScenarioKind::Intra));
        let a = ctx.intra() as *const IntraDcStudy;
        let b = ctx.intra() as *const IntraDcStudy;
        assert_eq!(a, b, "second access must hit the cache");
    }

    #[test]
    fn intra_execution_does_not_touch_the_backbone() {
        let ctx = RunContext::new(small(ScenarioKind::Intra));
        let out = ctx.execute();
        assert!(out.passed);
        assert!(ctx.inter.get().is_none(), "backbone must stay unrun");
        assert!(ctx.chaos.get().is_none(), "chaos must stay unrun");
        assert_eq!(out.artifacts.len(), 15);
        assert!(out.rendered.contains("Table 1"));
        assert!(out.rendered.contains("dataset:"));
    }

    #[test]
    fn backbone_execution_does_not_touch_intra() {
        let ctx = RunContext::new(small(ScenarioKind::Backbone));
        let out = ctx.execute();
        assert!(ctx.intra.get().is_none(), "intra must stay unrun");
        assert_eq!(out.artifacts.len(), 5);
        assert!(out.rendered.contains("Fig. 15"));
    }

    #[test]
    fn routes_execution_stays_inside_the_routes_study() {
        let mut s = small(ScenarioKind::Routes);
        s.scale = 0.25;
        let ctx = RunContext::new(s);
        let out = ctx.execute();
        assert!(out.passed);
        assert!(ctx.intra.get().is_none(), "intra must stay unrun");
        assert!(ctx.inter.get().is_none(), "backbone must stay unrun");
        assert_eq!(out.artifacts.len(), 3);
        assert!(out.rendered.contains("dataset:"));
        assert!(out.rendered.contains("emergent"));
    }

    #[test]
    fn chaos_execution_produces_drift_comparisons() {
        let ctx = RunContext::new(small(ScenarioKind::Chaos));
        let out = ctx.execute();
        // The verdict must agree with the study's own tolerance check
        // (whether it passes depends on topology size and seed).
        assert_eq!(out.passed, ctx.chaos().within_tolerance());
        assert_eq!(out.comparisons.len(), 6, "six deviation rows");
        for c in &out.comparisons {
            assert_eq!(c.paper, 0.0, "{}: ideal drift is zero", c.metric);
            assert!(c.measured.is_finite());
        }
        assert!(out.rendered.contains("verdict:"));
    }

    #[test]
    fn with_seed_rederives_chaos_seed() {
        let a = small(ScenarioKind::Chaos);
        let b = a.with_seed(a.seed + 1);
        assert_ne!(a.chaos.seed, b.chaos.seed);
        assert_eq!(a.chaos.corrupt_rate, b.chaos.corrupt_rate);
        // Same seed → identical derivation (idempotent).
        let c = a.with_seed(a.seed);
        assert_eq!(a.chaos.seed, c.chaos.seed);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut s = small(ScenarioKind::Intra);
        s.scale = 0.0;
        assert!(s.validate().is_err());
        let mut s = small(ScenarioKind::Backbone);
        s.backbone.edges = 1;
        assert!(s.validate().is_err());
        let mut s = small(ScenarioKind::Chaos);
        s.chaos.loss_rate = 2.0;
        assert!(s.validate().is_err());
        assert!(small(ScenarioKind::Intra).validate().is_ok());
    }

    #[test]
    fn validate_rejects_unknown_topologies_as_usage_errors() {
        let mut s = small(ScenarioKind::Survivability);
        s.topology = "hypercube";
        let err = s.validate().unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("dcell"), "lists valid ids: {err}");
        // Out-of-range zoo scale is also a usage error for survivability.
        let mut s = small(ScenarioKind::Survivability);
        s.scale = 101.0;
        let err = s.validate().unwrap_err();
        assert_eq!(err.kind(), "usage");
        // ...but other scenario kinds accept large scales unchanged.
        let mut s = small(ScenarioKind::Intra);
        s.scale = 101.0;
        assert!(s.validate().is_ok());
        assert!(small(ScenarioKind::Survivability).validate().is_ok());
    }

    #[test]
    fn try_execute_rejects_invalid_scenarios_without_running() {
        let mut s = small(ScenarioKind::Intra);
        s.scale = f64::NAN;
        let ctx = RunContext::new(s);
        let err = ctx.try_execute().unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(ctx.intra.get().is_none(), "nothing may run");
    }

    #[test]
    fn try_execute_matches_execute_on_valid_scenarios() {
        let ctx = RunContext::new(small(ScenarioKind::Chaos));
        let out = ctx.try_execute().unwrap();
        assert_eq!(out.rendered, ctx.execute().rendered);
    }

    #[test]
    fn kind_parse_roundtrip() {
        for k in [
            ScenarioKind::Intra,
            ScenarioKind::Backbone,
            ScenarioKind::Chaos,
            ScenarioKind::Routes,
            ScenarioKind::Survivability,
        ] {
            assert_eq!(ScenarioKind::parse(k.name()), Some(k));
        }
        assert_eq!(ScenarioKind::parse("bogus"), None);
    }
}
