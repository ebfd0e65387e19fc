//! The routes pipeline of the traced run: `RoutesStudy::run` at region
//! scale 1, rebuilt from public calls so that `topology` and
//! `service::impact` are timed where they are called. The rebuild is
//! checked against the study the program computed for the same seed.

use crate::measure::{timed, Layers, Stopwatch, Tally};
use dcnr_core::backbone::topo::{BackboneTopology, FiberLinkId};
use dcnr_core::backbone::wan::PathSetSurvival;
use dcnr_core::faults::calibration::TYPE_ORDER;
use dcnr_core::routes::{BlastBench, EquivalenceSample};
use dcnr_core::service::{EmergentSeverityModel, ImpactEngine, ImpactModel, Placement};
use dcnr_core::sim::{derive_indexed_seed, derive_seed, stream_rng};
use dcnr_core::topology::routing::reachable_from;
use dcnr_core::topology::{
    BlastRadius, BlastScratch, ClusterParams, DeviceId, DeviceType, FabricParams, FailureSet,
    ForwardingState, ForwardingStats, RegionBuilder,
};
use dcnr_core::{RoutesConfig, RunContext, Scenario};
use rand::Rng;
use std::collections::HashSet;
use std::hint::black_box;

/// The Table 3 aggregate the emergent severity mix must land near.
const PAPER_MIX: [f64; 3] = [0.82, 0.13, 0.05];
const MIX_TOLERANCE: f64 = 0.05;

/// The routes output checks, read through the `RoutesStudy` API:
/// forwarding agrees with BFS on every sampled pair, and the emergent
/// 2017 aggregate is within ±0.05 of 82/13/5.
fn check_study(ctx: &RunContext) -> Result<(), String> {
    let study = ctx.routes();
    let eq = study.equivalence();
    if eq.agreements != eq.pairs {
        return Err(format!(
            "forwarding ≡ BFS: only {}/{} pairs agree",
            eq.agreements, eq.pairs
        ));
    }
    let mix = study.severity_aggregate();
    if mix
        .iter()
        .zip(PAPER_MIX)
        .any(|(m, p)| (m - p).abs() > MIX_TOLERANCE)
    {
        return Err(format!(
            "emergent aggregate {mix:?} is not within ±{MIX_TOLERANCE} of {PAPER_MIX:?}"
        ));
    }
    Ok(())
}

/// Busy time per layer call site of the rebuilt routes pipeline.
#[derive(Default)]
struct Watches {
    region_build: Stopwatch,
    forwarding_build: Stopwatch,
    impact_assess: Stopwatch,
    blast_oracle: Stopwatch,
    blast_scratch: Stopwatch,
    bfs: Stopwatch,
    forwarding_apply: Stopwatch,
}

/// What the rebuilt pipeline computed, in the `RoutesStudy` accessors'
/// own types so it can be compared with the program's study.
struct Rebuilt {
    forwarding: ForwardingStats,
    equivalence: EquivalenceSample,
    blast: BlastBench,
}

/// The `RoutesStudy::run` pipeline rebuilt from public calls, with every
/// call into `topology` and `service::impact` timed where it is made.
fn rebuilt(config: &RoutesConfig, w: &mut Watches) -> Rebuilt {
    let f = config.scale.clamp(0.05, 100.0);
    let region = w.region_build.time(|| {
        RegionBuilder::new()
            .cluster_dc(ClusterParams {
                racks_per_cluster: ((64.0 * f).round() as u32).max(4),
                ..ClusterParams::default()
            })
            .fabric_dc(FabricParams {
                racks_per_pod: ((48.0 * f).round() as u32).max(4),
                ..FabricParams::default()
            })
            .bbrs(2)
            .build()
    });
    let topo = &region.topology;
    let n = topo.device_count();
    let placement = Placement::default_mix(topo);
    let of_type = |keep: &dyn Fn(DeviceType) -> bool| -> Vec<DeviceId> {
        topo.devices()
            .iter()
            .filter(|d| keep(d.device_type))
            .map(|d| d.id)
            .collect()
    };
    let racks = of_type(&|t| t == DeviceType::Rsw);
    let mut forwarding = w.forwarding_build.time(|| ForwardingState::new(topo));

    // Capacity sweep: strided single failures per tier.
    let mut engine = w
        .impact_assess
        .time(|| ImpactEngine::new(ImpactModel::default(), topo));
    let base = FailureSet::new(topo);
    for &t in &TYPE_ORDER {
        let instances = of_type(&|d| d == t);
        let step = instances.len().div_ceil(32).max(1);
        for &victim in instances.iter().step_by(step) {
            let a = w
                .impact_assess
                .time(|| engine.assess(&placement, victim, &base));
            black_box(a);
        }
    }

    // Forwarding-vs-BFS equivalence sample, with the ECMP fraction sums
    // (unattributed) after every round.
    let mut fs = w.forwarding_build.time(|| ForwardingState::new(topo));
    let mut equivalence = EquivalenceSample {
        pairs: 0,
        agreements: 0,
        max_ecmp_sum_error: 0.0,
    };
    for round in 0..6u64 {
        let mut rng = stream_rng(
            derive_indexed_seed(config.seed, "routes.equivalence", round),
            "routes.equivalence.round",
        );
        let mut failed = FailureSet::new(topo);
        for _ in 0..rng.gen_range(0..4usize) {
            failed.fail(topo.devices()[rng.gen_range(0..n)].id);
        }
        w.forwarding_apply.time(|| fs.apply(topo, &failed));
        for _ in 0..8 {
            let src = topo.devices()[rng.gen_range(0..n)].id;
            let seen = w.bfs.time(|| reachable_from(topo, src, &failed));
            for _ in 0..8 {
                let dst = topo.devices()[rng.gen_range(0..n)].id;
                equivalence.pairs += 1;
                equivalence.agreements += usize::from(fs.reachable(src, dst) == seen[dst.index()]);
            }
        }
        for d in topo.devices() {
            if d.device_type != DeviceType::Core && fs.has_core_route(d.id) {
                let sum: f64 = fs.ecmp_fractions(d.id).iter().map(|&(_, f)| f).sum();
                equivalence.max_ecmp_sum_error =
                    equivalence.max_ecmp_sum_error.max((sum - 1.0).abs());
            }
        }
    }

    // Blast radius: allocating oracle vs scratch reuse on the same victims.
    let mut victims = of_type(&|t| t != DeviceType::Rsw);
    victims.extend(
        racks
            .iter()
            .copied()
            .step_by(racks.len().div_ceil(64).max(1)),
    );
    let mut blast_base = FailureSet::new(topo);
    let mut rng = stream_rng(config.seed, "routes.blast.base");
    blast_base.fail(topo.devices()[rng.gen_range(0..n)].id);
    let oracle: Vec<BlastRadius> = victims
        .iter()
        .map(|&v| {
            w.blast_oracle
                .time(|| BlastRadius::of_failure(topo, v, &blast_base))
        })
        .collect();
    let mut scratch = w
        .blast_scratch
        .time(|| BlastScratch::new(topo, &blast_base));
    let reused: Vec<BlastRadius> = victims
        .iter()
        .map(|&v| {
            w.blast_scratch
                .time(|| BlastRadius::of_failure_with(topo, v, &mut scratch))
        })
        .collect();

    // Workload-degradation curve: incremental applies on one state.
    let candidates = of_type(&|t| t != DeviceType::Bbr);
    let mut failed = FailureSet::new(topo);
    for (ki, k) in [1usize, 2, 4, 8, 16].into_iter().enumerate() {
        for trial in 0..4 {
            let mut rng = stream_rng(
                derive_indexed_seed(config.seed, "routes.workload", (ki * 100 + trial) as u64),
                "routes.workload.trial",
            );
            failed.clear();
            for _ in 0..k {
                failed.fail(candidates[rng.gen_range(0..candidates.len())]);
            }
            w.forwarding_apply.time(|| forwarding.apply(topo, &failed));
            for job in racks.chunks(8) {
                black_box(
                    job.iter()
                        .map(|&r| forwarding.core_path_fraction(r))
                        .fold(1.0f64, f64::min),
                );
            }
        }
        failed.clear();
        w.forwarding_apply.time(|| forwarding.apply(topo, &failed));
    }

    // Emergent mixes and the WAN sample (backbone): unattributed.
    let emergent = EmergentSeverityModel::reference();
    black_box(TYPE_ORDER.map(|t| emergent.mix(t)));
    let wan = BackboneTopology::build(config.backbone, derive_seed(config.seed, "routes.wan"));
    let mut rng = stream_rng(config.seed, "routes.wan.cut");
    let mut cut = HashSet::new();
    while cut.len() < 2.min(wan.links().len()) {
        cut.insert(FiberLinkId::from_index(
            rng.gen_range(0..wan.links().len()) as u32
        ));
    }
    black_box(PathSetSurvival::of_cut(&wan, &cut));
    black_box(PathSetSurvival::of_cut(&wan, &HashSet::new()));

    Rebuilt {
        forwarding: forwarding.stats(),
        equivalence,
        blast: BlastBench {
            candidates: victims.len(),
            identical: oracle == reused,
        },
    }
}

/// Compares the rebuild with the program's study of the same seed, so
/// the layer timings are of the work `RoutesStudy::run` does.
fn check_rebuilt(ctx: &RunContext, rebuilt: &Rebuilt) -> Result<(), String> {
    let study = ctx.routes();
    let pairs = [
        (
            "forwarding stats",
            format!("{:?}", study.forwarding_stats()),
            format!("{:?}", rebuilt.forwarding),
        ),
        (
            "equivalence sample",
            format!("{:?}", study.equivalence()),
            format!("{:?}", rebuilt.equivalence),
        ),
        (
            "blast sweep",
            format!("{:?}", study.blast()),
            format!("{:?}", rebuilt.blast),
        ),
    ];
    for (what, program, rebuild) in pairs {
        if program != rebuild {
            return Err(format!(
                "rebuilt {what} {rebuild} differs from RoutesStudy's {program}"
            ));
        }
    }
    if !rebuilt.blast.identical {
        return Err("rebuilt blast sweep: scratch reuse differs from the oracle".into());
    }
    Ok(())
}

/// One traced round at region scale 1. The untraced replica
/// (`RunContext::try_execute`) is the end-to-end reference and leaves its
/// study cached; the traced replica is the rebuilt pipeline plus
/// `RunContext::execute` on that cached study (the render of the three
/// artifacts, left unattributed). Teardown is outside both.
pub fn trace_round(seed: u64, layers: &mut Layers, tally: &mut Tally) {
    let scenario = Scenario::routes(seed);
    let ctx = RunContext::new(scenario);
    let (reference, untraced) = timed(|| ctx.try_execute());
    let checked = match reference {
        Ok(out) if out.passed => check_study(&ctx),
        Ok(_) => Err("report did not pass".into()),
        Err(e) => Err(e.to_string()),
    };
    if let Err(e) = checked {
        return tally.op(Err(format!("routes trace seed {seed:#x}: {e}")));
    }
    let mut w = Watches::default();
    let (built, glue) = timed(|| rebuilt(&scenario.routes_config(), &mut w));
    let (_, render) = timed(|| ctx.execute());
    let traced = glue + render;
    if let Err(e) = check_rebuilt(&ctx, &built) {
        return tally.op(Err(format!("routes trace seed {seed:#x}: {e}")));
    }
    tally.op(Ok(()));
    let timed_layers = [
        ("topology.region_build_s", w.region_build),
        ("topology.forwarding_build_s", w.forwarding_build),
        ("service.impact_assess_s", w.impact_assess),
        ("topology.blast_oracle_s", w.blast_oracle),
        ("topology.blast_scratch_s", w.blast_scratch),
        ("topology.bfs_s", w.bfs),
        ("topology.forwarding_apply_s", w.forwarding_apply),
    ];
    let mut attributed = 0.0;
    for (name, watch) in timed_layers {
        layers.add(name, watch.0);
        attributed += watch.0;
    }
    layers.add(
        "topology.devices_recomputed",
        built.forwarding.devices_recomputed as f64,
    );
    layers.add("routes.unattributed_s", traced - attributed);
    layers.add("routes.traced_s", traced);
    layers.add("routes.tracing_overhead_s", traced - untraced);
}
