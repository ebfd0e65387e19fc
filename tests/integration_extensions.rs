//! Integration tests for the extension modules (DESIGN.md §5a): WAN
//! rerouting, cross-DC planes, drills, and Kaplan–Meier cross-checks —
//! each exercised against a full study run — plus the emergent severity
//! mix's committed bytes.

use dcnr_core::backbone::topo::BackboneParams;
use dcnr_core::backbone::wan::{self, RerouteImpact};
use dcnr_core::backbone::{BackboneSimConfig, CrossDcPlanes};
use dcnr_core::serve::render_artifact_text;
use dcnr_core::service::{disaster_drill, FaultInjectionDrill, ImpactModel, Placement};
use dcnr_core::topology::Region;
use dcnr_core::{Experiment, InterDcStudy, Scenario, StudyKind};
use std::collections::HashSet;

fn inter() -> InterDcStudy {
    InterDcStudy::run(BackboneSimConfig {
        params: BackboneParams {
            edges: 40,
            vendors: 16,
            min_links_per_edge: 3,
        },
        seed: 0xE47,
        ..Default::default()
    })
}

#[test]
fn reroute_latency_grows_with_cut_size() {
    // §3.2: rerouting around fiber cuts increases end-to-end latency —
    // and more cuts can only make it worse.
    let s = inter();
    let topo = &s.output().topology;
    let all_links: Vec<_> = topo.links().iter().map(|l| l.id).collect();
    let mut last_mean = 1.0;
    for frac in [8, 4] {
        let cut: HashSet<_> = all_links
            .iter()
            .copied()
            .filter(|l| l.index() % frac == 0)
            .collect();
        let impact = RerouteImpact::of_cut(topo, &cut);
        assert!(
            impact.mean_stretch >= last_mean - 1e-9,
            "stretch should grow with cuts"
        );
        assert!(impact.max_stretch >= impact.mean_stretch);
        last_mean = impact.mean_stretch;
    }
    assert!(
        last_mean > 1.0,
        "a quarter of links cut must stretch something"
    );
}

#[test]
fn intercontinental_paths_cost_more() {
    let s = inter();
    let topo = &s.output().topology;
    // Latency from an NA edge to same-continent peers vs. others.
    let na = topo.edges_on(dcnr_core::backbone::Continent::NorthAmerica);
    let au = topo.edges_on(dcnr_core::backbone::Continent::Australia);
    if na.len() >= 2 && !au.is_empty() {
        let dist = wan::shortest_latencies(topo, na[0], &HashSet::new());
        let to_na = dist[na[1].index()].expect("connected");
        let to_au = dist[au[0].index()].expect("connected");
        assert!(to_au > to_na, "NA->AU {to_au} should exceed NA->NA {to_na}");
    }
}

#[test]
fn cross_dc_planes_survive_three_plane_loss() {
    let mut planes = CrossDcPlanes::paper(12);
    planes.fail_plane(0);
    planes.fail_plane(1);
    planes.fail_plane(2);
    assert_eq!(planes.min_pair_capacity(), 0.25);
    for a in 0..12 {
        for b in (a + 1)..12 {
            assert!(!planes.pair_partitioned(a, b));
        }
    }
}

#[test]
fn drills_agree_with_impact_model() {
    let region = Region::mixed_reference();
    let placement = Placement::default_mix(&region.topology);
    let model = ImpactModel::default();
    let drill = FaultInjectionDrill::sweep(&region, &placement, &model);
    // The reference region tolerates any single failure.
    assert!(drill.risky_tiers().is_empty(), "{:?}", drill.risky_tiers());
    // Disaster drills account for every rack exactly once.
    let mut lost = 0;
    for dc in &region.datacenters {
        lost += disaster_drill(&region, &placement, &model, dc).racks_lost;
    }
    assert_eq!(lost, placement.total_racks());
}

#[test]
fn kaplan_meier_cross_check_is_consistent() {
    let s = inter();
    let km = s.metrics().edge_uptime_survival.as_ref().expect("fitted");
    // Pooled intervals: every edge contributes at least one observation.
    assert!(km.n() >= 40);
    assert!(km.events() > 0);
    // The KM median time-to-failure should be the same order as the
    // per-edge MTBF median (pooling weights frequent failers more, so
    // it sits at or below it).
    let per_edge_median = s.metrics().edge_mtbf.summary().median();
    let km_median = km.median().expect("enough failures");
    assert!(
        km_median > per_edge_median / 10.0,
        "{km_median} vs {per_edge_median}"
    );
    assert!(
        km_median < per_edge_median * 3.0,
        "{km_median} vs {per_edge_median}"
    );
    // Survival is a proper tail function.
    assert!(km.survival_at(0.0) <= 1.0);
    assert!(km.survival_at(1e9) >= 0.0);
}

#[test]
fn severity_mix_artifact_bytes_match_the_committed_golden() {
    // The emergent mixes follow from the ECMP path losses of 100 sampled
    // failures on the reference region, each an incremental forwarding
    // apply, so these bytes pin the incremental path recompute.
    const GOLDEN: &str = include_str!("golden/routes_severity_mix.txt");
    let rendered = render_artifact_text(
        &Scenario::cli_default(StudyKind::Routes),
        Experiment::RoutesSeverityMix,
    )
    .expect("the default routes scenario is valid");
    let first_diff = rendered
        .lines()
        .zip(GOLDEN.lines())
        .position(|(got, want)| got != want)
        .map(|i| i + 1);
    assert!(
        rendered == GOLDEN,
        "the routes.severity_mix artifact drifted from tests/golden/routes_severity_mix.txt \
         (first differing line: {first_diff:?}); if the change is intended, regenerate it \
         with `cargo run --release -q --bin dcnr -- artifact routes.severity_mix \
         > tests/golden/routes_severity_mix.txt`"
    );
}
