//! Property-based tests for the service impact layer.

use dcnr_service::{ImpactModel, Placement, ResolutionModel};
use dcnr_sev::SevLevel;
use dcnr_topology::{ClusterNetworkBuilder, ClusterParams, FailureSet, Topology};
use proptest::prelude::*;

fn small_cluster() -> impl Strategy<Value = (Topology, Vec<dcnr_topology::DeviceId>)> {
    (1u32..3, 2u32..8, 2u32..4, 1u32..3, 1u32..4).prop_map(
        |(clusters, racks, csws, csas, cores)| {
            let mut topo = Topology::new();
            ClusterNetworkBuilder::new(ClusterParams {
                clusters,
                racks_per_cluster: racks,
                csws_per_cluster: csws,
                csas,
                cores,
                rack_uplink_gbps: 10.0,
            })
            .build(&mut topo, 0);
            let ids = topo.devices().iter().map(|d| d.id).collect();
            (topo, ids)
        },
    )
}

proptest! {
    #[test]
    fn impact_outputs_are_bounded(
        (topo, ids) in small_cluster(),
        victim_idx in 0usize..1000,
        utilization in 0.05..0.99f64,
    ) {
        let placement = Placement::default_mix(&topo);
        let model = ImpactModel { utilization, ..Default::default() };
        let victim = ids[victim_idx % ids.len()];
        let a = model.assess(&topo, &placement, victim, &FailureSet::new(&topo));
        prop_assert!((0.0..=1.0).contains(&a.request_failure_rate));
        prop_assert!((0.0..=1.0).contains(&a.blast.capacity_loss_fraction));
        for loss in a.service_capacity_loss.values() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(loss));
        }
        prop_assert!(a.blast.racks_affected() <= a.blast.racks_total);
    }

    #[test]
    fn severity_rubric_is_monotone_in_failure_rate(
        (topo, ids) in small_cluster(),
        victim_idx in 0usize..1000,
    ) {
        // Higher utilization can only worsen (or keep) the severity.
        let placement = Placement::default_mix(&topo);
        let victim = ids[victim_idx % ids.len()];
        let cool = ImpactModel { utilization: 0.3, ..Default::default() };
        let hot = ImpactModel { utilization: 0.95, ..Default::default() };
        let a = cool.assess(&topo, &placement, victim, &FailureSet::new(&topo));
        let b = hot.assess(&topo, &placement, victim, &FailureSet::new(&topo));
        prop_assert!(b.request_failure_rate + 1e-12 >= a.request_failure_rate);
        prop_assert!(b.severity.number() <= a.severity.number(), "hot must be at least as severe");
    }

    #[test]
    fn resolution_model_is_positive_and_grows(seed in any::<u64>(), year in 2011i32..=2017) {
        use rand::SeedableRng;
        let m = ResolutionModel::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for level in SevLevel::ALL {
            let d = m.sample(&mut rng, year, level);
            prop_assert!(d.as_hours() >= 0.0);
        }
        if year < 2017 {
            prop_assert!(m.median_hours(year + 1) > m.median_hours(year));
        }
    }

    #[test]
    fn placement_covers_exactly_the_racks((topo, _) in small_cluster()) {
        let placement = Placement::default_mix(&topo);
        let racks = topo.count_of_type(dcnr_topology::DeviceType::Rsw);
        prop_assert_eq!(placement.total_racks(), racks);
        let per_service: usize = dcnr_service::ServiceKind::ALL
            .iter()
            .map(|&s| placement.rack_count(s))
            .sum();
        prop_assert_eq!(per_service, racks);
    }
}
