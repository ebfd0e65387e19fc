//! Property-based tests for topologies: naming, builders, routing.

use crate::cluster::{ClusterNetworkBuilder, ClusterParams};
use crate::device::DeviceType;
use crate::fabric::{FabricNetworkBuilder, FabricParams};
use crate::forwarding::ForwardingState;
use crate::graph::Topology;
use crate::naming::{format_device_name, parse_device_type};
use crate::routing::{can_reach_type, live_uplinks, reachable_from, BlastRadius, FailureSet};
use proptest::prelude::*;

/// Builds a failure set from arbitrary indices (mod device count).
fn failure_set_from(topo: &Topology, picks: &[u16]) -> FailureSet {
    let mut failed = FailureSet::new(topo);
    let n = topo.device_count();
    for &p in picks {
        failed.fail(topo.devices()[p as usize % n].id);
    }
    failed
}

/// Adds arbitrary link failures (indices mod link count) to `failed`.
fn fail_links_from(topo: &Topology, failed: &mut FailureSet, picks: &[u16]) {
    let n = topo.link_count();
    for &p in picks {
        failed.fail_link(topo.links()[p as usize % n].id);
    }
}

/// The tentpole equivalence gate: forwarding-state reachability must be
/// *exactly* the BFS oracle's answer for every ordered device pair.
fn check_forwarding_matches_bfs(topo: &Topology, failed: &FailureSet) {
    let mut fs = ForwardingState::new(topo);
    fs.apply(topo, failed);
    for a in topo.devices() {
        let seen = reachable_from(topo, a.id, failed);
        for b in topo.devices() {
            assert_eq!(
                fs.reachable(a.id, b.id),
                seen[b.id.index()],
                "{} -> {} under {:?}",
                a.name,
                b.name,
                failed
            );
        }
    }
    // ECMP invariant: next-hop fractions sum to 1 wherever a core
    // route survives, and the incremental tables match a fresh build.
    let mut fresh = ForwardingState::new(topo);
    fresh.apply(topo, failed);
    for d in topo.devices() {
        assert_eq!(fs.core_paths(d.id), fresh.core_paths(d.id));
        if d.device_type != DeviceType::Core && fs.has_core_route(d.id) {
            let sum: f64 = fs.ecmp_fractions(d.id).iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", d.name);
        }
    }
}

fn any_type() -> impl Strategy<Value = DeviceType> {
    proptest::sample::select(DeviceType::INTRA_DC.to_vec())
}

fn cluster_params() -> impl Strategy<Value = ClusterParams> {
    (1u32..4, 1u32..12, 2u32..5, 1u32..4, 1u32..5).prop_map(
        |(clusters, racks, csws, csas, cores)| ClusterParams {
            clusters,
            racks_per_cluster: racks,
            csws_per_cluster: csws,
            csas,
            cores,
            rack_uplink_gbps: 10.0,
        },
    )
}

fn fabric_params() -> impl Strategy<Value = FabricParams> {
    (1u32..4, 1u32..10, 2u32..5, 1u32..4, 1u32..3, 1u32..5).prop_map(
        |(pods, racks, fsws, ssws, esws, cores)| FabricParams {
            pods,
            racks_per_pod: racks,
            fsws_per_pod: fsws,
            ssws_per_plane: ssws,
            esws_per_plane: esws,
            cores,
            rack_uplink_gbps: 10.0,
        },
    )
}

fn check_graph_consistency(topo: &Topology) {
    for link in topo.links() {
        assert_ne!(link.a, link.b);
        assert!(link.capacity_gbps > 0.0);
        assert!(topo
            .neighbors(link.a)
            .iter()
            .any(|&(n, l)| n == link.b && l == link.id));
        assert!(topo
            .neighbors(link.b)
            .iter()
            .any(|&(n, l)| n == link.a && l == link.id));
    }
    let degree_sum: usize = topo.devices().iter().map(|d| topo.degree(d.id)).sum();
    assert_eq!(degree_sum, 2 * topo.link_count(), "handshake lemma");
}

proptest! {
    #[test]
    fn name_roundtrip(t in any_type(), dc in 0u16..100, scope in 0u32..64, unit in 0u32..10_000) {
        let name = format_device_name(t, dc, 'c', scope, unit);
        prop_assert_eq!(parse_device_type(&name).unwrap(), t);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_strings(s in ".{0,64}") {
        let _ = parse_device_type(&s);
    }

    #[test]
    fn cluster_builder_invariants(params in cluster_params()) {
        let mut topo = Topology::new();
        let dc = ClusterNetworkBuilder::new(params).build(&mut topo, 0);
        prop_assert_eq!(topo.device_count() as u32, params.device_total());
        check_graph_consistency(&topo);
        // Every RSW reaches a Core through its uplinks.
        let none = FailureSet::new(&topo);
        for cluster in &dc.rsws {
            for &rsw in cluster {
                prop_assert!(can_reach_type(&topo, rsw, DeviceType::Core, &none));
                prop_assert_eq!(live_uplinks(&topo, rsw, &none) as u32, params.csws_per_cluster);
            }
        }
    }

    #[test]
    fn fabric_builder_invariants(params in fabric_params()) {
        let mut topo = Topology::new();
        let dc = FabricNetworkBuilder::new(params).build(&mut topo, 0);
        prop_assert_eq!(topo.device_count() as u32, params.device_total());
        check_graph_consistency(&topo);
        let none = FailureSet::new(&topo);
        for pod in &dc.rsws {
            for &rsw in pod {
                prop_assert_eq!(live_uplinks(&topo, rsw, &none) as u32, params.fsws_per_pod);
            }
        }
    }

    #[test]
    fn blast_radius_is_bounded_and_monotone(params in cluster_params(), victim_idx in 0usize..1000) {
        let mut topo = Topology::new();
        let _ = ClusterNetworkBuilder::new(params).build(&mut topo, 0);
        let victim = topo.devices()[victim_idx % topo.device_count()].id;
        let empty = FailureSet::new(&topo);
        let br = BlastRadius::of_failure(&topo, victim, &empty);
        prop_assert!(br.racks_affected() <= br.racks_total);
        prop_assert!((0.0..=1.0).contains(&br.capacity_loss_fraction));
        prop_assert!((0.0..=1.0).contains(&br.affected_fraction()));

        // Monotonicity: adding a base failure can only keep or grow the
        // number of disconnected racks.
        let other = topo.devices()[(victim_idx / 7) % topo.device_count()].id;
        if other != victim {
            let mut base = FailureSet::new(&topo);
            base.fail(other);
            let br2 = BlastRadius::of_failure(&topo, victim, &base);
            prop_assert!(br2.racks_disconnected >= br.racks_disconnected);
            prop_assert!(br2.capacity_loss_fraction + 1e-9 >= br.capacity_loss_fraction);
        }
    }

    #[test]
    fn failing_everything_disconnects_everything(params in cluster_params()) {
        let mut topo = Topology::new();
        let dc = ClusterNetworkBuilder::new(params).build(&mut topo, 0);
        let mut failed = FailureSet::new(&topo);
        for &core in &dc.cores {
            failed.fail(core);
        }
        // With every Core down, no rack has an uplink.
        for cluster in &dc.rsws {
            for &rsw in cluster {
                prop_assert_eq!(live_uplinks(&topo, rsw, &failed), 0);
            }
        }
    }

    #[test]
    fn forwarding_reachability_matches_bfs_on_clusters(
        params in cluster_params(),
        picks in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let mut topo = Topology::new();
        let _ = ClusterNetworkBuilder::new(params).build(&mut topo, 0);
        let failed = failure_set_from(&topo, &picks);
        check_forwarding_matches_bfs(&topo, &failed);
    }

    #[test]
    fn forwarding_reachability_matches_bfs_on_fabrics(
        params in fabric_params(),
        picks in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let mut topo = Topology::new();
        let _ = FabricNetworkBuilder::new(params).build(&mut topo, 0);
        let failed = failure_set_from(&topo, &picks);
        check_forwarding_matches_bfs(&topo, &failed);
    }

    #[test]
    fn forwarding_invalidation_is_path_equivalent_to_rebuild(
        params in fabric_params(),
        picks in proptest::collection::vec(any::<u16>(), 1..16),
    ) {
        let mut topo = Topology::new();
        let _ = FabricNetworkBuilder::new(params).build(&mut topo, 0);
        // Apply the failures one at a time (the incremental path), then
        // compare every table against a from-scratch build.
        let mut incremental = ForwardingState::new(&topo);
        let mut failed = FailureSet::new(&topo);
        for &p in &picks {
            failed.fail(topo.devices()[p as usize % topo.device_count()].id);
            incremental.apply(&topo, &failed);
        }
        let mut fresh = ForwardingState::new(&topo);
        fresh.apply(&topo, &failed);
        for d in topo.devices() {
            prop_assert_eq!(incremental.core_paths(d.id), fresh.core_paths(d.id));
            prop_assert_eq!(incremental.next_hops(d.id), fresh.next_hops(d.id));
            prop_assert_eq!(incremental.reachable(d.id, d.id), fresh.reachable(d.id, d.id));
        }
    }

    #[test]
    fn forwarding_matches_bfs_on_every_zoo_member(
        member_idx in 0usize..crate::zoo::ZOO.len(),
        scale in 0.2f64..1.5,
        device_picks in proptest::collection::vec(any::<u16>(), 0..10),
        link_picks in proptest::collection::vec(any::<u16>(), 0..10),
    ) {
        // The equivalence gate across the whole zoo — fat-tree, F16,
        // BCube, DCell included — under arbitrary mixed device *and*
        // link failure sets, not just the Facebook-shaped fleet.
        let topo = crate::zoo::ZOO[member_idx].build(scale);
        check_graph_consistency(&topo);
        let mut failed = failure_set_from(&topo, &device_picks);
        fail_links_from(&topo, &mut failed, &link_picks);
        check_forwarding_matches_bfs(&topo, &failed);
    }

    #[test]
    fn zoo_incremental_invalidation_matches_rebuild(
        member_idx in 0usize..crate::zoo::ZOO.len(),
        steps in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..12),
    ) {
        // Interleaved device and link failures applied one at a time
        // (the incremental path) against a from-scratch build.
        let topo = crate::zoo::ZOO[member_idx].build(0.5);
        let mut incremental = ForwardingState::new(&topo);
        let mut failed = FailureSet::new(&topo);
        for &(p, is_link) in &steps {
            if is_link {
                failed.fail_link(topo.links()[p as usize % topo.link_count()].id);
            } else {
                failed.fail(topo.devices()[p as usize % topo.device_count()].id);
            }
            incremental.apply(&topo, &failed);
        }
        let mut fresh = ForwardingState::new(&topo);
        fresh.apply(&topo, &failed);
        for d in topo.devices() {
            prop_assert_eq!(incremental.core_paths(d.id), fresh.core_paths(d.id));
            prop_assert_eq!(incremental.next_hops(d.id), fresh.next_hops(d.id));
        }
    }

    #[test]
    fn forwarding_fail_and_restore_steps_match_rebuild_and_bfs(
        member_idx in 0usize..crate::zoo::ZOO.len(),
        scale in 0.2f64..1.2,
        steps in proptest::collection::vec((any::<u16>(), any::<bool>(), 0u8..4, 0u8..4), 1..24),
    ) {
        // Counts go back *up* on restores, which the add-only
        // invalidation properties never exercise. Each step fails a
        // device or link (op 0 or 1) or restores a failed one (op 2 or
        // 3), then the tables must equal a fresh build's; one step in
        // four also checks reachability against BFS, and the labels
        // stay stale in between.
        let topo = crate::zoo::ZOO[member_idx].build(scale);
        let mut incremental = ForwardingState::new(&topo);
        let mut failed = FailureSet::new(&topo);
        let mut down_devices = Vec::new();
        let mut down_links = Vec::new();
        for &(p, is_link, op, check) in &steps {
            let p = p as usize;
            match (op < 2, is_link) {
                (true, false) => {
                    let d = topo.devices()[p % topo.device_count()].id;
                    failed.fail(d);
                    down_devices.push(d);
                }
                (true, true) => {
                    let l = topo.links()[p % topo.link_count()].id;
                    failed.fail_link(l);
                    down_links.push(l);
                }
                (false, false) if !down_devices.is_empty() => {
                    failed.restore(down_devices.swap_remove(p % down_devices.len()));
                }
                (false, true) if !down_links.is_empty() => {
                    failed.restore_link(down_links.swap_remove(p % down_links.len()));
                }
                (false, _) => {}
            }
            incremental.apply(&topo, &failed);
            let mut fresh = ForwardingState::new(&topo);
            fresh.apply(&topo, &failed);
            for d in topo.devices() {
                prop_assert_eq!(incremental.core_paths(d.id), fresh.core_paths(d.id));
                prop_assert_eq!(incremental.next_hops(d.id), fresh.next_hops(d.id));
            }
            if check == 0 {
                for a in topo.devices() {
                    let seen = reachable_from(&topo, a.id, &failed);
                    for b in topo.devices() {
                        prop_assert_eq!(incremental.reachable(a.id, b.id), seen[b.id.index()]);
                    }
                }
            }
        }
    }

    #[test]
    fn failure_set_len_tracks_fail_restore(ops in proptest::collection::vec((0usize..50, any::<bool>()), 0..100)) {
        let mut topo = Topology::new();
        for i in 0..50u32 {
            topo.add_device(DeviceType::Rsw, 0, 'c', 0, i);
        }
        let mut fs = FailureSet::new(&topo);
        let mut model = std::collections::HashSet::new();
        for (idx, fail) in ops {
            let id = topo.devices()[idx].id;
            if fail {
                fs.fail(id);
                model.insert(idx);
            } else {
                fs.restore(id);
                model.remove(&idx);
            }
        }
        prop_assert_eq!(fs.len(), model.len());
        for i in 0..50usize {
            prop_assert_eq!(fs.is_failed(topo.devices()[i].id), model.contains(&i));
        }
    }
}
