//! Per-device forwarding state: reachability plus valley-free ECMP path
//! sets to the Core tier, with incremental invalidation under
//! [`FailureSet`] changes.
//!
//! [`crate::routing`] answers one-off queries by running a fresh BFS per
//! call. This module materializes the answers once per failure set:
//!
//! * **Reachability** — connected-component labels over the live
//!   devices. `reachable(a, b)` is *exactly* equivalent to the BFS
//!   oracle [`crate::routing::reachable_from`] (a proptest enforces the
//!   equivalence for arbitrary topologies and failure sets).
//! * **Next-hop tables** — per device, the live upward neighbors that
//!   still have a path to a live Core. These are the valid valley-free
//!   up-segments: a packet climbing out of a rack never descends and
//!   climbs again, so a next hop is only usable if the climb can finish.
//! * **ECMP path sets** — the number of distinct strictly-upward paths
//!   from each device to the Core tier, healthy and under the current
//!   failure set. The surviving fraction `live/healthy` is the
//!   capacity-loss primitive the service-impact layer derives request
//!   failures from, replacing the old blast-radius heuristics.
//!
//! Invalidation only does work a change can reach. A device's path
//! count depends only on its own state, its up-links and its higher-rank
//! neighbors' counts, so [`ForwardingState::apply`] recomputes the
//! devices whose state changed and both endpoints of every changed link,
//! then, in decreasing tier rank, each lower-rank neighbor of a device
//! whose count changed: the failure's downward cone, and no further (one
//! device for a rack switch, the switch plus its racks for a cluster
//! switch). The link diff is skipped while neither the applied nor the
//! new set has a failed link. Component labels are not touched by
//! `apply` at all: the first reachability query after it relabels, so
//! callers that only read path counts (the impact engine) never pay for
//! them. Both passes read one compact copy of the adjacency, built with
//! the state, and reuse their scratch: no allocation after warm-up.

use crate::device::{DeviceId, DeviceType};
use crate::graph::{LinkId, Topology};
use crate::routing::FailureSet;
use std::collections::VecDeque;

/// Component label meaning "failed device; member of no component".
const NO_COMPONENT: u32 = u32::MAX;

/// The tier rank of the Core tier, the terminal of every up-path (no
/// other device type shares it).
const CORE_RANK: u8 = DeviceType::Core.tier_rank();

/// Counters describing how much work a [`ForwardingState`] has done —
/// the numbers the telemetry layer exports as
/// `dcnr_routes_table_builds_total` / `dcnr_routes_invalidations_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForwardingStats {
    /// Full table builds (construction and whole-topology rebuilds).
    pub builds: u64,
    /// Incremental invalidations applied (failure-set diffs that
    /// actually changed something).
    pub invalidations: u64,
    /// Devices whose path counts were recomputed by invalidations.
    pub devices_recomputed: u64,
}

/// One entry of the compact adjacency: a neighbor and the link to it.
#[derive(Debug, Clone, Copy)]
struct Edge {
    nbr: u32,
    link: u32,
}

/// Materialized forwarding tables for one topology under one failure
/// set. Create with [`ForwardingState::new`], then move between failure
/// sets with [`ForwardingState::apply`].
#[derive(Debug, Clone)]
pub struct ForwardingState {
    /// The failure bitmap the tables currently reflect.
    failed: Vec<bool>,
    /// The link-failure bitmap the tables currently reflect.
    link_failed: Vec<bool>,
    /// Number of failed links in `link_failed`.
    failed_links: usize,
    /// Connected-component label per device ([`NO_COMPONENT`] = failed);
    /// valid only while `labels_stale` is false.
    component: Vec<u32>,
    /// Set by every table move; the next reachability query relabels.
    labels_stale: bool,
    /// Strictly-upward path counts to the Core tier with nothing failed.
    healthy_paths: Vec<u64>,
    /// Strictly-upward path counts under the current failure set.
    live_paths: Vec<u64>,
    /// Tier rank per device.
    rank: Vec<u8>,
    /// Compact adjacency: device `i`'s entries are
    /// `edges[start[i]..start[i + 1]]`, its higher-rank neighbors first
    /// (up to `up_end[i]`), each run in topology neighbor order.
    edges: Vec<Edge>,
    start: Vec<u32>,
    up_end: Vec<u32>,
    /// Per-device live upward next hops (higher-rank neighbors with a
    /// surviving path to a live Core), in topology neighbor order.
    /// Inner vectors keep their capacity across applies.
    next_hops: Vec<Vec<DeviceId>>,
    /// Devices awaiting a recompute, one stack per tier rank.
    pending: Vec<Vec<u32>>,
    /// Whether a device is in `pending`.
    queued: Vec<bool>,
    /// BFS scratch, reused across relabels.
    queue: VecDeque<u32>,
    stats: ForwardingStats,
}

impl ForwardingState {
    /// Builds the healthy forwarding state for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.device_count();
        let rank: Vec<u8> = topo
            .devices()
            .iter()
            .map(|d| d.device_type.tier_rank())
            .collect();
        let mut edges = Vec::with_capacity(2 * topo.link_count());
        let mut start = Vec::with_capacity(n + 1);
        let mut up_end = Vec::with_capacity(n);
        let edge = |&(nbr, l): &(DeviceId, LinkId)| Edge {
            nbr: nbr.0,
            link: l.0,
        };
        for d in topo.devices() {
            let mine = rank[d.id.index()];
            let neighbors = topo.neighbors(d.id);
            start.push(edges.len() as u32);
            edges.extend(
                neighbors
                    .iter()
                    .filter(|(nbr, _)| rank[nbr.index()] > mine)
                    .map(edge),
            );
            up_end.push(edges.len() as u32);
            edges.extend(
                neighbors
                    .iter()
                    .filter(|(nbr, _)| rank[nbr.index()] <= mine)
                    .map(edge),
            );
        }
        start.push(edges.len() as u32);
        let ranks = rank.iter().max().map_or(0, |&r| usize::from(r) + 1);
        let mut state = Self {
            failed: vec![false; n],
            link_failed: vec![false; topo.link_count()],
            failed_links: 0,
            component: vec![NO_COMPONENT; n],
            labels_stale: true,
            healthy_paths: vec![0; n],
            live_paths: vec![0; n],
            next_hops: vec![Vec::new(); n],
            rank,
            edges,
            start,
            up_end,
            pending: vec![Vec::new(); ranks],
            queued: vec![false; n],
            queue: VecDeque::new(),
            stats: ForwardingStats::default(),
        };
        for i in 0..n as u32 {
            state.enqueue(i);
        }
        state.sweep();
        state.healthy_paths.clone_from(&state.live_paths);
        state.stats.builds += 1;
        state
    }

    /// Moves the tables to `failed`, recomputing only the downward cone
    /// of the devices and links that changed. Returns `true` if the
    /// failure set differed from the one already applied (an
    /// invalidation), `false` for a no-op.
    pub fn apply(&mut self, topo: &Topology, failed: &FailureSet) -> bool {
        let mut changed = false;
        for i in 0..self.failed.len() {
            let now = failed.is_failed(DeviceId(i as u32));
            if now != self.failed[i] {
                self.failed[i] = now;
                self.enqueue(i as u32);
                changed = true;
            }
        }
        if self.failed_links > 0 || failed.failed_link_count() > 0 {
            for link in topo.links() {
                let now = failed.is_link_failed(link.id);
                if now != self.link_failed[link.id.index()] {
                    self.link_failed[link.id.index()] = now;
                    self.enqueue(link.a.0);
                    self.enqueue(link.b.0);
                    changed = true;
                }
            }
            self.failed_links = failed.failed_link_count();
        }
        if !changed {
            return false;
        }
        self.labels_stale = true;
        self.stats.devices_recomputed += self.sweep();
        self.stats.invalidations += 1;
        true
    }

    /// Work counters (builds, invalidations, devices recomputed).
    pub fn stats(&self) -> ForwardingStats {
        self.stats
    }

    /// Whether `d` is live under the applied failure set.
    pub fn is_live(&self, d: DeviceId) -> bool {
        !self.failed[d.index()]
    }

    /// Whether `a` can reach `b` through live devices — exactly the BFS
    /// oracle's answer: `false` whenever either endpoint is failed,
    /// `true` for a live device and itself. The first query after a
    /// table move relabels the components.
    pub fn reachable(&mut self, a: DeviceId, b: DeviceId) -> bool {
        if self.labels_stale {
            self.relabel();
        }
        let ca = self.component[a.index()];
        ca != NO_COMPONENT && ca == self.component[b.index()]
    }

    /// Strictly-upward path count from `d` to the Core tier with the
    /// topology healthy.
    pub fn healthy_core_paths(&self, d: DeviceId) -> u64 {
        self.healthy_paths[d.index()]
    }

    /// Strictly-upward path count from `d` to live Cores under the
    /// applied failure set (0 if `d` itself is failed).
    pub fn core_paths(&self, d: DeviceId) -> u64 {
        self.live_paths[d.index()]
    }

    /// Fraction of `d`'s healthy ECMP paths to the Core tier that
    /// survive the applied failure set (0.0 when it had none to begin
    /// with, or is itself failed).
    pub fn core_path_fraction(&self, d: DeviceId) -> f64 {
        let healthy = self.healthy_paths[d.index()];
        if healthy == 0 {
            0.0
        } else {
            self.live_paths[d.index()] as f64 / healthy as f64
        }
    }

    /// Whether `d` still has at least one valley-free path to a live
    /// Core.
    pub fn has_core_route(&self, d: DeviceId) -> bool {
        self.live_paths[d.index()] > 0
    }

    /// The live upward next hops of `d` (empty for Cores — the terminal
    /// tier — and for failed or fully cut-off devices).
    pub fn next_hops(&self, d: DeviceId) -> &[DeviceId] {
        &self.next_hops[d.index()]
    }

    /// The ECMP split over `d`'s next hops: each hop weighted by its
    /// share of the surviving paths. The fractions sum to exactly 1.0
    /// for every non-Core device that still has a core route (a unit
    /// test and proptest pin this invariant).
    pub fn ecmp_fractions(&self, d: DeviceId) -> Vec<(DeviceId, f64)> {
        let total = self.live_paths[d.index()];
        if total == 0 {
            return Vec::new();
        }
        self.next_hops[d.index()]
            .iter()
            .map(|&h| (h, self.live_paths[h.index()] as f64 / total as f64))
            .collect()
    }

    /// Queues device `i` for the next [`Self::sweep`].
    fn enqueue(&mut self, i: u32) {
        let idx = i as usize;
        if !self.queued[idx] {
            self.queued[idx] = true;
            self.pending[usize::from(self.rank[idx])].push(i);
        }
    }

    /// Recomputes the queued devices in decreasing tier rank, queueing
    /// each lower-rank neighbor of a device whose path count changed, so
    /// every sum reads final upstream counts. Returns how many devices
    /// it recomputed.
    fn sweep(&mut self) -> u64 {
        let mut recomputed = 0;
        for r in (0..self.pending.len()).rev() {
            while let Some(i) = self.pending[r].pop() {
                let i = i as usize;
                self.queued[i] = false;
                recomputed += 1;
                if self.recompute(i) {
                    for e in self.up_end[i]..self.start[i + 1] {
                        let j = self.edges[e as usize].nbr;
                        if usize::from(self.rank[j as usize]) < r {
                            self.enqueue(j);
                        }
                    }
                }
            }
        }
        recomputed
    }

    /// Recomputes device `i`'s path count and next hops from its
    /// higher-rank neighbors; returns whether the count changed.
    fn recompute(&mut self, i: usize) -> bool {
        let hops = &mut self.next_hops[i];
        hops.clear();
        let total = if self.failed[i] {
            0
        } else if self.rank[i] == CORE_RANK {
            1
        } else {
            let mut total: u64 = 0;
            for &Edge { nbr, link } in &self.edges[self.start[i] as usize..self.up_end[i] as usize]
            {
                let j = nbr as usize;
                if self.failed[j] || self.link_failed[link as usize] {
                    continue;
                }
                let up = self.live_paths[j];
                if up > 0 {
                    total = total.saturating_add(up);
                    hops.push(DeviceId(nbr));
                }
            }
            total
        };
        std::mem::replace(&mut self.live_paths[i], total) != total
    }

    /// Relabels connected components over the live devices (full pass,
    /// allocation-free after warm-up).
    fn relabel(&mut self) {
        self.component.fill(NO_COMPONENT);
        self.queue.clear();
        let mut next_label: u32 = 0;
        for start in 0..self.failed.len() {
            if self.failed[start] || self.component[start] != NO_COMPONENT {
                continue;
            }
            let label = next_label;
            next_label += 1;
            self.component[start] = label;
            self.queue.push_back(start as u32);
            while let Some(u) = self.queue.pop_front() {
                let u = u as usize;
                for &Edge { nbr, link } in
                    &self.edges[self.start[u] as usize..self.start[u + 1] as usize]
                {
                    let v = nbr as usize;
                    if !self.failed[v]
                        && !self.link_failed[link as usize]
                        && self.component[v] == NO_COMPONENT
                    {
                        self.component[v] = label;
                        self.queue.push_back(nbr);
                    }
                }
            }
        }
        self.labels_stale = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterNetworkBuilder, ClusterParams};
    use crate::fabric::{FabricNetworkBuilder, FabricParams};
    use crate::routing;

    fn cluster_topo() -> (Topology, crate::cluster::ClusterDc) {
        let mut t = Topology::new();
        let dc = ClusterNetworkBuilder::new(ClusterParams {
            clusters: 2,
            racks_per_cluster: 4,
            csws_per_cluster: 4,
            csas: 2,
            cores: 2,
            rack_uplink_gbps: 10.0,
        })
        .build(&mut t, 1);
        (t, dc)
    }

    fn fabric_topo() -> (Topology, crate::fabric::FabricDc) {
        let mut t = Topology::new();
        let dc = FabricNetworkBuilder::new(FabricParams {
            pods: 2,
            racks_per_pod: 4,
            fsws_per_pod: 4,
            ssws_per_plane: 2,
            esws_per_plane: 2,
            cores: 2,
            rack_uplink_gbps: 10.0,
        })
        .build(&mut t, 1);
        (t, dc)
    }

    #[test]
    fn healthy_cluster_path_counts_are_products_of_tier_widths() {
        let (t, dc) = cluster_topo();
        let fs = ForwardingState::new(&t);
        // RSW: 4 CSWs x 2 CSAs x 2 Cores.
        assert_eq!(fs.healthy_core_paths(dc.rsws[0][0]), 16);
        assert_eq!(fs.core_paths(dc.rsws[0][0]), 16);
        assert_eq!(fs.healthy_core_paths(dc.csws[0][0]), 4);
        assert_eq!(fs.healthy_core_paths(dc.csas[0]), 2);
        assert_eq!(fs.healthy_core_paths(dc.cores[0]), 1);
        assert!((fs.core_path_fraction(dc.rsws[0][0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csw_failure_reduces_the_surviving_fraction_to_three_quarters() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        failed.fail(dc.csws[0][0]);
        assert!(fs.apply(&t, &failed));
        for &rsw in &dc.rsws[0] {
            assert!((fs.core_path_fraction(rsw) - 0.75).abs() < 1e-12);
            assert_eq!(fs.next_hops(rsw).len(), 3);
        }
        // The other cluster is untouched.
        for &rsw in &dc.rsws[1] {
            assert!((fs.core_path_fraction(rsw) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ecmp_fractions_sum_to_one_per_routed_device() {
        let (t, dc) = fabric_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        failed.fail(dc.fsws[0][0]);
        failed.fail(dc.ssws[1][0]);
        fs.apply(&t, &failed);
        for d in t.devices() {
            if !fs.is_live(d.id) || !fs.has_core_route(d.id) {
                assert!(fs.ecmp_fractions(d.id).is_empty());
                continue;
            }
            if d.device_type == DeviceType::Core {
                continue; // terminal tier: no next hops by definition
            }
            let sum: f64 = fs.ecmp_fractions(d.id).iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", d.name);
        }
    }

    #[test]
    fn reachability_matches_the_bfs_oracle_under_failures() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        failed.fail(dc.cores[0]);
        failed.fail(dc.csws[0][1]);
        failed.fail(dc.rsws[1][2]);
        fs.apply(&t, &failed);
        for a in t.devices() {
            let seen = routing::reachable_from(&t, a.id, &failed);
            for b in t.devices() {
                assert_eq!(
                    fs.reachable(a.id, b.id),
                    seen[b.id.index()],
                    "{} -> {}",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn incremental_apply_matches_a_fresh_build() {
        let (t, dc) = fabric_topo();
        let mut incremental = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        for step in [dc.fsws[0][1], dc.cores[0], dc.esws[2][0], dc.rsws[1][3]] {
            failed.fail(step);
            incremental.apply(&t, &failed);
            let mut fresh = ForwardingState::new(&t);
            fresh.apply(&t, &failed);
            for d in t.devices() {
                assert_eq!(incremental.core_paths(d.id), fresh.core_paths(d.id));
                assert_eq!(incremental.next_hops(d.id), fresh.next_hops(d.id));
            }
        }
        // Restores invalidate too.
        failed.restore(dc.cores[0]);
        assert!(incremental.apply(&t, &failed));
        let mut fresh = ForwardingState::new(&t);
        fresh.apply(&t, &failed);
        for d in t.devices() {
            assert_eq!(incremental.core_paths(d.id), fresh.core_paths(d.id));
        }
    }

    #[test]
    fn apply_is_a_noop_for_an_unchanged_failure_set() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        failed.fail(dc.csws[0][0]);
        assert!(fs.apply(&t, &failed));
        let stats = fs.stats();
        assert!(!fs.apply(&t, &failed), "same set must be a no-op");
        assert_eq!(fs.stats(), stats);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.invalidations, 1);
        assert!(stats.devices_recomputed > 0);
    }

    #[test]
    fn link_failures_invalidate_like_device_failures() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        // Cut one RSW-CSW uplink: the rack keeps 3 of its 16 paths' worth
        // through the other CSWs (12/16), and the oracle agrees.
        let rsw = dc.rsws[0][0];
        let (_, uplink) = t.neighbors(rsw)[0];
        failed.fail_link(uplink);
        assert!(fs.apply(&t, &failed));
        assert!((fs.core_path_fraction(rsw) - 0.75).abs() < 1e-12);
        assert_eq!(fs.next_hops(rsw).len(), 3);
        let mut fresh = ForwardingState::new(&t);
        fresh.apply(&t, &failed);
        for d in t.devices() {
            assert_eq!(fs.core_paths(d.id), fresh.core_paths(d.id));
            assert_eq!(fs.next_hops(d.id), fresh.next_hops(d.id));
            let seen = routing::reachable_from(&t, d.id, &failed);
            for b in t.devices() {
                assert_eq!(fs.reachable(d.id, b.id), seen[b.id.index()]);
            }
        }
        // Cutting every uplink isolates the rack without failing it.
        for &(_, l) in t.neighbors(rsw) {
            failed.fail_link(l);
        }
        assert!(fs.apply(&t, &failed));
        assert!(!fs.has_core_route(rsw));
        assert!(fs.is_live(rsw), "the device itself is healthy");
        assert!(!fs.reachable(rsw, dc.cores[0]));
        // Restores invalidate too.
        failed.restore_link(uplink);
        assert!(fs.apply(&t, &failed));
        assert!(fs.has_core_route(rsw));
    }

    /// Applies `failed` and returns how many devices it recomputed.
    fn recomputed_by(fs: &mut ForwardingState, t: &Topology, failed: &FailureSet) -> u64 {
        let before = fs.stats().devices_recomputed;
        assert!(fs.apply(t, failed));
        fs.stats().devices_recomputed - before
    }

    #[test]
    fn a_failure_recomputes_only_its_downward_cone() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        // A rack switch has nothing below it: only its own count moves.
        let rsw = dc.rsws[0][0];
        failed.fail(rsw);
        assert_eq!(recomputed_by(&mut fs, &t, &failed), 1);
        failed.restore(rsw);
        assert_eq!(recomputed_by(&mut fs, &t, &failed), 1);
        assert_eq!(fs.core_paths(rsw), 16);
        // A cluster switch takes its cluster's racks with it, and no
        // other cluster's.
        let csw = dc.csws[1][2];
        let cone = 1 + dc.rsws[1].len() as u64;
        failed.fail(csw);
        assert_eq!(recomputed_by(&mut fs, &t, &failed), cone);
        assert_eq!(fs.core_paths(dc.rsws[1][0]), 12);
        failed.restore(csw);
        assert_eq!(recomputed_by(&mut fs, &t, &failed), cone);
        assert_eq!(fs.core_paths(dc.rsws[1][0]), 16);
    }

    #[test]
    fn labels_are_relabelled_by_the_first_query_after_an_apply() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        assert!(
            fs.labels_stale,
            "a build leaves labelling to the first query"
        );
        let rsw = dc.rsws[0][0];
        assert!(fs.reachable(rsw, dc.cores[0]));
        assert!(!fs.labels_stale);
        let mut failed = FailureSet::new(&t);
        failed.fail(rsw);
        assert!(fs.apply(&t, &failed));
        // No query followed the apply, so no relabel ran: the failed
        // rack still carries its healthy label.
        assert!(fs.labels_stale);
        assert_ne!(fs.component[rsw.index()], NO_COMPONENT);
        assert!(!fs.reachable(rsw, rsw));
        assert!(!fs.labels_stale);
        assert_eq!(fs.component[rsw.index()], NO_COMPONENT);
        // A no-op apply keeps the fresh labels.
        assert!(!fs.apply(&t, &failed));
        assert!(!fs.labels_stale);
    }

    #[test]
    fn total_core_loss_cuts_every_route() {
        let (t, dc) = cluster_topo();
        let mut fs = ForwardingState::new(&t);
        let mut failed = FailureSet::new(&t);
        for &core in &dc.cores {
            failed.fail(core);
        }
        fs.apply(&t, &failed);
        for cluster in &dc.rsws {
            for &rsw in cluster {
                assert!(!fs.has_core_route(rsw));
                assert_eq!(fs.core_path_fraction(rsw), 0.0);
                assert!(fs.next_hops(rsw).is_empty());
            }
        }
    }
}
