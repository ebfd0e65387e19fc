//! Mechanistic failure-impact assessment, derived from forwarding state.
//!
//! Reproduces the causal chain of the paper's SEV2 case study: a device
//! fails → the ECMP path set toward the Core tier shrinks → traffic
//! shifts onto the surviving paths/replicas → the remaining servers
//! absorb the displaced load → if they are pushed past capacity,
//! requests fail. Capacity loss is no longer a blast-radius heuristic:
//! it is the fraction of each rack's surviving ECMP paths, read from the
//! materialized [`ForwardingState`] tables (so a CSA or Core failure
//! registers the path capacity it actually removes, even when every
//! rack still has all of its immediate uplinks). The assessment yields
//! concrete numbers (racks affected, per-service capacity lost,
//! request-failure rate) and a severity under the Table 3 rubric:
//!
//! * **SEV1** — racks are partitioned at scale or the failure rate is
//!   site-threatening ("data center outage").
//! * **SEV2** — a measurable slice of user requests fails ("service
//!   outages that affect a particular feature").
//! * **SEV3** — redundancy contains the failure ("redundant or contained
//!   system failures").

use crate::placement::{Placement, ServiceKind};
use dcnr_sev::SevLevel;
use dcnr_topology::{
    BlastRadius, DeviceId, DeviceType, FailureSet, ForwardingState, ForwardingStats, Topology,
};
use std::collections::BTreeMap;

/// Tunable thresholds of the severity rubric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpactModel {
    /// Baseline utilization of serving capacity (fraction of headroom
    /// already in use). The SEV2 case study's web/cache fleets ran hot
    /// enough that a 5-minute traffic shift exhausted CPU.
    pub utilization: f64,
    /// Request-failure fraction beyond which an incident is a SEV1.
    pub sev1_failure_rate: f64,
    /// Fraction of racks disconnected beyond which an incident is a
    /// SEV1 regardless of failure rate (partition risk).
    pub sev1_partition_fraction: f64,
    /// Request-failure fraction beyond which an incident is a SEV2.
    pub sev2_failure_rate: f64,
}

impl Default for ImpactModel {
    fn default() -> Self {
        Self {
            utilization: 0.70,
            sev1_failure_rate: 0.10,
            sev1_partition_fraction: 0.05,
            sev2_failure_rate: 0.005,
        }
    }
}

/// The outcome of assessing one candidate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactAssessment {
    /// Topological footprint of the failure, in blast-radius terms:
    /// `racks_disconnected` are racks with no surviving core route,
    /// `racks_degraded` lost some (but not all) of their surviving ECMP
    /// paths, and `capacity_loss_fraction` is the mean per-rack path
    /// loss relative to the base failure set.
    pub blast: BlastRadius,
    /// Fraction of requests failing fleet-wide after the load shift.
    pub request_failure_rate: f64,
    /// Capacity lost per service (fraction of that service's racks'
    /// ECMP path capacity removed by the victim).
    pub service_capacity_loss: BTreeMap<ServiceKind, f64>,
    /// Severity under the rubric.
    pub severity: SevLevel,
}

impl ImpactModel {
    /// Assesses the failure of `victim` on top of `base` failures.
    ///
    /// Convenience wrapper that builds a fresh [`ImpactEngine`]; sweeps
    /// over many candidates should build one engine and reuse it so the
    /// forwarding tables are invalidated incrementally instead of
    /// rebuilt per candidate.
    pub fn assess(
        &self,
        topo: &Topology,
        placement: &Placement,
        victim: DeviceId,
        base: &FailureSet,
    ) -> ImpactAssessment {
        ImpactEngine::new(*self, topo).assess(placement, victim, base)
    }

    /// The request-failure rate implied by losing capacity fraction `c`
    /// at this model's utilization: demand `u` must fit in `1 - c`, the
    /// overflow fails.
    pub fn failure_rate_for_loss(&self, c: f64) -> f64 {
        failure_rate(self.utilization, c)
    }

    /// The severity rubric applied to a capacity loss fraction and a
    /// partitioned-rack fraction.
    pub fn severity_for(&self, capacity_loss: f64, partition_fraction: f64) -> SevLevel {
        let rate = failure_rate(self.utilization, capacity_loss);
        if rate >= self.sev1_failure_rate || partition_fraction >= self.sev1_partition_fraction {
            SevLevel::Sev1
        } else if rate >= self.sev2_failure_rate {
            SevLevel::Sev2
        } else {
            SevLevel::Sev3
        }
    }
}

/// Displaced-load overflow: with utilization `u` and capacity loss `c`,
/// demand `u` must fit into `1 - c`; the overflow fails.
fn failure_rate(utilization: f64, c: f64) -> f64 {
    if c >= 1.0 {
        1.0
    } else {
        let overflow = utilization / (1.0 - c) - 1.0;
        (overflow.max(0.0) * (1.0 - c) / utilization).min(1.0)
    }
}

/// Reusable assessment engine: owns the forwarding tables for one
/// topology and moves them incrementally between failure sets, so a
/// sweep over many candidate victims never rebuilds from scratch.
#[derive(Debug, Clone)]
pub struct ImpactEngine<'a> {
    model: ImpactModel,
    topo: &'a Topology,
    forwarding: ForwardingState,
    racks: Vec<DeviceId>,
    /// Surviving core paths per rack under the base set (aligned with
    /// `racks`), captured before the victim is applied.
    base_paths: Vec<u64>,
    scratch: FailureSet,
}

impl<'a> ImpactEngine<'a> {
    /// Builds the engine (and the healthy forwarding tables) for `topo`.
    pub fn new(model: ImpactModel, topo: &'a Topology) -> Self {
        let racks: Vec<DeviceId> = topo
            .devices()
            .iter()
            .filter(|d| d.device_type == DeviceType::Rsw)
            .map(|d| d.id)
            .collect();
        Self {
            model,
            topo,
            forwarding: ForwardingState::new(topo),
            base_paths: vec![0; racks.len()],
            racks,
            scratch: FailureSet::new(topo),
        }
    }

    /// The model this engine assesses under.
    pub fn model(&self) -> &ImpactModel {
        &self.model
    }

    /// Forwarding-table work counters (builds, invalidations).
    pub fn forwarding_stats(&self) -> ForwardingStats {
        self.forwarding.stats()
    }

    /// The per-rack ECMP loss of failing `victim` on top of `base`:
    /// 1.0 for a rack with no surviving core route, otherwise the
    /// fraction of its base-surviving paths removed. Returned in
    /// `self.racks` order via the callback to avoid allocation. An
    /// empty `base` reads the healthy path counts the tables were built
    /// with, so the tables move once, straight to the victim.
    fn for_each_rack_loss(
        &mut self,
        victim: DeviceId,
        base: &FailureSet,
        mut f: impl FnMut(DeviceId, f64),
    ) {
        self.scratch.clone_from(base);
        let healthy = base.is_empty();
        if !healthy {
            self.forwarding.apply(self.topo, &self.scratch);
        }
        for (i, &rack) in self.racks.iter().enumerate() {
            self.base_paths[i] = if healthy {
                self.forwarding.healthy_core_paths(rack)
            } else {
                self.forwarding.core_paths(rack)
            };
        }
        self.scratch.fail(victim);
        self.forwarding.apply(self.topo, &self.scratch);
        for (i, &rack) in self.racks.iter().enumerate() {
            let after = self.forwarding.core_paths(rack);
            let loss = if after == 0 {
                1.0
            } else {
                let before = self.base_paths[i].max(1);
                (1.0 - after as f64 / before as f64).max(0.0)
            };
            f(rack, loss);
        }
    }

    /// Assesses the failure of `victim` on top of `base` failures.
    pub fn assess(
        &mut self,
        placement: &Placement,
        victim: DeviceId,
        base: &FailureSet,
    ) -> ImpactAssessment {
        let mut disconnected = 0usize;
        let mut degraded = 0usize;
        let mut capacity_lost = 0.0;
        let mut lost: BTreeMap<ServiceKind, f64> = BTreeMap::new();
        self.for_each_rack_loss(victim, base, |rack, loss| {
            if loss >= 1.0 {
                disconnected += 1;
            } else if loss > 0.0 {
                degraded += 1;
            }
            capacity_lost += loss;
            if let Some(service) = placement.service_of(rack) {
                *lost.entry(service).or_insert(0.0) += loss;
            }
        });
        let total = self.racks.len();
        let mut racks_per_service: BTreeMap<ServiceKind, f64> = BTreeMap::new();
        for (_, service) in placement.iter() {
            *racks_per_service.entry(service).or_insert(0.0) += 1.0;
        }
        let service_capacity_loss: BTreeMap<ServiceKind, f64> = racks_per_service
            .iter()
            .map(|(&s, &n)| {
                (
                    s,
                    if n > 0.0 {
                        lost.get(&s).copied().unwrap_or(0.0) / n
                    } else {
                        0.0
                    },
                )
            })
            .collect();

        let c = if total > 0 {
            capacity_lost / total as f64
        } else {
            0.0
        };
        let request_failure_rate = failure_rate(self.model.utilization, c);
        let partition_fraction = disconnected as f64 / total.max(1) as f64;
        let severity = self.model.severity_for(c, partition_fraction);

        ImpactAssessment {
            blast: BlastRadius {
                racks_disconnected: disconnected,
                racks_degraded: degraded,
                racks_total: total,
                capacity_loss_fraction: c,
            },
            request_failure_rate,
            service_capacity_loss,
            severity,
        }
    }

    /// The sorted-descending per-rack loss vector for failing `victim`
    /// on top of `base`, plus the number of partitioned racks. This is
    /// the raw material of the emergent severity derivation: the top-k
    /// mean is the worst-case capacity loss of a service occupying k
    /// racks.
    pub fn sorted_rack_losses(&mut self, victim: DeviceId, base: &FailureSet) -> (Vec<f64>, usize) {
        let mut losses = Vec::with_capacity(self.racks.len());
        let mut partitioned = 0usize;
        self.for_each_rack_loss(victim, base, |_, loss| {
            if loss >= 1.0 {
                partitioned += 1;
            }
            losses.push(loss);
        });
        losses.sort_by(|a, b| b.partial_cmp(a).expect("losses are finite"));
        (losses, partitioned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_topology::{ClusterNetworkBuilder, ClusterParams, FabricNetworkBuilder, FabricParams};

    fn cluster() -> (Topology, dcnr_topology::cluster::ClusterDc) {
        let mut t = Topology::new();
        let dc = ClusterNetworkBuilder::new(ClusterParams {
            clusters: 2,
            racks_per_cluster: 20,
            csws_per_cluster: 4,
            csas: 2,
            cores: 2,
            rack_uplink_gbps: 10.0,
        })
        .build(&mut t, 0);
        (t, dc)
    }

    #[test]
    fn single_rack_failure_is_contained() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let model = ImpactModel::default();
        let a = model.assess(&t, &p, dc.rsws[0][0], &FailureSet::new(&t));
        // 1 of 40 racks = 2.5% < the 5% partition threshold; the load
        // shift is absorbed.
        assert_eq!(a.severity, SevLevel::Sev3);
        assert_eq!(a.blast.racks_disconnected, 1);
        assert!(a.request_failure_rate < 0.05);
    }

    #[test]
    fn total_core_loss_is_sev1() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let model = ImpactModel::default();
        let mut base = FailureSet::new(&t);
        base.fail(dc.cores[0]);
        let a = model.assess(&t, &p, dc.cores[1], &base);
        assert_eq!(a.severity, SevLevel::Sev1);
        assert!((a.request_failure_rate - 1.0).abs() < 1e-9);
        assert_eq!(a.blast.racks_disconnected, 40);
        for loss in a.service_capacity_loss.values() {
            assert!((loss - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn csw_failure_degrades_without_failing_requests() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let model = ImpactModel::default();
        let a = model.assess(&t, &p, dc.csws[0][0], &FailureSet::new(&t));
        // 20 racks lose 1/4 of their ECMP paths: capacity loss 12.5%
        // fleet-wide, which 70% utilization absorbs.
        assert_eq!(a.severity, SevLevel::Sev3);
        assert_eq!(a.blast.racks_degraded, 20);
        assert_eq!(a.request_failure_rate, 0.0);
    }

    #[test]
    fn csa_failure_now_registers_path_capacity_loss() {
        // The ECMP derivation catches what uplink counting missed: a CSA
        // failure leaves every rack's immediate uplinks "live" but
        // removes a quarter of the cluster's core path set.
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let a = ImpactModel::default().assess(&t, &p, dc.csas[0], &FailureSet::new(&t));
        assert_eq!(a.blast.racks_disconnected, 0);
        assert_eq!(a.blast.racks_degraded, 40, "both clusters route through it");
        assert!(
            (a.blast.capacity_loss_fraction - 0.5).abs() < 1e-9,
            "1 of 2 CSAs = half the path set, got {}",
            a.blast.capacity_loss_fraction
        );
    }

    #[test]
    fn hot_fleet_turns_degradation_into_sev2() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        // Utilization so high that losing one CSW's capacity overflows.
        let model = ImpactModel {
            utilization: 0.95,
            ..Default::default()
        };
        let mut base = FailureSet::new(&t);
        base.fail(dc.csws[0][0]);
        base.fail(dc.csws[0][1]);
        let a = model.assess(&t, &p, dc.csws[0][2], &base);
        assert!(
            a.request_failure_rate > 0.005,
            "rate {}",
            a.request_failure_rate
        );
        assert!(a.severity == SevLevel::Sev2 || a.severity == SevLevel::Sev1);
    }

    #[test]
    fn fabric_fsw_failure_is_sev3() {
        let mut t = Topology::new();
        let dc = FabricNetworkBuilder::new(FabricParams {
            pods: 2,
            racks_per_pod: 10,
            ..Default::default()
        })
        .build(&mut t, 0);
        let p = Placement::default_mix(&t);
        let a = ImpactModel::default().assess(&t, &p, dc.fsws[0][0], &FailureSet::new(&t));
        assert_eq!(a.severity, SevLevel::Sev3);
        assert_eq!(a.blast.racks_disconnected, 0);
    }

    #[test]
    fn service_loss_only_for_affected_services() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let a = ImpactModel::default().assess(&t, &p, dc.rsws[0][0], &FailureSet::new(&t));
        let victim_service = p.service_of(dc.rsws[0][0]).unwrap();
        let loss = a.service_capacity_loss[&victim_service];
        assert!(loss > 0.0);
        let total_loss: f64 = a.service_capacity_loss.values().sum();
        assert!(
            (total_loss - loss).abs() < 1e-9,
            "only the victim's service loses capacity"
        );
    }

    #[test]
    fn engine_reuse_matches_fresh_assessment() {
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let model = ImpactModel::default();
        let mut engine = ImpactEngine::new(model, &t);
        let mut base = FailureSet::new(&t);
        let victims = [dc.rsws[0][0], dc.csws[0][0], dc.csas[1], dc.cores[0]];
        for &v in &victims {
            assert_eq!(engine.assess(&p, v, &base), model.assess(&t, &p, v, &base));
        }
        // Under a non-empty base too.
        base.fail(dc.csws[0][0]);
        for &v in &victims {
            assert_eq!(engine.assess(&p, v, &base), model.assess(&t, &p, v, &base));
        }
        let stats = engine.forwarding_stats();
        assert_eq!(stats.builds, 1, "engine never rebuilds from scratch");
        assert!(stats.invalidations >= victims.len() as u64);
    }

    #[test]
    fn healthy_losses_after_a_based_assessment_match_a_fresh_engine() {
        // An empty base reads the build-time healthy path counts instead
        // of moving the tables back to the empty set; whatever set the
        // tables were left under, the answer is a fresh engine's.
        let (t, dc) = cluster();
        let p = Placement::default_mix(&t);
        let model = ImpactModel::default();
        let mut engine = ImpactEngine::new(model, &t);
        let healthy = FailureSet::new(&t);
        let mut base = FailureSet::new(&t);
        base.fail(dc.csws[0][0]);
        base.fail(dc.cores[0]);
        for d in t.devices() {
            engine.assess(&p, d.id, &base);
            let fresh = ImpactEngine::new(model, &t).sorted_rack_losses(d.id, &healthy);
            assert_eq!(engine.sorted_rack_losses(d.id, &healthy), fresh, "{d:?}");
        }
        assert_eq!(engine.forwarding_stats().builds, 1);
    }

    #[test]
    fn sorted_rack_losses_are_descending_and_count_partitions() {
        let (t, dc) = cluster();
        let model = ImpactModel::default();
        let mut engine = ImpactEngine::new(model, &t);
        let (losses, partitioned) = engine.sorted_rack_losses(dc.rsws[0][0], &FailureSet::new(&t));
        assert_eq!(losses.len(), 40);
        assert_eq!(partitioned, 1);
        assert!((losses[0] - 1.0).abs() < 1e-12);
        assert!(losses.windows(2).all(|w| w[0] >= w[1]));
    }
}
