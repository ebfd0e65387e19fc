//! Emergent severity: SEV mixes *derived* from forwarding state.
//!
//! Before this module, the pipeline **sampled** the paper's Fig. 4
//! per-type severity mixes ([`dcnr_faults::calibration::SEVERITY_MIX`])
//! — the 82/13/5 overall split of Table 3 was an *input*. Here it
//! becomes an *output*: severities are computed mechanistically from
//! the ECMP path fractions each failure destroys on the reference
//! region ([`Region::mixed_reference`]), weighted over an ensemble of
//! service operating conditions, and the resulting aggregate is
//! *checked against* the paper band instead of being baked in.
//!
//! The model of a service's exposure to a device failure:
//!
//! * [`ImpactEngine::sorted_rack_losses`] yields the per-rack capacity
//!   loss the failure causes (1.0 for a partitioned rack), sorted worst
//!   first.
//! * An [`OperatingCondition`] describes a slice of the service
//!   portfolio: its `footprint` (fraction of the region's racks it
//!   occupies — a concentrated service sees the *worst* racks, so the
//!   top-`k` mean is its capacity loss), its `utilization` headroom,
//!   and how many correlated same-tier `background` failures accompany
//!   the victim (maintenance domains, §5.4's correlated outages).
//! * [`ImpactModel::severity_for`] maps capacity loss + partition
//!   fraction to a SEV level under that utilization.
//!
//! Summed over the weighted condition ensemble and over device
//! instances, this yields one `[SEV3, SEV2, SEV1]` row per device
//! type. The 2017 incident-share-weighted aggregate of those rows must
//! land within [`EmergentSeverityModel::AGGREGATE_TOLERANCE`] of the
//! paper's 82/13/5 — that acceptance gate lives both in this module's
//! tests and in the `routes.severity_mix` artifact.
//!
//! Every condition without `background` failures sees the same failure,
//! so each sampled victim's healthy loss vector is taken once and read
//! by all of them; only background conditions assess a failure set of
//! their own. On the reference region's 100 sampled victims that is 100
//! healthy passes plus 100 background cells, not 600 assessments: 300
//! forwarding-table moves, each recomputing only the downward cone of
//! the devices it fails or restores (one device for a rack switch) and
//! none relabelling components, which no loss reader needs.

use crate::impact::{ImpactEngine, ImpactModel};
use dcnr_faults::calibration::{self, INCIDENT_RATE, POPULATION, TYPE_ORDER};
use dcnr_sev::SevLevel;
use dcnr_sim::{derive_indexed_seed, stream_rng};
use dcnr_stats::Categorical;
use dcnr_topology::{DeviceId, DeviceType, FailureSet, Region};
use rand::Rng;
use std::sync::OnceLock;

/// Fixed seed for the model's *internal* background-failure draws. The
/// emergent model is a constant of the reference architecture — it must
/// not depend on any run seed, or two scenarios would disagree on what
/// "the" severity mix is.
const EMERGENT_SEED: u64 = 0x1808_0615;

/// Cap on device instances assessed per type (the reference region's
/// tiers are symmetric; striding RSWs keeps the build cheap).
const MAX_INSTANCES: usize = 24;

/// One slice of the service portfolio: how a class of services
/// experiences a device failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingCondition {
    /// Fraction of incidents experienced under this condition.
    pub weight: f64,
    /// Service utilization (load / capacity) — headroom before loss
    /// turns into request failures.
    pub utilization: f64,
    /// Fraction of the region's racks the service occupies. Small
    /// footprints concentrate on the worst-hit racks (top-`k` mean).
    pub footprint: f64,
    /// Correlated same-tier failures accompanying the victim.
    pub background: u32,
}

/// The reference operating-condition ensemble.
///
/// Calibrated (see `print_calibration_table`) so the per-type rows land
/// near Fig. 4 and the incident-weighted 2017 aggregate lands on Table
/// 3's 82/13/5. The ensemble tells the physical story behind those
/// numbers: most services run fleet-wide with headroom (SEV3 unless the
/// loss is huge); a small tail is sharded (rack partitions are SEV1s),
/// hot (any path loss overflows), concentrated near the failure, or
/// caught in correlated maintenance-domain outages.
pub fn reference_conditions() -> [OperatingCondition; 6] {
    [
        // Fleet-wide service at nominal utilization: the bulk — single
        // failures are masked by ECMP redundancy.
        OperatingCondition {
            weight: 0.70,
            utilization: 0.70,
            footprint: 1.0,
            background: 0,
        },
        // Tiny sharded service: a partitioned rack is a lost shard.
        OperatingCondition {
            weight: 0.05,
            utilization: 0.70,
            footprint: 0.02,
            background: 0,
        },
        // Hot small service: almost no headroom, any path loss
        // overflows the survivors.
        OperatingCondition {
            weight: 0.08,
            utilization: 0.97,
            footprint: 0.04,
            background: 0,
        },
        // Hot regional service.
        OperatingCondition {
            weight: 0.05,
            utilization: 0.95,
            footprint: 0.25,
            background: 0,
        },
        // Warm service concentrated near the failure domain.
        OperatingCondition {
            weight: 0.08,
            utilization: 0.80,
            footprint: 0.10,
            background: 0,
        },
        // Hot regional service during a correlated same-tier co-failure
        // (maintenance domain / shared power).
        OperatingCondition {
            weight: 0.04,
            utilization: 0.96,
            footprint: 0.25,
            background: 1,
        },
    ]
}

/// Per-device-type severity mixes derived from forwarding state.
#[derive(Debug, Clone)]
pub struct EmergentSeverityModel {
    // Index parallel to calibration::TYPE_ORDER; [SEV3, SEV2, SEV1].
    mixes: [[f64; 3]; 7],
    dists: [Categorical; 7],
}

impl EmergentSeverityModel {
    /// Documented tolerance for the 2017 aggregate vs. the paper's
    /// 82/13/5 (absolute, per component).
    pub const AGGREGATE_TOLERANCE: f64 = 0.05;

    /// The process-wide model on the reference region. Computed once
    /// (100 healthy passes plus 100 background cells, 300 cone-scoped
    /// table moves) and cached.
    pub fn reference() -> &'static Self {
        static REFERENCE: OnceLock<EmergentSeverityModel> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            let region = Region::mixed_reference();
            Self::compute(&region, &reference_conditions())
        })
    }

    /// Derives the mixes on `region` under a condition ensemble.
    pub fn compute(region: &Region, conditions: &[OperatingCondition]) -> Self {
        let topo = &region.topology;
        let mut engine = ImpactEngine::new(ImpactModel::default(), topo);
        let mut instances: [Vec<DeviceId>; 7] = Default::default();
        for d in topo.devices() {
            if let Some(i) = calibration::type_index(d.device_type) {
                instances[i].push(d.id);
            }
        }
        let total_weight: f64 = conditions.iter().map(|c| c.weight).sum();
        let mut base = FailureSet::new(topo);
        let mut mixes = [[0.0f64; 3]; 7];
        for (ti, insts) in instances.iter().enumerate() {
            if insts.is_empty() {
                mixes[ti] = [1.0, 0.0, 0.0];
                continue;
            }
            let step = insts.len().div_ceil(MAX_INSTANCES).max(1);
            let picked: Vec<DeviceId> = insts.iter().copied().step_by(step).collect();
            // One healthy pass per victim serves every condition without
            // background failures; only background cells assess afresh.
            let mut grid: Vec<Vec<SevLevel>> = vec![Vec::new(); conditions.len()];
            for (vi, &victim) in picked.iter().enumerate() {
                base.clear();
                let (losses, partitioned) = engine.sorted_rack_losses(victim, &base);
                for (ci, cond) in conditions.iter().enumerate() {
                    grid[ci].push(if cond.background == 0 {
                        severity_of_losses(&losses, partitioned, cond)
                    } else {
                        severity_under(&mut engine, region, &mut base, victim, cond, (ti, ci, vi))
                    });
                }
            }
            // Summed condition-major, victim-minor, the order of one
            // assessment per cell, so every row keeps its bits.
            for (cond, sevs) in conditions.iter().zip(&grid) {
                for &sev in sevs {
                    mixes[ti][slot(sev)] += cond.weight / (total_weight * picked.len() as f64);
                }
            }
        }
        let dists = mixes.map(|mix| Categorical::new(&mix).expect("valid emergent mix"));
        Self { mixes, dists }
    }

    /// The derived mix `[SEV3, SEV2, SEV1]` for `t`. Types outside the
    /// intra-DC taxonomy (BBRs) use the RSW row, matching the sampled
    /// model's fallback.
    pub fn mix(&self, t: DeviceType) -> [f64; 3] {
        self.mixes[calibration::type_index(t).unwrap_or(6)]
    }

    /// The 2017 incident-share-weighted aggregate mix — the number the
    /// paper reports as 82% SEV3 / 13% SEV2 / 5% SEV1 (Table 3).
    pub fn aggregate_2017(&self) -> [f64; 3] {
        let y = calibration::YEARS - 1;
        let mut acc = [0.0f64; 3];
        let mut total = 0.0;
        for (ti, _) in TYPE_ORDER.iter().enumerate() {
            let incidents = INCIDENT_RATE[ti][y] * POPULATION[ti][y];
            total += incidents;
            for (s, slot) in acc.iter_mut().enumerate() {
                *slot += incidents * self.mixes[ti][s];
            }
        }
        acc.map(|v| v / total)
    }

    /// Samples a severity for an incident on `t` from the derived mix.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, t: DeviceType) -> SevLevel {
        let idx = calibration::type_index(t).unwrap_or(6);
        match self.dists[idx].sample_index(rng) {
            0 => SevLevel::Sev3,
            1 => SevLevel::Sev2,
            _ => SevLevel::Sev1,
        }
    }
}

/// Severity of `victim` failing under one operating condition.
///
/// `key` identifies the (type, condition, instance) cell so background
/// draws are deterministic regardless of assessment order.
fn severity_under(
    engine: &mut ImpactEngine<'_>,
    region: &Region,
    base: &mut FailureSet,
    victim: DeviceId,
    cond: &OperatingCondition,
    key: (usize, usize, usize),
) -> SevLevel {
    let topo = &region.topology;
    base.clear();
    if cond.background > 0 {
        let (ti, ci, vi) = key;
        let seed = derive_indexed_seed(
            derive_indexed_seed(EMERGENT_SEED, "emergent.cell", (ti * 64 + ci) as u64),
            "emergent.victim",
            vi as u64,
        );
        let mut rng = stream_rng(seed, "service.emergent.background");
        let me = topo.device(victim);
        // Correlated failures share a maintenance domain: prefer the
        // same tier in the same data center.
        let mut candidates: Vec<DeviceId> = topo
            .devices()
            .iter()
            .filter(|d| {
                d.device_type == me.device_type && d.datacenter == me.datacenter && d.id != victim
            })
            .map(|d| d.id)
            .collect();
        if candidates.is_empty() {
            candidates = topo
                .devices()
                .iter()
                .filter(|d| d.device_type == me.device_type && d.id != victim)
                .map(|d| d.id)
                .collect();
        }
        for _ in 0..cond.background {
            if candidates.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..candidates.len());
            base.fail(candidates.swap_remove(pick));
        }
    }
    let (losses, partitioned) = engine.sorted_rack_losses(victim, base);
    severity_of_losses(&losses, partitioned, cond)
}

/// Severity under `cond` of a failure whose per-rack losses, sorted
/// worst first, are `losses`, with `partitioned` racks cut off.
fn severity_of_losses(losses: &[f64], partitioned: usize, cond: &OperatingCondition) -> SevLevel {
    if losses.is_empty() {
        return SevLevel::Sev3;
    }
    let k = ((cond.footprint * losses.len() as f64).round() as usize).clamp(1, losses.len());
    let c_eff = losses[..k].iter().sum::<f64>() / k as f64;
    let p_eff = partitioned.min(k) as f64 / k as f64;
    let model = ImpactModel {
        utilization: cond.utilization,
        ..ImpactModel::default()
    };
    model.severity_for(c_eff, p_eff)
}

/// The `[SEV3, SEV2, SEV1]` slot of `sev`.
fn slot(sev: SevLevel) -> usize {
    match sev {
        SevLevel::Sev3 => 0,
        SevLevel::Sev2 => 1,
        SevLevel::Sev1 => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnr_faults::calibration::OVERALL_SEVERITY_2017;
    use dcnr_topology::{ClusterParams, RegionBuilder};

    #[test]
    fn rows_are_valid_distributions() {
        let m = EmergentSeverityModel::reference();
        for &t in &TYPE_ORDER {
            let mix = m.mix(t);
            let sum: f64 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{t}: {mix:?}");
            assert!(
                mix.iter().all(|&p| (0.0..=1.0).contains(&p)),
                "{t}: {mix:?}"
            );
        }
    }

    #[test]
    fn aggregate_emerges_within_paper_band() {
        // The tentpole gate: 82/13/5 is an *output* here. No Table 3
        // draw feeds this — only forwarding-state path losses.
        let agg = EmergentSeverityModel::reference().aggregate_2017();
        for (got, want) in agg.iter().zip(OVERALL_SEVERITY_2017) {
            assert!(
                (got - want).abs() < EmergentSeverityModel::AGGREGATE_TOLERANCE,
                "aggregate {agg:?} vs paper {OVERALL_SEVERITY_2017:?}"
            );
        }
    }

    #[test]
    fn partitions_make_rack_switch_sev1s() {
        // The tiny-sharded-service condition turns single-rack
        // partitions into SEV1s — the emergent explanation for RSWs
        // having a SEV1 share at all despite their tiny blast radius.
        let m = EmergentSeverityModel::reference();
        assert!(m.mix(DeviceType::Rsw)[2] > 0.0);
    }

    #[test]
    fn core_failures_skew_more_severe_than_rack_failures() {
        let m = EmergentSeverityModel::reference();
        let core = m.mix(DeviceType::Core);
        let rsw = m.mix(DeviceType::Rsw);
        assert!(
            core[1] + core[2] > rsw[1] + rsw[2],
            "core {core:?} vs rsw {rsw:?}"
        );
    }

    #[test]
    fn bbr_falls_back_to_rsw_row() {
        let m = EmergentSeverityModel::reference();
        assert_eq!(m.mix(DeviceType::Bbr), m.mix(DeviceType::Rsw));
    }

    #[test]
    fn reference_is_deterministic() {
        // Two independent computations (not the cached one) agree.
        let region = Region::mixed_reference();
        let a = EmergentSeverityModel::compute(&region, &reference_conditions());
        let b = EmergentSeverityModel::compute(&region, &reference_conditions());
        assert_eq!(a.mixes, b.mixes);
    }

    #[test]
    fn reference_mixes_are_pinned_bit_for_bit() {
        // The reference rows as the per-cell build computed them: every
        // intra replica's SEV draws follow from these exact bits.
        const PINNED: [[u64; 3]; 7] = [
            [0x3fea8f5c28f5c295, 0x3fc0a3d70a3d70a5, 0x3fa47ae147ae147b],
            [0x3fe7fffffffffffe, 0x3fb47ae147ae147b, 0x3fc5c28f5c28f5c4],
            [0x3fe8000000000005, 0x3fc5c28f5c28f5c6, 0x3fb47ae147ae147b],
            [0x3fea8f5c28f5c28f, 0x3fc0a3d70a3d70a5, 0x3fa47ae147ae147b],
            [0x3fea8f5c28f5c295, 0x3fc5c28f5c28f5c5, 0x0000000000000000],
            [0x3fea8f5c28f5c295, 0x3fb70a3d70a3d70d, 0x3fb47ae147ae147b],
            [0x3febd70a3d70a3d7, 0x3fb47ae147ae1479, 0x3fa9999999999999],
        ];
        let m = EmergentSeverityModel::reference();
        assert_eq!(m.mixes.map(|row| row.map(f64::to_bits)), PINNED);
    }

    /// The oracle for [`EmergentSeverityModel::compute`]: a fresh
    /// [`severity_under`] per (condition, victim) cell, summed
    /// condition-major, victim-minor.
    fn per_cell_mixes(region: &Region, conditions: &[OperatingCondition]) -> [[f64; 3]; 7] {
        let topo = &region.topology;
        let mut engine = ImpactEngine::new(ImpactModel::default(), topo);
        let mut instances: [Vec<DeviceId>; 7] = Default::default();
        for d in topo.devices() {
            if let Some(i) = calibration::type_index(d.device_type) {
                instances[i].push(d.id);
            }
        }
        let total_weight: f64 = conditions.iter().map(|c| c.weight).sum();
        let mut base = FailureSet::new(topo);
        let mut mixes = [[0.0f64; 3]; 7];
        for (ti, insts) in instances.iter().enumerate() {
            if insts.is_empty() {
                mixes[ti] = [1.0, 0.0, 0.0];
                continue;
            }
            let step = insts.len().div_ceil(MAX_INSTANCES).max(1);
            let picked: Vec<DeviceId> = insts.iter().copied().step_by(step).collect();
            for (ci, cond) in conditions.iter().enumerate() {
                for (vi, &victim) in picked.iter().enumerate() {
                    let sev =
                        severity_under(&mut engine, region, &mut base, victim, cond, (ti, ci, vi));
                    mixes[ti][slot(sev)] += cond.weight / (total_weight * picked.len() as f64);
                }
            }
        }
        mixes
    }

    fn assert_matches_per_cell(region: &Region, conditions: &[OperatingCondition]) {
        let got = EmergentSeverityModel::compute(region, conditions).mixes;
        let want = per_cell_mixes(region, conditions);
        assert_eq!(
            got.map(|row| row.map(f64::to_bits)),
            want.map(|row| row.map(f64::to_bits)),
            "{got:?} vs {want:?} under {conditions:?}"
        );
    }

    #[test]
    fn compute_matches_the_per_cell_oracle_bit_for_bit() {
        let region = Region::mixed_reference();
        let reference = reference_conditions();
        assert_matches_per_cell(&region, &reference);
        let mut background_first = reference;
        background_first.rotate_right(1);
        assert_eq!(background_first[0].background, 1);
        assert_matches_per_cell(&region, &background_first);
        let mut two_backgrounds = reference.to_vec();
        two_backgrounds.push(OperatingCondition {
            weight: 0.03,
            utilization: 0.90,
            footprint: 0.10,
            background: 2,
        });
        assert_matches_per_cell(&region, &two_backgrounds);
        let no_background: Vec<OperatingCondition> = reference
            .iter()
            .copied()
            .filter(|c| c.background == 0)
            .collect();
        assert_matches_per_cell(&region, &no_background);
    }

    #[test]
    fn cluster_only_region_matches_the_per_cell_oracle() {
        // No fabric tiers: the ESW/SSW/FSW rows take the empty-type
        // `[1, 0, 0]` branch.
        let region = RegionBuilder::new()
            .cluster_dc(ClusterParams {
                clusters: 2,
                racks_per_cluster: 20,
                csws_per_cluster: 4,
                csas: 2,
                cores: 2,
                rack_uplink_gbps: 10.0,
            })
            .build();
        let m = EmergentSeverityModel::compute(&region, &reference_conditions());
        assert_eq!(m.mix(DeviceType::Fsw), [1.0, 0.0, 0.0]);
        assert_matches_per_cell(&region, &reference_conditions());
    }

    #[test]
    fn sampling_follows_the_derived_mix() {
        let m = EmergentSeverityModel::reference();
        let mix = m.mix(DeviceType::Core);
        let mut rng = stream_rng(17, "test.emergent.sample");
        let n = 50_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match m.sample(&mut rng, DeviceType::Core) {
                SevLevel::Sev3 => counts[0] += 1,
                SevLevel::Sev2 => counts[1] += 1,
                SevLevel::Sev1 => counts[2] += 1,
            }
        }
        for (c, p) in counts.iter().zip(mix) {
            assert!((*c as f64 / n as f64 - p).abs() < 0.01);
        }
    }

    /// Calibration aid, not a gate: run with
    /// `cargo test -p dcnr-service print_calibration -- --ignored --nocapture`
    /// to see the per-type rows next to Fig. 4 while tuning
    /// [`reference_conditions`].
    #[test]
    #[ignore]
    fn print_calibration_table() {
        let m = EmergentSeverityModel::reference();
        println!("type   emergent [S3 S2 S1]          paper [S3 S2 S1]");
        for (ti, &t) in TYPE_ORDER.iter().enumerate() {
            let e = m.mix(t);
            let p = calibration::SEVERITY_MIX[ti];
            println!(
                "{t:<5}  [{:.3} {:.3} {:.3}]   [{:.3} {:.3} {:.3}]",
                e[0], e[1], e[2], p[0], p[1], p[2]
            );
        }
        let agg = m.aggregate_2017();
        println!(
            "2017 aggregate [{:.3} {:.3} {:.3}] vs paper {OVERALL_SEVERITY_2017:?}",
            agg[0], agg[1], agg[2]
        );
    }
}
