//! Per-device-type repair policy.
//!
//! Encodes Table 1's per-type behaviour: which types automation covers,
//! how likely automation fixes an issue, the priority assigned to the
//! repair, and the wait/execution time distributions whose means Table 1
//! reports (Core: priority 0, 4 min wait, 30.1 s repair; FSW: 2.25,
//! 3 d, 4.45 s; RSW: 2.22, 1 d, 2.91 s).

use dcnr_faults::calibration;
use dcnr_stats::{Categorical, Exponential, Sampler};
use dcnr_topology::DeviceType;
use rand::Rng;

/// Repair policy parameters for one covered device type.
#[derive(Debug, Clone)]
pub struct RepairPolicy {
    device_type: DeviceType,
    repair_ratio: f64,
    priorities: Categorical,
    /// `E[priority + 1]` over `priorities`: the wait factor's divisor.
    wait_norm: f64,
    wait: Exponential,
    exec: Exponential,
}

impl RepairPolicy {
    /// Builds the paper's policy for `t`, or `None` if automation does
    /// not cover the type (§4.1.2: only RSWs, FSWs, and some Cores).
    pub fn for_type(t: DeviceType) -> Option<Self> {
        let repair_ratio = calibration::repair_ratio(t)?;
        let weights = calibration::priority_weights(t)?;
        let wait_secs = calibration::repair_wait_secs(t)? as f64;
        let exec_secs = calibration::repair_exec_secs(t)?;
        let priorities = Categorical::new(&weights).expect("valid weights");
        let wait_norm = (0..4)
            .map(|i| (i as f64 + 1.0) * priorities.probability(i))
            .sum();
        Some(Self {
            device_type: t,
            repair_ratio,
            priorities,
            wait_norm,
            wait: Exponential::new(wait_secs),
            exec: Exponential::new(exec_secs),
        })
    }

    /// The covered type.
    pub fn device_type(&self) -> DeviceType {
        self.device_type
    }

    /// Table 1's repair ratio: the probability automation fixes an issue
    /// without human intervention.
    pub fn repair_ratio(&self) -> f64 {
        self.repair_ratio
    }

    /// Samples a repair priority (0 = highest .. 3 = lowest).
    pub fn sample_priority<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        self.priorities.sample_index(rng) as u8
    }

    /// Samples the scheduling wait, in seconds. Priority `p` waits
    /// proportionally to `p + 1`, normalized so the factor's expectation
    /// over the type's priority mix is 1: lower priorities wait longer
    /// (as the paper describes) while the *average* wait across repairs
    /// matches Table 1.
    pub fn sample_wait_secs<R: Rng + ?Sized>(&self, rng: &mut R, priority: u8) -> f64 {
        let factor = (priority as f64 + 1.0) / self.wait_norm;
        self.wait.sample(rng) * factor
    }

    /// Samples the repair execution time, in seconds.
    pub fn sample_exec_secs<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.exec.sample(rng)
    }

    /// Mean scheduling wait, in seconds (Table 1's "Wait" column).
    pub fn mean_wait_secs(&self) -> f64 {
        self.wait.mean()
    }

    /// Mean execution time, in seconds (Table 1's "Repair Time" column).
    pub fn mean_exec_secs(&self) -> f64 {
        self.exec.mean()
    }

    /// Rolls whether automation fixes the issue.
    pub fn roll_repair<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.repair_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coverage_matches_table1() {
        assert!(RepairPolicy::for_type(DeviceType::Core).is_some());
        assert!(RepairPolicy::for_type(DeviceType::Fsw).is_some());
        assert!(RepairPolicy::for_type(DeviceType::Rsw).is_some());
        assert!(RepairPolicy::for_type(DeviceType::Csa).is_none());
        assert!(RepairPolicy::for_type(DeviceType::Csw).is_none());
        assert!(RepairPolicy::for_type(DeviceType::Esw).is_none());
        assert!(RepairPolicy::for_type(DeviceType::Ssw).is_none());
        assert!(RepairPolicy::for_type(DeviceType::Bbr).is_none());
    }

    #[test]
    fn table1_means() {
        let core = RepairPolicy::for_type(DeviceType::Core).unwrap();
        assert_eq!(core.mean_wait_secs(), 240.0);
        assert!((core.mean_exec_secs() - 30.1).abs() < 1e-9);
        let rsw = RepairPolicy::for_type(DeviceType::Rsw).unwrap();
        assert_eq!(rsw.mean_wait_secs(), 86_400.0);
        assert!((rsw.mean_exec_secs() - 2.91).abs() < 1e-9);
    }

    #[test]
    fn priority_mean_matches_table1() {
        let fsw = RepairPolicy::for_type(DeviceType::Fsw).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| fsw.sample_priority(&mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.25).abs() < 0.02, "mean priority {mean}");
    }

    #[test]
    fn core_priority_always_highest() {
        let core = RepairPolicy::for_type(DeviceType::Core).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert_eq!(core.sample_priority(&mut rng), 0);
        }
    }

    #[test]
    fn wait_mean_preserved_across_priority_mix() {
        // E[wait] over the priority mix must equal the Table 1 mean.
        let rsw = RepairPolicy::for_type(DeviceType::Rsw).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| {
                let p = rsw.sample_priority(&mut rng);
                rsw.sample_wait_secs(&mut rng, p)
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 86_400.0).abs() / 86_400.0 < 0.02,
            "mean wait {mean}"
        );
    }

    #[test]
    fn lower_priority_waits_longer_in_expectation() {
        let rsw = RepairPolicy::for_type(DeviceType::Rsw).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let n = 50_000;
        let avg = |prio: u8, rng: &mut StdRng| -> f64 {
            (0..n).map(|_| rsw.sample_wait_secs(rng, prio)).sum::<f64>() / n as f64
        };
        let w0 = avg(0, &mut rng);
        let w3 = avg(3, &mut rng);
        assert!(w3 > 3.0 * w0, "p0 {w0} vs p3 {w3}");
    }

    #[test]
    fn repair_ratio_roll_frequency() {
        let rsw = RepairPolicy::for_type(DeviceType::Rsw).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let fixed = (0..n).filter(|_| rsw.roll_repair(&mut rng)).count() as f64;
        assert!((fixed / n as f64 - 0.997).abs() < 0.001);
    }
}
