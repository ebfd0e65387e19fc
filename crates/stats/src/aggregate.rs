//! Cross-replica aggregation: folding per-seed measurements into bands.
//!
//! The paper's numbers are point estimates from one seven-year trace.
//! A synthetic apparatus can do better: run the same scenario under N
//! derived seeds and report how much each statistic moves across
//! stochastic realizations. [`Band`] is that answer for one metric —
//! mean, spread, order statistics, and a bootstrap confidence interval
//! for the mean — so a paper value can be judged against a *band* of
//! measurements instead of a single number.
//!
//! The bootstrap here resamples replica-level values (each already an
//! independent realization), reusing the percentile-interval machinery
//! of [`crate::bootstrap`].

use crate::bootstrap::ParamInterval;
use crate::summary::Summary;
use rand::Rng;

/// The cross-seed band for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    /// Number of replica values folded in.
    pub n: usize,
    /// Mean across replicas.
    pub mean: f64,
    /// Population standard deviation across replicas.
    pub stddev: f64,
    /// Smallest replica value.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest replica value.
    pub max: f64,
    /// Bootstrap confidence interval for the mean (`None` when the
    /// sample is a single value — a one-seed "sweep" has no spread).
    pub ci: Option<ParamInterval>,
}

impl Band {
    /// Whether `value` is covered by the band: inside the bootstrap CI
    /// when one exists, otherwise inside the observed `[min, max]`.
    pub fn covers(&self, value: f64) -> bool {
        match &self.ci {
            Some(ci) => ci.contains(value),
            None => (self.min..=self.max).contains(&value),
        }
    }

    /// Half-width of a symmetric two-sigma spread around the mean.
    pub fn two_sigma(&self) -> f64 {
        2.0 * self.stddev
    }
}

/// Folds `values` into a [`Band`] without a confidence interval.
///
/// Returns `None` when `values` is empty or contains a non-finite
/// entry (the same rejection rule as [`Summary::new`]).
pub fn fold(values: &[f64]) -> Option<Band> {
    let s = Summary::new(values)?;
    Some(Band {
        n: s.count(),
        mean: s.mean(),
        stddev: s.stddev(),
        min: s.min(),
        p25: s.percentile(25.0),
        median: s.median(),
        p75: s.p75(),
        max: s.max(),
        ci: None,
    })
}

/// Percentile-bootstrap confidence interval for the mean of `values`.
///
/// Resamples with replacement `resamples` times and takes the two-sided
/// `confidence` percentile interval of the resampled means. Returns
/// `None` for fewer than two values, zero resamples, or a confidence
/// outside `(0, 1)`.
pub fn bootstrap_mean<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[f64],
    resamples: usize,
    confidence: f64,
) -> Option<ParamInterval> {
    if values.len() < 2 || resamples == 0 || !(0.0..1.0).contains(&confidence) {
        return None;
    }
    let estimate = values.iter().sum::<f64>() / values.len() as f64;
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let sum: f64 = (0..values.len())
            .map(|_| values[rng.gen_range(0..values.len())])
            .sum();
        means.push(sum / values.len() as f64);
    }
    means.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let alpha = (1.0 - confidence) / 2.0;
    let n = means.len();
    let lo_idx = ((n as f64 * alpha) as usize).min(n - 1);
    let hi_idx = ((n as f64 * (1.0 - alpha)) as usize).min(n - 1);
    Some(ParamInterval {
        estimate,
        lo: means[lo_idx],
        hi: means[hi_idx],
    })
}

/// [`fold`] plus [`bootstrap_mean`]: the full band for one metric.
///
/// The CI is attached when the sample admits one; a single-value sample
/// still folds (with `ci: None`) so sweeps of one seed degrade
/// gracefully instead of erroring.
pub fn aggregate<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[f64],
    resamples: usize,
    confidence: f64,
) -> Option<Band> {
    let mut band = fold(values)?;
    band.ci = bootstrap_mean(rng, values, resamples, confidence);
    Some(band)
}

/// A [`Band`] computed from a partial result set: the band over the
/// replicas that have a value, plus an honest account of how many were
/// planned and how many contributed nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialBand {
    /// The band over the present values (`band.n` of them).
    pub band: Band,
    /// How many replicas were planned (the slot count).
    pub planned: usize,
    /// How many slots were empty (no valid checkpoint shard, or the
    /// metric was absent from that replica's output).
    pub missing: usize,
}

impl PartialBand {
    /// Whether every planned replica contributed a value.
    pub fn is_complete(&self) -> bool {
        self.missing == 0
    }
}

/// Degraded-mode [`aggregate`]: one `Option<f64>` slot per planned
/// replica, where `None` marks a replica that produced no value for
/// this metric (its checkpoint shard is missing, or its output lacks
/// the metric).
///
/// Present values are banded exactly as [`aggregate`] would band them
/// — the same values with empty slots elsewhere yield the same band —
/// and the `planned`/`missing` counts let callers report the
/// degradation instead of hiding it. Returns `None` when every slot is
/// empty.
pub fn aggregate_partial<R: Rng + ?Sized>(
    rng: &mut R,
    slots: &[Option<f64>],
    resamples: usize,
    confidence: f64,
) -> Option<PartialBand> {
    let survivors: Vec<f64> = slots.iter().copied().flatten().collect();
    let band = aggregate(rng, &survivors, resamples, confidence)?;
    Some(PartialBand {
        band,
        planned: slots.len(),
        missing: slots.len() - survivors.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fold_order_statistics() {
        let b = fold(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(b.n, 4);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 4.0);
        assert!((b.mean - 2.5).abs() < 1e-12);
        assert!((b.median - 2.5).abs() < 1e-12);
        assert!(b.ci.is_none());
    }

    #[test]
    fn fold_rejects_empty_and_nonfinite() {
        assert!(fold(&[]).is_none());
        assert!(fold(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn bootstrap_mean_brackets_the_estimate() {
        let values: Vec<f64> = (0..32).map(|i| 10.0 + (i % 7) as f64).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let ci = bootstrap_mean(&mut rng, &values, 500, 0.95).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        // The CI of the mean is much narrower than the data range.
        assert!(ci.hi - ci.lo < 6.0);
    }

    #[test]
    fn bootstrap_mean_is_deterministic_per_seed() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let a = bootstrap_mean(&mut StdRng::seed_from_u64(9), &values, 200, 0.9).unwrap();
        let b = bootstrap_mean(&mut StdRng::seed_from_u64(9), &values, 200, 0.9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_mean_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(bootstrap_mean(&mut rng, &[1.0], 100, 0.95).is_none());
        assert!(bootstrap_mean(&mut rng, &[1.0, 2.0], 0, 0.95).is_none());
        assert!(bootstrap_mean(&mut rng, &[1.0, 2.0], 100, 1.0).is_none());
    }

    #[test]
    fn aggregate_attaches_ci_and_covers() {
        let values = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4];
        let mut rng = StdRng::seed_from_u64(5);
        let band = aggregate(&mut rng, &values, 400, 0.95).unwrap();
        let ci = band.ci.as_ref().expect("ci");
        assert!(ci.contains(band.mean));
        assert!(band.covers(10.0));
        assert!(!band.covers(50.0));
    }

    #[test]
    fn single_value_band_has_no_ci_but_covers_itself() {
        let mut rng = StdRng::seed_from_u64(5);
        let band = aggregate(&mut rng, &[7.0], 400, 0.95).unwrap();
        assert!(band.ci.is_none());
        assert!(band.covers(7.0));
        assert!(!band.covers(7.1));
    }

    #[test]
    fn partial_aggregate_counts_missing_slots() {
        let slots = [Some(1.0), None, Some(3.0), None, Some(2.0)];
        let mut rng = StdRng::seed_from_u64(11);
        let p = aggregate_partial(&mut rng, &slots, 200, 0.95).unwrap();
        assert_eq!(p.planned, 5);
        assert_eq!(p.missing, 2);
        assert_eq!(p.band.n, 3);
        assert!(!p.is_complete());
        assert!((p.band.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_aggregate_matches_full_when_complete() {
        let values = [4.0, 5.5, 3.25, 4.75];
        let slots: Vec<Option<f64>> = values.iter().copied().map(Some).collect();
        let full = aggregate(&mut StdRng::seed_from_u64(2), &values, 300, 0.9).unwrap();
        let partial = aggregate_partial(&mut StdRng::seed_from_u64(2), &slots, 300, 0.9).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.band, full, "survivor banding is identical");
    }

    #[test]
    fn partial_aggregate_with_no_survivors_is_none() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(aggregate_partial(&mut rng, &[None, None], 100, 0.95).is_none());
        assert!(aggregate_partial(&mut rng, &[], 100, 0.95).is_none());
    }
}
