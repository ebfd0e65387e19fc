//! Random samplers for the failure generators.
//!
//! All stochastic behaviour in `dcnr` is driven through these samplers so
//! that the simulator only ever draws from a seeded [`rand::Rng`] —
//! keeping runs byte-for-byte reproducible. The set matches what the
//! failure modelling needs:
//!
//! * [`Exponential`] — inter-failure times of Poisson failure processes
//!   (the paper finds time-to-failure "closely follows exponential
//!   functions", §6).
//! * [`Categorical`] — discrete mixes: root causes (Table 2), remediation
//!   actions (§4.1.3), severity levels (Fig. 4).

use rand::Rng;

/// A distribution from which `f64` samples can be drawn.
pub trait Sampler {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The distribution's mean.
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given mean (`1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite; a zero or
    /// negative mean would make the generated event stream meaningless,
    /// so this is a programming error, not a recoverable condition.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive, got {mean}"
        );
        Self { mean }
    }

    /// Quantile function (inverse CDF) at `q ∈ [0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&q),
            "quantile requires q in [0,1), got {q}"
        );
        -self.mean * (1.0 - q).ln()
    }
}

impl Sampler for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-transform sampling; gen::<f64>() is in [0, 1), so
        // 1 - u is in (0, 1] and ln() is finite.
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Categorical distribution over `0..n` with explicit weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds a categorical distribution from non-negative weights.
    /// Weights need not sum to one; they are normalized.
    ///
    /// Returns `None` if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Some(Self { cumulative })
    }

    /// Draws an index in `0..len`.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point finds the first cumulative weight > u.
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are no categories (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDC_2018)
    }

    fn sample_mean<S: Sampler>(s: &S, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| s.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(1710.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 1710.0).abs() / 1710.0 < 0.02, "mean = {m}");
    }

    #[test]
    fn exponential_quantile() {
        let d = Exponential::new(2.0);
        assert_eq!(d.quantile(0.0), 0.0);
        // median = mean * ln 2
        assert!((d.quantile(0.5) - 2.0 * std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn categorical_normalizes_and_covers() {
        let c = Categorical::new(&[17.0, 13.0, 13.0, 12.0, 10.0, 5.0, 29.0]).unwrap();
        assert_eq!(c.len(), 7);
        let total: f64 = (0..7).map(|i| c.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((c.probability(0) - 0.1717).abs() < 1e-3);
    }

    #[test]
    fn categorical_empirical_frequencies() {
        let c = Categorical::new(&[0.5, 0.3, 0.2]).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[c.sample_index(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.2).abs() < 0.01);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[1.0, -0.5]).is_none());
        assert!(Categorical::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn categorical_zero_weight_category_never_sampled() {
        let c = Categorical::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert_ne!(c.sample_index(&mut r), 1);
        }
    }
}
