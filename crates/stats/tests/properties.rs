//! Property-based tests for the statistics foundation.

use dcnr_stats::{
    fit_exponential, fit_linear, Categorical, Ecdf, Exponential, QuantileCurve, RenewalLog,
    Summary, YearSeries,
};
use proptest::prelude::*;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6..1.0e6f64, 1..200)
}

fn positive_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1.0e-3..1.0e6f64, 2..200)
}

proptest! {
    #[test]
    fn summary_bounds_and_monotone_percentiles(data in finite_vec(), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let s = Summary::new(&data).unwrap();
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.min() <= s.median() && s.median() <= s.max());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(s.percentile(lo) <= s.percentile(hi) + 1e-9);
        prop_assert!(s.stddev() >= 0.0);
        prop_assert_eq!(s.count(), data.len());
    }

    #[test]
    fn summary_sorted_is_sorted(data in finite_vec()) {
        let s = Summary::new(&data).unwrap();
        prop_assert!(s.sorted().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ecdf_is_a_cdf(data in finite_vec(), x in -1.0e6..1.0e6f64) {
        let e = Ecdf::new(&data).unwrap();
        let v = e.eval(x);
        prop_assert!((0.0..=1.0).contains(&v));
        // Monotone: eval at max element is 1.
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(max), 1.0);
    }

    #[test]
    fn ecdf_quantile_inverts_eval(data in finite_vec(), q in 0.01..1.0f64) {
        let e = Ecdf::new(&data).unwrap();
        let v = e.quantile(q);
        // At least a q fraction of the sample is <= quantile(q).
        prop_assert!(e.eval(v) + 1e-12 >= q);
    }

    #[test]
    fn quantile_curve_monotone_in_both_axes(data in positive_vec()) {
        let c = QuantileCurve::new(&data).unwrap();
        let pts = c.points();
        prop_assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        prop_assert!((pts.last().unwrap().0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expfit_recovers_exact_models(a in 0.1..1000.0f64, b in -5.0..5.0f64) {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let x = i as f64 / 30.0;
                (x, a * (b * x).exp())
            })
            .collect();
        let fit = fit_exponential(&pts).unwrap();
        prop_assert!((fit.a - a).abs() / a < 1e-6, "a: {} vs {}", fit.a, a);
        prop_assert!((fit.b - b).abs() < 1e-6, "b: {} vs {}", fit.b, b);
        prop_assert!(fit.r2_log > 0.999999);
    }

    #[test]
    fn linfit_recovers_exact_lines(m in -100.0..100.0f64, c0 in -100.0..100.0f64) {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, m * i as f64 + c0)).collect();
        let fit = fit_linear(&pts).unwrap();
        prop_assert!((fit.slope - m).abs() < 1e-6);
        prop_assert!((fit.intercept - c0).abs() < 1e-4);
    }

    #[test]
    fn categorical_probabilities_sum_to_one(weights in proptest::collection::vec(0.0..100.0f64, 1..20)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights).unwrap();
        let total: f64 = (0..c.len()).map(|i| c.probability(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_samples_in_range(weights in proptest::collection::vec(0.0..100.0f64, 1..20), seed in any::<u64>()) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let idx = c.sample_index(&mut rng);
            prop_assert!(idx < weights.len());
            prop_assert!(weights[idx] > 0.0, "zero-weight category sampled");
        }
    }

    #[test]
    fn exponential_quantile_monotone(mean in 0.001..1.0e6f64, q1 in 0.0..0.99f64, q2 in 0.0..0.99f64) {
        let d = Exponential::new(mean);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(d.quantile(lo) <= d.quantile(hi));
        prop_assert!(d.quantile(lo) >= 0.0);
    }

    #[test]
    fn year_series_addition_is_linear(
        entries in proptest::collection::vec((2011..=2017i32, -100.0..100.0f64), 0..50)
    ) {
        let mut s = YearSeries::new(2011, 2017);
        let mut expected = 0.0;
        for &(y, v) in &entries {
            s.add(y, v);
            expected += v;
        }
        prop_assert!((s.total() - expected).abs() < 1e-6);
    }

    #[test]
    fn renewal_log_conserves_time(
        events in proptest::collection::vec((0.0..1000.0f64, 0.0..50.0f64), 0..40)
    ) {
        let window = 2000.0;
        let mut log = RenewalLog::new(window);
        let mut t = 0.0;
        for &(gap, dur) in &events {
            t += gap + 0.001;
            if t >= window {
                break;
            }
            if log.record_failure(t) {
                let end = (t + dur).min(window - 0.0005);
                if end > t {
                    log.record_recovery(end);
                    t = end;
                }
            }
        }
        prop_assert!((log.uptime() + log.downtime() - window).abs() < 1e-9);
        prop_assert!(log.downtime() >= 0.0);
        if let Some(est) = log.estimate() {
            prop_assert!(est.mtbf >= 0.0 && est.mtbf <= window);
            prop_assert!((0.0..=1.0).contains(&est.availability));
            if let Some(mttr) = est.mttr {
                prop_assert!(mttr >= 0.0);
            }
        }
    }
}
