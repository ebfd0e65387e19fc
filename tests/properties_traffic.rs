//! Property-based tests for the open-loop traffic model: determinism
//! (same seed+config → the same stream), well-formedness (monotone
//! arrivals, mix indices in range), and interarrival statistics
//! (sample mean tracks the configured rate).

use dcnr_core::traffic::generate;
use dcnr_core::{Arrival, TrafficConfig};
use proptest::prelude::*;

/// An arbitrary valid config exercising every knob.
fn any_config() -> impl Strategy<Value = TrafficConfig> {
    (0u64..1_000_000_000, 10.0f64..2_000.0, 1usize..400, 1u32..12).prop_map(
        |(seed, rate_per_sec, arrivals, mix_entries)| TrafficConfig {
            seed,
            rate_per_sec,
            arrivals,
            mix_entries,
        },
    )
}

proptest! {
    #[test]
    fn arrivals_are_monotone_and_mixes_stay_in_range(cfg in any_config()) {
        let arrivals: Vec<Arrival> = generate(&cfg).unwrap().collect();
        let again: Vec<Arrival> = generate(&cfg).unwrap().collect();
        prop_assert_eq!(&arrivals, &again, "same config must generate the same stream");
        prop_assert_eq!(arrivals.len(), cfg.arrivals);
        prop_assert!(arrivals.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        prop_assert!(arrivals.iter().all(|a| a.mix < cfg.mix_entries));
    }

    #[test]
    fn flat_sample_mean_tracks_the_configured_rate(
        seed in 0u64..1_000_000_000,
        rate in 10.0f64..1_000.0,
    ) {
        // 2000 exponential draws: the sample mean of a Poisson
        // process's interarrivals concentrates tightly around 1/rate
        // (relative sd ~ 1/sqrt(2000) ≈ 2.2%; 15% is > 6 sigma).
        let cfg = TrafficConfig {
            seed,
            rate_per_sec: rate,
            arrivals: 2_000,
            mix_entries: 1,
        };
        let last = generate(&cfg).unwrap().last().unwrap();
        let span_secs = last.at_micros as f64 / 1e6;
        let empirical = cfg.arrivals as f64 / span_secs;
        prop_assert!(
            (empirical - rate).abs() / rate < 0.15,
            "empirical rate {empirical:.1}/s strays from configured {rate:.1}/s"
        );
    }
}
