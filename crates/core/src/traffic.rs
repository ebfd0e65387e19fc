//! Seeded open-loop traffic: a Poisson arrival stream with a
//! per-arrival request-mix draw.
//!
//! Closed-loop clients ([`crate::loadgen`]'s default mode) wait for each
//! response before sending the next request, so offered load politely
//! adapts to the server and overload is invisible. An *open-loop* source
//! keeps its own clock: arrival `k` fires at a pre-drawn instant whether
//! or not arrival `k-1` has been answered (cf. Parsonson et al.,
//! arXiv:2107.01398 — seeded interarrival distributions). This module
//! owns the demand side of that story:
//!
//! * **Interarrivals** — exponential gaps at `rate_per_sec`, one draw
//!   per arrival.
//! * **Request mix** — each arrival carries a mix index drawn from its
//!   own stream, so the target picked for arrival `k` never depends on
//!   how the interarrival sampling consumed randomness.
//!
//! Both streams derive from the caller's master seed via the same
//! `derive_seed(master, tag)` discipline the simulation layers use
//! (tags `traffic.arrivals`, `traffic.mix`), so the same config always
//! yields the same schedule. [`generate`] yields it lazily: memory does
//! not grow with the arrival count.

use crate::error::DcnrError;
use dcnr_sim::stream_rng;
use rand::Rng;

/// Everything that determines an arrival stream. Two equal configs
/// always generate identical streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Master seed; the arrival and mix streams derive from it.
    pub seed: u64,
    /// Mean arrival rate (requests per second).
    pub rate_per_sec: f64,
    /// How many arrivals to generate.
    pub arrivals: usize,
    /// Size of the request mix each arrival indexes into.
    pub mix_entries: u32,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 0x0BE7,
            rate_per_sec: 100.0,
            arrivals: 1000,
            mix_entries: 1,
        }
    }
}

impl TrafficConfig {
    /// Validates the knobs; [`generate`] calls this.
    pub fn validate(&self) -> Result<(), DcnrError> {
        if !self.rate_per_sec.is_finite() || self.rate_per_sec <= 0.0 {
            return Err(DcnrError::Config(format!(
                "traffic rate must be positive and finite, got {}",
                self.rate_per_sec
            )));
        }
        if self.arrivals == 0 {
            return Err(DcnrError::Config(
                "traffic arrivals must be positive".into(),
            ));
        }
        if self.mix_entries == 0 {
            return Err(DcnrError::Config(
                "traffic mix must have at least one entry".into(),
            ));
        }
        Ok(())
    }
}

/// One scheduled request: when it fires (relative to stream start) and
/// which mix entry it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the stream, in microseconds.
    pub at_micros: u64,
    /// Index into the request mix, in `0..mix_entries`.
    pub mix: u32,
}

/// The deterministic arrival stream for `cfg`, drawn as it is consumed:
/// one exponential interarrival (inverse-CDF sampling; `u < 1` always,
/// so the log argument stays positive) and one mix index per arrival.
pub fn generate(cfg: &TrafficConfig) -> Result<impl Iterator<Item = Arrival>, DcnrError> {
    cfg.validate()?;
    let mut arrivals_rng = stream_rng(cfg.seed, "traffic.arrivals");
    let mut mix_rng = stream_rng(cfg.seed, "traffic.mix");
    let cfg = *cfg;
    let mut t = 0.0_f64;
    Ok((0..cfg.arrivals).map(move |_| {
        let u: f64 = arrivals_rng.gen();
        t += -(1.0 - u).ln() / cfg.rate_per_sec;
        Arrival {
            at_micros: (t * 1e6).round() as u64,
            mix: mix_rng.gen_range(0..cfg.mix_entries),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cfg: &TrafficConfig) -> Vec<Arrival> {
        generate(cfg).unwrap().collect()
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let wide_mix = TrafficConfig {
            seed: 41,
            rate_per_sec: 500.0,
            arrivals: 800,
            mix_entries: 6,
        };
        for cfg in [TrafficConfig::default(), wide_mix] {
            let a = collect(&cfg);
            let b = collect(&cfg);
            assert_eq!(a, b, "same config must generate the same stream");
            assert_eq!(a.len(), cfg.arrivals);
            assert!(a.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
            assert!(a.iter().all(|x| x.mix < cfg.mix_entries));
            // Across ~hundreds of draws every mix entry shows up.
            let distinct: std::collections::BTreeSet<u32> = a.iter().map(|x| x.mix).collect();
            assert_eq!(distinct.len() as u32, cfg.mix_entries);
        }
    }

    #[test]
    fn arrival_schedule_is_pinned_and_streams() {
        let cfg = TrafficConfig {
            seed: 7,
            rate_per_sec: 400.0,
            arrivals: 8,
            mix_entries: 3,
        };
        let want: Vec<(u64, u32)> = vec![
            (6308, 1),
            (7093, 2),
            (10430, 0),
            (13263, 0),
            (30453, 0),
            (32890, 2),
            (33203, 2),
            (44267, 2),
        ];
        let pairs = |arrivals: &[Arrival]| -> Vec<(u64, u32)> {
            arrivals.iter().map(|a| (a.at_micros, a.mix)).collect()
        };
        assert_eq!(pairs(&collect(&cfg)), want);
        // An unbounded arrival count allocates nothing up front.
        let unbounded = TrafficConfig {
            arrivals: usize::MAX,
            ..cfg
        };
        let head: Vec<Arrival> = generate(&unbounded).unwrap().take(8).collect();
        assert_eq!(pairs(&head), want);
    }

    #[test]
    fn flat_mean_interarrival_tracks_the_rate() {
        let cfg = TrafficConfig {
            rate_per_sec: 200.0,
            arrivals: 4000,
            ..TrafficConfig::default()
        };
        let arrivals = collect(&cfg);
        let span_secs = arrivals.last().unwrap().at_micros as f64 / 1e6;
        let rate = cfg.arrivals as f64 / span_secs;
        assert!(
            (rate - cfg.rate_per_sec).abs() / cfg.rate_per_sec < 0.1,
            "empirical rate {rate:.1}/s vs configured {}/s",
            cfg.rate_per_sec
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            TrafficConfig {
                rate_per_sec: 0.0,
                ..TrafficConfig::default()
            },
            TrafficConfig {
                arrivals: 0,
                ..TrafficConfig::default()
            },
            TrafficConfig {
                mix_entries: 0,
                ..TrafficConfig::default()
            },
        ];
        for cfg in bad {
            let Err(err) = generate(&cfg) else {
                panic!("{cfg:?} must be rejected");
            };
            assert_eq!(err.kind(), "config", "{cfg:?}");
        }
    }
}
