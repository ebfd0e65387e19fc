//! The seeded fault injector for the vendor-email delivery stream.
//!
//! Takes the simulator's time-ordered `(send time, bytes)` stream and
//! produces the *delivery* stream an unreliable transport would hand
//! the ingestion pipeline: some messages corrupted or truncated in
//! transit, some lost, some delivered twice, some delayed past their
//! successors. Everything is driven by one deterministic RNG stream
//! derived from [`ChaosConfig::seed`], so a run is exactly replayable.

use crate::config::ChaosConfig;
use dcnr_backbone::email::RawEmail;
use dcnr_sim::{stream_rng, SimDuration, SimTime};
use rand::Rng;

/// What the injector did to the stream, per fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Messages offered by the simulator.
    pub input: u64,
    /// Messages actually delivered (after loss, including duplicates).
    pub delivered: u64,
    /// Messages dropped in transit.
    pub lost: u64,
    /// Extra deliveries added by duplication.
    pub duplicated: u64,
    /// Messages with flipped bytes.
    pub corrupted: u64,
    /// Messages cut short.
    pub truncated: u64,
    /// Messages whose delivery was delayed (reordered).
    pub delayed: u64,
}

/// Applies the configured faults to `emails`, returning the delivery
/// stream ordered by delivery time (stable for ties, so an all-zero
/// configuration returns a byte-identical copy of its input).
pub fn inject(
    cfg: &ChaosConfig,
    emails: &[(SimTime, RawEmail)],
) -> (Vec<(SimTime, RawEmail)>, InjectionStats) {
    let mut rng = stream_rng(cfg.seed, "chaos.inject");
    let mut stats = InjectionStats {
        input: emails.len() as u64,
        ..Default::default()
    };
    let mut out: Vec<(SimTime, u64, RawEmail)> = Vec::with_capacity(emails.len());
    let mut seq = 0u64;

    for (at, raw) in emails {
        // Loss first: a dropped message suffers no further faults.
        if cfg.loss_rate > 0.0 && rng.gen_bool(cfg.loss_rate) {
            stats.lost += 1;
            continue;
        }

        let mut payload = raw.clone();
        if cfg.corrupt_rate > 0.0 && rng.gen_bool(cfg.corrupt_rate) {
            payload = corrupt(&mut rng, &payload);
            stats.corrupted += 1;
        }
        if cfg.truncate_rate > 0.0 && rng.gen_bool(cfg.truncate_rate) {
            payload = truncate(&mut rng, &payload);
            stats.truncated += 1;
        }

        let mut deliver_at = *at;
        if cfg.reorder_rate > 0.0 && rng.gen_bool(cfg.reorder_rate) {
            deliver_at = *at + jitter(&mut rng, cfg.reorder_max_delay);
            stats.delayed += 1;
        }
        out.push((deliver_at, seq, payload.clone()));
        seq += 1;
        stats.delivered += 1;

        // The duplicate is a transport-level retransmission: same
        // (possibly mangled) payload, delivered after a delay.
        if cfg.dup_rate > 0.0 && rng.gen_bool(cfg.dup_rate) {
            let dup_at = *at + jitter(&mut rng, cfg.reorder_max_delay);
            out.push((dup_at, seq, payload));
            seq += 1;
            stats.delivered += 1;
            stats.duplicated += 1;
        }
    }

    // Delivery order: by time, input order for ties. With no delays
    // this is exactly the input order.
    out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    (out.into_iter().map(|(t, _, b)| (t, b)).collect(), stats)
}

/// Flips one to four random bytes (XOR with a random non-zero mask).
fn corrupt<R: Rng>(rng: &mut R, raw: &RawEmail) -> RawEmail {
    if raw.is_empty() {
        return raw.clone();
    }
    let mut buf = raw.to_vec();
    let flips = rng.gen_range(1..=4usize).min(buf.len());
    for _ in 0..flips {
        let pos = rng.gen_range(0..buf.len());
        let mask = rng.gen_range(1..=255u8);
        buf[pos] ^= mask;
    }
    buf.into()
}

/// Cuts the message at a random point in its first half to the full
/// length minus one — always strictly shorter, often mid-header.
fn truncate<R: Rng>(rng: &mut R, raw: &RawEmail) -> RawEmail {
    if raw.len() < 2 {
        return RawEmail::from([]);
    }
    let keep = rng.gen_range(raw.len() / 2..raw.len());
    raw[..keep].into()
}

/// Uniform delay in `(0, max]`, at least one second.
fn jitter<R: Rng>(rng: &mut R, max: SimDuration) -> SimDuration {
    SimDuration::from_secs(rng.gen_range(1..=max.as_secs().max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64) -> Vec<(SimTime, RawEmail)> {
        (0..n)
            .map(|i| {
                (
                    SimTime::from_secs(i * 100),
                    format!("message-{i}: payload").into_bytes().into(),
                )
            })
            .collect()
    }

    #[test]
    fn zero_rates_are_byte_identical() {
        let input = stream(200);
        let (out, stats) = inject(&ChaosConfig::quiescent(42), &input);
        assert_eq!(out, input);
        assert_eq!(stats.delivered, 200);
        assert_eq!(
            stats.lost + stats.duplicated + stats.corrupted + stats.truncated,
            0
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let input = stream(500);
        let cfg = ChaosConfig::drill(7);
        let (a, sa) = inject(&cfg, &input);
        let (b, sb) = inject(&cfg, &input);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = inject(&ChaosConfig::drill(8), &input);
        assert_ne!(a, c, "different seeds must produce different schedules");
    }

    #[test]
    fn loss_only_drops_messages() {
        let input = stream(1000);
        let cfg = ChaosConfig {
            loss_rate: 0.5,
            ..ChaosConfig::quiescent(3)
        };
        let (out, stats) = inject(&cfg, &input);
        assert_eq!(out.len() as u64, stats.delivered);
        assert_eq!(stats.lost + stats.delivered, 1000);
        assert!(stats.lost > 300 && stats.lost < 700, "lost {}", stats.lost);
        // Survivors are unmodified and in order.
        for (t, b) in &out {
            assert!(input.iter().any(|(it, ib)| it == t && ib == b));
        }
    }

    #[test]
    fn duplicates_add_deliveries() {
        let input = stream(1000);
        let cfg = ChaosConfig {
            dup_rate: 0.3,
            ..ChaosConfig::quiescent(3)
        };
        let (out, stats) = inject(&cfg, &input);
        assert_eq!(stats.delivered, 1000 + stats.duplicated);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(stats.duplicated > 200, "dups {}", stats.duplicated);
    }

    #[test]
    fn corruption_changes_bytes() {
        let input = stream(100);
        let cfg = ChaosConfig {
            corrupt_rate: 1.0,
            ..ChaosConfig::quiescent(9)
        };
        let (out, stats) = inject(&cfg, &input);
        assert_eq!(stats.corrupted, 100);
        let changed = out
            .iter()
            .zip(&input)
            .filter(|((_, a), (_, b))| a != b)
            .count();
        assert_eq!(changed, 100);
    }

    #[test]
    fn truncation_shortens() {
        let input = stream(100);
        let cfg = ChaosConfig {
            truncate_rate: 1.0,
            ..ChaosConfig::quiescent(5)
        };
        let (out, stats) = inject(&cfg, &input);
        assert_eq!(stats.truncated, 100);
        for ((_, a), (_, b)) in out.iter().zip(&input) {
            assert!(a.len() < b.len());
        }
    }

    #[test]
    fn reordering_preserves_multiset_of_payloads() {
        let input = stream(300);
        let cfg = ChaosConfig {
            reorder_rate: 0.5,
            ..ChaosConfig::quiescent(11)
        };
        let (out, stats) = inject(&cfg, &input);
        assert!(stats.delayed > 0);
        let mut a: Vec<&RawEmail> = out.iter().map(|(_, b)| b).collect();
        let mut b: Vec<&RawEmail> = input.iter().map(|(_, b)| b).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Delivery times are sorted.
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn corrupt_and_truncate_handle_tiny_messages() {
        let mut rng = stream_rng(1, "test.tiny");
        assert!(corrupt(&mut rng, &RawEmail::from([])).is_empty());
        assert!(truncate(&mut rng, &RawEmail::from([b'x'])).is_empty());
        assert_eq!(corrupt(&mut rng, &RawEmail::from([0u8])).len(), 1);
    }
}
