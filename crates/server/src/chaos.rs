//! Seeded transport-fault injection for the serving substrate.
//!
//! The paper's core observation is that the network fails continuously:
//! connections reset mid-response, bytes flip, reads stall. This module
//! lets the server *be* that network on demand, deterministically. A
//! [`FaultPlan`] names the fault rates; a [`ChaosState`] assigns every
//! accepted connection its faults from a SplitMix64 stream derived from
//! `(plan.seed, connection index)` — the same `derive_indexed_seed`
//! discipline `dcnr-sim` uses for replica seeds — so a given plan
//! produces the same injection schedule on every run, regardless of
//! worker threading.
//!
//! Zero-cost-when-off, twice over: a server configured without a plan
//! never touches this module on the hot path, and a plan whose rates
//! are all zero assigns [`ConnFaults::NONE`] to every connection, whose
//! write path is the same single `write_all` as the fault-free server.
//! The zero-rate identity tests (here and end-to-end) pin that down.
//!
//! This crate deliberately depends on nothing, so the SplitMix64 mixer
//! is restated here rather than imported from `dcnr-sim`; the constants
//! and derivation shape mirror `dcnr_sim::rng` byte for byte.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fault rates and magnitudes for the transport shim. All rates are
/// probabilities in `[0, 1]`, drawn independently per connection; at
/// most one *body* action (reset / truncate / corrupt / stall) applies
/// to a connection, chosen in that priority order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed for the per-connection fault streams.
    pub seed: u64,
    /// Probability of an injected delay before the connection is queued.
    pub accept_delay_rate: f64,
    /// Probability of an injected delay before the request is read.
    pub read_delay_rate: f64,
    /// Probability of an injected delay before the response is written.
    pub write_delay_rate: f64,
    /// Upper bound (milliseconds) on each injected delay; the actual
    /// delay is uniform in `1..=delay_ms`.
    pub delay_ms: u64,
    /// Probability the connection is reset mid-response (abrupt close
    /// after a partial write, anywhere including inside the head).
    pub reset_rate: f64,
    /// Probability the response body is truncated (head intact, body
    /// cut short, clean close — the client sees a Content-Length
    /// mismatch).
    pub truncate_rate: f64,
    /// Probability one response body byte is bit-flipped (detected by
    /// the body checksum header).
    pub corrupt_rate: f64,
    /// Probability the response write stalls mid-body for `stall_ms`
    /// before completing (the client sees a latency spike or a read
    /// timeout, depending on its budget).
    pub stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xC4A05,
            accept_delay_rate: 0.0,
            read_delay_rate: 0.0,
            write_delay_rate: 0.0,
            delay_ms: 25,
            reset_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 500,
        }
    }
}

impl FaultPlan {
    /// The rate fields with their keys (the `--chaos-*` flag names
    /// without the prefix), for validation and display.
    fn rates(&self) -> [(&'static str, f64); 7] {
        [
            ("accept-delay-rate", self.accept_delay_rate),
            ("read-delay-rate", self.read_delay_rate),
            ("write-delay-rate", self.write_delay_rate),
            ("reset-rate", self.reset_rate),
            ("truncate-rate", self.truncate_rate),
            ("corrupt-rate", self.corrupt_rate),
            ("stall-rate", self.stall_rate),
        ]
    }

    /// Whether every fault rate is zero (the plan injects nothing).
    pub fn is_zero(&self) -> bool {
        self.rates().iter().all(|(_, r)| *r == 0.0)
    }

    /// Checks every rate is a probability and magnitudes are sane.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in self.rates() {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos {name} must be in [0, 1], got {rate}"));
            }
        }
        Ok(())
    }

    /// Sets one field by its key (`seed`, `reset-rate`, ...): the
    /// `--chaos-*` flag name without the prefix.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("chaos {key}: not a number: {value:?}"))
        };
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("chaos {key}: not an integer: {value:?}"))
        };
        match key {
            "seed" => self.seed = int(value)?,
            "accept-delay-rate" => self.accept_delay_rate = num(value)?,
            "read-delay-rate" => self.read_delay_rate = num(value)?,
            "write-delay-rate" => self.write_delay_rate = num(value)?,
            "delay-ms" => self.delay_ms = int(value)?,
            "reset-rate" => self.reset_rate = num(value)?,
            "truncate-rate" => self.truncate_rate = num(value)?,
            "corrupt-rate" => self.corrupt_rate = num(value)?,
            "stall-rate" => self.stall_rate = num(value)?,
            "stall-ms" => self.stall_ms = int(value)?,
            other => return Err(format!("unknown chaos key {other:?}")),
        }
        Ok(())
    }

    /// One-line human summary (for the serve startup log).
    pub fn describe(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for (name, rate) in self.rates() {
            if rate > 0.0 {
                out.push_str(&format!(" {name}={rate}"));
            }
        }
        if self.is_zero() {
            out.push_str(" (all rates zero)");
        }
        out
    }
}

/// SplitMix64 step — the standard 64-bit mixer, restated from
/// `dcnr_sim::rng` so this crate stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `dcnr_sim::derive_seed`, restated: a stable sub-seed for
/// `(master, tag)`.
fn derive_seed(master: u64, tag: &str) -> u64 {
    let mut state = master ^ 0xA076_1D64_78BD_642F;
    let mut acc = splitmix64(&mut state);
    for chunk in tag.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state ^= u64::from_le_bytes(word).wrapping_add(chunk.len() as u64);
        acc ^= splitmix64(&mut state);
    }
    state ^= acc;
    splitmix64(&mut state)
}

/// `dcnr_sim::derive_indexed_seed`, restated: the seed for element
/// `index` of an indexed fan-out — here, accepted connection `index`.
fn derive_indexed_seed(master: u64, tag: &str, index: u64) -> u64 {
    let mut state = derive_seed(master, tag) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    state ^= splitmix64(&mut state);
    splitmix64(&mut state)
}

/// A tiny deterministic draw stream over SplitMix64.
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Bernoulli draw. Rate 0 never fires (and the short-circuit means
    /// a zero-rate plan draws identically to any other zero-rate plan);
    /// rate 1 always fires.
    fn chance(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            // Still consume a draw so the *schedule* of later draws
            // does not depend on which rates are zero.
            let _ = self.next_u64();
            return false;
        }
        if rate >= 1.0 {
            let _ = self.next_u64();
            return true;
        }
        // 53-bit uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }

    /// Uniform draw in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        let span = hi.saturating_sub(lo).saturating_add(1).max(1);
        lo + self.next_u64() % span
    }
}

/// The single body-level fault assigned to a connection (at most one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// No body fault: the response is written intact.
    #[default]
    None,
    /// Abrupt close after writing `permille/1000` of the response
    /// (anywhere, including mid-head).
    Reset {
        /// Cut position as a fraction of the response, in permille.
        permille: u16,
    },
    /// Clean close after cutting the *body* short (head intact, so the
    /// client sees a Content-Length mismatch).
    Truncate {
        /// Kept body fraction, in permille.
        permille: u16,
    },
    /// XOR-flip one body byte chosen by `salt` (caught by the body
    /// checksum header).
    Corrupt {
        /// Position and mask source for the flipped byte.
        salt: u64,
    },
    /// Pause mid-write for `ms` before completing the response.
    Stall {
        /// Stall position as a fraction of the response, in permille.
        permille: u16,
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// The full fault assignment for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnFaults {
    /// Injected delay before the connection is queued (0 = none).
    pub accept_delay_ms: u64,
    /// Injected delay before the request is read (0 = none).
    pub read_delay_ms: u64,
    /// Injected delay before the response is written (0 = none).
    pub write_delay_ms: u64,
    /// The body-level action, if any.
    pub action: FaultAction,
}

impl ConnFaults {
    /// The no-fault assignment every connection gets when the plan is
    /// absent or all-zero.
    pub const NONE: ConnFaults = ConnFaults {
        accept_delay_ms: 0,
        read_delay_ms: 0,
        write_delay_ms: 0,
        action: FaultAction::None,
    };

    /// Whether this assignment injects nothing.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

/// Injection counters, exported on `/metrics` by the application layer.
/// Counted when a fault is *applied*, not merely drawn (a corrupt draw
/// on an empty body, for example, is downgraded and not counted).
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Injected accept-path delays.
    pub accept_delays: AtomicU64,
    /// Injected pre-read delays.
    pub read_delays: AtomicU64,
    /// Injected pre-write delays.
    pub write_delays: AtomicU64,
    /// Mid-response connection resets.
    pub resets: AtomicU64,
    /// Truncated response bodies.
    pub truncations: AtomicU64,
    /// Bit-corrupted response bodies.
    pub corruptions: AtomicU64,
    /// Mid-write stalls.
    pub stalls: AtomicU64,
}

impl ChaosStats {
    /// Snapshot as `(fault label, count)` pairs for metric export.
    pub fn by_fault(&self) -> [(&'static str, u64); 7] {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("accept_delay", get(&self.accept_delays)),
            ("read_delay", get(&self.read_delays)),
            ("write_delay", get(&self.write_delays)),
            ("reset", get(&self.resets)),
            ("truncate", get(&self.truncations)),
            ("corrupt", get(&self.corruptions)),
            ("stall", get(&self.stalls)),
        ]
    }

    /// Total applied injections across all fault kinds.
    pub fn total(&self) -> u64 {
        self.by_fault().iter().map(|(_, n)| n).sum()
    }
}

/// A plan plus the live per-connection counter and injection stats —
/// what the server actually carries when chaos is on.
#[derive(Debug)]
pub struct ChaosState {
    plan: FaultPlan,
    connections: AtomicU64,
    /// Applied-injection counters.
    pub stats: ChaosStats,
}

impl ChaosState {
    /// Wraps a validated plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            connections: AtomicU64::new(0),
            stats: ChaosStats::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Assigns faults to the next accepted connection (advances the
    /// connection counter).
    pub fn next_connection(&self) -> ConnFaults {
        let index = self.connections.fetch_add(1, Ordering::Relaxed);
        self.faults_for(index)
    }

    /// The deterministic fault assignment for connection `index`: a
    /// pure function of `(plan.seed, index)`, independent of threading
    /// or wall clock.
    pub fn faults_for(&self, index: u64) -> ConnFaults {
        let p = &self.plan;
        let mut s = Stream::new(derive_indexed_seed(p.seed, "server.chaos.conn", index));
        let delay = |s: &mut Stream, rate: f64| {
            if s.chance(rate) {
                s.range(1, p.delay_ms.max(1))
            } else {
                let _ = s.next_u64(); // keep the draw schedule fixed
                0
            }
        };
        let accept_delay_ms = delay(&mut s, p.accept_delay_rate);
        let read_delay_ms = delay(&mut s, p.read_delay_rate);
        let write_delay_ms = delay(&mut s, p.write_delay_rate);
        let action = if s.chance(p.reset_rate) {
            FaultAction::Reset {
                permille: s.range(0, 999) as u16,
            }
        } else if s.chance(p.truncate_rate) {
            FaultAction::Truncate {
                permille: s.range(0, 999) as u16,
            }
        } else if s.chance(p.corrupt_rate) {
            FaultAction::Corrupt { salt: s.next_u64() }
        } else if s.chance(p.stall_rate) {
            FaultAction::Stall {
                permille: s.range(0, 999) as u16,
                ms: p.stall_ms.max(1),
            }
        } else {
            FaultAction::None
        };
        ConnFaults {
            accept_delay_ms,
            read_delay_ms,
            write_delay_ms,
            action,
        }
    }
}

/// How mutated response bytes should be put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireEffect {
    /// Write everything, close normally.
    Intact,
    /// Write `..at`, then close cleanly (FIN) — the truncation case.
    CutClean {
        /// Byte count actually written.
        at: usize,
    },
    /// Write `..at`, then slam the socket shut — the reset case.
    CutAbrupt {
        /// Byte count actually written.
        at: usize,
    },
    /// Write `..at`, sleep `ms`, then write the rest.
    Stall {
        /// Split position.
        at: usize,
        /// Pause duration in milliseconds.
        ms: u64,
    },
}

/// Start of the body region in a rendered response (after the blank
/// line), when the body is non-empty.
fn body_start(bytes: &[u8]) -> Option<usize> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    (head_end < bytes.len()).then_some(head_end)
}

/// Applies `action` to a rendered response, mutating `bytes` in place
/// for corruption, and returns the wire effect. Actions that cannot
/// apply (e.g. corrupting an empty body) downgrade to [`WireEffect::Intact`]
/// without counting. With [`FaultAction::None`] the bytes are untouched
/// and the effect is `Intact` — the zero-rate identity.
fn apply_action(bytes: &mut [u8], action: FaultAction, stats: &ChaosStats) -> WireEffect {
    match action {
        FaultAction::None => WireEffect::Intact,
        FaultAction::Corrupt { salt } => {
            let Some(start) = body_start(bytes) else {
                return WireEffect::Intact;
            };
            let body_len = bytes.len() - start;
            let pos = start + (salt as usize % body_len);
            // A non-zero mask guarantees the byte changes, and a
            // single-byte XOR always changes the FNV-1a checksum (every
            // round is a bijection of the running hash), so corruption
            // is detectable by construction.
            let mask = ((salt >> 32) as u8) | 1;
            bytes[pos] ^= mask;
            stats.corruptions.fetch_add(1, Ordering::Relaxed);
            WireEffect::Intact
        }
        FaultAction::Truncate { permille } => {
            let Some(start) = body_start(bytes) else {
                return WireEffect::Intact;
            };
            let body_len = bytes.len() - start;
            // Keep the head plus at most 999/1000 of the body: at
            // least one body byte is always dropped, so the client's
            // Content-Length cross-check always fires.
            let keep = start + (body_len - 1) * usize::from(permille) / 1000;
            stats.truncations.fetch_add(1, Ordering::Relaxed);
            WireEffect::CutClean { at: keep }
        }
        FaultAction::Reset { permille } => {
            if bytes.len() < 2 {
                return WireEffect::Intact;
            }
            // Cut anywhere in [1, len-1]: at least one byte goes out,
            // and at least one byte is lost.
            let at = 1 + (bytes.len() - 2) * usize::from(permille) / 1000;
            stats.resets.fetch_add(1, Ordering::Relaxed);
            WireEffect::CutAbrupt { at }
        }
        FaultAction::Stall { permille, ms } => {
            let at = bytes.len() * usize::from(permille) / 1000;
            stats.stalls.fetch_add(1, Ordering::Relaxed);
            WireEffect::Stall { at, ms }
        }
    }
}

/// Writes a rendered response to `conn` under `faults`: applies the
/// pre-write delay, mutates/cuts/stalls per the body action, and
/// performs the matching socket close. With [`ConnFaults::NONE`] this
/// is byte-for-byte the fault-free single `write_all`.
pub fn write_response(
    conn: &mut TcpStream,
    mut bytes: Vec<u8>,
    faults: &ConnFaults,
    stats: &ChaosStats,
) -> io::Result<()> {
    if faults.write_delay_ms > 0 {
        stats.write_delays.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(faults.write_delay_ms));
    }
    match apply_action(&mut bytes, faults.action, stats) {
        WireEffect::Intact => conn.write_all(&bytes),
        WireEffect::CutClean { at } => {
            conn.write_all(&bytes[..at])?;
            conn.shutdown(Shutdown::Write)
        }
        WireEffect::CutAbrupt { at } => {
            conn.write_all(&bytes[..at])?;
            // Closing both directions with the peer's request bytes
            // still unread makes Linux send RST — the abrupt close a
            // mid-response network reset looks like.
            conn.shutdown(Shutdown::Both)
        }
        WireEffect::Stall { at, ms } => {
            conn.write_all(&bytes[..at])?;
            conn.flush()?;
            std::thread::sleep(Duration::from_millis(ms));
            conn.write_all(&bytes[at..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    fn zero_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn zero_rate_plans_assign_no_faults_to_any_connection() {
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            let state = ChaosState::new(zero_plan(seed));
            for index in 0..500 {
                assert_eq!(
                    state.faults_for(index),
                    ConnFaults::NONE,
                    "seed {seed} conn {index}"
                );
            }
        }
        assert!(zero_plan(3).is_zero());
    }

    #[test]
    fn assignments_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            seed: 42,
            reset_rate: 0.3,
            truncate_rate: 0.3,
            corrupt_rate: 0.2,
            read_delay_rate: 0.5,
            ..FaultPlan::default()
        };
        let a = ChaosState::new(plan.clone());
        let b = ChaosState::new(plan.clone());
        let assignments: Vec<ConnFaults> = (0..200).map(|i| a.faults_for(i)).collect();
        for (i, want) in assignments.iter().enumerate() {
            assert_eq!(b.faults_for(i as u64), *want, "conn {i}");
        }
        let other = ChaosState::new(FaultPlan { seed: 43, ..plan });
        assert!(
            (0..200).any(|i| other.faults_for(i) != assignments[i as usize]),
            "a different seed must reshuffle the schedule"
        );
        assert!(
            assignments.iter().any(|f| f.action != FaultAction::None),
            "with these rates some connection draws a body action"
        );
    }

    #[test]
    fn rate_one_fires_in_priority_order() {
        let all = ChaosState::new(FaultPlan {
            reset_rate: 1.0,
            truncate_rate: 1.0,
            corrupt_rate: 1.0,
            stall_rate: 1.0,
            ..FaultPlan::default()
        });
        for i in 0..32 {
            assert!(matches!(
                all.faults_for(i).action,
                FaultAction::Reset { .. }
            ));
        }
        let stalls = ChaosState::new(FaultPlan {
            stall_rate: 1.0,
            stall_ms: 7,
            ..FaultPlan::default()
        });
        assert!(matches!(
            stalls.faults_for(0).action,
            FaultAction::Stall { ms: 7, .. }
        ));
    }

    #[test]
    fn corrupt_flips_exactly_one_body_byte() {
        let stats = ChaosStats::default();
        let clean = Response::ok("hello, fault injection\n").render();
        for salt in [0u64, 1, 0xABCD_EF01_2345_6789] {
            let mut bytes = clean.clone();
            let effect = apply_action(&mut bytes, FaultAction::Corrupt { salt }, &stats);
            assert_eq!(effect, WireEffect::Intact);
            assert_eq!(bytes.len(), clean.len());
            let start = body_start(&clean).unwrap();
            assert_eq!(&bytes[..start], &clean[..start], "head must stay intact");
            let flipped = bytes.iter().zip(&clean).filter(|(a, b)| a != b).count();
            assert_eq!(flipped, 1, "salt {salt:#x}");
        }
        assert_eq!(stats.corruptions.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn truncate_keeps_the_head_and_always_drops_body_bytes() {
        let stats = ChaosStats::default();
        let clean = Response::ok("0123456789").render();
        let start = body_start(&clean).unwrap();
        for permille in [0u16, 1, 500, 999] {
            let mut bytes = clean.clone();
            match apply_action(&mut bytes, FaultAction::Truncate { permille }, &stats) {
                WireEffect::CutClean { at } => {
                    assert!(at >= start, "head survives (permille {permille})");
                    assert!(at < clean.len(), "at least one body byte is dropped");
                }
                other => panic!("expected CutClean, got {other:?}"),
            }
        }
    }

    #[test]
    fn reset_cuts_strictly_inside_the_response() {
        let stats = ChaosStats::default();
        let clean = Response::ok("body\n").render();
        for permille in [0u16, 250, 999] {
            let mut bytes = clean.clone();
            match apply_action(&mut bytes, FaultAction::Reset { permille }, &stats) {
                WireEffect::CutAbrupt { at } => {
                    assert!((1..clean.len()).contains(&at), "permille {permille}");
                }
                other => panic!("expected CutAbrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn body_actions_on_empty_bodies_downgrade_uncounted() {
        let stats = ChaosStats::default();
        let clean = Response::text(200, "").render();
        let mut bytes = clean.clone();
        assert_eq!(
            apply_action(&mut bytes, FaultAction::Corrupt { salt: 9 }, &stats),
            WireEffect::Intact
        );
        assert_eq!(
            apply_action(&mut bytes, FaultAction::Truncate { permille: 500 }, &stats),
            WireEffect::Intact
        );
        assert_eq!(bytes, clean);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let mut plan = FaultPlan::default();
        for (key, value) in [
            ("seed", "9"),
            ("reset-rate", "0.25"),
            ("delay-ms", "5"),
            ("stall-ms", "100"),
        ] {
            plan.set(key, value).unwrap();
        }
        plan.validate().unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.reset_rate, 0.25);
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.stall_ms, 100);
        assert!(plan.set("bogus", "1").is_err());
        assert!(plan.set("reset-rate", "banana").is_err());
        assert!(plan.set("seed", "0.5").is_err(), "seed is an integer");
        plan.set("reset-rate", "2.0").unwrap();
        assert!(plan.validate().is_err(), "rate > 1");
        assert!(FaultPlan::default().is_zero());
    }

    #[test]
    fn describe_names_only_the_active_rates() {
        let mut plan = FaultPlan::default();
        plan.set("seed", "3").unwrap();
        plan.set("corrupt-rate", "0.1").unwrap();
        let text = plan.describe();
        assert!(text.contains("seed=3"), "{text}");
        assert!(text.contains("corrupt-rate=0.1"), "{text}");
        assert!(!text.contains("reset-rate"), "{text}");
        assert!(FaultPlan::default().describe().contains("all rates zero"));
    }
}
