//! Client-side resilience for the serve path: per-request deadline
//! budgets, capped jittered exponential backoff, `Retry-After`-aware
//! retries, and outcome classification.
//!
//! `dcnr loadgen` and `dcnr fetch` drive the server through
//! [`resilient_get`], which wraps the raw `dcnr_server::client` GET in a
//! retry loop. Every terminal result is classified into exactly one
//! [`Outcome`] so the harness can distinguish first-try successes from
//! eventual successes, shed-then-starved requests from transport
//! failures, and — critically — *detected* corruption from silent
//! corruption (the latter must never occur; the loadgen harness counts
//! it separately by re-verifying bodies against expected content).
//!
//! Backoff is deterministic per `(seed, attempt)`: the jitter for
//! attempt `i` comes from
//! [`derive_indexed_seed`]`(seed, "client.backoff", i)`, the same
//! stream-separation idiom the simulation layers use. The delay for
//! attempt `i` (the wait *after* failure `i`) is drawn from
//! `[envelope/2, envelope]` where `envelope = min(cap, base * 2^i)` —
//! "equal jitter", so retries spread out without ever collapsing to
//! zero delay.

use dcnr_server::client::{self, is_integrity_error, ClientResponse};
use dcnr_sim::rng::derive_indexed_seed;
use std::time::{Duration, Instant};

/// Retry/deadline knobs for [`resilient_get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (total attempts =
    /// `retries + 1`).
    pub retries: u32,
    /// Backoff envelope for attempt 0; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the backoff envelope.
    pub backoff_cap: Duration,
    /// Total wall-clock budget for the request including all retries
    /// and backoff waits. When the budget is exhausted the request
    /// fails with whatever cause the last attempt produced.
    pub deadline: Duration,
    /// Per-attempt socket timeout (connect, read, and write each),
    /// additionally clamped to the remaining deadline.
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
            attempt_timeout: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The deterministic wait after failed attempt `attempt` (0-based)
    /// for the stream identified by `seed`.
    ///
    /// Equal-jitter exponential backoff: the envelope is
    /// `min(cap, base * 2^attempt)` and the delay is drawn uniformly
    /// from `[envelope/2, envelope]` using
    /// `derive_indexed_seed(seed, "client.backoff", attempt)` — so the
    /// full schedule is a pure function of `(policy, seed)`.
    pub fn backoff(&self, seed: u64, attempt: u32) -> Duration {
        let env = self.envelope(attempt).as_micros() as u64;
        let half = env / 2;
        let span = env - half;
        let draw = derive_indexed_seed(seed, "client.backoff", u64::from(attempt));
        Duration::from_micros(half + draw % (span + 1))
    }

    /// The backoff envelope (maximum delay) for attempt `attempt`:
    /// `min(cap, base * 2^attempt)`, saturating.
    pub fn envelope(&self, attempt: u32) -> Duration {
        let base = self.backoff_base.as_micros() as u64;
        let scaled = match attempt {
            0..=62 => base.saturating_mul(1u64 << attempt),
            _ => u64::MAX,
        };
        Duration::from_micros(scaled.min(self.backoff_cap.as_micros() as u64))
    }
}

/// Terminal classification of one resilient request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after one or more retries.
    RetriedOk,
    /// Exhausted its budget with the server still shedding (last
    /// failure was a `503`).
    Shed,
    /// Exhausted its budget on transport or server errors, or hit a
    /// terminal `4xx`.
    GaveUp,
    /// Exhausted its budget with the last failure a *detected*
    /// integrity violation (truncated or corrupted body).
    Corrupt,
}

impl Outcome {
    /// Stable snake_case label (metric/JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::RetriedOk => "retried_ok",
            Outcome::Shed => "shed",
            Outcome::GaveUp => "gave_up",
            Outcome::Corrupt => "corrupt",
        }
    }

    /// Whether the request eventually produced a good response.
    pub fn is_success(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::RetriedOk)
    }
}

/// Why an individual attempt failed (retry-cause classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// `503 Service Unavailable` — the server shed the request.
    Shed,
    /// Connect/read/write error or an unparseable response.
    Transport,
    /// Detected body damage: truncation or checksum mismatch.
    Integrity,
    /// A non-503 `5xx` status.
    Status,
}

impl Cause {
    /// Stable snake_case label (metric/JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Cause::Shed => "shed",
            Cause::Transport => "transport",
            Cause::Integrity => "integrity",
            Cause::Status => "status",
        }
    }
}

/// Per-cause retry counts accumulated over one or many requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCauses {
    /// Retries after a `503` shed.
    pub shed: u64,
    /// Retries after transport errors.
    pub transport: u64,
    /// Retries after detected truncation/corruption.
    pub integrity: u64,
    /// Retries after non-503 `5xx` statuses.
    pub status: u64,
}

impl RetryCauses {
    fn bump(&mut self, cause: Cause) {
        match cause {
            Cause::Shed => self.shed += 1,
            Cause::Transport => self.transport += 1,
            Cause::Integrity => self.integrity += 1,
            Cause::Status => self.status += 1,
        }
    }

    /// `(label, count)` rows in a stable order.
    pub fn rows(&self) -> [(&'static str, u64); 4] {
        [
            ("shed", self.shed),
            ("transport", self.transport),
            ("integrity", self.integrity),
            ("status", self.status),
        ]
    }

    /// Total retries across all causes.
    pub fn total(&self) -> u64 {
        self.shed + self.transport + self.integrity + self.status
    }

    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: &RetryCauses) {
        self.shed += other.shed;
        self.transport += other.transport;
        self.integrity += other.integrity;
        self.status += other.status;
    }
}

/// The result of one [`resilient_get`].
#[derive(Debug)]
pub struct FetchResult {
    /// Terminal classification.
    pub outcome: Outcome,
    /// Attempts made (at least 1).
    pub attempts: u32,
    /// Per-cause retry tally (attempts beyond the first, by why the
    /// previous attempt failed).
    pub retries: RetryCauses,
    /// Final HTTP status, when the last attempt got one.
    pub status: Option<u16>,
    /// The successful response (present iff `outcome.is_success()`).
    pub response: Option<ClientResponse>,
    /// The last error message, when the request did not succeed.
    pub error: Option<String>,
    /// Wall-clock time spent including backoff waits.
    pub elapsed: Duration,
}

/// Classifies a single attempt's failure.
fn classify_error(e: &std::io::Error) -> Cause {
    if is_integrity_error(e) {
        Cause::Integrity
    } else {
        Cause::Transport
    }
}

/// `Retry-After: N` (seconds) from a 503, as a duration.
fn retry_after(resp: &ClientResponse) -> Option<Duration> {
    resp.header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// Issues `GET {target}` against `addr` with retries under `policy`.
///
/// The retry loop:
/// * `200` succeeds; anything else classifies a cause.
/// * `503` is retryable and honors the server's `Retry-After` (clamped
///   to the remaining deadline) instead of the backoff schedule.
/// * other `5xx` and all transport/integrity errors retry on the
///   deterministic backoff schedule for `seed`.
/// * `4xx` (except 408/429, which the server never emits) is terminal
///   — the request is wrong, retrying cannot help.
///
/// The loop stops when an attempt succeeds, the retry budget is spent,
/// or the next wait would overrun the deadline.
pub fn resilient_get(addr: &str, target: &str, policy: &RetryPolicy, seed: u64) -> FetchResult {
    let start = Instant::now();
    let deadline = start + policy.deadline;
    let mut retries = RetryCauses::default();
    let mut attempts = 0u32;
    let mut last_cause = Cause::Transport;
    let mut last_status = None;
    let mut last_error = None;

    loop {
        let now = Instant::now();
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            break;
        }
        let timeout = policy
            .attempt_timeout
            .min(remaining)
            .max(Duration::from_millis(1));
        let attempt = attempts;
        attempts += 1;
        let (cause, wait) = match client::get(addr, target, Some(timeout)) {
            Ok(resp) if resp.status == 200 => {
                return FetchResult {
                    outcome: if attempt == 0 {
                        Outcome::Ok
                    } else {
                        Outcome::RetriedOk
                    },
                    attempts,
                    retries,
                    status: Some(200),
                    response: Some(resp),
                    error: None,
                    elapsed: start.elapsed(),
                };
            }
            Ok(resp) if resp.status == 503 => {
                last_status = Some(503);
                last_error = Some("503 Service Unavailable (shed)".to_string());
                (Cause::Shed, retry_after(&resp))
            }
            Ok(resp) if resp.status >= 500 => {
                last_status = Some(resp.status);
                last_error = Some(format!("server error {}", resp.status));
                (Cause::Status, None)
            }
            Ok(resp) => {
                // 4xx: terminal — a malformed request stays malformed.
                return FetchResult {
                    outcome: Outcome::GaveUp,
                    attempts,
                    retries,
                    status: Some(resp.status),
                    response: None,
                    error: Some(format!("terminal status {}", resp.status)),
                    elapsed: start.elapsed(),
                };
            }
            Err(e) => {
                last_status = None;
                last_error = Some(e.to_string());
                (classify_error(&e), None)
            }
        };
        last_cause = cause;
        if attempts > policy.retries {
            break;
        }
        retries.bump(cause);
        let wait = wait
            .unwrap_or_else(|| policy.backoff(seed, attempt))
            .min(deadline.saturating_duration_since(Instant::now()));
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    FetchResult {
        outcome: match last_cause {
            Cause::Shed => Outcome::Shed,
            Cause::Integrity => Outcome::Corrupt,
            Cause::Transport | Cause::Status => Outcome::GaveUp,
        },
        attempts,
        retries,
        status: last_status,
        response: None,
        error: last_error,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        for attempt in 0..10 {
            let a = p.backoff(9, attempt);
            let b = p.backoff(9, attempt);
            assert_eq!(a, b, "attempt {attempt} not deterministic");
            let env = p.envelope(attempt);
            assert!(env <= p.backoff_cap);
            assert!(a <= env, "attempt {attempt}: {a:?} > envelope {env:?}");
            assert!(a >= env / 2, "attempt {attempt}: {a:?} < half envelope");
        }
        // Envelopes double until the cap: 50ms, 100ms, ..., then clamp.
        assert_eq!(p.envelope(0), Duration::from_millis(50));
        assert_eq!(p.envelope(1), Duration::from_millis(100));
        assert_eq!(p.envelope(10), p.backoff_cap);
        assert_eq!(p.envelope(200), p.backoff_cap);
        // Different seeds jitter differently somewhere in the schedule.
        assert!((0..10).any(|i| p.backoff(1, i) != p.backoff(2, i)));
    }

    #[test]
    fn outcome_and_cause_labels_are_stable() {
        assert_eq!(Outcome::Ok.label(), "ok");
        assert_eq!(Outcome::RetriedOk.label(), "retried_ok");
        assert_eq!(Outcome::Shed.label(), "shed");
        assert_eq!(Outcome::GaveUp.label(), "gave_up");
        assert_eq!(Outcome::Corrupt.label(), "corrupt");
        assert!(Outcome::Ok.is_success() && Outcome::RetriedOk.is_success());
        assert!(!Outcome::Shed.is_success());
        let mut c = RetryCauses::default();
        c.bump(Cause::Shed);
        c.bump(Cause::Integrity);
        c.bump(Cause::Integrity);
        assert_eq!(c.total(), 3);
        assert_eq!(c.rows()[2], ("integrity", 2));
    }

    /// A one-shot TCP fixture: each accepted connection gets the next
    /// scripted raw response (connection closed after writing).
    pub(crate) fn scripted_server(responses: Vec<Vec<u8>>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for resp in responses {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let _ = conn.write_all(&resp);
            }
        });
        addr
    }

    pub(crate) fn ok_response(body: &[u8]) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Dcnr-Checksum: {:016x}\r\n\r\n",
            body.len(),
            dcnr_server::body_checksum(body)
        )
        .into_bytes()
        .into_iter()
        .chain(body.iter().copied())
        .collect()
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            deadline: Duration::from_secs(5),
            attempt_timeout: Duration::from_secs(1),
        }
    }

    #[test]
    fn first_try_success_is_ok() {
        let addr = scripted_server(vec![ok_response(b"hello")]);
        let r = resilient_get(&addr, "/", &quick_policy(), 7);
        assert_eq!(r.outcome, Outcome::Ok);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.retries.total(), 0);
        assert_eq!(r.response.unwrap().body, b"hello");
    }

    #[test]
    fn shed_then_success_is_retried_ok_and_honors_retry_after() {
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n"
                .to_vec();
        let addr = scripted_server(vec![shed, ok_response(b"ok")]);
        let r = resilient_get(&addr, "/", &quick_policy(), 7);
        assert_eq!(r.outcome, Outcome::RetriedOk);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.retries.shed, 1);
        assert!(r.response.is_some());
    }

    #[test]
    fn persistent_truncation_classifies_as_corrupt() {
        // Content-Length says 10, body has 5 bytes — every attempt is a
        // detected integrity failure.
        let bad = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort".to_vec();
        let addr = scripted_server(vec![bad.clone(), bad.clone(), bad.clone(), bad]);
        let r = resilient_get(&addr, "/", &quick_policy(), 7);
        assert_eq!(r.outcome, Outcome::Corrupt);
        assert_eq!(r.attempts, 4);
        assert_eq!(r.retries.integrity, 3);
        assert!(r.error.unwrap().contains("truncated"));
    }

    #[test]
    fn terminal_4xx_gives_up_without_retrying() {
        let nf = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec();
        let addr = scripted_server(vec![nf]);
        let r = resilient_get(&addr, "/nope", &quick_policy(), 7);
        assert_eq!(r.outcome, Outcome::GaveUp);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.status, Some(404));
        assert_eq!(r.retries.total(), 0);
    }

    #[test]
    fn exhausted_transport_retries_give_up() {
        // Nothing listening: connect refused every time.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let r = resilient_get(&addr, "/", &quick_policy(), 7);
        assert_eq!(r.outcome, Outcome::GaveUp);
        assert_eq!(r.attempts, 4);
        assert_eq!(r.retries.transport, 3);
    }
}
