//! # dcnr-server
//!
//! The serving substrate for the `dcnr serve` report server: a minimal
//! HTTP/1.1 stack on `std::net::TcpListener` with the operational
//! properties a credible serving layer needs and nothing else.
//!
//! * [`http`] — request parsing and response rendering for the subset
//!   of HTTP/1.1 the server speaks (GET, one request per connection,
//!   `Connection: close`).
//! * [`pool`] — the server proper: a fixed worker thread pool fed by a
//!   **bounded** accept queue. When the queue is full the accept loop
//!   sheds the connection immediately with `503 Service Unavailable` +
//!   `Retry-After: 1` instead of letting latency pile up unbounded.
//!   The whole request head must arrive within the read timeout (a
//!   peer trickling it byte by byte is answered `408`), a write
//!   timeout bounds slow readers, and shutdown drains queued
//!   connections before the workers exit.
//! * [`cache`] — a small LRU map the application layer keys its
//!   rendered-artifact result cache with.
//! * [`client`] — a minimal blocking HTTP GET client, used by the
//!   `dcnr loadgen` closed-loop harness and the CI smoke. Cross-checks
//!   `Content-Length` and the `X-Dcnr-Checksum` body hash, so
//!   truncation and corruption are always *detected* failures.
//! * [`chaos`] — seeded transport fault injection (delays, resets,
//!   truncation, corruption, stalls) behind a deterministic
//!   [`chaos::FaultPlan`]; zero-cost when off, byte-identical when all
//!   rates are zero.
//! * [`breaker`] — a per-route circuit breaker with half-open probes,
//!   used by the application layer around the render path.
//! * [`signal`] — a SIGINT latch so the CLI can drain gracefully on
//!   Ctrl-C.
//!
//! Like `dcnr-telemetry`, this crate has **no dependencies at all** —
//! not even workspace crates — so the transport layer stays trivially
//! auditable and can never feed back into simulation state. Everything
//! dcnr-specific (artifact rendering, cache keying, metrics) lives in
//! `dcnr-core::serve`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod http;
pub mod pool;
pub mod signal;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::LruCache;
pub use chaos::{ChaosState, ConnFaults, FaultPlan};
pub use client::{get, ClientResponse};
pub use http::{body_checksum, percent_decode, Request, Response};
pub use pool::{Handler, Server, ServerConfig, ServerStats};
