//! # dcnr-sim
//!
//! Simulated time and seeded randomness for the `dcnr` reliability
//! study.
//!
//! The paper analyzes seven years (2011–2018) of intra-datacenter
//! service-level events and eighteen months (October 2016 – April 2018)
//! of backbone repair tickets. This crate supplies the clockwork those
//! simulations run on:
//!
//! * [`time`] — [`time::SimTime`] (integer seconds since
//!   2011-01-01T00:00Z) and [`time::SimDuration`], plus a
//!   civil calendar so events can be bucketed by calendar year exactly as
//!   the paper's SQL queries bucket SEVs.
//! * [`rng`] — seed derivation ([`rng::derive_seed`]) giving
//!   every subsystem an independent, stable random stream from one master
//!   seed: adding draws to one component never perturbs another.
//!
//! Design rule: **no wall-clock access anywhere** — all time comes from
//! the simulated clock, all randomness from seeded streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;

pub use rng::{derive_indexed_seed, derive_seed, seed_sequence, stream_rng};
pub use time::{SimDuration, SimTime, StudyCalendar};
