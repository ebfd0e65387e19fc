//! # dcnr-stats
//!
//! Statistics foundation for the `dcnr` reliability study — the numerical
//! toolkit behind every table and figure of *"A Large Scale Study of Data
//! Center Network Reliability"* (IMC'18).
//!
//! The paper's analysis reduces to a small set of statistical operations,
//! all of which are implemented here from scratch (no external stats
//! dependencies):
//!
//! * **Summaries** ([`summary`]) — mean, variance, standard deviation,
//!   min/max, and percentiles with linear interpolation. Used for every
//!   "50% of edges fail less than once every 1710 h"-style statement.
//! * **Empirical distributions** ([`ecdf`]) — sorted percentile curves of
//!   the kind plotted in Figures 15–18 ("MTBF as a function of the
//!   percentage of edges with that MTBF or lower").
//! * **Exponential model fitting** ([`expfit`]) — least-squares fits of
//!   `y = a·e^(b·p)` with the coefficient of determination `R²`, exactly
//!   the models the paper reports (`MTBF_edge(p) = 462.88·e^{2.3408·p}`,
//!   `R² = 0.94`, and friends).
//! * **Linear fitting and correlation** ([`linfit`]) — used for the
//!   switches-vs-employees proportionality claim (Fig. 6) and the
//!   p75IRT-vs-fleet-size correlation (Fig. 14).
//! * **Samplers** ([`dist`]) — exponential and categorical samplers
//!   used by the failure generators.
//! * **Time series helpers** ([`timeseries`]) — yearly bucketing used by
//!   every longitudinal figure (Figs. 3, 5, 7–13).
//! * **Renewal-process estimators** ([`renewal`]) — MTBF/MTTR estimation
//!   from alternating up/down interval logs, including right-censoring of
//!   the trailing up interval.
//! * **Kaplan–Meier survival estimation** ([`kaplan`]) — the principled
//!   treatment of right-censored time-to-failure data (entities that
//!   never failed inside the observation window).
//! * **Cross-replica aggregation** ([`aggregate`](mod@aggregate)) — folding per-seed
//!   sweep measurements into mean/σ/percentile bands with bootstrap
//!   confidence intervals for the mean, so paper point estimates can be
//!   compared against a measured band instead of a single realization.
//!
//! Everything is deterministic and allocation-conscious; functions accept
//! slices and never touch global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bootstrap;
pub mod dist;
pub mod ecdf;
pub mod expfit;
pub mod kaplan;
pub mod linfit;
pub mod renewal;
pub mod summary;
pub mod timeseries;

pub use aggregate::{aggregate, aggregate_partial, bootstrap_mean, fold, Band, PartialBand};
pub use bootstrap::{bootstrap_exponential_fit, BootstrapFit, ParamInterval};
pub use dist::{Categorical, Exponential, Sampler};
pub use ecdf::{Ecdf, QuantileCurve};
pub use expfit::{fit_exponential, ExpFit};
pub use kaplan::{KaplanMeier, Observation};
pub use linfit::{fit_linear, pearson_correlation, LinFit};
pub use renewal::{RenewalEstimate, RenewalLog};
pub use summary::Summary;
pub use timeseries::YearSeries;
