//! The per-experiment index: every table and figure as a named
//! artifact identity with paper-vs-measured comparison rows.
//!
//! [`Experiment`] is the artifact identity: one variant per registry
//! row, in paper order. Its key, title, study and renderer are columns
//! of the [`crate::artifacts`] registry, which the scenario engine
//! ([`crate::scenario`]) renders study by study; this module runs
//! nothing.

use crate::artifacts;
use std::fmt;

/// One paper artifact to reproduce. Variants are declared in registry
/// (paper) order, so `e as usize` is `e`'s row in
/// [`artifacts::registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Table 1 — automated repair characteristics.
    Table1,
    /// Table 2 — root-cause distribution.
    Table2,
    /// Fig. 2 — root causes by device type.
    Fig2,
    /// Fig. 3 — incident rate per device type per year.
    Fig3,
    /// Fig. 4 — SEV severity distribution by device (2017).
    Fig4,
    /// Fig. 5 — SEV rates over time by severity.
    Fig5,
    /// Fig. 6 — switches vs. employees.
    Fig6,
    /// Fig. 7 — incident fraction by device type per year.
    Fig7,
    /// Fig. 8 — incidents normalized to the 2017 total.
    Fig8,
    /// Fig. 9 — incidents by network design.
    Fig9,
    /// Fig. 10 — incidents per device by network design.
    Fig10,
    /// Fig. 11 — population breakdown by device type.
    Fig11,
    /// Fig. 12 — MTBI per device type.
    Fig12,
    /// Fig. 13 — p75 incident resolution time.
    Fig13,
    /// Fig. 14 — p75IRT vs. fleet size.
    Fig14,
    /// Fig. 15 — edge MTBF percentile curve and model.
    Fig15,
    /// Fig. 16 — edge MTTR percentile curve and model.
    Fig16,
    /// Fig. 17 — vendor MTBF percentile curve and model.
    Fig17,
    /// Fig. 18 — vendor MTTR percentile curve and model.
    Fig18,
    /// Table 4 — edge reliability by continent.
    Table4,
    /// `routes.capacity` — ECMP capacity loss by device type.
    RoutesCapacity,
    /// `routes.severity_mix` — emergent SEV mix vs. Table 3's 82/13/5.
    RoutesSeverityMix,
    /// `routes.workload` — workload degradation under k failures.
    RoutesWorkload,
    /// `surv.ranking` — zoo survivability vs failed element fraction.
    SurvRanking,
    /// `surv.lifespan` — Monte-Carlo fleet lifespan curve.
    SurvLifespan,
}

impl Experiment {
    /// Short stable key, used to qualify metric names when comparisons
    /// from many artifacts are flattened into one list (the backbone
    /// figures all emit "median (h)", "fit a", ... locally).
    pub fn key(self) -> &'static str {
        artifacts::descriptor(self).key
    }

    /// Short title.
    pub fn title(self) -> &'static str {
        artifacts::descriptor(self).title
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.title())
    }
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared.
    pub metric: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Relative deviation `|measured - paper| / |paper|`.
    pub fn relative_error(&self) -> f64 {
        if self.paper == 0.0 {
            if self.measured == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.measured - self.paper).abs() / self.paper.abs()
        }
    }
}

/// The result of running one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Which experiment ran.
    pub experiment: Experiment,
    /// The rendered artifact (the text the bench prints).
    pub rendered: String,
    /// Paper-vs-measured comparisons for EXPERIMENTS.md.
    pub comparisons: Vec<Comparison>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_metadata() {
        assert_eq!(Experiment::Table4.key(), "table4");
        assert_eq!(Experiment::SurvLifespan.key(), "surv.lifespan");
        assert!(Experiment::Fig12.title().contains("time between incidents"));
        assert_eq!(Experiment::Fig12.to_string(), Experiment::Fig12.title());
    }

    #[test]
    fn comparison_relative_error() {
        let c = Comparison {
            metric: "x".into(),
            paper: 2.0,
            measured: 2.2,
        };
        assert!((c.relative_error() - 0.1).abs() < 1e-12);
        let z = Comparison {
            metric: "z".into(),
            paper: 0.0,
            measured: 0.0,
        };
        assert_eq!(z.relative_error(), 0.0);
    }
}
