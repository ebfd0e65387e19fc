//! The artifact registry: one descriptor per paper table/figure.
//!
//! Each [`Artifact`] names its experiment id, key and title, the study
//! it pulls from, the paper's baseline values (as prose, for reports and
//! docs), and a render function that reads the **shared**
//! [`RunContext`] — never re-running a pipeline. This is the one
//! artifact list: adding an artifact is adding an [`Experiment`] variant
//! and its row here, and the run-plan layer derives required studies
//! from it.

use crate::error::DcnrError;
use crate::experiments::{Comparison, Experiment, ExperimentOutcome};
use crate::report;
use crate::routes;
use crate::scenario::{RunContext, ScenarioKind, StudyKind};
use crate::survivability;
use dcnr_backbone::PaperModels;
use dcnr_faults::{calibration, RootCause};
use dcnr_sev::SevLevel;
use dcnr_topology::{DeviceType, NetworkDesign};
use std::fmt::Write as _;

/// One paper artifact: identity, provenance, baseline, renderer.
pub struct Artifact {
    /// The experiment this artifact reproduces; `id as usize` is this
    /// row's index in [`registry`].
    pub id: Experiment,
    /// Short stable id (`fig15`, `surv.lifespan`): what `dcnr artifact`
    /// and `/artifacts/{id}` resolve, and the prefix of flattened
    /// comparison metric names.
    pub key: &'static str,
    /// Title line printed above the rendered artifact.
    pub title: &'static str,
    /// Which study's cached output it reads.
    pub study: StudyKind,
    /// The paper's reported baseline, as prose.
    pub paper_baseline: &'static str,
    /// Renders the artifact from the shared context.
    pub render: fn(&RunContext) -> ExperimentOutcome,
}

/// Every artifact, in paper order (the [`Experiment`] declaration
/// order).
pub fn registry() -> &'static [Artifact; 25] {
    &REGISTRY
}

/// The descriptor for `e`: row `e as usize` of the registry, which the
/// registry order test checks for every row.
pub fn descriptor(e: Experiment) -> &'static Artifact {
    &REGISTRY[e as usize]
}

/// Resolves an artifact id (`fig15`, `surv.lifespan`). An unknown id is
/// a usage error listing every registered id in registry order: the one
/// message `dcnr artifact`, `dcnr loadgen --artifacts` and the server's
/// `/artifacts/{id}` 404 share.
pub fn lookup(id: &str) -> Result<Experiment, DcnrError> {
    REGISTRY
        .iter()
        .find(|a| a.key == id)
        .map(|a| a.id)
        .ok_or_else(|| {
            let valid: Vec<&str> = REGISTRY.iter().map(|a| a.key).collect();
            DcnrError::Usage(format!(
                "unknown artifact {id:?} (valid: {})",
                valid.join(", ")
            ))
        })
}

/// The scenario kind whose default configuration produces `e` — the
/// base the CLI `dcnr artifact` command and the report server's
/// `/artifacts/{id}` endpoint both start from before applying flags.
pub fn base_kind(e: Experiment) -> ScenarioKind {
    match descriptor(e).study {
        StudyKind::Intra => ScenarioKind::Intra,
        StudyKind::Backbone => ScenarioKind::Backbone,
        StudyKind::Chaos => ScenarioKind::Chaos,
        StudyKind::Routes => ScenarioKind::Routes,
        StudyKind::Survivability => ScenarioKind::Survivability,
    }
}

/// Renders one artifact's report block: separator, title, separator,
/// the artifact body, then its paper-vs-measured comparison rows. This
/// is the exact per-artifact block [`RunContext::execute`] emits, so a
/// single-artifact rendering (CLI `dcnr artifact`, server
/// `/artifacts/{id}`) is byte-identical to the corresponding slice of
/// the full scenario report.
pub fn render_block(out: &ExperimentOutcome) -> String {
    let mut rendered = String::new();
    let _ = writeln!(
        rendered,
        "----------------------------------------------------------"
    );
    let _ = writeln!(rendered, "{}", out.experiment.title());
    let _ = writeln!(
        rendered,
        "----------------------------------------------------------"
    );
    let _ = writeln!(rendered, "{}", out.rendered);
    for c in &out.comparisons {
        let _ = writeln!(
            rendered,
            "  {:<40} paper {:>12.4}  measured {:>12.4}",
            c.metric, c.paper, c.measured
        );
    }
    rendered
}

static REGISTRY: [Artifact; 25] = [
    Artifact {
        id: Experiment::Table1,
        key: "table1",
        title: "Table 1: automated repair ratio/priority/wait/repair time",
        study: StudyKind::Intra,
        paper_baseline: "automated repair ratio Core 75% / FSW 99.5% / RSW 99.7%; \
                         RSW avg wait 1 d, avg repair 2.91 s",
        render: table1,
    },
    Artifact {
        id: Experiment::Table2,
        key: "table2",
        title: "Table 2: root causes of intra-DC incidents",
        study: StudyKind::Intra,
        paper_baseline: "maintenance 17%, hardware 13%, misconfiguration 13%, bug 12%, \
                         undetermined 29% of intra-DC SEVs",
        render: table2,
    },
    Artifact {
        id: Experiment::Fig2,
        key: "fig2",
        title: "Fig. 2: root-cause distribution by device type",
        study: StudyKind::Intra,
        paper_baseline: "ESWs record no bug-rooted SEVs; core devices dominate \
                         maintenance-rooted SEVs",
        render: fig2,
    },
    Artifact {
        id: Experiment::Fig3,
        key: "fig3",
        title: "Fig. 3: incident rate per device type per year",
        study: StudyKind::Intra,
        paper_baseline: "CSA rate 1.7 (2013) and 1.5 (2014); Core/RSW 2017 rates \
                         anchored to MTBI calibration",
        render: fig3,
    },
    Artifact {
        id: Experiment::Fig4,
        key: "fig4",
        title: "Fig. 4: SEV levels by device type (2017)",
        study: StudyKind::Intra,
        paper_baseline: "2017 SEV shares: SEV3 82%, SEV2 13%, SEV1 5%",
        render: fig4,
    },
    Artifact {
        id: Experiment::Fig5,
        key: "fig5",
        title: "Fig. 5: SEV rate per device over time",
        study: StudyKind::Intra,
        paper_baseline: "SEV3 per-device rate peaks mid-study, not in 2017",
        render: fig5,
    },
    Artifact {
        id: Experiment::Fig6,
        key: "fig6",
        title: "Fig. 6: switches vs employees",
        study: StudyKind::Intra,
        paper_baseline: "switch count grows linearly with employees (Pearson r ≈ 1)",
        render: fig6,
    },
    Artifact {
        id: Experiment::Fig7,
        key: "fig7",
        title: "Fig. 7: fraction of incidents by device type",
        study: StudyKind::Intra,
        paper_baseline: "2017 incident shares: Core 66%, RSW 20%, FSW 8%, ESW 3%, SSW 2%",
        render: fig7,
    },
    Artifact {
        id: Experiment::Fig8,
        key: "fig8",
        title: "Fig. 8: incidents normalized to 2017 total",
        study: StudyKind::Intra,
        paper_baseline: "total SEVs grew 9.4× from 2011 to 2017",
        render: fig8,
    },
    Artifact {
        id: Experiment::Fig9,
        key: "fig9",
        title: "Fig. 9: incidents by network design",
        study: StudyKind::Intra,
        paper_baseline: "fabric incidents ≈ half of cluster incidents in 2017",
        render: fig9,
    },
    Artifact {
        id: Experiment::Fig10,
        key: "fig10",
        title: "Fig. 10: incidents per device by network design",
        study: StudyKind::Intra,
        paper_baseline: "cluster per-device incident rate ≈ 3.2× fabric in 2017",
        render: fig10,
    },
    Artifact {
        id: Experiment::Fig11,
        key: "fig11",
        title: "Fig. 11: population breakdown by device type",
        study: StudyKind::Intra,
        paper_baseline: "RSWs ≈ 90% of the 2017 fleet; no FSWs before the fabric rollout",
        render: fig11,
    },
    Artifact {
        id: Experiment::Fig12,
        key: "fig12",
        title: "Fig. 12: mean time between incidents",
        study: StudyKind::Intra,
        paper_baseline: "2017 MTBI: Core ≈ 39,495 h, RSW ≈ 9.5 Mh; fabric/cluster ≈ 3.2×",
        render: fig12,
    },
    Artifact {
        id: Experiment::Fig13,
        key: "fig13",
        title: "Fig. 13: p75 incident resolution time",
        study: StudyKind::Intra,
        paper_baseline: "p75 incident resolution time grew across device types 2011→2017",
        render: fig13,
    },
    Artifact {
        id: Experiment::Fig14,
        key: "fig14",
        title: "Fig. 14: p75IRT vs fleet size",
        study: StudyKind::Intra,
        paper_baseline: "p75IRT correlates positively with normalized fleet size",
        render: fig14,
    },
    Artifact {
        id: Experiment::Fig15,
        key: "fig15",
        title: "Fig. 15: edge MTBF percentile curve",
        study: StudyKind::Backbone,
        paper_baseline: "edge MTBF(p) = 462.88·e^{2.3408p} h, R² = 0.94",
        render: fig15,
    },
    Artifact {
        id: Experiment::Fig16,
        key: "fig16",
        title: "Fig. 16: edge MTTR percentile curve",
        study: StudyKind::Backbone,
        paper_baseline: "edge MTTR(p) = 1.23·e^{1.0741p} h, R² = 0.87",
        render: fig16,
    },
    Artifact {
        id: Experiment::Fig17,
        key: "fig17",
        title: "Fig. 17: vendor MTBF percentile curve",
        study: StudyKind::Backbone,
        paper_baseline: "vendor MTBF(p) = 336.51·e^{3.4371p} h, R² = 0.87",
        render: fig17,
    },
    Artifact {
        id: Experiment::Fig18,
        key: "fig18",
        title: "Fig. 18: vendor MTTR percentile curve",
        study: StudyKind::Backbone,
        paper_baseline: "vendor MTTR(p) = 2.32·e^{1.1072p} h, R² = 0.61",
        render: fig18,
    },
    Artifact {
        id: Experiment::Table4,
        key: "table4",
        title: "Table 4: edge reliability by continent",
        study: StudyKind::Backbone,
        paper_baseline: "edge share / MTBF / MTTR per continent; North America carries \
                         the largest edge share",
        render: table4,
    },
    Artifact {
        id: Experiment::RoutesCapacity,
        key: "routes.capacity",
        title: "routes.capacity: ECMP capacity loss by device type",
        study: StudyKind::Routes,
        paper_baseline: "forwarding-state reachability exactly equals BFS; ECMP \
                         fractions sum to 1; scratch blast sweep matches the \
                         allocating oracle",
        render: routes_capacity,
    },
    Artifact {
        id: Experiment::RoutesSeverityMix,
        key: "routes.severity_mix",
        title: "routes.severity_mix: emergent SEV mix vs Table 3 (82/13/5)",
        study: StudyKind::Routes,
        paper_baseline: "2017 SEV shares emerge as SEV3 82%, SEV2 13%, SEV1 5% \
                         (±0.05) with no Table 3 sampling on the intra-DC path",
        render: routes_severity_mix,
    },
    Artifact {
        id: Experiment::RoutesWorkload,
        key: "routes.workload",
        title: "routes.workload: degradation under k failures (cf. arXiv:1808.06115)",
        study: StudyKind::Routes,
        paper_baseline: "job slowdown stays >= 1 and the failed-job fraction grows \
                         monotonically with concurrent failures (cf. arXiv:1808.06115 §5)",
        render: routes_workload,
    },
    Artifact {
        id: Experiment::SurvRanking,
        key: "surv.ranking",
        title: "surv.ranking: zoo survivability vs failed fraction (cf. arXiv:1510.02735)",
        study: StudyKind::Survivability,
        paper_baseline: "server-centric designs out-survive switch-centric ones under \
                         switch failures and the ranking inverts under server failures \
                         (arXiv:1510.02735 §4)",
        render: surv_ranking,
    },
    Artifact {
        id: Experiment::SurvLifespan,
        key: "surv.lifespan",
        title: "surv.lifespan: Monte-Carlo fleet lifespan (cf. arXiv:1401.7528)",
        study: StudyKind::Survivability,
        paper_baseline: "Monte-Carlo element lifetimes yield smoothly decaying fleet \
                         capacity with seed-to-seed bands (arXiv:1401.7528 §III)",
        render: surv_lifespan,
    },
];

fn cmp(metric: impl Into<String>, paper: f64, measured: f64) -> Comparison {
    Comparison {
        metric: metric.into(),
        paper,
        measured,
    }
}

fn table1(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.intra();
    let report = s.table1_automated_repair();
    let mut comparisons = Vec::new();
    let anchors = [
        (DeviceType::Core, 0.75, 0.0, 240.0, 30.1),
        (DeviceType::Fsw, 0.995, 2.25, 3.0 * 86_400.0, 4.45),
        (DeviceType::Rsw, 0.997, 2.22, 86_400.0, 2.91),
    ];
    for (t, ratio, prio, wait, exec) in anchors {
        if let Some(row) = report.row(t) {
            comparisons.push(cmp(format!("{t} repair ratio"), ratio, row.repair_ratio()));
            comparisons.push(cmp(format!("{t} avg priority"), prio, row.avg_priority));
            comparisons.push(cmp(format!("{t} avg wait (s)"), wait, row.avg_wait_secs));
            comparisons.push(cmp(format!("{t} avg repair (s)"), exec, row.avg_exec_secs));
        }
    }
    ExperimentOutcome {
        experiment: Experiment::Table1,
        rendered: report::render_table1(&report),
        comparisons,
    }
}

fn table2(ctx: &RunContext) -> ExperimentOutcome {
    let shares = ctx.intra().table2_root_causes();
    let comparisons = RootCause::ALL
        .iter()
        .map(|&c| {
            cmp(
                format!("{c} share"),
                c.paper_share() / 0.99, // paper column sums to 0.99
                shares.get(&c).copied().unwrap_or(0.0),
            )
        })
        .collect();
    ExperimentOutcome {
        experiment: Experiment::Table2,
        rendered: report::render_table2(&shares),
        comparisons,
    }
}

fn fig2(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig2_root_cause_by_device();
    let mut rendered = String::from("Fig. 2: per-root-cause device mix\n");
    let mut comparisons = Vec::new();
    for (cause, mix) in &data {
        rendered.push_str(&format!("{cause:<20}"));
        for t in DeviceType::INTRA_DC {
            rendered.push_str(&format!(
                " {}={:.2}",
                t,
                mix.get(&t).copied().unwrap_or(0.0)
            ));
        }
        rendered.push('\n');
    }
    // §5.1: ESWs record no bug-rooted SEVs.
    let esw_bug = data
        .get(&RootCause::Bug)
        .and_then(|m| m.get(&DeviceType::Esw))
        .copied()
        .unwrap_or(0.0);
    comparisons.push(cmp("ESW share of bug SEVs", 0.0, esw_bug));
    ExperimentOutcome {
        experiment: Experiment::Fig2,
        rendered,
        comparisons,
    }
}

fn fig3(ctx: &RunContext) -> ExperimentOutcome {
    let rates = ctx.intra().fig3_incident_rate();
    let rendered =
        report::render_type_year_table("Fig. 3: incidents per device per year", &rates, 4);
    let comparisons = vec![
        cmp("CSA rate 2013", 1.7, rates[&DeviceType::Csa].get(2013)),
        cmp("CSA rate 2014", 1.5, rates[&DeviceType::Csa].get(2014)),
        cmp(
            "Core rate 2017",
            8760.0 / calibration::MTBI_CORE_2017_HOURS,
            rates[&DeviceType::Core].get(2017),
        ),
        cmp(
            "RSW rate 2017",
            8760.0 / calibration::MTBI_RSW_2017_HOURS,
            rates[&DeviceType::Rsw].get(2017),
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::Fig3,
        rendered,
        comparisons,
    }
}

fn fig4(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig4_severity_by_device();
    let mut rendered = String::from("Fig. 4: 2017 SEV levels by device type\n");
    for (level, (share, mix)) in &data {
        rendered.push_str(&format!("{level} (N={:.0}%)", share * 100.0));
        for t in DeviceType::INTRA_DC {
            rendered.push_str(&format!(
                " {}={:.2}",
                t,
                mix.get(&t).copied().unwrap_or(0.0)
            ));
        }
        rendered.push('\n');
    }
    let share = |l: SevLevel| data.get(&l).map(|(s, _)| *s).unwrap_or(0.0);
    let comparisons = vec![
        cmp("SEV3 share 2017", 0.82, share(SevLevel::Sev3)),
        cmp("SEV2 share 2017", 0.13, share(SevLevel::Sev2)),
        cmp("SEV1 share 2017", 0.05, share(SevLevel::Sev1)),
    ];
    ExperimentOutcome {
        experiment: Experiment::Fig4,
        rendered,
        comparisons,
    }
}

fn fig5(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig5_sev_rates();
    let mut rendered = String::from("Fig. 5: SEVs per device by severity\n");
    for (level, series) in &data {
        rendered.push_str(&format!("{level:<6}"));
        for (y, v) in series.points() {
            rendered.push_str(&format!(" {y}:{v:.2e}"));
        }
        rendered.push('\n');
    }
    // The inflection claim: SEV3 rate peaks mid-study, not in 2017.
    let sev3 = &data[&SevLevel::Sev3];
    let peak = sev3
        .points()
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::MIN, f64::max);
    let comparisons = vec![cmp(
        "SEV3 2017 rate / peak rate < 1",
        0.5,
        sev3.get(2017) / peak,
    )];
    ExperimentOutcome {
        experiment: Experiment::Fig5,
        rendered,
        comparisons,
    }
}

fn fig6(ctx: &RunContext) -> ExperimentOutcome {
    let (pts, r) = ctx.intra().fig6_switches_vs_employees();
    let rendered = report::render_scatter("Fig. 6: normalized switches vs employees", &pts, r);
    let comparisons = vec![cmp("switches-vs-employees Pearson r", 1.0, r)];
    ExperimentOutcome {
        experiment: Experiment::Fig6,
        rendered,
        comparisons,
    }
}

fn fig7(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig7_incident_fractions();
    let rendered =
        report::render_type_year_table("Fig. 7: fraction of incidents by device type", &data, 3);
    let comparisons = vec![
        cmp(
            "Core fraction 2017",
            calibration::SHARE_CORE_2017,
            data[&DeviceType::Core].get(2017),
        ),
        cmp(
            "RSW fraction 2017",
            calibration::SHARE_RSW_2017,
            data[&DeviceType::Rsw].get(2017),
        ),
        cmp("FSW fraction 2017", 0.08, data[&DeviceType::Fsw].get(2017)),
        cmp("ESW fraction 2017", 0.03, data[&DeviceType::Esw].get(2017)),
        cmp("SSW fraction 2017", 0.02, data[&DeviceType::Ssw].get(2017)),
    ];
    ExperimentOutcome {
        experiment: Experiment::Fig7,
        rendered,
        comparisons,
    }
}

fn fig8(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig8_normalized_incidents();
    let rendered = report::render_type_year_table(
        "Fig. 8: incidents normalized to the 2017 SEV total",
        &data,
        3,
    );
    // 9.4× growth of the total.
    let total_2011: f64 = data.values().map(|s| s.get(2011)).sum();
    let total_2017: f64 = data.values().map(|s| s.get(2017)).sum();
    let comparisons = vec![cmp(
        "total SEV growth 2011→2017",
        calibration::SEV_GROWTH_2011_2017,
        if total_2011 > 0.0 {
            total_2017 / total_2011
        } else {
            0.0
        },
    )];
    ExperimentOutcome {
        experiment: Experiment::Fig8,
        rendered,
        comparisons,
    }
}

fn fig9(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig9_design_incidents();
    let mut rendered = String::from("Fig. 9: incidents by network design (2017 baseline)\n");
    for (d, series) in &data {
        rendered.push_str(&format!("{d:<8}"));
        for (y, v) in series.points() {
            rendered.push_str(&format!(" {y}:{v:.3}"));
        }
        rendered.push('\n');
    }
    let fabric = data[&NetworkDesign::Fabric].get(2017);
    let cluster = data[&NetworkDesign::Cluster].get(2017);
    let comparisons = vec![cmp(
        "fabric/cluster incidents 2017",
        0.5,
        if cluster > 0.0 { fabric / cluster } else { 0.0 },
    )];
    ExperimentOutcome {
        experiment: Experiment::Fig9,
        rendered,
        comparisons,
    }
}

fn fig10(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig10_design_rate();
    let mut rendered = String::from("Fig. 10: incidents per device by network design\n");
    for (d, series) in &data {
        rendered.push_str(&format!("{d:<8}"));
        for (y, v) in series.points() {
            rendered.push_str(&format!(" {y}:{v:.4}"));
        }
        rendered.push('\n');
    }
    let cluster_2017 = data[&NetworkDesign::Cluster].get(2017);
    let fabric_2017 = data[&NetworkDesign::Fabric].get(2017);
    let comparisons = vec![cmp(
        "cluster/fabric per-device rate 2017",
        3.2,
        if fabric_2017 > 0.0 {
            cluster_2017 / fabric_2017
        } else {
            0.0
        },
    )];
    ExperimentOutcome {
        experiment: Experiment::Fig10,
        rendered,
        comparisons,
    }
}

fn fig11(ctx: &RunContext) -> ExperimentOutcome {
    let data = ctx.intra().fig11_population_fractions();
    let rendered =
        report::render_type_year_table("Fig. 11: population fraction by device type", &data, 4);
    let comparisons = vec![
        cmp(
            "RSW population fraction 2017",
            0.9,
            data[&DeviceType::Rsw].get(2017),
        ),
        cmp(
            "FSW fraction 2014 (pre-fabric)",
            0.0,
            data[&DeviceType::Fsw].get(2014),
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::Fig11,
        rendered,
        comparisons,
    }
}

fn fig12(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.intra();
    let data = s.fig12_mtbi();
    let rendered = report::render_sparse_year_table(
        "Fig. 12: MTBI (device-hours)",
        &data,
        s.first_year(),
        s.last_year(),
    );
    let at = |t: DeviceType, y: i32| {
        data.get(&t)
            .and_then(|pts| pts.iter().find(|&&(py, _)| py == y))
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let (fabric, cluster) = s.design_mtbi(2017);
    let mut comparisons = vec![
        cmp(
            "Core MTBI 2017 (h)",
            calibration::MTBI_CORE_2017_HOURS,
            at(DeviceType::Core, 2017),
        ),
        cmp(
            "RSW MTBI 2017 (h)",
            calibration::MTBI_RSW_2017_HOURS,
            at(DeviceType::Rsw, 2017),
        ),
    ];
    if let (Some(f), Some(c)) = (fabric, cluster) {
        comparisons.push(cmp("fabric/cluster MTBI 2017", 3.2, f / c));
        comparisons.push(cmp(
            "fabric MTBI 2017 (h)",
            calibration::MTBI_FABRIC_2017_HOURS,
            f,
        ));
        comparisons.push(cmp(
            "cluster MTBI 2017 (h)",
            calibration::MTBI_CLUSTER_2017_HOURS,
            c,
        ));
    }
    ExperimentOutcome {
        experiment: Experiment::Fig12,
        rendered,
        comparisons,
    }
}

fn fig13(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.intra();
    let data = s.fig13_p75irt();
    let rendered = report::render_sparse_year_table(
        "Fig. 13: p75 incident resolution time (h)",
        &data,
        s.first_year(),
        s.last_year(),
    );
    // The paper's qualitative claim: p75IRT increased across types.
    let rsw = data.get(&DeviceType::Rsw).cloned().unwrap_or_default();
    let growth = match (rsw.first(), rsw.last()) {
        (Some(&(_, a)), Some(&(_, b))) if a > 0.0 => b / a,
        _ => 0.0,
    };
    let comparisons = vec![cmp("RSW p75IRT growth 2011→2017 (>1)", 30.0, growth)];
    ExperimentOutcome {
        experiment: Experiment::Fig13,
        rendered,
        comparisons,
    }
}

fn fig14(ctx: &RunContext) -> ExperimentOutcome {
    let (pts, r) = ctx.intra().fig14_irt_vs_fleet();
    let rendered = report::render_scatter("Fig. 14: p75IRT vs normalized fleet size", &pts, r);
    let comparisons = vec![cmp("p75IRT-vs-fleet Pearson r (positive)", 1.0, r)];
    ExperimentOutcome {
        experiment: Experiment::Fig14,
        rendered,
        comparisons,
    }
}

fn fig15(ctx: &RunContext) -> ExperimentOutcome {
    backbone_dist(Experiment::Fig15, ctx)
}

fn fig16(ctx: &RunContext) -> ExperimentOutcome {
    backbone_dist(Experiment::Fig16, ctx)
}

fn fig17(ctx: &RunContext) -> ExperimentOutcome {
    backbone_dist(Experiment::Fig17, ctx)
}

fn fig18(ctx: &RunContext) -> ExperimentOutcome {
    backbone_dist(Experiment::Fig18, ctx)
}

fn backbone_dist(which: Experiment, ctx: &RunContext) -> ExperimentOutcome {
    let m = ctx.inter().metrics();
    let (dist, model, stats_fn): (_, _, dcnr_backbone::models::ReportedStats) = match which {
        Experiment::Fig15 => (
            &m.edge_mtbf,
            PaperModels::edge_mtbf(),
            PaperModels::edge_mtbf_stats(),
        ),
        Experiment::Fig16 => (
            &m.edge_mttr,
            PaperModels::edge_mttr(),
            PaperModels::edge_mttr_stats(),
        ),
        Experiment::Fig17 => (
            &m.vendor_mtbf,
            PaperModels::vendor_mtbf(),
            PaperModels::vendor_mtbf_stats(),
        ),
        Experiment::Fig18 => (
            &m.vendor_mttr,
            PaperModels::vendor_mttr(),
            PaperModels::vendor_mttr_stats(),
        ),
        _ => unreachable!("backbone_dist only handles Figs. 15-18"),
    };
    let rendered = report::render_fitted_distribution(which.title(), dist, &model);
    let summary = dist.summary();
    let mut comparisons = vec![
        cmp("median (h)", stats_fn.median, summary.median()),
        cmp("p90 (h)", stats_fn.p90, summary.p90()),
    ];
    if let Some(fit) = &dist.fit {
        comparisons.push(cmp("fit a", model.a, fit.a));
        comparisons.push(cmp("fit b", model.b, fit.b));
        if let Some(r2) = model.paper_r2 {
            comparisons.push(cmp("fit R²", r2, fit.r2));
        }
    }
    ExperimentOutcome {
        experiment: which,
        rendered,
        comparisons,
    }
}

fn table4(ctx: &RunContext) -> ExperimentOutcome {
    let rows = &ctx.inter().metrics().continents;
    let rendered = report::render_table4(rows);
    let mut comparisons = Vec::new();
    for row in rows {
        comparisons.push(cmp(
            format!("{} edge share", row.continent),
            row.continent.edge_share(),
            row.distribution,
        ));
        comparisons.push(cmp(
            format!("{} MTBF (h)", row.continent),
            row.continent.mtbf_hours(),
            row.mtbf_hours,
        ));
        comparisons.push(cmp(
            format!("{} MTTR (h)", row.continent),
            row.continent.mttr_hours(),
            row.mttr_hours,
        ));
    }
    ExperimentOutcome {
        experiment: Experiment::Table4,
        rendered,
        comparisons,
    }
}

fn routes_capacity(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.routes();
    let eq = s.equivalence();
    let comparisons = vec![
        cmp(
            "forwarding ≡ BFS agreement",
            1.0,
            eq.agreements as f64 / eq.pairs.max(1) as f64,
        ),
        cmp("max |Σ ecmp − 1|", 0.0, eq.max_ecmp_sum_error),
        cmp(
            "scratch sweep identical",
            1.0,
            if s.blast().identical { 1.0 } else { 0.0 },
        ),
        cmp(
            "WAN empty-cut survival",
            1.0,
            s.wan().empty.mean_surviving_fraction,
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::RoutesCapacity,
        rendered: routes::render_capacity(s),
        comparisons,
    }
}

fn routes_severity_mix(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.routes();
    let agg = s.severity_aggregate();
    let paper = routes::paper_aggregate();
    let comparisons = vec![
        cmp("SEV3 share 2017 (emergent)", paper[0], agg[0]),
        cmp("SEV2 share 2017 (emergent)", paper[1], agg[1]),
        cmp("SEV1 share 2017 (emergent)", paper[2], agg[2]),
    ];
    ExperimentOutcome {
        experiment: Experiment::RoutesSeverityMix,
        rendered: routes::render_severity(s),
        comparisons,
    }
}

fn routes_workload(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.routes();
    let curve = s.workload();
    // "paper" anchors are the ideal no-degradation baselines: slowdown 1
    // and zero failed jobs at k=1, and a monotone curve overall. Mean
    // slowdown is conditional on surviving jobs (it can dip when a
    // degraded job tips into "failed"), so monotonicity is judged on
    // the failed-job fraction.
    let k1 = curve.first();
    let monotone = curve
        .windows(2)
        .all(|w| w[1].failed_job_fraction + 1e-9 >= w[0].failed_job_fraction);
    let comparisons = vec![
        cmp(
            "mean slowdown k=1",
            1.0,
            k1.map(|p| p.mean_slowdown).unwrap_or(0.0),
        ),
        cmp(
            "failed-job fraction k=1",
            0.0,
            k1.map(|p| p.failed_job_fraction).unwrap_or(1.0),
        ),
        cmp(
            "degradation monotone in k",
            1.0,
            if monotone { 1.0 } else { 0.0 },
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::RoutesWorkload,
        rendered: routes::render_workload(s),
        comparisons,
    }
}

fn surv_ranking(ctx: &RunContext) -> ExperimentOutcome {
    use crate::survivability::{ElementClass, FRACTIONS};
    let s = ctx.survivability();
    let at30 = |member: &str, class: ElementClass| {
        s.curve(member, class)
            .map(|c| c.at(FRACTIONS[3]))
            .unwrap_or(0.0)
    };
    let comparisons = vec![
        cmp(
            "ranking flip (switch vs server loss)",
            1.0,
            if s.ranking_flip() { 1.0 } else { 0.0 },
        ),
        cmp(
            "dcell pair surv @30% switch loss",
            1.0,
            at30("dcell", ElementClass::Switch),
        ),
        cmp(
            "fat-tree pair surv @30% switch loss",
            0.5,
            at30("fat-tree", ElementClass::Switch),
        ),
        // In an ideally load-balanced Clos, capacity loss ≈ failed
        // fraction, so 30% link loss leaves ≈ 70% capacity.
        cmp(
            "fat-tree capacity @30% link loss",
            0.7,
            s.curve("fat-tree", ElementClass::Link)
                .and_then(|c| c.points.iter().find(|p| p.fraction == FRACTIONS[3]))
                .map(|p| p.capacity)
                .unwrap_or(0.0),
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::SurvRanking,
        rendered: survivability::render_ranking(s),
        comparisons,
    }
}

fn surv_lifespan(ctx: &RunContext) -> ExperimentOutcome {
    let s = ctx.survivability();
    let grid = s.lifespan();
    let monotone = grid
        .windows(2)
        .all(|w| w[1].mean_capacity <= w[0].mean_capacity + 1e-9);
    let comparisons = vec![
        cmp(
            "capacity at age 0",
            1.0,
            grid.first().map(|g| g.mean_capacity).unwrap_or(0.0),
        ),
        cmp(
            "lifespan curve monotone nonincreasing",
            1.0,
            if monotone { 1.0 } else { 0.0 },
        ),
        // Single-element exponential anchors: -ln(x) * switch MTBF.
        cmp(
            "time to 90% capacity (yr)",
            -0.9f64.ln() * survivability::MTBF_SWITCH_YEARS,
            s.age_to_capacity(0.9),
        ),
        cmp(
            "time to 50% capacity (yr)",
            -0.5f64.ln() * survivability::MTBF_SWITCH_YEARS,
            s.age_to_capacity(0.5),
        ),
    ];
    ExperimentOutcome {
        experiment: Experiment::SurvLifespan,
        rendered: survivability::render_lifespan(s),
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    fn quarter_scale_context() -> RunContext {
        RunContext::new(Scenario {
            scale: 0.25,
            backbone: dcnr_backbone::topo::BackboneParams {
                edges: 40,
                vendors: 16,
                min_links_per_edge: 3,
            },
            ..Scenario::intra(3)
        })
    }

    #[test]
    fn every_experiment_has_exactly_one_artifact() {
        for a in registry() {
            let ids = registry().iter().filter(|b| b.id == a.id).count();
            assert_eq!(ids, 1, "{} must have exactly one descriptor", a.id);
            assert!(std::ptr::eq(descriptor(a.id), a), "{}", a.key);
            assert_eq!(lookup(a.key).unwrap(), a.id, "{}", a.key);
            let keys = registry().iter().filter(|b| b.key == a.key).count();
            assert_eq!(keys, 1, "{} is the key of {keys} rows", a.key);
        }
    }

    #[test]
    fn registry_order_matches_paper_order() {
        for (i, a) in registry().iter().enumerate() {
            assert_eq!(
                a.id as usize, i,
                "{} is declared out of registry order",
                a.key
            );
        }
    }

    #[test]
    fn every_artifact_has_a_paper_baseline() {
        for a in registry() {
            assert!(
                !a.paper_baseline.trim().is_empty(),
                "{} has an empty paper baseline",
                a.id
            );
        }
    }

    #[test]
    fn every_artifact_renders_at_quarter_scale() {
        let ctx = quarter_scale_context();
        for a in registry() {
            let out = (a.render)(&ctx);
            assert_eq!(out.experiment, a.id);
            assert!(!out.rendered.is_empty(), "{} rendered nothing", a.id);
            assert!(
                !out.comparisons.is_empty(),
                "{} produced no comparisons",
                a.id
            );
            for c in &out.comparisons {
                assert!(c.measured.is_finite(), "{}: {} not finite", a.id, c.metric);
            }
        }
    }

    #[test]
    fn routes_severity_mix_is_emergent_and_within_tolerance() {
        let ctx = quarter_scale_context();
        let out = ctx.artifact(Experiment::RoutesSeverityMix);
        assert_eq!(out.comparisons.len(), 3);
        for c in &out.comparisons {
            assert!(
                (c.measured - c.paper).abs()
                    < dcnr_service::EmergentSeverityModel::AGGREGATE_TOLERANCE,
                "{}: {c:?}",
                c.metric
            );
        }
        assert!(out.rendered.contains("no Table 3 sampling"));
    }

    #[test]
    fn headline_comparisons_within_tolerance() {
        let ctx = RunContext::new(Scenario {
            kind: ScenarioKind::Intra,
            scale: 2.0,
            backbone: dcnr_backbone::topo::BackboneParams {
                edges: 60,
                vendors: 25,
                min_links_per_edge: 3,
            },
            ..Scenario::intra(3)
        });
        // Table 1 repair ratios: tight.
        let t1 = ctx.artifact(Experiment::Table1);
        for c in t1
            .comparisons
            .iter()
            .filter(|c| c.metric.contains("repair ratio"))
        {
            assert!(c.relative_error() < 0.05, "{}: {c:?}", c.metric);
        }
        // Fig. 7 2017 shares: within 6 points absolute.
        let f7 = ctx.artifact(Experiment::Fig7);
        for c in &f7.comparisons {
            assert!((c.measured - c.paper).abs() < 0.06, "{}: {c:?}", c.metric);
        }
        // Fig. 15 fit parameters: same regime.
        let f15 = ctx.artifact(Experiment::Fig15);
        let b = f15
            .comparisons
            .iter()
            .find(|c| c.metric == "fit b")
            .expect("fit b");
        assert!(b.relative_error() < 0.6, "{b:?}");
    }
}
