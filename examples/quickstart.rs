//! Quickstart: run a one-year slice of the intra-datacenter study and a
//! small backbone study, and print the headline numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dcnr_core::backbone::topo::BackboneParams;
use dcnr_core::backbone::BackboneSimConfig;
use dcnr_core::topology::DeviceType;
use dcnr_core::{InterDcStudy, IntraDcStudy, StudyConfig};

fn main() {
    // ----- intra data center: one pass over 2011-2017 -----
    println!("== Intra-DC study (scale 2, seven years) ==\n");
    let intra = IntraDcStudy::run(StudyConfig {
        scale: 2.0,
        seed: 42,
        ..Default::default()
    });

    println!(
        "issues triaged: {:>8}\nSEVs recorded : {:>8}\n",
        intra.issue_count(),
        intra.db().len()
    );

    println!("Table 1 (automated repair, measured):");
    println!(
        "{}",
        dcnr_core::report::render_table1(intra.table1_automated_repair())
    );

    println!("Table 2 (root causes, measured):");
    println!(
        "{}",
        dcnr_core::report::render_table2(&intra.table2_root_causes())
    );

    let rates = intra.fig3_incident_rate();
    println!(
        "2017 incident rates: Core {:.4}/dev-yr, RSW {:.6}/dev-yr (paper: 0.2218 / 0.00088)",
        rates[&DeviceType::Core].get(2017),
        rates[&DeviceType::Rsw].get(2017)
    );
    if let Some(g) = intra.sev_growth_factor() {
        println!("SEV growth 2011→2017: {g:.1}x (paper: 9.4x)\n");
    }

    // ----- backbone: a compact eighteen-month run -----
    println!("== Backbone study (60 edges / 25 vendors, 18 months) ==\n");
    let inter = InterDcStudy::run(BackboneSimConfig {
        params: BackboneParams {
            edges: 60,
            vendors: 25,
            min_links_per_edge: 3,
        },
        seed: 42,
        ..Default::default()
    });
    println!(
        "vendor emails parsed: {}\ntickets ingested    : {} (rejected: {})\n",
        inter.output().emails.len(),
        inter.tickets().len(),
        inter.tickets().rejected
    );

    let m = inter.metrics();
    let s = m.edge_mtbf.summary();
    println!(
        "edge MTBF: median {:.0} h, p90 {:.0} h (paper: 1710 / 3521)",
        s.median(),
        s.p90()
    );
    if let Some(fit) = &m.edge_mtbf.fit {
        println!(
            "edge MTBF model: {:.1}*e^({:.3}p), R^2 = {:.2} (paper: 462.88*e^(2.3408p), 0.94)",
            fit.a, fit.b, fit.r2
        );
    }
    if let Some(risk) = inter.risk_report(100_000) {
        println!(
            "conditional risk: E[edges down] = {:.2}, p99.99 = {} edges, P(all up) = {:.2}",
            risk.expected_failures, risk.p9999_failures, risk.p_all_up
        );
    }
}
