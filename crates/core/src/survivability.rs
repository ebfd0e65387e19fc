//! The survivability study behind the `surv.*` artifacts.
//!
//! Two questions the paper's measured tables cannot answer — because
//! Facebook only operates two designs — are what the topology zoo
//! ([`dcnr_topology::zoo`]) exists to ask:
//!
//! * **Which design survives which element class?** Following Couto et
//!   al. (arXiv:1510.02735), we sweep failure *fractions* of each
//!   element class — links, switches, servers — across every zoo
//!   member and measure reachable-server-pair survivability and
//!   surviving ECMP capacity. The headline is the *ranking flip*:
//!   server-centric designs (DCell, BCube) out-survive switch-centric
//!   ones (fat-tree, fabric) under switch failures, and the ranking
//!   inverts under server failures, where a fat-tree's surviving
//!   servers never lose each other.
//! * **How does a fleet age?** Following Farrahi Moghaddam et al.
//!   (arXiv:1401.7528), we draw seeded exponential lifetimes for every
//!   element of the `--topology`-selected member, replay the deaths in
//!   age order against one incrementally-updated
//!   [`ForwardingState`], and read capacity off a fixed age grid —
//!   Monte-Carlo lifespan curves whose cross-seed bands come from the
//!   multi-seed sweep runner.
//!
//! Determinism: every sample stream derives from the scenario seed via
//! `derive_indexed_seed`; no wall-clock anywhere, so artifact bytes are
//! identical across `--jobs 1` vs `--jobs N` and CLI vs HTTP.
//!
//! Allocation discipline: one [`ForwardingState`] and one
//! [`FailureSet`] per topology, reused across every trial and fraction
//! step (failure fractions are *prefix-nested* per trial, so each step
//! is an incremental `apply`, the same scratch-reuse idiom as
//! [`dcnr_topology::BlastScratch`]). The spans
//! `surv.ranking.sweep` and `surv.lifespan.replay` make the reuse
//! visible in `dcnr profile --scenario survivability`.

use dcnr_sim::{derive_indexed_seed, stream_rng};
use dcnr_topology::zoo::{self, TopologyModel};
use dcnr_topology::{DeviceId, DeviceType, FailureSet, ForwardingState, LinkId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for one survivability study run.
#[derive(Debug, Clone, Copy)]
pub struct SurvivabilityConfig {
    /// Zoo scale multiplier applied to every member.
    pub scale: f64,
    /// Master seed for every derived sampling stream.
    pub seed: u64,
    /// Zoo member id the lifespan replay runs on.
    pub topology: &'static str,
}

impl Default for SurvivabilityConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 0x5012_0735,
            topology: "fat-tree",
        }
    }
}

/// The element classes the ranking sweep ablates, in render order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementClass {
    /// Individual links (fiber/cable cuts).
    Link,
    /// Switches — every non-server device.
    Switch,
    /// Servers (only meaningful for zoo members that wire servers as
    /// forwarding nodes; all of them do).
    Server,
}

impl ElementClass {
    /// All classes, in render order.
    pub const ALL: [ElementClass; 3] = [Self::Link, Self::Switch, Self::Server];

    /// The render label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Link => "link",
            Self::Switch => "switch",
            Self::Server => "server",
        }
    }
}

/// Failed fractions the ranking sweep samples, ascending (a prefix of
/// the per-trial shuffle, so steps nest).
pub const FRACTIONS: [f64; 5] = [0.05, 0.1, 0.2, 0.3, 0.5];

/// Seeded trials averaged per (member, class, fraction) cell.
const TRIALS: usize = 8;

/// One cell of the survivability surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvPoint {
    /// Failed fraction of the element class.
    pub fraction: f64,
    /// Mean reachable-live-server-pair fraction over trials.
    pub pair_survivability: f64,
    /// Mean surviving ECMP capacity fraction over trials.
    pub capacity: f64,
}

/// The survivability curves of one zoo member for one element class.
#[derive(Debug, Clone)]
pub struct MemberCurve {
    /// The zoo member id.
    pub member: &'static str,
    /// The ablated element class.
    pub class: ElementClass,
    /// One point per entry of [`FRACTIONS`].
    pub points: Vec<SurvPoint>,
}

impl MemberCurve {
    /// Pair survivability at the given swept fraction (exact match).
    pub fn at(&self, fraction: f64) -> f64 {
        self.points
            .iter()
            .find(|p| p.fraction == fraction)
            .map(|p| p.pair_survivability)
            .unwrap_or(0.0)
    }
}

/// One point of the Monte-Carlo lifespan curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgePoint {
    /// Fleet age in years.
    pub age_years: f64,
    /// Mean surviving capacity fraction across draws.
    pub mean_capacity: f64,
    /// Lowest capacity across draws (the in-run band floor).
    pub min_capacity: f64,
    /// Highest capacity across draws (the in-run band ceiling).
    pub max_capacity: f64,
}

/// Nominal element MTBFs for the lifespan draws, in years. These are
/// model inputs (cf. arXiv:1401.7528 §III), not measured values.
pub const MTBF_SWITCH_YEARS: f64 = 5.0;
/// Server MTBF (years).
pub const MTBF_SERVER_YEARS: f64 = 3.0;
/// Link MTBF (years).
pub const MTBF_LINK_YEARS: f64 = 8.0;

/// Age grid the lifespan replay samples (years).
pub const AGE_GRID_YEARS: f64 = 10.0;
/// Grid points including age 0.
pub const AGE_STEPS: usize = 21;
/// Independent lifetime draws averaged per run (cross-seed bands come
/// from the sweep runner on top).
const DRAWS: usize = 4;

/// A completed survivability study: everything `surv.*` reads.
pub struct SurvivabilityStudy {
    config: SurvivabilityConfig,
    curves: Vec<MemberCurve>,
    lifespan: Vec<AgePoint>,
    lifespan_devices: usize,
    lifespan_links: usize,
    samples: usize,
}

/// Per-topology scratch reused across every trial and fraction step:
/// the forwarding state, the failure set, and the element orderings.
struct SweepScratch<'t> {
    topo: &'t Topology,
    forwarding: ForwardingState,
    failed: FailureSet,
    servers: Vec<DeviceId>,
    healthy_paths: f64,
}

impl<'t> SweepScratch<'t> {
    fn new(topo: &'t Topology) -> Self {
        let forwarding = ForwardingState::new(topo);
        let servers: Vec<DeviceId> = topo
            .devices_of_type(DeviceType::Server)
            .map(|d| d.id)
            .collect();
        let healthy_paths: f64 = servers
            .iter()
            .map(|&s| forwarding.healthy_core_paths(s) as f64)
            .sum();
        Self {
            failed: FailureSet::new(topo),
            forwarding,
            topo,
            servers,
            healthy_paths,
        }
    }

    /// Reachable-live-server ordered-pair fraction under the
    /// currently-applied failure set. Reads the component labels, so
    /// the first call after an `apply` relabels.
    fn pair_survivability(&mut self) -> f64 {
        let total = self.servers.len();
        if total < 2 {
            return 0.0;
        }
        // Group live servers by component via O(1) `reachable` against
        // a small set of representatives (no per-sample allocation
        // beyond the tiny rep vec).
        let mut reps: Vec<(DeviceId, u64)> = Vec::new();
        for &s in &self.servers {
            if !self.forwarding.is_live(s) {
                continue;
            }
            match reps
                .iter_mut()
                .find(|(r, _)| self.forwarding.reachable(s, *r))
            {
                Some((_, count)) => *count += 1,
                None => reps.push((s, 1)),
            }
        }
        let surviving_pairs: u64 = reps.iter().map(|&(_, c)| c * (c - 1)).sum();
        surviving_pairs as f64 / (total * (total - 1)) as f64
    }

    /// Surviving ECMP capacity fraction under the currently-applied
    /// failure set (path counts only; the labels are not read).
    fn capacity(&self) -> f64 {
        if self.servers.len() < 2 || self.healthy_paths <= 0.0 {
            return 0.0;
        }
        let capacity: f64 = self
            .servers
            .iter()
            .filter(|&&s| self.forwarding.is_live(s))
            .map(|&s| self.forwarding.core_paths(s) as f64)
            .sum();
        capacity / self.healthy_paths
    }
}

/// The elements of one class, in deterministic topology order.
fn class_elements(topo: &Topology, class: ElementClass) -> (Vec<DeviceId>, Vec<LinkId>) {
    match class {
        ElementClass::Link => (Vec::new(), topo.links().iter().map(|l| l.id).collect()),
        ElementClass::Switch => (
            topo.devices()
                .iter()
                .filter(|d| d.device_type != DeviceType::Server)
                .map(|d| d.id)
                .collect(),
            Vec::new(),
        ),
        ElementClass::Server => (
            topo.devices_of_type(DeviceType::Server)
                .map(|d| d.id)
                .collect(),
            Vec::new(),
        ),
    }
}

/// Sweeps one (member, class) curve: per trial, shuffle the class's
/// elements once, then walk the ascending fraction grid failing the
/// shuffle *prefix* — each step an incremental `apply` on the shared
/// forwarding state.
fn sweep_curve(
    scratch: &mut SweepScratch<'_>,
    member: &'static TopologyModel,
    class: ElementClass,
    seed: u64,
    samples: &mut usize,
) -> MemberCurve {
    let (mut devices, mut links) = class_elements(scratch.topo, class);
    let n = devices.len() + links.len();
    let mut acc = vec![(0.0f64, 0.0f64); FRACTIONS.len()];
    for trial in 0..TRIALS {
        let mut rng = stream_rng(
            derive_indexed_seed(seed, member.id, (class as u64) * 100 + trial as u64),
            "surv.ranking.trial",
        );
        devices.shuffle(&mut rng);
        links.shuffle(&mut rng);
        scratch.failed.clear();
        scratch.forwarding.apply(scratch.topo, &scratch.failed);
        let mut cut = 0usize;
        for (fi, &fraction) in FRACTIONS.iter().enumerate() {
            let want = ((n as f64 * fraction).round() as usize).min(n);
            while cut < want {
                if cut < devices.len() {
                    scratch.failed.fail(devices[cut]);
                } else {
                    scratch.failed.fail_link(links[cut - devices.len()]);
                }
                cut += 1;
            }
            scratch.forwarding.apply(scratch.topo, &scratch.failed);
            acc[fi].0 += scratch.pair_survivability();
            acc[fi].1 += scratch.capacity();
            *samples += 1;
        }
    }
    // Leave the scratch healthy for the next class.
    scratch.failed.clear();
    scratch.forwarding.apply(scratch.topo, &scratch.failed);
    MemberCurve {
        member: member.id,
        class,
        points: FRACTIONS
            .iter()
            .zip(&acc)
            .map(|(&fraction, &(p, c))| SurvPoint {
                fraction,
                pair_survivability: p / TRIALS as f64,
                capacity: c / TRIALS as f64,
            })
            .collect(),
    }
}

/// Draws seeded exponential lifetimes for every device and link of
/// `topo`, replays the deaths in age order against one incremental
/// forwarding state, and samples capacity on the fixed age grid.
fn lifespan_replay(topo: &Topology, seed: u64) -> Vec<AgePoint> {
    let mut scratch = SweepScratch::new(topo);
    let mut grid = vec![
        AgePoint {
            age_years: 0.0,
            mean_capacity: 0.0,
            min_capacity: f64::INFINITY,
            max_capacity: f64::NEG_INFINITY,
        };
        AGE_STEPS
    ];
    for (i, g) in grid.iter_mut().enumerate() {
        g.age_years = AGE_GRID_YEARS * i as f64 / (AGE_STEPS - 1) as f64;
    }
    // (death age, device index or link index offset past devices)
    let mut deaths: Vec<(f64, usize)> = Vec::with_capacity(topo.device_count() + topo.link_count());
    for draw in 0..DRAWS {
        let mut rng = stream_rng(
            derive_indexed_seed(seed, "surv.lifespan", draw as u64),
            "surv.lifespan.draw",
        );
        deaths.clear();
        for (i, d) in topo.devices().iter().enumerate() {
            let mtbf = if d.device_type == DeviceType::Server {
                MTBF_SERVER_YEARS
            } else {
                MTBF_SWITCH_YEARS
            };
            deaths.push((exponential(&mut rng, mtbf), i));
        }
        for i in 0..topo.link_count() {
            deaths.push((
                exponential(&mut rng, MTBF_LINK_YEARS),
                topo.device_count() + i,
            ));
        }
        deaths.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scratch.failed.clear();
        scratch.forwarding.apply(topo, &scratch.failed);
        let mut next = 0usize;
        for g in grid.iter_mut() {
            while next < deaths.len() && deaths[next].0 <= g.age_years {
                let idx = deaths[next].1;
                if idx < topo.device_count() {
                    scratch.failed.fail(topo.devices()[idx].id);
                } else {
                    scratch
                        .failed
                        .fail_link(topo.links()[idx - topo.device_count()].id);
                }
                next += 1;
            }
            scratch.forwarding.apply(topo, &scratch.failed);
            let capacity = scratch.capacity();
            g.mean_capacity += capacity;
            g.min_capacity = g.min_capacity.min(capacity);
            g.max_capacity = g.max_capacity.max(capacity);
        }
    }
    for g in grid.iter_mut() {
        g.mean_capacity /= DRAWS as f64;
    }
    grid
}

fn exponential(rng: &mut impl Rng, mtbf_years: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mtbf_years
}

impl SurvivabilityStudy {
    /// Runs the full study: the ranking sweep across every zoo member,
    /// then the lifespan replay on the selected member.
    pub fn run(config: SurvivabilityConfig) -> Self {
        let member = zoo::find(config.topology)
            .expect("scenario validation rejects unknown topology ids before the study runs");
        let mut curves = Vec::with_capacity(zoo::ZOO.len() * ElementClass::ALL.len());
        let mut samples = 0usize;
        let sweep_span = dcnr_telemetry::span("surv.ranking.sweep");
        for m in &zoo::ZOO {
            let topo = m.build(config.scale);
            let mut scratch = SweepScratch::new(&topo);
            for class in ElementClass::ALL {
                curves.push(sweep_curve(
                    &mut scratch,
                    m,
                    class,
                    config.seed,
                    &mut samples,
                ));
            }
        }
        sweep_span.finish();

        let replay_span = dcnr_telemetry::span("surv.lifespan.replay");
        let topo = member.build(config.scale);
        let lifespan = lifespan_replay(&topo, config.seed);
        replay_span.finish();

        if dcnr_telemetry::active() {
            dcnr_telemetry::counter_add("dcnr_surv_samples_total", &[], samples as u64);
        }

        Self {
            config,
            curves,
            lifespan,
            lifespan_devices: topo.device_count(),
            lifespan_links: topo.link_count(),
            samples,
        }
    }

    /// The study's configuration.
    pub fn config(&self) -> &SurvivabilityConfig {
        &self.config
    }

    /// Every (member, class) curve, members in zoo order, classes in
    /// [`ElementClass::ALL`] order.
    pub fn curves(&self) -> &[MemberCurve] {
        &self.curves
    }

    /// The curve for one (member, class) cell.
    pub fn curve(&self, member: &str, class: ElementClass) -> Option<&MemberCurve> {
        self.curves
            .iter()
            .find(|c| c.member == member && c.class == class)
    }

    /// The Monte-Carlo lifespan curve of the selected member.
    pub fn lifespan(&self) -> &[AgePoint] {
        &self.lifespan
    }

    /// Devices in the lifespan topology.
    pub fn lifespan_devices(&self) -> usize {
        self.lifespan_devices
    }

    /// Links in the lifespan topology.
    pub fn lifespan_links(&self) -> usize {
        self.lifespan_links
    }

    /// Total (member, class, fraction, trial) samples measured.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Zoo members ranked best-first by pair survivability under
    /// `class` failures at the given swept fraction.
    pub fn ranking(&self, class: ElementClass, fraction: f64) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = self
            .curves
            .iter()
            .filter(|c| c.class == class)
            .map(|c| (c.member, c.at(fraction)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// First grid age (years) at which mean capacity drops below
    /// `threshold`, or the grid end if it never does.
    pub fn age_to_capacity(&self, threshold: f64) -> f64 {
        self.lifespan
            .iter()
            .find(|g| g.mean_capacity < threshold)
            .map(|g| g.age_years)
            .unwrap_or(AGE_GRID_YEARS)
    }

    /// Whether the Couto-style ranking flip is present: DCell out-
    /// survives fat-tree under switch loss (at the 30% sweep point),
    /// and the order inverts under server loss — fat-tree's surviving
    /// servers never relay for each other, so somewhere on the server
    /// curve it must beat DCell, whose inter-cell fabric *is* servers.
    pub fn ranking_flip(&self) -> bool {
        let f = FRACTIONS[3]; // 0.3
        let switch_flip = match (
            self.curve("dcell", ElementClass::Switch),
            self.curve("fat-tree", ElementClass::Switch),
        ) {
            (Some(d), Some(ft)) => d.at(f) > ft.at(f),
            _ => false,
        };
        let server_flip = match (
            self.curve("dcell", ElementClass::Server),
            self.curve("fat-tree", ElementClass::Server),
        ) {
            (Some(d), Some(ft)) => FRACTIONS.iter().any(|&f| ft.at(f) > d.at(f)),
            _ => false,
        };
        switch_flip && server_flip
    }
}

/// Renders the `surv.ranking` artifact body.
pub fn render_ranking(s: &SurvivabilityStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "survivability vs failed fraction across the topology zoo \
         ({} samples, {} trials per cell):",
        s.samples(),
        TRIALS
    );
    for class in ElementClass::ALL {
        let _ = writeln!(
            out,
            "{} failures (pair survivability / capacity):",
            class.label()
        );
        let mut header = format!("  {:<10}", "member");
        for f in FRACTIONS {
            header.push_str(&format!("  {:>4.0}%      ", f * 100.0));
        }
        let _ = writeln!(out, "{header}");
        for m in &zoo::ZOO {
            let Some(curve) = s.curve(m.id, class) else {
                continue;
            };
            let mut row = format!("  {:<10}", m.id);
            for p in &curve.points {
                row.push_str(&format!(
                    "  {:.2}/{:.2}  ",
                    p.pair_survivability, p.capacity
                ));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    for class in ElementClass::ALL {
        let ranked = s.ranking(class, FRACTIONS[3]);
        let names: Vec<String> = ranked
            .iter()
            .map(|(id, v)| format!("{id} ({v:.2})"))
            .collect();
        let _ = writeln!(
            out,
            "survivability ranking @30% {} loss: {}",
            class.label(),
            names.join(" > ")
        );
    }
    let _ = writeln!(
        out,
        "ranking flip (dcell vs fat-tree, switch loss vs server loss): {}",
        s.ranking_flip()
    );
    out
}

/// Renders the `surv.lifespan` artifact body.
pub fn render_lifespan(s: &SurvivabilityStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Monte-Carlo fleet lifespan on `{}` ({} devices, {} links, {} draws, \
         MTBF switch {:.0}y / server {:.0}y / link {:.0}y):",
        s.config().topology,
        s.lifespan_devices(),
        s.lifespan_links(),
        DRAWS,
        MTBF_SWITCH_YEARS,
        MTBF_SERVER_YEARS,
        MTBF_LINK_YEARS,
    );
    let _ = writeln!(
        out,
        "  {:>8}  {:>13}  {:>20}",
        "age (yr)", "mean capacity", "lifespan band [lo hi]"
    );
    for g in s.lifespan() {
        let _ = writeln!(
            out,
            "  {:>8.1}  {:>13.4}  [{:.4} {:.4}]",
            g.age_years, g.mean_capacity, g.min_capacity, g.max_capacity
        );
    }
    let _ = writeln!(
        out,
        "time to 90% capacity: {:.1} yr; time to 50% capacity: {:.1} yr",
        s.age_to_capacity(0.9),
        s.age_to_capacity(0.5),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quarter() -> SurvivabilityStudy {
        SurvivabilityStudy::run(SurvivabilityConfig {
            scale: 0.25,
            seed: 11,
            topology: "fat-tree",
        })
    }

    #[test]
    fn every_member_has_every_class_curve() {
        let s = quarter();
        assert_eq!(s.curves().len(), zoo::ZOO.len() * ElementClass::ALL.len());
        for c in s.curves() {
            assert_eq!(c.points.len(), FRACTIONS.len());
            for p in &c.points {
                assert!((0.0..=1.0).contains(&p.pair_survivability), "{c:?}");
                assert!((0.0..=1.0 + 1e-9).contains(&p.capacity), "{c:?}");
            }
        }
    }

    #[test]
    fn survivability_is_monotone_in_failed_fraction() {
        let s = quarter();
        for c in s.curves() {
            for w in c.points.windows(2) {
                assert!(
                    w[1].pair_survivability <= w[0].pair_survivability + 1e-9,
                    "{}/{:?}: {:?} then {:?}",
                    c.member,
                    c.class,
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn ranking_flips_between_switch_and_server_loss() {
        let s = quarter();
        assert!(s.ranking_flip(), "{}", render_ranking(&s));
        // Fat-tree never loses a *surviving* pair to server failures
        // (servers do not relay for each other), so its server curve is
        // exactly the no-relay baseline live·(live−1)/total·(total−1).
        let ft = s.curve("fat-tree", ElementClass::Server).unwrap();
        let total = 16.0f64; // k = 4 at quarter scale: 16 servers
        for p in &ft.points {
            let live = total - (total * p.fraction).round();
            let baseline = live * (live - 1.0) / (total * (total - 1.0));
            assert!(
                (p.pair_survivability - baseline).abs() < 1e-9,
                "fat-tree surviving pairs stay connected: {p:?} vs {baseline}"
            );
        }
    }

    #[test]
    fn lifespan_curve_starts_healthy_and_decays() {
        let s = quarter();
        let grid = s.lifespan();
        assert_eq!(grid.len(), AGE_STEPS);
        assert!((grid[0].mean_capacity - 1.0).abs() < 1e-9, "{:?}", grid[0]);
        for w in grid.windows(2) {
            assert!(w[1].mean_capacity <= w[0].mean_capacity + 1e-9, "{w:?}");
        }
        for g in grid {
            assert!(g.min_capacity <= g.mean_capacity + 1e-9);
            assert!(g.max_capacity + 1e-9 >= g.mean_capacity);
        }
        assert!(s.age_to_capacity(0.9) <= s.age_to_capacity(0.5));
    }

    #[test]
    fn study_is_deterministic_in_its_seed() {
        let a = quarter();
        let b = quarter();
        assert_eq!(render_ranking(&a), render_ranking(&b));
        assert_eq!(render_lifespan(&a), render_lifespan(&b));
        let c = SurvivabilityStudy::run(SurvivabilityConfig {
            seed: 12,
            ..*a.config()
        });
        assert_ne!(
            render_lifespan(&a),
            render_lifespan(&c),
            "different seeds must draw different lifetimes"
        );
    }

    #[test]
    fn renders_carry_the_headline_lines() {
        let s = quarter();
        let ranking = render_ranking(&s);
        assert!(ranking.contains("survivability ranking @30% switch loss"));
        assert!(ranking.contains("ranking flip"));
        let lifespan = render_lifespan(&s);
        assert!(lifespan.contains("lifespan band"));
        assert!(lifespan.contains("time to 90% capacity"));
    }
}
