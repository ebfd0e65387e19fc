//! Network device taxonomy.
//!
//! §3 of the paper names seven intra-datacenter device types plus the
//! backbone routers, split across two network designs:
//!
//! | Type | Design | Role | Hardware |
//! |------|--------|------|----------|
//! | RSW  | shared  | top-of-rack switch | commodity (in-house since 2013) |
//! | CSW  | cluster | cluster switch (4 per cluster) | third-party vendor |
//! | CSA  | cluster | cluster switch aggregator | third-party vendor |
//! | FSW  | fabric  | fabric switch (4 per pod) | commodity |
//! | SSW  | fabric  | spine switch | commodity |
//! | ESW  | fabric  | edge switch | commodity |
//! | Core | shared  | inter-DC core router | mostly third-party |
//! | BBR  | backbone| backbone router at an edge PoP | third-party |

use std::fmt;

/// The network device types studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceType {
    /// Core network device: connects data centers to each other and the
    /// backbone (Fig. 1 ➃/➉). Highest bisection bandwidth in the fleet.
    Core,
    /// Cluster switch aggregator (classic design, Fig. 1 ➂).
    Csa,
    /// Cluster switch: one of four aggregating a cluster's RSWs (➀).
    Csw,
    /// Edge switch (fabric design, Fig. 1 ➈): connects spines to Cores.
    Esw,
    /// Spine switch (fabric design, Fig. 1 ➇).
    Ssw,
    /// Fabric switch (fabric design, Fig. 1 ➆): four per pod.
    Fsw,
    /// Rack switch (top-of-rack, Fig. 1 ➁/➅). By far the largest
    /// population; Facebook uses a single TOR per rack (§5.4).
    Rsw,
    /// Backbone router located in an edge PoP (Fig. 1 ➄).
    Bbr,
    /// End host. Not a device class the paper studies (its unit of
    /// analysis stops at the rack switch), but server-centric zoo
    /// topologies (BCube, DCell) wire servers as first-class forwarding
    /// nodes, and the survivability study needs them addressable.
    Server,
}

impl DeviceType {
    /// Every type, in declaration order, so `t as usize` indexes it.
    pub const ALL: [DeviceType; 9] = [
        DeviceType::Core,
        DeviceType::Csa,
        DeviceType::Csw,
        DeviceType::Esw,
        DeviceType::Ssw,
        DeviceType::Fsw,
        DeviceType::Rsw,
        DeviceType::Bbr,
        DeviceType::Server,
    ];

    /// All intra-datacenter types, in the paper's figure-legend order
    /// (Core, CSA, CSW, ESW, SSW, FSW, RSW).
    pub const INTRA_DC: [DeviceType; 7] = [
        DeviceType::Core,
        DeviceType::Csa,
        DeviceType::Csw,
        DeviceType::Esw,
        DeviceType::Ssw,
        DeviceType::Fsw,
        DeviceType::Rsw,
    ];

    /// The lowercase name prefix used by the device naming convention
    /// (§4.3.1: "every rack switch has a name prefixed with `rsw.`").
    pub fn name_prefix(self) -> &'static str {
        match self {
            DeviceType::Core => "core",
            DeviceType::Csa => "csa",
            DeviceType::Csw => "csw",
            DeviceType::Esw => "esw",
            DeviceType::Ssw => "ssw",
            DeviceType::Fsw => "fsw",
            DeviceType::Rsw => "rsw",
            DeviceType::Bbr => "bbr",
            DeviceType::Server => "srv",
        }
    }

    /// Which network design the type belongs to (§4.3.1: "CSA and CSW
    /// belong to classic cluster-based networks, and ESW, SSW, and FSW
    /// devices are a part of the data center fabric").
    pub fn design(self) -> NetworkDesign {
        match self {
            DeviceType::Csa | DeviceType::Csw => NetworkDesign::Cluster,
            DeviceType::Esw | DeviceType::Ssw | DeviceType::Fsw => NetworkDesign::Fabric,
            DeviceType::Core | DeviceType::Rsw | DeviceType::Bbr | DeviceType::Server => {
                NetworkDesign::Shared
            }
        }
    }

    /// Default hardware provenance for the type. "Nearly all of the Cores
    /// and CSAs are third-party vendor switches" (§5.2); fabric devices
    /// and RSWs are commodity/in-house.
    pub fn hardware_source(self) -> HardwareSource {
        match self {
            DeviceType::Core | DeviceType::Csa | DeviceType::Csw | DeviceType::Bbr => {
                HardwareSource::ThirdPartyVendor
            }
            DeviceType::Esw
            | DeviceType::Ssw
            | DeviceType::Fsw
            | DeviceType::Rsw
            | DeviceType::Server => HardwareSource::Commodity,
        }
    }

    /// Whether the automated repair system covers this type (§4.1.2:
    /// "automated repair is employed only for RSWs, FSWs, and a small
    /// percentage of Core devices").
    pub fn has_automated_repair(self) -> bool {
        matches!(self, DeviceType::Rsw | DeviceType::Fsw | DeviceType::Core)
    }

    /// Topological tier rank within a data center, from server (0)
    /// through rack (1) up to Core (5) and backbone (6). Valid Clos
    /// forwarding is *up-down*: a packet climbs tiers then descends; it
    /// never descends and climbs again ("valley routing"). The routing
    /// queries use this rank only *relatively* (strict comparisons), so
    /// the absolute numbers are free to shift when new tiers appear.
    pub fn tier_rank(self) -> u8 {
        match self {
            DeviceType::Server => 0,
            DeviceType::Rsw => 1,
            DeviceType::Csw | DeviceType::Fsw => 2,
            DeviceType::Csa | DeviceType::Ssw => 3,
            DeviceType::Esw => 4,
            DeviceType::Core => 5,
            DeviceType::Bbr => 6,
        }
    }

    /// A relative bisection-bandwidth tier (1 = lowest, 4 = highest),
    /// used by the impact model: Cores > CSAs > aggregation > racks.
    pub fn bandwidth_tier(self) -> u8 {
        match self {
            DeviceType::Core | DeviceType::Bbr => 4,
            DeviceType::Csa | DeviceType::Esw => 3,
            DeviceType::Csw | DeviceType::Ssw | DeviceType::Fsw => 2,
            DeviceType::Rsw | DeviceType::Server => 1,
        }
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceType::Core => "Core",
            DeviceType::Csa => "CSA",
            DeviceType::Csw => "CSW",
            DeviceType::Esw => "ESW",
            DeviceType::Ssw => "SSW",
            DeviceType::Fsw => "FSW",
            DeviceType::Rsw => "RSW",
            DeviceType::Bbr => "BBR",
            DeviceType::Server => "SRV",
        };
        f.write_str(s)
    }
}

/// The two intra-datacenter network designs compared throughout §5, plus
/// the devices shared by both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetworkDesign {
    /// Classic cluster-based Clos design (Fig. 1, Region A).
    Cluster,
    /// Data center fabric (Fig. 1, Region B).
    Fabric,
    /// Device types present in both designs (Cores, RSWs) or outside the
    /// intra-DC scope (BBRs).
    Shared,
}

impl fmt::Display for NetworkDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetworkDesign::Cluster => "cluster",
            NetworkDesign::Fabric => "fabric",
            NetworkDesign::Shared => "shared",
        })
    }
}

/// Where a device's hardware and firmware come from — the distinction
/// behind the paper's finding that "network devices built from commodity
/// chips have much lower incident rates compared to devices from
/// third-party vendors" (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareSource {
    /// Simple commodity-chip switches running the in-house software stack
    /// (FBOSS-style), integrable with automated remediation.
    Commodity,
    /// Proprietary vendor hardware with closed firmware; must be repaired
    /// in place by trained technicians.
    ThirdPartyVendor,
}

/// Opaque handle for a device within a [`crate::graph::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) u32);

impl DeviceId {
    /// The raw index (stable within one topology).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A deployed network device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Handle within the owning topology.
    pub id: DeviceId,
    /// Device type.
    pub device_type: DeviceType,
    /// Unique machine-parsable name following the naming convention.
    pub name: String,
    /// Hardware provenance (usually `device_type.hardware_source()`, but
    /// overridable: Facebook began manufacturing customized RSWs in 2013,
    /// and a few Cores run the in-house stack).
    pub hardware: HardwareSource,
    /// Index of the data center this device lives in.
    pub datacenter: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_classification_matches_paper() {
        use DeviceType::*;
        assert_eq!(Csa.design(), NetworkDesign::Cluster);
        assert_eq!(Csw.design(), NetworkDesign::Cluster);
        assert_eq!(Esw.design(), NetworkDesign::Fabric);
        assert_eq!(Ssw.design(), NetworkDesign::Fabric);
        assert_eq!(Fsw.design(), NetworkDesign::Fabric);
        assert_eq!(Core.design(), NetworkDesign::Shared);
        assert_eq!(Rsw.design(), NetworkDesign::Shared);
    }

    #[test]
    fn automated_repair_coverage_matches_paper() {
        use DeviceType::*;
        assert!(Rsw.has_automated_repair());
        assert!(Fsw.has_automated_repair());
        assert!(Core.has_automated_repair());
        assert!(!Csa.has_automated_repair());
        assert!(!Csw.has_automated_repair());
        assert!(!Esw.has_automated_repair());
        assert!(!Ssw.has_automated_repair());
    }

    #[test]
    fn all_lists_every_type_in_declaration_order() {
        for (i, t) in DeviceType::ALL.into_iter().enumerate() {
            assert_eq!(t as usize, i, "{t}");
        }
        assert_eq!(DeviceType::ALL[..7], DeviceType::INTRA_DC);
    }

    #[test]
    fn prefixes_are_unique_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for t in DeviceType::ALL {
            let p = t.name_prefix();
            assert!(p.chars().all(|c| c.is_ascii_lowercase()));
            assert!(seen.insert(p), "duplicate prefix {p}");
        }
    }

    #[test]
    fn bandwidth_tiers_ordered() {
        assert!(DeviceType::Core.bandwidth_tier() > DeviceType::Csa.bandwidth_tier());
        assert!(DeviceType::Csa.bandwidth_tier() > DeviceType::Csw.bandwidth_tier());
        assert!(DeviceType::Csw.bandwidth_tier() > DeviceType::Rsw.bandwidth_tier());
    }

    #[test]
    fn third_party_types() {
        assert_eq!(
            DeviceType::Core.hardware_source(),
            HardwareSource::ThirdPartyVendor
        );
        assert_eq!(DeviceType::Fsw.hardware_source(), HardwareSource::Commodity);
        assert_eq!(DeviceType::Rsw.hardware_source(), HardwareSource::Commodity);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceType::Rsw.to_string(), "RSW");
        assert_eq!(DeviceType::Core.to_string(), "Core");
        assert_eq!(NetworkDesign::Fabric.to_string(), "fabric");
    }
}
