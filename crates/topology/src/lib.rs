//! # dcnr-topology
//!
//! Network topology models for the `dcnr` reliability study: the two
//! intra-datacenter designs the paper compares (§3.1) and the WAN
//! backbone abstraction (§3.2).
//!
//! * [`device`] — the seven intra-DC device types (Core, CSA, CSW, ESW,
//!   SSW, FSW, RSW) plus backbone routers, their hardware provenance
//!   (third-party vendor vs. commodity/in-house), and which *network
//!   design* (classic cluster vs. data center fabric) each belongs to —
//!   the classification keys of Figures 2–13.
//! * [`naming`] — Facebook's device naming convention ("every rack switch
//!   has a name prefixed with `rsw.`", §4.3.1): generation and parsing.
//!   The SEV analysis classifies incidents by parsing these prefixes,
//!   exactly as the paper describes.
//! * [`graph`] — the underlying multigraph of devices and capacitated
//!   links.
//! * [`cluster`] — the classic cluster network builder: RSWs aggregated
//!   by 4 CSWs per cluster, CSWs by CSAs, CSAs by Cores (Fig. 1 ➀–➃).
//! * [`fabric`] — the data center fabric builder: pods of RSWs with a
//!   1:4 RSW:FSW uplink ratio, FSWs aggregated by SSW planes, SSWs by
//!   ESWs, ESWs by Cores (Fig. 1 ➅–➉).
//! * [`routing`] — reachability and path-diversity queries under failure
//!   sets, plus the *blast radius* metric: how many racks lose
//!   connectivity (or a fraction of uplink capacity) when a given device
//!   fails. This operationalizes the paper's observation that "devices
//!   with higher bisection bandwidth tend to affect a larger number of
//!   connected devices... correlated with widespread impact" (§5.2).
//! * [`forwarding`] — materialized per-device forwarding state:
//!   component reachability, valley-free next-hop tables, and ECMP path
//!   sets to the Core tier with incremental invalidation under failure
//!   changes. The service-impact layer derives capacity loss from the
//!   surviving path fractions instead of blast-radius heuristics.
//! * [`datacenter`] — assembling devices into data centers and regions
//!   with edges (BBR sites), mirroring Fig. 1's two-region layout.
//! * [`zoo`] — the topology zoo: a static registry of named,
//!   parameterized generators (cluster, fabric, k-ary fat-tree,
//!   F16-style multi-plane, BCube, DCell) behind one
//!   [`zoo::TopologyModel`] abstraction, powering the survivability
//!   scenario family and `dcnr topology --list`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod datacenter;
pub mod device;
pub mod fabric;
pub mod forwarding;
pub mod graph;
pub mod naming;
pub mod routing;
pub mod zoo;

#[cfg(test)]
mod proptests;

pub use cluster::{ClusterNetworkBuilder, ClusterParams};
pub use datacenter::{DataCenter, Region, RegionBuilder};
pub use device::{Device, DeviceId, DeviceType, HardwareSource, NetworkDesign};
pub use fabric::{FabricNetworkBuilder, FabricParams};
pub use forwarding::{ForwardingState, ForwardingStats};
pub use graph::{LinkId, Topology};
pub use naming::{format_device_name, parse_device_type, DeviceName, NameError};
pub use routing::{BlastRadius, BlastScratch, FailureSet};
pub use zoo::{ParamSpec, TopologyModel, ZOO};
