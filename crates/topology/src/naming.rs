//! The device naming convention and its parser.
//!
//! §4.3.1: *"we leverage the naming convention enforced by Facebook where
//! each network device is named with a unique, machine-understandable
//! string prefixed with the device type. For example, every rack switch
//! has a name prefixed with `rsw.`. Therefore, by parsing the prefix of
//! the name of the offending device, we are able to classify the SEVs
//! based on the device types."*
//!
//! Names look like `rsw.dc03.c012.r0431` — `<type>.<datacenter>.<scope>.
//! <unit>` — and the classifier only relies on the first dot-separated
//! component, exactly as the paper's methodology does. The parser is
//! intentionally tolerant of everything after the prefix: real SEV
//! reports contain device names from several generations of conventions.

use crate::device::{DeviceType, NetworkDesign};
use std::fmt;

/// Errors from [`parse_device_type`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// The name is empty or has no `<prefix>.` component.
    Malformed,
    /// The prefix is syntactically fine but not a known device type.
    UnknownPrefix(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::Malformed => write!(f, "device name lacks a '<type>.' prefix"),
            NameError::UnknownPrefix(p) => write!(f, "unknown device type prefix {p:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// Classifies a device name by its type prefix.
///
/// Matching is case-insensitive on the prefix only (SEV authors type
/// names by hand in a hurry). The remainder of the name is not validated.
/// Only an [`NameError::UnknownPrefix`] allocates.
///
/// # Examples
///
/// ```
/// use dcnr_topology::{parse_device_type, DeviceType};
/// assert_eq!(parse_device_type("rsw.dc03.c012.r0431").unwrap(), DeviceType::Rsw);
/// assert_eq!(parse_device_type("CORE.dc01.x.1").unwrap(), DeviceType::Core);
/// assert!(parse_device_type("router42").is_err());
/// ```
pub fn parse_device_type(name: &str) -> Result<DeviceType, NameError> {
    let prefix = name
        .split('.')
        .next()
        .filter(|p| !p.is_empty())
        .ok_or(NameError::Malformed)?;
    if prefix.len() == name.len() {
        // No dot at all: not the enforced convention.
        return Err(NameError::Malformed);
    }
    DeviceType::ALL
        .into_iter()
        .find(|t| prefix.eq_ignore_ascii_case(t.name_prefix()))
        .ok_or_else(|| NameError::UnknownPrefix(prefix.to_string()))
}

/// A canonical device name, formatted only when displayed:
/// `<type>.dc<dc:02>.<scope><scope_idx:03>.u<unit:04>` — e.g.
/// `csw.dc02.c007.u0003`.
///
/// The `scope` letter distinguishes clusters (`c`) from pods (`p`) and
/// planes (`s`); callers pick what is meaningful for the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceName {
    device_type: DeviceType,
    datacenter: u16,
    scope: char,
    scope_idx: u32,
    unit: u32,
}

impl DeviceName {
    /// The name of the fleet's `unit`-th device of a type: data centers
    /// hold up to 4096 devices of a type, scopes up to 64, and the scope
    /// letter follows the type's design (`c`luster, `p`od, or `x` for
    /// the shared types).
    pub fn of_unit(device_type: DeviceType, unit: u32) -> Self {
        let scope = match device_type.design() {
            NetworkDesign::Cluster => 'c',
            NetworkDesign::Fabric => 'p',
            NetworkDesign::Shared => 'x',
        };
        Self {
            device_type,
            datacenter: (unit / 4096) as u16,
            scope,
            scope_idx: (unit / 64) % 64,
            unit,
        }
    }
}

impl fmt::Display for DeviceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.dc{:02}.{}{:03}.u{:04}",
            self.device_type.name_prefix(),
            self.datacenter,
            self.scope,
            self.scope_idx,
            self.unit
        )
    }
}

/// Formats a canonical device name; see [`DeviceName`].
pub fn format_device_name(
    device_type: DeviceType,
    datacenter: u16,
    scope: char,
    scope_idx: u32,
    unit: u32,
) -> String {
    DeviceName {
        device_type,
        datacenter,
        scope,
        scope_idx,
        unit,
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_known_prefixes() {
        for t in DeviceType::INTRA_DC {
            let name = format!("{}.dc01.c000.u0000", t.name_prefix());
            assert_eq!(parse_device_type(&name).unwrap(), t);
        }
        assert_eq!(parse_device_type("bbr.edge7.x.1").unwrap(), DeviceType::Bbr);
    }

    #[test]
    fn case_insensitive_prefix() {
        assert_eq!(
            parse_device_type("RSW.DC01.C000.U0000").unwrap(),
            DeviceType::Rsw
        );
        assert_eq!(parse_device_type("Fsw.dc9.p1.u1").unwrap(), DeviceType::Fsw);
    }

    #[test]
    fn rejects_missing_or_unknown_prefix() {
        assert_eq!(parse_device_type(""), Err(NameError::Malformed));
        assert_eq!(parse_device_type("."), Err(NameError::Malformed));
        assert_eq!(parse_device_type("rsw"), Err(NameError::Malformed));
        assert!(matches!(
            parse_device_type("dr.dc01.x.1"),
            Err(NameError::UnknownPrefix(_))
        ));
        assert!(matches!(
            parse_device_type("switch.a.b"),
            Err(NameError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn prefix_must_be_exact_word() {
        // "rswx." is not "rsw.".
        assert!(matches!(
            parse_device_type("rswx.dc01.c0.u0"),
            Err(NameError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn format_then_parse_roundtrip() {
        for t in DeviceType::INTRA_DC {
            let name = format_device_name(t, 3, 'c', 12, 431);
            assert_eq!(parse_device_type(&name).unwrap(), t);
        }
    }

    #[test]
    fn formatted_names_are_unique_per_coordinates() {
        let a = format_device_name(DeviceType::Rsw, 1, 'c', 2, 3);
        let b = format_device_name(DeviceType::Rsw, 1, 'c', 2, 4);
        let c = format_device_name(DeviceType::Rsw, 1, 'c', 3, 3);
        let d = format_device_name(DeviceType::Rsw, 2, 'c', 2, 3);
        let set: std::collections::HashSet<_> = [&a, &b, &c, &d].into_iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(a, "rsw.dc01.c002.u0003");
    }

    #[test]
    fn fleet_units_lay_out_by_datacenter_and_scope() {
        let name = |t, unit| DeviceName::of_unit(t, unit).to_string();
        assert_eq!(name(DeviceType::Csw, 0), "csw.dc00.c000.u0000");
        assert_eq!(name(DeviceType::Fsw, 4096 + 65), "fsw.dc01.p001.u4161");
        assert_eq!(name(DeviceType::Core, 64 * 64), "core.dc01.x000.u4096");
        assert_eq!(name(DeviceType::Rsw, 12_345), "rsw.dc03.x000.u12345");
    }

    #[test]
    fn error_display() {
        assert!(NameError::Malformed.to_string().contains("prefix"));
        assert!(NameError::UnknownPrefix("dr".into())
            .to_string()
            .contains("dr"));
    }
}
