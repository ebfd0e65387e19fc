//! Vendor notification e-mails: rendering and parsing.
//!
//! "When the vendor starts repairing a link (when the link is down) or
//! performing maintenance for a fiber link, Facebook is notified via
//! email. The email is in a structured form, including the logical IDs
//! of the fiber link, the physical location of the affected fiber
//! circuits, the starting time of the repair/maintenance, the estimated
//! duration, etc. Similarly, when the vendor completes the
//! repair/maintenance of a link, they send an email for confirmation.
//! The emails are automatically parsed and stored in a database."
//! (§4.3.2)
//!
//! The wire format is RFC-822-flavoured headers over a byte buffer
//! ([`RawEmail`]); the parser is a tolerant line-oriented state
//! machine (header folding not supported — vendors' systems emit one
//! field per line): unknown headers are skipped, required fields are
//! validated, and malformed messages yield a typed error rather than a
//! panic — real ingestion pipelines drop bad mail, they do not crash.

use crate::ticket::TicketKind;
use crate::topo::FiberLinkId;
use crate::vendor::VendorId;
use dcnr_sim::SimTime;
use std::fmt;
use std::sync::Arc;

/// A rendered e-mail on the wire: immutable bytes whose clone is a
/// refcount bump, so a stream can be reordered and duplicated cheaply.
pub type RawEmail = Arc<[u8]>;

/// One structured vendor notification.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorEmail {
    /// The notifying vendor.
    pub vendor: VendorId,
    /// The affected fiber link's logical id.
    pub link: FiberLinkId,
    /// What the notification announces.
    pub kind: TicketKind,
    /// Whether this is the start (`true`) or completion (`false`)
    /// notification.
    pub is_start: bool,
    /// Event time (start time for starts, completion time for
    /// completions), seconds since the study epoch.
    pub at: SimTime,
    /// Affected circuit ids within the link.
    pub circuits: Vec<u8>,
    /// Physical location string (continent code + free text).
    pub location: String,
    /// Vendor's estimated duration in hours (starts only; vendors'
    /// estimates are famously optimistic and the analysis ignores them —
    /// we parse them because the format carries them).
    pub estimated_hours: Option<f64>,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmailParseError {
    /// Not valid UTF-8.
    NotUtf8,
    /// A required header is missing.
    MissingField(&'static str),
    /// A header value failed validation.
    BadField(&'static str, String),
    /// A header appeared more than once. Vendor systems emit each field
    /// exactly once; a repeat means the message was mangled in transit
    /// (e.g. two notifications spliced together), and silently keeping
    /// either occurrence would record data no vendor sent.
    DuplicateField(&'static str),
}

impl fmt::Display for EmailParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmailParseError::NotUtf8 => write!(f, "email body is not UTF-8"),
            EmailParseError::MissingField(name) => write!(f, "missing header {name}"),
            EmailParseError::BadField(name, v) => write!(f, "bad value for {name}: {v:?}"),
            EmailParseError::DuplicateField(name) => write!(f, "duplicate header {name}"),
        }
    }
}

impl std::error::Error for EmailParseError {}

/// Renders an e-mail to its wire form.
pub fn render_email(email: &VendorEmail) -> RawEmail {
    let phase = if email.is_start { "START" } else { "COMPLETE" };
    let kind = match email.kind {
        TicketKind::Repair => "REPAIR",
        TicketKind::Maintenance => "MAINTENANCE",
    };
    let circuits = email
        .circuits
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut s = String::new();
    s.push_str(&format!(
        "Subject: [{}] {kind} {phase} for {}\r\n",
        email.vendor, email.link
    ));
    s.push_str(&format!("X-Vendor-Id: {}\r\n", email.vendor.index()));
    s.push_str(&format!("X-Link-Id: {}\r\n", email.link.index()));
    s.push_str(&format!("X-Event: {kind}-{phase}\r\n"));
    s.push_str(&format!("X-Event-Time: {}\r\n", email.at.as_secs()));
    s.push_str(&format!("X-Circuits: {circuits}\r\n"));
    s.push_str(&format!("X-Location: {}\r\n", email.location));
    if let Some(h) = email.estimated_hours {
        s.push_str(&format!("X-Estimated-Duration-Hours: {h:.1}\r\n"));
    }
    s.push_str("\r\nAutomated notification. Do not reply.\r\n");
    s.into_bytes().into()
}

/// Parses a wire-form e-mail.
///
/// Tolerant of: unknown headers, arbitrary header order, missing
/// optional fields, `\n` vs `\r\n` line endings, stray whitespace, and a
/// missing body. Strict about: the five required fields, their value
/// syntax, and repeats — any recognised header appearing twice is a
/// [`EmailParseError::DuplicateField`] (a duplicated `X-Circuits` used
/// to silently concatenate both lists, inventing circuits no vendor
/// reported). `X-Estimated-Duration-Hours` must be a finite,
/// non-negative number; a malformed estimate is a
/// [`EmailParseError::BadField`] rather than a silently dropped value.
pub fn parse_email(raw: &[u8]) -> Result<VendorEmail, EmailParseError> {
    let text = std::str::from_utf8(raw).map_err(|_| EmailParseError::NotUtf8)?;

    let mut vendor: Option<u32> = None;
    let mut link: Option<u32> = None;
    let mut event: Option<(TicketKind, bool)> = None;
    let mut at: Option<u64> = None;
    let mut circuits: Option<Vec<u8>> = None;
    let mut location: Option<String> = None;
    let mut estimated_hours: Option<f64> = None;

    fn set_once<T>(
        slot: &mut Option<T>,
        name: &'static str,
        value: T,
    ) -> Result<(), EmailParseError> {
        if slot.is_some() {
            return Err(EmailParseError::DuplicateField(name));
        }
        *slot = Some(value);
        Ok(())
    }

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            break; // headers end at the blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            continue; // tolerate junk lines
        };
        let value = value.trim();
        match name.trim() {
            "X-Vendor-Id" => {
                let v = value
                    .parse()
                    .map_err(|_| EmailParseError::BadField("X-Vendor-Id", value.to_string()))?;
                set_once(&mut vendor, "X-Vendor-Id", v)?;
            }
            "X-Link-Id" => {
                let v = value
                    .parse()
                    .map_err(|_| EmailParseError::BadField("X-Link-Id", value.to_string()))?;
                set_once(&mut link, "X-Link-Id", v)?;
            }
            "X-Event" => {
                let v = match value {
                    "REPAIR-START" => (TicketKind::Repair, true),
                    "REPAIR-COMPLETE" => (TicketKind::Repair, false),
                    "MAINTENANCE-START" => (TicketKind::Maintenance, true),
                    "MAINTENANCE-COMPLETE" => (TicketKind::Maintenance, false),
                    other => return Err(EmailParseError::BadField("X-Event", other.to_string())),
                };
                set_once(&mut event, "X-Event", v)?;
            }
            "X-Event-Time" => {
                let v = value
                    .parse()
                    .map_err(|_| EmailParseError::BadField("X-Event-Time", value.to_string()))?;
                set_once(&mut at, "X-Event-Time", v)?;
            }
            "X-Circuits" => {
                let mut list = Vec::new();
                for part in value.split(',').filter(|p| !p.trim().is_empty()) {
                    list.push(
                        part.trim().parse().map_err(|_| {
                            EmailParseError::BadField("X-Circuits", value.to_string())
                        })?,
                    );
                }
                set_once(&mut circuits, "X-Circuits", list)?;
            }
            "X-Location" => set_once(&mut location, "X-Location", value.to_string())?,
            "X-Estimated-Duration-Hours" => {
                let h: f64 = value.parse().map_err(|_| {
                    EmailParseError::BadField("X-Estimated-Duration-Hours", value.to_string())
                })?;
                if !h.is_finite() || h < 0.0 {
                    return Err(EmailParseError::BadField(
                        "X-Estimated-Duration-Hours",
                        value.to_string(),
                    ));
                }
                set_once(&mut estimated_hours, "X-Estimated-Duration-Hours", h)?;
            }
            _ => {} // Subject and anything else: ignored
        }
    }

    let (kind, is_start) = event.ok_or(EmailParseError::MissingField("X-Event"))?;
    Ok(VendorEmail {
        vendor: VendorId::from_index(vendor.ok_or(EmailParseError::MissingField("X-Vendor-Id"))?),
        link: FiberLinkId::from_index(link.ok_or(EmailParseError::MissingField("X-Link-Id"))?),
        kind,
        is_start,
        at: SimTime::from_secs(at.ok_or(EmailParseError::MissingField("X-Event-Time"))?),
        circuits: circuits.unwrap_or_default(),
        location: location.unwrap_or_default(),
        estimated_hours,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VendorEmail {
        VendorEmail {
            vendor: VendorId::from_index(7),
            link: FiberLinkId::from_index(123),
            kind: TicketKind::Repair,
            is_start: true,
            at: SimTime::from_date(2017, 3, 4).unwrap(),
            circuits: vec![0, 2],
            location: "NA / Forest City conduit 4".into(),
            estimated_hours: Some(12.5),
        }
    }

    #[test]
    fn roundtrip() {
        let e = sample();
        let raw = render_email(&e);
        let parsed = parse_email(&raw).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn roundtrip_completion_without_estimate() {
        let e = VendorEmail {
            is_start: false,
            estimated_hours: None,
            kind: TicketKind::Maintenance,
            ..sample()
        };
        let raw = render_email(&e);
        assert_eq!(parse_email(&raw).unwrap(), e);
    }

    #[test]
    fn tolerates_unknown_headers_and_lf_endings() {
        let raw = "Subject: whatever\n\
             X-Priority: urgent!!\n\
             X-Vendor-Id: 3\n\
             X-Link-Id: 55\n\
             X-Event: REPAIR-COMPLETE\n\
             X-Event-Time: 1000\n\
             not-even-a-header\n\
             X-Location: EU\n\
             \n\
             body text ignored\nX-Vendor-Id: 99\n";
        let e = parse_email(raw.as_bytes()).unwrap();
        assert_eq!(e.vendor.index(), 3);
        assert_eq!(e.link.index(), 55);
        assert!(!e.is_start);
        assert_eq!(e.at.as_secs(), 1000);
        assert!(e.circuits.is_empty());
        // Header after the blank line must NOT override.
        assert_eq!(e.vendor.index(), 3);
    }

    #[test]
    fn missing_required_fields() {
        let raw = "X-Vendor-Id: 3\r\nX-Link-Id: 1\r\nX-Event-Time: 5\r\n\r\n";
        assert_eq!(
            parse_email(raw.as_bytes()),
            Err(EmailParseError::MissingField("X-Event"))
        );
        let raw = "X-Event: REPAIR-START\r\nX-Link-Id: 1\r\nX-Event-Time: 5\r\n\r\n";
        assert_eq!(
            parse_email(raw.as_bytes()),
            Err(EmailParseError::MissingField("X-Vendor-Id"))
        );
    }

    #[test]
    fn bad_values_are_typed_errors() {
        let raw = "X-Vendor-Id: seven\r\nX-Link-Id: 1\r\nX-Event: REPAIR-START\r\nX-Event-Time: 5\r\n\r\n";
        assert!(matches!(
            parse_email(raw.as_bytes()),
            Err(EmailParseError::BadField("X-Vendor-Id", _))
        ));
        let raw = "X-Vendor-Id: 7\r\nX-Link-Id: 1\r\nX-Event: EXPLODED\r\nX-Event-Time: 5\r\n\r\n";
        assert!(matches!(
            parse_email(raw.as_bytes()),
            Err(EmailParseError::BadField("X-Event", _))
        ));
    }

    #[test]
    fn duplicate_circuits_header_rejected_not_concatenated() {
        // Before the fix, two X-Circuits lines silently merged into
        // [0, 2, 5] — circuits no single notification reported.
        let raw = "X-Vendor-Id: 7\r\nX-Link-Id: 1\r\nX-Event: REPAIR-START\r\n\
             X-Event-Time: 5\r\nX-Circuits: 0,2\r\nX-Circuits: 5\r\n\r\n";
        assert_eq!(
            parse_email(raw.as_bytes()),
            Err(EmailParseError::DuplicateField("X-Circuits"))
        );
    }

    #[test]
    fn duplicate_scalar_headers_rejected() {
        for dup in [
            "X-Vendor-Id: 8",
            "X-Link-Id: 2",
            "X-Event: REPAIR-COMPLETE",
            "X-Event-Time: 9",
            "X-Location: EU",
            "X-Estimated-Duration-Hours: 3.0",
        ] {
            let raw = format!(
                "X-Vendor-Id: 7\r\nX-Link-Id: 1\r\nX-Event: REPAIR-START\r\n\
                 X-Event-Time: 5\r\nX-Location: NA\r\n\
                 X-Estimated-Duration-Hours: 1.0\r\n{dup}\r\n\r\n",
            );
            let name = dup.split(':').next().unwrap();
            match parse_email(raw.as_bytes()) {
                Err(EmailParseError::DuplicateField(f)) => assert_eq!(f, name),
                other => panic!("{name}: expected DuplicateField, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_estimate_is_a_typed_error_not_silently_dropped() {
        for bad in ["soon", "NaN", "inf", "-3.0", ""] {
            let raw = format!(
                "X-Vendor-Id: 7\r\nX-Link-Id: 1\r\nX-Event: REPAIR-START\r\n\
                 X-Event-Time: 5\r\nX-Estimated-Duration-Hours: {bad}\r\n\r\n",
            );
            assert!(
                matches!(
                    parse_email(raw.as_bytes()),
                    Err(EmailParseError::BadField("X-Estimated-Duration-Hours", _))
                ),
                "estimate {bad:?} should be rejected",
            );
        }
        // Zero is a legal (if useless) estimate.
        let raw = "X-Vendor-Id: 7\r\nX-Link-Id: 1\r\nX-Event: REPAIR-START\r\n\
             X-Event-Time: 5\r\nX-Estimated-Duration-Hours: 0.0\r\n\r\n";
        assert_eq!(
            parse_email(raw.as_bytes()).unwrap().estimated_hours,
            Some(0.0)
        );
    }

    #[test]
    fn non_utf8_rejected() {
        assert_eq!(
            parse_email(&[0xFF, 0xFE, 0x00]),
            Err(EmailParseError::NotUtf8)
        );
    }

    #[test]
    fn error_display() {
        assert!(EmailParseError::MissingField("X-Event")
            .to_string()
            .contains("X-Event"));
        assert!(EmailParseError::BadField("X-Link-Id", "x".into())
            .to_string()
            .contains("x"));
    }
}
