//! The typed error taxonomy for the study toolkit.
//!
//! Everything that can go wrong on an expected path — bad knobs, CLI
//! misuse, checkpoint corruption, a replica panicking — is a
//! [`DcnrError`] variant instead of a panic or an ad-hoc `String`.
//! Panics remain possible in genuinely unexpected code paths; the
//! scenario runner and the sweep's replica pool catch those with
//! [`std::panic::catch_unwind`] and convert them into
//! [`DcnrError::Panic`], which names where the panic happened (for a
//! sweep replica, its index and planned seed) and exits 1.
//!
//! The taxonomy also encodes the exit code each failure class gets:
//! usage errors exit 2, everything else 1, and [`DcnrError::Failed`]
//! marks runs that completed but failed their acceptance gate.

use std::fmt;

/// Every expected failure in the toolkit, by class.
#[derive(Debug, Clone, PartialEq)]
pub enum DcnrError {
    /// Invalid scenario or sweep configuration (bad scale, zero seeds,
    /// out-of-range chaos rate, ...).
    Config(String),
    /// Command-line misuse: unknown flag, missing or malformed value,
    /// conflicting flags.
    Usage(String),
    /// A filesystem operation failed (checkpoint directory, shard or
    /// manifest write, bench JSON).
    Io {
        /// The path the operation touched.
        path: String,
        /// What went wrong, including the OS error text.
        message: String,
    },
    /// Checkpoint data exists but is malformed or belongs to a
    /// different sweep configuration.
    Checkpoint {
        /// The offending file or directory.
        path: String,
        /// What was malformed or mismatched.
        message: String,
    },
    /// A caught panic — from a sweep replica or a directly-executed
    /// scenario. Never escapes its `catch_unwind` boundary as an
    /// unwind.
    Panic {
        /// Where the panic was caught (e.g. `replica 3 (seed 0x..)`).
        context: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The run completed but failed its acceptance gate (e.g. chaos
    /// drift outside tolerance).
    Failed(String),
}

impl DcnrError {
    /// Stable lower-case class name, used by reports and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            DcnrError::Config(_) => "config",
            DcnrError::Usage(_) => "usage",
            DcnrError::Io { .. } => "io",
            DcnrError::Checkpoint { .. } => "checkpoint",
            DcnrError::Panic { .. } => "panic",
            DcnrError::Failed(_) => "failed",
        }
    }

    /// The process exit code this error maps to: `2` for CLI misuse
    /// (mirroring conventional usage errors), `1` otherwise.
    pub fn exit_code(&self) -> u8 {
        match self {
            DcnrError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for DcnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcnrError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            DcnrError::Usage(msg) => write!(f, "{msg}"),
            DcnrError::Io { path, message } => write!(f, "{path}: {message}"),
            DcnrError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            DcnrError::Panic { context, message } => {
                write!(f, "panic in {context}: {message}")
            }
            DcnrError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DcnrError {}

/// Renders a caught panic payload: the `&str`/`String` message when the
/// panic carried one, a placeholder otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_the_payload() {
        let e = DcnrError::Panic {
            context: "replica 3 (seed 0x7)".into(),
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("replica 3") && s.contains("boom"), "{s}");
    }

    #[test]
    fn exit_codes_separate_usage_errors() {
        assert_eq!(DcnrError::Usage("x".into()).exit_code(), 2);
        assert_eq!(DcnrError::Failed("x".into()).exit_code(), 1);
        assert_eq!(DcnrError::Config("x".into()).exit_code(), 1);
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "literal");
        let caught = std::panic::catch_unwind(|| panic!("{}", 42)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(DcnrError::Config("".into()).kind(), "config");
        assert_eq!(
            DcnrError::Io {
                path: "p".into(),
                message: "m".into()
            }
            .kind(),
            "io"
        );
    }
}
