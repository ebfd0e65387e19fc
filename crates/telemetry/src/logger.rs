//! A minimal leveled stderr logger shared by the CLI and the sweep
//! runner.
//!
//! One process-wide verbosity knob (an atomic, no locks, no globals to
//! initialize); messages at or below the knob print to stderr verbatim
//! — no timestamps or prefixes, so existing progress text is unchanged
//! at the default level.
//! `--quiet` drops to [`Level::Error`], `-v` raises to
//! [`Level::Debug`].

use std::sync::atomic::{AtomicU8, Ordering};

/// Message severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures the user must see even under `--quiet`.
    Error = 0,
    /// Suspicious-but-nonfatal conditions.
    Warn = 1,
    /// Normal progress narration (the default).
    Info = 2,
    /// Extra detail enabled by `-v`.
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

static VERBOSITY: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide verbosity.
pub fn set_verbosity(level: Level) {
    VERBOSITY.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide verbosity.
pub fn verbosity() -> Level {
    Level::from_u8(VERBOSITY.load(Ordering::Relaxed))
}

/// Whether messages at `level` currently print.
pub fn enabled(level: Level) -> bool {
    level <= verbosity()
}

/// Prints `msg` to stderr when `level` is enabled.
pub fn log(level: Level, msg: &str) {
    if enabled(level) {
        eprintln!("{msg}");
    }
}

/// [`Level::Error`] message (always printed, even under `--quiet`).
pub fn error(msg: impl AsRef<str>) {
    log(Level::Error, msg.as_ref());
}

/// [`Level::Warn`] message.
pub fn warn(msg: impl AsRef<str>) {
    log(Level::Warn, msg.as_ref());
}

/// [`Level::Info`] message.
pub fn info(msg: impl AsRef<str>) {
    log(Level::Info, msg.as_ref());
}

/// [`Level::Debug`] message (printed only under `-v`).
pub fn debug(msg: impl AsRef<str>) {
    log(Level::Debug, msg.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        // Note: verbosity is process-global; restore the default so
        // parallel test threads observing it are unaffected.
        assert!(Level::Error < Level::Info);
        set_verbosity(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_verbosity(Level::Debug);
        assert!(enabled(Level::Debug));
        set_verbosity(Level::Info);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Debug));
        assert_eq!(verbosity(), Level::Info);
    }
}
