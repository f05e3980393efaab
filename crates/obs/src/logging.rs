//! Leveled logging through one process-wide sink.
//!
//! The pipeline's diagnostics (rounding convergence warnings, topology
//! build stats, failure-replay fallbacks, …) go through the [`warn!`] and
//! [`debug!`] macros instead of ad-hoc `eprintln!`s, so one switch
//! silences everything: the `sor` CLI's `--quiet` maps to
//! [`set_log_level`]`(Level::Off)` and tests can redirect output into a
//! capture buffer with [`set_sink`].
//!
//! Logging is deliberately independent of the metric/span capture
//! switch ([`crate::enabled`]): diagnostics default to [`Level::Warn`]
//! even in otherwise uninstrumented runs.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log severity. Ordering matters: a message is emitted when its level
/// is `<=` the configured [`log_level`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Suppress everything (the `--quiet` setting).
    Off = 0,
    /// Unrecoverable or wrong-answer conditions only; as a threshold it
    /// silences warnings and detail.
    Error = 1,
    /// Degraded behaviour the user should know about (fallbacks,
    /// non-convergence). The default.
    Warn = 2,
    /// Per-iteration / per-topology detail.
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            3 => Level::Debug,
            _ => Level::Warn,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Debug => "debug",
        }
    }
}

/// Where log lines go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sink {
    /// Write to standard error (the default).
    Stderr,
    /// Append formatted lines to an in-memory buffer readable with
    /// [`take_captured`] — for tests.
    Memory,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

fn sink_state() -> &'static Mutex<(Sink, Vec<String>)> {
    static SINK: OnceLock<Mutex<(Sink, Vec<String>)>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new((Sink::Stderr, Vec::new())))
}

/// Set the global log level.
pub fn set_log_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global log level.
pub fn log_level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` would currently be emitted.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Redirect log output. Switching away from [`Sink::Memory`] keeps any
/// captured lines until [`take_captured`] drains them.
pub fn set_sink(sink: Sink) {
    sink_state().lock().0 = sink;
}

/// Drain and return the lines captured while the sink was
/// [`Sink::Memory`].
pub fn take_captured() -> Vec<String> {
    std::mem::take(&mut sink_state().lock().1)
}

/// Emit one log line (the macros call this; prefer them). The line
/// format is `level target: message`.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    if !log_enabled(level) {
        return;
    }
    let line = format!("{} {}: {}", level.label(), target, args);
    let mut state = sink_state().lock();
    match state.0 {
        Sink::Stderr => eprintln!("{line}"),
        Sink::Memory => state.1.push(line),
    }
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Warn) {
            $crate::log($crate::Level::Warn, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, module_path!(), format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_filter_and_sink_captures() {
        let _guard = crate::metrics::test_lock();
        set_sink(Sink::Memory);
        let _ = take_captured();
        set_log_level(Level::Warn);
        crate::warn!("shown {}", 1);
        crate::debug!("hidden");
        set_log_level(Level::Debug);
        crate::debug!("now shown");
        set_log_level(Level::Off);
        crate::warn!("silenced entirely");
        let lines = take_captured();
        set_log_level(Level::Warn);
        set_sink(Sink::Stderr);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("warn "));
        assert!(lines[0].ends_with("shown 1"));
        assert!(lines[1].starts_with("debug "));
        assert!(lines[1].contains("sor_obs::logging"));
    }

    #[test]
    fn level_roundtrip_and_order() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Debug);
        for l in [Level::Off, Level::Error, Level::Warn, Level::Debug] {
            assert_eq!(Level::from_u8(l as u8), l);
        }
    }
}
