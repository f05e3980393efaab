//! # sor-obs
//!
//! The workspace's observability layer: structured spans, metrics, and
//! leveled logging for the routing pipeline. The paper's claims are
//! quantitative (congestion competitiveness vs. sparsity `s`, completion
//! time vs. `C + D`), so every performance PR needs to see *where* the
//! iterations and the wall time go — this crate is that instrument.
//!
//! Three facilities, one registry:
//!
//! * **Spans** ([`span`]) — RAII scoped timers that nest into a phase
//!   tree (`sor/run` → `hierarchy/build` → `frt/tree`, …) with call
//!   counts and wall time, rendered as a flamegraph-style text report
//!   ([`phase_report`]).
//! * **Counters and histograms** ([`count`], [`observe`], and the
//!   cached-handle macros [`counter_add!`] and [`observe_into!`]) — a
//!   lock-cheap sharded [`MetricsRegistry`] built on the vendored
//!   `parking_lot`; counters are single atomics after registration, and
//!   every histogram is a [`LogHistogram`].
//! * **Leveled logging** ([`warn!`], [`debug!`])
//!   routed through one process-wide sink, so `--quiet` can actually
//!   silence the whole pipeline and tests can capture diagnostics.
//!
//! # Cheap when disabled
//!
//! Capture is **off by default**. Every recording call site first checks
//! [`enabled`] — one relaxed atomic load — and does nothing more while
//! capture is off. Metrics never feed back into any algorithm, so seeded pipeline
//! output is bit-identical with observability on or off (the workspace's
//! determinism test asserts exactly that).
//!
//! # Snapshot / export
//!
//! [`snapshot`](fn@snapshot) collects every registered counter, histogram, and span
//! into a deterministic, name-sorted [`Snapshot`]; `Snapshot::to_json`
//! hand-rolls the machine-readable export (no serde in the tree), and
//! the [`snapshot`](mod@snapshot) module reads it back. The `sor` CLI
//! exposes it as `--metrics-out FILE` / `--trace`, `sor-bench` writes
//! `BENCH_<experiment>.json` next to its result tables, and the `perf`
//! gate embeds one work snapshot per bench in its baseline.
//!
//! # Live telemetry (v2)
//!
//! On top of the cumulative registry sit the pieces a long-running
//! server needs: [`loghist`] (the registry's histogram type, here also
//! giving streaming percentiles), [`timeline`] (the per-epoch row and
//! its JSON and dashboard renderings), [`slo`] (declarative threshold
//! watchdogs), and [`expose`] (Prometheus-style text exposition over a
//! plain TCP scrape thread). All of it is read-only over recorded data —
//! live telemetry can never perturb the bit-determinism contract.
//!
//! # Flight recorder & forensics (v3)
//!
//! [`journal`] is a bounded ring of structured *causal* events of five
//! types: edge failures and restores, top-k edge loads and path churn,
//! each epoch closed by an `epoch_end` event that carries the epoch's
//! timeline row, admitted-demand fingerprint and solve lower bound. Its
//! dump format is the versioned `sor-journal/3`. It is the one
//! per-epoch store: the timeline is its newest rows, and [`forensics`]
//! folds a dump's events to attribute epoch-over-epoch congestion/wall
//! deltas to causes (failure vs. eviction vs. cold sampling vs. demand
//! churn). The serving layer snapshots the ring on SLO breaches;
//! `sor forensics` analyzes the artifact offline.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod expose;
pub mod forensics;
pub mod journal;
mod json;
mod logging;
pub mod loghist;
mod metrics;
pub mod slo;
pub mod snapshot;
mod span;
pub mod timeline;

pub use expose::{prom_name, render_prometheus, PromGauges, TelemetryHandler, TelemetryServer};
pub use forensics::{
    analyze, fold_epochs, Cause, CauseAttribution, EdgeShift, EpochStats, EpochTransition,
    ForensicsReport, CAUSES,
};
pub use journal::{
    parse_journal, EdgeLoad, Journal, JournalDump, JournalEvent, DEFAULT_JOURNAL_CAPACITY,
};
pub use json::{parse_json, push_escaped, push_f64, JsonError, JsonValue};
pub use logging::{
    log, log_enabled, log_level, set_log_level, set_sink, take_captured, Level, Sink,
};
pub use loghist::LogHistogram;
pub use metrics::{
    count, count_usize, counter, histogram, observe, registry, BucketCount, Counter,
    CounterSnapshot, HistogramSnapshot, MetricsRegistry,
};
pub use slo::{HealthSummary, SloBreach, SloConfig, SloInputs, SloWatchdog, SLO_RULES};
pub use span::{phase_report, render_phase_tree, span, Span, SpanSnapshot};
pub use timeline::EpochRecord;

/// Runtime capture switch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric/span capture is currently on. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric/span capture on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every registered counter and histogram and clear the span tree.
///
/// Handles returned by [`counter`] / [`histogram`] (including the ones
/// cached by [`counter_add!`] / [`observe_into!`]) stay valid — the
/// registry zeroes values in place rather than dropping the cells, so a
/// cached handle never counts into a detached metric.
pub fn reset() {
    metrics::registry().reset();
    span::reset_spans();
}

/// A full, deterministic (name-sorted) dump of the registry and the span
/// tree. See [`snapshot`](fn@snapshot).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The span phase tree, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Number of distinct named metrics (counters + histograms).
    pub fn num_metrics(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// Serialize to the machine-readable JSON export, optionally with
    /// extra top-level string fields (`meta`), e.g. the experiment id.
    pub fn to_json_with_meta(&self, meta: &[(&str, &str)]) -> String {
        json::snapshot_to_json(self, meta)
    }

    /// Serialize to the machine-readable JSON export.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }
}

/// Collect a [`Snapshot`] of everything recorded so far.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: metrics::registry().counter_snapshots(),
        histograms: metrics::registry().histogram_snapshots(),
        spans: span::span_snapshots(),
    }
}

/// Increment a named counter through a call-site-cached handle: the
/// registry is consulted once per call site, after which each hit is a
/// single atomic add. The name must be a `&'static str` literal. No-op
/// while capture is disabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::counter($name)).add($n);
        }
    }};
    ($name:expr) => {
        $crate::counter_add!($name, 1)
    };
}

/// Record a value into a named [`LogHistogram`] through a
/// call-site-cached handle (see [`counter_add!`]). No-op while capture
/// is disabled.
#[macro_export]
macro_rules! observe_into {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::LogHistogram>> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::histogram($name))
                .observe($value);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_toggles() {
        // Serialize against other tests that flip the global switch.
        let _guard = crate::metrics::test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn macros_are_noops_when_disabled() {
        let _guard = crate::metrics::test_lock();
        set_enabled(false);
        counter_add!("lib/test/disabled_counter");
        observe_into!("lib/test/disabled_histo", 1.5);
        let snap = snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|c| c.name == "lib/test/disabled_counter"));
        assert!(!snap
            .histograms
            .iter()
            .any(|h| h.name == "lib/test/disabled_histo"));
    }

    #[test]
    fn macros_record_when_enabled() {
        let _guard = crate::metrics::test_lock();
        set_enabled(true);
        counter_add!("lib/test/macro_counter", 3);
        counter_add!("lib/test/macro_counter");
        observe_into!("lib/test/macro_histo", 1.5);
        set_enabled(false);
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "lib/test/macro_counter")
            .expect("registered");
        assert_eq!(c.value, 4);
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "lib/test/macro_histo" && h.count == 1));
    }

    #[test]
    fn reset_keeps_cached_handles_valid() {
        let _guard = crate::metrics::test_lock();
        set_enabled(true);
        let c = counter("lib/test/reset_counter");
        c.add(5);
        reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        // the registry still serves the same cell
        assert_eq!(counter("lib/test/reset_counter").get(), 2);
        set_enabled(false);
    }
}
