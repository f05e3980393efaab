//! The sharded metrics registry: monotonic counters and log-bucketed
//! histograms ([`LogHistogram`]).
//!
//! Registration (name → cell) goes through one of `SHARDS` mutex-guarded
//! maps picked by an FNV-1a hash of the metric name, so unrelated metrics
//! never contend; after registration a counter is a single `AtomicU64`
//! and a histogram is a row of them, both updatable from any thread
//! without taking a lock. The hot-path macros in the crate root
//! ([`crate::counter_add!`], [`crate::observe_into!`]) additionally cache
//! the `Arc` handle per call site, so the steady-state cost of an
//! increment is one relaxed atomic load (the [`crate::enabled`] guard)
//! plus one atomic add.

use crate::LogHistogram;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of registry shards (power of two; metric names hash across
/// them so registration of unrelated metrics never contends).
const SHARDS: usize = 16;

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// One occupied bucket of a [`HistogramSnapshot`]: the inclusive upper
/// edge and the count that landed in it.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketCount {
    /// Inclusive upper edge.
    pub le: f64,
    /// Observations in this bucket.
    pub count: u64,
}

/// Snapshot of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// The occupied buckets, edges ascending.
    pub buckets: Vec<BucketCount>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<HashMap<&'static str, Arc<LogHistogram>>>,
}

/// The process-wide sharded metrics store. Use [`registry`] for the
/// global instance; a fresh instance is only useful in tests.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }
}

/// FNV-1a over the metric name — stable across processes, so shard
/// assignment (and with it any lock interleaving) is deterministic.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    usize::try_from(h % (SHARDS as u64)).unwrap_or(0)
}

impl MetricsRegistry {
    /// Get or register the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let shard = &self.shards[shard_of(name)];
        Arc::clone(
            shard
                .counters
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<LogHistogram> {
        let shard = &self.shards[shard_of(name)];
        Arc::clone(shard.histograms.lock().entry(name).or_default())
    }

    /// Zero every counter and histogram in place (handles stay valid).
    pub fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counters.lock().values() {
                c.reset();
            }
            for h in shard.histograms.lock().values() {
                h.reset();
            }
        }
    }

    /// Name-sorted snapshot of every registered counter.
    pub fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (name, c) in shard.counters.lock().iter() {
                out.push(CounterSnapshot {
                    name: (*name).to_string(),
                    value: c.get(),
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Name-sorted snapshot of every registered histogram.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (name, h) in shard.histograms.lock().iter() {
                out.push(HistogramSnapshot {
                    name: (*name).to_string(),
                    buckets: h
                        .buckets()
                        .into_iter()
                        .map(|(le, count)| BucketCount { le, count })
                        .collect(),
                    count: h.count(),
                    sum: h.sum(),
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// The global registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// Get or register the global counter `name`. Registration is
/// unconditional; prefer [`count`] / [`crate::counter_add!`] at
/// recording sites so disabled runs register nothing.
pub fn counter(name: &'static str) -> Arc<Counter> {
    registry().counter(name)
}

/// Get or register the global histogram `name`.
pub fn histogram(name: &'static str) -> Arc<LogHistogram> {
    registry().histogram(name)
}

/// Add `n` to counter `name` if capture is enabled (registering it on
/// first touch). For hot loops prefer [`crate::counter_add!`], which
/// caches the handle per call site.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if crate::enabled() {
        registry().counter(name).add(n);
    }
}

/// [`count`] with a `usize` increment (saturating into `u64`).
#[inline]
pub fn count_usize(name: &'static str, n: usize) {
    count(name, u64::try_from(n).unwrap_or(u64::MAX));
}

/// Record `v` into histogram `name` if capture is enabled (registering
/// it on first touch). For hot loops prefer [`crate::observe_into!`].
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if crate::enabled() {
        registry().histogram(name).observe(v);
    }
}

/// Serialize access to the process-global capture switch and registry in
/// unit tests (they run on a shared thread pool).
#[cfg(test)]
pub(crate) fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let r = MetricsRegistry::default();
        let c = r.counter("metrics/test/counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name → same cell
        assert_eq!(r.counter("metrics/test/counter").get(), 5);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::default();
        r.counter("metrics/test/b").inc();
        r.counter("metrics/test/a").add(2);
        r.histogram("metrics/test/h").observe(0.5);
        let counters = r.counter_snapshots();
        let names: Vec<&str> = counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["metrics/test/a", "metrics/test/b"]);
        let histos = r.histogram_snapshots();
        assert_eq!(histos.len(), 1);
        // a value below 1 is the underflow bucket, at edge 1
        assert_eq!(histos[0].buckets, vec![BucketCount { le: 1.0, count: 1 }]);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = MetricsRegistry::default();
        let c = r.counter("metrics/test/reset");
        let h = r.histogram("metrics/test/reset_h");
        c.add(7);
        h.observe(0.5);
        h.observe(300.0);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.buckets().is_empty());
        // cells survive the reset
        c.inc();
        assert_eq!(r.counter("metrics/test/reset").get(), 1);
        h.observe(2.0);
        assert_eq!(
            r.histogram("metrics/test/reset_h").buckets(),
            vec![(2.0, 1)]
        );
    }

    #[test]
    fn shard_of_is_stable() {
        // the exact values don't matter; cross-process stability does
        assert_eq!(shard_of("flow/mwu/phases"), shard_of("flow/mwu/phases"));
        assert!(shard_of("a") < SHARDS);
    }
}
