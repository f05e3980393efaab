//! Epoch timeline: a bounded ring of per-epoch serving records.
//!
//! The registry answers "how much, ever"; the timeline answers "what
//! happened around epoch 37". Each published epoch appends one
//! [`EpochRecord`] — congestion vs. the fresh-sample baseline, the
//! cache's per-epoch counter deltas, fallback/unserved counts, rejected
//! ingest, the failure state, and any SLO breaches — into a fixed-size
//! ring, so a long-running `sor serve` keeps the recent past at O(1)
//! memory. The ring exports as JSON (`--timeline-out`, `/timeline` on
//! the scrape endpoint) and renders as a text dashboard.
//!
//! Everything here is plain recorded data — the timeline never feeds
//! back into routing, so it cannot perturb the bit-determinism contract.

use crate::json::{push_escaped, push_f64};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Default number of epochs the ring retains.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 256;

/// One epoch's worth of serving telemetry (plain data; the serve crate
/// fills it in from its `EpochSnapshot` plus cache deltas).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochRecord {
    /// Engine epoch counter at publish time.
    pub epoch: u64,
    /// Requests admitted into this epoch's demand.
    pub admitted: usize,
    /// Requests rejected by ingest backpressure during this epoch.
    pub rejected: u64,
    /// Whether the path system came from the cache.
    pub cache_hit: bool,
    /// Cache hits this epoch (delta, not lifetime total).
    pub cache_hits: u64,
    /// Cache misses this epoch.
    pub cache_misses: u64,
    /// Cache evictions this epoch.
    pub cache_evictions: u64,
    /// Cache invalidations this epoch (failure-driven).
    pub cache_invalidations: u64,
    /// Published max edge congestion.
    pub congestion: f64,
    /// Congestion of a fresh same-epoch sample, when the engine ran the
    /// comparison (`compare_fresh`).
    pub fresh_congestion: Option<f64>,
    /// Pairs routed via shortest-path fallback after failures.
    pub fallback_pairs: usize,
    /// Pairs that could not be routed at all.
    pub unserved_pairs: usize,
    /// Requests still queued after the epoch batch.
    pub queue_depth: usize,
    /// Edges currently failed.
    pub failed_edges: usize,
    /// Wall time of the whole epoch, nanoseconds (0 when telemetry
    /// timing is off).
    pub epoch_wall_ns: u64,
    /// Names of SLO rules breached this epoch.
    pub slo_breaches: Vec<String>,
}

impl EpochRecord {
    /// `published congestion / fresh-sample congestion` when the
    /// comparison ran (1.0 ⇒ the cached path system costs nothing).
    pub fn congestion_ratio(&self) -> Option<f64> {
        self.fresh_congestion
            .map(|fresh| self.congestion / fresh.max(1e-12))
    }
}

/// Bounded ring of [`EpochRecord`]s. Push and read from any thread; the
/// lock is held only to move plain data in or out.
pub struct EpochTimeline {
    ring: Mutex<VecDeque<EpochRecord>>,
    capacity: usize,
}

impl Default for EpochTimeline {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }
}

impl EpochTimeline {
    /// Timeline retaining the default number of epochs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Timeline retaining the most recent `capacity` epochs.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "timeline needs capacity >= 1");
        EpochTimeline {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Append one epoch, evicting the oldest past capacity.
    pub fn push(&self, rec: EpochRecord) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Epochs currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<EpochRecord> {
        let ring = self.ring.lock();
        ring.iter().cloned().collect()
    }

    /// Copy of the newest `n` retained records, oldest first. Copies
    /// only those `n`, so a per-epoch reader stays O(n), not
    /// O(capacity).
    pub fn last(&self, n: usize) -> Vec<EpochRecord> {
        let ring = self.ring.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// The retained records as a JSON document:
    /// `{"format":"sor-timeline/1","epochs":[...]}`. Hand-rolled like
    /// the snapshot export; `null` for absent fresh baselines.
    pub fn to_json(&self) -> String {
        render_records_json(&self.records())
    }

    /// [`EpochTimeline::to_json`] truncated to the most recent `last`
    /// records (the `/timeline?last=N` endpoint; `last = 0` serves an
    /// empty document).
    pub fn to_json_last(&self, last: usize) -> String {
        render_records_json(&self.last(last))
    }

    /// Render the retained records as a fixed-width text dashboard.
    pub fn render_dashboard(&self) -> String {
        let records = self.records();
        let mut out = String::new();
        out.push_str(
            "epoch   adm  rej hit  h/m/e/i      cong    fresh  ratio  fb uns  q fail   wall_ms  slo\n",
        );
        for r in &records {
            let hit = if r.cache_hit { "y" } else { "n" };
            let fresh = r
                .fresh_congestion
                .map_or_else(|| "     -".to_string(), |f| format!("{f:6.3}"));
            let ratio = r
                .congestion_ratio()
                .map_or_else(|| "    -".to_string(), |x| format!("{x:5.2}"));
            #[allow(clippy::cast_precision_loss)]
            let wall_ms = r.epoch_wall_ns as f64 / 1e6;
            let slo = if r.slo_breaches.is_empty() {
                "-".to_string()
            } else {
                r.slo_breaches.join(",")
            };
            out.push_str(&format!(
                "{:5} {:5} {:4}   {} {:2}/{}/{}/{} {:9.3} {} {} {:3} {:3} {:2} {:4} {:9.3}  {}\n",
                r.epoch,
                r.admitted,
                r.rejected,
                hit,
                r.cache_hits,
                r.cache_misses,
                r.cache_evictions,
                r.cache_invalidations,
                r.congestion,
                fresh,
                ratio,
                r.fallback_pairs,
                r.unserved_pairs,
                r.queue_depth,
                r.failed_edges,
                wall_ms,
                slo,
            ));
        }
        out
    }
}

fn render_records_json(records: &[EpochRecord]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 256);
    out.push_str("{\"format\":\"sor-timeline/1\",\"epochs\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_record_json(&mut out, r);
    }
    out.push_str("]}");
    out
}

fn push_record_json(out: &mut String, r: &EpochRecord) {
    out.push_str(&format!(
        "{{\"epoch\":{},\"admitted\":{},\"rejected\":{},\"cache_hit\":{},",
        r.epoch, r.admitted, r.rejected, r.cache_hit
    ));
    out.push_str(&format!(
        "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{}}},",
        r.cache_hits, r.cache_misses, r.cache_evictions, r.cache_invalidations
    ));
    out.push_str("\"congestion\":");
    push_f64(out, r.congestion);
    out.push_str(",\"fresh_congestion\":");
    match r.fresh_congestion {
        Some(f) => push_f64(out, f),
        None => out.push_str("null"),
    }
    out.push_str(",\"congestion_ratio\":");
    match r.congestion_ratio() {
        Some(x) => push_f64(out, x),
        None => out.push_str("null"),
    }
    out.push_str(&format!(
        ",\"fallback_pairs\":{},\"unserved_pairs\":{},\"queue_depth\":{},\"failed_edges\":{},\"epoch_wall_ns\":{},",
        r.fallback_pairs, r.unserved_pairs, r.queue_depth, r.failed_edges, r.epoch_wall_ns
    ));
    out.push_str("\"slo_breaches\":[");
    for (i, b) in r.slo_breaches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, b);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn record(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            admitted: 8,
            rejected: 0,
            cache_hit: epoch > 0,
            cache_hits: u64::from(epoch > 0),
            cache_misses: u64::from(epoch == 0),
            cache_evictions: 0,
            cache_invalidations: 0,
            congestion: 1.5,
            fresh_congestion: Some(1.25),
            fallback_pairs: 0,
            unserved_pairs: 0,
            queue_depth: 0,
            failed_edges: 0,
            epoch_wall_ns: 2_000_000,
            slo_breaches: Vec::new(),
        }
    }

    #[test]
    fn ring_bounds_and_orders() {
        let t = EpochTimeline::with_capacity(3);
        assert!(t.is_empty());
        for e in 0..5 {
            t.push(record(e));
        }
        assert_eq!(t.len(), 3);
        let recs = t.records();
        assert_eq!(
            recs.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        let epochs = |n| t.last(n).iter().map(|r| r.epoch).collect::<Vec<_>>();
        assert_eq!(epochs(2), vec![3, 4]);
        assert_eq!(epochs(10), vec![2, 3, 4]);
        assert!(epochs(0).is_empty());
    }

    #[test]
    fn json_round_trips_through_parser() {
        let t = EpochTimeline::new();
        t.push(record(0));
        let mut r = record(1);
        r.fresh_congestion = None;
        r.slo_breaches = vec!["max_congestion_ratio".to_string()];
        t.push(r);
        let json = t.to_json();
        let v = crate::parse_json(&json).expect("valid JSON");
        assert_eq!(
            v.get("format").and_then(|f| f.as_str()),
            Some("sor-timeline/1")
        );
        let epochs = v.get("epochs").and_then(|e| e.as_arr()).expect("array");
        assert_eq!(epochs.len(), 2);
        let first = &epochs[0];
        assert_eq!(first.get("epoch").and_then(|x| x.as_u64()), Some(0));
        let cache = first.get("cache").expect("cache object");
        assert_eq!(cache.get("misses").and_then(|x| x.as_u64()), Some(1));
        let ratio = first
            .get("congestion_ratio")
            .and_then(|x| x.as_f64())
            .expect("ratio present");
        assert!((ratio - 1.5 / 1.25).abs() < 1e-12);
        let second = &epochs[1];
        assert_eq!(
            second.get("fresh_congestion"),
            Some(&crate::JsonValue::Null)
        );
        let breaches = second
            .get("slo_breaches")
            .and_then(|b| b.as_arr())
            .expect("array");
        assert_eq!(breaches.len(), 1);
    }

    #[test]
    fn ring_wraps_exactly_at_capacity() {
        let t = EpochTimeline::with_capacity(4);
        // fill to exactly capacity: nothing evicted
        for e in 0..4 {
            t.push(record(e));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.records().iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // the next push evicts exactly the oldest
        t.push(record(4));
        assert_eq!(t.len(), 4, "capacity never exceeded");
        assert_eq!(
            t.records().iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn to_json_last_truncates_to_recent_epochs() {
        let t = EpochTimeline::new();
        for e in 0..5 {
            t.push(record(e));
        }
        let json = t.to_json_last(2);
        let v = crate::parse_json(&json).expect("valid JSON");
        let epochs = v.get("epochs").and_then(|e| e.as_arr()).expect("array");
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].get("epoch").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(epochs[1].get("epoch").and_then(|x| x.as_u64()), Some(4));
        // over-asking serves everything; zero serves an empty document
        let all = crate::parse_json(&t.to_json_last(100)).expect("valid");
        assert_eq!(
            all.get("epochs").and_then(|e| e.as_arr()).map(<[_]>::len),
            Some(5)
        );
        let none = crate::parse_json(&t.to_json_last(0)).expect("valid");
        assert_eq!(
            none.get("epochs").and_then(|e| e.as_arr()).map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn dashboard_survives_huge_cells_without_panicking() {
        let t = EpochTimeline::new();
        let mut r = record(0);
        r.epoch = 12_345_678;
        r.admitted = 9_999_999;
        r.rejected = 1_000_000_000;
        r.cache_hits = 88_888_888;
        r.congestion = 123_456_789.5;
        r.fresh_congestion = Some(9_876_543.25);
        r.fallback_pairs = 7_000_000;
        r.unserved_pairs = 8_000_000;
        r.queue_depth = 2_000_000;
        r.failed_edges = 3_000_000;
        r.epoch_wall_ns = u64::MAX;
        t.push(r);
        let dash = t.render_dashboard();
        let lines: Vec<&str> = dash.lines().collect();
        assert_eq!(lines.len(), 2, "header + 1 epoch");
        // fixed-width columns widen rather than truncate: every value
        // survives verbatim
        assert!(lines[1].contains("12345678"), "{dash}");
        assert!(lines[1].contains("9999999"), "{dash}");
        assert!(lines[1].contains("1000000000"), "{dash}");
        assert!(lines[1].contains("123456789.5"), "{dash}");
    }

    #[test]
    fn dashboard_renders_one_line_per_epoch() {
        let t = EpochTimeline::new();
        t.push(record(0));
        t.push(record(1));
        let dash = t.render_dashboard();
        let lines: Vec<&str> = dash.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 epochs");
        assert!(lines[0].contains("cong"));
        assert!(lines[1].contains("n"), "epoch 0 was a miss");
        assert!(lines[2].contains("y"), "epoch 1 hit");
    }
}
