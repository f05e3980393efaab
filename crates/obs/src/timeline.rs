//! Epoch timeline rows: one [`EpochRecord`] per published epoch.
//!
//! The registry answers "how much, ever"; the timeline answers "what
//! happened around epoch 37". Each published epoch's row — congestion
//! vs. the fresh-sample baseline, the cache's per-epoch counter deltas,
//! fallback/unserved counts, rejected ingest, the failure state, and any
//! SLO breaches — is the payload of the journal's `epoch_end` event
//! ([`crate::journal`]); the journal is the only place a row is stored.
//! The timeline is the newest rows the journal's ring still holds, at
//! most [`DEFAULT_TIMELINE_CAPACITY`] of them ([`crate::Journal::rows`]).
//! This module renders rows as JSON (`--timeline-out`, `/timeline` on
//! the scrape endpoint) and as a text dashboard.
//!
//! Everything here is plain recorded data — the timeline never feeds
//! back into routing, so it cannot perturb the bit-determinism contract.

use crate::json::{push_escaped, push_f64};

/// The most rows the timeline shows: `/timeline`, `--timeline-out` and
/// `--dashboard` read the newest this many `epoch_end` rows the journal
/// still holds.
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

/// The rows as a JSON document, oldest first:
/// `{"format":"sor-timeline/1","epochs":[...]}` (`--timeline-out` and
/// `/timeline`). Hand-rolled like the snapshot export; `null` for absent
/// fresh baselines.
pub fn render_json(records: &[EpochRecord]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 256);
    out.push_str("{\"format\":\"sor-timeline/1\",\"epochs\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"epoch\":{}", r.epoch));
        push_record_fields(&mut out, r);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Render the rows as a fixed-width text dashboard (`--dashboard`).
pub fn render_dashboard(records: &[EpochRecord]) -> String {
    let mut out = String::new();
    out.push_str(
        "epoch   adm  rej hit  h/m/e/i      cong    fresh  ratio  fb uns  q fail   wall_ms  slo\n",
    );
    for r in records {
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

/// Every field of `r` after `epoch`, each led by a comma. The timeline
/// row and the journal's `epoch_end` event both write through this, so
/// the two documents carry the same fields in the same order.
pub(crate) fn push_record_fields(out: &mut String, r: &EpochRecord) {
    out.push_str(&format!(
        ",\"admitted\":{},\"rejected\":{},\"cache_hit\":{},",
        r.admitted, r.rejected, r.cache_hit
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
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> EpochRecord {
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
    fn json_round_trips_through_parser() {
        let mut r = record(1);
        r.fresh_congestion = None;
        r.slo_breaches = vec!["max_congestion_ratio".to_string()];
        let json = render_json(&[record(0), r]);
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
        // no rows, no epochs
        assert_eq!(
            render_json(&[]),
            "{\"format\":\"sor-timeline/1\",\"epochs\":[]}"
        );
    }

    #[test]
    fn dashboard_survives_huge_cells_without_panicking() {
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
        let dash = render_dashboard(&[r]);
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
        let dash = render_dashboard(&[record(0), record(1)]);
        let lines: Vec<&str> = dash.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 epochs");
        assert!(lines[0].contains("cong"));
        assert!(lines[1].contains("n"), "epoch 0 was a miss");
        assert!(lines[2].contains("y"), "epoch 1 hit");
    }
}
