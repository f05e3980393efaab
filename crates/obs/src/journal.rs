//! Flight recorder: a bounded ring journal of causal events.
//!
//! The journal is the one per-epoch store of a serving run. Each
//! published epoch ends in an `epoch_end` event whose payload is that
//! epoch's timeline row ([`EpochRecord`]: the numbers around epoch 37),
//! the admitted demand's fingerprint and the solve's lower bound. The
//! other four event types record what *happened* — failures and
//! restores between epochs, and within an epoch the per-edge load
//! concentrations and per-pair path churn that explain *why* congestion
//! moved. The timeline ([`Journal::rows`]) and forensics
//! ([`crate::forensics`]) are both folds over these events. A
//! long-running `sor serve` keeps the recent past in a fixed-size ring;
//! when the SLO watchdog fires, the serving layer snapshots the ring to
//! a breach-stamped dump that the `sor forensics` analyzer can
//! attribute.
//!
//! Design constraints, in order:
//!
//! * **Zero cost detached.** Nothing global: the serving layer's
//!   observer builds every event, and the engine calls it only when one
//!   is attached. No lock is touched on the detached path.
//! * **Bit-output-neutral attached.** Recording is strictly read-only
//!   over the epoch's outputs — events carry copies of already-published
//!   data and never feed anything back. The only wall clock is the
//!   `epoch_end` row's `epoch_wall_ns` (the serve determinism test pins
//!   bit-equality of published snapshots with and without an observer
//!   attached, and equal journals up to that wall).
//! * **Bounded and cheap.** One pre-sized `VecDeque` behind one mutex.
//!   Every write comes from an engine call, which holds `&mut Engine`
//!   while its observer records, so the lock is only ever contended by a
//!   reader taking a dump or the timeline. Past capacity the oldest
//!   event is dropped and counted.
//!
//! The dump format is versioned (`sor-journal/3`), hand-rolled like
//! every JSON writer in the tree, and round-trips through the tree's
//! JSON reader ([`crate::parse_json`]) via [`parse_journal`].
//!
//! This crate sits at the bottom of the workspace layering (`sor-obs`
//! depends on nothing), so events carry raw `u32` edge/node ids rather
//! than `sor-graph` newtypes; the serving layer owns the translation.

use crate::json::{push_escaped, push_f64};
use crate::timeline::{push_record_fields, EpochRecord};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Default event capacity of the ring.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// One edge's load in a top-k congestion record: raw edge id, absolute
/// routed load, and load/capacity utilization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeLoad {
    /// Raw edge id (`EdgeId.0` upstream).
    pub edge: u32,
    /// Routed load on the edge (sum of rates over paths crossing it).
    pub load: f64,
    /// `load / capacity` — the congestion contribution.
    pub utilization: f64,
}

/// One structured causal event. Every variant is tagged with the epoch
/// it belongs to (for failure/restore events: the next epoch to run,
/// i.e. the first epoch the change affects).
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// Edges went down (raw edge ids).
    EdgeFail {
        /// First epoch the failure affects.
        epoch: u64,
        /// Newly failed edge ids.
        edges: Vec<u32>,
    },
    /// All failed edges came back up.
    EdgeRestore {
        /// First epoch the restore affects.
        epoch: u64,
        /// How many edges were restored.
        restored: usize,
    },
    /// The k most utilized edges under the epoch's published routing.
    TopEdges {
        /// Epoch index.
        epoch: u64,
        /// Utilization-sorted (descending) edge loads.
        edges: Vec<EdgeLoad>,
    },
    /// A served pair's path set changed (or appeared) relative to the
    /// last epoch that served the pair.
    PathChurn {
        /// Epoch index.
        epoch: u64,
        /// Raw source node id.
        src: u32,
        /// Raw destination node id.
        dst: u32,
        /// `true` when the pair had never been served before.
        new_pair: bool,
    },
    /// The epoch published: its timeline row plus what forensics reads
    /// beside it. `row.epoch_wall_ns` is the epoch wall when telemetry
    /// timing was on (0 otherwise — walls never feed the deterministic
    /// path).
    EpochEnd {
        /// The epoch's timeline row.
        row: EpochRecord,
        /// Fingerprint of the ordered admitted pair set (`None` for an
        /// empty epoch) — the forensics analyzer compares consecutive
        /// fingerprints to detect demand churn.
        demand_fp: Option<u64>,
        /// The solve's LP lower bound (0 for empty and integral solves).
        lower_bound: f64,
    },
}

impl JournalEvent {
    /// The epoch this event is tagged with.
    pub fn epoch(&self) -> u64 {
        match *self {
            JournalEvent::EdgeFail { epoch, .. }
            | JournalEvent::EdgeRestore { epoch, .. }
            | JournalEvent::TopEdges { epoch, .. }
            | JournalEvent::PathChurn { epoch, .. } => epoch,
            JournalEvent::EpochEnd { ref row, .. } => row.epoch,
        }
    }

    /// The stable `type` tag used in the dump format.
    pub fn type_tag(&self) -> &'static str {
        match self {
            JournalEvent::EdgeFail { .. } => "edge_fail",
            JournalEvent::EdgeRestore { .. } => "edge_restore",
            JournalEvent::TopEdges { .. } => "top_edges",
            JournalEvent::PathChurn { .. } => "path_churn",
            JournalEvent::EpochEnd { .. } => "epoch_end",
        }
    }
}

/// The bounded ring journal (see module docs).
pub struct Journal {
    ring: Mutex<Ring>,
    capacity: usize,
}

/// The ring and its counters, kept under one lock so a dump sees a
/// consistent view.
struct Ring {
    /// Retained `(seq, event)` pairs, oldest first.
    events: VecDeque<(u64, JournalEvent)>,
    /// Events ever recorded; the next event's sequence number.
    recorded: u64,
    /// Events evicted past capacity.
    dropped: u64,
    /// Highest epoch tag seen.
    last_epoch: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// Journal with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journal retaining the most recent `capacity` events (at least
    /// one). The buffer is pre-sized so steady-state recording never
    /// allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                recorded: 0,
                dropped: 0,
                last_epoch: 0,
            }),
            capacity,
        }
    }

    /// Append one event under the next sequence number, dropping (and
    /// counting) the oldest event past capacity.
    pub fn record(&self, event: JournalEvent) {
        let mut ring = self.ring.lock();
        let seq = ring.recorded;
        ring.recorded += 1;
        ring.last_epoch = ring.last_epoch.max(event.epoch());
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back((seq, event));
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Copy of the retained `(seq, event)` pairs in sequence order.
    pub fn events(&self) -> Vec<(u64, JournalEvent)> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// The newest `last` `epoch_end` rows still in the ring, oldest
    /// first: the timeline. Scans the ring backwards under the lock and
    /// copies only those rows, so a per-epoch reader stays cheap.
    pub fn rows(&self, last: usize) -> Vec<EpochRecord> {
        let ring = self.ring.lock();
        let mut rows: Vec<EpochRecord> = ring
            .events
            .iter()
            .rev()
            .filter_map(|(_, e)| match e {
                JournalEvent::EpochEnd { row, .. } => Some(row.clone()),
                _ => None,
            })
            .take(last)
            .collect();
        rows.reverse();
        rows
    }

    /// Serialize the whole retained ring as a `sor-journal/3` document
    /// with extra top-level string fields (`meta`).
    pub fn dump_json(&self, meta: &[(&str, &str)]) -> String {
        self.dump_json_last(0, meta)
    }

    /// Serialize only the last `epochs` epochs of context (relative to
    /// the highest epoch seen; 0 = the whole ring) — the breach-dump
    /// shape.
    pub fn dump_json_last(&self, epochs: u64, meta: &[(&str, &str)]) -> String {
        let (events, recorded, dropped) = {
            let ring = self.ring.lock();
            let min_epoch = if epochs == 0 {
                0
            } else {
                ring.last_epoch.saturating_sub(epochs - 1)
            };
            let events: Vec<(u64, JournalEvent)> = ring
                .events
                .iter()
                .filter(|(_, e)| e.epoch() >= min_epoch)
                .cloned()
                .collect();
            (events, ring.recorded, ring.dropped)
        };
        events_to_json(&events, recorded, dropped, meta)
    }
}

fn push_event_json(out: &mut String, seq: u64, e: &JournalEvent) {
    out.push_str(&format!(
        "{{\"seq\":{seq},\"type\":\"{}\",\"epoch\":{}",
        e.type_tag(),
        e.epoch()
    ));
    match e {
        JournalEvent::EdgeFail { edges, .. } => {
            out.push_str(",\"edges\":[");
            for (i, id) in edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{id}"));
            }
            out.push(']');
        }
        JournalEvent::EdgeRestore { restored, .. } => {
            out.push_str(&format!(",\"restored\":{restored}"));
        }
        JournalEvent::TopEdges { edges, .. } => {
            out.push_str(",\"edges\":[");
            for (i, el) in edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"edge\":{},\"load\":", el.edge));
                push_f64(out, el.load);
                out.push_str(",\"utilization\":");
                push_f64(out, el.utilization);
                out.push('}');
            }
            out.push(']');
        }
        JournalEvent::PathChurn {
            src, dst, new_pair, ..
        } => {
            out.push_str(&format!(
                ",\"src\":{src},\"dst\":{dst},\"new_pair\":{new_pair}"
            ));
        }
        JournalEvent::EpochEnd {
            row,
            demand_fp,
            lower_bound,
        } => {
            push_record_fields(out, row);
            match demand_fp {
                Some(fp) => out.push_str(&format!(",\"demand_fp\":{fp}")),
                None => out.push_str(",\"demand_fp\":null"),
            }
            out.push_str(",\"lower_bound\":");
            push_f64(out, *lower_bound);
        }
    }
    out.push('}');
}

fn events_to_json(
    events: &[(u64, JournalEvent)],
    recorded: u64,
    dropped: u64,
    meta: &[(&str, &str)],
) -> String {
    let mut out = String::with_capacity(256 + events.len() * 128);
    out.push_str("{\"format\":\"sor-journal/3\"");
    for (k, v) in meta {
        out.push(',');
        push_escaped(&mut out, k);
        out.push(':');
        push_escaped(&mut out, v);
    }
    out.push_str(&format!(",\"recorded\":{recorded},\"dropped\":{dropped}"));
    out.push_str(",\"events\":[");
    for (i, (seq, e)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        push_event_json(&mut out, *seq, e);
    }
    if !events.is_empty() {
        out.push_str("\n ");
    }
    out.push_str("]}\n");
    out
}

/// A parsed `sor-journal/3` document.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalDump {
    /// Top-level string metadata fields, in document order.
    pub meta: Vec<(String, String)>,
    /// Total events the recording journal ever saw.
    pub recorded: u64,
    /// Events the ring evicted before the dump.
    pub dropped: u64,
    /// The dumped `(seq, event)` pairs, in sequence order.
    pub events: Vec<(u64, JournalEvent)>,
}

fn field_u64(v: &crate::JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(crate::JsonValue::as_u64)
        .ok_or_else(|| format!("event missing numeric field '{key}'"))
}

fn field_usize(v: &crate::JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(v, key)?).map_err(|_| format!("field '{key}' out of range"))
}

fn field_u32(v: &crate::JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(v, key)?).map_err(|_| format!("field '{key}' out of range"))
}

fn field_f64(v: &crate::JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(crate::JsonValue::Null) => Ok(f64::NAN),
        x => x
            .and_then(crate::JsonValue::as_f64)
            .ok_or_else(|| format!("event missing numeric field '{key}'")),
    }
}

fn field_bool(v: &crate::JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(crate::JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("event missing bool field '{key}'")),
    }
}

/// An `epoch_end` event's row. The derived `congestion_ratio` is not
/// read back: [`EpochRecord::congestion_ratio`] recomputes it.
fn parse_row(v: &crate::JsonValue, epoch: u64) -> Result<EpochRecord, String> {
    let cache = v
        .get("cache")
        .ok_or_else(|| "epoch_end missing 'cache'".to_string())?;
    let fresh_congestion = match v.get("fresh_congestion") {
        Some(crate::JsonValue::Null) => None,
        _ => Some(field_f64(v, "fresh_congestion")?),
    };
    let breaches = v
        .get("slo_breaches")
        .and_then(crate::JsonValue::as_arr)
        .ok_or_else(|| "epoch_end missing 'slo_breaches'".to_string())?;
    let mut slo_breaches = Vec::with_capacity(breaches.len());
    for b in breaches {
        let rule = b
            .as_str()
            .ok_or_else(|| "bad rule name in slo_breaches".to_string())?;
        slo_breaches.push(rule.to_string());
    }
    Ok(EpochRecord {
        epoch,
        admitted: field_usize(v, "admitted")?,
        rejected: field_u64(v, "rejected")?,
        cache_hit: field_bool(v, "cache_hit")?,
        cache_hits: field_u64(cache, "hits")?,
        cache_misses: field_u64(cache, "misses")?,
        cache_evictions: field_u64(cache, "evictions")?,
        cache_invalidations: field_u64(cache, "invalidations")?,
        congestion: field_f64(v, "congestion")?,
        fresh_congestion,
        fallback_pairs: field_usize(v, "fallback_pairs")?,
        unserved_pairs: field_usize(v, "unserved_pairs")?,
        queue_depth: field_usize(v, "queue_depth")?,
        failed_edges: field_usize(v, "failed_edges")?,
        epoch_wall_ns: field_u64(v, "epoch_wall_ns")?,
        slo_breaches,
    })
}

fn parse_event(v: &crate::JsonValue) -> Result<(u64, JournalEvent), String> {
    let seq = field_u64(v, "seq")?;
    let epoch = field_u64(v, "epoch")?;
    let tag = v
        .get("type")
        .and_then(crate::JsonValue::as_str)
        .ok_or_else(|| "event missing 'type'".to_string())?;
    let event = match tag {
        "edge_fail" => {
            let arr = v
                .get("edges")
                .and_then(crate::JsonValue::as_arr)
                .ok_or_else(|| "edge_fail missing 'edges'".to_string())?;
            let mut edges = Vec::with_capacity(arr.len());
            for item in arr {
                let id = item
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| "bad edge id in edge_fail".to_string())?;
                edges.push(id);
            }
            JournalEvent::EdgeFail { epoch, edges }
        }
        "edge_restore" => JournalEvent::EdgeRestore {
            epoch,
            restored: field_usize(v, "restored")?,
        },
        "top_edges" => {
            let arr = v
                .get("edges")
                .and_then(crate::JsonValue::as_arr)
                .ok_or_else(|| "top_edges missing 'edges'".to_string())?;
            let mut edges = Vec::with_capacity(arr.len());
            for item in arr {
                edges.push(EdgeLoad {
                    edge: field_u32(item, "edge")?,
                    load: field_f64(item, "load")?,
                    utilization: field_f64(item, "utilization")?,
                });
            }
            JournalEvent::TopEdges { epoch, edges }
        }
        "path_churn" => JournalEvent::PathChurn {
            epoch,
            src: field_u32(v, "src")?,
            dst: field_u32(v, "dst")?,
            new_pair: field_bool(v, "new_pair")?,
        },
        "epoch_end" => JournalEvent::EpochEnd {
            row: parse_row(v, epoch)?,
            demand_fp: match v.get("demand_fp") {
                Some(crate::JsonValue::Null) => None,
                _ => Some(field_u64(v, "demand_fp")?),
            },
            lower_bound: field_f64(v, "lower_bound")?,
        },
        other => return Err(format!("unknown journal event type '{other}'")),
    };
    Ok((seq, event))
}

/// Parse a `sor-journal/3` document produced by [`Journal::dump_json`]
/// (or a breach dump). Unknown top-level fields are ignored; unknown
/// event types and every other format version are errors (the format is
/// versioned for exactly this).
pub fn parse_journal(text: &str) -> Result<JournalDump, String> {
    let doc = crate::parse_json(text).map_err(|e| format!("journal parse: {e}"))?;
    match doc.get("format").and_then(crate::JsonValue::as_str) {
        Some("sor-journal/3") => {}
        Some(other) => return Err(format!("unsupported journal format '{other}'")),
        None => return Err("not a sor-journal document (no 'format')".to_string()),
    }
    let mut meta = Vec::new();
    if let Some(members) = doc.as_obj() {
        for (k, v) in members {
            if k == "format" {
                continue;
            }
            if let Some(s) = v.as_str() {
                meta.push((k.clone(), s.to_string()));
            }
        }
    }
    let recorded = doc
        .get("recorded")
        .and_then(crate::JsonValue::as_u64)
        .unwrap_or(0);
    let dropped = doc
        .get("dropped")
        .and_then(crate::JsonValue::as_u64)
        .unwrap_or(0);
    let arr = doc
        .get("events")
        .and_then(crate::JsonValue::as_arr)
        .ok_or_else(|| "journal document has no 'events' array".to_string())?;
    let mut events = Vec::with_capacity(arr.len());
    for item in arr {
        events.push(parse_event(item)?);
    }
    Ok(JournalDump {
        meta,
        recorded,
        dropped,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row with every field set off its default.
    fn row(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            admitted: 8,
            rejected: 2,
            cache_hit: epoch > 0,
            cache_hits: u64::from(epoch > 0),
            cache_misses: u64::from(epoch == 0),
            cache_evictions: 1,
            cache_invalidations: u64::from(epoch == 1),
            congestion: 1.5,
            fresh_congestion: (epoch == 0).then_some(1.25),
            fallback_pairs: 2,
            unserved_pairs: 1,
            queue_depth: 3,
            failed_edges: 2,
            epoch_wall_ns: 1_234_567,
            slo_breaches: if epoch == 1 {
                vec!["max_fallback_fraction".to_string()]
            } else {
                Vec::new()
            },
        }
    }

    /// `row(epoch)`'s `epoch_end` event with the given demand
    /// fingerprint.
    fn end(epoch: u64, demand_fp: Option<u64>) -> JournalEvent {
        JournalEvent::EpochEnd {
            row: row(epoch),
            demand_fp,
            lower_bound: 1.25,
        }
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::TopEdges {
                epoch: 0,
                edges: vec![
                    EdgeLoad {
                        edge: 3,
                        load: 2.0,
                        utilization: 1.5,
                    },
                    EdgeLoad {
                        edge: 7,
                        load: 1.0,
                        utilization: 0.5,
                    },
                ],
            },
            JournalEvent::PathChurn {
                epoch: 0,
                src: 1,
                dst: 6,
                new_pair: true,
            },
            end(0, Some(0xdead_beef)),
            JournalEvent::EdgeFail {
                epoch: 1,
                edges: vec![4, 9],
            },
            end(1, None),
            JournalEvent::EdgeRestore {
                epoch: 2,
                restored: 2,
            },
        ]
    }

    #[test]
    fn record_keeps_sequence_order() {
        let j = Journal::new();
        for e in sample_events() {
            j.record(e);
        }
        let events = j.events();
        assert_eq!(events.len(), 6);
        assert_eq!(j.recorded(), 6);
        assert_eq!(j.dropped(), 0);
        let seqs: Vec<u64> = events.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>());
        assert_eq!(
            events.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
            sample_events()
        );
    }

    #[test]
    fn ring_bounds_capacity_and_counts_drops() {
        let j = Journal::with_capacity(16);
        for i in 0..40u64 {
            j.record(JournalEvent::EdgeRestore {
                epoch: i,
                restored: 1,
            });
        }
        assert_eq!(j.len(), 16);
        assert_eq!(j.recorded(), 40);
        assert_eq!(j.dropped(), 24);
        // survivors are exactly the most recent events, oldest first
        let seqs: Vec<u64> = j.events().iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, (24..40).collect::<Vec<_>>());
    }

    #[test]
    fn full_ring_with_drops_round_trips() {
        let j = Journal::new();
        let events = sample_events();
        let total = DEFAULT_JOURNAL_CAPACITY + 37;
        for e in events.iter().cycle().take(total) {
            j.record(e.clone());
        }
        assert_eq!(j.len(), DEFAULT_JOURNAL_CAPACITY);
        assert!(j.recorded() > DEFAULT_JOURNAL_CAPACITY as u64);
        let dump =
            parse_journal(&j.dump_json(&[("source", "full-ring")])).expect("full ring parses");
        assert_eq!(dump.recorded, total as u64);
        assert_eq!(dump.dropped, 37);
        assert_eq!(dump.events, j.events());
        assert_eq!(dump.events.first().map(|&(seq, _)| seq), Some(37));
    }

    #[test]
    fn dump_round_trips_through_parser() {
        let j = Journal::new();
        for e in sample_events() {
            j.record(e);
        }
        let json = j.dump_json(&[("reason", "test"), ("graph", "cycle:8")]);
        assert!(json.starts_with("{\"format\":\"sor-journal/3\""));
        let dump = parse_journal(&json).expect("round-trip parse");
        assert_eq!(dump.recorded, 6);
        assert_eq!(dump.dropped, 0);
        assert!(dump.meta.iter().any(|(k, v)| k == "reason" && v == "test"));
        assert!(dump
            .meta
            .iter()
            .any(|(k, v)| k == "graph" && v == "cycle:8"));
        assert_eq!(
            dump.events
                .iter()
                .map(|(_, e)| e.clone())
                .collect::<Vec<_>>(),
            sample_events()
        );
    }

    #[test]
    fn wide_fingerprints_round_trip_exactly() {
        // Above 2^53 an f64 no longer holds every integer: 2^53 + 1, the
        // FNV-1a offset basis and u64::MAX - 1 must come back bit-exact.
        let fps = [(1u64 << 53) + 1, 0xcbf2_9ce4_8422_2325, u64::MAX - 1];
        let j = Journal::new();
        for (epoch, &fp) in (0u64..).zip(&fps) {
            j.record(end(epoch, Some(fp)));
        }
        let dump = parse_journal(&j.dump_json(&[])).expect("round-trip parse");
        let parsed: Vec<Option<u64>> = dump
            .events
            .iter()
            .map(|(_, e)| match e {
                JournalEvent::EpochEnd { demand_fp, .. } => *demand_fp,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(parsed, fps.map(Some));
    }

    #[test]
    fn dump_last_epochs_limits_context() {
        let j = Journal::new();
        for e in sample_events() {
            j.record(e);
        }
        let json = j.dump_json_last(2, &[]);
        let dump = parse_journal(&json).expect("parse tail dump");
        // last 2 epochs relative to epoch 2 → epochs 1 and 2 only
        assert_eq!(dump.events.len(), 3);
        assert!(dump.events.iter().all(|(_, e)| e.epoch() >= 1));
        assert!(dump.events.iter().any(|(_, e)| e.epoch() == 2));
        // 0 means "everything"
        let full = parse_journal(&j.dump_json_last(0, &[])).expect("parse full dump");
        assert_eq!(full.events.len(), 6);
    }

    #[test]
    fn rows_are_the_newest_epoch_ends_oldest_first() {
        let j = Journal::with_capacity(8);
        assert!(j.rows(4).is_empty());
        for epoch in 0..6u64 {
            j.record(JournalEvent::EdgeRestore { epoch, restored: 1 });
            j.record(end(epoch, None));
        }
        // 12 events through a ring of 8: epochs 0 and 1 are gone
        assert_eq!(j.dropped(), 4);
        let epochs = |k| j.rows(k).iter().map(|r| r.epoch).collect::<Vec<_>>();
        assert_eq!(epochs(2), [4, 5]);
        assert_eq!(epochs(100), [2, 3, 4, 5]);
        assert!(epochs(0).is_empty());
        assert_eq!(j.rows(1), vec![row(5)]);
    }

    #[test]
    fn parser_rejects_foreign_documents() {
        assert!(parse_journal("{\"format\":\"sor-timeline/1\",\"events\":[]}").is_err());
        // v1's epoch_end carried no row and v2's no demand fingerprint:
        // both are unsupported, not misread
        for old in ["sor-journal/1", "sor-journal/2"] {
            let doc = format!("{{\"format\":\"{old}\",\"events\":[]}}");
            assert_eq!(
                parse_journal(&doc),
                Err(format!("unsupported journal format '{old}'"))
            );
        }
        assert!(parse_journal("{\"events\":[]}").is_err());
        assert!(parse_journal("[1,2,3]").is_err());
        let bad_event =
            "{\"format\":\"sor-journal/3\",\"events\":[{\"seq\":0,\"type\":\"warp\",\"epoch\":0}]}";
        assert!(parse_journal(bad_event).is_err());
    }

    #[test]
    fn meta_values_are_escaped() {
        let j = Journal::new();
        j.record(end(0, None));
        let note = "say \"hi\" \\ bye\nnext\u{1}";
        let json = j.dump_json(&[("note", note)]);
        assert!(
            json.contains(r#""note":"say \"hi\" \\ bye\nnext\u0001""#),
            "{json}"
        );
        let dump = parse_journal(&json).expect("escaped meta parses");
        assert!(dump.meta.iter().any(|(k, v)| k == "note" && v == note));
    }
}
