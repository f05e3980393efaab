//! Congestion forensics: epoch-delta attribution over a journal dump.
//!
//! The journal ([`crate::journal`]) records *what happened*; this module
//! answers *what moved the needle*. [`analyze`] folds a dump's event
//! stream into per-epoch statistics, classifies every epoch-over-epoch
//! transition into a causal bucket, and charges each transition's
//! congestion and wall deltas to its bucket:
//!
//! * **failure** — an edge failed or was restored, failures were active,
//!   the cache was invalidated, or pairs fell back / went unserved. The
//!   paper's robustness story (few random paths + re-optimization absorb
//!   failures) makes this the bucket worth isolating.
//! * **eviction** — a cache miss on a demand fingerprint the dump has
//!   seen before, absent failures: the only way a previously-cached
//!   pattern misses is that capacity evicted it.
//! * **cold_sample** — a miss on a first-seen fingerprint: the pattern
//!   was genuinely new and paid the sampling phase.
//! * **demand_churn** — a cache hit but the admitted pair set changed:
//!   congestion moved because the demand moved, not the path system.
//! * **steady** — none of the above (residual solver/noise movement;
//!   zero for seeded deterministic workloads).
//!
//! Precedence is top-down: a failed epoch that also churned demand is a
//! failure epoch — the analyzer attributes to the *dominant* cause, and
//! [`ForensicsReport::causes`] ranks buckets by total absolute
//! congestion delta. A per-edge load-shift table (from the journal's
//! `top_edges` records) names the edges whose load moved most between
//! consecutive epochs. Reports render as text and as a versioned
//! `sor-forensics/1` JSON document.

use crate::journal::{EdgeLoad, JournalEvent};
use crate::json::push_f64;
use crate::timeline::EpochRecord;

/// Causal buckets, in attribution precedence order (first match wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// Failure lifecycle: fail/restore/fallback/unserved/invalidation.
    Failure,
    /// Re-sample forced by a capacity eviction.
    Eviction,
    /// First-ever sample of a new demand pattern.
    ColdSample,
    /// The admitted pair set changed (but hit the cache).
    DemandChurn,
    /// No identified cause.
    Steady,
}

/// All causes, in precedence (and tie-break) order.
pub const CAUSES: [Cause; 5] = [
    Cause::Failure,
    Cause::Eviction,
    Cause::ColdSample,
    Cause::DemandChurn,
    Cause::Steady,
];

impl Cause {
    /// Stable identifier used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Cause::Failure => "failure",
            Cause::Eviction => "eviction",
            Cause::ColdSample => "cold_sample",
            Cause::DemandChurn => "demand_churn",
            Cause::Steady => "steady",
        }
    }
}

/// Per-epoch statistics folded out of the event stream: the epoch's
/// `epoch_end` payload plus what the other events add to it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// The epoch's timeline row (only `epoch` is set when the dump holds
    /// no `epoch_end` for it).
    pub row: EpochRecord,
    /// An `edge_fail` event is tagged with this epoch.
    pub edge_failed: bool,
    /// An `edge_restore` event is tagged with this epoch.
    pub edge_restored: bool,
    /// Fingerprint of the admitted pair set, from the epoch's
    /// `epoch_end` (`None` for an empty epoch, or when the dump holds no
    /// `epoch_end` for it).
    pub demand_fp: Option<u64>,
    /// Pairs whose path set changed vs. their last service.
    pub churned_pairs: usize,
    /// Pairs served for the first time.
    pub new_pairs: usize,
    /// Top-k utilized edges under the epoch's routing.
    pub top_edges: Vec<EdgeLoad>,
}

/// One epoch-over-epoch transition with its attributed cause.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochTransition {
    /// Earlier epoch.
    pub from: u64,
    /// Later epoch.
    pub to: u64,
    /// `congestion(to) - congestion(from)`.
    pub congestion_delta: f64,
    /// `wall(to) - wall(from)` in nanoseconds (may be negative).
    pub wall_delta_ns: f64,
    /// Attributed dominant cause.
    pub cause: Cause,
}

/// Aggregate attribution for one cause bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct CauseAttribution {
    /// The bucket.
    pub cause: Cause,
    /// Transitions attributed to it.
    pub transitions: usize,
    /// Sum of absolute congestion deltas.
    pub abs_congestion_delta: f64,
    /// Sum of absolute wall deltas, nanoseconds.
    pub abs_wall_delta_ns: f64,
    /// `abs_congestion_delta / total` over all buckets (0 when the run
    /// never moved).
    pub share: f64,
}

/// One edge's largest load movement between consecutive epochs.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeShift {
    /// Raw edge id.
    pub edge: u32,
    /// `load(to) - load(from)` at the edge's biggest move.
    pub delta: f64,
    /// Load before the move.
    pub before: f64,
    /// Load after the move.
    pub after: f64,
    /// The epoch the move landed on.
    pub epoch: u64,
    /// The cause attributed to that transition.
    pub cause: Cause,
}

/// The full analysis: per-epoch stats, per-transition attribution,
/// ranked cause totals, and the per-edge load-shift table.
#[derive(Clone, Debug, PartialEq)]
pub struct ForensicsReport {
    /// Per-epoch statistics, epoch order.
    pub epochs: Vec<EpochStats>,
    /// Attributed transitions, epoch order.
    pub transitions: Vec<EpochTransition>,
    /// Cause totals ranked by absolute congestion delta (descending;
    /// ties break in [`CAUSES`] precedence order).
    pub causes: Vec<CauseAttribution>,
    /// Largest per-edge load movements, magnitude-descending.
    pub edge_shifts: Vec<EdgeShift>,
}

impl ForensicsReport {
    /// The top-ranked cause, if any transition was analyzed.
    pub fn top_cause(&self) -> Option<Cause> {
        self.causes
            .iter()
            .find(|c| c.transitions > 0)
            .map(|c| c.cause)
    }

    /// Human-readable attribution report.
    pub fn render_text(&self) -> String {
        let total_cong: f64 = self.causes.iter().map(|c| c.abs_congestion_delta).sum();
        let mut out = format!(
            "forensics: {} epochs, {} transitions, total |dcong| = {:.4}\n",
            self.epochs.len(),
            self.transitions.len(),
            total_cong
        );
        out.push_str("cause attribution (ranked by |dcong|):\n");
        out.push_str("  cause          trans   |dcong|   share   |dwall_ms|\n");
        for c in &self.causes {
            out.push_str(&format!(
                "  {:<12} {:>7} {:>9.4} {:>6.1}% {:>11.3}\n",
                c.cause.label(),
                c.transitions,
                c.abs_congestion_delta,
                c.share * 100.0,
                c.abs_wall_delta_ns / 1e6
            ));
        }
        if !self.edge_shifts.is_empty() {
            out.push_str(&format!(
                "per-edge load shifts (top {}):\n",
                self.edge_shifts.len()
            ));
            out.push_str("  edge     dload     before ->  after   epoch  cause\n");
            for s in &self.edge_shifts {
                out.push_str(&format!(
                    "  {:>4} {:>9.4} {:>10.4} -> {:>6.4} {:>7}  {}\n",
                    s.edge,
                    s.delta,
                    s.before,
                    s.after,
                    s.epoch,
                    s.cause.label()
                ));
            }
        }
        if let Some(top) = self.top_cause() {
            out.push_str(&format!("top cause: {}\n", top.label()));
        } else {
            out.push_str("top cause: none (not enough epochs)\n");
        }
        out
    }

    /// Versioned JSON rendering (`sor-forensics/1`), hand-rolled like
    /// every writer in the tree.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.transitions.len() * 96);
        out.push_str("{\"format\":\"sor-forensics/1\"");
        out.push_str(&format!(
            ",\"epochs\":{},\"transitions\":{}",
            self.epochs.len(),
            self.transitions.len()
        ));
        out.push_str(",\"top_cause\":");
        match self.top_cause() {
            Some(c) => out.push_str(&format!("\"{}\"", c.label())),
            None => out.push_str("null"),
        }
        out.push_str(",\"causes\":[");
        for (i, c) in self.causes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"cause\":\"{}\",\"transitions\":{},\"abs_congestion_delta\":",
                c.cause.label(),
                c.transitions
            ));
            push_f64(&mut out, c.abs_congestion_delta);
            out.push_str(",\"abs_wall_delta_ns\":");
            push_f64(&mut out, c.abs_wall_delta_ns);
            out.push_str(",\"share\":");
            push_f64(&mut out, c.share);
            out.push('}');
        }
        out.push_str("],\"transitions_detail\":[");
        for (i, t) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"from\":{},\"to\":{},\"cause\":\"{}\",\"congestion_delta\":",
                t.from,
                t.to,
                t.cause.label()
            ));
            push_f64(&mut out, t.congestion_delta);
            out.push_str(",\"wall_delta_ns\":");
            push_f64(&mut out, t.wall_delta_ns);
            out.push('}');
        }
        out.push_str("],\"edge_shifts\":[");
        for (i, s) in self.edge_shifts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"edge\":{},\"epoch\":{},\"cause\":\"{}\",\"delta\":",
                s.edge,
                s.epoch,
                s.cause.label()
            ));
            push_f64(&mut out, s.delta);
            out.push_str(",\"before\":");
            push_f64(&mut out, s.before);
            out.push_str(",\"after\":");
            push_f64(&mut out, s.after);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

/// Fold the event stream into per-epoch statistics (epoch order).
pub fn fold_epochs(events: &[JournalEvent]) -> Vec<EpochStats> {
    let mut epochs: Vec<EpochStats> = Vec::new();
    for ev in events {
        let epoch = ev.epoch();
        let idx = match epochs.iter().position(|s| s.row.epoch == epoch) {
            Some(i) => i,
            None => {
                let mut stats = EpochStats::default();
                stats.row.epoch = epoch;
                epochs.push(stats);
                epochs.len() - 1
            }
        };
        let Some(stats) = epochs.get_mut(idx) else {
            continue; // unreachable: idx < epochs.len() by construction
        };
        match ev {
            JournalEvent::EdgeFail { .. } => stats.edge_failed = true,
            JournalEvent::EdgeRestore { .. } => stats.edge_restored = true,
            JournalEvent::TopEdges { edges, .. } => stats.top_edges.clone_from(edges),
            JournalEvent::PathChurn { new_pair, .. } => {
                stats.churned_pairs += 1;
                if *new_pair {
                    stats.new_pairs += 1;
                }
            }
            JournalEvent::EpochEnd { row, demand_fp, .. } => {
                stats.row.clone_from(row);
                stats.demand_fp = *demand_fp;
            }
        }
    }
    epochs.sort_by_key(|s| s.row.epoch);
    epochs
}

/// The dominant cause for the transition landing on `to`, given the
/// demand fingerprints seen strictly before it.
fn classify(to: &EpochStats, prev_fp: Option<u64>, seen_before: bool) -> Cause {
    let row = &to.row;
    let failure = to.edge_failed
        || to.edge_restored
        || row.failed_edges > 0
        || row.fallback_pairs > 0
        || row.unserved_pairs > 0
        || row.cache_invalidations > 0;
    if failure {
        return Cause::Failure;
    }
    if row.cache_misses > 0 {
        return if seen_before {
            Cause::Eviction
        } else {
            Cause::ColdSample
        };
    }
    if let (Some(fp), Some(prev)) = (to.demand_fp, prev_fp) {
        if fp != prev {
            return Cause::DemandChurn;
        }
    }
    Cause::Steady
}

/// Analyze a journal event stream: fold epochs, attribute transitions,
/// rank causes, and extract the top-`top_k` per-edge load shifts.
pub fn analyze(events: &[JournalEvent], top_k: usize) -> ForensicsReport {
    let epochs = fold_epochs(events);
    let mut transitions = Vec::with_capacity(epochs.len().saturating_sub(1));
    let mut seen_fps: Vec<u64> = Vec::new();
    if let Some(first) = epochs.first() {
        if let Some(fp) = first.demand_fp {
            seen_fps.push(fp);
        }
    }
    for pair in epochs.windows(2) {
        let (from, to) = match pair {
            [a, b] => (a, b),
            _ => continue, // unreachable: windows(2) yields pairs
        };
        let seen_before = to.demand_fp.is_some_and(|fp| seen_fps.contains(&fp));
        let cause = classify(to, from.demand_fp, seen_before);
        if let Some(fp) = to.demand_fp {
            if !seen_fps.contains(&fp) {
                seen_fps.push(fp);
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let wall_delta_ns = to.row.epoch_wall_ns as f64 - from.row.epoch_wall_ns as f64;
        transitions.push(EpochTransition {
            from: from.row.epoch,
            to: to.row.epoch,
            congestion_delta: to.row.congestion - from.row.congestion,
            wall_delta_ns,
            cause,
        });
    }

    let mut causes: Vec<CauseAttribution> = CAUSES
        .iter()
        .map(|&cause| CauseAttribution {
            cause,
            transitions: 0,
            abs_congestion_delta: 0.0,
            abs_wall_delta_ns: 0.0,
            share: 0.0,
        })
        .collect();
    for t in &transitions {
        if let Some(c) = causes.iter_mut().find(|c| c.cause == t.cause) {
            c.transitions += 1;
            c.abs_congestion_delta += t.congestion_delta.abs();
            c.abs_wall_delta_ns += t.wall_delta_ns.abs();
        }
    }
    let total: f64 = causes.iter().map(|c| c.abs_congestion_delta).sum();
    if total > 0.0 {
        for c in &mut causes {
            c.share = c.abs_congestion_delta / total;
        }
    }
    // Rank by congestion movement; the sort is stable, so ties keep the
    // precedence order of CAUSES.
    causes.sort_by(|a, b| {
        b.abs_congestion_delta
            .partial_cmp(&a.abs_congestion_delta)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let edge_shifts = edge_shift_table(&epochs, &transitions, top_k);
    ForensicsReport {
        epochs,
        transitions,
        causes,
        edge_shifts,
    }
}

/// Each edge's largest load move between consecutive epochs that both
/// carry `top_edges` records (edges absent from a record count as load
/// 0 — they fell out of, or rose into, the top-k).
fn edge_shift_table(
    epochs: &[EpochStats],
    transitions: &[EpochTransition],
    top_k: usize,
) -> Vec<EdgeShift> {
    let mut best: Vec<EdgeShift> = Vec::new();
    for pair in epochs.windows(2) {
        let (from, to) = match pair {
            [a, b] => (a, b),
            _ => continue, // unreachable: windows(2) yields pairs
        };
        if from.top_edges.is_empty() && to.top_edges.is_empty() {
            continue;
        }
        let cause = transitions
            .iter()
            .find(|t| t.to == to.row.epoch)
            .map_or(Cause::Steady, |t| t.cause);
        let mut ids: Vec<u32> = from
            .top_edges
            .iter()
            .chain(to.top_edges.iter())
            .map(|e| e.edge)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let load_of = |s: &EpochStats| {
                s.top_edges
                    .iter()
                    .find(|e| e.edge == id)
                    .map_or(0.0, |e| e.load)
            };
            let before = load_of(from);
            let after = load_of(to);
            // Bit equality: skip only when the load literally did not move;
            // any representable change, however small, is a real shift.
            if before.to_bits() == after.to_bits() {
                continue;
            }
            let delta = after - before;
            let shift = EdgeShift {
                edge: id,
                delta,
                before,
                after,
                epoch: to.row.epoch,
                cause,
            };
            match best.iter_mut().find(|s| s.edge == id) {
                Some(existing) if existing.delta.abs() >= delta.abs() => {}
                Some(existing) => *existing = shift,
                None => best.push(shift),
            }
        }
    }
    best.sort_by(|a, b| {
        b.delta
            .abs()
            .partial_cmp(&a.delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.edge.cmp(&b.edge))
    });
    best.truncate(top_k);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_events(
        epoch: u64,
        fp: u64,
        hit: bool,
        congestion: f64,
        top: &[(u32, f64)],
    ) -> Vec<JournalEvent> {
        vec![
            JournalEvent::TopEdges {
                epoch,
                edges: top
                    .iter()
                    .map(|&(edge, load)| EdgeLoad {
                        edge,
                        load,
                        utilization: load,
                    })
                    .collect(),
            },
            JournalEvent::EpochEnd {
                row: EpochRecord {
                    epoch,
                    admitted: 4,
                    cache_hit: hit,
                    cache_hits: u64::from(hit),
                    cache_misses: u64::from(!hit),
                    congestion,
                    ..EpochRecord::default()
                },
                demand_fp: Some(fp),
                lower_bound: congestion / 2.0,
            },
        ]
    }

    /// The `epoch_end` row closing an [`epoch_events`] batch.
    fn end_row(events: &mut [JournalEvent]) -> &mut EpochRecord {
        match events.last_mut() {
            Some(JournalEvent::EpochEnd { row, .. }) => row,
            other => panic!("batch ends in {other:?}"),
        }
    }

    #[test]
    fn failure_dominates_attribution() {
        let mut events = Vec::new();
        events.extend(epoch_events(0, 1, false, 1.0, &[(0, 1.0)]));
        events.extend(epoch_events(1, 1, true, 1.0, &[(0, 1.0)]));
        // failure epoch: invalidation + miss + big jump
        events.push(JournalEvent::EdgeFail {
            epoch: 2,
            edges: vec![5],
        });
        let mut fail_epoch = epoch_events(2, 1, false, 3.0, &[(0, 0.5), (7, 2.5)]);
        let row = end_row(&mut fail_epoch);
        row.cache_invalidations = 1;
        row.failed_edges = 1;
        events.extend(fail_epoch);
        events.extend(epoch_events(3, 1, true, 1.0, &[(0, 1.0)]));
        // epoch 3 still has no failure markers → its recovery delta is
        // not failure-attributed unless markers say so; tag a restore
        events.push(JournalEvent::EdgeRestore {
            epoch: 3,
            restored: 1,
        });

        let report = analyze(&events, 4);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.transitions.len(), 3);
        assert_eq!(report.top_cause(), Some(Cause::Failure));
        let failure = report
            .causes
            .iter()
            .find(|c| c.cause == Cause::Failure)
            .expect("failure bucket");
        assert_eq!(failure.transitions, 2, "fail + restore transitions");
        assert!((failure.abs_congestion_delta - 4.0).abs() < 1e-12);
        assert!(failure.share > 0.99);
        // edge 7 rose by 2.5 on the failure transition
        let top_shift = report.edge_shifts.first().expect("shift table");
        assert_eq!(top_shift.edge, 7);
        assert!((top_shift.delta - 2.5).abs() < 1e-12);
        assert_eq!(top_shift.cause, Cause::Failure);
    }

    #[test]
    fn eviction_vs_cold_sample_uses_fingerprint_history() {
        let mut events = Vec::new();
        events.extend(epoch_events(0, 10, false, 1.0, &[])); // cold
        events.extend(epoch_events(1, 20, false, 1.2, &[])); // cold (new fp)
        let mut evicting = epoch_events(2, 30, false, 1.1, &[]);
        end_row(&mut evicting).cache_evictions = 1;
        events.extend(evicting); // cold + eviction happening
        events.extend(epoch_events(3, 10, false, 1.0, &[])); // seen fp missing again → eviction
        events.extend(epoch_events(4, 10, true, 1.0, &[])); // steady hit

        let report = analyze(&events, 4);
        let causes: Vec<(Cause, usize)> = report
            .transitions
            .iter()
            .map(|t| (t.cause, usize::try_from(t.to).unwrap_or(0)))
            .collect();
        assert_eq!(
            causes,
            vec![
                (Cause::ColdSample, 1),
                (Cause::ColdSample, 2),
                (Cause::Eviction, 3),
                (Cause::Steady, 4),
            ]
        );
    }

    #[test]
    fn demand_churn_on_hits_with_fingerprint_change() {
        let mut events = Vec::new();
        events.extend(epoch_events(0, 1, false, 1.0, &[]));
        events.extend(epoch_events(1, 2, false, 1.5, &[]));
        events.extend(epoch_events(2, 1, true, 1.0, &[]));
        events.extend(epoch_events(3, 2, true, 1.5, &[]));
        let report = analyze(&events, 4);
        let churn = report
            .causes
            .iter()
            .find(|c| c.cause == Cause::DemandChurn)
            .expect("churn bucket");
        assert_eq!(churn.transitions, 2, "hit-with-changed-fp transitions");
        assert_eq!(report.top_cause(), Some(Cause::DemandChurn));
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut events = Vec::new();
        events.extend(epoch_events(0, 1, false, 1.0, &[(2, 1.0)]));
        events.extend(epoch_events(1, 1, true, 1.5, &[(2, 1.5)]));
        let report = analyze(&events, 4);
        let text = report.render_text();
        assert!(text.contains("cause attribution"));
        assert!(text.contains("top cause:"));
        assert!(text.contains("per-edge load shifts"));
        let json = report.to_json();
        let doc = crate::parse_json(&json).expect("forensics JSON parses");
        assert_eq!(
            doc.get("format").and_then(crate::JsonValue::as_str),
            Some("sor-forensics/1")
        );
        assert_eq!(
            doc.get("epochs").and_then(crate::JsonValue::as_u64),
            Some(2)
        );
        let causes = doc
            .get("causes")
            .and_then(crate::JsonValue::as_arr)
            .expect("causes array");
        assert_eq!(causes.len(), CAUSES.len());
        assert!(doc
            .get("edge_shifts")
            .and_then(crate::JsonValue::as_arr)
            .is_some());
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let report = analyze(&[], 4);
        assert!(report.epochs.is_empty());
        assert!(report.transitions.is_empty());
        assert_eq!(report.top_cause(), None);
        assert!(report.render_text().contains("none"));
    }
}
