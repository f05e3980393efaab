//! Snapshot reader and diff engine.
//!
//! The writer half of the export lives in [`crate::json`]; this module
//! closes the loop: [`parse_snapshot`] reads an exported JSON document
//! back into a [`Snapshot`] (plus its `meta` fields), and [`diff`]
//! compares two snapshots under a [`DiffPolicy`] — the engine behind
//! `sor-bench`'s `perf --gate` baseline check.
//!
//! Diff semantics, by metric kind:
//!
//! * **Counters, histogram counts, span call counts** — deterministic
//!   work metrics under the workspace's seeded RNG. They gate exactly
//!   (`counter_tol = 0`) or within a relative tolerance.
//! * **Histogram sums** — deterministic but float-valued; gate within
//!   `value_tol` (relative).
//! * **Span wall times** — noisy. They gate loosely by ratio (median
//!   above `wall_warn_ratio`× baseline warns, above `wall_fail_ratio`×
//!   fails), only above a `min_wall_ns` floor (tiny spans are all
//!   jitter), and only when `compare_wall` is set at all.
//! * **Missing / added metrics** — a metric present in the baseline but
//!   absent from the current run fails (work disappeared silently);
//!   a new metric only warns (instrumentation grew — refresh the
//!   baseline when intended).

use crate::json::{parse_json, JsonValue};
use crate::{BucketCount, CounterSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};

/// Separator used when flattening a span path into one metric name.
pub const SPAN_PATH_SEP: &str = " > ";

/// Parse an exported snapshot document (as produced by
/// [`Snapshot::to_json_with_meta`]) back into the snapshot plus its
/// `meta` string fields. `sum: null` / `le: null` from non-finite floats
/// map back to `NaN` (sums) and the overflow bucket (edges).
pub fn parse_snapshot(text: &str) -> Result<(Snapshot, Vec<(String, String)>), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let snap = snapshot_from_value(&doc)?;
    let mut meta = Vec::new();
    if let Some(members) = doc.get("meta").and_then(JsonValue::as_obj) {
        for (k, v) in members {
            let v = v
                .as_str()
                .ok_or_else(|| format!("meta field '{k}' is not a string"))?;
            meta.push((k.clone(), v.to_string()));
        }
    }
    Ok((snap, meta))
}

/// Reconstruct a [`Snapshot`] from a parsed JSON document with the
/// export's `counters` / `histograms` / `spans` sections. Usable on a
/// nested [`JsonValue`] too (e.g. a snapshot embedded in a larger
/// baseline document).
pub fn snapshot_from_value(doc: &JsonValue) -> Result<Snapshot, String> {
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'counters' array")?
        .iter()
        .map(counter_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let histograms = doc
        .get("histograms")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'histograms' array")?
        .iter()
        .map(histogram_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'spans' array")?
        .iter()
        .map(span_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Snapshot {
        counters,
        histograms,
        spans,
    })
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn counter_from_value(v: &JsonValue) -> Result<CounterSnapshot, String> {
    Ok(CounterSnapshot {
        name: str_field(v, "name")?,
        value: u64_field(v, "value")?,
    })
}

fn histogram_from_value(v: &JsonValue) -> Result<HistogramSnapshot, String> {
    let name = str_field(v, "name")?;
    let sum = match v.get("sum") {
        Some(JsonValue::Num(x)) => *x,
        // the writer emits null for non-finite sums
        Some(JsonValue::Null) => f64::NAN,
        _ => return Err(format!("histogram '{name}': missing number field 'sum'")),
    };
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("histogram '{name}': missing 'buckets' array"))?
        .iter()
        .map(|b| {
            let le = match b.get("le") {
                // a non-finite edge (e.g. an overlarge literal that
                // parsed to inf) is the overflow bucket, same as null —
                // it must never round-trip into a Some(inf)/NaN edge
                Some(JsonValue::Num(x)) if x.is_finite() => Some(*x),
                Some(JsonValue::Num(_) | JsonValue::Null) => None,
                _ => return Err(format!("histogram '{name}': bucket missing 'le'")),
            };
            Ok(BucketCount {
                le,
                count: u64_field(b, "count")?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(HistogramSnapshot {
        count: u64_field(v, "count")?,
        sum,
        buckets,
        name,
    })
}

fn span_from_value(v: &JsonValue) -> Result<SpanSnapshot, String> {
    let path = v
        .get("path")
        .and_then(JsonValue::as_arr)
        .ok_or("span missing 'path' array")?
        .iter()
        .map(|seg| {
            seg.as_str()
                .map(str::to_string)
                .ok_or_else(|| "span path segment is not a string".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SpanSnapshot {
        path,
        calls: u64_field(v, "calls")?,
        total_ns: u64_field(v, "total_ns")?,
        self_ns: u64_field(v, "self_ns")?,
    })
}

/// What a [`diff`] compares and how strictly. See the module docs for
/// the rationale behind each knob.
#[derive(Clone, Debug)]
pub struct DiffPolicy {
    /// Relative tolerance for integer work metrics (counter values,
    /// histogram counts, span call counts). `0.0` = exact.
    pub counter_tol: f64,
    /// Relative tolerance for float work metrics (histogram sums).
    pub value_tol: f64,
    /// Current wall time above this multiple of baseline → warn.
    pub wall_warn_ratio: f64,
    /// Current wall time above this multiple of baseline → fail.
    pub wall_fail_ratio: f64,
    /// Spans whose baseline wall time is below this floor are skipped
    /// for wall comparison (pure jitter).
    pub min_wall_ns: u64,
    /// Compare span wall times at all. Off for noise-proof CI gating.
    pub compare_wall: bool,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        DiffPolicy {
            counter_tol: 0.0,
            value_tol: 1e-9,
            wall_warn_ratio: 1.3,
            wall_fail_ratio: 1.6,
            min_wall_ns: 200_000,
            compare_wall: false,
        }
    }
}

impl DiffPolicy {
    /// A policy that also gates wall times (loosely, per the ratios).
    pub fn with_wall(mut self) -> Self {
        self.compare_wall = true;
        self
    }
}

/// Severity of one [`Delta`], and of a whole [`SnapshotDiff`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffStatus {
    /// Within policy.
    Pass,
    /// Suspicious but not gating (slow wall time, new metric).
    Warn,
    /// Out of policy — the gate should reject the run.
    Fail,
}

impl DiffStatus {
    /// Short uppercase tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            DiffStatus::Pass => "PASS",
            DiffStatus::Warn => "WARN",
            DiffStatus::Fail => "FAIL",
        }
    }
}

/// Which facet of a metric a [`Delta`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A counter's value.
    Counter,
    /// A histogram's observation count.
    HistogramCount,
    /// A histogram's value sum.
    HistogramSum,
    /// A span path's call count.
    SpanCalls,
    /// A span path's total wall time.
    SpanWall,
    /// A derived quality metric (competitive ratio, MLU ratio, …).
    /// Never produced by [`diff`] itself — downstream gate engines
    /// (`sor-bench`'s perf harness) compose their quality comparisons
    /// into the same delta/report machinery.
    Quality,
    /// Metric present in baseline, absent in current.
    Missing,
    /// Metric absent in baseline, present in current.
    Added,
}

impl DeltaKind {
    /// Human label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DeltaKind::Counter => "counter",
            DeltaKind::HistogramCount => "histogram count",
            DeltaKind::HistogramSum => "histogram sum",
            DeltaKind::SpanCalls => "span calls",
            DeltaKind::SpanWall => "span wall",
            DeltaKind::Quality => "quality",
            DeltaKind::Missing => "missing",
            DeltaKind::Added => "added",
        }
    }
}

/// One out-of-policy (or informational) comparison result.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Metric name (span paths joined with [`SPAN_PATH_SEP`]).
    pub metric: String,
    /// Which facet differed.
    pub kind: DeltaKind,
    /// Baseline value (`NaN` when the metric is new).
    pub base: f64,
    /// Current value (`NaN` when the metric vanished).
    pub cur: f64,
    /// Severity under the policy.
    pub status: DiffStatus,
    /// One-line explanation for the report.
    pub note: String,
}

/// Result of diffing a current snapshot against a baseline.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDiff {
    /// Number of individual comparisons performed.
    pub checked: usize,
    /// Non-pass results only, in metric order.
    pub deltas: Vec<Delta>,
}

impl SnapshotDiff {
    /// Worst status across all deltas ([`DiffStatus::Pass`] when empty).
    pub fn status(&self) -> DiffStatus {
        self.deltas
            .iter()
            .map(|d| d.status)
            .max()
            .unwrap_or(DiffStatus::Pass)
    }

    /// Count of [`DiffStatus::Fail`] deltas.
    pub fn num_fail(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.status == DiffStatus::Fail)
            .count()
    }

    /// Count of [`DiffStatus::Warn`] deltas.
    pub fn num_warn(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.status == DiffStatus::Warn)
            .count()
    }

    /// Render a human-readable report block (empty string when clean).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            out.push_str(&format!(
                "  [{}] {} ({}): baseline {} -> current {} — {}\n",
                d.status.tag(),
                d.metric,
                d.kind.label(),
                fmt_val(d.base),
                fmt_val(d.cur),
                d.note
            ));
        }
        out
    }
}

fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    // sor-check: allow(float-eq) — fract()==0.0 is an exact integrality test for display
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Relative deviation of `cur` from `base` (absolute when `base == 0`).
fn rel_dev(base: f64, cur: f64) -> f64 {
    // sor-check: allow(float-eq) — 0.0 is an exact sentinel (absolute-dev fallback)
    if base == 0.0 {
        cur.abs()
    } else {
        ((cur - base) / base).abs()
    }
}

/// Diff `cur` against `base` under `policy`. Metrics are matched by
/// name (span paths flattened with [`SPAN_PATH_SEP`]); both snapshots
/// are name-sorted by construction, so the walk is a linear merge.
pub fn diff(base: &Snapshot, cur: &Snapshot, policy: &DiffPolicy) -> SnapshotDiff {
    let mut out = SnapshotDiff::default();

    merge_by_name(
        &base.counters,
        &cur.counters,
        |c| c.name.clone(),
        &mut out,
        |b, c, out| {
            compare_u64(
                out,
                &b.name,
                DeltaKind::Counter,
                b.value,
                c.value,
                policy.counter_tol,
            );
        },
    );

    merge_by_name(
        &base.histograms,
        &cur.histograms,
        |h| h.name.clone(),
        &mut out,
        |b, c, out| {
            compare_u64(
                out,
                &b.name,
                DeltaKind::HistogramCount,
                b.count,
                c.count,
                policy.counter_tol,
            );
            out.checked += 1;
            // NaN sums (non-finite observations) compare equal to NaN:
            // the regression to catch is a *change* in non-finiteness.
            let both_nan = b.sum.is_nan() && c.sum.is_nan();
            if !both_nan && rel_dev(b.sum, c.sum) > policy.value_tol {
                out.deltas.push(Delta {
                    metric: b.name.clone(),
                    kind: DeltaKind::HistogramSum,
                    base: b.sum,
                    cur: c.sum,
                    status: DiffStatus::Fail,
                    note: format!("sum deviates beyond tolerance {}", policy.value_tol),
                });
            }
        },
    );

    merge_by_name(
        &base.spans,
        &cur.spans,
        |s| s.path.join(SPAN_PATH_SEP),
        &mut out,
        |b, c, out| {
            let name = b.path.join(SPAN_PATH_SEP);
            compare_u64(
                out,
                &name,
                DeltaKind::SpanCalls,
                b.calls,
                c.calls,
                policy.counter_tol,
            );
            if policy.compare_wall && b.total_ns >= policy.min_wall_ns {
                out.checked += 1;
                #[allow(clippy::cast_precision_loss)]
                let (bns, cns) = (b.total_ns as f64, c.total_ns as f64);
                let ratio = if bns > 0.0 { cns / bns } else { 1.0 };
                let status = if ratio > policy.wall_fail_ratio {
                    DiffStatus::Fail
                } else if ratio > policy.wall_warn_ratio {
                    DiffStatus::Warn
                } else {
                    DiffStatus::Pass
                };
                if status != DiffStatus::Pass {
                    out.deltas.push(Delta {
                        metric: name,
                        kind: DeltaKind::SpanWall,
                        base: bns,
                        cur: cns,
                        status,
                        note: format!(
                            "wall time {ratio:.2}x baseline (warn >{:.2}x, fail >{:.2}x)",
                            policy.wall_warn_ratio, policy.wall_fail_ratio
                        ),
                    });
                }
            }
        },
    );

    out
}

fn compare_u64(out: &mut SnapshotDiff, name: &str, kind: DeltaKind, base: u64, cur: u64, tol: f64) {
    out.checked += 1;
    #[allow(clippy::cast_precision_loss)]
    let (b, c) = (base as f64, cur as f64);
    if base != cur && rel_dev(b, c) > tol {
        out.deltas.push(Delta {
            metric: name.to_string(),
            kind,
            base: b,
            cur: c,
            status: DiffStatus::Fail,
            // sor-check: allow(float-eq) — tol==0.0 is the exact-gate configuration sentinel
            note: if tol == 0.0 {
                "deterministic work metric changed".to_string()
            } else {
                format!("deviates beyond tolerance {tol}")
            },
        });
    }
}

/// Linear merge of two name-sorted slices, dispatching matched pairs to
/// `on_pair` and recording missing/added entries.
fn merge_by_name<T>(
    base: &[T],
    cur: &[T],
    name_of: impl Fn(&T) -> String,
    out: &mut SnapshotDiff,
    mut on_pair: impl FnMut(&T, &T, &mut SnapshotDiff),
) {
    let (mut i, mut j) = (0, 0);
    while i < base.len() || j < cur.len() {
        match (base.get(i), cur.get(j)) {
            (Some(b), Some(c)) => {
                let (bn, cn) = (name_of(b), name_of(c));
                match bn.cmp(&cn) {
                    std::cmp::Ordering::Equal => {
                        on_pair(b, c, out);
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        push_missing(out, bn);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        push_added(out, cn);
                        j += 1;
                    }
                }
            }
            (Some(b), None) => {
                push_missing(out, name_of(b));
                i += 1;
            }
            (None, Some(c)) => {
                push_added(out, name_of(c));
                j += 1;
            }
            (None, None) => break,
        }
    }
}

fn push_missing(out: &mut SnapshotDiff, name: String) {
    out.checked += 1;
    out.deltas.push(Delta {
        metric: name,
        kind: DeltaKind::Missing,
        base: f64::NAN,
        cur: f64::NAN,
        status: DiffStatus::Fail,
        note: "present in baseline, absent in current run".to_string(),
    });
}

fn push_added(out: &mut SnapshotDiff, name: String) {
    out.checked += 1;
    out.deltas.push(Delta {
        metric: name,
        kind: DeltaKind::Added,
        base: f64::NAN,
        cur: f64::NAN,
        status: DiffStatus::Warn,
        note: "new metric not in baseline (refresh baseline if intended)".to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnapshot {
                    name: "flow/oracle_calls".to_string(),
                    value: 42,
                },
                CounterSnapshot {
                    name: "flow/phases".to_string(),
                    value: 7,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "core/path/hops".to_string(),
                buckets: vec![
                    BucketCount {
                        le: Some(2.0),
                        count: 3,
                    },
                    BucketCount { le: None, count: 1 },
                ],
                count: 4,
                sum: 11.5,
            }],
            spans: vec![SpanSnapshot {
                path: vec!["bench/run".to_string(), "frt/tree".to_string()],
                calls: 8,
                total_ns: 1_000_000,
                self_ns: 900_000,
            }],
        }
    }

    #[test]
    fn round_trip_through_reader() {
        let s = snap();
        let text = s.to_json_with_meta(&[("experiment", "e1"), ("quick", "true")]);
        let (back, meta) = parse_snapshot(&text).expect("parses");
        assert_eq!(back.counters, s.counters);
        assert_eq!(back.histograms, s.histograms);
        assert_eq!(back.spans, s.spans);
        assert_eq!(
            meta,
            vec![
                ("experiment".to_string(), "e1".to_string()),
                ("quick".to_string(), "true".to_string())
            ]
        );
    }

    #[test]
    fn round_trip_non_finite_sum_to_nan() {
        let mut s = snap();
        s.histograms[0].sum = f64::INFINITY;
        let text = s.to_json();
        assert!(text.contains("\"sum\": null"));
        let (back, _) = parse_snapshot(&text).expect("parses");
        assert!(back.histograms[0].sum.is_nan());
        // NaN sums on both sides don't trip the gate
        let d = diff(&back, &back, &DiffPolicy::default());
        assert_eq!(d.status(), DiffStatus::Pass);
    }

    #[test]
    fn overflow_bucket_round_trips_without_nan() {
        // writer: le: None renders as null; reader: null (or any
        // non-finite numeric edge a foreign writer emits) maps back to
        // None — never Some(inf)/NaN
        let s = snap();
        let text = s.to_json();
        assert!(text.contains("\"le\": null"));
        let (back, _) = parse_snapshot(&text).expect("parses");
        assert_eq!(back.histograms[0].buckets[1].le, None);
        assert!(back.histograms[0]
            .buckets
            .iter()
            .all(|b| b.le.is_none() || b.le.is_some_and(f64::is_finite)));
        // a foreign exposition that wrote an overlarge literal (parses
        // to +inf) still lands in the overflow bucket
        let foreign = text.replace("\"le\": null", "\"le\": 1e999");
        let (back2, _) = parse_snapshot(&foreign).expect("parses");
        assert_eq!(back2.histograms, s.histograms);
        // and the Prometheus exposition of the round-tripped snapshot
        // renders the overflow bucket as +Inf, not NaN
        let prom = crate::render_prometheus(&back, &crate::PromGauges::new());
        assert!(prom.contains("le=\"+Inf\""));
        assert!(!prom.contains("NaN"));
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap();
        let d = diff(&s, &s, &DiffPolicy::default());
        assert_eq!(d.status(), DiffStatus::Pass);
        assert!(d.deltas.is_empty());
        assert!(d.checked > 0);
    }

    #[test]
    fn counter_change_fails_exactly() {
        let base = snap();
        let mut cur = snap();
        cur.counters[0].value = 43;
        let d = diff(&base, &cur, &DiffPolicy::default());
        assert_eq!(d.status(), DiffStatus::Fail);
        let delta = &d.deltas[0];
        assert_eq!(delta.metric, "flow/oracle_calls");
        assert_eq!(delta.kind, DeltaKind::Counter);
        let report = d.render_text();
        assert!(report.contains("flow/oracle_calls"));
        assert!(report.contains("[FAIL]"));
    }

    #[test]
    fn counter_tolerance_admits_small_drift() {
        let base = snap();
        let mut cur = snap();
        cur.counters[0].value = 43; // ~2.4% off 42
        let policy = DiffPolicy {
            counter_tol: 0.05,
            ..DiffPolicy::default()
        };
        assert_eq!(diff(&base, &cur, &policy).status(), DiffStatus::Pass);
    }

    #[test]
    fn histogram_count_and_sum_gate() {
        let base = snap();
        let mut cur = snap();
        cur.histograms[0].sum = 12.5;
        let d = diff(&base, &cur, &DiffPolicy::default());
        assert_eq!(d.num_fail(), 1);
        assert_eq!(d.deltas[0].kind, DeltaKind::HistogramSum);
    }

    #[test]
    fn wall_ratios_warn_then_fail() {
        let base = snap();
        let mut cur = snap();
        let policy = DiffPolicy::default().with_wall();

        cur.spans[0].total_ns = 1_400_000; // 1.4x -> warn
        let d = diff(&base, &cur, &policy);
        assert_eq!(d.status(), DiffStatus::Warn);
        assert_eq!(d.deltas[0].kind, DeltaKind::SpanWall);

        cur.spans[0].total_ns = 1_700_000; // 1.7x -> fail
        let d = diff(&base, &cur, &policy);
        assert_eq!(d.status(), DiffStatus::Fail);

        // wall off by default: same perturbation passes
        let d = diff(&base, &cur, &DiffPolicy::default());
        assert_eq!(d.status(), DiffStatus::Pass);
    }

    #[test]
    fn tiny_spans_skip_wall_compare() {
        let mut base = snap();
        base.spans[0].total_ns = 10_000; // below min_wall_ns floor
        let mut cur = base.clone();
        cur.spans[0].total_ns = 90_000; // 9x, but tiny
        let policy = DiffPolicy::default().with_wall();
        assert_eq!(diff(&base, &cur, &policy).status(), DiffStatus::Pass);
    }

    #[test]
    fn missing_fails_added_warns() {
        let base = snap();
        let mut cur = snap();
        cur.counters.remove(0);
        cur.counters.push(CounterSnapshot {
            name: "new/metric".to_string(),
            value: 1,
        });
        cur.counters.sort_by(|a, b| a.name.cmp(&b.name));
        let d = diff(&base, &cur, &DiffPolicy::default());
        assert!(d
            .deltas
            .iter()
            .any(|x| x.kind == DeltaKind::Missing && x.status == DiffStatus::Fail));
        assert!(d
            .deltas
            .iter()
            .any(|x| x.kind == DeltaKind::Added && x.status == DiffStatus::Warn));
    }

    #[test]
    fn parse_errors_name_the_problem() {
        assert!(parse_snapshot("{").is_err());
        assert!(parse_snapshot("{\"meta\": {}}")
            .expect_err("no sections")
            .contains("counters"));
    }
}
