//! Snapshot reader: the other half of the JSON export in [`crate::json`].
//!
//! [`parse_snapshot`] reads an exported document back into a
//! [`Snapshot`] plus its `meta` fields, and [`snapshot_from_value`] does
//! the same for a snapshot embedded in a larger document, such as a
//! bench entry of `sor-bench`'s `BENCH_BASELINE.json`. Comparing
//! snapshots is the perf gate's job and lives with it in `sor-bench`.

use crate::json::{parse_json, JsonValue};
use crate::{BucketCount, CounterSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};

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
        // the writer emits null for non-finite sums
        Some(JsonValue::Null) => f64::NAN,
        x => x
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("histogram '{name}': missing number field 'sum'"))?,
    };
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("histogram '{name}': missing 'buckets' array"))?
        .iter()
        .map(|b| {
            let le = match b.get("le") {
                Some(JsonValue::Null) => None,
                // a non-finite edge (e.g. an overlarge literal that
                // parsed to inf) is the overflow bucket, same as null —
                // it must never round-trip into a Some(inf)/NaN edge
                x => x
                    .and_then(JsonValue::as_f64)
                    .map(|x| x.is_finite().then_some(x))
                    .ok_or_else(|| format!("histogram '{name}': bucket missing 'le'"))?,
            };
            Ok(BucketCount {
                le,
                count: u64_field(b, "count")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
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
    fn parse_errors_name_the_problem() {
        assert!(parse_snapshot("{").is_err());
        assert!(parse_snapshot("{\"meta\": {}}")
            .expect_err("no sections")
            .contains("counters"));
    }
}
