//! Snapshot reader: the other half of the JSON export in `crate::json`.
//!
//! [`snapshot_from_value`] reads a parsed export (see
//! [`crate::parse_json`]) back into a [`Snapshot`]: a whole
//! `--metrics-out` document, or a snapshot embedded in a larger one,
//! such as a bench entry of `sor-bench`'s `BENCH_BASELINE.json`.
//! Comparing snapshots is the perf gate's job and lives with it in
//! `sor-bench`.

use crate::json::JsonValue;
use crate::{BucketCount, CounterSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};

/// Reconstruct a [`Snapshot`] from a parsed JSON document with the
/// export's `counters` / `histograms` / `spans` sections. Usable on a
/// nested [`JsonValue`] too (e.g. a snapshot embedded in a larger
/// baseline document). A `sum: null` (the writer's non-finite sum) reads
/// back as `NaN`; a bucket edge `le` must be a finite number.
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
            let le = b
                .get("le")
                .and_then(JsonValue::as_f64)
                .filter(|le| le.is_finite())
                .ok_or_else(|| format!("histogram '{name}': bucket 'le' is not a finite number"))?;
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
    use crate::parse_json;

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
                    BucketCount { le: 2.0, count: 3 },
                    BucketCount {
                        le: 1.75f64.exp2(),
                        count: 1,
                    },
                ],
                count: 4,
                sum: 9.0,
            }],
            spans: vec![SpanSnapshot {
                path: vec!["bench/run".to_string(), "frt/tree".to_string()],
                calls: 8,
                total_ns: 1_000_000,
                self_ns: 900_000,
            }],
        }
    }

    fn read(text: &str) -> Result<Snapshot, String> {
        snapshot_from_value(&parse_json(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn round_trip_through_reader() {
        let s = snap();
        let back = read(&s.to_json_with_meta(&[("experiment", "e1")])).expect("parses");
        assert_eq!(back.counters, s.counters);
        assert_eq!(back.histograms, s.histograms);
        assert_eq!(back.spans, s.spans);
    }

    #[test]
    fn round_trip_non_finite_sum_to_nan() {
        let mut s = snap();
        s.histograms[0].sum = f64::INFINITY;
        let text = s.to_json();
        assert!(text.contains("\"sum\": null"));
        let back = read(&text).expect("parses");
        assert!(back.histograms[0].sum.is_nan());
    }

    #[test]
    fn bucket_edges_must_be_finite_numbers() {
        let text = snap().to_json();
        assert!(text.contains("{ \"le\": 2, \"count\": 3 }"));
        // null, an overlarge literal that parses to +inf, and a missing
        // edge are all errors naming the histogram
        for bad in ["{ \"le\": null,", "{ \"le\": 1e999,", "{"] {
            let err = read(&text.replacen("{ \"le\": 2,", bad, 1)).expect_err(bad);
            assert!(
                err.contains("core/path/hops") && err.contains("'le'"),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_errors_name_the_problem() {
        assert!(read("{").is_err());
        assert!(read("{\"meta\": {}}")
            .expect_err("no sections")
            .contains("counters"));
    }
}
