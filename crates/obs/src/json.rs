//! Hand-rolled JSON for [`crate::Snapshot`] (the registry is unreachable
//! from CI, so no serde). The writer half serializes snapshots, and its
//! string and number writers serve every other JSON document the crate
//! writes (timeline, journal, forensics); the reader half ([`parse_json`]
//! / [`JsonValue`]) is a small recursive-descent parser so the exports
//! can be consumed back (the [`crate::snapshot`] reader,
//! [`crate::parse_journal`], `sor-bench`'s perf baseline, round-trip
//! tests).
//!
//! Output shape (all arrays name-sorted by construction, so two
//! snapshots of the same run serialize identically):
//!
//! ```json
//! {
//!   "meta": { "experiment": "e1" },
//!   "counters":   [ { "name": "flow/mwu/phases", "value": 42 } ],
//!   "histograms": [ { "name": "core/path/hops", "count": 7, "sum": 20,
//!                     "buckets": [ { "le": 2, "count": 3 },
//!                                  { "le": 3.363585661014858, "count": 2 },
//!                                  { "le": 4, "count": 2 } ] } ],
//!   "spans":      [ { "path": ["sor/run", "hierarchy/build"],
//!                     "calls": 1, "total_ns": 12345, "self_ns": 12000 } ]
//! }
//! ```
//!
//! A histogram lists only its occupied buckets, each under its inclusive
//! upper edge `le` (see [`crate::LogHistogram::buckets`]). Non-finite
//! floats (which no metric should produce) serialize as `null` rather
//! than emitting invalid JSON.

use crate::Snapshot;
use std::fmt::Write as _;

/// Append `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number, or `null` when it is not finite.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's Display for f64 is shortest-roundtrip; ensure the
        // token stays a JSON number (Display never emits exponents
        // without a mantissa dot issue, and integers print bare).
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn snapshot_to_json(snap: &Snapshot, meta: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push(' ');
        push_escaped(&mut out, k);
        out.push_str(": ");
        push_escaped(&mut out, v);
    }
    if !meta.is_empty() {
        out.push(' ');
    }
    out.push_str("},\n  \"counters\": [");
    for (i, c) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { \"name\": ");
        push_escaped(&mut out, &c.name);
        let _ = write!(out, ", \"value\": {} }}", c.value);
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { \"name\": ");
        push_escaped(&mut out, &h.name);
        let _ = write!(out, ", \"count\": {}, \"sum\": ", h.count);
        push_f64(&mut out, h.sum);
        out.push_str(", \"buckets\": [");
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{ \"le\": ");
            push_f64(&mut out, b.le);
            let _ = write!(out, ", \"count\": {} }}", b.count);
        }
        out.push_str("] }");
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"spans\": [");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { \"path\": [");
        for (j, seg) in s.path.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_escaped(&mut out, seg);
        }
        let _ = write!(
            out,
            "], \"calls\": {}, \"total_ns\": {}, \"self_ns\": {} }}",
            s.calls, s.total_ns, s.self_ns
        );
    }
    if !snap.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// A parsed JSON document. Object member order is preserved (snapshots
/// are name-sorted by construction, and round-trip tests rely on it).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a plain non-negative integer that fits in
    /// `u64`, kept exact (journal fingerprints use all 64 bits).
    Int(u64),
    /// Any other JSON number (negative, fractional, exponent form or past
    /// `u64`), parsed as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (an [`JsonValue::Int`]
    /// above 2^53 rounds to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is an integer literal
    /// within `u64` range (see [`JsonValue::Int`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse error: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            out,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Nesting guard — snapshots are ~4 levels deep; anything past this is
/// hostile or corrupt input, not a metrics export.
const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", char::from(expected))))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| JsonValue::Null),
            Some(b't') => self.eat_literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte '{}'", char::from(c)))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own exports
                            // (metric names are valid UTF-8); map them to
                            // the replacement char rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // escape in one step. Both delimiters are ASCII, so
                    // they never split a UTF-8 sequence, and each byte is
                    // validated once: parsing stays linear.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                        JsonError {
                            offset: start + e.valid_up_to(),
                            message: "invalid UTF-8".to_string(),
                        }
                    })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // digits only: an integer literal, exact when it fits in u64
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

/// Parse a JSON document (the whole input must be one value plus
/// whitespace). Integer literals within `u64` stay exact, other numbers
/// become `f64`; object member order is preserved.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BucketCount, CounterSnapshot, HistogramSnapshot, SpanSnapshot};

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "a/b".to_string(),
                value: 3,
            }],
            histograms: vec![HistogramSnapshot {
                name: "h \"q\"".to_string(),
                buckets: vec![
                    BucketCount { le: 1.0, count: 2 },
                    BucketCount {
                        le: 1.25f64.exp2(),
                        count: 1,
                    },
                ],
                count: 3,
                sum: 4.25,
            }],
            spans: vec![SpanSnapshot {
                path: vec!["sor/run".to_string(), "x".to_string()],
                calls: 2,
                total_ns: 10,
                self_ns: 7,
            }],
        }
    }

    #[test]
    fn serializes_all_sections_with_escaping() {
        let text = snapshot_to_json(&sample(), &[("experiment", "e1"), ("quick", "true")]);
        assert!(text.contains("\"experiment\": \"e1\""));
        assert!(text.contains("\"name\": \"a/b\", \"value\": 3"));
        assert!(text.contains("\"h \\\"q\\\"\""));
        assert!(text.contains("{ \"le\": 1, \"count\": 2 }"));
        assert!(text.contains("{ \"le\": 2.378414230005442, \"count\": 1 }"));
        assert!(text.contains("\"sum\": 4.25"));
        assert!(text.contains("\"path\": [\"sor/run\", \"x\"], \"calls\": 2"));
        // balanced braces/brackets — cheap structural sanity check
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in:\n{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let empty = Snapshot {
            counters: vec![],
            histograms: vec![],
            spans: vec![],
        };
        let text = snapshot_to_json(&empty, &[]);
        assert!(text.contains("\"counters\": []"));
        assert!(text.contains("\"histograms\": []"));
        assert!(text.contains("\"spans\": []"));
        assert!(text.contains("\"meta\": {}"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = sample();
        s.histograms[0].sum = f64::NAN;
        let text = snapshot_to_json(&s, &[]);
        assert!(text.contains("\"sum\": null"));
    }

    #[test]
    fn integer_literals_parse_exactly() {
        let max = parse_json("18446744073709551615").expect("u64::MAX");
        assert_eq!(max, JsonValue::Int(u64::MAX));
        assert_eq!(max.as_u64(), Some(u64::MAX));
        // past u64, negative or fractional: an f64, as before
        let over = parse_json("18446744073709551616").expect("2^64");
        assert_eq!(over.as_u64(), None);
        assert_eq!(over.as_f64(), Some(2f64.powi(64)));
        assert_eq!(parse_json("-1").expect("-1").as_u64(), None);
        assert_eq!(parse_json("3.0").expect("3.0").as_u64(), None);
        assert_eq!(parse_json("2.5").expect("2.5").as_f64(), Some(2.5));
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut out = String::new();
        push_escaped(&mut out, "a\nb\u{1}c");
        assert_eq!(out, "\"a\\nb\\u0001c\"");
    }
}
