//! Plain-text serialization of demands (traffic matrices), matching the
//! graph/system formats in `sor_graph::io` and `sor_core::portable`.
//!
//! ```text
//! demand <entries>
//! flow <s> <t> <amount>
//! ```

use crate::demand::Demand;
use sor_graph::NodeId;

/// Serialize a demand to the text format (entries in deterministic pair
/// order).
pub fn demand_to_text(d: &Demand) -> String {
    let mut out = String::with_capacity(24 * d.support_size() + 16);
    out.push_str(&format!("demand {}\n", d.support_size()));
    for &(s, t, a) in d.entries() {
        out.push_str(&format!("flow {} {} {}\n", s.0, t.0, a));
    }
    out
}

/// Parse a demand from the text format. `num_nodes` bounds the vertex
/// ids (pass the graph's vertex count).
pub fn demand_from_text(text: &str, num_nodes: usize) -> Result<Demand, String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("empty input")?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("demand") {
        return Err("expected 'demand <entries>' header".into());
    }
    let count: usize = parts
        .next()
        .ok_or("missing entry count")?
        .parse()
        .map_err(|_| "bad entry count")?;
    // not pre-sized from the header: the count is untrusted input
    let mut triples = Vec::new();
    for (i, line) in lines.enumerate() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("flow") {
            return Err(format!("line {}: expected 'flow s t amount'", i + 2));
        }
        let s: u32 = parts
            .next()
            .ok_or("missing s")?
            .parse()
            .map_err(|_| format!("line {}: bad s", i + 2))?;
        let t: u32 = parts
            .next()
            .ok_or("missing t")?
            .parse()
            .map_err(|_| format!("line {}: bad t", i + 2))?;
        let a: f64 = parts
            .next()
            .ok_or("missing amount")?
            .parse()
            .map_err(|_| format!("line {}: bad amount", i + 2))?;
        if s as usize >= num_nodes || t as usize >= num_nodes {
            return Err(format!("line {}: vertex out of range", i + 2));
        }
        if s == t {
            return Err(format!("line {}: self-pair", i + 2));
        }
        if !(a.is_finite() && a >= 0.0) {
            return Err(format!("line {}: bad amount", i + 2));
        }
        triples.push((NodeId(s), NodeId(t), a));
    }
    if triples.len() != count {
        return Err(format!(
            "header promised {count} entries, file has {}",
            triples.len()
        ));
    }
    Ok(Demand::from_triples(triples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let d = Demand::from_triples([(NodeId(0), NodeId(3), 1.5), (NodeId(2), NodeId(1), 0.25)]);
        let text = demand_to_text(&d);
        let back = demand_from_text(&text, 4).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn rejects_malformed() {
        assert!(demand_from_text("", 4).is_err());
        assert!(demand_from_text("demand 1\nflow 0 9 1", 4).is_err()); // range
        assert!(demand_from_text("demand 1\nflow 0 0 1", 4).is_err()); // self
        assert!(demand_from_text("demand 2\nflow 0 1 1", 4).is_err()); // count
        assert!(demand_from_text("demand 1\nflow 0 1 -2", 4).is_err()); // amount
        assert!(demand_from_text("demand 18446744073709551615", 4).is_err()); // huge count
    }

    #[test]
    fn comments_ignored() {
        let text = "# tm\ndemand 1\n# entry\nflow 1 2 3.0\n";
        let d = demand_from_text(text, 4).unwrap();
        assert_eq!(d.support_size(), 1);
        assert!((d.size() - 3.0).abs() < 1e-12);
    }
}
