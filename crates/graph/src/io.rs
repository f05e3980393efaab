//! Plain-text serialization of graphs.
//!
//! Installing a semi-oblivious path system on real hardware means shipping
//! the topology and candidate paths to controllers; this module provides
//! the minimal, dependency-free interchange format the workspace uses
//! (and the `sor` CLI exposes). Format:
//!
//! ```text
//! graph <n> <m>
//! edge <u> <v> <cap>     # m lines, in EdgeId order
//! ```

use crate::graph::{Graph, NodeId};

/// The most vertices [`graph_from_text`] accepts. The header's `n` sizes
/// the vertex table before any edge line is read, so an unchecked header
/// could ask for billions of adjacency lists; 2²⁰ is far beyond every
/// graph the workspace builds.
pub const MAX_TEXT_NODES: usize = 1 << 20;

/// Serialize a graph to the text format.
pub fn graph_to_text(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * g.num_edges() + 32);
    out.push_str(&format!("graph {} {}\n", g.num_nodes(), g.num_edges()));
    for e in g.edges() {
        out.push_str(&format!("edge {} {} {}\n", e.u.0, e.v.0, e.cap));
    }
    out
}

/// Parse a graph from the text format. Edge ids are assigned in file
/// order, so a round trip preserves every id. A header with 0 or more
/// than [`MAX_TEXT_NODES`] vertices is an error.
pub fn graph_from_text(text: &str) -> Result<Graph, String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("empty input")?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("graph") {
        return Err("expected 'graph <n> <m>' header".into());
    }
    let n: usize = parts
        .next()
        .ok_or("missing n")?
        .parse()
        .map_err(|_| "bad n")?;
    let m: usize = parts
        .next()
        .ok_or("missing m")?
        .parse()
        .map_err(|_| "bad m")?;
    if n == 0 || n > MAX_TEXT_NODES {
        return Err(format!("bad n {n}: need 1 to {MAX_TEXT_NODES} vertices"));
    }
    let mut g = Graph::new(n);
    for (i, line) in lines.enumerate() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("edge") {
            return Err(format!("line {}: expected 'edge u v cap'", i + 2));
        }
        let u: u32 = parts
            .next()
            .ok_or("missing u")?
            .parse()
            .map_err(|_| format!("line {}: bad u", i + 2))?;
        let v: u32 = parts
            .next()
            .ok_or("missing v")?
            .parse()
            .map_err(|_| format!("line {}: bad v", i + 2))?;
        let cap: f64 = parts
            .next()
            .ok_or("missing cap")?
            .parse()
            .map_err(|_| format!("line {}: bad cap", i + 2))?;
        if u as usize >= n || v as usize >= n {
            return Err(format!("line {}: endpoint out of range", i + 2));
        }
        if u == v {
            return Err(format!("line {}: self-loop", i + 2));
        }
        if !(cap.is_finite() && cap > 0.0) {
            return Err(format!("line {}: bad capacity", i + 2));
        }
        g.add_edge(NodeId(u), NodeId(v), cap);
    }
    if g.num_edges() != m {
        return Err(format!(
            "header promised {m} edges, file has {}",
            g.num_edges()
        ));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_preserves_everything() {
        for g in [gen::hypercube(3), gen::abilene(), gen::two_star(2, 3)] {
            let text = graph_to_text(&g);
            let h = graph_from_text(&text).expect("round trip");
            assert_eq!(h.num_nodes(), g.num_nodes());
            assert_eq!(h.num_edges(), g.num_edges());
            for (a, b) in g.edges().iter().zip(h.edges()) {
                assert_eq!(a.u, b.u);
                assert_eq!(a.v, b.v);
                assert!((a.cap - b.cap).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tolerates_comments_and_blank_lines() {
        let text = "# a graph\n\ngraph 2 1\n# the only edge\nedge 0 1 2.5\n";
        let g = graph_from_text(text).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!((g.cap(crate::EdgeId(0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed() {
        assert!(graph_from_text("").is_err());
        assert!(graph_from_text("graph 2").is_err());
        assert!(graph_from_text("graph 2 1\nedge 0 5 1.0").is_err()); // range
        assert!(graph_from_text("graph 2 1\nedge 0 0 1.0").is_err()); // loop
        assert!(graph_from_text("graph 2 1\nedge 0 1 -1").is_err()); // cap
        assert!(graph_from_text("graph 2 2\nedge 0 1 1").is_err()); // count
        assert!(graph_from_text("graph 2 1\nfoo 0 1 1").is_err()); // keyword
        assert!(graph_from_text("graph 0 0").is_err()); // no vertices
        assert!(graph_from_text("graph 4294967295 0").is_err()); // past u32 ids
        assert!(graph_from_text("graph 4294967296 0").is_err());
        // below u32::MAX, but four billion adjacency lists
        assert!(graph_from_text("graph 4000000000 0").is_err());
        let limit = format!("graph {MAX_TEXT_NODES} 0");
        assert_eq!(
            graph_from_text(&limit).map(|g| g.num_nodes()),
            Ok(MAX_TEXT_NODES)
        );
        assert!(graph_from_text(&format!("graph {} 0", MAX_TEXT_NODES + 1)).is_err());
    }
}
