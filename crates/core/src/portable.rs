//! Plain-text serialization of path systems — the "install the candidate
//! paths on the switches" artifact.
//!
//! Format (one system per file, paths referenced by edge ids of the
//! accompanying graph):
//!
//! ```text
//! system <num_pairs>
//! pair <s> <t> <num_paths>
//! path <e1> <e2> …        # one line per candidate path, edge ids in order
//! ```
//!
//! Deserialization *revalidates* every path against the graph (endpoint
//! and simplicity checks via [`sor_graph::Path::from_edges`]), so a
//! corrupted file cannot produce an ill-formed system.

use crate::path_system::PathSystem;
use sor_graph::{EdgeId, Graph, NodeId, Path};

/// Serialize a path system to the text format (pairs in deterministic
/// order).
pub fn system_to_text(sys: &PathSystem) -> String {
    let mut out = String::new();
    out.push_str(&format!("system {}\n", sys.num_pairs()));
    for (s, t, paths) in sys.pairs() {
        out.push_str(&format!("pair {} {} {}\n", s.0, t.0, paths.len()));
        for p in paths {
            out.push_str("path");
            for e in p.edges() {
                out.push_str(&format!(" {}", e.0));
            }
            out.push('\n');
        }
    }
    out
}

/// Parse and validate a path system against `g`.
pub fn system_from_text(g: &Graph, text: &str) -> Result<PathSystem, String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("empty input")?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("system") {
        return Err("expected 'system <pairs>' header".into());
    }
    let num_pairs: usize = parts
        .next()
        .ok_or("missing pair count")?
        .parse()
        .map_err(|_| "bad pair count")?;

    let mut sys = PathSystem::new();
    for _ in 0..num_pairs {
        let pair_line = lines.next().ok_or("unexpected end of file: pair")?;
        let mut parts = pair_line.split_whitespace();
        if parts.next() != Some("pair") {
            return Err(format!("expected 'pair s t k', got '{pair_line}'"));
        }
        let s: u32 = parts
            .next()
            .ok_or("missing s")?
            .parse()
            .map_err(|_| "bad s")?;
        let t: u32 = parts
            .next()
            .ok_or("missing t")?
            .parse()
            .map_err(|_| "bad t")?;
        let k: usize = parts
            .next()
            .ok_or("missing path count")?
            .parse()
            .map_err(|_| "bad path count")?;
        if s as usize >= g.num_nodes() || t as usize >= g.num_nodes() {
            return Err(format!("pair {s}→{t}: endpoint out of range"));
        }
        for _ in 0..k {
            let path_line = lines.next().ok_or("unexpected end of file: path")?;
            let mut parts = path_line.split_whitespace();
            if parts.next() != Some("path") {
                return Err(format!("expected 'path e…', got '{path_line}'"));
            }
            let mut edges = Vec::new();
            for tok in parts {
                let e: u32 = tok.parse().map_err(|_| format!("bad edge id '{tok}'"))?;
                if e as usize >= g.num_edges() {
                    return Err(format!("edge id {e} out of range"));
                }
                edges.push(EdgeId(e));
            }
            let path = Path::from_edges(g, NodeId(s), edges)
                .ok_or_else(|| format!("pair {s}→{t}: invalid path (not simple/connected)"))?;
            if path.target() != NodeId(t) {
                return Err(format!(
                    "pair {s}→{t}: path ends at {}, not {t}",
                    path.target()
                ));
            }
            sys.insert(NodeId(s), NodeId(t), path);
        }
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_k;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;
    use sor_oblivious::KspRouting;

    fn sample_system(g: &Graph) -> PathSystem {
        let r = KspRouting::new(g.clone(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = vec![
            (NodeId(0), NodeId::from_usize(g.num_nodes() - 1)),
            (NodeId(1), NodeId(2)),
        ];
        sample_k(&r, &pairs, 3, &mut rng).system
    }

    #[test]
    fn round_trip() {
        let g = gen::grid(3, 4);
        let sys = sample_system(&g);
        let text = system_to_text(&sys);
        let back = system_from_text(&g, &text).expect("round trip");
        assert_eq!(back.num_pairs(), sys.num_pairs());
        assert_eq!(back.total_paths(), sys.total_paths());
        for (s, t, paths) in sys.pairs() {
            let bp = back.paths(s, t);
            assert_eq!(bp.len(), paths.len());
            for p in paths {
                assert!(bp.position(p.edges()).is_some());
            }
        }
    }

    #[test]
    fn validation_rejects_corruption() {
        let g = gen::grid(3, 4);
        let sys = sample_system(&g);
        let text = system_to_text(&sys);
        // corrupt: bump every edge id on path lines out of range
        let bad = text.replace("path ", "path 9999 ");
        assert!(system_from_text(&g, &bad).is_err());
        // corrupt: wrong target (swap a pair's t to s+0... make unreachable)
        let bad2 = text.replacen("pair 1 2", "pair 1 3", 1);
        assert!(system_from_text(&g, &bad2).is_err());
        // truncated file
        let half = &text[..text.len() / 2];
        assert!(system_from_text(&g, half).is_err());
    }

    #[test]
    fn cross_graph_validation() {
        // A system serialized against one graph must not validate against
        // a graph where those edge ids connect different vertices.
        let g = gen::grid(3, 4);
        let sys = sample_system(&g);
        let text = system_to_text(&sys);
        let other = gen::cycle_graph(12);
        assert!(system_from_text(&other, &text).is_err());
    }
}
