//! Yen's algorithm for the k shortest loopless paths.
//!
//! Used by the `UniformKsp` baseline oblivious routing (the strategy SMORE
//! compares against) and by tests that need a deterministic family of
//! distinct simple paths between a pair.

use crate::graph::{Graph, NodeId};
use crate::path::{LoopErasedWalk, Path};
use crate::shortest::dijkstra;

/// The `k` shortest loopless `s`-`t` paths under `lengths`, sorted by
/// non-decreasing length (ties broken arbitrarily but deterministically).
/// Returns fewer than `k` paths when the graph has fewer distinct simple
/// paths between the pair.
///
/// Standard Yen: spur from every prefix of the last accepted path, banning
/// the prefix's root edges and root nodes.
pub fn yen_ksp(g: &Graph, s: NodeId, t: NodeId, k: usize, lengths: &[f64]) -> Vec<Path> {
    assert_eq!(lengths.len(), g.num_edges());
    if k == 0 {
        return Vec::new();
    }
    if s == t {
        return vec![Path::trivial(s)];
    }
    let mut accepted: Vec<Path> = Vec::with_capacity(k);
    // Candidate pool: (length, path). Kept sorted ascending; we pop the
    // smallest. Duplicates are filtered on insertion.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut walk = LoopErasedWalk::default();

    let first = match dijkstra(g, s, lengths).path_to(g, t) {
        Some(p) => p,
        None => return Vec::new(),
    };
    accepted.push(first);

    while accepted.len() < k {
        // `accepted` starts with `first` and only grows
        let prev = accepted[accepted.len() - 1].clone();
        // Spur from each vertex of the previous path except the target.
        for i in 0..prev.hops() {
            let spur_node = prev.nodes()[i];
            let root_nodes = &prev.nodes()[..=i];
            let root_edges = &prev.edges()[..i];

            // Build a modified metric: ban edges that would recreate an
            // already-accepted path with the same root, and ban root nodes
            // (except the spur node) entirely.
            let mut banned = lengths.to_vec();
            for p in accepted.iter().chain(candidates.iter().map(|(_, p)| p)) {
                if p.hops() > i && p.nodes()[..=i] == *root_nodes {
                    banned[p.edges()[i].index()] = f64::INFINITY;
                }
            }
            for &v in &root_nodes[..i] {
                for &(e, _) in g.incident(v) {
                    banned[e.index()] = f64::INFINITY;
                }
            }

            let spur = dijkstra(g, spur_node, &banned).path_to(g, t);
            let Some(spur_path) = spur else { continue };
            if spur_path.length(&banned).is_infinite() {
                continue; // only reachable through banned edges
            }
            // Root ++ spur, loop-erased; erasure may shortcut, so keep only
            // genuine s-t simple paths that extend the root exactly (Yen
            // requires root ++ spur simple).
            walk.start(s);
            for (&e, &v) in root_edges.iter().zip(&root_nodes[1..]) {
                walk.step(e, v);
            }
            walk.follow(&spur_path);
            if walk.edges().len() != i + spur_path.hops() {
                continue;
            }
            let total = walk.to_path();
            let total_len = total.length(lengths);
            let duplicate =
                accepted.contains(&total) || candidates.iter().any(|(_, p)| *p == total);
            if !duplicate {
                candidates.push((total_len, total));
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the shortest candidate (total order via total_cmp keeps
        // this panic-free even for NaN lengths; nonempty checked above).
        let mut best = 0usize;
        for (i, (l, _)) in candidates.iter().enumerate() {
            if l.total_cmp(&candidates[best].0).is_lt() {
                best = i;
            }
        }
        let (_, path) = candidates.swap_remove(best);
        accepted.push(path);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn single_path_graph() {
        let g = gen::path_graph(4);
        let ps = yen_ksp(&g, NodeId(0), NodeId(3), 5, &g.unit_lengths());
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 3);
    }

    #[test]
    fn cycle_has_two_paths() {
        let g = gen::cycle_graph(6);
        let ps = yen_ksp(&g, NodeId(0), NodeId(2), 5, &g.unit_lengths());
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(ps[1].hops(), 4);
    }

    #[test]
    fn paths_sorted_and_distinct() {
        let g = gen::grid(3, 3);
        let ps = yen_ksp(&g, NodeId(0), NodeId(8), 6, &g.unit_lengths());
        assert!(ps.len() >= 3);
        for w in ps.windows(2) {
            assert!(w[0].length(&g.unit_lengths()) <= w[1].length(&g.unit_lengths()) + 1e-9);
            assert_ne!(w[0], w[1]);
        }
        for p in &ps {
            assert!(p.validate(&g));
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(8));
        }
    }

    #[test]
    fn complete_graph_counts() {
        // K4: s-t paths: direct (1), via one intermediate (2), via two (2) = 5.
        let g = gen::complete_graph(4);
        let ps = yen_ksp(&g, NodeId(0), NodeId(1), 10, &g.unit_lengths());
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn respects_lengths() {
        // Square where one side is heavy.
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1)); // e0
        g.add_unit_edge(NodeId(1), NodeId(3)); // e1
        g.add_unit_edge(NodeId(0), NodeId(2)); // e2
        g.add_unit_edge(NodeId(2), NodeId(3)); // e3
        let ps = yen_ksp(&g, NodeId(0), NodeId(3), 2, &[10.0, 10.0, 1.0, 1.0]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].nodes()[1], NodeId(2));
        assert_eq!(ps[1].nodes()[1], NodeId(1));
    }

    #[test]
    fn k_zero_and_same_endpoints() {
        let g = gen::cycle_graph(4);
        assert!(yen_ksp(&g, NodeId(0), NodeId(1), 0, &g.unit_lengths()).is_empty());
        let same = yen_ksp(&g, NodeId(2), NodeId(2), 3, &g.unit_lengths());
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].hops(), 0);
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(2), NodeId(3));
        assert!(yen_ksp(&g, NodeId(0), NodeId(3), 3, &g.unit_lengths()).is_empty());
    }
}
