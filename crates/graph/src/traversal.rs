//! Unweighted traversal: BFS distances, connectivity, hop metrics.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::path::Path;
use std::collections::VecDeque;

/// Sentinel for "unreachable" in hop-distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `src` to every vertex ([`UNREACHABLE`] where there is
/// no path).
pub fn bfs_dists(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    dist[src.index()] = 0;
    let mut q = VecDeque::with_capacity(g.num_nodes());
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for &(_, v) in g.incident(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// BFS parent-edge array from `src`: for each reached vertex other than
/// `src`, the edge through which it was first discovered.
pub fn bfs_parents(g: &Graph, src: NodeId) -> Vec<Option<EdgeId>> {
    bfs_parents_avoiding(g, src, &[])
}

/// [`bfs_parents`] over `g` with the edges in `avoid` skipped.
fn bfs_parents_avoiding(g: &Graph, src: NodeId, avoid: &[EdgeId]) -> Vec<Option<EdgeId>> {
    let mut parent = vec![None; g.num_nodes()];
    let mut seen = vec![false; g.num_nodes()];
    seen[src.index()] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &(e, v) in g.incident(u) {
            if !seen[v.index()] && !avoid.contains(&e) {
                seen[v.index()] = true;
                parent[v.index()] = Some(e);
                q.push_back(v);
            }
        }
    }
    parent
}

/// A shortest path by hops from `s` to `t`, or `None` if disconnected.
pub fn bfs_path(g: &Graph, s: NodeId, t: NodeId) -> Option<Path> {
    bfs_path_avoiding(g, s, t, &[])
}

/// A shortest path by hops from `s` to `t` that crosses no edge of
/// `avoid`, or `None` when removing `avoid` disconnects the pair. The
/// search walks `g` itself and skips avoided edges, as
/// [`connected_without`](crate::connected_without) does, so the path
/// carries `g`'s edge ids. Each vertex is discovered through the first
/// non-avoided edge of its discoverer's adjacency list, the edge a BFS on
/// [`Graph::without_edges`] (which keeps edge order) would pick.
pub fn bfs_path_avoiding(g: &Graph, s: NodeId, t: NodeId, avoid: &[EdgeId]) -> Option<Path> {
    if s == t {
        return Some(Path::trivial(s));
    }
    let parent = bfs_parents_avoiding(g, s, avoid);
    parent[t.index()]?;
    let mut rev_edges = Vec::new();
    let mut cur = t;
    while cur != s {
        // sor-check: allow(unwrap, panic-path) — t's reachability checked above, so every hop has a parent
        let e = parent[cur.index()].expect("walked past the BFS root");
        rev_edges.push(e);
        cur = g.edge(e).other(cur);
    }
    rev_edges.reverse();
    Path::from_edges(g, s, rev_edges)
}

/// Whether the graph is connected. Single-vertex graphs are connected.
pub fn is_connected(g: &Graph) -> bool {
    let d = bfs_dists(g, NodeId(0));
    d.iter().all(|&x| x != UNREACHABLE)
}

/// Hop diameter (max over all pairs of hop distance). Panics if the graph
/// is disconnected. O(n·m) — intended for the small/medium experiment
/// graphs, not giant instances.
pub fn diameter(g: &Graph) -> u32 {
    let mut best = 0;
    for s in g.nodes() {
        let d = bfs_dists(g, s);
        for &x in &d {
            assert!(x != UNREACHABLE, "diameter of a disconnected graph");
            best = best.max(x);
        }
    }
    best
}

/// All-pairs hop distances as a dense row-major matrix (`n × n`).
pub fn all_pairs_hops(g: &Graph) -> Vec<Vec<u32>> {
    g.nodes().map(|s| bfs_dists(g, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path_graph() {
        let g = gen::path_graph(5);
        let d = bfs_dists(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        let d = bfs_dists(&g, NodeId(0));
        assert_eq!(d[2], UNREACHABLE);
        assert!(!is_connected(&g));
    }

    #[test]
    fn bfs_path_is_shortest() {
        let g = gen::cycle_graph(6);
        let p = bfs_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.hops(), 3);
        assert!(p.validate(&g));
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(3));
    }

    #[test]
    fn bfs_path_trivial() {
        let g = gen::cycle_graph(4);
        let p = bfs_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.hops(), 0);
    }

    /// The emergency route as failure handling computed it before
    /// [`bfs_path_avoiding`]: BFS on the survivor graph, its vertex
    /// sequence re-traced onto `g` through the first non-avoided edge
    /// between consecutive vertices.
    fn survivor_bfs_retraced(g: &Graph, s: NodeId, t: NodeId, avoid: &[EdgeId]) -> Option<Path> {
        let p = bfs_path(&g.without_edges(avoid), s, t)?;
        let edges = p
            .nodes()
            .windows(2)
            .map(|w| {
                g.incident(w[0])
                    .iter()
                    .find(|&&(e, nb)| nb == w[1] && !avoid.contains(&e))
                    .map(|&(e, _)| e)
                    .expect("a survivor edge is an edge of g")
            })
            .collect();
        Path::from_edges(g, s, edges)
    }

    #[test]
    fn bfs_path_avoiding_matches_the_survivor_graph_retrace() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (mut disconnected, mut routed) = (0, 0);
        for _ in 0..40 {
            let n = rng.gen_range(4..12);
            let mut g = gen::erdos_renyi_connected(n, 0.4, &mut rng);
            // parallel copies of some edges, so a failure can take one
            // copy and leave the other
            for _ in 0..rng.gen_range(0..4) {
                let e = *g.edge(EdgeId::from_usize(rng.gen_range(0..g.num_edges())));
                g.add_unit_edge(e.u, e.v);
            }
            let mut avoid: Vec<EdgeId> = Vec::new();
            for _ in 0..rng.gen_range(0..=g.num_edges() / 2) {
                let e = EdgeId::from_usize(rng.gen_range(0..g.num_edges()));
                if !avoid.contains(&e) {
                    avoid.push(e);
                }
            }
            for s in g.nodes() {
                for t in g.nodes() {
                    let got = bfs_path_avoiding(&g, s, t, &avoid);
                    assert_eq!(got, survivor_bfs_retraced(&g, s, t, &avoid));
                    match got {
                        Some(p) => {
                            assert!(p.edges().iter().all(|e| !avoid.contains(e)));
                            routed += 1;
                        }
                        None => disconnected += 1,
                    }
                }
            }
        }
        assert!(
            routed > 0 && disconnected > 0,
            "{routed} routed, {disconnected} cut off"
        );
    }

    #[test]
    fn bfs_path_avoiding_takes_the_surviving_parallel_copy() {
        let mut g = Graph::new(3);
        let a = g.add_unit_edge(NodeId(0), NodeId(1));
        let b = g.add_unit_edge(NodeId(0), NodeId(1));
        let c = g.add_unit_edge(NodeId(1), NodeId(2));
        let route = |avoid: &[EdgeId]| {
            let p = bfs_path_avoiding(&g, NodeId(0), NodeId(2), avoid);
            assert_eq!(p, survivor_bfs_retraced(&g, NodeId(0), NodeId(2), avoid));
            p.map(|p| p.edges().to_vec())
        };
        assert_eq!(route(&[]), Some(vec![a, c]));
        assert_eq!(route(&[a]), Some(vec![b, c]));
        assert_eq!(route(&[b]), Some(vec![a, c]));
        // both copies, or the only edge into 2, down: the pair is cut off
        assert_eq!(route(&[a, b]), None);
        assert_eq!(route(&[c]), None);
        assert_eq!(
            bfs_path(&g, NodeId(0), NodeId(2)),
            bfs_path_avoiding(&g, NodeId(0), NodeId(2), &[])
        );
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&gen::cycle_graph(8)), 4);
        assert_eq!(diameter(&gen::cycle_graph(9)), 4);
    }

    #[test]
    fn diameter_of_hypercube() {
        assert_eq!(diameter(&gen::hypercube(4)), 4);
    }

    #[test]
    fn all_pairs_consistent_with_single_source() {
        let g = gen::grid(3, 4);
        let ap = all_pairs_hops(&g);
        for s in g.nodes() {
            assert_eq!(ap[s.index()], bfs_dists(&g, s));
        }
    }
}
