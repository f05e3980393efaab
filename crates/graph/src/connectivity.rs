//! Structural connectivity: bridges, articulation points, and failure-set
//! admissibility.
//!
//! Used by the failure experiments: a failed bridge disconnects demand —
//! the TE harness avoids such failure sets, and these routines certify
//! why.

use crate::graph::{EdgeId, Graph, NodeId};

/// Shared lowlink DFS (iterative). Calls `on_tree_edge_done(parent,
/// child, parent_edge)` when a DFS subtree closes, after lowlinks are
/// final — enough to classify both bridges and articulation points.
struct Lowlink {
    disc: Vec<u32>,
    low: Vec<u32>,
    timer: u32,
}

impl Lowlink {
    fn run(
        g: &Graph,
        mut on_edge_done: impl FnMut(&Lowlink, NodeId, NodeId, EdgeId),
        mut on_root: impl FnMut(NodeId, usize),
    ) -> Self {
        let n = g.num_nodes();
        let mut ll = Lowlink {
            disc: vec![u32::MAX; n],
            low: vec![u32::MAX; n],
            timer: 0,
        };
        // Per-node incident cursor (each node is expanded once).
        let mut cursor = vec![0usize; n];
        for root in g.nodes() {
            if ll.disc[root.index()] != u32::MAX {
                continue;
            }
            let mut root_children = 0usize;
            ll.disc[root.index()] = ll.timer;
            ll.low[root.index()] = ll.timer;
            ll.timer += 1;
            let mut stack: Vec<(NodeId, Option<EdgeId>)> = vec![(root, None)];
            while let Some(&(u, pe)) = stack.last() {
                if cursor[u.index()] < g.degree(u) {
                    let (e, v) = g.incident(u)[cursor[u.index()]];
                    cursor[u.index()] += 1;
                    if Some(e) == pe {
                        // skip the tree edge itself; a parallel copy has a
                        // different EdgeId and correctly counts as a back
                        // edge below
                        continue;
                    }
                    if ll.disc[v.index()] == u32::MAX {
                        ll.disc[v.index()] = ll.timer;
                        ll.low[v.index()] = ll.timer;
                        ll.timer += 1;
                        if u == root {
                            root_children += 1;
                        }
                        stack.push((v, Some(e)));
                    } else {
                        ll.low[u.index()] = ll.low[u.index()].min(ll.disc[v.index()]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        ll.low[p.index()] = ll.low[p.index()].min(ll.low[u.index()]);
                        // sor-check: allow(unwrap) — invariant stated in the expect message
                        on_edge_done(&ll, p, u, pe.expect("non-root has a parent edge"));
                    }
                }
            }
            on_root(root, root_children);
        }
        ll
    }
}

/// All bridge edges (edges whose removal disconnects their component),
/// sorted by id.
pub fn bridges(g: &Graph) -> Vec<EdgeId> {
    let mut out = Vec::new();
    Lowlink::run(
        g,
        |ll, p, u, pe| {
            if ll.low[u.index()] > ll.disc[p.index()] {
                out.push(pe);
            }
        },
        |_, _| {},
    );
    out.sort();
    out
}

/// All articulation points (vertices whose removal disconnects their
/// component), sorted by id.
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    let mut is_art = vec![false; g.num_nodes()];
    {
        let is_art_cell = std::cell::RefCell::new(&mut is_art);
        Lowlink::run(
            g,
            |ll, p, u, _| {
                // p cuts if some child subtree can't climb above it. This
                // also fires (vacuously) for roots; the root rule below
                // overwrites with the correct child-count criterion.
                if ll.low[u.index()] >= ll.disc[p.index()] {
                    is_art_cell.borrow_mut()[p.index()] = true;
                }
            },
            |root, children| {
                // overwrite the root's classification with the child-count rule
                is_art_cell.borrow_mut()[root.index()] = children >= 2;
            },
        );
    }
    g.nodes().filter(|v| is_art[v.index()]).collect()
}

/// Whether removing `removed` keeps the graph connected — the failure-set
/// admissibility check used by the TE harness, answered without building
/// the reduced graph.
pub fn connected_without(g: &Graph, removed: &[EdgeId]) -> bool {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut count = 1usize;
    while let Some(u) = stack.pop() {
        for &(e, v) in g.incident(u) {
            if !seen[v.index()] && !removed.contains(&e) {
                seen[v.index()] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_graph_is_all_bridges() {
        let g = gen::path_graph(5);
        assert_eq!(bridges(&g).len(), 4);
        let arts = articulation_points(&g);
        assert_eq!(arts, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = gen::cycle_graph(6);
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn parallel_edges_are_not_bridges() {
        let mut g = Graph::new(2);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(0), NodeId(1));
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn single_edge_is_bridge() {
        let mut g = Graph::new(2);
        let e = g.add_unit_edge(NodeId(0), NodeId(1));
        assert_eq!(bridges(&g), vec![e]);
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn star_center_is_articulation() {
        let g = gen::star(4);
        assert_eq!(articulation_points(&g), vec![NodeId(0)]);
        assert_eq!(bridges(&g).len(), 4);
    }

    #[test]
    fn edge_gluing_two_gadgets_is_a_bridge() {
        // Two two-star gadgets joined by one edge between their left
        // centers: that edge is the only way across.
        let gadget = gen::two_star(2, 3);
        let n = gadget.num_nodes();
        let mut g = Graph::new(2 * n);
        for off in [0, n] {
            for e in gadget.edges() {
                g.add_edge(
                    NodeId::from_usize(off + e.u.index()),
                    NodeId::from_usize(off + e.v.index()),
                    e.cap,
                );
            }
        }
        let glue = g.add_unit_edge(NodeId(0), NodeId::from_usize(n));
        assert!(bridges(&g).contains(&glue));
    }

    #[test]
    fn dumbbell_single_bridge_detected() {
        let g = gen::dumbbell(4, 1);
        let bs = bridges(&g);
        assert_eq!(bs.len(), 1);
        let arts = articulation_points(&g);
        assert_eq!(arts.len(), 2); // both bridge endpoints
    }

    #[test]
    fn grid_has_no_cut_structure() {
        let g = gen::grid(3, 3);
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn connected_without_matches_rebuild() {
        let g = gen::cycle_graph(5);
        assert!(connected_without(&g, &[EdgeId(0)]));
        assert!(!connected_without(&g, &[EdgeId(0), EdgeId(2)]));
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a == b {
                    continue;
                }
                let rm = [EdgeId(a), EdgeId(b)];
                let direct = connected_without(&g, &rm);
                let rebuilt = crate::traversal::is_connected(&g.without_edges(&rm));
                assert_eq!(direct, rebuilt);
            }
        }
    }

    /// Cross-validate bridges against brute force on several generators.
    #[test]
    fn bridges_match_brute_force() {
        for g in [
            gen::path_graph(6),
            gen::cycle_graph(6),
            gen::dumbbell(3, 1),
            gen::star(5),
            gen::grid(2, 4),
            gen::two_star(2, 3),
        ] {
            let fast: Vec<EdgeId> = bridges(&g);
            let brute: Vec<EdgeId> = g
                .edge_ids()
                .filter(|&e| !connected_without(&g, &[e]))
                .collect();
            assert_eq!(fast, brute, "mismatch on a generator graph");
        }
    }

    use crate::graph::{Graph, NodeId};
}
