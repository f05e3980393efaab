//! Weighted shortest paths (Dijkstra) under arbitrary per-edge lengths.
//!
//! Lengths are supplied externally as a `&[f64]` indexed by [`EdgeId`]; the
//! congestion-aware constructions (Räcke MWU, hop-penalized trees)
//! repeatedly re-run Dijkstra under evolving metrics, so lengths are not
//! stored on the graph.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap key of a (distance, vertex) entry, ordered by distance, then
/// vertex id: the distance's bits above the vertex id. Non-negative
/// `f64`s order like their bit patterns, and no distance is ever `-0.0`
/// (the source starts at `+0.0` and lengths are non-negative), so one
/// integer comparison orders entries exactly as comparing the distances
/// and then the ids would.
fn heap_key(dist: f64, node: NodeId) -> Reverse<u128> {
    Reverse((u128::from(dist.to_bits()) << 32) | u128::from(node.0))
}

/// The (distance, vertex) entry a [`heap_key`] packs.
fn heap_entry(Reverse(key): Reverse<u128>) -> (f64, NodeId) {
    // the low 32 bits are the vertex id, the next 64 the distance's bits
    #[allow(clippy::cast_possible_truncation)]
    (f64::from_bits((key >> 32) as u64), NodeId(key as u32))
}

/// The result of a single-source Dijkstra run: distances and parent edges.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    /// Source of the run.
    pub source: NodeId,
    /// `dist[v]` = length of the shortest `source`-`v` path
    /// (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` = edge through which `v` is reached on some shortest
    /// path (None for the source and unreachable vertices).
    pub parent: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// Extract the tree path from the source to `t`, or `None` if `t` is
    /// unreachable.
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Path> {
        tree_path(g, self.source, &self.parent, t)
    }
}

/// The path from `source` to `t` along `parent` edges, or `None` if the
/// chain breaks before reaching `source`.
fn tree_path(g: &Graph, source: NodeId, parent: &[Option<EdgeId>], t: NodeId) -> Option<Path> {
    if t == source {
        return Some(Path::trivial(t));
    }
    // Count the hops first so the edge list is allocated once, at size.
    let mut hops = 0;
    let mut cur = t;
    while cur != source {
        let e = parent[cur.index()]?;
        hops += 1;
        cur = g.edge(e).other(cur);
    }
    let mut rev = Vec::with_capacity(hops);
    cur = t;
    for _ in 0..hops {
        let e = parent[cur.index()]?;
        rev.push(e);
        cur = g.edge(e).other(cur);
    }
    rev.reverse();
    Path::from_edges(g, source, rev)
}

/// A reusable Dijkstra workspace.
///
/// One set of distance, parent and heap buffers serves any number of
/// searches on graphs with the same vertex count. Each search stamps the
/// vertices it reaches, so starting the next one resets nothing: an older
/// stamp reads as unreached. A search can stop as soon as a target set is
/// settled ([`DijkstraSearch::settle`]) or prune vertices through a
/// predicate ([`DijkstraSearch::settle_pruned`]). Either way every vertex
/// it settles carries exactly the distance bits and the parent edge a full
/// [`dijkstra`] run assigns: heap order is total (distance, then vertex
/// id), so the settled prefix of a run does not depend on when the run
/// stops.
#[derive(Debug)]
pub struct DijkstraSearch {
    source: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<EdgeId>>,
    /// `stamp[v]` is `epoch - 1` once the current search reaches `v`
    /// (`dist` and `parent` are then valid) and `epoch` once it settles
    /// `v`; anything lower means unreached. `epoch` starts at 1, so a
    /// fresh workspace has settled nothing.
    stamp: Vec<u32>,
    epoch: u32,
    is_target: Vec<bool>,
    heap: BinaryHeap<Reverse<u128>>,
}

impl DijkstraSearch {
    /// A workspace for graphs on `n` vertices.
    pub fn with_nodes(n: usize) -> Self {
        DijkstraSearch {
            source: NodeId(0),
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            stamp: vec![0; n],
            epoch: 1,
            // sized by the first search that has targets
            is_target: Vec::new(),
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Search from `src` under per-edge `lengths` until every vertex of
    /// `targets` is settled or known unreachable. Empty `targets` runs
    /// the full search.
    pub fn settle(&mut self, g: &Graph, src: NodeId, lengths: &[f64], targets: &[NodeId]) {
        self.explore(g, src, lengths, targets, |_, _| true);
    }

    /// Full search from `src` that settles a vertex only if
    /// `admit(v, d)` accepts its final distance `d`. A rejected vertex is
    /// neither settled nor expanded. `admit` sees each vertex at most
    /// once, in settling order.
    pub fn settle_pruned(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        admit: impl FnMut(NodeId, f64) -> bool,
    ) {
        self.explore(g, src, lengths, &[], admit);
    }

    /// Distance from the last search's source to `v`, or `f64::INFINITY`
    /// if that search did not settle `v`.
    pub fn dist(&self, v: NodeId) -> f64 {
        if self.stamp[v.index()] == self.epoch {
            self.dist[v.index()]
        } else {
            f64::INFINITY
        }
    }

    /// Shortest path from the last search's source to `t`, or `None` if
    /// that search did not settle `t`.
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Path> {
        if self.stamp[t.index()] != self.epoch {
            return None;
        }
        tree_path(g, self.source, &self.parent, t)
    }

    /// Write the edges of the shortest path from the last search's source
    /// to `t` into `edges`, source first, reusing its buffer. Returns
    /// `false` and leaves `edges` empty if that search did not settle `t`.
    /// Unlike [`DijkstraSearch::path_to`] this builds no [`Path`], so it
    /// neither allocates nor checks that the edges form a simple path.
    pub fn edges_to(&self, g: &Graph, t: NodeId, edges: &mut Vec<EdgeId>) -> bool {
        edges.clear();
        if self.stamp[t.index()] != self.epoch {
            return false;
        }
        let mut cur = t;
        while cur != self.source {
            let Some(e) = self.parent[cur.index()] else {
                edges.clear();
                return false;
            };
            edges.push(e);
            cur = g.edge(e).other(cur);
        }
        edges.reverse();
        true
    }

    /// The one relaxation loop behind every search in the workspace.
    fn explore(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        targets: &[NodeId],
        mut admit: impl FnMut(NodeId, f64) -> bool,
    ) {
        assert_eq!(lengths.len(), g.num_edges(), "length vector size mismatch");
        debug_assert!(
            lengths.iter().all(|&l| l >= 0.0 && !l.is_nan()),
            "negative or NaN edge length"
        );
        self.epoch = match self.epoch.checked_add(2) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                3
            }
        };
        let (reached, done) = (self.epoch - 1, self.epoch);
        self.source = src;
        if !targets.is_empty() {
            self.is_target.resize(self.stamp.len(), false);
        }
        // Slices and a local heap rather than `self.` fields inside the
        // loop, so heap pushes cannot force buffer pointers and the heap's
        // length to be reloaded from memory.
        let (dist, parent, stamp) = (
            &mut self.dist[..],
            &mut self.parent[..],
            &mut self.stamp[..],
        );
        let is_target = &mut self.is_target[..];
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        let mut pending = 0usize;
        for &t in targets {
            if !is_target[t.index()] {
                is_target[t.index()] = true;
                pending += 1;
            }
        }
        dist[src.index()] = 0.0;
        parent[src.index()] = None;
        stamp[src.index()] = reached;
        heap.push(heap_key(0.0, src));
        while let Some((d, u)) = heap.pop().map(heap_entry) {
            // A vertex first pops at its final distance; later entries
            // for it are stale.
            if stamp[u.index()] == done || d > dist[u.index()] || !admit(u, d) {
                continue;
            }
            stamp[u.index()] = done;
            if pending > 0 && is_target[u.index()] {
                is_target[u.index()] = false;
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            for &(e, v) in g.incident(u) {
                let seen = stamp[v.index()];
                if seen == done {
                    continue;
                }
                let nd = d + lengths[e.index()];
                let known = if seen == reached {
                    dist[v.index()]
                } else {
                    f64::INFINITY
                };
                if nd < known {
                    stamp[v.index()] = reached;
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(e);
                    heap.push(heap_key(nd, v));
                }
            }
        }
        // Unreachable targets keep their flag until here.
        for &t in targets {
            is_target[t.index()] = false;
        }
        self.heap = heap;
    }
}

/// Dijkstra from `src` under per-edge `lengths` (must be nonnegative and
/// indexed by `EdgeId`).
pub fn dijkstra(g: &Graph, src: NodeId, lengths: &[f64]) -> ShortestPathTree {
    let mut search = DijkstraSearch::with_nodes(g.num_nodes());
    search.settle(g, src, lengths, &[]);
    ShortestPathTree {
        source: src,
        dist: search.dist,
        parent: search.parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal::bfs_dists;

    #[test]
    fn matches_bfs_on_unit_lengths() {
        let g = gen::grid(4, 4);
        let len = g.unit_lengths();
        for s in g.nodes() {
            let t = dijkstra(&g, s, &len);
            let b = bfs_dists(&g, s);
            for v in g.nodes() {
                assert!((t.dist[v.index()] - b[v.index()] as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefers_light_detour() {
        // 0-1 direct cost 10; 0-2-1 costs 1+1.
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1)); // e0 len 10
        g.add_unit_edge(NodeId(0), NodeId(2)); // e1 len 1
        g.add_unit_edge(NodeId(2), NodeId(1)); // e2 len 1
        let p = dijkstra(&g, NodeId(0), &[10.0, 1.0, 1.0])
            .path_to(&g, NodeId(1))
            .unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.nodes()[1], NodeId(2));
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut g = Graph::new(2);
        let _heavy = g.add_unit_edge(NodeId(0), NodeId(1));
        let light = g.add_unit_edge(NodeId(0), NodeId(1));
        let p = dijkstra(&g, NodeId(0), &[5.0, 1.0])
            .path_to(&g, NodeId(1))
            .unwrap();
        assert_eq!(p.edges(), &[light]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        assert!(dijkstra(&g, NodeId(0), &g.unit_lengths())
            .path_to(&g, NodeId(2))
            .is_none());
    }

    #[test]
    fn infinite_lengths_carry_no_path() {
        // Yen's spur searches ban edges by giving them infinite length.
        let g = gen::path_graph(3);
        let t = dijkstra(&g, NodeId(0), &[1.0, f64::INFINITY]);
        assert_eq!(t.dist[2], f64::INFINITY);
        assert!(t.path_to(&g, NodeId(2)).is_none());
    }

    #[test]
    fn stamp_wraparound_forgets_older_searches() {
        let g = gen::grid(3, 3);
        let len = g.unit_lengths();
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        search.settle(&g, NodeId(0), &len, &[]);
        // The next search exhausts the stamp range and starts over.
        search.epoch = u32::MAX - 1;
        search.settle(&g, NodeId(8), &len, &[NodeId(7)]);
        let full = dijkstra(&g, NodeId(8), &len);
        assert_eq!(search.dist(NodeId(7)), full.dist[7]);
        assert_eq!(
            search.dist(NodeId(0)),
            f64::INFINITY,
            "not settled by the stopped search"
        );
        assert!(search.path_to(&g, NodeId(0)).is_none());
    }

    #[test]
    fn edges_to_matches_path_to() {
        let g = gen::grid(4, 5);
        let len: Vec<f64> = (0..g.num_edges()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        let mut edges = vec![EdgeId(99)];
        for s in [NodeId(0), NodeId(13)] {
            search.settle(&g, s, &len, &[]);
            for t in g.nodes() {
                assert!(search.edges_to(&g, t, &mut edges));
                assert_eq!(edges, search.path_to(&g, t).unwrap().edges());
            }
        }
        // A search stopped at its target has not settled the far corner.
        search.settle(&g, NodeId(0), &len, &[NodeId(1)]);
        assert!(!search.edges_to(&g, NodeId(19), &mut edges));
        assert!(edges.is_empty());
    }

    #[test]
    fn path_to_source_is_trivial() {
        let g = gen::cycle_graph(5);
        let t = dijkstra(&g, NodeId(3), &g.unit_lengths());
        assert_eq!(t.path_to(&g, NodeId(3)).unwrap().hops(), 0);
    }

    #[test]
    fn zero_length_edges_ok() {
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        let t = dijkstra(&g, NodeId(0), &[0.0, 0.0]);
        assert_eq!(t.dist[2], 0.0);
        assert!(t.path_to(&g, NodeId(2)).unwrap().validate(&g));
    }
}
