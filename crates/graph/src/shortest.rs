//! Weighted shortest paths (Dijkstra) under arbitrary per-edge lengths.
//!
//! Lengths are supplied externally as a `&[f64]` indexed by [`EdgeId`]; the
//! congestion-aware constructions (Räcke MWU, hop-penalized trees)
//! repeatedly re-run Dijkstra under evolving metrics, so lengths are not
//! stored on the graph. A single-target search can also run as A* on
//! [`Landmarks`] lower bounds ([`DijkstraSearch::settle_toward`]).

use crate::graph::{EdgeId, Graph, NodeId};
use crate::path::Path;
use crate::traversal::{bfs_dists, UNREACHABLE};
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

/// A lower bound on each vertex's distance to a search's goal: the
/// potential an A* search adds to a vertex's distance in its heap key.
trait Potential {
    /// Whether every bound is zero, so that a live heap key is the
    /// vertex's distance itself.
    const ZERO: bool = false;
    /// The bound at `v`, asked the first time a search reaches `v`.
    fn reach(&mut self, v: NodeId) -> f64;
    /// The bound [`Potential::reach`] returned for `v` in this search.
    fn at(&self, v: NodeId) -> f64;
}

/// The potential of a plain Dijkstra search. It is `-0.0`, not `0.0`:
/// `x + -0.0` is `x` for every `x`, so the additions compile away and
/// the keys are the distances' bits.
struct Zero;

impl Potential for Zero {
    const ZERO: bool = true;
    fn reach(&mut self, _: NodeId) -> f64 {
        -0.0
    }
    fn at(&self, _: NodeId) -> f64 {
        -0.0
    }
}

/// [`Landmarks`] bounds toward one target, each computed once per search.
struct Toward<'a> {
    landmarks: &'a Landmarks,
    /// The target's distances from the landmarks.
    goal: &'a [f64],
    /// `bound[v]` is valid once the search has reached `v`.
    bound: &'a mut [f64],
}

impl Potential for Toward<'_> {
    fn reach(&mut self, v: NodeId) -> f64 {
        let h = row_gap(self.landmarks.row(v), self.goal);
        self.bound[v.index()] = h;
        h
    }
    fn at(&self, v: NodeId) -> f64 {
        self.bound[v.index()]
    }
}

/// The distance a vertex must beat to enter a search's heap the first
/// time that search reaches it, and what settling a vertex does to it.
trait Records {
    /// The record at `v`: a relaxation that does not go strictly below it
    /// is skipped.
    fn record(&self, v: NodeId) -> f64;
    /// `v` settled at distance `d`.
    fn settle(&mut self, v: NodeId, d: f64);
}

/// The records of an unpruned search: infinite, so every relaxation
/// that improves on the search's own tentative distance goes ahead.
struct Unpruned;

impl Records for Unpruned {
    fn record(&self, _: NodeId) -> f64 {
        f64::INFINITY
    }
    fn settle(&mut self, _: NodeId, _: f64) {}
}

/// Prefix-minimum records of [`DijkstraSearch::settle_pruned`]: `best[v]`
/// is the lowest distance any earlier search settled `v` at, lowered by
/// each settle, which `report` hears.
struct Best<'a, F> {
    best: &'a mut [f64],
    report: F,
}

impl<F: FnMut(NodeId, f64)> Records for Best<'_, F> {
    fn record(&self, v: NodeId) -> f64 {
        self.best[v.index()]
    }
    fn settle(&mut self, v: NodeId, d: f64) {
        self.best[v.index()] = d;
        (self.report)(v, d);
    }
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
/// settled ([`DijkstraSearch::settle`]); every vertex it settles then
/// carries exactly the distance bits and the parent edge a full
/// [`dijkstra`] run assigns: heap order is total (distance, then vertex
/// id), so the settled prefix of a run does not depend on when the run
/// stops. [`DijkstraSearch::settle_pruned`] skips every vertex it cannot
/// reach below a record array, and [`DijkstraSearch::settle_toward`] runs
/// the same loop as A* toward one target and keeps only the distances
/// exact.
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
    /// The A* potentials of the last [`DijkstraSearch::settle_toward`],
    /// sized by its first call.
    bound: Vec<f64>,
    heap: BinaryHeap<Reverse<u128>>,
    /// Vertices the last search settled.
    settled: usize,
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
            bound: Vec::new(),
            heap: BinaryHeap::with_capacity(n),
            settled: 0,
        }
    }

    /// Search from `src` under per-edge `lengths` until every vertex of
    /// `targets` is settled or known unreachable. Empty `targets` runs
    /// the full search.
    pub fn settle(&mut self, g: &Graph, src: NodeId, lengths: &[f64], targets: &[NodeId]) {
        self.explore(g, src, lengths, targets, Zero, Unpruned);
    }

    /// Search from `src` until `t` is settled or known unreachable, as A*
    /// with `landmarks`' lower bounds as potentials: the heap orders
    /// vertices by distance plus bound. The bounds must be consistent
    /// under `lengths`, which holds when `landmarks` were last refreshed
    /// under lengths no greater than these, edge by edge. Then every vertex
    /// it settles, `t` included, carries its shortest distance (up to
    /// rounding: a bound is a difference of two rounded sums), but a tie
    /// may pick another shortest path than [`DijkstraSearch::settle`] does.
    pub fn settle_toward(
        &mut self,
        g: &Graph,
        src: NodeId,
        t: NodeId,
        lengths: &[f64],
        landmarks: &Landmarks,
    ) {
        let mut bound = std::mem::take(&mut self.bound);
        bound.resize(self.stamp.len(), 0.0);
        let toward = Toward {
            landmarks,
            goal: landmarks.row(t),
            bound: &mut bound,
        };
        self.explore(g, src, lengths, &[t], toward, Unpruned);
        self.bound = bound;
    }

    /// Full search from `src` that settles exactly the vertices it
    /// reaches strictly below their record `best[v]`, through settled
    /// vertices only, lowers each such record to the vertex's distance
    /// and reports `(v, d)` to `report` in settling order. A relaxation
    /// that does not go below `best[v]` is skipped, so a vertex that
    /// cannot beat its record never enters the heap. The vertices, their
    /// distance bits and their order are those of a search that rejects,
    /// as it pops them, the vertices whose final distance does not beat
    /// the record: whatever beats it is pushed at its final distance.
    pub fn settle_pruned(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        best: &mut [f64],
        report: impl FnMut(NodeId, f64),
    ) {
        assert_eq!(best.len(), self.stamp.len(), "record array size mismatch");
        self.explore(g, src, lengths, &[], Zero, Best { best, report });
    }

    /// How many vertices the last search settled.
    pub fn settled(&self) -> usize {
        self.settled
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

    /// The one relaxation loop behind every search in the workspace. A
    /// vertex's heap key is its distance plus its `potential`; with
    /// [`Zero`] the keys and every bit settled are plain Dijkstra's. A
    /// vertex first reached enters the heap only below its `records`
    /// entry; with [`Unpruned`] that is every vertex reached.
    fn explore<P: Potential, B: Records>(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        targets: &[NodeId],
        mut potential: P,
        mut records: B,
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
        let mut settled = 0usize;
        // A source that does not beat its record settles nothing.
        if 0.0 < records.record(src) {
            dist[src.index()] = 0.0;
            parent[src.index()] = None;
            stamp[src.index()] = reached;
            heap.push(heap_key(0.0 + potential.reach(src), src));
        }
        while let Some((key, u)) = heap.pop().map(heap_entry) {
            // A vertex first pops under its final distance's key; later
            // entries for it are stale.
            if stamp[u.index()] == done || key > dist[u.index()] + potential.at(u) {
                continue;
            }
            // A live key is the distance plus the potential. Plain Dijkstra
            // takes the distance from the key, which is already in a
            // register, so the relaxations below need not wait for a load.
            let d = if P::ZERO { key } else { dist[u.index()] };
            // `d` beats `u`'s record: it was pushed below it, and only
            // this settle lowers it.
            stamp[u.index()] = done;
            settled += 1;
            records.settle(u, d);
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
                let (known, h) = if seen == reached {
                    (dist[v.index()], potential.at(v))
                } else {
                    (records.record(v), potential.reach(v))
                };
                if nd < known {
                    stamp[v.index()] = reached;
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(e);
                    heap.push(heap_key(nd + h, v));
                }
            }
        }
        // Unreachable targets keep their flag until here.
        for &t in targets {
            is_target[t.index()] = false;
        }
        self.heap = heap;
        self.settled = settled;
    }
}

/// Landmarks for A* (ALT, Goldberg–Harrelson): a few vertices and, per
/// landmark, its distance to every vertex under some lengths. By the
/// triangle inequality `|d(L, t) − d(L, v)| ≤ d(v, t)` for each landmark
/// `L`, so the largest such difference is a lower bound on `d(v, t)`;
/// it is consistent (`h(u) ≤ ℓ(u, v) + h(v)`), and stays so under any
/// lengths no shorter, edge by edge, than the ones the rows were
/// computed under.
#[derive(Clone, Debug)]
pub struct Landmarks {
    nodes: Vec<NodeId>,
    /// `rows[v * k + i]` is the distance from `nodes[i]` to `v` at the
    /// last refresh (0 before the first), so one vertex's `k` distances
    /// share a cache line.
    rows: Vec<f64>,
}

impl Landmarks {
    /// Up to `k` landmarks chosen farthest first by BFS hops: the vertex
    /// farthest from vertex 0, then repeatedly the vertex farthest from
    /// every landmark chosen so far, ties to the lower id. Only vertices
    /// reachable from vertex 0 are candidates: a landmark in another
    /// component would bound nothing in vertex 0's, so on a disconnected
    /// graph the other components search with a bound of 0. No random
    /// draw, no lengths. The rows stay 0, a valid but empty bound, until
    /// [`Landmarks::refresh`].
    pub fn farthest_first(g: &Graph, k: usize) -> Self {
        let n = g.num_nodes();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(k);
        // a graph has at least one vertex
        let mut near = bfs_dists(g, NodeId(0));
        while nodes.len() < k {
            // the most hops, ties to the lower id
            let Some((far, &hops)) = near
                .iter()
                .enumerate()
                .filter(|&(_, &h)| h != UNREACHABLE)
                .max_by_key(|&(v, &h)| (h, Reverse(v)))
            else {
                break;
            };
            if hops == 0 && !nodes.is_empty() {
                break; // every vertex is a landmark
            }
            let landmark = NodeId::from_usize(far);
            let from = bfs_dists(g, landmark);
            if nodes.is_empty() {
                near = from; // vertex 0 only picks the first landmark
            } else {
                for (m, h) in near.iter_mut().zip(from) {
                    *m = (*m).min(h);
                }
            }
            nodes.push(landmark);
        }
        let rows = vec![0.0; nodes.len() * n];
        Landmarks { nodes, rows }
    }

    /// The landmark vertices, in the order they were chosen.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Recompute every row under `lengths`: one full search per landmark
    /// on `search`. Returns the vertices those searches settled.
    pub fn refresh(&mut self, g: &Graph, lengths: &[f64], search: &mut DijkstraSearch) -> usize {
        let k = self.nodes.len();
        let mut settled = 0;
        for (i, &landmark) in self.nodes.iter().enumerate() {
            search.settle(g, landmark, lengths, &[]);
            settled += search.settled();
            for (v, row) in self.rows.chunks_exact_mut(k).enumerate() {
                row[i] = search.dist(NodeId::from_usize(v));
            }
        }
        settled
    }

    /// `max_i |d(L_i, t) − d(L_i, v)|` over the last refresh's rows, a
    /// lower bound on the distance from `v` to `t`: `f64::INFINITY` when a
    /// landmark reaches one of them and not the other, and a landmark
    /// that reaches neither adds nothing.
    pub fn lower_bound(&self, v: NodeId, t: NodeId) -> f64 {
        row_gap(self.row(v), self.row(t))
    }

    /// `v`'s distances from the landmarks.
    fn row(&self, v: NodeId) -> &[f64] {
        let k = self.nodes.len();
        &self.rows[v.index() * k..][..k]
    }
}

/// The largest `|b − a|` over two vertices' landmark rows `at_v`, `at_t`.
fn row_gap(at_v: &[f64], at_t: &[f64]) -> f64 {
    at_v.iter().zip(at_t).fold(0.0, |best, (&a, &b)| {
        // NaN (both unreachable) never compares greater
        let gap = (b - a).abs();
        if gap > best {
            gap
        } else {
            best
        }
    })
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
    use crate::traversal::{bfs_dists, UNREACHABLE};

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
    fn landmarks_go_farthest_first_with_ties_to_the_lower_id() {
        // On a path the vertex farthest from 0 is the far end, the one
        // farthest from it is 0, and then the middle, ties to the lower id.
        let g = gen::path_graph(7);
        assert_eq!(
            Landmarks::farthest_first(&g, 4).nodes(),
            &[NodeId(6), NodeId(0), NodeId(3), NodeId(1)]
        );
        // Never more landmarks than vertices.
        assert_eq!(
            Landmarks::farthest_first(&gen::path_graph(2), 4)
                .nodes()
                .len(),
            2
        );
        // A vertex unreachable from vertex 0 is never a landmark.
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        assert_eq!(
            Landmarks::farthest_first(&g, 4).nodes(),
            &[NodeId(2), NodeId(0), NodeId(1)]
        );
    }

    #[test]
    fn landmark_search_settles_fewer_vertices_at_the_same_distance() {
        let g = gen::grid(8, 8);
        let len: Vec<f64> = (0..g.num_edges())
            .map(|i| 1.0 + (i % 5) as f64 / 8.0)
            .collect();
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        let mut landmarks = Landmarks::farthest_first(&g, 4);
        assert_eq!(landmarks.refresh(&g, &len, &mut search), 4 * 64);
        let (s, t) = (NodeId(9), NodeId(54));
        search.settle(&g, s, &len, &[t]);
        let (forward, d) = (search.settled(), search.dist(t));
        search.settle_toward(&g, s, t, &len, &landmarks);
        assert!(
            search.settled() < forward,
            "{} vs {forward}",
            search.settled()
        );
        assert!((search.dist(t) - d).abs() <= 1e-12 * d);
        assert_eq!(landmarks.lower_bound(t, t), 0.0);
        assert!(landmarks.lower_bound(s, t) <= d);
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
