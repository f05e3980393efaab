//! The undirected multigraph type and its identifiers.

use std::fmt;

/// Index of a vertex in a [`Graph`]. Stored as `u32` to keep adjacency
/// structures compact (the perf guides for this domain recommend narrow
/// indices over `usize` in hot containers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Index of an (undirected) edge in a [`Graph`]. Parallel edges get
/// distinct `EdgeId`s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The vertex index as a `usize`, for container indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The checked typed constructor from a container index: the sanctioned
    /// way to build ids from `usize` arithmetic (a bare `idx as u32` fails
    /// clippy's `cast_possible_truncation`, which the workspace denies).
    #[inline]
    pub fn from_usize(idx: usize) -> NodeId {
        // sor-check: allow(unwrap, panic-path) — checked-constructor contract: overflow past u32 ids is unrecoverable
        NodeId(idx.try_into().expect("node index exceeds u32 range"))
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for container indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The checked typed constructor from a container index; see
    /// [`NodeId::from_usize`].
    #[inline]
    pub fn from_usize(idx: usize) -> EdgeId {
        // sor-check: allow(unwrap, panic-path) — checked-constructor contract: overflow past u32 ids is unrecoverable
        EdgeId(idx.try_into().expect("edge index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One undirected edge record: endpoints and capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRec {
    /// First endpoint (no orientation is implied).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Capacity; `1.0` corresponds to one unit edge in the paper's
    /// parallel-edge model. Must be positive.
    pub cap: f64,
}

impl EdgeRec {
    /// The endpoint of this edge that is not `x`.
    ///
    /// Panics in debug builds if `x` is not an endpoint. For self-loops
    /// (disallowed by [`Graph::add_edge`]) this would be ambiguous.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        debug_assert!(x == self.u || x == self.v, "node {x} not on edge");
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }
}

/// An undirected multigraph with positive edge capacities.
///
/// Vertices are `0..n`. Edges are appended in insertion order and never
/// removed; algorithms that need edge deletion (e.g. the dynamic deletion
/// process of Section 5.3) carry their own alive-masks instead, which keeps
/// `EdgeId`s stable across the whole workspace.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    edges: Vec<EdgeRec>,
    /// adjacency: for each vertex, the incident `(edge, other endpoint)`
    /// pairs in insertion order.
    adj: Vec<Vec<(EdgeId, NodeId)>>,
}

impl Graph {
    /// An empty graph on `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "graph must have at least one vertex");
        let max_n = u32::MAX as usize;
        assert!(n < max_n, "vertex count exceeds u32 index space");
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted separately).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::from_usize)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_usize)
    }

    /// All edge records, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[EdgeRec] {
        &self.edges
    }

    /// The record of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRec {
        &self.edges[e.index()]
    }

    /// Capacity of edge `e`. Always positive and finite:
    /// [`Graph::add_edge`] rejects anything else.
    #[inline]
    pub fn cap(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].cap
    }

    /// Add an undirected edge `{u, v}` with capacity `cap`; returns its id.
    ///
    /// Self-loops are rejected (they can never appear on a simple path) and
    /// capacities must be positive and finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cap: f64) -> EdgeId {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "endpoint out of range"
        );
        assert!(u != v, "self-loops are not allowed");
        assert!(
            cap.is_finite() && cap > 0.0,
            "capacity must be positive and finite"
        );
        let id = EdgeId::from_usize(self.edges.len());
        self.edges.push(EdgeRec { u, v, cap });
        self.adj[u.index()].push((id, v));
        self.adj[v.index()].push((id, u));
        id
    }

    /// Add a unit-capacity edge (one parallel edge in the paper's model).
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        self.add_edge(u, v, 1.0)
    }

    /// Incident `(edge, neighbor)` pairs of `u`. Parallel edges show up
    /// once per copy.
    #[inline]
    pub fn incident(&self, u: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adj[u.index()]
    }

    /// Degree of `u`, counting parallel edges separately.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Sum of capacities of edges incident to `u` (the "capacitated degree").
    pub fn cap_degree(&self, u: NodeId) -> f64 {
        self.adj[u.index()].iter().map(|&(e, _)| self.cap(e)).sum()
    }

    /// Total capacity over all edges.
    pub fn total_cap(&self) -> f64 {
        self.edges.iter().map(|e| e.cap).sum()
    }

    /// Uniform edge lengths (all `1.0`), the default metric for shortest
    /// paths when nothing else is specified.
    pub fn unit_lengths(&self) -> Vec<f64> {
        vec![1.0; self.edges.len()]
    }

    /// Lengths `1/cap(e)`, the standard "inverse capacity" metric used when
    /// seeding congestion-aware constructions.
    pub fn inv_cap_lengths(&self) -> Vec<f64> {
        self.edges.iter().map(|e| 1.0 / e.cap).collect()
    }

    /// A copy of the graph with the given edges removed (failure
    /// modeling). Edge ids are re-assigned in the copy — do not mix
    /// `EdgeId`s across the two graphs.
    pub fn without_edges(&self, remove: &[EdgeId]) -> Graph {
        let mut g = Graph::new(self.n);
        for (i, e) in self.edges.iter().enumerate() {
            if !remove.contains(&EdgeId::from_usize(i)) {
                g.add_edge(e.u, e.v, e.cap);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_triangle() {
        let mut g = Graph::new(3);
        let e0 = g.add_unit_edge(NodeId(0), NodeId(1));
        let e1 = g.add_unit_edge(NodeId(1), NodeId(2));
        let e2 = g.add_edge(NodeId(2), NodeId(0), 2.5);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.cap(e0), 1.0);
        assert_eq!(g.cap(e2), 2.5);
        assert_eq!(g.edge(e1).other(NodeId(1)), NodeId(2));
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!((g.total_cap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new(2);
        let a = g.add_unit_edge(NodeId(0), NodeId(1));
        let b = g.add_unit_edge(NodeId(0), NodeId(1));
        assert_ne!(a, b);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_unit_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    fn cap_degree_sums_incident_capacities() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        assert!((g.cap_degree(NodeId(0)) - 5.0).abs() < 1e-12);
        assert!((g.cap_degree(NodeId(1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inv_cap_lengths() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 4.0);
        assert_eq!(g.inv_cap_lengths(), vec![0.25]);
        assert_eq!(g.unit_lengths(), vec![1.0]);
    }
}
