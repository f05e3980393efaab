//! Simple paths: the atomic object every routing in the workspace is made of.

use crate::graph::{EdgeId, Graph, NodeId};
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;

/// A walk through the graph stored as both its vertex sequence and its edge
/// sequence (the edge sequence disambiguates parallel edges).
///
/// Invariants (checked on construction):
/// * `nodes.len() == edges.len() + 1`,
/// * `edges[i]` connects `nodes[i]` and `nodes[i + 1]` in the graph it was
///   built against,
/// * the path is *simple*: no vertex repeats. The paper only ever routes on
///   simple paths (Definition 2.1), so we enforce this globally.
///
/// A zero-hop path (a single vertex) is permitted; it is what a demand from
/// a vertex to itself would route on, and several reductions in the paper
/// implicitly use it.
///
/// Paths order by vertex sequence, then edge sequence.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// The trivial path sitting at `v`.
    pub fn trivial(v: NodeId) -> Self {
        Path {
            nodes: vec![v],
            edges: Vec::new(),
        }
    }

    /// Build a path from an edge sequence starting at `source`, validating
    /// simplicity and adjacency against `g`.
    ///
    /// Returns `None` if the sequence is not a simple `source`-led walk.
    pub fn from_edges(g: &Graph, source: NodeId, edges: Vec<EdgeId>) -> Option<Self> {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(source);
        let mut seen: HashSet<NodeId> = HashSet::with_capacity(edges.len() + 1);
        seen.insert(source);
        let mut cur = source;
        for &e in &edges {
            let rec = g.edge(e);
            if rec.u != cur && rec.v != cur {
                return None;
            }
            cur = rec.other(cur);
            if !seen.insert(cur) {
                return None;
            }
            nodes.push(cur);
        }
        Some(Path { nodes, edges })
    }

    /// Build a path from a vertex sequence, choosing for each consecutive
    /// pair the first edge between them (fine for graphs without parallel
    /// edges; with parallel edges use [`Path::from_edges`] to be precise).
    pub fn from_nodes(g: &Graph, nodes: &[NodeId]) -> Option<Self> {
        if nodes.is_empty() {
            return None;
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let e = g
                .incident(w[0])
                .iter()
                .find(|&&(_, nb)| nb == w[1])
                .map(|&(e, _)| e)?;
            edges.push(e);
        }
        Path::from_edges(g, nodes[0], edges)
    }

    /// First vertex.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last vertex.
    #[inline]
    pub fn target(&self) -> NodeId {
        // `nodes` is nonempty by construction: every constructor rejects
        // the empty sequence, so this index mirrors `source()`.
        self.nodes[self.nodes.len() - 1]
    }

    /// Number of edges (the paper's `hop(P)`; dilation is the max over a
    /// routing's support).
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The vertex sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether edge `e` lies on this path.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// The same path traversed in the opposite direction.
    pub fn reversed(&self) -> Path {
        Path {
            nodes: self.nodes.iter().rev().copied().collect(),
            edges: self.edges.iter().rev().copied().collect(),
        }
    }

    /// Validate this path against a graph: adjacency, simplicity, length
    /// bookkeeping. Used by tests and debug assertions downstream.
    pub fn validate(&self, g: &Graph) -> bool {
        if self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        let mut seen = HashSet::with_capacity(self.nodes.len());
        for &v in &self.nodes {
            if v.index() >= g.num_nodes() || !seen.insert(v) {
                return false;
            }
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if e.index() >= g.num_edges() {
                return false;
            }
            let rec = g.edge(e);
            let (a, b) = (self.nodes[i], self.nodes[i + 1]);
            if !((rec.u == a && rec.v == b) || (rec.u == b && rec.v == a)) {
                return false;
            }
        }
        true
    }

    /// Total length of the path under per-edge lengths `len`.
    pub fn length(&self, len: &[f64]) -> f64 {
        self.edges.iter().map(|e| len[e.index()]).sum()
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// A walk whose loops are erased as it grows (chronological loop
/// erasure), built one `(edge, next vertex)` step at a time.
///
/// The walk always holds the loop-erased form of everything fed so far:
/// a step onto a vertex already on it cuts the walk back to that vertex.
/// Erasure is online — after any prefix the state *is* the loop-erased
/// prefix, a simple path — so erasing a concatenation once gives exactly
/// the path that erasing each join of its pieces in turn would give.
///
/// `pos[v]` is `v`'s index on the walk, trusted only when it points back
/// at `v`. A revisit is thus found in O(1) per step and nothing is reset
/// between walks, the way stamps serve [`crate::DijkstraSearch`]. The
/// array grows to the largest vertex id fed, so one walk can be reused
/// for any number of walks on any graph.
#[derive(Debug, Default)]
pub struct LoopErasedWalk {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    pos: Vec<usize>,
}

impl LoopErasedWalk {
    /// Start a new walk at `source`, forgetting the previous one.
    pub fn start(&mut self, source: NodeId) {
        self.nodes.clear();
        self.edges.clear();
        self.visit(source);
        self.pos[source.index()] = 0;
        self.nodes.push(source);
    }

    /// Walk along `e` to `v`. The caller guarantees that `e` joins the
    /// current head to `v`.
    pub fn step(&mut self, e: EdgeId, v: NodeId) {
        let p = self.visit(v);
        if p < self.nodes.len() && self.nodes[p] == v {
            // v is already on the walk: erase the loop since its visit.
            self.nodes.truncate(p + 1);
            self.edges.truncate(p);
        } else {
            self.pos[v.index()] = self.nodes.len();
            self.nodes.push(v);
            self.edges.push(e);
        }
    }

    /// Walk along all of `path`, which must start at the head.
    pub fn follow(&mut self, path: &Path) {
        assert_eq!(path.source(), self.head(), "path must start at the head");
        for (&e, &v) in path.edges.iter().zip(&path.nodes[1..]) {
            self.step(e, v);
        }
    }

    /// Walk along `path` backwards; it must end at the head.
    pub fn follow_reversed(&mut self, path: &Path) {
        assert_eq!(path.target(), self.head(), "path must end at the head");
        for (&e, &v) in path.edges.iter().rev().zip(path.nodes.iter().rev().skip(1)) {
            self.step(e, v);
        }
    }

    /// The vertex the walk has reached. Panics before [`Self::start`].
    pub fn head(&self) -> NodeId {
        self.nodes[self.nodes.len() - 1]
    }

    /// Edges of the loop-erased walk so far, in walk order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The loop-erased walk as a path, allocated at its exact length.
    pub fn to_path(&self) -> Path {
        assert!(!self.nodes.is_empty(), "walk was never started");
        Path {
            nodes: self.nodes.to_vec(),
            edges: self.edges.to_vec(),
        }
    }

    /// `v`'s recorded position, growing the array to cover `v`.
    fn visit(&mut self, v: NodeId) -> usize {
        if v.index() >= self.pos.len() {
            self.pos.resize(v.index() + 1, usize::MAX);
        }
        self.pos[v.index()]
    }
}

/// The candidate paths of one source as one flat edge list: every path's
/// edges back to back in one vector, plus the offset where each path
/// ends. A list owns two allocations however many paths it holds, where
/// as many [`Path`]s would own two each.
///
/// Only edges are stored; a path's vertices come from the graph on
/// demand ([`PathRef::nodes`], [`PathRef::to_path`]). Every path starts
/// at the list's source, so two paths are the same [`Path`] exactly when
/// their edge slices are equal, parallel edges included: that is how
/// [`PathList::index_or_push`] deduplicates.
///
/// Lists compare by source and then path by path, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathList {
    source: NodeId,
    edges: Vec<EdgeId>,
    /// Path `i` is `edges[ends[i - 1]..ends[i]]`, the first from 0.
    ends: Vec<u32>,
}

thread_local! {
    /// The buffer [`PathList::build_exact`] fills before copying out.
    static LIST_BUFFER: Cell<PathList> = const { Cell::new(PathList::new(NodeId(0))) };
}

impl PathList {
    /// An empty list of paths from `source`.
    pub const fn new(source: NodeId) -> Self {
        PathList {
            source,
            edges: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// The list of `paths`, in order and with any repeats kept. Panics if
    /// a path does not start at `source`.
    pub fn from_paths<'p>(source: NodeId, paths: impl IntoIterator<Item = &'p Path>) -> Self {
        let mut list = PathList::new(source);
        for p in paths {
            assert_eq!(p.source(), source, "path source mismatch");
            list.push(p.edges());
        }
        list
    }

    /// Fill a list from `source` with `fill` in a buffer this thread
    /// reuses, and return a copy allocated at its exact size together
    /// with what `fill` returned. Growing the list in place would keep
    /// up to half of each vector as slack.
    pub fn build_exact<T>(source: NodeId, fill: impl FnOnce(&mut PathList) -> T) -> (Self, T) {
        LIST_BUFFER.with(|cell| {
            let mut buffer = cell.replace(PathList::new(source));
            buffer.source = source;
            buffer.edges.clear();
            buffer.ends.clear();
            let out = fill(&mut buffer);
            // `Vec::clone` allocates exactly `len` elements
            let list = buffer.clone();
            cell.set(buffer);
            (list, out)
        })
    }

    /// Number of paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the list holds no path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Path `i`. Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> PathRef<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        PathRef {
            source: self.source,
            edges: &self.edges[start..self.ends[i] as usize],
        }
    }

    /// The paths in order.
    pub fn iter(&self) -> PathIter<'_> {
        PathIter {
            source: self.source,
            edges: &self.edges,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Every path's edges, back to back in path order.
    pub fn all_edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Append the path with edge sequence `edges`, even if the list holds
    /// it already. The caller guarantees it is a simple path from the
    /// list's source.
    pub fn push(&mut self, edges: &[EdgeId]) {
        self.edges.extend_from_slice(edges);
        let end = u32::try_from(self.edges.len())
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            .expect("a path list holds fewer than 2^32 edges");
        self.ends.push(end);
    }

    /// The index of the first path with edge sequence `edges`, if any.
    pub fn position(&self, edges: &[EdgeId]) -> Option<usize> {
        self.iter().position(|p| p.edges == edges)
    }

    /// The index of the path with edge sequence `edges`, appending it
    /// first if the list does not hold it.
    // a list's paths are far fewer than u32::MAX
    #[allow(clippy::cast_possible_truncation)]
    pub fn index_or_push(&mut self, edges: &[EdgeId]) -> u32 {
        let i = self.position(edges).unwrap_or_else(|| {
            self.push(edges);
            self.len() - 1
        });
        i as u32
    }
}

impl<'a> IntoIterator for &'a PathList {
    type Item = PathRef<'a>;
    type IntoIter = PathIter<'a>;

    fn into_iter(self) -> PathIter<'a> {
        self.iter()
    }
}

/// The paths of a [`PathList`], in order.
#[derive(Clone, Debug)]
pub struct PathIter<'a> {
    source: NodeId,
    edges: &'a [EdgeId],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for PathIter<'a> {
    type Item = PathRef<'a>;

    fn next(&mut self) -> Option<PathRef<'a>> {
        let end = *self.ends.next()? as usize;
        let edges = &self.edges[self.start..end];
        self.start = end;
        Some(PathRef {
            source: self.source,
            edges,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for PathIter<'_> {}

/// One path of a [`PathList`], borrowed: its source and its edges.
///
/// Two views are equal when their sources and edge sequences are, which
/// is when their paths are equal as [`Path`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathRef<'a> {
    source: NodeId,
    edges: &'a [EdgeId],
}

impl<'a> PathRef<'a> {
    /// First vertex.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &'a [EdgeId] {
        self.edges
    }

    /// Number of edges.
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// Whether edge `e` lies on this path.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// The vertex sequence, read off `g` from the source on.
    pub fn nodes<'g>(&self, g: &'g Graph) -> impl Iterator<Item = NodeId> + 'g
    where
        'a: 'g,
    {
        let tail = self.edges.iter().scan(self.source, move |cur, &e| {
            *cur = g.edge(e).other(*cur);
            Some(*cur)
        });
        std::iter::once(self.source).chain(tail)
    }

    /// Last vertex, read off `g`.
    pub fn target(&self, g: &Graph) -> NodeId {
        self.nodes(g).last().unwrap_or(self.source)
    }

    /// The path as an owned [`Path`] of `g`, or `None` when the edges are
    /// not a simple walk of `g` from the source (an out-of-range source or
    /// edge id included).
    pub fn checked_path(&self, g: &Graph) -> Option<Path> {
        if self.source.index() >= g.num_nodes()
            || self.edges.iter().any(|e| e.index() >= g.num_edges())
        {
            return None;
        }
        Path::from_edges(g, self.source, self.edges.to_vec())
    }

    /// The path as an owned [`Path`] of `g`. Panics if it is not one.
    pub fn to_path(&self, g: &Graph) -> Path {
        self.checked_path(g)
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            .expect("a path list holds simple paths of its graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_unit_edge(NodeId::from_usize(i), NodeId::from_usize(i + 1));
        }
        g
    }

    #[test]
    fn from_edges_valid() {
        let g = path_graph(4);
        let p = Path::from_edges(&g, NodeId(0), vec![EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(3));
        assert_eq!(p.hops(), 3);
        assert!(p.validate(&g));
    }

    #[test]
    fn from_edges_rejects_disconnected() {
        let g = path_graph(4);
        assert!(Path::from_edges(&g, NodeId(0), vec![EdgeId(1)]).is_none());
    }

    #[test]
    fn from_edges_rejects_revisit() {
        let g = path_graph(3);
        // 0-1 then back 1-0 revisits 0
        assert!(Path::from_edges(&g, NodeId(0), vec![EdgeId(0), EdgeId(0)]).is_none());
    }

    #[test]
    fn from_nodes_roundtrip() {
        let g = path_graph(5);
        let p = Path::from_nodes(&g, &[NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        assert_eq!(p.edges(), &[EdgeId(1), EdgeId(2)]);
        assert_eq!(p.reversed().source(), NodeId(3));
        assert!(p.reversed().validate(&g));
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(7));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.target());
    }

    #[test]
    fn loop_erased_walks() {
        // (graph edges, walk as (edge index taken, vertex reached) steps
        // whose first entry is the start with an unused edge, erased
        // vertex ids, erased edge indices)
        type Case = (
            &'static [(u32, u32)],
            &'static [(usize, u32)],
            &'static [u32],
            &'static [u32],
        );
        let cases: [Case; 7] = [
            // A triangle walked back to its source erases to the source.
            (
                &[(0, 1), (1, 2), (2, 0)],
                &[(0, 0), (0, 1), (1, 2), (2, 0)],
                &[0],
                &[],
            ),
            // A simple walk is kept whole.
            (
                &[(0, 1), (1, 2), (2, 3), (3, 4)],
                &[(0, 0), (0, 1), (1, 2), (2, 3), (3, 4)],
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 3],
            ),
            // 0-1-2-3 then 3-2-4 shortcuts to 0-1-2-4.
            (
                &[(0, 1), (1, 2), (2, 3), (2, 4)],
                &[(0, 0), (0, 1), (1, 2), (2, 3), (2, 2), (3, 4)],
                &[0, 1, 2, 4],
                &[0, 1, 3],
            ),
            // Back at the source mid-walk, then onwards.
            (
                &[(0, 1), (1, 2), (2, 0), (0, 3)],
                &[(0, 0), (0, 1), (1, 2), (2, 0), (3, 3)],
                &[0, 3],
                &[3],
            ),
            // Vertex 1 revisited twice.
            (
                &[(0, 1), (1, 2), (1, 3), (1, 4)],
                &[(0, 0), (0, 1), (1, 2), (1, 1), (2, 3), (2, 1), (3, 4)],
                &[0, 1, 4],
                &[0, 3],
            ),
            // Parallel edges: the edge of the last crossing is kept.
            (
                &[(0, 1), (0, 1)],
                &[(0, 0), (0, 1), (1, 0), (1, 1)],
                &[0, 1],
                &[1],
            ),
            // A simple walk over vertices the walks above left at other
            // positions: stale entries must not read as revisits.
            (
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                &[(0, 5), (4, 4), (3, 3), (2, 2), (1, 1), (0, 0)],
                &[5, 4, 3, 2, 1, 0],
                &[4, 3, 2, 1, 0],
            ),
        ];
        // One walk serves every case, so nothing may leak between walks.
        let mut walk = LoopErasedWalk::default();
        for (edges, steps, want_nodes, want_edges) in cases {
            let n = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap() as usize + 1;
            let mut g = Graph::new(n);
            for &(u, v) in edges {
                g.add_unit_edge(NodeId(u), NodeId(v));
            }
            let nodes: Vec<NodeId> = steps.iter().map(|&(_, v)| NodeId(v)).collect();
            let walked: Vec<EdgeId> = steps[1..]
                .iter()
                .map(|&(e, _)| EdgeId::from_usize(e))
                .collect();
            walk.start(nodes[0]);
            for (&e, &v) in walked.iter().zip(&nodes[1..]) {
                walk.step(e, v);
            }
            let path = walk.to_path();
            let want_nodes: Vec<NodeId> = want_nodes.iter().map(|&v| NodeId(v)).collect();
            let want_edges: Vec<EdgeId> = want_edges.iter().map(|&e| EdgeId(e)).collect();
            assert_eq!(path.nodes(), &want_nodes[..]);
            assert_eq!(path.edges(), &want_edges[..]);
            assert!(path.validate(&g));
            assert_eq!(path.nodes().len(), path.nodes.capacity(), "exact-size path");
        }
    }

    #[test]
    fn follow_matches_stepwise_and_reversed() {
        // 0-1-2-3, then the path 4-2-3 walked backwards from 3.
        let mut g = Graph::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (2, 4)] {
            g.add_unit_edge(NodeId(u), NodeId(v));
        }
        let a = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let b = Path::from_nodes(&g, &[NodeId(4), NodeId(2), NodeId(3)]).unwrap();
        let mut walk = LoopErasedWalk::default();
        walk.start(NodeId(0));
        walk.follow(&a);
        walk.follow_reversed(&b);
        assert_eq!(walk.head(), NodeId(4));
        assert_eq!(
            walk.to_path().nodes(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(4)]
        );
        walk.start(NodeId(3));
        walk.follow(&b.reversed());
        assert_eq!(walk.to_path(), b.reversed());
    }

    #[test]
    #[should_panic(expected = "path must start at the head")]
    fn follow_rejects_a_gap() {
        let g = path_graph(3);
        let p = Path::from_nodes(&g, &[NodeId(1), NodeId(2)]).unwrap();
        let mut walk = LoopErasedWalk::default();
        walk.start(NodeId(0));
        walk.follow(&p);
    }

    /// A multigraph: 0-1 twice (edges 0 and 1), then 1-2 (edge 2), 2-3
    /// (edge 3) and 1-3 (edge 4).
    fn doubled_edge_graph() -> Graph {
        let mut g = Graph::new(4);
        for (u, v) in [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3)] {
            g.add_unit_edge(NodeId(u), NodeId(v));
        }
        g
    }

    fn edge_ids(ids: &[u32]) -> Vec<EdgeId> {
        ids.iter().map(|&e| EdgeId(e)).collect()
    }

    #[test]
    fn lists_deduplicate_by_edges_on_a_multigraph() {
        let g = doubled_edge_graph();
        let mut list = PathList::new(NodeId(0));
        // 0-1-3 over either parallel edge: equal vertices, distinct edges
        let a = edge_ids(&[0, 4]);
        let b = edge_ids(&[1, 4]);
        let c = edge_ids(&[0, 2, 3]);
        assert_eq!(list.index_or_push(&a), 0);
        assert_eq!(list.index_or_push(&b), 1);
        assert_eq!(list.index_or_push(&a), 0);
        assert_eq!(list.index_or_push(&c), 2);
        assert_eq!(list.index_or_push(&b), 1);
        assert_eq!(list.index_or_push(&c), 2);
        assert_eq!(list.len(), 3);
        assert_eq!(list.all_edges(), &edge_ids(&[0, 4, 1, 4, 0, 2, 3])[..]);
        let (pa, pb) = (list.get(0).to_path(&g), list.get(1).to_path(&g));
        assert_eq!(pa.nodes(), pb.nodes());
        assert_ne!(pa, pb);
        assert_ne!(list.get(0), list.get(1));
        assert_eq!(list.position(&c), Some(2));
        assert_eq!(list.position(&edge_ids(&[0, 2])), None);
        // `push` appends a repeat as its own path
        list.push(&a);
        assert_eq!(list.len(), 4);
        assert_eq!(list.get(3), list.get(0));
    }

    #[test]
    fn trivial_paths_in_lists() {
        let g = doubled_edge_graph();
        let mut list = PathList::new(NodeId(2));
        assert_eq!(list.index_or_push(&[]), 0);
        assert_eq!(list.index_or_push(&edge_ids(&[3])), 1);
        assert_eq!(list.index_or_push(&[]), 0);
        list.push(&[]);
        let hops: Vec<usize> = list.iter().map(|p| p.hops()).collect();
        assert_eq!(hops, [0, 1, 0]);
        let trivial = list.get(2);
        assert_eq!(trivial.to_path(&g), Path::trivial(NodeId(2)));
        assert_eq!(trivial.nodes(&g).collect::<Vec<_>>(), [NodeId(2)]);
        assert_eq!(trivial.target(&g), NodeId(2));
        assert_eq!(list.get(1).target(&g), NodeId(3));
    }

    #[test]
    fn list_paths_round_trip_through_to_path() {
        let g = doubled_edge_graph();
        let paths: Vec<Path> = [&[0, 4][..], &[1, 2, 3], &[1, 4], &[0, 2]]
            .iter()
            .map(|ids| Path::from_edges(&g, NodeId(0), edge_ids(ids)).unwrap())
            .collect();
        let list = PathList::from_paths(NodeId(0), &paths);
        assert_eq!(list.len(), paths.len());
        assert_eq!(list.iter().len(), paths.len());
        for (i, (p, want)) in list.iter().zip(&paths).enumerate() {
            assert_eq!(p, list.get(i));
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.edges(), want.edges());
            assert_eq!(p.hops(), want.hops());
            assert_eq!(p.nodes(&g).collect::<Vec<_>>(), want.nodes());
            assert_eq!(p.target(&g), want.target());
            assert_eq!(p.to_path(&g), *want);
            assert_eq!(p.checked_path(&g).as_ref(), Some(want));
            assert!(p.contains_edge(want.edges()[0]));
        }
        // not a walk of the graph, and an edge id out of range
        let mut bad = PathList::new(NodeId(0));
        bad.push(&edge_ids(&[2]));
        bad.push(&edge_ids(&[0, 9]));
        assert_eq!(bad.get(0).checked_path(&g), None);
        assert_eq!(bad.get(1).checked_path(&g), None);
        // a trivial path at a vertex the graph does not have
        let mut outside = PathList::new(NodeId::from_usize(g.num_nodes()));
        outside.push(&[]);
        assert_eq!(outside.get(0).checked_path(&g), None);
    }

    #[test]
    fn built_lists_are_allocated_at_their_exact_size() {
        let g = doubled_edge_graph();
        let mut lists = Vec::new();
        for round in 0..3u32 {
            // the buffer keeps the capacity of the round before
            let (list, count) = PathList::build_exact(NodeId(0), |list| {
                for ids in [&[0, 4][..], &[1, 2, 3], &[1, 4], &[0, 2, 3]]
                    .iter()
                    .skip(round as usize)
                {
                    list.index_or_push(&edge_ids(ids));
                }
                list.len()
            });
            assert_eq!(list.len(), count);
            lists.push(list);
        }
        assert_eq!(lists[1].get(0).to_path(&g).nodes().len(), 4);
        for list in &lists {
            assert_eq!(list.edges.capacity(), list.edges.len(), "edges");
            assert_eq!(list.ends.capacity(), list.ends.len(), "ends");
        }
    }

    #[test]
    fn length_under_metric() {
        let g = path_graph(3);
        let p = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert!((p.length(&[2.0, 3.0]) - 5.0).abs() < 1e-12);
    }
}
