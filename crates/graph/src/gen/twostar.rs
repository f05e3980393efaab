//! The two-star lower-bound family of Section 8.
//!
//! `TwoStar(r, m)`: two stars with `m` leaves each, whose centers are also
//! joined through `r` *middle* vertices (each adjacent to both centers).
//! Every simple path between a left leaf and a right leaf crosses exactly
//! one middle vertex, so an `s`-sparse path system commits each leaf pair
//! to at most `s` of the `r` middle vertices — the pigeonhole/Hall argument
//! of Lemma 8.1 then extracts a permutation demand on which the system
//! congests `≈ q/|S|` while OPT stays O(1).

use crate::graph::{Graph, NodeId};

/// The Lemma 8.1 gadget with `r` middle vertices and `m` leaves per star.
///
/// Vertex layout: `0` = left center, `1` = right center, `2..2+r` = middle
/// vertices, then `m` left leaves, then `m` right leaves.
#[derive(Clone, Debug)]
pub struct TwoStar {
    r: usize,
    m: usize,
    graph: Graph,
}

impl TwoStar {
    /// Build the gadget. `r ≥ 1` middle vertices, `m ≥ 1` leaves per side.
    pub fn new(r: usize, m: usize) -> Self {
        assert!(r >= 1 && m >= 1);
        let mut g = Graph::new(2 + r + 2 * m);
        let c1 = NodeId(0);
        let c2 = NodeId(1);
        for i in 0..r {
            let mid = NodeId::from_usize(2 + i);
            g.add_unit_edge(c1, mid);
            g.add_unit_edge(mid, c2);
        }
        for i in 0..m {
            g.add_unit_edge(c1, NodeId::from_usize(2 + r + i));
            g.add_unit_edge(c2, NodeId::from_usize(2 + r + m + i));
        }
        TwoStar { r, m, graph: g }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consume and return the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Number of middle vertices.
    pub fn num_middles(&self) -> usize {
        self.r
    }

    /// Number of leaves on each side.
    pub fn num_leaves(&self) -> usize {
        self.m
    }

    /// Left star center.
    pub fn center1(&self) -> NodeId {
        NodeId(0)
    }

    /// Right star center.
    pub fn center2(&self) -> NodeId {
        NodeId(1)
    }

    /// The `i`-th middle vertex (`i < r`).
    pub fn middle(&self, i: usize) -> NodeId {
        assert!(i < self.r);
        NodeId::from_usize(2 + i)
    }

    /// The `i`-th left leaf (`i < m`).
    pub fn left_leaf(&self, i: usize) -> NodeId {
        assert!(i < self.m);
        NodeId::from_usize(2 + self.r + i)
    }

    /// The `i`-th right leaf (`i < m`).
    pub fn right_leaf(&self, i: usize) -> NodeId {
        assert!(i < self.m);
        NodeId::from_usize(2 + self.r + self.m + i)
    }

    /// Whether `v` is a middle vertex.
    pub fn is_middle(&self, v: NodeId) -> bool {
        (2..2 + self.r).contains(&v.index())
    }
}

/// Convenience: just the graph of [`TwoStar::new`].
pub fn two_star(r: usize, m: usize) -> Graph {
    TwoStar::new(r, m).into_graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_dists, is_connected};

    #[test]
    fn two_star_shape() {
        let ts = TwoStar::new(3, 5);
        let g = ts.graph();
        assert_eq!(g.num_nodes(), 2 + 3 + 10);
        assert_eq!(g.num_edges(), 2 * 3 + 2 * 5);
        assert!(is_connected(g));
        assert_eq!(g.degree(ts.center1()), 3 + 5);
        assert_eq!(g.degree(ts.middle(0)), 2);
        assert_eq!(g.degree(ts.left_leaf(4)), 1);
    }

    #[test]
    fn leaf_to_leaf_distance() {
        let ts = TwoStar::new(2, 3);
        let d = bfs_dists(ts.graph(), ts.left_leaf(0));
        // leaf -> c1 -> mid -> c2 -> right leaf = 4 hops
        assert_eq!(d[ts.right_leaf(0).index()], 4);
        assert_eq!(d[ts.left_leaf(1).index()], 2);
    }
}
