//! Leaf–spine Clos topologies (two-level fat trees).
//!
//! Data-center fabrics are a second practical setting the semi-oblivious
//! approach targets (the paper's VLSI/TE motivation); a Clos fabric has
//! many equal-cost paths, so the sparsity/competitiveness trade-off is
//! visible at small `s`.

use crate::graph::{Graph, NodeId};

/// A leaf–spine Clos fabric: `leaves` leaf switches each connected to all
/// `spines` spine switches with capacity `cap` links.
///
/// Vertex layout: spines `0..spines`, leaves `spines..spines+leaves`.
/// Demands in experiments run leaf-to-leaf; every leaf pair has exactly
/// `spines` two-hop paths (one per spine).
pub fn clos(spines: usize, leaves: usize, cap: f64) -> Graph {
    assert!(spines >= 1 && leaves >= 2);
    let mut g = Graph::new(spines + leaves);
    for l in 0..leaves {
        for s in 0..spines {
            g.add_edge(NodeId::from_usize(spines + l), NodeId::from_usize(s), cap);
        }
    }
    g
}

/// NodeId of leaf `i` in a [`clos`] graph built with `spines` spines.
pub fn clos_leaf(spines: usize, i: usize) -> NodeId {
    NodeId::from_usize(spines + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_dists, is_connected};

    #[test]
    fn shape() {
        let g = clos(4, 8, 1.0);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 32);
        assert!(is_connected(&g));
        for s in 0..4 {
            assert_eq!(g.degree(NodeId::from_usize(s)), 8);
        }
        for l in 0..8 {
            assert_eq!(g.degree(clos_leaf(4, l)), 4);
        }
    }

    #[test]
    fn leaf_to_leaf_is_two_hops() {
        let g = clos(3, 5, 1.0);
        let d = bfs_dists(&g, clos_leaf(3, 0));
        for l in 1..5 {
            assert_eq!(d[clos_leaf(3, l).index()], 2);
        }
    }
}
