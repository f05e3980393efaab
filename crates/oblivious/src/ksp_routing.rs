//! Uniform k-shortest-paths routing — the non-oblivious-theory baseline.
//!
//! SMORE's evaluation compares Räcke sampling against "KSP": the k
//! shortest paths under inverse-capacity lengths, used with equal weight.
//! It has no worst-case guarantee (all k paths can share a bottleneck) and
//! experiment E10 shows where it loses to Räcke sampling.

use crate::routing::{DistMemo, ObliviousRouting, PathDist};
use sor_graph::{yen_ksp, Graph, NodeId};
use std::sync::Arc;

/// Uniform distribution over the `k` shortest `s`-`t` paths under a fixed
/// length metric. Distributions are computed lazily (Yen's algorithm is
/// expensive) and memoized; hits hand out the shared `Arc`.
pub struct KspRouting {
    g: Graph,
    k: usize,
    lengths: Vec<f64>,
    memo: DistMemo,
}

impl KspRouting {
    /// `k` shortest paths under unit lengths.
    pub fn new(g: Graph, k: usize) -> Self {
        let lengths = g.unit_lengths();
        Self::with_lengths(g, k, lengths)
    }

    /// `k` shortest paths under inverse-capacity lengths (what TE systems
    /// typically use).
    pub fn inv_cap(g: Graph, k: usize) -> Self {
        let lengths = g.inv_cap_lengths();
        Self::with_lengths(g, k, lengths)
    }

    /// `k` shortest paths under an arbitrary length metric.
    pub fn with_lengths(g: Graph, k: usize, lengths: Vec<f64>) -> Self {
        assert!(k >= 1);
        assert_eq!(lengths.len(), g.num_edges());
        KspRouting {
            g,
            k,
            lengths,
            memo: DistMemo::default(),
        }
    }

    /// The configured number of paths.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ObliviousRouting for KspRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        self.memo.get_or_insert_with(s, t, || {
            let paths = yen_ksp(&self.g, s, t, self.k, &self.lengths);
            assert!(!paths.is_empty(), "pair {s}→{t} disconnected");
            let w = 1.0 / paths.len() as f64;
            paths.into_iter().map(|p| (p, w)).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::oblivious_congestion;
    use sor_flow::Demand;
    use sor_graph::gen;

    #[test]
    fn uniform_weights() {
        let r = KspRouting::new(gen::cycle_graph(6), 2);
        let dist = r.path_distribution(NodeId(0), NodeId(3));
        assert_eq!(dist.len(), 2);
        for (_, w) in dist.iter() {
            assert!((w - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_is_stable() {
        let r = KspRouting::new(gen::grid(3, 3), 3);
        let a = r.path_distribution(NodeId(0), NodeId(8));
        let b = r.path_distribution(NodeId(0), NodeId(8));
        assert_eq!(a.len(), b.len());
        for ((p1, w1), (p2, w2)) in a.iter().zip(b.iter()) {
            assert_eq!(p1, p2);
            assert_eq!(w1, w2);
        }
    }

    #[test]
    fn fewer_paths_than_k_ok() {
        let r = KspRouting::new(gen::path_graph(4), 5);
        let dist = r.path_distribution(NodeId(0), NodeId(3));
        assert_eq!(dist.len(), 1);
        assert!((dist[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spreads_load_on_cycle() {
        let r = KspRouting::new(gen::cycle_graph(4), 2);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        assert!((oblivious_congestion(&r, &d) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inv_cap_prefers_fat_paths() {
        // 0-1 cap 10 direct; 0-2-1 caps 1: inv-cap shortest is the fat edge.
        let mut g = sor_graph::Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(1), 1.0);
        let r = KspRouting::inv_cap(g, 1);
        let dist = r.path_distribution(NodeId(0), NodeId(1));
        assert_eq!(dist[0].0.hops(), 1);
    }

    use sor_graph::NodeId;
}
