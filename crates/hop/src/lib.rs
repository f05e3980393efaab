//! # sor-hop
//!
//! Hop-constrained oblivious routing — the substrate Section 7 consumes as
//! a black box (\[GHZ21\], Theorem 7.1: for every hop bound `h` there is an
//! oblivious routing whose paths have `h·polylog` hops while its congestion
//! is within polylog of the best `h`-hop-bounded routing).
//!
//! ## Substitution note (documented in DESIGN.md)
//!
//! The genuine \[GHZ21\] construction (hop-constrained expander
//! decompositions) is a large standalone project. This crate implements a
//! simulation with the same *interface guarantees* the paper uses:
//!
//! * **hard hop stretch** — every path in the `(s, t)` distribution has at
//!   most `STRETCH · max(h, hopdist(s, t))` hops ([`STRETCH`] = 4),
//!   enforced by construction;
//! * **congestion spreading** — candidate paths come from a Räcke-style
//!   mixture of FRT trees built on the *hop metric* with multiplicative
//!   congestion feedback, so load spreads like the congestion-only
//!   routing; tree routes that violate the hop cap fall back to a
//!   congestion-penalized near-hop-shortest path (which always satisfies
//!   the cap).
//!
//! The congestion approximation is *measured* (experiment E6), not proven.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sor_graph::{gen, NodeId};
//! use sor_hop::{dist_dilation, HopRouting};
//! use sor_oblivious::routing::ObliviousRouting;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let r = HopRouting::build(gen::grid(4, 4), 2, 4, &mut rng);
//! let dist = r.path_distribution(NodeId(0), NodeId(15));
//! // hard guarantee: dilation ≤ STRETCH · max(h, hopdist)
//! assert!(dist_dilation(&dist) <= r.hop_cap(NodeId(0), NodeId(15)));
//! ```

#![forbid(unsafe_code)]

use rand::Rng;
use sor_graph::traversal::all_pairs_hops;
use sor_graph::{dijkstra, Graph, NodeId, Path};
use sor_oblivious::raecke::feedback_trees;
use sor_oblivious::routing::{merge_draws, DistMemo, ObliviousRouting, PathDist};
use sor_oblivious::ClusterTree;
use std::sync::Arc;

/// The hop-stretch factor: every path a [`HopRouting`] returns has at
/// most `STRETCH · max(h, hopdist(s, t))` hops.
pub const STRETCH: usize = 4;

/// Maximum hop length over the support of a path distribution.
pub fn dist_dilation(dist: &PathDist) -> usize {
    dist.iter().map(|(p, _)| p.hops()).max().unwrap_or(0)
}

/// A hop-constrained oblivious routing with hard hop-stretch guarantee.
pub struct HopRouting {
    g: Graph,
    trees: Vec<ClusterTree>,
    /// Fallback near-hop-shortest lengths (hop metric + bounded congestion
    /// penalty), fixed at construction.
    fallback_lengths: Vec<f64>,
    /// Target hop bound `h`.
    h: usize,
    hop_dists: Vec<Vec<u32>>,
    memo: DistMemo,
}

impl HopRouting {
    /// Build a hop-constrained routing for hop bound `h` from `num_trees`
    /// trees.
    pub fn build<R: Rng + ?Sized>(g: Graph, h: usize, num_trees: usize, rng: &mut R) -> Self {
        assert!(h >= 1 && num_trees >= 1);
        let hop_dists = all_pairs_hops(&g);
        // Räcke loop on the hop metric: lengths stay within [1, 1.5] per
        // edge so every shortest path is within 1.5× of hop-shortest,
        // while the penalty still steers trees away from loaded edges.
        const MU: f64 = 0.5;
        // the last tree's lengths become the fallback's
        let mut lengths = Vec::new();
        let trees = feedback_trees(&g, num_trees, |load, max_load| {
            lengths = load.iter().map(|&l| 1.0 + MU * l / max_load).collect();
            ClusterTree::frt(&g, &lengths, rng)
        });
        HopRouting {
            g,
            trees,
            fallback_lengths: lengths,
            h,
            hop_dists,
            memo: DistMemo::default(),
        }
    }

    /// The routing's target hop bound.
    pub fn hop_bound(&self) -> usize {
        self.h
    }

    /// The hard per-pair hop cap: `STRETCH · max(h, hopdist(s, t))`.
    pub fn hop_cap(&self, s: NodeId, t: NodeId) -> usize {
        let hd = self.hop_dists[s.index()][t.index()] as usize;
        STRETCH * self.h.max(hd)
    }

    /// Near-hop-shortest fallback path (lengths within [1, 1.5] per hop,
    /// so hops ≤ 1.5 · hopdist ≤ cap).
    fn fallback(&self, s: NodeId, t: NodeId) -> Path {
        dijkstra(&self.g, s, &self.fallback_lengths)
            .path_to(&self.g, t)
            // sor-check: allow(unwrap) — invariant stated in the expect message
            .expect("connected graph")
    }
}

impl ObliviousRouting for HopRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        self.memo.get_or_insert_with(s, t, || {
            let cap = self.hop_cap(s, t);
            let routes = self.trees.iter().map(|tree| {
                let p = tree.route(s, t);
                if p.hops() <= cap {
                    p
                } else {
                    self.fallback(s, t)
                }
            });
            merge_draws(routes, 1.0 / self.trees.len() as f64)
        })
    }
}

/// A family of hop-constrained routings at geometric hop scales
/// `h = 1, 2, 4, ..., >= diam` — the object Theorem 7.1 provides for every
/// `h` at once, with its hop-stretch constant *measured*.
pub struct HopFamily {
    scales: Vec<HopRouting>,
}

impl HopFamily {
    /// Build routings for every geometric hop scale of `g`.
    pub fn build<R: Rng + ?Sized>(g: &Graph, num_trees: usize, rng: &mut R) -> Self {
        let diam = sor_graph::diameter(g) as usize;
        let mut scales = Vec::new();
        let mut h = 1usize;
        loop {
            scales.push(HopRouting::build(g.clone(), h, num_trees, rng));
            if h >= diam {
                break;
            }
            h *= 2;
        }
        HopFamily { scales }
    }

    /// The routings, increasing in hop bound.
    pub fn scales(&self) -> &[HopRouting] {
        &self.scales
    }

    /// The routing for the smallest scale with hop bound >= `h` (the last
    /// scale when `h` exceeds the diameter).
    pub fn at_least(&self, h: usize) -> &HopRouting {
        self.scales
            .iter()
            .find(|r| r.hop_bound() >= h)
            // sor-check: allow(unwrap) — invariant stated in the expect message
            .unwrap_or_else(|| self.scales.last().expect("nonempty"))
    }

    /// Measured hop stretch of scale `idx` over the given pairs:
    /// `max dilation(s,t) / max(h, hopdist(s,t))` — the paper's hop-stretch
    /// beta; by construction at most [`STRETCH`].
    pub fn measured_stretch(&self, idx: usize, pairs: &[(NodeId, NodeId)]) -> f64 {
        let r = &self.scales[idx];
        let mut worst: f64 = 0.0;
        for &(s, t) in pairs {
            let dist = r.path_distribution(s, t);
            let dil = dist_dilation(&dist) as f64;
            let denom = r.hop_cap(s, t) as f64 / STRETCH as f64;
            worst = worst.max(dil / denom.max(1.0));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_flow::Demand;
    use sor_graph::gen;
    use sor_oblivious::routing::oblivious_congestion;

    #[test]
    fn family_covers_scales_and_stretch_bounded() {
        let g = gen::grid(4, 4); // diameter 6
        let mut rng = StdRng::seed_from_u64(9);
        let fam = HopFamily::build(&g, 3, &mut rng);
        // h = 1, 2, 4, 8
        assert_eq!(fam.scales().len(), 4);
        assert_eq!(fam.at_least(3).hop_bound(), 4);
        assert_eq!(fam.at_least(100).hop_bound(), 8);
        let pairs: Vec<(NodeId, NodeId)> = vec![
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(0), NodeId(1)),
        ];
        for idx in 0..fam.scales().len() {
            let stretch = fam.measured_stretch(idx, &pairs);
            assert!(
                stretch <= STRETCH as f64 + 1e-9,
                "stretch {stretch} exceeds STRETCH"
            );
        }
    }

    #[test]
    fn hop_cap_enforced_everywhere() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let r = HopRouting::build(g, 2, 6, &mut rng);
        for s in r.graph().nodes() {
            for t in r.graph().nodes() {
                if s == t {
                    continue;
                }
                let cap = r.hop_cap(s, t);
                let dist = r.path_distribution(s, t);
                assert!(
                    dist_dilation(&dist) <= cap,
                    "pair {s}→{t}: dilation {} > cap {cap}",
                    dist_dilation(&dist)
                );
            }
        }
    }

    #[test]
    fn fallback_is_near_shortest() {
        let g = gen::cycle_graph(10);
        let mut rng = StdRng::seed_from_u64(2);
        let r = HopRouting::build(g, 1, 3, &mut rng);
        let p = r.fallback(NodeId(0), NodeId(3));
        assert!(p.hops() <= 4); // 1.5 × 3 rounded down by integrality
    }

    #[test]
    fn distribution_valid() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(3);
        let r = HopRouting::build(g, 4, 5, &mut rng);
        let dist = r.path_distribution(NodeId(0), NodeId(15));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (p, _) in dist.iter() {
            assert!(p.validate(r.graph()));
        }
    }

    #[test]
    fn spreads_congestion_somewhat() {
        // On a clos fabric, leaf-to-leaf demands have many 2-hop routes;
        // the hop routing should use more than one of them.
        let g = gen::clos(4, 6, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let r = HopRouting::build(g.clone(), 2, 8, &mut rng);
        let mut demand = Demand::new();
        for i in 0..6usize {
            for j in 0..6usize {
                if i != j {
                    demand.add(
                        gen::fattree::clos_leaf(4, i),
                        gen::fattree::clos_leaf(4, j),
                        0.25,
                    );
                }
            }
        }
        let c = oblivious_congestion(&r, &demand);
        // Perfect spreading over 4 spines would give ≈ 0.94; the point is
        // only that we beat the single-spine catastrophe (≈ 3.75).
        assert!(c < 3.0, "hop routing congestion {c} did not spread");
    }

    use sor_graph::NodeId;
}
