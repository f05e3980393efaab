//! Räcke-style oblivious routing: a multiplicative-weights mixture of
//! congestion trees.
//!
//! \[Räc08\] shows that O(log n) random decomposition trees, built
//! iteratively with edge lengths that exponentially penalize the load the
//! previous trees placed on each edge, yield an O(log n)-competitive
//! oblivious routing. [`feedback_trees`] runs that loop on any tree
//! builder:
//!
//! 1. start with zero accumulated load,
//! 2. build a tree under the caller's map of the load: for
//!    [`RaeckeRouting::build`], FRT lengths
//!    `ℓ_e = exp(η · load_e / max_load) / cap_e` with `η = ln(1 + m)`,
//! 3. add the tree's normalized
//!    [`relative_loads`](crate::frt::ClusterTree::relative_loads) to the
//!    accumulator, and repeat;
//! 4. the routing is the uniform mixture of the trees: to route `(s, t)`,
//!    pick a tree at random and follow its physical path.
//!
//! The O(log n) constant of the paper's analysis is not certified by this
//! implementation; experiment E12 *measures* the achieved competitiveness
//! on every experiment topology, which is what the downstream sampling
//! theorems actually consume.

use crate::frt::ClusterTree;
use crate::routing::{merge_draws, DistMemo, ObliviousRouting, PathDist};
use rand::Rng;
use sor_graph::{Graph, NodeId, Path, PathList};
use std::sync::Arc;

/// Räcke's congestion-feedback loop: build `count` trees, the next one
/// by `next(load, max_load)` from the load the earlier trees placed on
/// each edge (each tree's relative loads divided by their max) and its
/// maximum (at least 1).
pub fn feedback_trees(
    g: &Graph,
    count: usize,
    mut next: impl FnMut(&[f64], f64) -> ClusterTree,
) -> Vec<ClusterTree> {
    let mut load = vec![0.0f64; g.num_edges()];
    let mut trees = Vec::with_capacity(count);
    for _ in 0..count {
        let max_load = load.iter().copied().fold(0.0, f64::max).max(1.0);
        let tree = next(&load, max_load);
        let rload = tree.relative_loads(g);
        let rmax = rload.iter().copied().fold(0.0, f64::max).max(1e-300);
        for (acc, r) in load.iter_mut().zip(&rload) {
            *acc += r / rmax;
        }
        trees.push(tree);
    }
    trees
}

/// A mixture of congestion trees with uniform weights.
pub struct RaeckeRouting {
    g: Graph,
    trees: Vec<ClusterTree>,
    memo: DistMemo,
}

impl RaeckeRouting {
    /// Build with `num_trees` FRT trees (≥ `log₂ n` recommended;
    /// experiments use 8–32) and the MWU rate `η = ln(1 + m)`.
    pub fn build<R: Rng + ?Sized>(g: Graph, num_trees: usize, rng: &mut R) -> Self {
        assert!(num_trees >= 1);
        let _span = sor_obs::span("hierarchy/build");
        let eta = (1.0 + g.num_edges() as f64).ln();
        let mut lengths = vec![0.0f64; g.num_edges()];
        let trees = feedback_trees(&g, num_trees, |load, max_load| {
            for ((len, &l), e) in lengths.iter_mut().zip(load).zip(g.edges()) {
                *len = (eta * l / max_load).exp() / e.cap;
            }
            let _tree_span = sor_obs::span("frt/tree");
            sor_obs::counter_add!("oblivious/frt/trees");
            ClusterTree::frt(&g, &lengths, rng)
        });
        Self::mixture(g, trees)
    }

    /// Build with `count` spectral hierarchies: edge weights
    /// `cap_e · exp(−η · load_e / max_load)`, so penalized edges lose
    /// weight.
    pub fn spectral<R: Rng + ?Sized>(g: Graph, count: usize, rng: &mut R) -> Self {
        assert!(count >= 1);
        let eta = (1.0 + g.num_edges() as f64).ln();
        let trees = feedback_trees(&g, count, |load, max_load| {
            let w: Vec<f64> = load
                .iter()
                .zip(g.edges())
                .map(|(&l, e)| e.cap * (-eta * l / max_load).exp())
                .collect();
            ClusterTree::spectral(&g, &w, rng)
        });
        Self::mixture(g, trees)
    }

    fn mixture(g: Graph, trees: Vec<ClusterTree>) -> Self {
        RaeckeRouting {
            g,
            trees,
            memo: DistMemo::default(),
        }
    }

    /// The trees in the mixture.
    pub fn trees(&self) -> &[ClusterTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl ObliviousRouting for RaeckeRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        self.memo.get_or_insert_with(s, t, || {
            let w = 1.0 / self.trees.len() as f64;
            merge_draws(self.trees.iter().map(|tree| tree.route(s, t)), w)
        })
    }

    fn sample_path<R: Rng + ?Sized>(&self, s: NodeId, t: NodeId, rng: &mut R) -> Path {
        assert!(s != t);
        sor_obs::counter_add!("oblivious/route_calls");
        let i = rng.gen_range(0..self.trees.len());
        self.trees[i].route(s, t)
    }

    /// The default's tree draws, but each drawn tree is routed once,
    /// straight into the list: a tree's route is a pure function of
    /// `(s, t)`, so later draws of the same tree reuse its slot.
    fn sample_distinct<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        count: usize,
        rng: &mut R,
    ) -> (PathList, Vec<u32>) {
        assert!(s != t);
        // `slot[i]`: tree `i`'s path as an index into the list, once drawn
        let mut slot: Vec<Option<u32>> = vec![None; self.trees.len()];
        let mut draws = Vec::with_capacity(count);
        let (distinct, ()) = PathList::build_exact(s, |list| {
            for _ in 0..count {
                let i = rng.gen_range(0..self.trees.len());
                let j = *slot[i].get_or_insert_with(|| {
                    sor_obs::counter_add!("oblivious/route_calls");
                    // two trees may route the pair along the same path
                    self.trees[i].route_into(s, t, list)
                });
                draws.push(j);
            }
        });
        (distinct, draws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::oblivious_congestion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_flow::demand::random_permutation;
    use sor_flow::max_concurrent_flow;
    use sor_graph::gen;

    #[test]
    fn distribution_is_probability() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let r = RaeckeRouting::build(g, 6, &mut rng);
        let dist = r.path_distribution(NodeId(0), NodeId(15));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (p, w) in dist.iter() {
            assert!(*w > 0.0);
            assert!(p.validate(r.graph()));
        }
    }

    #[test]
    fn sample_in_support() {
        let g = gen::cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(3);
        let r = RaeckeRouting::build(g, 4, &mut rng);
        let dist = r.path_distribution(NodeId(0), NodeId(4));
        for _ in 0..20 {
            let p = r.sample_path(NodeId(0), NodeId(4), &mut rng);
            assert!(dist.iter().any(|(q, _)| *q == p));
        }
    }

    /// The mixture with the trait's default `sample_distinct`: one
    /// `sample_path` per draw, each new path's edges pushed.
    struct DefaultSampling<'a>(&'a RaeckeRouting);

    impl ObliviousRouting for DefaultSampling<'_> {
        fn graph(&self) -> &Graph {
            self.0.graph()
        }
        fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
            self.0.path_distribution(s, t)
        }
        fn sample_path<R: Rng + ?Sized>(&self, s: NodeId, t: NodeId, rng: &mut R) -> Path {
            self.0.sample_path(s, t, rng)
        }
    }

    #[test]
    fn list_writing_override_matches_the_default() {
        // A grid routes many pairs along the same path in several trees,
        // so the override's dedup runs on routed lists, not only on slots.
        use rand::Rng as _;
        let mut shared_routes = 0;
        for (i, g) in [gen::grid(5, 5), gen::hypercube(5), gen::abilene()]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(20 + i as u64);
            let r = RaeckeRouting::build(g.clone(), 8, &mut rng);
            let n = u32::try_from(g.num_nodes()).unwrap();
            for (s, t) in [(0, n - 1), (n - 1, 0), (1, n / 2), (n / 3, 2)] {
                let (s, t) = (NodeId(s), NodeId(t));
                let routes: Vec<Path> = r.trees().iter().map(|tree| tree.route(s, t)).collect();
                shared_routes += (1..routes.len())
                    .filter(|&i| routes[..i].contains(&routes[i]))
                    .count();
                for count in [1, 2, 7, 11, 40] {
                    let seed = 1000 + u64::from(s.0) * 64 + count as u64;
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let got = r.sample_distinct(s, t, count, &mut a);
                    let want = DefaultSampling(&r).sample_distinct(s, t, count, &mut b);
                    assert_eq!(got, want, "{s}→{t} count {count}");
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG position");
                    assert!(got.0.iter().all(|p| routes.contains(&p.to_path(&g))));
                }
            }
        }
        assert!(shared_routes > 0, "no two trees routed a pair alike");
    }

    #[test]
    fn measured_competitiveness_is_moderate() {
        // The whole point of Räcke: oblivious congestion within a small
        // factor of OPT. On a 4×4 grid with random permutation demands the
        // measured ratio should be far below the ~n ratio a bad routing
        // can hit.
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let r = RaeckeRouting::build(g.clone(), 10, &mut rng);
        let mut worst: f64 = 0.0;
        for seed in 0..3 {
            let mut drng = StdRng::seed_from_u64(100 + seed);
            let demand = random_permutation(&g, &mut drng);
            let c = oblivious_congestion(&r, &demand);
            let opt = max_concurrent_flow(&g, &demand, 0.1);
            worst = worst.max(c / opt.congestion_upper.max(1e-12));
        }
        assert!(worst < 12.0, "Räcke ratio {worst} too large on 4x4 grid");
        assert!(worst >= 1.0 - 0.35, "ratio {worst} suspiciously below 1");
    }

    #[test]
    fn cycle_spreads_load() {
        // On a cycle, a single tree must cut somewhere (ratio Ω(n) for one
        // tree); mixing trees with congestion feedback should spread the
        // cut points and beat the single-tree bound.
        let g = gen::cycle_graph(12);
        let mut rng = StdRng::seed_from_u64(7);
        let single = RaeckeRouting::build(g.clone(), 1, &mut rng);
        let mixed = RaeckeRouting::build(g.clone(), 12, &mut rng);
        let demand = sor_flow::demand::uniform_all_pairs(&g, 1.0);
        let c1 = oblivious_congestion(&single, &demand);
        let cm = oblivious_congestion(&mixed, &demand);
        assert!(
            cm < c1,
            "mixture ({cm}) should beat a single tree ({c1}) on the cycle"
        );
    }

    use sor_graph::NodeId;
}
