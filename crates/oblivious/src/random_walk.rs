//! Loop-erased random-walk routing — an ablation sampling distribution.
//!
//! Experiment E10 compares sampling candidate paths from a *good* oblivious
//! routing (Räcke/Valiant) against naïve alternatives; loop-erased random
//! walks are the "maximally diverse but quality-blind" end of that
//! spectrum.

use crate::routing::{merge_draws, DistMemo, ObliviousRouting, PathDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_graph::{Graph, LoopErasedWalk, NodeId, Path};
use std::sync::Arc;

/// Routing whose `(s, t)` distribution is "run a random walk from `s`
/// until it hits `t`, then erase loops". The distribution has exponential
/// support; [`ObliviousRouting::path_distribution`] returns a Monte-Carlo
/// approximation with `support_samples` draws from a construction-seeded
/// deterministic stream, so repeated calls agree, and memoizes it.
/// Sampling draws from that fixed distribution, not a fresh walk.
pub struct RandomWalkRouting {
    g: Graph,
    /// Number of Monte-Carlo samples used to approximate the distribution.
    support_samples: usize,
    /// Seed for the deterministic per-pair sample streams.
    seed: u64,
    memo: DistMemo,
}

impl RandomWalkRouting {
    /// Create with the given Monte-Carlo support size and seed.
    pub fn new(g: Graph, support_samples: usize, seed: u64) -> Self {
        assert!(support_samples >= 1);
        RandomWalkRouting {
            g,
            support_samples,
            seed,
            memo: DistMemo::default(),
        }
    }

    /// One loop-erased random walk from `s` to `t`, grown on `walk`.
    fn walk<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        rng: &mut R,
        walk: &mut LoopErasedWalk,
    ) -> Path {
        let n = self.g.num_nodes();
        // Hitting time on a connected graph is O(n^3) in the worst case;
        // this cap only guards against bugs.
        let max_steps = 100 * n * n * n + 1000;
        walk.start(s);
        let mut steps = 0usize;
        while walk.head() != t {
            steps += 1;
            assert!(steps <= max_steps, "random walk failed to hit target");
            let inc = self.g.incident(walk.head());
            let &(e, v) = &inc[rng.gen_range(0..inc.len())];
            walk.step(e, v);
        }
        let edges = walk.edges().to_vec();
        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
        Path::from_edges(&self.g, s, edges).expect("loop-erased walk is a simple path")
    }
}

impl ObliviousRouting for RandomWalkRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        self.memo.get_or_insert_with(s, t, || {
            // Per-pair deterministic stream so the "distribution" is a
            // fixed object, as obliviousness requires.
            let pair_seed = self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((s.0 as u64) << 32) | t.0 as u64);
            let mut rng = StdRng::seed_from_u64(pair_seed);
            let mut walk = LoopErasedWalk::default();
            let walks = (0..self.support_samples).map(|_| self.walk(s, t, &mut rng, &mut walk));
            merge_draws(walks, 1.0 / self.support_samples as f64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;

    #[test]
    fn walks_are_valid_paths() {
        let r = RandomWalkRouting::new(gen::grid(3, 3), 16, 1);
        let dist = r.path_distribution(NodeId(0), NodeId(8));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (p, _) in dist.iter() {
            assert!(p.validate(r.graph()));
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(8));
        }
    }

    #[test]
    fn distribution_is_deterministic() {
        let r = RandomWalkRouting::new(gen::cycle_graph(5), 8, 7);
        let a = r.path_distribution(NodeId(0), NodeId(2));
        let b = r.path_distribution(NodeId(0), NodeId(2));
        assert_eq!(a.len(), b.len());
        for ((p1, w1), (p2, w2)) in a.iter().zip(b.iter()) {
            assert_eq!(p1, p2);
            assert!((w1 - w2).abs() < 1e-15);
        }
    }

    #[test]
    fn sampling_stays_in_support() {
        let r = RandomWalkRouting::new(gen::cycle_graph(5), 8, 7);
        let dist = r.path_distribution(NodeId(0), NodeId(2));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let p = r.sample_path(NodeId(0), NodeId(2), &mut rng);
            assert!(dist.iter().any(|(q, _)| *q == p));
        }
    }

    use sor_graph::NodeId;
}
