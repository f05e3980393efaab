//! Hypercube routings: Valiant's trick and the deterministic greedy
//! baseline.
//!
//! * [`ValiantHypercube`] routes `s → t` by drawing a uniformly random
//!   intermediate `w` and bit-fixing `s → w → t` \[VB81\]. For any
//!   permutation demand the expected congestion of every edge is O(1) —
//!   this is the oblivious routing the paper's hypercube overview samples
//!   from.
//! * [`GreedyBitFix`] always takes the single bit-fixing path (lowest
//!   differing bit first). Deterministic and 1-sparse — and provably bad:
//!   bit-reversal forces `Ω(√N / d)` congestion \[KKT91\], which experiment
//!   E3 reproduces.

use crate::routing::{merge_draws, ObliviousRouting, PathDist};
use rand::Rng;
use sor_graph::{gen::hypercube::dim_of, Graph, LoopErasedWalk, NodeId, Path};
use std::sync::Arc;

/// Bit-fixing walk from `a` to `b`: flips differing bits from least to
/// most significant. Returns the node sequence (inclusive).
fn bitfix_nodes(a: u32, b: u32, d: usize) -> Vec<NodeId> {
    let mut nodes = Vec::with_capacity(d + 1);
    let mut cur = a;
    nodes.push(NodeId(cur));
    for bit in 0..d {
        let mask = 1u32 << bit;
        if (cur ^ b) & mask != 0 {
            cur ^= mask;
            nodes.push(NodeId(cur));
        }
    }
    debug_assert_eq!(cur, b);
    nodes
}

/// Build the `s → w → t` Valiant path on `walk`, erasing any loops so the
/// result is simple.
fn valiant_path(g: &Graph, d: usize, s: u32, w: u32, t: u32, walk: &mut LoopErasedWalk) -> Path {
    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
    let first = Path::from_nodes(g, &bitfix_nodes(s, w, d)).expect("bitfix walks are simple");
    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
    let second = Path::from_nodes(g, &bitfix_nodes(w, t, d)).expect("bitfix walks are simple");
    walk.start(NodeId(s));
    walk.follow(&first);
    walk.follow(&second);
    walk.to_path()
}

/// Valiant–Brebner randomized routing on the hypercube `Q_d`.
pub struct ValiantHypercube {
    g: Graph,
    d: usize,
}

impl ValiantHypercube {
    /// Wrap a hypercube graph produced by [`sor_graph::gen::hypercube`](fn@sor_graph::gen::hypercube).
    /// Panics if `g`'s vertex count is not a power of two.
    pub fn new(g: Graph) -> Self {
        // sor-check: allow(unwrap) — invariant stated in the expect message
        let d = dim_of(g.num_nodes()).expect("not a hypercube vertex count");
        assert_eq!(
            g.num_edges(),
            d << (d.max(1) - 1),
            "edge count does not match Q_{d}"
        );
        ValiantHypercube { g, d }
    }

    /// Hypercube dimension.
    pub fn dim(&self) -> usize {
        self.d
    }
}

impl ObliviousRouting for ValiantHypercube {
    fn graph(&self) -> &Graph {
        &self.g
    }

    /// Uniform over intermediates: `2^d` (not necessarily distinct) paths,
    /// each with weight `2^{−d}`. Duplicate paths are merged.
    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        let n = NodeId::from_usize(self.g.num_nodes()).0;
        let mut walk = LoopErasedWalk::default();
        let paths = (0..n).map(|w| valiant_path(&self.g, self.d, s.0, w, t.0, &mut walk));
        Arc::new(merge_draws(paths, 1.0 / n as f64))
    }

    fn sample_path<R: Rng + ?Sized>(&self, s: NodeId, t: NodeId, rng: &mut R) -> Path {
        assert!(s != t);
        let w = rng.gen_range(0..NodeId::from_usize(self.g.num_nodes()).0);
        valiant_path(&self.g, self.d, s.0, w, t.0, &mut LoopErasedWalk::default())
    }
}

/// Deterministic greedy bit-fixing on the hypercube: exactly one path per
/// pair.
pub struct GreedyBitFix {
    g: Graph,
    d: usize,
}

impl GreedyBitFix {
    /// Wrap a hypercube graph. Panics if the vertex count is not a power
    /// of two.
    pub fn new(g: Graph) -> Self {
        // sor-check: allow(unwrap) — invariant stated in the expect message
        let d = dim_of(g.num_nodes()).expect("not a hypercube vertex count");
        GreedyBitFix { g, d }
    }
}

impl ObliviousRouting for GreedyBitFix {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        let p = Path::from_nodes(&self.g, &bitfix_nodes(s.0, t.0, self.d))
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            .expect("bitfix walks are simple");
        Arc::new(vec![(p, 1.0)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{fractional_loads, oblivious_congestion};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_flow::demand::random_permutation;
    use sor_flow::Demand;
    use sor_graph::gen;

    #[test]
    fn bitfix_is_shortest() {
        let g = gen::hypercube(4);
        let r = GreedyBitFix::new(g);
        let dist = r.path_distribution(NodeId(0b0000), NodeId(0b1011));
        assert_eq!(dist.len(), 1);
        assert_eq!(dist[0].0.hops(), 3); // Hamming distance
    }

    #[test]
    fn valiant_paths_valid_and_bounded() {
        let g = gen::hypercube(4);
        let r = ValiantHypercube::new(g);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let s = NodeId(rng.gen_range(0..16));
            let t = NodeId(rng.gen_range(0..16));
            if s == t {
                continue;
            }
            let p = r.sample_path(s, t, &mut rng);
            assert!(p.validate(r.graph()));
            assert_eq!(p.source(), s);
            assert_eq!(p.target(), t);
            assert!(p.hops() <= 2 * r.dim());
        }
    }

    #[test]
    fn valiant_distribution_sums_to_one() {
        let g = gen::hypercube(3);
        let r = ValiantHypercube::new(g);
        let dist = r.path_distribution(NodeId(0), NodeId(7));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // support is at most n paths
        assert!(dist.len() <= 8);
    }

    #[test]
    fn valiant_beats_greedy_on_bit_reversal() {
        // The headline hypercube separation: on bit reversal, greedy
        // congests Ω(√N/d) while Valiant stays O(1) in expectation.
        let d = 8;
        let g = gen::hypercube(d);
        let pairs: Vec<_> = gen::bit_reversal_perm(d)
            .into_iter()
            .filter(|(s, t)| s != t)
            .collect();
        let demand = Demand::from_pairs(pairs);
        let greedy = GreedyBitFix::new(g.clone());
        let valiant = ValiantHypercube::new(g);
        let cg = oblivious_congestion(&greedy, &demand);
        let cv = oblivious_congestion(&valiant, &demand);
        // √N/d = 16/8 = 2 is a weak floor; the actual greedy congestion on
        // bit reversal is 2^{d/2}/2 = 8.
        assert!(cg >= 8.0 - 1e-9, "greedy congestion {cg}");
        assert!(cv <= 2.5, "valiant expected congestion {cv}");
        assert!(cg / cv > 3.0, "separation too weak: {cg} vs {cv}");
    }

    #[test]
    fn valiant_on_random_permutation_is_constant() {
        let d = 7;
        let g = gen::hypercube(d);
        let r = ValiantHypercube::new(g);
        let mut rng = StdRng::seed_from_u64(1);
        let demand = random_permutation(r.graph(), &mut rng);
        let c = oblivious_congestion(&r, &demand);
        assert!(c <= 2.5, "expected O(1) congestion, got {c}");
    }

    #[test]
    fn loads_conserve_volume() {
        // total load = Σ_pairs d · E[hops] ≤ d · 2·dim.
        let g = gen::hypercube(3);
        let r = ValiantHypercube::new(g);
        let demand = Demand::from_pairs([(NodeId(0), NodeId(5))]);
        let loads = fractional_loads(&r, &demand);
        assert!(loads.total() <= 2.0 * 3.0 + 1e-9);
        assert!(loads.total() >= 2.0 - 1e-9); // at least the Hamming distance
    }

    use sor_graph::NodeId;
}
