//! The oblivious-routing trait, the draw merger and per-pair memo its
//! implementations share, and shared evaluation helpers.

use parking_lot::Mutex;
use rand::Rng;
use sor_flow::{Demand, EdgeLoads};
use sor_graph::{Graph, NodeId, Path, PathList};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A finite distribution over simple `s`-`t` paths; weights are positive
/// and sum to 1 (within floating-point tolerance).
pub type PathDist = Vec<(Path, f64)>;

/// An oblivious routing `R`: for every ordered vertex pair, a distribution
/// over simple paths between them, fixed before any demand is seen.
///
/// Implementations must be deterministic given their construction-time
/// randomness: `path_distribution` is a pure function of `(s, t)`, and
/// `sample_path` draws from exactly that distribution.
pub trait ObliviousRouting {
    /// The graph this routing is defined over.
    fn graph(&self) -> &Graph;

    /// The full path distribution for the pair `(s, t)` (`s ≠ t`).
    ///
    /// Shared (`Arc`) so memoizing implementations hand out the cached
    /// distribution for the price of a reference-count bump instead of a
    /// deep per-query copy. Whole-distribution readers call it: the
    /// oblivious congestion ([`fractional_loads`]) of the E-tables,
    /// `sor-core`'s evaluation and `sor-te`'s schemes, `sor-te`'s KSP
    /// scheme and failure replay, and the default
    /// [`ObliviousRouting::sample_path`]. `sor-serve` samples the Räcke
    /// mixture, whose sampling overrides never call it.
    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist>;

    /// Sample one path from the `(s, t)` distribution. The default draws
    /// from [`ObliviousRouting::path_distribution`]; schemes with cheaper
    /// native samplers (Valiant, the Räcke mixture) override it.
    fn sample_path<R: Rng + ?Sized>(&self, s: NodeId, t: NodeId, rng: &mut R) -> Path
    where
        Self: Sized,
    {
        let dist = self.path_distribution(s, t);
        sample_from_dist(&dist, rng)
    }

    /// Draw `count` paths i.i.d. from the `(s, t)` distribution. Returns
    /// the distinct paths in first-draw order as one list of exact size,
    /// and each draw's index into that list, in draw order.
    ///
    /// The default calls [`ObliviousRouting::sample_path`] once per draw
    /// and pushes each new path's edges. Mixtures whose components route
    /// deterministically (Räcke) override it to route each drawn
    /// component once; they must make the same RNG draws in the same
    /// order, so the result and the RNG's position afterwards match the
    /// default's bit for bit.
    fn sample_distinct<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        count: usize,
        rng: &mut R,
    ) -> (PathList, Vec<u32>)
    where
        Self: Sized,
    {
        let mut draws = Vec::with_capacity(count);
        let (distinct, ()) = PathList::build_exact(s, |list| {
            for _ in 0..count {
                let p = self.sample_path(s, t, rng);
                draws.push(list.index_or_push(p.edges()));
            }
        });
        (distinct, draws)
    }
}

/// Merge equally weighted draws into a [`PathDist`]: each path gets `w`
/// per draw, summed in draw order, and the result is ordered by vertex
/// sequence, then edge sequence (`Path`'s `Ord`), so parallel edges never
/// leave the order to chance.
pub fn merge_draws(paths: impl IntoIterator<Item = Path>, w: f64) -> PathDist {
    let mut merged: BTreeMap<Path, f64> = BTreeMap::new();
    for p in paths {
        *merged.entry(p).or_insert(0.0) += w;
    }
    merged.into_iter().collect()
}

/// A per-pair memo of path distributions, for routings whose
/// distribution is a pure function of the pair and costly to build.
#[derive(Default)]
pub struct DistMemo(Mutex<HashMap<(NodeId, NodeId), Arc<PathDist>>>);

impl DistMemo {
    /// The memoized distribution of `(s, t)`, built by `build` on the
    /// pair's first call.
    pub fn get_or_insert_with(
        &self,
        s: NodeId,
        t: NodeId,
        build: impl FnOnce() -> PathDist,
    ) -> Arc<PathDist> {
        let mut memo = self.0.lock();
        Arc::clone(memo.entry((s, t)).or_insert_with(|| Arc::new(build())))
    }
}

/// Draw one path from a [`PathDist`].
pub fn sample_from_dist<R: Rng + ?Sized>(dist: &PathDist, rng: &mut R) -> Path {
    assert!(!dist.is_empty(), "empty path distribution");
    let total: f64 = dist.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (p, w) in dist {
        if x < *w {
            return p.clone();
        }
        x -= w;
    }
    // float residue can land `x` past the final bucket; clamp to it
    // (the assert above guarantees the index is valid)
    dist[dist.len() - 1].0.clone()
}

/// Expected per-edge loads when `demand` is routed fractionally by the
/// oblivious routing (each pair's demand spread over its distribution).
pub fn fractional_loads<O: ObliviousRouting + ?Sized>(r: &O, demand: &Demand) -> EdgeLoads {
    let g = r.graph();
    let mut loads = EdgeLoads::for_graph(g);
    for &(s, t, d) in demand.entries() {
        let dist = r.path_distribution(s, t);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        debug_assert!(
            (total - 1.0).abs() < 1e-6,
            "distribution weights sum to {total}"
        );
        for (p, w) in dist.iter() {
            loads.add_path(p, d * w / total);
        }
    }
    loads
}

/// Max congestion of the oblivious (fractional) routing of `demand` — the
/// quantity `cong(R, D)` the paper compares everything against.
pub fn oblivious_congestion<O: ObliviousRouting + ?Sized>(r: &O, demand: &Demand) -> f64 {
    fractional_loads(r, demand).congestion(r.graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, yen_ksp, EdgeId};

    /// A fixed 50/50 two-path routing used to test the helpers.
    struct TwoPath {
        g: Graph,
    }

    impl ObliviousRouting for TwoPath {
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
            let ps = yen_ksp(&self.g, s, t, 2, &self.g.unit_lengths());
            let w = 1.0 / ps.len() as f64;
            Arc::new(ps.into_iter().map(|p| (p, w)).collect())
        }
    }

    #[test]
    fn fractional_loads_split() {
        let r = TwoPath {
            g: gen::cycle_graph(4),
        };
        let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        let loads = fractional_loads(&r, &d);
        // every edge carries exactly 0.5
        for e in r.g.edge_ids() {
            assert!((loads.load(e) - 0.5).abs() < 1e-12);
        }
        assert!((oblivious_congestion(&r, &d) - 0.5).abs() < 1e-12);
    }

    /// Draws merge into one entry per path, weights summed, ordered by
    /// vertex sequence and then by edge sequence on parallel edges.
    #[test]
    fn merge_draws_orders_by_vertices_then_edges() {
        let mut g = Graph::new(3);
        let a = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let b = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let c = g.add_edge(NodeId(1), NodeId(2), 1.0);
        let d = g.add_edge(NodeId(0), NodeId(2), 1.0);
        let path = |edges: Vec<EdgeId>| Path::from_edges(&g, NodeId(0), edges).unwrap();
        let draws = [vec![b, c], vec![d], vec![a, c], vec![b, c]];
        let dist = merge_draws(draws.into_iter().map(path), 0.25);
        let got: Vec<(Vec<EdgeId>, f64)> =
            dist.iter().map(|(p, w)| (p.edges().to_vec(), *w)).collect();
        assert_eq!(
            got,
            [(vec![a, c], 0.25), (vec![b, c], 0.5), (vec![d], 0.25)]
        );
    }

    #[test]
    fn memo_builds_each_pair_once() {
        let memo = DistMemo::default();
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            vec![(Path::trivial(NodeId(0)), 1.0)]
        };
        let first = memo.get_or_insert_with(NodeId(0), NodeId(1), build);
        let again = memo.get_or_insert_with(NodeId(0), NodeId(1), build);
        assert!(Arc::ptr_eq(&first, &again));
        memo.get_or_insert_with(NodeId(1), NodeId(0), build);
        assert_eq!(builds.get(), 2);
    }

    #[test]
    fn sampling_matches_distribution() {
        let r = TwoPath {
            g: gen::cycle_graph(4),
        };
        let mut rng = StdRng::seed_from_u64(0);
        let dist = r.path_distribution(NodeId(0), NodeId(2));
        let mut counts = vec![0usize; dist.len()];
        for _ in 0..2000 {
            let p = r.sample_path(NodeId(0), NodeId(2), &mut rng);
            let i = dist.iter().position(|(q, _)| *q == p).expect("in support");
            counts[i] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "biased sampling: {counts:?}");
        }
    }
}
