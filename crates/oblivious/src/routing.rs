//! The oblivious-routing trait and shared evaluation helpers.

use rand::Rng;
use sor_flow::{Demand, EdgeLoads};
use sor_graph::{Graph, NodeId, Path};
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
    /// deep per-query copy — the serving epoch loop and the MWU solver
    /// call this once per demand pair per iteration.
    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist>;

    /// Sample one path from the `(s, t)` distribution. The default draws
    /// from [`ObliviousRouting::path_distribution`]; schemes with cheaper
    /// native samplers (Valiant, random walks) override it.
    fn sample_path<R: Rng + ?Sized>(&self, s: NodeId, t: NodeId, rng: &mut R) -> Path
    where
        Self: Sized,
    {
        let dist = self.path_distribution(s, t);
        sample_from_dist(&dist, rng)
    }

    /// Draw `count` paths i.i.d. from the `(s, t)` distribution. Returns
    /// the distinct paths in first-draw order, and each draw's index into
    /// that list, in draw order.
    ///
    /// The default calls [`ObliviousRouting::sample_path`] once per draw
    /// and deduplicates by equality. Mixtures whose components route
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
    ) -> (Vec<Path>, Vec<u32>)
    where
        Self: Sized,
    {
        let mut distinct: Vec<Path> = Vec::new();
        let mut draws = Vec::with_capacity(count);
        for _ in 0..count {
            let p = self.sample_path(s, t, rng);
            draws.push(index_or_push(&mut distinct, p));
        }
        (distinct, draws)
    }

    /// A short human-readable name for tables.
    fn name(&self) -> &'static str {
        "oblivious"
    }
}

/// The index of `p` in `distinct`, appending it first if it is new.
// a pair's distinct draws are far fewer than u32::MAX
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn index_or_push(distinct: &mut Vec<Path>, p: Path) -> u32 {
    let i = distinct.iter().position(|q| *q == p).unwrap_or_else(|| {
        distinct.push(p);
        distinct.len() - 1
    });
    i as u32
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
    use sor_graph::{gen, yen_ksp};

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
