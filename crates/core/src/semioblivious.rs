//! The semi-oblivious routing object: a path system plus demand-time rate
//! adaptation (Definitions 5.1 and 6.1).

use crate::path_system::PathSystem;
use rand::Rng;
use sor_flow::restricted::{restricted_min_congestion, RestrictedEntry, RestrictedSolution};
use sor_flow::rounding::{round_and_improve, IntegralSolution};
use sor_flow::Demand;
use sor_graph::Graph;
use std::sync::Arc;

/// A semi-oblivious routing: the installed candidate paths, bound to their
/// graph. Routing a demand re-optimizes sending rates restricted to the
/// candidates (Stage 4) — fractionally via the MWU LP solver, or
/// integrally via randomized rounding + local search.
///
/// Graph and system are shared, not owned: a serving engine binds the
/// same graph and a cached system to a new routing every epoch without
/// copying either.
#[derive(Clone, Debug)]
pub struct SemiObliviousRouting {
    g: Arc<Graph>,
    system: Arc<PathSystem>,
}

impl SemiObliviousRouting {
    /// Bind a path system to its graph. Either may be passed owned or
    /// already shared.
    pub fn new(g: impl Into<Arc<Graph>>, system: impl Into<Arc<PathSystem>>) -> Self {
        let (g, system) = (g.into(), system.into());
        debug_assert!(system.validate(&g));
        SemiObliviousRouting { g, system }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The installed path system.
    pub fn system(&self) -> &PathSystem {
        &self.system
    }

    /// Sparsity of the installed system.
    pub fn sparsity(&self) -> usize {
        self.system.sparsity()
    }

    /// Whether every support pair of `demand` has at least one candidate
    /// path.
    pub fn covers(&self, demand: &Demand) -> bool {
        demand
            .entries()
            .iter()
            // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
            .all(|&(s, t, d)| d == 0.0 || self.system.covers(s, t))
    }

    fn entries<'a>(&'a self, demand: &Demand) -> Vec<RestrictedEntry<'a>> {
        demand
            .entries()
            .iter()
            .map(|&(s, t, d)| RestrictedEntry {
                s,
                t,
                demand: d,
                paths: self.system.paths(s, t),
            })
            .collect()
    }

    /// Optimal-up-to-`(1+O(ε))` fractional routing of `demand` restricted
    /// to the candidates. Panics if a demanded pair has no candidates
    /// (check [`SemiObliviousRouting::covers`] first when that can
    /// happen, e.g. after failures).
    pub fn route_fractional(&self, demand: &Demand, eps: f64) -> RestrictedSolution {
        let _span = sor_obs::span("core/route_fractional");
        sor_obs::counter_add!("core/route/requests");
        restricted_min_congestion(&self.g, &self.entries(demand), eps)
    }

    /// The paper's `cong(P, D)` (Definition 5.1), up to the solver's
    /// `(1+O(ε))`.
    pub fn congestion(&self, demand: &Demand, eps: f64) -> f64 {
        self.route_fractional(demand, eps).congestion
    }

    /// Integral routing of an integral `demand` (Definition 6.1):
    /// fractional adaptation, randomized rounding, local search.
    pub fn route_integral<R: Rng>(
        &self,
        demand: &Demand,
        eps: f64,
        rng: &mut R,
    ) -> IntegralSolution {
        assert!(
            demand.is_integral(),
            "integral routing needs integral demand"
        );
        let _span = sor_obs::span("core/route_integral");
        sor_obs::counter_add!("core/route/requests");
        let entries = self.entries(demand);
        let frac = restricted_min_congestion(&self.g, &entries, eps);
        round_and_improve(&self.g, &entries, &frac.weights, 30, rng)
    }

    /// Apply edge failures: drop candidate paths crossing `failed` and
    /// return the surviving semi-oblivious routing (the TE robustness
    /// operation — rates will be re-adapted on what remains, no new path
    /// installation needed).
    pub fn with_failures(&self, failed: &[sor_graph::EdgeId]) -> SemiObliviousRouting {
        SemiObliviousRouting {
            g: Arc::clone(&self.g),
            system: Arc::new(self.system.without_edges(failed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{demand_pairs, sample_k};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, NodeId};
    use sor_oblivious::ValiantHypercube;

    fn hypercube_routing(d: usize, k: usize, seed: u64) -> (SemiObliviousRouting, Demand) {
        let g = gen::hypercube(d);
        let r = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let demand = sor_flow::demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&r, &demand_pairs(&demand), k, &mut rng);
        (SemiObliviousRouting::new(g, sampled.system), demand)
    }

    #[test]
    fn fractional_routing_covers_demand() {
        let (sor, demand) = hypercube_routing(4, 4, 1);
        assert!(sor.covers(&demand));
        let sol = sor.route_fractional(&demand, 0.2);
        assert!(sol.congestion.is_finite() && sol.congestion > 0.0);
        // Each pair's weights sum to its demand.
        for (w, &(_, _, d)) in sol.weights.iter().zip(demand.entries()) {
            let total: f64 = w.iter().sum();
            assert!((total - d).abs() < 1e-6);
        }
    }

    #[test]
    fn integral_routing_is_integral() {
        let (sor, demand) = hypercube_routing(3, 3, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let sol = sor.route_integral(&demand, 0.2, &mut rng);
        for (counts, &(_, _, d)) in sol.counts.iter().zip(demand.entries()) {
            assert_eq!(counts.iter().sum::<u32>() as f64, d);
        }
        assert!(sol.congestion >= 1.0 - 1e-9);
    }

    #[test]
    fn more_paths_never_hurt_much() {
        // Monotonicity sanity: an 8-sample should be at least as good as a
        // 1-sample on the same demand (same seeds → supersets).
        let g = gen::hypercube(4);
        let r = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let demand = sor_flow::demand::random_permutation(&g, &mut rng);
        let pairs = demand_pairs(&demand);
        let mut rng1 = StdRng::seed_from_u64(10);
        let s1 = sample_k(&r, &pairs, 1, &mut rng1);
        let mut rng8 = StdRng::seed_from_u64(10);
        let s8 = sample_k(&r, &pairs, 8, &mut rng8);
        // With identical seeds the first draw coincides, so s8 ⊇ s1.
        let sor1 = SemiObliviousRouting::new(g.clone(), s1.system);
        let sor8 = SemiObliviousRouting::new(g, s8.system);
        let c1 = sor1.congestion(&demand, 0.2);
        let c8 = sor8.congestion(&demand, 0.2);
        assert!(
            c8 <= c1 * 1.25 + 1e-9,
            "8-sample ({c8}) much worse than 1-sample ({c1})"
        );
    }

    #[test]
    fn failures_shrink_but_survive() {
        let g = gen::cycle_graph(6);
        let r = sor_oblivious::KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(4);
        let demand = Demand::from_pairs([(NodeId(0), NodeId(3))]);
        let sampled = sample_k(&r, &demand_pairs(&demand), 12, &mut rng);
        let sor = SemiObliviousRouting::new(g, sampled.system);
        assert_eq!(sor.sparsity(), 2);
        let failed = sor.with_failures(&[sor_graph::EdgeId(0)]);
        assert_eq!(failed.sparsity(), 1);
        assert!(failed.covers(&demand));
        // congestion degrades but stays finite
        assert!(failed.congestion(&demand, 0.2) >= sor.congestion(&demand, 0.2) - 1e-9);
    }
}
