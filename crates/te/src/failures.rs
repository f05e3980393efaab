//! Failure robustness (experiment E9): the operational argument for
//! semi-oblivious TE — after a link failure, sending rates can be
//! re-optimized over the *surviving* pre-installed paths within seconds,
//! while a pure oblivious routing can only renormalize its fixed
//! distribution.

use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::{max_concurrent_flow, Demand, EdgeLoads};
use sor_graph::{bfs_path_avoiding, connected_without, EdgeId};
use sor_oblivious::routing::ObliviousRouting;
use sor_oblivious::RaeckeRouting;

/// Outcome of one failure experiment.
#[derive(Clone, Debug)]
pub struct FailureResult {
    /// The failed edges (ids in the original graph).
    pub failed: Vec<EdgeId>,
    /// OPT congestion on the surviving graph (ratio denominator).
    pub opt_after: f64,
    /// Semi-oblivious MLU after re-adapting rates on surviving candidate
    /// paths.
    pub semi_mlu: f64,
    /// Oblivious MLU after merely renormalizing each pair's surviving
    /// distribution (no global re-optimization).
    pub oblivious_mlu: f64,
    /// Pairs whose candidate sets were completely destroyed and had to
    /// fall back to a surviving shortest path (counted honestly — a real
    /// deployment would install an emergency route).
    pub fallback_pairs: usize,
}

impl FailureResult {
    /// Semi-oblivious ratio vs post-failure OPT.
    pub fn semi_ratio(&self) -> f64 {
        self.semi_mlu / self.opt_after.max(1e-12)
    }

    /// Oblivious ratio vs post-failure OPT.
    pub fn oblivious_ratio(&self) -> f64 {
        self.oblivious_mlu / self.opt_after.max(1e-12)
    }
}

/// Run one failure experiment: install an `s`-sample of a Räcke routing,
/// fail `num_failures` random edges (retrying until the survivor graph is
/// connected), re-adapt, and compare against renormalized-oblivious and
/// post-failure OPT. Returns `None` if no connected failure set was found
/// in 100 attempts.
pub fn failure_experiment(
    scenario: &Scenario,
    demand: &Demand,
    s: usize,
    trees: usize,
    num_failures: usize,
    seed: u64,
    eps: f64,
) -> Option<FailureResult> {
    let _span = sor_obs::span("te/replay");
    sor_obs::counter_add!("te/failure_experiments");
    let g = &scenario.graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
    let pairs = demand_pairs(demand);
    let sampled = sample_k(&base, &pairs, s, &mut rng);

    // Pick a connected failure set.
    let failed: Vec<EdgeId> = 'search: {
        for _ in 0..100 {
            let mut f = Vec::new();
            while f.len() < num_failures {
                let e = EdgeId(rng.gen_range(0..EdgeId::from_usize(g.num_edges()).0));
                if !f.contains(&e) {
                    f.push(e);
                }
            }
            if connected_without(g, &f) {
                break 'search f;
            }
            sor_obs::debug!(
                "failure set of {num_failures} edges disconnects {}; retrying",
                scenario.name
            );
        }
        sor_obs::warn!(
            "no connected {num_failures}-edge failure set found for {} in 100 attempts",
            scenario.name
        );
        return None;
    };

    let survivor_graph = g.without_edges(&failed);
    let opt_after = max_concurrent_flow(&survivor_graph, demand, eps).congestion_upper;

    // Semi-oblivious: drop dead candidates, re-adapt; dead pairs fall back
    // to a surviving shortest path.
    let (survived, fallback_pairs, unserved) = sampled.system.degraded(g, &failed, &pairs);
    assert!(unserved.is_empty(), "failure set keeps the graph connected");
    if fallback_pairs > 0 {
        sor_obs::warn!(
            "{fallback_pairs} pair(s) lost every sampled candidate to the failure; \
             emergency shortest-path fallback installed"
        );
        sor_obs::count_usize("te/fallback_pairs", fallback_pairs);
    }
    let semi_mlu = SemiObliviousRouting::new(g.clone(), survived).congestion(demand, eps);

    // Oblivious with per-pair renormalization over surviving paths.
    let mut loads = EdgeLoads::for_graph(g);
    for &(a, b, d) in demand.entries() {
        let dist = base.path_distribution(a, b);
        let surviving: Vec<_> = dist
            .iter()
            .filter(|(p, _)| !failed.iter().any(|&e| p.contains_edge(e)))
            .collect();
        if surviving.is_empty() {
            // same emergency fallback as the semi-oblivious side
            let orig = bfs_path_avoiding(g, a, b, &failed)
                // sor-check: allow(unwrap) — invariant stated in the expect message
                .expect("failure set keeps the graph connected");
            loads.add_path(&orig, d);
            continue;
        }
        let total: f64 = surviving.iter().map(|(_, w)| w).sum();
        for (p, w) in surviving {
            loads.add_path(p, d * w / total);
        }
    }
    let oblivious_mlu = loads.congestion(g);

    Some(FailureResult {
        failed,
        opt_after,
        semi_mlu,
        oblivious_mlu,
        fallback_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::gravity_tm;

    #[test]
    fn failure_experiment_runs_and_is_sane() {
        let sc = Scenario::abilene();
        let mut rng = StdRng::seed_from_u64(1);
        let tm = gravity_tm(&sc, 3.0, &mut rng);
        let res = failure_experiment(&sc, &tm, 4, 6, 1, 11, 0.15).expect("connected failure");
        assert_eq!(res.failed.len(), 1);
        assert!(res.opt_after > 0.0);
        assert!(res.semi_mlu > 0.0 && res.semi_mlu.is_finite());
        assert!(res.oblivious_mlu > 0.0 && res.oblivious_mlu.is_finite());
        // Adaptation should not lose to static renormalization (allowing
        // solver slack).
        assert!(
            res.semi_ratio() <= res.oblivious_ratio() * 1.2 + 0.2,
            "semi {} vs oblivious {}",
            res.semi_ratio(),
            res.oblivious_ratio()
        );
    }

    #[test]
    fn more_failures_dont_break() {
        let sc = Scenario::geant();
        let mut rng = StdRng::seed_from_u64(2);
        let tm = gravity_tm(&sc, 2.0, &mut rng);
        let res = failure_experiment(&sc, &tm, 3, 5, 3, 5, 0.2).expect("connected failure");
        assert_eq!(res.failed.len(), 3);
        assert!(res.semi_ratio() >= 0.8);
    }
}
