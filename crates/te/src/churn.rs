//! Path churn across traffic-matrix updates — SMORE's operational
//! argument for semi-oblivious TE.
//!
//! Installing a path means touching forwarding tables on every switch it
//! crosses; changing *rates* on installed paths is nearly free. A
//! re-solved MCF optimum changes its path set with every TM snapshot,
//! while a semi-oblivious system keeps its paths fixed forever and only
//! re-splits rates. This module quantifies that difference on a drifting
//! TM sequence.

use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::{max_concurrent_flow, Demand};
use sor_graph::{NodeId, Path};
use sor_oblivious::RaeckeRouting;
use std::collections::HashSet;

/// Result of the churn experiment over a TM sequence.
#[derive(Clone, Debug)]
pub struct ChurnResult {
    /// Mean MLU ratio of the semi-oblivious system vs per-step optimum.
    pub semi_mean_ratio: f64,
    /// Mean per-step path churn of the re-solved MCF optimum: Jaccard
    /// distance between consecutive support path sets (0 = stable,
    /// 1 = fully replaced).
    pub mcf_path_churn: f64,
    /// Semi-oblivious path churn — identically zero by construction
    /// (paths are installed once); kept explicit for the table.
    pub semi_path_churn: f64,
    /// Number of TM steps evaluated.
    pub steps: usize,
}

fn support_keys(
    paths: &[(usize, Path, f64)],
    demand: &Demand,
) -> HashSet<(NodeId, NodeId, Vec<u32>)> {
    let entries = demand.entries();
    paths
        .iter()
        .filter(|(_, _, w)| *w > 1e-6)
        .map(|(j, p, _)| {
            let (s, t, _) = entries[*j];
            (s, t, p.edges().iter().map(|e| e.0).collect())
        })
        .collect()
}

/// Run the churn experiment: a gravity base TM drifting for `steps` steps
/// with multiplicative `jitter`; the semi-oblivious side re-adapts rates
/// on one fixed `s`-sample, the optimum is re-solved per step.
#[allow(clippy::too_many_arguments)] // experiment knobs are individually meaningful
pub fn churn_experiment(
    scenario: &Scenario,
    base_tm: &Demand,
    steps: usize,
    jitter: f64,
    s: usize,
    trees: usize,
    seed: u64,
    eps: f64,
) -> ChurnResult {
    assert!(steps >= 2);
    let g = &scenario.graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
    let sampled = sample_k(&base, &demand_pairs(base_tm), s, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system);

    let tms = sor_flow::demand::perturbed_sequence(base_tm, steps, jitter, &mut rng);
    let mut ratio_sum = 0.0;
    let mut churn_sum = 0.0;
    let mut prev_support: Option<HashSet<(NodeId, NodeId, Vec<u32>)>> = None;
    for tm in &tms {
        let opt = max_concurrent_flow(g, tm, eps);
        let semi = sor.congestion(tm, eps);
        ratio_sum += semi / opt.congestion_upper.max(1e-12);
        let support = support_keys(&opt.paths, tm);
        if let Some(prev) = &prev_support {
            let inter = prev.intersection(&support).count();
            let union = prev.union(&support).count();
            if union > 0 {
                churn_sum += 1.0 - inter as f64 / union as f64;
            }
        }
        prev_support = Some(support);
    }
    ChurnResult {
        semi_mean_ratio: ratio_sum / steps as f64,
        mcf_path_churn: churn_sum / (steps - 1) as f64,
        semi_path_churn: 0.0,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::gravity_tm;

    #[test]
    fn churn_runs_and_shows_the_gap() {
        let sc = Scenario::abilene();
        let mut rng = StdRng::seed_from_u64(1);
        let tm = gravity_tm(&sc, 3.0, &mut rng);
        let res = churn_experiment(&sc, &tm, 4, 0.3, 4, 6, 2, 0.15);
        assert_eq!(res.steps, 4);
        assert_eq!(res.semi_path_churn, 0.0);
        assert!(
            res.mcf_path_churn > 0.0,
            "re-solved MCF should churn paths, got {}",
            res.mcf_path_churn
        );
        assert!(
            res.semi_mean_ratio < 2.0,
            "semi-oblivious tracked the drifting optimum poorly: {}",
            res.semi_mean_ratio
        );
        assert!(res.semi_mean_ratio >= 1.0 - 0.15);
    }
}
