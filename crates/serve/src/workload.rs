//! Closed-loop seeded workloads: a deterministic arrival process over a
//! pool of recurring demand patterns, with an optional failure schedule.
//!
//! The pattern pool is the reason the cache earns its keep: real traffic
//! engineering sees the same top-of-rack pair sets over and over, so the
//! arrival process here re-picks from a small pool of pair sets — every
//! re-pick after the first is a warm epoch. The failure schedule takes a
//! (connectivity-preserving) random edge down mid-run and restores it a
//! few epochs later, exercising the invalidate → degrade → fall back →
//! recover path end to end.

use crate::cache::CacheStats;
use crate::engine::{Engine, EngineConfig, EpochSnapshot, Request};
use crate::observer::Observer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_core::sample::demand_pairs;
use sor_flow::demand::random_matching;
use sor_graph::{connected_without, EdgeId, Graph, NodeId};
use sor_te::Scenario;
use std::sync::Arc;

/// Arrival-process and schedule knobs (engine knobs live in
/// [`EngineConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Epochs to run.
    pub epochs: u64,
    /// Requests enqueued per epoch tick.
    pub rate: usize,
    /// Recurring patterns in the pool.
    pub patterns: usize,
    /// Pairs per pattern.
    pub pairs_per_pattern: usize,
    /// Fail one random (connectivity-preserving) edge at this epoch.
    pub fail_at: Option<u64>,
    /// Restore failed edges this many epochs after `fail_at`.
    pub restore_after: u64,
    /// Seed for the arrival process and failure choice (the engine has
    /// its own seed in [`EngineConfig`]).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            epochs: 8,
            rate: 8,
            patterns: 3,
            pairs_per_pattern: 4,
            fail_at: None,
            restore_after: 2,
            seed: 0,
        }
    }
}

impl WorkloadConfig {
    /// The seeded pool of `patterns` random matchings of
    /// `pairs_per_pattern` pairs each, drawn from `seed` — the pool the
    /// CLI and the seeded tests run over.
    pub fn pattern_pool(&self, g: &Graph) -> Vec<Vec<(NodeId, NodeId)>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e57_ab1e);
        matching_patterns(g, self.patterns, self.pairs_per_pattern, &mut rng)
    }
}

/// What a closed-loop run produced.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Every epoch's published snapshot, in order.
    pub snapshots: Vec<EpochSnapshot>,
    /// Final cache counters.
    pub cache: CacheStats,
    /// Requests admitted across all epochs.
    pub admitted: usize,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// `(epoch, edge)` failure events the schedule injected.
    pub failures: Vec<(u64, EdgeId)>,
}

impl WorkloadReport {
    /// Mean congestion over non-empty epochs.
    pub fn mean_congestion(&self) -> f64 {
        let solved: Vec<f64> = self
            .snapshots
            .iter()
            .filter(|s| s.admitted > 0)
            .map(|s| s.congestion)
            .collect();
        if solved.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = solved.len() as f64;
            solved.iter().sum::<f64>() / n
        }
    }

    /// Mean of per-epoch `cached congestion / fresh-sample congestion`
    /// (1.0 ⇒ the cache costs nothing in quality), when the engine ran
    /// the comparison.
    pub fn mean_fresh_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self
            .snapshots
            .iter()
            .filter_map(|s| {
                s.fresh_congestion
                    .map(|fresh| s.congestion / fresh.max(1e-12))
            })
            .collect();
        if ratios.is_empty() {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = ratios.len() as f64;
            Some(ratios.iter().sum::<f64>() / n)
        }
    }
}

/// A pattern pool of seeded random matchings (disjoint pairs — the
/// permutation-style demands the paper's experiments use).
pub fn matching_patterns<R: Rng>(
    g: &Graph,
    patterns: usize,
    pairs_per_pattern: usize,
    rng: &mut R,
) -> Vec<Vec<(NodeId, NodeId)>> {
    (0..patterns)
        .map(|_| demand_pairs(&random_matching(g, pairs_per_pattern, rng)))
        .collect()
}

/// A pattern pool drawn from a TE scenario's pair mesh (WAN workloads:
/// repeated subsets of the full traffic matrix's support).
pub fn scenario_patterns<R: Rng>(
    scenario: &Scenario,
    patterns: usize,
    pairs_per_pattern: usize,
    rng: &mut R,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let mesh = scenario.pairs();
    assert!(!mesh.is_empty(), "scenario has no pairs");
    (0..patterns)
        .map(|_| {
            let want = pairs_per_pattern.min(mesh.len());
            let mut pat: Vec<(NodeId, NodeId)> = Vec::with_capacity(want);
            while pat.len() < want {
                // sor-check: allow(panic-path) — gen_range upper bound is mesh.len()
                let p = mesh[rng.gen_range(0..mesh.len())];
                if !pat.contains(&p) {
                    pat.push(p);
                }
            }
            pat
        })
        .collect()
}

/// Run the closed loop over a pattern pool: each epoch picks a pattern,
/// enqueues `rate` unit requests cycling over its pairs, and runs the
/// engine; the failure schedule fires as configured. An attached
/// `observer` never changes the report (bit-identical snapshots either
/// way); it only fills its journal (timeline rows included) and SLO
/// state as epochs run.
pub fn run_workload(
    g: &Graph,
    ecfg: EngineConfig,
    wcfg: &WorkloadConfig,
    patterns: &[Vec<(NodeId, NodeId)>],
    observer: Option<Arc<Observer>>,
) -> WorkloadReport {
    assert!(!patterns.is_empty(), "workload needs at least one pattern");
    assert!(patterns.iter().all(|p| !p.is_empty()), "empty pattern");
    let _span = sor_obs::span("serve/workload");
    // Offset keeps arrival draws disjoint from pattern-pool draws when
    // the caller reuses one seed for both.
    let mut rng = StdRng::seed_from_u64(wcfg.seed.wrapping_add(0xa11_1f0));
    let mut engine = Engine::new(g.clone(), ecfg);
    if let Some(obs) = observer {
        engine.attach_observer(obs);
    }
    let mut snapshots = Vec::new();
    let mut failures = Vec::new();
    let mut admitted = 0usize;
    for epoch in 0..wcfg.epochs {
        if let Some(f) = wcfg.fail_at {
            if epoch == f {
                if let Some(victim) = pick_failable_edge(g, engine.failed_edges(), &mut rng) {
                    engine.fail_edges(&[victim]);
                    failures.push((epoch, victim));
                } else {
                    sor_obs::warn!("no connectivity-preserving edge to fail at epoch {epoch}");
                }
            }
            if epoch == f.saturating_add(wcfg.restore_after) {
                engine.restore_all();
            }
        }
        // sor-check: allow(panic-path) — gen_range bound is patterns.len()
        let pat = &patterns[rng.gen_range(0..patterns.len())];
        for j in 0..wcfg.rate {
            // sor-check: allow(panic-path) — index is modulo pat.len(), non-empty asserted above
            let (s, t) = pat[j % pat.len()];
            engine.ingest(Request::unit(s, t));
        }
        let snap = engine.run_epoch();
        admitted += snap.admitted;
        snapshots.push(snap);
    }
    WorkloadReport {
        snapshots,
        cache: engine.cache_stats(),
        admitted,
        rejected: engine.rejected_total(),
        failures,
    }
}

/// A random edge whose removal (on top of `already_failed`) keeps the
/// graph connected; `None` after 64 unlucky draws.
fn pick_failable_edge<R: Rng>(g: &Graph, already_failed: &[EdgeId], rng: &mut R) -> Option<EdgeId> {
    for _ in 0..64 {
        let cand = EdgeId(rng.gen_range(0..EdgeId::from_usize(g.num_edges()).0));
        if already_failed.contains(&cand) {
            continue;
        }
        let mut all = already_failed.to_vec();
        all.push(cand);
        if connected_without(g, &all) {
            return Some(cand);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;

    fn ecfg(seed: u64) -> EngineConfig {
        EngineConfig {
            sparsity: 2,
            trees: 3,
            epoch_batch: 16,
            queue_bound: 64,
            cache_capacity: 8,
            seed,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn recurring_patterns_warm_the_cache() {
        let g = gen::hypercube(3);
        let wcfg = WorkloadConfig {
            epochs: 10,
            rate: 6,
            patterns: 2,
            pairs_per_pattern: 3,
            seed: 21,
            ..WorkloadConfig::default()
        };
        let report = run_workload(&g, ecfg(21), &wcfg, &wcfg.pattern_pool(&g), None);
        assert_eq!(report.snapshots.len(), 10);
        assert!(report.admitted > 0);
        // 2 patterns, 10 epochs: at most 2 misses, the rest hits
        assert!(report.cache.misses <= 2);
        assert_eq!(report.cache.hits + report.cache.misses, 10);
        assert!(report.mean_congestion() > 0.0);
    }

    #[test]
    fn failure_schedule_fires_and_recovers() {
        let g = gen::cycle_graph(8);
        let wcfg = WorkloadConfig {
            epochs: 8,
            rate: 4,
            patterns: 1,
            pairs_per_pattern: 2,
            fail_at: Some(3),
            restore_after: 2,
            seed: 9,
        };
        let report = run_workload(&g, ecfg(9), &wcfg, &wcfg.pattern_pool(&g), None);
        assert_eq!(report.failures.len(), 1);
        let (fe, _) = report.failures[0];
        assert_eq!(fe, 3);
        // every epoch still served its demand
        for s in &report.snapshots {
            assert!(s.admitted > 0);
            assert!(s.congestion > 0.0);
            assert_eq!(s.unserved_pairs, 0, "cycle minus one edge stays connected");
        }
    }

    #[test]
    fn scenario_pattern_pool_is_well_formed() {
        let sc = Scenario::abilene();
        let mut rng = StdRng::seed_from_u64(4);
        let pats = scenario_patterns(&sc, 3, 5, &mut rng);
        assert_eq!(pats.len(), 3);
        for p in &pats {
            assert_eq!(p.len(), 5);
            for &(s, t) in p {
                assert!(s != t);
            }
        }
    }
}
