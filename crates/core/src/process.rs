//! The dynamic deletion process of Section 5.3 — the executable heart of
//! the Main Lemma's proof.
//!
//! "Pretend to send packets on all candidate paths at once, and delete the
//! edges that get overcongested (together with all candidate paths
//! crossing that edge)": edges are scanned once in a fixed order; an edge
//! whose current load exceeds the threshold `τ` kills every surviving
//! draw crossing it. If at least half the total weight survives, *weak
//! routing* succeeds (Definition 5.4) — and Lemma 5.8 lifts weak routing
//! to full routing at one extra log factor.
//!
//! The Main Lemma proves the failure probability is `exp(-Ω(|D|))`;
//! experiment E7 measures exactly that curve by Monte Carlo over this
//! process.

use crate::sample::{demand_pairs, sample_k, SampledSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_flow::{Demand, EdgeLoads};
use sor_graph::{EdgeId, Graph};
use sor_oblivious::routing::ObliviousRouting;

/// Outcome of one run of the deletion process.
#[derive(Clone, Debug)]
pub struct ProcessOutcome {
    /// Total initial weight (`= |D|` for weights `D(u,v)/N_{u,v}` per
    /// draw).
    pub total_weight: f64,
    /// Weight still alive after the scan.
    pub survived_weight: f64,
    /// Edges found overcongested, in scan order.
    pub overcongested: Vec<EdgeId>,
    /// Weight deleted while processing each edge (indexed by `EdgeId`) —
    /// the vector a bad pattern (Definition 5.11) abstracts.
    pub deleted_at: Vec<f64>,
    /// Loads of the surviving draws (every edge is ≤ τ·cap by
    /// construction).
    pub final_loads: EdgeLoads,
}

impl ProcessOutcome {
    /// Weak-routing success: at least half the weight survived.
    pub fn weak_success(&self) -> bool {
        self.survived_weight >= self.total_weight / 2.0 - 1e-12
    }

    /// Fraction of weight that survived.
    pub fn survival_fraction(&self) -> f64 {
        // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
        if self.total_weight == 0.0 {
            1.0
        } else {
            self.survived_weight / self.total_weight
        }
    }
}

/// Run the deletion process: each draw of pair `(u,v)` initially carries
/// weight `D(u,v) / N_{u,v}`; edges are scanned in `EdgeId` order with
/// congestion threshold `tau` (relative to capacity).
pub fn deletion_process(
    g: &Graph,
    sampled: &SampledSystem,
    demand: &Demand,
    tau: f64,
) -> ProcessOutcome {
    assert!(tau > 0.0);
    // Flatten draws with their weights; zero-demand pairs contribute
    // nothing.
    let mut weight_of_pair = std::collections::HashMap::new();
    for &(s, t, d) in demand.entries() {
        weight_of_pair.insert((s, t), d);
    }
    struct Draw<'a> {
        path: sor_graph::PathRef<'a>,
        weight: f64,
        alive: bool,
    }
    let mut draws: Vec<Draw> = Vec::new();
    let mut total_weight = 0.0;
    for ((s, t), picks) in &sampled.raw {
        let d = *weight_of_pair.get(&(*s, *t)).unwrap_or(&0.0);
        // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
        if d == 0.0 || picks.is_empty() {
            continue;
        }
        let paths = sampled.system.paths(*s, *t);
        let w = d / picks.len() as f64;
        for &i in picks {
            draws.push(Draw {
                path: paths.get(i as usize),
                weight: w,
                alive: true,
            });
            total_weight += w;
        }
    }

    // Index: draws crossing each edge.
    let mut crossing: Vec<Vec<u32>> = vec![Vec::new(); g.num_edges()];
    let mut loads = EdgeLoads::for_graph(g);
    #[allow(clippy::cast_possible_truncation)]
    for (i, d) in draws.iter().enumerate() {
        for &e in d.path.edges() {
            crossing[e.index()].push(i as u32);
        }
        loads.add_edges(d.path.edges(), d.weight);
    }

    let mut overcongested = Vec::new();
    let mut deleted_at = vec![0.0; g.num_edges()];
    for e in g.edge_ids() {
        let cong = loads.load(e) / g.cap(e);
        if cong > tau {
            overcongested.push(e);
            let mut deleted_here = 0.0;
            for &di in &crossing[e.index()] {
                let d = &mut draws[di as usize];
                if d.alive {
                    d.alive = false;
                    deleted_here += d.weight;
                    loads.add_edges(d.path.edges(), -d.weight);
                }
            }
            deleted_at[e.index()] = deleted_here;
        }
    }

    let survived_weight = draws.iter().filter(|d| d.alive).map(|d| d.weight).sum();
    ProcessOutcome {
        total_weight,
        survived_weight,
        overcongested,
        deleted_at,
        final_loads: loads,
    }
}

/// Monte-Carlo estimate of the weak-routing failure rate: for `trials`
/// independent `k`-samples of `routing` over the support of `demand`,
/// the fraction of runs where [`ProcessOutcome::weak_success`] fails.
pub fn weak_failure_rate<O: ObliviousRouting>(
    g: &Graph,
    routing: &O,
    demand: &Demand,
    k: usize,
    tau: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0);
    let pairs = demand_pairs(demand);
    let mut failures = 0usize;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
        let sampled = sample_k(routing, &pairs, k, &mut rng);
        let outcome = deletion_process(g, &sampled, demand, tau);
        if !outcome.weak_success() {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use sor_graph::gen;
    use sor_oblivious::{KspRouting, ValiantHypercube};

    #[test]
    fn no_deletions_when_threshold_high() {
        let g = gen::hypercube(4);
        let r = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let demand = sor_flow::demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&r, &demand_pairs(&demand), 4, &mut rng);
        let out = deletion_process(&g, &sampled, &demand, 1e6);
        assert!(out.overcongested.is_empty());
        assert!(out.weak_success());
        assert!((out.survival_fraction() - 1.0).abs() < 1e-12);
        assert!((out.total_weight - demand.size()).abs() < 1e-9);
    }

    #[test]
    fn everything_dies_when_threshold_tiny() {
        let g = gen::cycle_graph(6);
        let r = KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(2);
        let demand = Demand::from_pairs([(NodeId(0), NodeId(3))]);
        let sampled = sample_k(&r, &demand_pairs(&demand), 4, &mut rng);
        let out = deletion_process(&g, &sampled, &demand, 1e-9);
        assert!(!out.weak_success());
        assert_eq!(out.survival_fraction(), 0.0);
        assert!(!out.overcongested.is_empty());
    }

    #[test]
    fn final_loads_respect_threshold() {
        let g = gen::hypercube(4);
        let r = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let demand = sor_flow::demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&r, &demand_pairs(&demand), 3, &mut rng);
        let tau = 1.5;
        let out = deletion_process(&g, &sampled, &demand, tau);
        // After the scan every edge is at most its load when processed;
        // edges processed while overcongested were zeroed, and later
        // deletions only decrease loads. So final congestion ≤ τ… except
        // an edge may sit above τ if it was *below* τ when scanned and
        // never re-checked — the paper's process has the same one-pass
        // semantics, and the guarantee is only about edges at scan time.
        // What must hold: overcongested edges end with zero load.
        for &e in &out.overcongested {
            assert!(out.final_loads.load(e) < 1e-9);
        }
    }

    #[test]
    fn weak_failure_rate_decreases_with_k() {
        // The power of a few random choices, in process form: more sampled
        // paths ⇒ (weakly) fewer weak-routing failures at a fixed τ.
        let g = gen::hypercube(5);
        let r = ValiantHypercube::new(g.clone());
        let mut drng = StdRng::seed_from_u64(4);
        let demand = sor_flow::demand::random_permutation(&g, &mut drng);
        let tau = 2.0;
        let f1 = weak_failure_rate(&g, &r, &demand, 1, tau, 10, 100);
        let f6 = weak_failure_rate(&g, &r, &demand, 6, tau, 10, 100);
        assert!(
            f6 <= f1 + 1e-12,
            "failure rate should not increase with sparsity: k=1 → {f1}, k=6 → {f6}"
        );
    }

    #[test]
    fn deleted_at_accounts_for_losses() {
        let g = gen::cycle_graph(8);
        let r = KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(6);
        let mut demand = Demand::new();
        for _ in 0..6 {
            let s = NodeId(rng.gen_range(0..8));
            let t = NodeId(rng.gen_range(0..8));
            if s != t {
                demand.add(s, t, 1.0);
            }
        }
        let sampled = sample_k(&r, &demand_pairs(&demand), 2, &mut rng);
        let out = deletion_process(&g, &sampled, &demand, 0.5);
        let deleted: f64 = out.deleted_at.iter().sum();
        assert!(
            (deleted - (out.total_weight - out.survived_weight)).abs() < 1e-9,
            "deletion bookkeeping inconsistent"
        );
    }

    use sor_graph::NodeId;
}
