//! Samples of an oblivious routing (Definition 5.2) — the paper's entire
//! construction.
//!
//! * [`sample_k`]: `k` i.i.d. draws (with replacement) from `R`'s `(s, t)`
//!   path distribution for every requested pair — the `s`-sample used for
//!   1-demands (Theorems 2.3/2.5).
//! * [`sample_k_plus_cut`]: `k + mincut(s, t)` draws per pair — the
//!   `(s + cut)`-sample required for arbitrary demands (Corollary 6.2 /
//!   Lemma 2.7; Section 2.1 explains why per-pair cut scaling is
//!   necessary).
//!
//! Both return a [`SampledSystem`] carrying the deduplicated
//! [`PathSystem`] *and* the raw multiset of draws: the dynamic deletion
//! process (Section 5.3) analyses the multiset, while routing uses the
//! set.

use crate::path_system::PathSystem;
use rand::Rng;
use sor_graph::{st_min_cut, Graph, NodeId, Path};
use sor_oblivious::routing::ObliviousRouting;

/// The result of sampling an oblivious routing over a set of pairs.
#[derive(Clone, Debug)]
pub struct SampledSystem {
    /// Deduplicated candidate paths per pair (what gets installed).
    pub system: PathSystem,
    /// The raw draws per pair, with multiplicity, in draw order — the
    /// object the Main Lemma's process manipulates.
    pub raw: Vec<((NodeId, NodeId), Vec<Path>)>,
}

impl SampledSystem {
    /// Number of raw draws for a pair (the `N_{u,v}` of Section 5.3).
    pub fn draws(&self, s: NodeId, t: NodeId) -> usize {
        self.raw
            .iter()
            .find(|((a, b), _)| *a == s && *b == t)
            .map(|(_, v)| v.len())
            .unwrap_or(0)
    }
}

/// Draw `k` paths with replacement from `routing`'s distribution for every
/// pair in `pairs`.
pub fn sample_k<O: ObliviousRouting, R: Rng + ?Sized>(
    routing: &O,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    rng: &mut R,
) -> SampledSystem {
    assert!(k >= 1);
    sample_counts(routing, pairs.iter().map(|&p| (p, k)), rng)
}

/// Draw `k + ⌈mincut(s, t)⌉` paths with replacement per pair — the
/// `(k + cut)`-sample of Corollary 6.2.
pub fn sample_k_plus_cut<O: ObliviousRouting, R: Rng + ?Sized>(
    routing: &O,
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    rng: &mut R,
) -> SampledSystem {
    assert!(k >= 1);
    let with_counts: Vec<((NodeId, NodeId), usize)> = pairs
        .iter()
        .map(|&(s, t)| {
            #[allow(clippy::cast_possible_truncation)]
            let cut = st_min_cut(g, s, t).ceil() as usize;
            ((s, t), k + cut)
        })
        .collect();
    sample_counts(routing, with_counts.into_iter(), rng)
}

/// Shared implementation: per-pair draw counts.
fn sample_counts<O: ObliviousRouting, R: Rng + ?Sized>(
    routing: &O,
    pairs: impl Iterator<Item = ((NodeId, NodeId), usize)>,
    rng: &mut R,
) -> SampledSystem {
    let mut system = PathSystem::new();
    let mut raw = Vec::new();
    for ((s, t), count) in pairs {
        assert!(s != t, "self-pair in sample request");
        let _pair_span = sor_obs::span("sample/pair");
        let mut draws = Vec::with_capacity(count);
        for _ in 0..count {
            let p = routing.sample_path(s, t, rng);
            sor_obs::counter_add!("core/sample/draws");
            sor_obs::observe_into!("core/path/hops", &sor_obs::POW2_BUCKETS, p.hops() as f64);
            if !system.insert(s, t, p.clone()) {
                sor_obs::counter_add!("core/sample/duplicates");
            }
            draws.push(p);
        }
        raw.push(((s, t), draws));
    }
    let out = SampledSystem { system, raw };
    validate_sample(routing.graph(), &out);
    out
}

/// Debug/`validate`-feature self-check: a sampled system must satisfy the
/// path-system invariants, and its sparsity can never exceed the largest
/// per-pair draw count.
fn validate_sample(g: &Graph, sampled: &SampledSystem) {
    if !(cfg!(debug_assertions) || cfg!(feature = "validate")) {
        return;
    }
    let max_draws = sampled.raw.iter().map(|(_, v)| v.len()).max();
    if let Err(msg) = sampled.system.validate_detailed(g, max_draws) {
        // sor-check: allow(unwrap, panic-path) — validator failure means a sampler bug, not recoverable state
        panic!("sampled path system violates its invariants: {msg}");
    }
}

/// The support pairs of a demand, in deterministic order — the usual pair
/// set to sample for.
pub fn demand_pairs(demand: &sor_flow::Demand) -> Vec<(NodeId, NodeId)> {
    demand.entries().iter().map(|&(s, t, _)| (s, t)).collect()
}

/// All ordered pairs of a graph (for full-mesh sampling on small graphs).
pub fn all_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut v = Vec::with_capacity(g.num_nodes() * (g.num_nodes() - 1));
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                v.push((s, t));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;
    use sor_oblivious::{KspRouting, ValiantHypercube};

    #[test]
    fn sample_k_shape() {
        let g = gen::hypercube(4);
        let r = ValiantHypercube::new(g);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = [(NodeId(0), NodeId(15)), (NodeId(1), NodeId(14))];
        let s = sample_k(&r, &pairs, 5, &mut rng);
        assert_eq!(s.raw.len(), 2);
        assert_eq!(s.draws(NodeId(0), NodeId(15)), 5);
        assert!(s.system.sparsity() <= 5);
        assert!(s.system.covers(NodeId(1), NodeId(14)));
        assert!(s.system.validate(r.graph()));
    }

    #[test]
    fn dedup_below_k_when_support_small() {
        // KSP with k=1 has a single support path; 5 draws still give
        // sparsity 1.
        let r = KspRouting::new(gen::path_graph(4), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_k(&r, &[(NodeId(0), NodeId(3))], 5, &mut rng);
        assert_eq!(s.system.sparsity(), 1);
        assert_eq!(s.draws(NodeId(0), NodeId(3)), 5);
    }

    #[test]
    fn cut_scaling() {
        // Dumbbell with 3 bridges: cross pair has mincut 3 → k + 3 draws.
        let g = gen::dumbbell(4, 3);
        let r = KspRouting::new(g.clone(), 8);
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_k_plus_cut(&r, &g, &[(NodeId(0), NodeId(4))], 2, &mut rng);
        assert_eq!(s.draws(NodeId(0), NodeId(4)), 5);
        // intra-clique pair: both endpoints carry a bridge, so the
        // mincut is min-degree 4 → 2 + 4 = 6 draws
        let s2 = sample_k_plus_cut(&r, &g, &[(NodeId(1), NodeId(2))], 2, &mut rng);
        assert_eq!(s2.draws(NodeId(1), NodeId(2)), 6);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::hypercube(3);
        let r = ValiantHypercube::new(g);
        let pairs = [(NodeId(0), NodeId(7))];
        let a = sample_k(&r, &pairs, 4, &mut StdRng::seed_from_u64(9));
        let b = sample_k(&r, &pairs, 4, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.raw[0].1, b.raw[0].1);
    }

    #[test]
    fn helpers() {
        let g = gen::cycle_graph(4);
        assert_eq!(all_pairs(&g).len(), 12);
        let d = sor_flow::Demand::from_pairs([(NodeId(0), NodeId(2))]);
        assert_eq!(demand_pairs(&d), vec![(NodeId(0), NodeId(2))]);
    }

    use sor_graph::NodeId;
}
