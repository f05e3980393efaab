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
//! [`PathSystem`] *and* the raw multiset of draws, as indices into the
//! system: the dynamic deletion process (Section 5.3) analyses the
//! multiset, while routing uses the set.

use crate::path_system::PathSystem;
use rand::Rng;
use sor_graph::{st_min_cut, Graph, NodeId};
use sor_oblivious::routing::ObliviousRouting;

/// The result of sampling an oblivious routing over a set of pairs.
#[derive(Clone, Debug)]
pub struct SampledSystem {
    /// Deduplicated candidate paths per pair (what gets installed).
    pub system: PathSystem,
    /// The raw draws per pair, with multiplicity, in draw order — the
    /// object the Main Lemma's process manipulates. Each draw is an index
    /// into `system.paths(s, t)`.
    pub raw: Vec<((NodeId, NodeId), Vec<u32>)>,
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
        let (distinct, mut draws) = routing.sample_distinct(s, t, count, rng);
        let fresh = system.insert_draws(routing.graph(), s, t, distinct, &mut draws);
        let paths = system.paths(s, t);
        for &i in &draws {
            let hops = paths.get(i as usize).hops();
            sor_obs::observe_into!("core/path/hops", hops as f64);
        }
        sor_obs::counter_add!("core/sample/draws", count as u64);
        if fresh < count {
            sor_obs::counter_add!("core/sample/duplicates", (count - fresh) as u64);
        }
        raw.push(((s, t), draws));
    }
    let out = SampledSystem { system, raw };
    validate_sample(routing.graph(), &out);
    out
}

/// Debug/`validate`-feature self-check: a sampled system must satisfy the
/// path-system invariants, its sparsity can never exceed the largest
/// per-pair draw count (summed over a pair's repeats), and every draw must
/// index one of its pair's candidates.
fn validate_sample(g: &Graph, sampled: &SampledSystem) {
    if !(cfg!(debug_assertions) || cfg!(feature = "validate")) {
        return;
    }
    let mut draws_of = std::collections::BTreeMap::new();
    for (pair, draws) in &sampled.raw {
        *draws_of.entry(*pair).or_insert(0) += draws.len();
    }
    let max_draws = draws_of.into_values().max();
    if let Err(msg) = sampled.system.validate_detailed(g, max_draws) {
        // sor-check: allow(unwrap, panic-path) — validator failure means a sampler bug, not recoverable state
        panic!("sampled path system violates its invariants: {msg}");
    }
    for ((s, t), draws) in &sampled.raw {
        let candidates = sampled.system.paths(*s, *t).len();
        if let Some(&i) = draws.iter().find(|&&i| i as usize >= candidates) {
            // sor-check: allow(unwrap, panic-path) — validator failure means a sampler bug, not recoverable state
            panic!("pair {s}→{t} draws candidate {i} of {candidates}");
        }
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
    use crate::path_system::reference::VecSystem;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use sor_graph::gen;
    use sor_oblivious::{KspRouting, RaeckeRouting, ValiantHypercube};

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
        assert_eq!(a.system, b.system);
        assert_eq!(a.raw[0].1, b.raw[0].1);
    }

    /// Seed offsets of the reference checks; 40 is the original set.
    const SEED_BASES: [u64; 3] = [40, 140, 240];

    /// Raw draws as [`SampledSystem::raw`] files them.
    type Raw = Vec<((NodeId, NodeId), Vec<u32>)>;

    /// The per-draw reference: one `sample_path` per draw, each inserted
    /// into a [`VecSystem`] (one owned `Path` per candidate), the raw draws
    /// kept under their pair as indices into that pair's paths.
    fn per_draw_reference<O: ObliviousRouting>(
        routing: &O,
        counts: &[((NodeId, NodeId), usize)],
        rng: &mut StdRng,
    ) -> (VecSystem, Raw) {
        let mut system = VecSystem::default();
        let mut raw = Vec::new();
        for &((s, t), count) in counts {
            let draws: Vec<u32> = (0..count)
                .map(|_| system.index_or_push(s, t, routing.sample_path(s, t, rng)))
                .collect();
            raw.push(((s, t), draws));
        }
        (system, raw)
    }

    /// `sampled` holds the reference's pairs and paths in the same order,
    /// files the same draw indices under the same pairs in the same order,
    /// and left `rng` where the reference left its own.
    fn assert_matches_reference(
        g: &Graph,
        sampled: &SampledSystem,
        reference: &(VecSystem, Raw),
        rng: &mut StdRng,
        reference_rng: &mut StdRng,
    ) {
        reference.0.assert_matches(&sampled.system, g);
        assert_eq!(sampled.raw, reference.1, "raw draws by pair");
        assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG position");
    }

    /// Both samplers against the per-draw reference, seeded `base + k` for
    /// each draw count `k`, on `pairs` plus a repeat of the first pair (its
    /// second draws land in a partly filled candidate list).
    fn check_against_reference<O: ObliviousRouting>(
        routing: &O,
        g: &Graph,
        pairs: &[(NodeId, NodeId)],
        base: u64,
    ) {
        let mut pairs = pairs.to_vec();
        pairs.push(pairs[0]);
        for k in [1, 3, 11, 20] {
            let seed = base + k as u64;
            let counts: Vec<_> = pairs.iter().map(|&p| (p, k)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let sampled = sample_k(routing, &pairs, k, &mut rng);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let reference = per_draw_reference(routing, &counts, &mut reference_rng);
            assert_matches_reference(g, &sampled, &reference, &mut rng, &mut reference_rng);

            #[allow(clippy::cast_possible_truncation)]
            let counts: Vec<_> = pairs
                .iter()
                .map(|&(s, t)| ((s, t), k + st_min_cut(g, s, t).ceil() as usize))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let sampled = sample_k_plus_cut(routing, g, &pairs, k, &mut rng);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let reference = per_draw_reference(routing, &counts, &mut reference_rng);
            assert_matches_reference(g, &sampled, &reference, &mut rng, &mut reference_rng);
        }
    }

    #[test]
    fn raecke_sampling_matches_the_per_draw_reference() {
        let graphs = [
            gen::grid(5, 5),
            gen::random_regular(32, 4, &mut StdRng::seed_from_u64(8)),
            gen::hypercube(5),
            gen::abilene(),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let routing = RaeckeRouting::build(g.clone(), 8, &mut rng);
            let pairs = demand_pairs(&sor_flow::demand::random_permutation(&g, &mut rng));
            for base in SEED_BASES {
                check_against_reference(&routing, &g, &pairs, base);
            }
        }
    }

    #[test]
    fn default_sample_distinct_matches_the_per_draw_reference() {
        // Valiant and KSP keep the trait's default `sample_distinct`.
        let g = gen::hypercube(4);
        let pairs = demand_pairs(&sor_flow::demand::random_permutation(
            &g,
            &mut StdRng::seed_from_u64(5),
        ));
        for base in SEED_BASES {
            check_against_reference(&ValiantHypercube::new(g.clone()), &g, &pairs, base);
            check_against_reference(&KspRouting::new(g.clone(), 4), &g, &pairs, base);
        }
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
