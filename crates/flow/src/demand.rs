//! Demands (Definition 2.2) and the generators the experiments draw from.

use rand::seq::SliceRandom;
use rand::Rng;
use sor_graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// A demand: a sparse map from ordered vertex pairs to nonnegative reals.
///
/// Entries are kept merged (one entry per pair) and sorted, so iteration
/// order — and therefore every downstream randomized algorithm seeded the
/// same way — is deterministic.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Demand {
    entries: Vec<(NodeId, NodeId, f64)>,
}

impl Demand {
    /// The empty demand.
    pub fn new() -> Self {
        Demand::default()
    }

    /// Build from (source, target, amount) triples; duplicate pairs are
    /// summed, zero amounts dropped. Panics on `s == t`, negative or
    /// non-finite amounts.
    pub fn from_triples(triples: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut map: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for (s, t, a) in triples {
            assert!(s != t, "demand between a vertex and itself");
            assert!(a.is_finite() && a >= 0.0, "demand must be finite and >= 0");
            if a > 0.0 {
                *map.entry((s.0, t.0)).or_insert(0.0) += a;
            }
        }
        Demand {
            entries: map
                .into_iter()
                .map(|((s, t), a)| (NodeId(s), NodeId(t), a))
                .collect(),
        }
    }

    /// Build a unit demand (amount 1) for each listed pair, merging
    /// duplicates.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        Demand::from_triples(pairs.into_iter().map(|(s, t)| (s, t, 1.0)))
    }

    /// Add `amount` to pair `(s, t)`.
    pub fn add(&mut self, s: NodeId, t: NodeId, amount: f64) {
        assert!(s != t && amount.is_finite() && amount >= 0.0);
        // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
        if amount == 0.0 {
            return;
        }
        match self
            .entries
            .binary_search_by_key(&(s.0, t.0), |&(a, b, _)| (a.0, b.0))
        {
            Ok(i) => self.entries[i].2 += amount,
            Err(i) => self.entries.insert(i, (s, t, amount)),
        }
    }

    /// The merged entries, sorted by pair.
    pub fn entries(&self) -> &[(NodeId, NodeId, f64)] {
        &self.entries
    }

    /// Number of pairs with positive demand (`|supp(D)|`).
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Total demand (the paper's `|D| = Σ D(u,v)`).
    pub fn size(&self) -> f64 {
        self.entries.iter().map(|&(_, _, a)| a).sum()
    }

    /// Largest single-pair amount.
    pub fn max_entry(&self) -> f64 {
        self.entries.iter().map(|&(_, _, a)| a).fold(0.0, f64::max)
    }

    /// Whether every amount is ≤ 1 (a "1-demand").
    pub fn is_one_demand(&self) -> bool {
        self.entries.iter().all(|&(_, _, a)| a <= 1.0 + 1e-12)
    }

    /// Whether the demand is integral.
    pub fn is_integral(&self) -> bool {
        self.entries
            .iter()
            .all(|&(_, _, a)| (a - a.round()).abs() < 1e-9)
    }

    /// Whether this is a permutation demand (Definition 2.2): a 1-demand
    /// where every vertex appears at most once as a source and at most
    /// once as a target.
    pub fn is_permutation(&self) -> bool {
        if !self.is_one_demand() {
            return false;
        }
        let mut sources = std::collections::HashSet::new();
        let mut targets = std::collections::HashSet::new();
        for &(s, t, _) in &self.entries {
            if !sources.insert(s) || !targets.insert(t) {
                return false;
            }
        }
        true
    }

    /// The demand with every amount multiplied by `factor ≥ 0`.
    pub fn scaled(&self, factor: f64) -> Demand {
        assert!(factor.is_finite() && factor >= 0.0);
        Demand {
            entries: self
                .entries
                .iter()
                .filter(|&&(_, _, a)| a * factor > 0.0)
                .map(|&(s, t, a)| (s, t, a * factor))
                .collect(),
        }
    }

    /// Pointwise sum of two demands.
    pub fn plus(&self, other: &Demand) -> Demand {
        Demand::from_triples(self.entries.iter().chain(other.entries.iter()).copied())
    }

    /// Split into `(kept, rest)` by a pair predicate.
    pub fn partition(&self, mut keep: impl FnMut(NodeId, NodeId, f64) -> bool) -> (Demand, Demand) {
        let (a, b): (Vec<_>, Vec<_>) = self
            .entries
            .iter()
            .copied()
            .partition(|&(s, t, x)| keep(s, t, x));
        (Demand { entries: a }, Demand { entries: b })
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A uniformly random permutation demand over all `n` vertices (fixed
/// points dropped, so the support is typically `n − O(1)` pairs).
pub fn random_permutation<R: Rng>(g: &Graph, rng: &mut R) -> Demand {
    let mut targets: Vec<NodeId> = g.nodes().collect();
    targets.shuffle(rng);
    Demand::from_pairs(g.nodes().zip(targets).filter(|&(s, t)| s != t))
}

/// A random partial permutation demand on `k` disjoint pairs.
pub fn random_matching<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Demand {
    let n = g.num_nodes();
    assert!(2 * k <= n, "matching too large");
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(rng);
    Demand::from_pairs((0..k).map(|i| (nodes[2 * i], nodes[2 * i + 1])))
}

/// A random 1-demand on `pairs` uniformly random (not necessarily
/// disjoint) vertex pairs, each with a uniform amount in `(0, 1]`.
pub fn random_one_demand<R: Rng>(g: &Graph, pairs: usize, rng: &mut R) -> Demand {
    let n = g.num_nodes();
    let mut d = Demand::new();
    let mut placed = 0;
    while placed < pairs {
        let s = NodeId::from_usize(rng.gen_range(0..n));
        let t = NodeId::from_usize(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        // keep amounts in (0,1] so the merged demand stays close to a
        // 1-demand; exact 1-demands use `random_matching`.
        d.add(s, t, rng.gen_range(0.1..=1.0));
        placed += 1;
    }
    d
}

/// A random *integral* demand: `pairs` random pairs with integer amounts
/// in `1..=max_amount` (duplicates merge, so single-pair totals can grow).
pub fn random_integral_demand<R: Rng>(
    g: &Graph,
    pairs: usize,
    max_amount: u32,
    rng: &mut R,
) -> Demand {
    assert!(max_amount >= 1);
    let n = g.num_nodes();
    let mut d = Demand::new();
    let mut placed = 0;
    while placed < pairs {
        let s = NodeId::from_usize(rng.gen_range(0..n));
        let t = NodeId::from_usize(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        d.add(s, t, rng.gen_range(1..=max_amount) as f64);
        placed += 1;
    }
    d
}

/// Gravity-model demand over the given endpoints: pair `(u, v)` gets
/// `mass(u)·mass(v) / Σ mass` scaled so the total is `total`. The standard
/// traffic-matrix model in TE evaluations \[KYF+18\].
pub fn gravity(endpoints: &[NodeId], mass: &[f64], total: f64) -> Demand {
    assert_eq!(endpoints.len(), mass.len());
    assert!(mass.iter().all(|&m| m >= 0.0));
    let sum: f64 = mass.iter().sum();
    assert!(sum > 0.0, "total mass must be positive");
    let mut triples = Vec::new();
    let mut gross = 0.0;
    for (i, &u) in endpoints.iter().enumerate() {
        for (j, &v) in endpoints.iter().enumerate() {
            if i == j {
                continue;
            }
            let a = mass[i] * mass[j];
            gross += a;
            triples.push((u, v, a));
        }
    }
    let scale = total / gross;
    Demand::from_triples(triples.into_iter().map(|(u, v, a)| (u, v, a * scale)))
}

/// A Zipf-skewed demand: `pairs` random pairs whose amounts follow a
/// Zipf(`alpha`) profile scaled so the largest entry is `max_amount` —
/// the heavy-tailed matrices that make the Lemma 5.9 bucketing machinery
/// earn its keep.
pub fn zipf_demand<R: Rng>(
    g: &Graph,
    pairs: usize,
    alpha: f64,
    max_amount: f64,
    rng: &mut R,
) -> Demand {
    assert!(pairs >= 1 && alpha >= 0.0 && max_amount > 0.0);
    let n = g.num_nodes();
    let mut d = Demand::new();
    let mut rank = 1usize;
    while rank <= pairs {
        let s = NodeId::from_usize(rng.gen_range(0..n));
        let t = NodeId::from_usize(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        d.add(s, t, max_amount / (rank as f64).powf(alpha));
        rank += 1;
    }
    d
}

/// A sequence of `steps` traffic matrices drifting from `base`: each step
/// multiplies every entry by an independent factor in
/// `[1−jitter, 1+jitter]` of the *base* matrix (bounded drift, the
/// "TM snapshot every few minutes" model of semi-oblivious TE).
pub fn perturbed_sequence<R: Rng>(
    base: &Demand,
    steps: usize,
    jitter: f64,
    rng: &mut R,
) -> Vec<Demand> {
    assert!((0.0..1.0).contains(&jitter));
    (0..steps)
        .map(|_| {
            Demand::from_triples(base.entries().iter().map(|&(s, t, a)| {
                let factor = 1.0 + rng.gen_range(-jitter..=jitter);
                (s, t, a * factor)
            }))
        })
        .collect()
}

/// The all-pairs uniform demand with per-pair amount `amount`.
pub fn uniform_all_pairs(g: &Graph, amount: f64) -> Demand {
    let mut triples = Vec::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                triples.push((s, t, amount));
            }
        }
    }
    Demand::from_triples(triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;

    #[test]
    fn merge_and_size() {
        let d = Demand::from_triples([
            (NodeId(0), NodeId(1), 0.5),
            (NodeId(0), NodeId(1), 0.25),
            (NodeId(2), NodeId(3), 1.0),
            (NodeId(4), NodeId(5), 0.0),
        ]);
        assert_eq!(d.support_size(), 2);
        assert!((d.size() - 1.75).abs() < 1e-12);
        assert!((d.max_entry() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_merges_in_place() {
        let mut d = Demand::new();
        d.add(NodeId(3), NodeId(1), 1.0);
        d.add(NodeId(0), NodeId(2), 1.0);
        d.add(NodeId(3), NodeId(1), 2.0);
        assert_eq!(d.support_size(), 2);
        assert_eq!(d.entries()[0].0, NodeId(0)); // sorted
        assert!((d.entries()[1].2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_checks() {
        let p = Demand::from_pairs([(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        assert!(p.is_permutation());
        // a vertex may appear once as source AND once as target
        let chain = Demand::from_pairs([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        assert!(chain.is_permutation());
        let dup_src = Demand::from_pairs([(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]);
        assert!(!dup_src.is_permutation());
        let dup_tgt = Demand::from_pairs([(NodeId(1), NodeId(2)), (NodeId(3), NodeId(2))]);
        assert!(!dup_tgt.is_permutation());
        let heavy = Demand::from_triples([(NodeId(0), NodeId(1), 2.0)]);
        assert!(!heavy.is_permutation());
        assert!(heavy.is_integral());
        assert!(!heavy.is_one_demand());
    }

    #[test]
    fn random_permutation_is_permutation() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(1);
        let d = random_permutation(&g, &mut rng);
        assert!(d.is_permutation());
        assert!(d.support_size() >= g.num_nodes() - 4);
    }

    #[test]
    fn random_matching_disjoint() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let d = random_matching(&g, 5, &mut rng);
        assert_eq!(d.support_size(), 5);
        assert!(d.is_permutation());
    }

    #[test]
    fn gravity_total_and_shape() {
        let eps: Vec<NodeId> = (0..4).map(NodeId).collect();
        let d = gravity(&eps, &[1.0, 2.0, 3.0, 4.0], 10.0);
        assert!((d.size() - 10.0).abs() < 1e-9);
        assert_eq!(d.support_size(), 12);
        // heaviest pair is (3,4)-massed one
        let heaviest = d
            .entries()
            .iter()
            .cloned()
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        assert!(
            (heaviest.0 == NodeId(2) && heaviest.1 == NodeId(3))
                || (heaviest.0 == NodeId(3) && heaviest.1 == NodeId(2))
        );
    }

    #[test]
    fn scaled_and_plus() {
        let d = Demand::from_pairs([(NodeId(0), NodeId(1))]);
        let e = d.scaled(2.5).plus(&d);
        assert!((e.entries()[0].2 - 3.5).abs() < 1e-12);
        assert_eq!(d.scaled(0.0).support_size(), 0);
    }

    #[test]
    fn partition_splits() {
        let d = Demand::from_triples([(NodeId(0), NodeId(1), 0.5), (NodeId(2), NodeId(3), 2.0)]);
        let (big, small) = d.partition(|_, _, a| a > 1.0);
        assert_eq!(big.support_size(), 1);
        assert_eq!(small.support_size(), 1);
        assert!((big.size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_all_pairs_count() {
        let g = gen::cycle_graph(5);
        let d = uniform_all_pairs(&g, 0.5);
        assert_eq!(d.support_size(), 20);
        assert!((d.size() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_skewed() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let d = zipf_demand(&g, 20, 1.0, 100.0, &mut rng);
        assert!((d.max_entry() - 100.0).abs() < 1e-9);
        // the tail entry is ~100/20 = 5 (merging can only raise it)
        let min = d
            .entries()
            .iter()
            .map(|&(_, _, a)| a)
            .fold(f64::INFINITY, f64::min);
        assert!(min <= 100.0 / 19.0 + 1e-9, "min {min}");
    }

    #[test]
    fn perturbed_sequence_bounded_drift() {
        let base = Demand::from_triples([(NodeId(0), NodeId(1), 2.0), (NodeId(2), NodeId(3), 4.0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let seq = perturbed_sequence(&base, 5, 0.2, &mut rng);
        assert_eq!(seq.len(), 5);
        for tm in &seq {
            assert_eq!(tm.support_size(), base.support_size());
            for (&(_, _, a), &(_, _, b)) in tm.entries().iter().zip(base.entries()) {
                assert!(a >= b * 0.8 - 1e-12 && a <= b * 1.2 + 1e-12);
            }
        }
    }

    #[test]
    fn integral_demand_is_integral() {
        let g = gen::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let d = random_integral_demand(&g, 10, 5, &mut rng);
        assert!(d.is_integral());
        assert!(d.size() >= 10.0);
    }
}
