//! The Section 8 lower-bound adversary on the two-star family.
//!
//! Every simple path between a left leaf and a right leaf of a
//! [`TwoStar`] crosses exactly one middle vertex, so an `s`-sparse path
//! system commits each leaf pair to a set of at most `s` middles. The
//! Lemma 8.1 pigeonhole finds a small middle set `S` and a large matching
//! of leaf pairs whose *every* candidate path crosses `S`; the matching,
//! read as a permutation demand, then forces congestion `≥ q/|S|` on the
//! system while the offline optimum stays `O(⌈q/r⌉)`.
//!
//! This module implements the adversary as an explicit search: group leaf
//! pairs by their middle sets, consider those sets (and a capped number of
//! pairwise unions) as candidate `S`, and extract a maximum bipartite
//! matching among the pairs confined to each candidate.

use crate::path_system::PathSystem;
use sor_flow::{max_concurrent_flow, Demand};
use sor_graph::gen::TwoStar;
use sor_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// The adversary's output: a hard permutation demand plus its certificate.
#[derive(Clone, Debug)]
pub struct AdversaryResult {
    /// The hard permutation demand (one unit per matched leaf pair).
    pub demand: Demand,
    /// The middle vertices all candidate paths of the demand cross.
    pub hitting_set: Vec<NodeId>,
    /// Number of matched pairs `q`.
    pub matched: usize,
    /// Lower bound on the congestion of *any* routing restricted to the
    /// path system: `q / |S|`.
    pub certified_congestion: f64,
    /// Offline optimal congestion of the demand (upper bound from the MWU
    /// solver).
    pub opt_upper: f64,
}

impl AdversaryResult {
    /// Certified competitive-ratio lower bound: forced congestion over
    /// offline optimum.
    pub fn ratio(&self) -> f64 {
        self.certified_congestion / self.opt_upper.max(1e-12)
    }
}

/// Maximum bipartite matching (Kuhn's augmenting paths) over an adjacency
/// list `adj[left] = rights`.
fn max_matching(nl: usize, nr: usize, adj: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let mut match_r: Vec<Option<usize>> = vec![None; nr];
    let mut match_l: Vec<Option<usize>> = vec![None; nl];
    fn try_kuhn(
        u: usize,
        adj: &[Vec<usize>],
        seen: &mut [bool],
        match_r: &mut [Option<usize>],
        match_l: &mut [Option<usize>],
    ) -> bool {
        for &v in &adj[u] {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            let free_or_moved = match match_r[v] {
                None => true,
                Some(w) => try_kuhn(w, adj, seen, match_r, match_l),
            };
            if free_or_moved {
                match_r[v] = Some(u);
                match_l[u] = Some(v);
                return true;
            }
        }
        false
    }
    for u in 0..nl {
        let mut seen = vec![false; nr];
        try_kuhn(u, adj, &mut seen, &mut match_r, &mut match_l);
    }
    match_l
        .iter()
        .enumerate()
        .filter_map(|(u, v)| v.map(|v| (u, v)))
        .collect()
}

/// Run the adversary against a path system installed on a [`TwoStar`].
/// Pairs without candidate paths are skipped (an honest system covers all
/// leaf pairs). Returns `None` if no leaf pair is covered at all.
pub fn adversarial_demand(ts: &TwoStar, system: &PathSystem) -> Option<AdversaryResult> {
    let m = ts.num_leaves();
    let left: Vec<NodeId> = (0..m).map(|i| ts.left_leaf(i)).collect();
    let right: Vec<NodeId> = (0..m).map(|j| ts.right_leaf(j)).collect();
    // Middle-set signature of each covered leaf pair.
    let mut mids_of: BTreeMap<(usize, usize), BTreeSet<u32>> = BTreeMap::new();
    for (i, &l) in left.iter().enumerate() {
        for (j, &r) in right.iter().enumerate() {
            let paths = system.paths(l, r);
            if paths.is_empty() {
                continue;
            }
            let mut mids = BTreeSet::new();
            for p in paths {
                for v in p.nodes(ts.graph()) {
                    if ts.is_middle(v) {
                        mids.insert(v.0);
                    }
                }
            }
            assert!(
                !mids.is_empty(),
                "a leaf-to-leaf path must cross a middle vertex"
            );
            mids_of.insert((i, j), mids);
        }
    }
    if mids_of.is_empty() {
        return None;
    }

    // Candidate hitting sets: the distinct signatures plus a capped number
    // of pairwise unions (richer S can trade |S| for a larger matching).
    let mut candidates: Vec<BTreeSet<u32>> = mids_of.values().cloned().collect();
    candidates.sort();
    candidates.dedup();
    let base = candidates.clone();
    const UNION_CAP: usize = 40;
    'outer: for (a_idx, a) in base.iter().enumerate() {
        for b in base.iter().skip(a_idx + 1) {
            if candidates.len() >= base.len() + UNION_CAP {
                break 'outer;
            }
            let u: BTreeSet<u32> = a.union(b).copied().collect();
            if !candidates.contains(&u) {
                candidates.push(u);
            }
        }
    }

    type BestCut = (f64, BTreeSet<u32>, Vec<(usize, usize)>);
    let mut best: Option<BestCut> = None;
    for s_set in &candidates {
        // Pairs fully confined to s_set.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (&(i, j), mids) in &mids_of {
            if mids.is_subset(s_set) {
                adj[i].push(j);
            }
        }
        let matching = max_matching(m, m, &adj);
        if matching.is_empty() {
            continue;
        }
        let ratio = matching.len() as f64 / s_set.len() as f64;
        if best
            .as_ref()
            .is_none_or(|(r, _, bm)| ratio > *r || (ratio == *r && matching.len() > bm.len()))
        {
            best = Some((ratio, s_set.clone(), matching));
        }
    }
    let (certified, s_set, matching) = best?;

    let demand = Demand::from_pairs(matching.iter().map(|&(i, j)| (left[i], right[j])));
    let opt = max_concurrent_flow(ts.graph(), &demand, 0.1);
    Some(AdversaryResult {
        matched: matching.len(),
        hitting_set: s_set.iter().map(|&v| NodeId(v)).collect(),
        certified_congestion: certified,
        opt_upper: opt.congestion_upper,
        demand,
    })
}

/// Generic adversarial demand search: hill-climb over permutation
/// (matching) demands to maximize the competitive ratio of a *given*
/// semi-oblivious routing. Unlike [`adversarial_demand`] (which exploits
/// the two-star structure with a certificate), this is a black-box local
/// search usable on any graph — the executable counterpart of "an
/// adversary picks the worst demand in Stage 3". Returns the demand and
/// its measured ratio.
///
/// Moves: swap the targets of two pairs, redirect a pair to an unused
/// vertex, or drop/add a pair; greedy accept. `iters` total proposals.
pub fn search_hard_demand<R: rand::Rng>(
    sor: &crate::semioblivious::SemiObliviousRouting,
    num_pairs: usize,
    eps: f64,
    iters: usize,
    rng: &mut R,
) -> (Demand, f64) {
    use rand::seq::SliceRandom;
    let g = sor.graph();
    let n = g.num_nodes();
    assert!(2 * num_pairs <= n, "matching too large for the graph");

    let ratio_of = |d: &Demand| -> f64 {
        if d.support_size() == 0 || !sor.covers(d) {
            return 0.0;
        }
        let c = sor.congestion(d, eps);
        let opt = max_concurrent_flow(g, d, eps).congestion_upper;
        c / opt.max(1e-12)
    };

    // start from a random matching
    let random_matching = |rng: &mut R| -> Vec<(NodeId, NodeId)> {
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.shuffle(rng);
        (0..num_pairs)
            .map(|i| (nodes[2 * i], nodes[2 * i + 1]))
            .collect()
    };
    let mut pairs = random_matching(rng);
    let mut best_d = Demand::from_pairs(pairs.iter().copied());
    let mut best_r = ratio_of(&best_d);
    // ratio of the *current* climb position (may sit below the global
    // best right after a restart)
    let mut cur_r = best_r;

    // Restart from a fresh random matching after this many proposals
    // without improvement: a single unlucky start can otherwise trap the
    // climb below the plain random-matching baseline.
    let stall_limit = (iters / 4).max(5);
    let mut stalled = 0usize;

    for _ in 0..iters {
        if stalled >= stall_limit {
            stalled = 0;
            let cand = random_matching(rng);
            let d = Demand::from_pairs(cand.iter().copied());
            if d.is_permutation() {
                cur_r = ratio_of(&d);
                pairs = cand;
                if cur_r > best_r {
                    best_r = cur_r;
                    best_d = d;
                }
            }
        }
        let mut cand = pairs.clone();
        match rng.gen_range(0..3) {
            0 if cand.len() >= 2 => {
                // swap targets of two pairs
                let i = rng.gen_range(0..cand.len());
                let j = rng.gen_range(0..cand.len());
                if i != j {
                    let (ti, tj) = (cand[i].1, cand[j].1);
                    cand[i].1 = tj;
                    cand[j].1 = ti;
                }
            }
            1 => {
                // redirect one endpoint to an unused vertex
                let used: std::collections::HashSet<NodeId> =
                    cand.iter().flat_map(|&(a, b)| [a, b]).collect();
                let free: Vec<NodeId> = g.nodes().filter(|v| !used.contains(v)).collect();
                if let Some(&v) = free.as_slice().choose(rng) {
                    let i = rng.gen_range(0..cand.len());
                    if rng.gen_bool(0.5) {
                        cand[i].0 = v;
                    } else {
                        cand[i].1 = v;
                    }
                }
            }
            _ => {
                // reverse a pair's direction
                let i = rng.gen_range(0..cand.len());
                cand[i] = (cand[i].1, cand[i].0);
            }
        }
        if cand.iter().any(|&(a, b)| a == b) {
            stalled += 1;
            continue;
        }
        let d = Demand::from_pairs(cand.iter().copied());
        if !d.is_permutation() {
            stalled += 1;
            continue;
        }
        let r = ratio_of(&d);
        if r > cur_r {
            cur_r = r;
            pairs = cand;
            stalled = 0;
            if r > best_r {
                best_r = r;
                best_d = d;
            }
        } else {
            stalled += 1;
        }
    }
    (best_d, best_r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_k;
    use crate::semioblivious::SemiObliviousRouting;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_oblivious::KspRouting;

    #[test]
    fn hard_demand_search_beats_random() {
        // On the two-star gadget with a sparse system, hill-climbing must
        // find a demand at least as bad as a random matching.
        let ts = TwoStar::new(3, 6);
        let g = ts.graph().clone();
        let base = KspRouting::new(g.clone(), 3);
        let mut rng = StdRng::seed_from_u64(11);
        let pairs = crate::sample::all_pairs(&g);
        let system = sample_k(&base, &pairs, 1, &mut rng).system;
        let sor = SemiObliviousRouting::new(g.clone(), system);
        let eps = 0.2;
        // random baseline
        let mut best_random: f64 = 0.0;
        for seed in 0..3 {
            let mut drng = StdRng::seed_from_u64(100 + seed);
            let d = sor_flow::demand::random_matching(&g, 3, &mut drng);
            if sor.covers(&d) && d.support_size() > 0 {
                let c = sor.congestion(&d, eps);
                let opt = max_concurrent_flow(&g, &d, eps).congestion_upper;
                best_random = best_random.max(c / opt.max(1e-12));
            }
        }
        let (hard, ratio) = search_hard_demand(&sor, 3, eps, 60, &mut rng);
        assert!(hard.is_permutation());
        assert!(
            ratio >= best_random - 1e-9,
            "search ({ratio}) should not lose to random ({best_random})"
        );
        assert!(ratio >= 1.0, "ratio {ratio} below 1");
    }

    /// Install a 1-sparse system on a TwoStar by sampling 1 path per leaf
    /// pair from a KSP routing with random-ish tie-breaking.
    fn one_sparse_system(ts: &TwoStar, seed: u64) -> PathSystem {
        let g = ts.graph().clone();
        let r = KspRouting::new(g, ts.num_middles());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        for i in 0..ts.num_leaves() {
            for j in 0..ts.num_leaves() {
                pairs.push((ts.left_leaf(i), ts.right_leaf(j)));
            }
        }
        sample_k(&r, &pairs, 1, &mut rng).system
    }

    #[test]
    fn adversary_finds_bad_permutation_for_sparse_system() {
        // r = 4 middles, m = 12 leaves, 1 path per pair: pigeonhole forces
        // ≥ 12/4 = 3 pairs through one middle… the adversary should
        // certify congestion ≥ 2 with OPT ≈ 1, i.e. ratio > 1.
        let ts = TwoStar::new(4, 12);
        let system = one_sparse_system(&ts, 3);
        let res = adversarial_demand(&ts, &system).expect("covered pairs exist");
        assert!(res.matched >= 2);
        assert!(
            res.certified_congestion >= 1.5,
            "certified {}",
            res.certified_congestion
        );
        assert!(res.ratio() > 1.2, "ratio {}", res.ratio());
        assert!(res.demand.is_permutation());
    }

    #[test]
    fn certificate_is_honest() {
        // The actual restricted routing congestion must be at least the
        // certificate.
        let ts = TwoStar::new(3, 9);
        let system = one_sparse_system(&ts, 5);
        let res = adversarial_demand(&ts, &system).expect("covered");
        let sor = SemiObliviousRouting::new(ts.graph().clone(), system);
        if sor.covers(&res.demand) {
            let actual = sor.congestion(&res.demand, 0.1);
            assert!(
                actual >= res.certified_congestion * 0.9,
                "actual {actual} below certificate {}",
                res.certified_congestion
            );
        }
    }

    #[test]
    fn dense_system_defeats_adversary() {
        // With all r middles available per pair the certificate can't
        // exceed q/r ≈ OPT, so the ratio stays near 1.
        let ts = TwoStar::new(4, 8);
        let g = ts.graph().clone();
        let r = KspRouting::new(g, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut pairs = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pairs.push((ts.left_leaf(i), ts.right_leaf(j)));
            }
        }
        // sample enough to (almost surely) see every middle per pair
        let system = sample_k(&r, &pairs, 40, &mut rng).system;
        let res = adversarial_demand(&ts, &system).expect("covered");
        assert!(
            res.ratio() < 2.5,
            "dense system should not be very exploitable, got ratio {}",
            res.ratio()
        );
    }

    #[test]
    fn matching_is_a_matching() {
        let adj = vec![vec![0, 1], vec![0], vec![0]];
        let m = max_matching(3, 2, &adj);
        assert_eq!(m.len(), 2);
        let mut ls: Vec<_> = m.iter().map(|&(l, _)| l).collect();
        let mut rs: Vec<_> = m.iter().map(|&(_, r)| r).collect();
        ls.sort();
        rs.sort();
        ls.dedup();
        rs.dedup();
        assert_eq!(ls.len(), 2);
        assert_eq!(rs.len(), 2);
    }
}
