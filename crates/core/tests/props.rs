//! Property-based tests for the semi-oblivious core: sampling, the
//! deletion process, bad patterns, bucketing.
//!
//! Failing cases are recorded in `props.proptest-regressions` (one
//! deduplicated `cc <hash>` line per minimal counterexample) and re-run
//! before new cases; see that file's header for the recording policy.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::patterns::{is_bad_pattern, pattern_of_run};
use sor_core::process::deletion_process;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::special::{bucketize, dominating_special, is_special};
use sor_core::SemiObliviousRouting;
use sor_flow::Demand;
use sor_graph::{gen, Graph, NodeId};
use sor_oblivious::KspRouting;

fn arb_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.9);
    gen::erdos_renyi_connected(n, p, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A failed deletion-process run always witnesses a bad pattern
    /// (Lemma 5.12 as code), and a successful run never does.
    #[test]
    fn failed_runs_witness_bad_patterns(seed in 0u64..300, n in 6usize..12, k in 1usize..5) {
        let g = arb_graph(n, seed);
        let base = KspRouting::new(g.clone(), 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x99);
        let dm = Demand::from_pairs([
            (NodeId(0), NodeId::from_usize(n - 1)),
            (NodeId(1), NodeId::from_usize(n - 2)),
            (NodeId(2), NodeId::from_usize(n - 3)),
        ]);
        let sampled = sample_k(&base, &demand_pairs(&dm), k, &mut rng);
        let tau = 0.8; // low threshold so failures occur regularly
        let out = deletion_process(&g, &sampled, &dm, tau);
        let theta = 1.0 / k as f64;
        let total_draws = dm.support_size() * k;
        let witness = pattern_of_run(&out.deleted_at, theta, total_draws);
        // Lemma 5.12 direction: every failed run witnesses a pattern. (At
        // the exact half-deleted boundary both weak success and a witness
        // can hold, so only the implications are asserted.)
        if !out.weak_success() {
            prop_assert!(witness.is_some(), "failed run must witness a pattern");
        }
        if witness.is_none() {
            prop_assert!(out.weak_success(), "witness-free run must be a success");
        }
        if let Some(pat) = witness {
            // the witness satisfies the bad-pattern predicate with the
            // run's own budget
            let total: u64 = pat.iter().sum();
            prop_assert!(is_bad_pattern(&pat, 1, (total_draws as u64) / 2, total.max(total_draws as u64)));
        }
    }

    /// Bucketing conserves demand exactly and its dominating specials are
    /// special and dominating (Lemma 5.9's two requirements).
    #[test]
    fn bucketing_invariants(seed in 0u64..200, n in 6usize..12, entries in 2usize..6) {
        let g = arb_graph(n, seed);
        let base = KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xaa);
        let dm = sor_flow::demand::random_one_demand(&g, entries, &mut rng);
        if dm.support_size() == 0 { return Ok(()); }
        let sampled = sample_k(&base, &demand_pairs(&dm), 3, &mut rng);
        let draws = |a: NodeId, b: NodeId| sampled.draws(a, b);
        let buckets = bucketize(&dm, draws, 6);
        let total: f64 = buckets.iter().map(Demand::size).sum();
        prop_assert!((total - dm.size()).abs() < 1e-9);
        for bucket in buckets.iter().filter(|b| b.support_size() > 0) {
            let dom = dominating_special(bucket, draws);
            // dominating: entrywise ≥ bucket
            for (&(_, _, a), &(_, _, b)) in bucket.entries().iter().zip(dom.entries()) {
                prop_assert!(b >= a - 1e-12);
            }
            // special: ratio is constant on the support
            let theta = dom.entries()[0].2 / draws(dom.entries()[0].0, dom.entries()[0].1) as f64;
            prop_assert!(is_special(&dom, &sampled, theta));
        }
    }

    /// Sampling more paths (same seed) yields a superset system, so the
    /// adapted congestion is monotone up to solver noise.
    #[test]
    fn sparsity_monotone(seed in 0u64..150, n in 6usize..11) {
        let g = arb_graph(n, seed);
        let base = KspRouting::new(g.clone(), 4);
        let dm = Demand::from_pairs([(NodeId(0), NodeId::from_usize(n - 1))]);
        let pairs = demand_pairs(&dm);
        let sys_small = sample_k(&base, &pairs, 2, &mut StdRng::seed_from_u64(seed)).system;
        let sys_large = sample_k(&base, &pairs, 6, &mut StdRng::seed_from_u64(seed)).system;
        // prefix property: the first 2 draws coincide, so small ⊆ large
        for (s, t, paths) in sys_small.pairs() {
            for p in paths {
                prop_assert!(sys_large.paths(s, t).position(p.edges()).is_some());
            }
        }
        let c_small = SemiObliviousRouting::new(g.clone(), sys_small).congestion(&dm, 0.1);
        let c_large = SemiObliviousRouting::new(g, sys_large).congestion(&dm, 0.1);
        prop_assert!(c_large <= c_small * 1.3 + 1e-9,
            "larger system should not be much worse: {} vs {}", c_large, c_small);
    }
}

/// Lemma 5.14's probability calculus, Monte-Carlo: the probability that
/// two *disjoint* draw-subsets simultaneously exceed their thresholds is
/// at most the product of the individual Chernoff tails (negative
/// association / Lemma B.4), and the measured frequencies respect both
/// the individual and the product bounds.
#[test]
fn pattern_probability_product_bound() {
    use rand::Rng;
    use sor_core::negassoc::chernoff_upper_tail;

    let k = 10usize; // draws per pair, uniform over 2 arcs
    let a = 8usize; // threshold: ≥ 8 of 10 on the "watched" arc
    let trials = 20_000usize;
    let mut rng = StdRng::seed_from_u64(31);
    let (mut hit1, mut hit2, mut hit_both) = (0usize, 0usize, 0usize);
    for _ in 0..trials {
        let x1: usize = (0..k).map(|_| usize::from(rng.gen_bool(0.5))).sum();
        let x2: usize = (0..k).map(|_| usize::from(rng.gen_bool(0.5))).sum();
        if x1 >= a {
            hit1 += 1;
        }
        if x2 >= a {
            hit2 += 1;
        }
        if x1 >= a && x2 >= a {
            hit_both += 1;
        }
    }
    let p1 = hit1 as f64 / trials as f64;
    let p2 = hit2 as f64 / trials as f64;
    let pb = hit_both as f64 / trials as f64;
    let tail = chernoff_upper_tail(k as f64 / 2.0, a as f64);
    assert!(p1 <= tail + 0.01, "measured {p1} above Chernoff {tail}");
    assert!(p2 <= tail + 0.01);
    let product = (tail * tail).min(1.0);
    assert!(
        pb <= product + 0.005,
        "joint frequency {pb} above product bound {product}"
    );
    // and the joint frequency factorizes for independent pairs
    assert!((pb - p1 * p2).abs() < 0.01);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Codec robustness: arbitrary single-byte corruptions of a serialized
    /// path system either parse to a *valid* system or return an error —
    /// never panic, never produce an invalid path.
    #[test]
    fn portable_corruption_never_panics(seed in 0u64..200, pos_frac in 0.0f64..1.0, byte in 0u8..128) {
        use sor_core::{system_from_text, system_to_text};
        let g = gen::cycle_graph(8);
        let base = KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = vec![(NodeId(0), NodeId(4)), (NodeId(1), NodeId(5))];
        let system = sample_k(&base, &pairs, 2, &mut rng).system;
        let mut text = system_to_text(&system).into_bytes();
        if !text.is_empty() {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let pos = ((pos_frac * text.len() as f64) as usize).min(text.len() - 1);
            text[pos] = byte;
        }
        if let Ok(text) = String::from_utf8(text) {
            if let Ok(sys) = system_from_text(&g, &text) {
                prop_assert!(sys.validate(&g), "corrupted parse produced invalid system");
            }
        }
    }
}
