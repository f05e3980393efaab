//! Property-based tests for the flow solvers over random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_flow::demand::{random_matching, random_one_demand};
use sor_flow::exact::{
    all_simple_paths, exact_integral_opt, exact_integral_restricted, exact_single_pair_fractional,
};
use sor_flow::restricted::{restricted_min_congestion, RestrictedEntry};
use sor_flow::rounding::round_and_improve;
use sor_flow::{max_concurrent_flow, Demand, EdgeLoads};
use sor_graph::{gen, yen_ksp, Graph, NodeId, PathList};

fn arb_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.9);
    gen::erdos_renyi_connected(n, p, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The MWU solver's sandwich brackets the *closed-form* single-pair
    /// optimum `d / maxflow(s, t)` — ground truth, no approximation.
    #[test]
    fn mwu_brackets_exact_single_pair(seed in 0u64..300, n in 5usize..12, d in 0.5f64..4.0) {
        let g = arb_graph(n, seed);
        let s = NodeId(0);
        let t = NodeId::from_usize(n - 1);
        let truth = exact_single_pair_fractional(&g, s, t, d);
        let dm = Demand::from_triples([(s, t, d)]);
        let r = max_concurrent_flow(&g, &dm, 0.08);
        prop_assert!(r.congestion_lower <= truth + 1e-9,
            "dual bound {} above true OPT {}", r.congestion_lower, truth);
        prop_assert!(r.congestion_upper >= truth - 1e-9,
            "primal {} below true OPT {}", r.congestion_upper, truth);
        prop_assert!(r.congestion_upper <= truth * 1.25 + 1e-9,
            "primal {} too far above true OPT {}", r.congestion_upper, truth);
    }

    /// The MCF sandwich always holds, and the gap is controlled by ε.
    #[test]
    fn mcf_sandwich(seed in 0u64..300, n in 5usize..11, pairs in 1usize..4) {
        let g = arb_graph(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
        let dm = random_matching(&g, pairs.min(n / 2), &mut rng);
        if dm.support_size() == 0 { return Ok(()); }
        let r = max_concurrent_flow(&g, &dm, 0.1);
        prop_assert!(r.congestion_lower <= r.congestion_upper + 1e-9);
        prop_assert!(r.gap() < 1.6, "gap {} too loose at eps=0.1", r.gap());
        // loads match the path decomposition
        let mut rebuilt = EdgeLoads::for_graph(&g);
        for (_, p, w) in &r.paths {
            rebuilt.add_path(p, *w);
        }
        for e in g.edge_ids() {
            prop_assert!((rebuilt.load(e) - r.loads.load(e)).abs() < 1e-6);
        }
    }

    /// Restricting to a path system can only increase congestion, and
    /// offering *all* simple paths matches the unrestricted optimum.
    #[test]
    fn restriction_monotone(seed in 0u64..200, n in 5usize..9) {
        let g = arb_graph(n, seed);
        let s = NodeId(0);
        let t = NodeId::from_usize(n - 1);
        let dm = Demand::from_pairs([(s, t)]);
        let eps = 0.08;
        let free = max_concurrent_flow(&g, &dm, eps);
        let all = all_simple_paths(&g, s, t);
        let first = PathList::from_paths(s, &all[..1]);
        let all = PathList::from_paths(s, &all);
        let entries = [RestrictedEntry { s, t, demand: 1.0, paths: &all }];
        let full = restricted_min_congestion(&g, &entries, eps);
        // full path set ≈ unrestricted (both are (1+O(eps))-approx)
        prop_assert!(full.congestion <= free.congestion_upper * 1.25 + 1e-9);
        prop_assert!(free.congestion_upper <= full.congestion * 1.25 + 1e-9);
        // single-path restriction is at least as congested
        let one = [RestrictedEntry { s, t, demand: 1.0, paths: &first }];
        let single = restricted_min_congestion(&g, &one, eps);
        prop_assert!(single.congestion >= full.congestion - 1e-6);
    }

    /// Rounding conserves demands and never drives loads negative; its
    /// congestion is within the Lemma 6.3 envelope of the fractional one.
    #[test]
    fn rounding_envelope(seed in 0u64..200, n in 6usize..11, units in 1u32..5) {
        let g = arb_graph(n, seed);
        let s = NodeId(0);
        let t = NodeId::from_usize(n - 1);
        let paths = PathList::from_paths(s, &yen_ksp(&g, s, t, 3, &g.unit_lengths()));
        let entries = [RestrictedEntry {
            s,
            t,
            demand: units as f64,
            paths: &paths,
        }];
        let frac = restricted_min_congestion(&g, &entries, 0.1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x60);
        let sol = round_and_improve(&g, &entries, &frac.weights, 10, &mut rng);
        prop_assert_eq!(sol.counts[0].iter().sum::<u32>(), units);
        for e in g.edge_ids() {
            prop_assert!(sol.loads.load(e) >= -1e-9);
        }
        let m = g.num_edges() as f64;
        prop_assert!(
            sol.congestion <= 4.0 * frac.congestion + 2.0 * m.ln() + 1.0,
            "rounded congestion {} far above fractional {}",
            sol.congestion,
            frac.congestion
        );
    }

    /// Exact tiny-case optimum dominates the fractional lower bound and is
    /// dominated by any specific assignment.
    #[test]
    fn exact_brackets(seed in 0u64..150, n in 5usize..8) {
        let g = arb_graph(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70);
        let dm = random_one_demand(&g, 2, &mut rng);
        // make it integral: round amounts up to 1
        let dm = Demand::from_triples(dm.entries().iter().map(|&(s, t, _)| (s, t, 1.0)));
        let exact = exact_integral_opt(&g, &dm);
        let frac = max_concurrent_flow(&g, &dm, 0.1);
        prop_assert!(exact + 1e-9 >= frac.congestion_lower,
            "exact integral {} below fractional lower bound {}", exact, frac.congestion_lower);
        // a specific assignment: first simple path per pair
        let path_sets: Vec<_> = dm
            .entries()
            .iter()
            .map(|&(s, t, _)| all_simple_paths(&g, s, t))
            .collect();
        let mut loads = EdgeLoads::for_graph(&g);
        for (ps, &(_, _, d)) in path_sets.iter().zip(dm.entries()) {
            loads.add_path(&ps[0], d);
        }
        prop_assert!(exact <= loads.congestion(&g) + 1e-9);
    }

    /// Restricted exact solver agrees with the MWU solution up to the
    /// approximation factor on single-pair instances.
    #[test]
    fn mwu_close_to_exact_restricted(seed in 0u64..150, n in 5usize..9, units in 1u32..4) {
        let g = arb_graph(n, seed);
        let s = NodeId(0);
        let t = NodeId::from_usize(n - 1);
        let paths = PathList::from_paths(s, &yen_ksp(&g, s, t, 2, &g.unit_lengths()));
        let entries = [RestrictedEntry {
            s,
            t,
            demand: units as f64,
            paths: &paths,
        }];
        let frac = restricted_min_congestion(&g, &entries, 0.05);
        let exact_int = exact_integral_restricted(&g, &entries);
        // fractional ≤ integral exact; MWU is (1+O(eps)) of fractional OPT
        prop_assert!(frac.congestion <= exact_int * 1.2 + 1e-9);
        prop_assert!(frac.lower_bound <= exact_int + 1e-9);
    }
}
