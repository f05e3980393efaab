//! Property-based round-trip tests for the compact codec: on random
//! WAN-like graphs across sparsity levels, encoding a sampled path
//! system and decoding it back must reproduce the system *bit-exactly*
//! (same pairs, same vertex sequences, same slot order), and the size
//! accounting must stay internally consistent. A deep-hierarchy
//! adversarial case (a long path graph, the worst input for tree
//! embeddings) rides along as a plain test.
//!
//! Failing cases are recorded in `props.proptest-regressions` (one
//! deduplicated `cc <hash>` line per minimal counterexample) and re-run
//! before new cases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_compact::CompactSystem;
use sor_core::sample::sample_k;
use sor_core::PathSystem;
use sor_graph::{gen, Graph, NodeId};
use sor_oblivious::{ClusterTree, RaeckeRouting};

fn arb_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.9);
    gen::erdos_renyi_connected(n, p, &mut rng)
}

/// Sample a sparsity-`s` system over random pairs, exactly the shape
/// the serving engine caches.
fn sampled_system(
    g: &Graph,
    routing: &RaeckeRouting,
    num_pairs: usize,
    sparsity: usize,
    seed: u64,
) -> PathSystem {
    let n = g.num_nodes();
    let mut pair_rng = StdRng::seed_from_u64(seed ^ 0xab);
    // BTreeSet dedups: sample_k asserts its sparsity bound per *distinct*
    // pair, so a repeated draw must not double a pair's path budget.
    let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
        .map(|_| {
            let s = pair_rng.gen_range(0..n);
            let mut t = pair_rng.gen_range(0..n - 1);
            if t >= s {
                t += 1;
            }
            (NodeId::from_usize(s), NodeId::from_usize(t))
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    sample_k(routing, &pairs, sparsity, &mut rng).system
}

fn first_tree(routing: &RaeckeRouting) -> &ClusterTree {
    routing
        .trees()
        .first()
        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
        .expect("RaeckeRouting::build produces at least one tree")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode→decode is the identity on sampled systems, across graph
    /// shapes and sparsity levels 1..4.
    #[test]
    fn round_trip_bit_equality(
        seed in 0u64..200,
        n in 8usize..16,
        sparsity in 1usize..4,
        num_pairs in 2usize..6,
    ) {
        let g = arb_graph(n, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let routing = RaeckeRouting::build(g.clone(), 3, &mut rng);
        let sys = sampled_system(&g, &routing, num_pairs, sparsity, seed);
        let compact = CompactSystem::encode(&g, first_tree(&routing), &sys);
        let decoded = compact.decode(&g);
        prop_assert_eq!(&decoded, &sys, "decode diverged from source system");
        prop_assert_eq!(
            decoded.validate_detailed(&g, Some(sparsity)),
            sys.validate_detailed(&g, Some(sparsity))
        );
        // per-pair decode agrees with the full decode
        for (s, t, paths) in sys.pairs() {
            let want: Vec<_> = paths.iter().map(|p| p.to_path(&g)).collect();
            prop_assert_eq!(compact.decode_pair(&g, s, t), want);
        }
    }

    /// The accounting never lies: stats mirror the structure, and the
    /// explicit baseline is the true explicit size of the source.
    #[test]
    fn stats_track_structure(
        seed in 0u64..100,
        n in 8usize..14,
        sparsity in 1usize..3,
    ) {
        let g = arb_graph(n, seed ^ 0x5a);
        let mut rng = StdRng::seed_from_u64(seed);
        let routing = RaeckeRouting::build(g.clone(), 2, &mut rng);
        let sys = sampled_system(&g, &routing, 4, sparsity, seed);
        let compact = CompactSystem::encode(&g, first_tree(&routing), &sys);
        let stats = compact.stats();
        prop_assert_eq!(stats.n, g.num_nodes());
        prop_assert_eq!(stats.pairs, sys.num_pairs());
        prop_assert_eq!(stats.total_paths, sys.total_paths());
        prop_assert_eq!(stats.exceptions, compact.num_exceptions());
        let explicit: u64 = sys
            .pairs()
            .map(|(_, _, ps)| {
                2 * 32 + ps.iter().map(|p| 16 + p.hops() as u64 * 32).sum::<u64>()
            })
            .sum();
        prop_assert_eq!(stats.explicit_bits, explicit);
        prop_assert!(stats.compact_bits > 0);
    }
}

/// Adversarial deep hierarchy: on a long path graph the FRT tree is
/// forced to maximum depth and every route shares every intermediate
/// vertex — the worst case for first-writer-wins table entries. The
/// round trip must still be exact (exceptions absorb any conflicts).
#[test]
fn deep_hierarchy_path_graph_round_trips() {
    let g = gen::path_graph(24);
    let mut rng = StdRng::seed_from_u64(13);
    let routing = RaeckeRouting::build(g.clone(), 2, &mut rng);
    let tree = first_tree(&routing);
    // all-pairs in one direction: every prefix/suffix overlap occurs
    let mut sys = PathSystem::new();
    for s in 0..24u32 {
        for t in 0..24u32 {
            if s != t {
                sys.insert(NodeId(s), NodeId(t), tree.route(NodeId(s), NodeId(t)));
            }
        }
    }
    let compact = CompactSystem::encode(&g, tree, &sys);
    let decoded = compact.decode(&g);
    assert_eq!(decoded, sys, "deep-hierarchy decode diverged");
    // On a path graph all routes are forced, so the tables compress
    // massively: far fewer interval rows than explicit path entries.
    let stats = compact.stats();
    assert!(
        stats.bits_per_node() < stats.explicit_bits_per_node(),
        "compact ({:.1} b/n) must beat explicit ({:.1} b/n) on the path graph",
        stats.bits_per_node(),
        stats.explicit_bits_per_node()
    );
}
