//! Property-based tests: every oblivious routing scheme must produce
//! valid probability distributions over simple s-t paths, on arbitrary
//! connected graphs, and sampling must stay inside the declared support.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_graph::{gen, Graph, NodeId};
use sor_oblivious::routing::ObliviousRouting;
use sor_oblivious::{ElectricalRouting, KspRouting, RaeckeRouting, RandomWalkRouting};

fn arb_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.9);
    gen::erdos_renyi_connected(n, p, &mut rng)
}

fn check_routing<O: ObliviousRouting>(
    label: &str,
    r: &O,
    s: NodeId,
    t: NodeId,
) -> Result<(), TestCaseError> {
    let dist = r.path_distribution(s, t);
    prop_assert!(!dist.is_empty(), "{label}: empty distribution");
    let total: f64 = dist.iter().map(|(_, w)| w).sum();
    prop_assert!(
        (total - 1.0).abs() < 1e-6,
        "{label}: weights sum to {total}"
    );
    for (p, w) in dist.iter() {
        prop_assert!(*w > 0.0);
        prop_assert!(p.validate(r.graph()), "{label}: invalid path");
        prop_assert_eq!(p.source(), s);
        prop_assert_eq!(p.target(), t);
    }
    // distinct support paths
    for (i, (p, _)) in dist.iter().enumerate() {
        for (q, _) in dist.iter().skip(i + 1) {
            prop_assert!(p != q, "{label}: duplicate path in support");
        }
    }
    // sampling stays in support
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..5 {
        let p = r.sample_path(s, t, &mut rng);
        prop_assert!(
            dist.iter().any(|(q, _)| *q == p),
            "{label}: sampled path outside declared support"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ksp_routing_valid(seed in 0u64..200, n in 5usize..12, k in 1usize..5) {
        let g = arb_graph(n, seed);
        let r = KspRouting::new(g, k);
        check_routing("ksp", &r, NodeId(0), NodeId::from_usize(n - 1))?;
    }

    #[test]
    fn raecke_routing_valid(seed in 0u64..150, n in 5usize..11, trees in 1usize..5) {
        let g = arb_graph(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1);
        let r = RaeckeRouting::build(g, trees, &mut rng);
        check_routing("raecke", &r, NodeId(0), NodeId::from_usize(n - 1))?;
        check_routing("raecke", &r, NodeId(1), NodeId(2))?;
    }

    #[test]
    fn electrical_routing_valid(seed in 0u64..150, n in 5usize..11) {
        let g = arb_graph(n, seed);
        let r = ElectricalRouting::new(g);
        check_routing("electrical", &r, NodeId(0), NodeId::from_usize(n - 1))?;
    }

    #[test]
    fn random_walk_routing_valid(seed in 0u64..150, n in 5usize..10) {
        let g = arb_graph(n, seed);
        let r = RandomWalkRouting::new(g, 8, seed);
        check_routing("random-walk", &r, NodeId(0), NodeId::from_usize(n - 1))?;
    }
}

/// Valiant on hypercubes (dimension must be a power of two, so not part
/// of the random-graph sweep).
#[test]
fn valiant_routing_valid_exhaustive() {
    use sor_oblivious::ValiantHypercube;
    let g = gen::hypercube(4);
    let r = ValiantHypercube::new(g);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let s = NodeId(rand::Rng::gen_range(&mut rng, 0..16));
        let t = NodeId(rand::Rng::gen_range(&mut rng, 0..16));
        if s == t {
            continue;
        }
        let dist = r.path_distribution(s, t);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (p, _) in dist.iter() {
            assert!(p.validate(r.graph()));
        }
    }
}
