//! Seeded builds over a multigraph must give one path distribution and
//! one draw sequence: paths with the same vertex sequence but different
//! parallel edges are told apart by their edges, never by hash order.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_graph::{EdgeId, Graph, NodeId, Path};
use sor_hop::HopRouting;
use sor_oblivious::routing::ObliviousRouting;
use sor_oblivious::{RaeckeRouting, RandomWalkRouting};

const BUILDS: usize = 40;
const DRAWS: usize = 16;

/// Doubled edges 0–1, 1–2 and 2–3, plus an edge 0–3.
fn multigraph() -> Graph {
    let mut g = Graph::new(4);
    for (u, v) in [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (0, 3)] {
        g.add_edge(NodeId(u), NodeId(v), 1.0);
    }
    g
}

fn edges(p: &Path) -> Vec<EdgeId> {
    p.edges().to_vec()
}

/// The distinct `path_distribution(0, 2)` orders over `BUILDS` builds.
fn distinct_orders<O: ObliviousRouting>(build: impl Fn() -> O) -> usize {
    let mut seen: Vec<Vec<(Vec<EdgeId>, u64)>> = Vec::new();
    for _ in 0..BUILDS {
        let dist = build().path_distribution(NodeId(0), NodeId(2));
        let order = dist.iter().map(|(p, w)| (edges(p), w.to_bits())).collect();
        if !seen.contains(&order) {
            seen.push(order);
        }
    }
    seen.len()
}

/// The distinct `DRAWS`-draw `sample_path(0, 2)` sequences over `BUILDS`
/// builds, each drawn from a seed-1 stream.
fn distinct_draws<O: ObliviousRouting>(build: impl Fn() -> O) -> usize {
    let mut seen: Vec<Vec<Vec<EdgeId>>> = Vec::new();
    for _ in 0..BUILDS {
        let r = build();
        let mut rng = StdRng::seed_from_u64(1);
        let draws = (0..DRAWS)
            .map(|_| edges(&r.sample_path(NodeId(0), NodeId(2), &mut rng)))
            .collect();
        if !seen.contains(&draws) {
            seen.push(draws);
        }
    }
    seen.len()
}

#[test]
fn seeded_builds_give_one_distribution_and_one_draw_sequence() {
    let raecke = || RaeckeRouting::build(multigraph(), 8, &mut StdRng::seed_from_u64(1));
    let spectral = || RaeckeRouting::spectral(multigraph(), 8, &mut StdRng::seed_from_u64(1));
    let hop = || HopRouting::build(multigraph(), 1, 8, &mut StdRng::seed_from_u64(1));
    let walk = || RandomWalkRouting::new(multigraph(), 32, 1);
    let counts = [
        distinct_orders(raecke),
        distinct_orders(spectral),
        distinct_orders(hop),
        distinct_draws(hop),
        distinct_draws(walk),
    ];
    assert_eq!(counts, [1; 5], "distinct outcomes over {BUILDS} builds");
}
