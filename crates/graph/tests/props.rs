//! Property-based tests for the graph substrate, over random connected
//! graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sor_graph::{
    bfs_dists, bridges, connected_without, dijkstra, gen, global_min_cut, max_flow, spectral_gap,
    st_min_cut, yen_ksp, DijkstraSearch, Graph, Landmarks, NodeId,
};

fn arb_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.9);
    gen::erdos_renyi_connected(n, p, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dijkstra distances satisfy the triangle inequality through any
    /// intermediate vertex and agree with BFS under unit lengths.
    #[test]
    fn dijkstra_triangle_and_bfs(seed in 0u64..400, n in 5usize..14) {
        let g = arb_graph(n, seed);
        let len = g.unit_lengths();
        let trees: Vec<_> = g.nodes().map(|s| dijkstra(&g, s, &len)).collect();
        for s in g.nodes() {
            let b = bfs_dists(&g, s);
            for v in g.nodes() {
                prop_assert!((trees[s.index()].dist[v.index()] - b[v.index()] as f64).abs() < 1e-9);
            }
        }
        // triangle through vertex 0
        for u in g.nodes() {
            for v in g.nodes() {
                let direct = trees[u.index()].dist[v.index()];
                let via = trees[u.index()].dist[0] + trees[0].dist[v.index()];
                prop_assert!(direct <= via + 1e-9);
            }
        }
    }

    /// Max-flow is bounded by both endpoint capacitated degrees and is
    /// symmetric.
    #[test]
    fn maxflow_degree_bound_and_symmetry(seed in 0u64..400, n in 5usize..12) {
        let g = arb_graph(n, seed);
        let s = NodeId(0);
        let t = NodeId::from_usize(n - 1);
        let f = max_flow(&g, s, t);
        prop_assert!(f <= g.cap_degree(s) + 1e-6);
        prop_assert!(f <= g.cap_degree(t) + 1e-6);
        prop_assert!(f >= 1.0 - 1e-6, "connected unit graph has flow ≥ 1");
        let back = max_flow(&g, t, s);
        prop_assert!((f - back).abs() < 1e-6);
    }

    /// Global min cut is the minimum over s-t cuts from a fixed source
    /// (standard reduction) and is bounded by the min degree.
    #[test]
    fn global_cut_consistency(seed in 0u64..300, n in 5usize..10) {
        let g = arb_graph(n, seed);
        let global = global_min_cut(&g);
        let min_deg = g.nodes().map(|v| g.cap_degree(v)).fold(f64::INFINITY, f64::min);
        prop_assert!(global <= min_deg + 1e-6);
        let from_zero = g
            .nodes()
            .skip(1)
            .map(|t| st_min_cut(&g, NodeId(0), t))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((global - from_zero).abs() < 1e-6,
            "global {} vs min-over-pairs-from-0 {}", global, from_zero);
    }

    /// An edge is a bridge iff its removal disconnects the graph.
    #[test]
    fn bridges_are_exactly_disconnectors(seed in 0u64..300, n in 5usize..10) {
        let g = arb_graph(n, seed);
        let bs = bridges(&g);
        for e in g.edge_ids() {
            let is_bridge = bs.contains(&e);
            prop_assert_eq!(is_bridge, !connected_without(&g, &[e]));
        }
    }

    /// Yen's first path matches Dijkstra and all paths connect the pair.
    #[test]
    fn yen_first_is_shortest(seed in 0u64..300, n in 5usize..12, k in 1usize..5) {
        let g = arb_graph(n, seed);
        let len = g.unit_lengths();
        let s = NodeId::from_usize(1 % n);
        let t = NodeId::from_usize(n - 1);
        if s == t { return Ok(()); }
        let ps = yen_ksp(&g, s, t, k, &len);
        let d = dijkstra(&g, s, &len).dist[t.index()];
        prop_assert!((ps[0].length(&len) - d).abs() < 1e-9);
    }

    /// Spectral gap is in [0, 1] and positive on connected graphs.
    #[test]
    fn gap_in_range(seed in 0u64..200, n in 5usize..12) {
        let g = arb_graph(n, seed);
        let gap = spectral_gap(&g, 150);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&gap));
    }

    /// `without_edges` preserves node count and drops exactly the edges.
    #[test]
    fn without_edges_shape(seed in 0u64..200, n in 5usize..10) {
        let g = arb_graph(n, seed);
        let victim = sor_graph::EdgeId(0);
        let h = g.without_edges(&[victim]);
        prop_assert_eq!(h.num_nodes(), g.num_nodes());
        prop_assert_eq!(h.num_edges(), g.num_edges() - 1);
        prop_assert!((h.total_cap() - (g.total_cap() - g.cap(victim))).abs() < 1e-9);
    }

    /// A search stopped once its targets are settled returns the same
    /// paths and the same distance bits as a full Dijkstra run, for every
    /// source, on one reused workspace. Unit lengths tie heavily, small
    /// integer lengths tie some and real lengths rarely; `extra` parallel
    /// copies of random edges and an isolated last vertex (an unreachable
    /// target) are added on top of a random connected graph.
    #[test]
    fn target_stopped_search_matches_full_dijkstra(
        seed in 0u64..400,
        n in 3usize..14,
        kind in 0u8..3,
        extra in 0usize..4,
        k in 1usize..4,
    ) {
        let base = arb_graph(n, seed);
        let mut g = Graph::new(n + 1);
        for e in base.edges() {
            g.add_edge(e.u, e.v, e.cap);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..extra {
            let e = base.edges()[rng.gen_range(0..base.num_edges())];
            g.add_edge(e.u, e.v, e.cap);
        }
        let len: Vec<f64> = match kind {
            0 => g.unit_lengths(),
            1 => (0..g.num_edges()).map(|_| f64::from(rng.gen_range(1u32..4))).collect(),
            _ => (0..g.num_edges()).map(|_| 0.05 + rng.gen::<f64>()).collect(),
        };
        let isolated = NodeId::from_usize(n);
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        for s in g.nodes() {
            let full = dijkstra(&g, s, &len);
            let mut targets: Vec<NodeId> = (0..k)
                .map(|_| NodeId::from_usize(rng.gen_range(0..g.num_nodes())))
                .collect();
            if rng.gen::<bool>() {
                targets.push(isolated);
            }
            search.settle(&g, s, &len, &targets);
            for &t in &targets {
                prop_assert_eq!(search.path_to(&g, t), full.path_to(&g, t));
                prop_assert_eq!(search.dist(t).to_bits(), full.dist[t.index()].to_bits());
            }
        }
    }

    /// Pruned searches from every vertex, in a random center order and on
    /// one shared record array, build the least-element lists a brute
    /// force builds from one full search per center: `v` lists center `u`
    /// with the distance bits of `u`'s full search exactly when that
    /// distance is strictly below every earlier center's, in center
    /// order. Lengths tie as in the tests above, or are 0 or 1, so that a
    /// center can sit at distance 0 from an earlier one and list nothing
    /// new; an isolated last vertex lists only itself.
    #[test]
    fn pruned_searches_build_prefix_minimum_records(
        seed in 0u64..400,
        n in 3usize..20,
        kind in 0u8..4,
    ) {
        let base = arb_graph(n, seed);
        let mut g = Graph::new(n + 1);
        for e in base.edges() {
            g.add_edge(e.u, e.v, e.cap);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e57);
        let len: Vec<f64> = match kind {
            0 => g.unit_lengths(),
            1 => (0..g.num_edges()).map(|_| f64::from(rng.gen_range(1u32..4))).collect(),
            2 => (0..g.num_edges()).map(|_| 0.05 + rng.gen::<f64>()).collect(),
            _ => (0..g.num_edges()).map(|_| f64::from(rng.gen_range(0u32..2))).collect(),
        };
        let mut centers: Vec<NodeId> = g.nodes().collect();
        centers.shuffle(&mut rng);

        let mut best = vec![f64::INFINITY; g.num_nodes()];
        let mut lists: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); g.num_nodes()];
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        for &u in &centers {
            let mut reported = 0;
            search.settle_pruned(&g, u, &len, &mut best, |v, d| {
                lists[v.index()].push((u, d.to_bits()));
                reported += 1;
            });
            prop_assert_eq!(search.settled(), reported);
        }

        let mut record = vec![f64::INFINITY; g.num_nodes()];
        let mut brute: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); g.num_nodes()];
        for &u in &centers {
            let full = dijkstra(&g, u, &len);
            for v in g.nodes() {
                let d = full.dist[v.index()];
                if d < record[v.index()] {
                    record[v.index()] = d;
                    brute[v.index()].push((u, d.to_bits()));
                }
            }
        }
        prop_assert_eq!(&lists, &brute);
        let bits = |r: &[f64]| r.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&best), bits(&record));
        prop_assert_eq!(&lists[n], &vec![(NodeId::from_usize(n), 0f64.to_bits())]);
    }

    /// Landmark rows refreshed under some lengths stay consistent lower
    /// bounds once every length grows, so an A* search toward each target
    /// settles it at its shortest distance, along a real path of that
    /// length, and reports no path to an isolated vertex. The landmarks
    /// lie in the connected part, so some pair there gets a positive
    /// bound. Lengths tie as in the test above; some edges keep their
    /// length, the rest grow by up to 3x.
    #[test]
    fn landmark_search_matches_dijkstra_after_lengths_grow(
        seed in 0u64..400,
        n in 3usize..14,
        kind in 0u8..3,
        k in 1usize..6,
    ) {
        let base = arb_graph(n, seed);
        let mut g = Graph::new(n + 1);
        for e in base.edges() {
            g.add_edge(e.u, e.v, e.cap);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a4d);
        let len: Vec<f64> = match kind {
            0 => g.unit_lengths(),
            1 => (0..g.num_edges()).map(|_| f64::from(rng.gen_range(1u32..4))).collect(),
            _ => (0..g.num_edges()).map(|_| 0.05 + rng.gen::<f64>()).collect(),
        };
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        let mut landmarks = Landmarks::farthest_first(&g, k);
        prop_assert_eq!(landmarks.nodes().len(), k.min(n));
        landmarks.refresh(&g, &len, &mut search);
        let grown: Vec<f64> = len
            .iter()
            .map(|&l| if rng.gen::<bool>() { l } else { l * (1.0 + 2.0 * rng.gen::<f64>()) })
            .collect();
        let isolated = NodeId::from_usize(n);
        let mut positive = false;
        for t in g.nodes() {
            let to_t = dijkstra(&g, t, &grown);
            for v in g.nodes() {
                let (bound, exact) = (landmarks.lower_bound(v, t), to_t.dist[v.index()]);
                prop_assert!(bound <= exact * (1.0 + 1e-12), "bound {} > d({}, {}) = {}", bound, v, t, exact);
                positive |= bound > 0.0 && exact.is_finite();
            }
        }
        prop_assert!(positive, "no connected pair has a positive bound");
        for s in g.nodes() {
            let full = dijkstra(&g, s, &grown);
            for t in g.nodes() {
                search.settle_toward(&g, s, t, &grown, &landmarks);
                let exact = full.dist[t.index()];
                if t == isolated || s == isolated {
                    prop_assert_eq!(s == t, search.path_to(&g, t).is_some());
                    continue;
                }
                let d = search.dist(t);
                prop_assert!((d - exact).abs() <= 1e-12 * exact, "{}→{}: {} vs {}", s, t, d, exact);
                match search.path_to(&g, t) {
                    Some(path) => {
                        prop_assert!(path.validate(&g));
                        prop_assert_eq!((path.source(), path.target()), (s, t));
                        prop_assert!((path.length(&grown) - d).abs() <= 1e-12 * d);
                    }
                    None => prop_assert!(false, "{}→{}: no path", s, t),
                }
            }
        }
    }
}
