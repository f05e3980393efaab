//! Spectral hierarchical decomposition routing — a second, independent
//! implementation of the Räcke-style congestion-tree idea.
//!
//! Where [`crate::frt`] builds its laminar clusters from random metric
//! balls (FRT), this module builds them by *recursive balanced sparse
//! cuts*: each cluster is split along a sweep cut of its local Fiedler
//! (second-eigenvector) embedding, the classic spectral-partitioning
//! heuristic behind practical Räcke implementations. A single hierarchy
//! routes deterministically; [`crate::raecke::RaeckeRouting::spectral`]
//! mixes hierarchies built under multiplicatively re-weighted edges
//! (congestion feedback), exactly like the FRT mixture.
//!
//! Experiment E12 compares the two substrates head to head.

use crate::frt::{up_path_workers, ClusterTree};
use rand::Rng;
use sor_graph::{DijkstraSearch, Graph, NodeId};
use std::collections::HashMap;

/// Local Fiedler-style embedding of an induced subgraph: a few power
/// iterations of the lazy walk restricted to `verts` under edge weights
/// `w`, deflated against the weighted stationary vector. Deterministic
/// start; `rng` only perturbs tie-breaking so ensembles diversify.
fn local_fiedler<R: Rng + ?Sized>(g: &Graph, verts: &[NodeId], w: &[f64], rng: &mut R) -> Vec<f64> {
    let k = verts.len();
    let mut index_of: HashMap<NodeId, usize> = HashMap::with_capacity(k);
    for (i, &v) in verts.iter().enumerate() {
        index_of.insert(v, i);
    }
    // weighted degree within the cluster
    let mut deg = vec![0.0f64; k];
    for (i, &v) in verts.iter().enumerate() {
        for &(e, nb) in g.incident(v) {
            if index_of.contains_key(&nb) {
                deg[i] += w[e.index()];
            }
        }
    }
    let total: f64 = deg.iter().sum();
    // isolated-inside-cluster vertices get a nominal weight so the
    // stationary vector stays well-defined
    let pi: Vec<f64> = if total > 0.0 {
        deg.iter().map(|d| (d / total).max(1e-12)).collect()
    } else {
        vec![1.0 / k as f64; k]
    };
    let deflate = |x: &mut [f64]| {
        let c: f64 = x.iter().zip(&pi).map(|(a, b)| a * b).sum::<f64>() / pi.iter().sum::<f64>();
        for v in x.iter_mut() {
            *v -= c;
        }
    };
    let mut x: Vec<f64> = (0..k)
        .map(|i| ((i as f64 * 0.754_877 + 0.31) % 1.0) - 0.5 + rng.gen::<f64>() * 1e-3)
        .collect();
    deflate(&mut x);
    let iters = 30 + 4 * k.min(200);
    let mut y = vec![0.0; k];
    for _ in 0..iters {
        for yi in y.iter_mut() {
            *yi = 0.0;
        }
        for (i, &v) in verts.iter().enumerate() {
            let mut acc = 0.0;
            for &(e, nb) in g.incident(v) {
                if let Some(&j) = index_of.get(&nb) {
                    acc += w[e.index()] * x[j];
                }
            }
            y[i] = 0.5 * x[i] + 0.5 * acc / deg[i].max(1e-12);
        }
        deflate(&mut y);
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            break;
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    x
}

/// Sweep cut: order by embedding value, pick the prefix in the balanced
/// window `[|C|/4, 3|C|/4]` minimizing conductance under weights `w`.
fn sweep_cut(g: &Graph, verts: &[NodeId], emb: &[f64], w: &[f64]) -> (Vec<NodeId>, Vec<NodeId>) {
    let k = verts.len();
    let mut order: Vec<usize> = (0..k).collect();
    // sor-check: allow(unwrap) — invariant stated in the expect message
    order.sort_by(|&a, &b| emb[a].partial_cmp(&emb[b]).expect("finite embedding"));
    let lo = (k / 4).max(1);
    let hi = (3 * k / 4).max(lo);
    // incremental cut weight as the prefix grows
    let mut in_prefix = vec![false; g.num_nodes()];
    let mut cut = 0.0f64;
    let mut vol = 0.0f64;
    let total_vol: f64 = verts
        .iter()
        .map(|&v| {
            g.incident(v)
                .iter()
                .map(|&(e, _)| w[e.index()])
                .sum::<f64>()
        })
        .sum();
    let mut best = (f64::INFINITY, lo);
    for (pos, &oi) in order.iter().enumerate() {
        let v = verts[oi];
        for &(e, nb) in g.incident(v) {
            if in_prefix[nb.index()] {
                cut -= w[e.index()];
            } else {
                cut += w[e.index()];
            }
            vol += w[e.index()];
        }
        in_prefix[v.index()] = true;
        let size = pos + 1;
        if size >= lo && size <= hi {
            let denom = vol.min(total_vol - vol).max(1e-12);
            let phi = cut / denom;
            if phi < best.0 {
                best = (phi, size);
            }
        }
    }
    let split = best.1;
    let left: Vec<NodeId> = order[..split].iter().map(|&i| verts[i]).collect();
    let right: Vec<NodeId> = order[split..].iter().map(|&i| verts[i]).collect();
    (left, right)
}

impl ClusterTree {
    /// Build one rooted laminar decomposition by recursive spectral
    /// bisection under per-edge weights `w` (capacities × congestion
    /// feedback). Physical up-paths are shortest paths under `1/w` (prefer
    /// heavy edges); cut capacities are under the true capacities.
    pub fn spectral<R: Rng + ?Sized>(g: &Graph, w: &[f64], rng: &mut R) -> Self {
        assert_eq!(w.len(), g.num_edges());
        assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
        let _span = sor_obs::span("hierarchy/spectral");
        sor_obs::counter_add!("oblivious/hierarchy/builds");
        let n = g.num_nodes();
        let lengths: Vec<f64> = w.iter().map(|&x| 1.0 / x).collect();

        let leader_of = |verts: &[NodeId]| -> NodeId {
            *verts
                .iter()
                .max_by(|a, b| {
                    g.cap_degree(**a)
                        .partial_cmp(&g.cap_degree(**b))
                        // sor-check: allow(unwrap) — invariant stated in the expect message
                        .expect("finite")
                        .then(b.0.cmp(&a.0))
                })
                // sor-check: allow(unwrap) — invariant stated in the expect message
                .expect("nonempty cluster")
        };

        let all: Vec<NodeId> = g.nodes().collect();
        let root_leader = leader_of(&all);
        let mut tree = ClusterTree::with_root(all, root_leader);
        let mut stack = vec![0usize];
        while let Some(ci) = stack.pop() {
            let verts = tree.vertices(ci);
            if verts.len() == 1 {
                continue;
            }
            let (left, right) = if verts.len() == 2 {
                (vec![verts[0]], vec![verts[1]])
            } else {
                let emb = local_fiedler(g, verts, w, rng);
                sweep_cut(g, verts, &emb, w)
            };
            // The range becomes left ++ right, each side in its own order.
            let (l, r) = tree.vertices_mut(ci).split_at_mut(left.len());
            l.copy_from_slice(&left);
            r.copy_from_slice(&right);
            for side in [left, right] {
                debug_assert!(!side.is_empty());
                stack.push(tree.push_child(ci, side.len(), leader_of(&side)));
            }
        }
        let workers = up_path_workers(n);
        tree.finish(g, &lengths, workers, &mut DijkstraSearch::with_nodes(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frt::tests::{
        check_cuts_and_loads, check_ranges, check_routes, reference_instances,
    };
    use crate::raecke::RaeckeRouting;
    use crate::routing::{oblivious_congestion, ObliviousRouting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_flow::demand::random_permutation;
    use sor_flow::max_concurrent_flow;
    use sor_graph::gen;

    #[test]
    fn hierarchy_is_laminar_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = ClusterTree::spectral(&g, &w, &mut rng);
        check_ranges(&g, &h);
    }

    #[test]
    fn routes_are_valid() {
        let g = gen::abilene();
        let mut rng = StdRng::seed_from_u64(2);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = ClusterTree::spectral(&g, &w, &mut rng);
        for s in g.nodes() {
            for t in g.nodes() {
                let p = h.route(s, t);
                assert!(p.validate(&g));
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
            }
        }
    }

    /// Flat routes against both reference routes on every ordered pair,
    /// the range invariants, and the cut capacities (charged per edge)
    /// and relative loads against per-cluster references, bit for bit.
    #[test]
    fn one_pass_route_matches_level_by_level_joins() {
        for (seed, (g, w)) in reference_instances().into_iter().enumerate() {
            let h = ClusterTree::spectral(&g, &w, &mut StdRng::seed_from_u64(seed as u64));
            check_routes(&g, &h);
            check_ranges(&g, &h);
            check_cuts_and_loads(&g, &h);
        }
    }

    #[test]
    fn spectral_split_separates_dumbbell() {
        // The canonical spectral-partition instance: the top cut of a
        // dumbbell must be (close to) the bridge cut.
        let g = gen::dumbbell(6, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = ClusterTree::spectral(&g, &w, &mut rng);
        // root's two children: one should be (mostly) clique A
        assert_eq!(h.children(0).len(), 2);
        let first = h.children(0).start;
        let side_a: Vec<bool> = h.vertices(first).iter().map(|v| v.index() < 6).collect();
        let frac_a = side_a.iter().filter(|&&x| x).count() as f64 / side_a.len() as f64;
        assert!(
            frac_a <= 0.2 || frac_a >= 0.8,
            "top split should track the dumbbell bridge, got mix {frac_a}"
        );
    }

    #[test]
    fn ensemble_is_valid_and_moderately_competitive() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let r = RaeckeRouting::spectral(g.clone(), 8, &mut rng);
        let dist = r.path_distribution(NodeId(0), NodeId(15));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mut worst: f64 = 0.0;
        for seed in 0..2 {
            let mut drng = StdRng::seed_from_u64(60 + seed);
            let dm = random_permutation(&g, &mut drng);
            let c = oblivious_congestion(&r, &dm);
            let opt = max_concurrent_flow(&g, &dm, 0.1).congestion_upper;
            worst = worst.max(c / opt.max(1e-12));
        }
        assert!(worst < 15.0, "spectral ensemble ratio {worst} too large");
    }

    use sor_graph::NodeId;
}
