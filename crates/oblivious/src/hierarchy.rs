//! Spectral hierarchical decomposition routing — a second, independent
//! implementation of the Räcke-style congestion-tree idea.
//!
//! Where [`crate::frt`] builds its laminar clusters from random metric
//! balls (FRT), this module builds them by *recursive balanced sparse
//! cuts*: each cluster is split along a sweep cut of its local Fiedler
//! (second-eigenvector) embedding, the classic spectral-partitioning
//! heuristic behind practical Räcke implementations. A single hierarchy
//! routes deterministically; an ensemble mixes hierarchies built under
//! multiplicatively re-weighted edges (congestion feedback), exactly like
//! [`crate::raecke::RaeckeRouting`] does with FRT trees.
//!
//! Experiment E12 compares the two substrates head to head.

use crate::routing::{ObliviousRouting, PathDist};
use parking_lot::Mutex;
use rand::Rng;
use sor_graph::{dijkstra, Graph, NodeId, Path};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One cluster of a spectral hierarchy.
#[derive(Clone, Debug)]
struct Cluster {
    parent: Option<usize>,
    /// Representative vertex inside the cluster.
    leader: NodeId,
    vertices: Vec<NodeId>,
    /// Physical path `leader → parent.leader` (None at the root).
    up_path: Option<Path>,
    /// Total edge weight leaving the cluster.
    cut_capacity: f64,
}

/// A rooted laminar decomposition built by recursive spectral bisection.
#[derive(Clone, Debug)]
pub struct SpectralHierarchy {
    clusters: Vec<Cluster>,
    leaf_of: Vec<usize>,
}

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

impl SpectralHierarchy {
    /// Build one hierarchy under per-edge weights `w` (capacities ×
    /// congestion feedback). Physical up-paths are shortest paths under
    /// `1/w` (prefer heavy edges).
    pub fn build<R: Rng + ?Sized>(g: &Graph, w: &[f64], rng: &mut R) -> Self {
        assert_eq!(w.len(), g.num_edges());
        assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
        let _span = sor_obs::span("hierarchy/spectral");
        sor_obs::counter_add!("oblivious/hierarchy/builds");
        let n = g.num_nodes();
        let lengths: Vec<f64> = w.iter().map(|&x| 1.0 / x).collect();
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut leaf_of = vec![usize::MAX; n];

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

        // root
        let all: Vec<NodeId> = g.nodes().collect();
        clusters.push(Cluster {
            parent: None,
            leader: leader_of(&all),
            vertices: all,
            up_path: None,
            cut_capacity: 0.0,
        });
        let mut stack = vec![0usize];
        while let Some(ci) = stack.pop() {
            // take the vertex list (pushing children below needs `clusters`
            // mutably) and restore it once the split is computed — no
            // per-cluster copy of the vertex set.
            let verts = std::mem::take(&mut clusters[ci].vertices);
            if verts.len() == 1 {
                leaf_of[verts[0].index()] = ci;
                clusters[ci].vertices = verts;
                continue;
            }
            let (left, right) = if verts.len() == 2 {
                (vec![verts[0]], vec![verts[1]])
            } else {
                let emb = local_fiedler(g, &verts, w, rng);
                sweep_cut(g, &verts, &emb, w)
            };
            clusters[ci].vertices = verts;
            for side in [left, right] {
                debug_assert!(!side.is_empty());
                let idx = clusters.len();
                clusters.push(Cluster {
                    parent: Some(ci),
                    leader: leader_of(&side),
                    vertices: side,
                    up_path: None,
                    cut_capacity: 0.0,
                });
                stack.push(idx);
            }
        }

        // cut capacities (under true capacities, not feedback weights)
        let mut inside = vec![false; n];
        for c in &mut clusters {
            for &v in &c.vertices {
                inside[v.index()] = true;
            }
            let mut cut = 0.0;
            for e in g.edges() {
                if inside[e.u.index()] != inside[e.v.index()] {
                    cut += e.cap;
                }
            }
            c.cut_capacity = cut;
            for &v in &c.vertices {
                inside[v.index()] = false;
            }
        }

        // physical up-paths: one Dijkstra per parent leader (ordered map
        // so the construction order never depends on the hasher)
        let mut children_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, c) in clusters.iter().enumerate() {
            if let Some(p) = c.parent {
                children_of.entry(p).or_default().push(i);
            }
        }
        for (&p, kids) in &children_of {
            let tree = dijkstra(g, clusters[p].leader, &lengths);
            for &c in kids {
                let path = tree
                    .path_to(g, clusters[c].leader)
                    // sor-check: allow(unwrap) — invariant stated in the expect message
                    .expect("connected graph")
                    .reversed();
                clusters[c].up_path = Some(path);
            }
        }
        debug_assert!(leaf_of.iter().all(|&l| l != usize::MAX));
        SpectralHierarchy { clusters, leaf_of }
    }

    /// Route `s → t` through the hierarchy (up to the LCA, then down),
    /// loop-erased.
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        crate::frt::tree_route(
            s,
            t,
            (self.leaf_of[s.index()], self.leaf_of[t.index()]),
            |i| self.clusters[i].parent,
            |i| self.clusters[i].up_path.as_ref(),
        )
    }

    /// Räcke relative load of this hierarchy (see
    /// [`crate::frt::FrtTree::relative_loads`]).
    pub fn relative_loads(&self, g: &Graph) -> Vec<f64> {
        let mut load = vec![0.0; g.num_edges()];
        for c in &self.clusters {
            if let Some(up) = &c.up_path {
                for &e in up.edges() {
                    load[e.index()] += c.cut_capacity;
                }
            }
        }
        for (l, e) in load.iter_mut().zip(g.edges()) {
            *l /= e.cap;
        }
        load
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Hierarchies are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A congestion-feedback ensemble of spectral hierarchies — the spectral
/// counterpart of [`crate::raecke::RaeckeRouting`].
pub struct HierRouting {
    g: Graph,
    hierarchies: Vec<SpectralHierarchy>,
    cache: Mutex<HashMap<(NodeId, NodeId), Arc<PathDist>>>,
}

impl HierRouting {
    /// Build `count` hierarchies with multiplicative congestion feedback.
    pub fn build<R: Rng + ?Sized>(g: Graph, count: usize, rng: &mut R) -> Self {
        assert!(count >= 1);
        let m = g.num_edges();
        let eta = (1.0 + m as f64).ln();
        let mut load = vec![0.0f64; m];
        let mut hierarchies = Vec::with_capacity(count);
        for _ in 0..count {
            let max_load = load.iter().copied().fold(0.0, f64::max).max(1.0);
            // heavier weight = more attractive; penalized edges lose weight
            let w: Vec<f64> = load
                .iter()
                .zip(g.edges())
                .map(|(&l, e)| e.cap * (-eta * l / max_load).exp())
                .collect();
            let h = SpectralHierarchy::build(&g, &w, rng);
            let rload = h.relative_loads(&g);
            let rmax = rload.iter().copied().fold(0.0, f64::max).max(1e-300);
            for (acc, r) in load.iter_mut().zip(&rload) {
                *acc += r / rmax;
            }
            hierarchies.push(h);
        }
        HierRouting {
            g,
            hierarchies,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Number of hierarchies in the mixture.
    pub fn len(&self) -> usize {
        self.hierarchies.len()
    }

    /// Mixtures are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl ObliviousRouting for HierRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        if let Some(d) = self.cache.lock().get(&(s, t)) {
            return Arc::clone(d);
        }
        let w = 1.0 / self.hierarchies.len() as f64;
        let mut merged: HashMap<Path, f64> = HashMap::new();
        for h in &self.hierarchies {
            *merged.entry(h.route(s, t)).or_insert(0.0) += w;
        }
        // sor-check: allow(hash-order) — merged weights are order-independent and the vec is sorted just below
        let mut dist: PathDist = merged.into_iter().collect();
        dist.sort_by(|a, b| {
            a.0.nodes()
                .iter()
                .map(|v| v.0)
                .cmp(b.0.nodes().iter().map(|v| v.0))
        });
        let dist = Arc::new(dist);
        self.cache.lock().insert((s, t), Arc::clone(&dist));
        dist
    }

    fn name(&self) -> &'static str {
        "spectral-hier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::oblivious_congestion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_flow::demand::random_permutation;
    use sor_flow::max_concurrent_flow;
    use sor_graph::gen;

    fn check_laminar(g: &Graph, h: &SpectralHierarchy) {
        // root holds everything, leaves are singletons, children partition
        assert_eq!(h.clusters[0].vertices.len(), g.num_nodes());
        for v in g.nodes() {
            assert_eq!(h.clusters[h.leaf_of[v.index()]].vertices, vec![v]);
        }
        let mut kids: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, c) in h.clusters.iter().enumerate() {
            if let Some(p) = c.parent {
                kids.entry(p).or_default().push(i);
            }
        }
        for (&p, ks) in &kids {
            let mut union: Vec<NodeId> = ks
                .iter()
                .flat_map(|&k| h.clusters[k].vertices.clone())
                .collect();
            union.sort();
            let mut parent = h.clusters[p].vertices.clone();
            parent.sort();
            assert_eq!(union, parent, "children don't partition parent");
        }
    }

    #[test]
    fn hierarchy_is_laminar_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = SpectralHierarchy::build(&g, &w, &mut rng);
        check_laminar(&g, &h);
    }

    #[test]
    fn routes_are_valid() {
        let g = gen::abilene();
        let mut rng = StdRng::seed_from_u64(2);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = SpectralHierarchy::build(&g, &w, &mut rng);
        for s in g.nodes() {
            for t in g.nodes() {
                let p = h.route(s, t);
                assert!(p.validate(&g));
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
            }
        }
    }

    #[test]
    fn one_pass_route_matches_level_by_level_joins() {
        use crate::frt::tests::{join_chain_route, reference_instances};
        for (seed, (g, w)) in reference_instances().into_iter().enumerate() {
            let h = SpectralHierarchy::build(&g, &w, &mut StdRng::seed_from_u64(seed as u64));
            for s in g.nodes() {
                for t in g.nodes() {
                    let reference = join_chain_route(
                        &g,
                        s,
                        t,
                        (h.leaf_of[s.index()], h.leaf_of[t.index()]),
                        |i| h.clusters[i].parent,
                        |i| h.clusters[i].up_path.as_ref(),
                    );
                    assert_eq!(h.route(s, t), reference, "{s}->{t}");
                }
            }
        }
    }

    #[test]
    fn spectral_split_separates_dumbbell() {
        // The canonical spectral-partition instance: the top cut of a
        // dumbbell must be (close to) the bridge cut.
        let g = gen::dumbbell(6, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let w: Vec<f64> = g.edges().iter().map(|e| e.cap).collect();
        let h = SpectralHierarchy::build(&g, &w, &mut rng);
        // root's two children: one should be (mostly) clique A
        let kids: Vec<&Cluster> = h.clusters.iter().filter(|c| c.parent == Some(0)).collect();
        assert_eq!(kids.len(), 2);
        let side_a: Vec<bool> = kids[0].vertices.iter().map(|v| v.index() < 6).collect();
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
        let r = HierRouting::build(g.clone(), 8, &mut rng);
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
