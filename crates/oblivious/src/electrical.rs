//! Electrical-flow oblivious routing (extension).
//!
//! Routing every pair along its *electrical flow* (current in the
//! resistor network with conductances = capacities) is a classical
//! oblivious routing: it is `O(√(log n))`-ish competitive in the ℓ₂ sense
//! and a popular practical baseline. We implement it from scratch:
//!
//! * a sparse graph Laplacian with a conjugate-gradient solver (Jacobi
//!   preconditioning) — no linear-algebra crates,
//! * electrical `s`-`t` potentials → edge currents,
//! * a cycle-free flow decomposition of the current into weighted simple
//!   paths, which *is* the pair's path distribution.
//!
//! Listed in DESIGN.md as an extension beyond the paper's needs; it
//! plugs into every sampling experiment through [`ObliviousRouting`].

use crate::routing::{DistMemo, ObliviousRouting, PathDist};
use sor_graph::{EdgeId, Graph, NodeId, Path};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sparse symmetric Laplacian of a capacitated graph, with a CG solver.
#[derive(Clone, Debug)]
pub struct Laplacian {
    n: usize,
    /// Adjacency with conductances: `rows[u] = [(v, c_uv), …]` (summed
    /// over parallel edges).
    rows: Vec<Vec<(u32, f64)>>,
    /// Diagonal (weighted degree).
    diag: Vec<f64>,
}

impl Laplacian {
    /// Build from a graph with conductances = capacities.
    pub fn of(g: &Graph) -> Self {
        let n = g.num_nodes();
        // Ordered map: the row build below fixes each row's summand
        // order, which float-rounds through the CG solve — hash order
        // would make electrical flows differ per process.
        let mut weight: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for e in g.edges() {
            let key = (e.u.0.min(e.v.0), e.u.0.max(e.v.0));
            *weight.entry(key).or_insert(0.0) += e.cap;
        }
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut diag = vec![0.0; n];
        for (&(u, v), &c) in &weight {
            rows[u as usize].push((v, c));
            rows[v as usize].push((u, c));
            diag[u as usize] += c;
            diag[v as usize] += c;
        }
        Laplacian { n, rows, diag }
    }

    /// `y = L·x`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for (u, yu) in y.iter_mut().enumerate() {
            let mut acc = self.diag[u] * x[u];
            for &(v, c) in &self.rows[u] {
                acc -= c * x[v as usize];
            }
            *yu = acc;
        }
    }

    /// Solve `L·x = b` by preconditioned CG in the space orthogonal to the
    /// all-ones kernel. `b` must sum to ~0 (a valid demand vector).
    /// Returns the potential vector with mean zero.
    pub fn solve(&self, b: &[f64], tol: f64, max_iters: usize) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let sum: f64 = b.iter().sum();
        assert!(
            sum.abs() < 1e-6 * (1.0 + b.iter().map(|x| x.abs()).sum::<f64>()),
            "right-hand side must be orthogonal to the kernel (sum ≈ 0), got {sum}"
        );
        let n = self.n;
        let inv_diag: Vec<f64> = self.diag.iter().map(|&d| 1.0 / d.max(1e-300)).collect();
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        let mut ap = vec![0.0; n];
        for _ in 0..max_iters {
            let r_norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if r_norm <= tol * b_norm {
                break;
            }
            sor_obs::counter_add!("oblivious/electrical/cg_iters");
            self.apply(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-300 {
                break;
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..n {
                z[i] = r[i] * inv_diag[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        // project out the kernel
        let mean = x.iter().sum::<f64>() / n as f64;
        for v in &mut x {
            *v -= mean;
        }
        x
    }
}

/// Decompose a unit `s`→`t` flow given as *directed* per-edge amounts into
/// weighted simple paths (standard greedy path stripping; electrical
/// flows are acyclic along the potential drop so no cycle handling is
/// needed). `flow[e]` is positive when flowing `u → v` of the edge record
/// and negative otherwise.
pub fn decompose_flow(g: &Graph, s: NodeId, t: NodeId, mut flow: Vec<f64>) -> PathDist {
    const EPS: f64 = 1e-9;
    let mut dist: PathDist = Vec::new();
    let mut total = 0.0;
    loop {
        // walk from s to t along positive residual flow
        let mut cur = s;
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut amount = f64::INFINITY;
        let mut visited = vec![false; g.num_nodes()];
        visited[s.index()] = true;
        while cur != t {
            let mut step: Option<(EdgeId, NodeId, f64)> = None;
            for &(e, v) in g.incident(cur) {
                if visited[v.index()] {
                    continue;
                }
                let rec = g.edge(e);
                let f_dir = if rec.u == cur {
                    flow[e.index()]
                } else {
                    -flow[e.index()]
                };
                if f_dir > EPS && step.as_ref().is_none_or(|&(_, _, bf)| f_dir > bf) {
                    step = Some((e, v, f_dir));
                }
            }
            let Some((e, v, f_dir)) = step else {
                // dead end (numerical residue): abort this walk
                edges.clear();
                break;
            };
            amount = amount.min(f_dir);
            edges.push(e);
            visited[v.index()] = true;
            cur = v;
        }
        if edges.is_empty() || !amount.is_finite() || amount <= EPS {
            break;
        }
        // strip the path
        let mut node = s;
        for &e in &edges {
            let rec = g.edge(e);
            if rec.u == node {
                flow[e.index()] -= amount;
                node = rec.v;
            } else {
                flow[e.index()] += amount;
                node = rec.u;
            }
        }
        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
        let path = Path::from_edges(g, s, edges).expect("walk is simple by construction");
        dist.push((path, amount));
        total += amount;
        if total >= 1.0 - 1e-6 {
            break;
        }
    }
    // renormalize (numerical residue means total can be slightly < 1)
    let norm: f64 = dist.iter().map(|(_, w)| w).sum();
    assert!(norm > 0.5, "flow decomposition lost most of the flow");
    for (_, w) in &mut dist {
        *w /= norm;
    }
    dist
}

/// Oblivious routing along electrical flows (conductance = capacity).
pub struct ElectricalRouting {
    g: Graph,
    lap: Laplacian,
    memo: DistMemo,
}

impl ElectricalRouting {
    /// Build the Laplacian once; per-pair flows are solved lazily.
    pub fn new(g: Graph) -> Self {
        let lap = Laplacian::of(&g);
        ElectricalRouting {
            g,
            lap,
            memo: DistMemo::default(),
        }
    }
}

impl ObliviousRouting for ElectricalRouting {
    fn graph(&self) -> &Graph {
        &self.g
    }

    fn path_distribution(&self, s: NodeId, t: NodeId) -> Arc<PathDist> {
        assert!(s != t);
        self.memo.get_or_insert_with(s, t, || {
            let n = self.g.num_nodes();
            let mut b = vec![0.0; n];
            b[s.index()] = 1.0;
            b[t.index()] = -1.0;
            let phi = self.lap.solve(&b, 1e-10, 20 * n + 100);
            // current on edge (u,v): c_uv (φ_u − φ_v), positive means u → v
            let flow: Vec<f64> = self
                .g
                .edges()
                .iter()
                .map(|e| e.cap * (phi[e.u.index()] - phi[e.v.index()]))
                .collect();
            decompose_flow(&self.g, s, t, flow)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::oblivious_congestion;
    use sor_flow::Demand;
    use sor_graph::gen;

    #[test]
    fn laplacian_apply_matches_definition() {
        let g = gen::path_graph(3);
        let lap = Laplacian::of(&g);
        let mut y = vec![0.0; 3];
        lap.apply(&[1.0, 0.0, 0.0], &mut y);
        // L = [[1,-1,0],[-1,2,-1],[0,-1,1]]
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert!((y[1] + 1.0).abs() < 1e-12);
        assert!(y[2].abs() < 1e-12);
    }

    #[test]
    fn cg_solves_path_graph() {
        // On a path, the s-t potential drop across each unit edge is 1.
        let g = gen::path_graph(4);
        let lap = Laplacian::of(&g);
        let mut b = vec![0.0; 4];
        b[0] = 1.0;
        b[3] = -1.0;
        let phi = lap.solve(&b, 1e-12, 200);
        for w in phi.windows(2) {
            assert!((w[0] - w[1] - 1.0).abs() < 1e-6, "{phi:?}");
        }
    }

    #[test]
    fn cycle_splits_current_by_resistance() {
        // C4, s=0, t=2: two 2-edge arcs of equal resistance → 50/50.
        let g = gen::cycle_graph(4);
        let r = ElectricalRouting::new(g);
        let dist = r.path_distribution(NodeId(0), NodeId(2));
        assert_eq!(dist.len(), 2);
        for (_, w) in dist.iter() {
            assert!((w - 0.5).abs() < 1e-6, "{dist:?}");
        }
    }

    #[test]
    fn parallel_resistors_split_by_capacity() {
        // caps 1 and 3 in parallel: currents 0.25 / 0.75.
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 3.0);
        let r = ElectricalRouting::new(g);
        let dist = r.path_distribution(NodeId(0), NodeId(1));
        let mut ws: Vec<f64> = dist.iter().map(|(_, w)| *w).collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ws[0] - 0.25).abs() < 1e-6);
        assert!((ws[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn distribution_is_valid_on_grid() {
        let g = gen::grid(4, 4);
        let r = ElectricalRouting::new(g);
        let dist = r.path_distribution(NodeId(0), NodeId(15));
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
        for (p, w) in dist.iter() {
            assert!(p.validate(r.graph()));
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(15));
            assert!(*w > 0.0);
        }
    }

    #[test]
    fn reasonable_congestion_on_hypercube_permutation() {
        let g = gen::hypercube(5);
        let r = ElectricalRouting::new(g.clone());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let dm = sor_flow::demand::random_permutation(&g, &mut rng);
        let c = oblivious_congestion(&r, &dm);
        assert!(c < 4.0, "electrical congestion {c} too large on Q_5");
    }

    #[test]
    fn decompose_rejects_garbage_gracefully() {
        // A flow that is all zeros must panic (lost flow) — guards against
        // silently returning an empty distribution.
        let g = gen::cycle_graph(4);
        let res =
            std::panic::catch_unwind(|| decompose_flow(&g, NodeId(0), NodeId(2), vec![0.0; 4]));
        assert!(res.is_err());
    }

    #[test]
    fn single_demand_unit_loads() {
        let g = gen::cycle_graph(4);
        let r = ElectricalRouting::new(g.clone());
        let dm = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        let loads = crate::routing::fractional_loads(&r, &dm);
        // every edge carries 0.5
        for e in g.edge_ids() {
            assert!((loads.load(e) - 0.5).abs() < 1e-6);
        }
    }

    use sor_graph::{Graph, NodeId};
}
