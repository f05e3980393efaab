//! Min-congestion routing *restricted to a candidate path system* — the
//! semi-oblivious Stage 4 (Definition 5.1: `cong(P, D)` is the optimal
//! congestion over routings supported on the path system `P`).
//!
//! Same exponential-length MWU as [`crate::concurrent`], but the shortest
//! path oracle only chooses among each pair's candidate paths, so each
//! oracle call is a cheap scan instead of a Dijkstra.

use crate::loads::EdgeLoads;
use sor_graph::{EdgeId, Graph, NodeId, Path};

/// A solution to the restricted min-congestion problem.
#[derive(Clone, Debug)]
pub struct RestrictedSolution {
    /// `weights[j][i]` = flow assigned to candidate path `i` of entry `j`;
    /// sums to the entry's demand.
    pub weights: Vec<Vec<f64>>,
    /// Per-edge loads of the routing.
    pub loads: EdgeLoads,
    /// Max congestion of the routing (upper bound on the restricted OPT).
    pub congestion: f64,
    /// Certified LP lower bound on the restricted OPT congestion.
    pub lower_bound: f64,
}

/// One commodity of a restricted instance: `(source, target, demand)` plus
/// its candidate paths.
#[derive(Clone, Debug)]
pub struct RestrictedEntry<'a> {
    /// Source vertex.
    pub s: NodeId,
    /// Target vertex.
    pub t: NodeId,
    /// Amount to route.
    pub demand: f64,
    /// Candidate paths (each must run `s → t`).
    pub paths: &'a [Path],
}

/// The active entries' candidate paths flattened into one edge-id arena,
/// so an oracle scan reads contiguous memory instead of one `Vec` per path.
/// Paths are numbered across the active entries in order; path `p` runs
/// over `edges[start[p]..start[p + 1]]` and can carry at most
/// `bottleneck[p]`, the smallest capacity on it.
struct CandidateArena {
    edges: Vec<EdgeId>,
    start: Vec<usize>,
    bottleneck: Vec<f64>,
    /// Active entry `k` owns paths `first[k]..first[k + 1]`.
    first: Vec<usize>,
}

impl CandidateArena {
    fn new(g: &Graph, entries: &[RestrictedEntry<'_>], active: &[usize]) -> Self {
        let (mut num_paths, mut num_edges) = (0, 0);
        for &j in active {
            num_paths += entries[j].paths.len();
            num_edges += entries[j].paths.iter().map(Path::hops).sum::<usize>();
        }
        let mut arena = CandidateArena {
            edges: Vec::with_capacity(num_edges),
            start: Vec::with_capacity(num_paths + 1),
            bottleneck: Vec::with_capacity(num_paths),
            first: Vec::with_capacity(active.len() + 1),
        };
        arena.start.push(0);
        arena.first.push(0);
        for &j in active {
            for path in entries[j].paths {
                arena.edges.extend_from_slice(path.edges());
                arena.start.push(arena.edges.len());
                let bottleneck = path
                    .edges()
                    .iter()
                    .map(|&e| g.cap(e))
                    .fold(f64::INFINITY, f64::min);
                arena.bottleneck.push(bottleneck);
            }
            arena.first.push(arena.bottleneck.len());
        }
        arena
    }

    /// Path numbers of active entry `k`'s candidates.
    fn candidates(&self, k: usize) -> std::ops::Range<usize> {
        self.first[k]..self.first[k + 1]
    }

    /// Edges of path `p`.
    fn edges(&self, p: usize) -> &[EdgeId] {
        &self.edges[self.start[p]..self.start[p + 1]]
    }

    /// Length of path `p` under `len`, summed in path order as
    /// [`Path::length`] sums it.
    fn length(&self, p: usize, len: &[f64]) -> f64 {
        self.edges(p).iter().map(|e| len[e.index()]).sum()
    }
}

/// Compute a `(1+O(ε))`-approximate min-congestion fractional routing of
/// the given entries where entry `j` may only use `entries[j].paths`.
///
/// Panics if an entry has positive demand but no candidate paths, or if a
/// candidate path has the wrong endpoints (debug only).
pub fn restricted_min_congestion(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    eps: f64,
) -> RestrictedSolution {
    assert!(eps > 0.0 && eps < 1.0);
    let _span = sor_obs::span("mwu/restricted");
    let m = g.num_edges();
    let active: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.demand > 0.0)
        .map(|(j, _)| j)
        .collect();
    for &j in &active {
        let e = &entries[j];
        assert!(
            !e.paths.is_empty(),
            "entry {}→{} has demand {} but no candidate paths",
            e.s,
            e.t,
            e.demand
        );
        debug_assert!(e
            .paths
            .iter()
            .all(|p| p.source() == e.s && p.target() == e.t));
    }
    let mut weights: Vec<Vec<f64>> = entries.iter().map(|e| vec![0.0; e.paths.len()]).collect();
    if active.is_empty() || m == 0 {
        return RestrictedSolution {
            weights,
            loads: EdgeLoads::zeros(m),
            congestion: 0.0,
            lower_bound: 0.0,
        };
    }

    let arena = CandidateArena::new(g, entries, &active);
    let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
    let mut len: Vec<f64> = g.edges().iter().map(|e| delta / e.cap).collect();
    let mut volume: f64 = delta * m as f64;
    let mut phases: u64 = 0;
    const MAX_PHASES: u64 = 1_000_000;

    while volume < 1.0 {
        phases += 1;
        sor_obs::counter_add!("flow/restricted/phases");
        assert!(phases <= MAX_PHASES, "restricted-flow phase bound exceeded");
        for (k, &j) in active.iter().enumerate() {
            let first = arena.first[k];
            let mut remaining = entries[j].demand;
            while remaining > 1e-15 {
                sor_obs::counter_add!("flow/restricted/oracle_scans");
                // cheapest candidate under current lengths (total_cmp
                // keeps this well-defined even for NaN lengths, and the
                // nonempty-candidates assert above makes `best` valid)
                let mut best = first;
                let mut best_len = f64::INFINITY;
                for p in arena.candidates(k) {
                    let l = arena.length(p, &len);
                    if l.total_cmp(&best_len).is_lt() {
                        best = p;
                        best_len = l;
                    }
                }
                let f = remaining.min(arena.bottleneck[best]);
                weights[j][best - first] += f;
                for &e in arena.edges(best) {
                    let cap = g.cap(e);
                    let old = len[e.index()];
                    let new = old * (1.0 + eps * f / cap);
                    len[e.index()] = new;
                    volume += cap * (new - old);
                }
                remaining -= f;
            }
        }
    }

    // Scale the accumulated weights so each entry routes its demand once.
    let scale = 1.0 / phases as f64;
    let mut loads = EdgeLoads::zeros(m);
    for (j, entry) in entries.iter().enumerate() {
        for (i, w) in weights[j].iter_mut().enumerate() {
            *w *= scale;
            if *w > 0.0 {
                loads.add_path(&entry.paths[i], *w);
            }
        }
    }
    let congestion = loads.congestion(g);

    // Dual bound restricted to the path system: dist is the min candidate
    // length under the final ℓ.
    let mut alpha = 0.0;
    for (k, &j) in active.iter().enumerate() {
        let dist = arena
            .candidates(k)
            .map(|p| arena.length(p, &len))
            .fold(f64::INFINITY, f64::min);
        alpha += entries[j].demand * dist;
    }
    let lower_bound = alpha / volume;

    let sol = RestrictedSolution {
        weights,
        loads,
        congestion,
        lower_bound,
    };
    if crate::validate::validators_enabled() {
        if let Err(msg) = crate::validate::check_restricted(g, entries, &sol) {
            // sor-check: allow(unwrap, panic-path) — validator failure means a solver bug, not recoverable state
            panic!("restricted_min_congestion produced an invalid solution: {msg}");
        }
    }
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{gen, yen_ksp};

    fn entry<'a>(s: u32, t: u32, d: f64, paths: &'a [Path]) -> RestrictedEntry<'a> {
        RestrictedEntry {
            s: NodeId(s),
            t: NodeId(t),
            demand: d,
            paths,
        }
    }

    #[test]
    fn splits_over_two_candidates() {
        // C4, 0→2, both 2-hop paths offered: congestion 0.5.
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        assert_eq!(paths.len(), 2);
        let entries = [entry(0, 2, 1.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.05);
        assert!((sol.congestion - 0.5).abs() < 0.06, "{}", sol.congestion);
        assert!(sol.lower_bound > 0.4 && sol.lower_bound <= sol.congestion + 1e-9);
        let total: f64 = sol.weights[0].iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // near-even split
        assert!((sol.weights[0][0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn single_candidate_forces_path() {
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 1, &g.unit_lengths());
        let entries = [entry(0, 2, 2.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.05);
        assert!((sol.congestion - 2.0).abs() < 0.2, "{}", sol.congestion);
    }

    #[test]
    fn restriction_costs_versus_full_graph() {
        // Dumbbell with 3 bridges, demand 1 across; offering only one
        // bridge path forces congestion ~1, while the full graph gets ~1/3.
        let g = gen::dumbbell(4, 3);
        let all = yen_ksp(&g, NodeId(0), NodeId(4), 8, &g.unit_lengths());
        let one = vec![all[0].clone()];
        let full_entries = [entry(0, 4, 1.0, &all)];
        let one_entries = [entry(0, 4, 1.0, &one)];
        let full = restricted_min_congestion(&g, &full_entries, 0.05);
        let single = restricted_min_congestion(&g, &one_entries, 0.05);
        assert!(full.congestion < 0.45, "{}", full.congestion);
        assert!(single.congestion > 0.9, "{}", single.congestion);
    }

    #[test]
    fn multiple_commodities_share() {
        // Two commodities on C6 with overlapping candidate sets.
        let g = gen::cycle_graph(6);
        let p02 = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        let p35 = yen_ksp(&g, NodeId(3), NodeId(5), 2, &g.unit_lengths());
        let entries = [entry(0, 2, 1.0, &p02), entry(3, 5, 1.0, &p35)];
        let sol = restricted_min_congestion(&g, &entries, 0.1);
        // The short arcs are edge-disjoint but the long alternatives all
        // overlap, so the fractional optimum here is exactly 1.
        assert!(sol.congestion <= 1.15, "{}", sol.congestion);
        assert!(sol.congestion >= 0.9, "{}", sol.congestion);
        assert!(sol.lower_bound <= sol.congestion + 1e-9);
    }

    #[test]
    fn zero_demand_entries_ignored() {
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        let empty: Vec<Path> = Vec::new();
        let entries = [entry(0, 2, 0.0, &empty), entry(0, 2, 1.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.1);
        assert!(sol.congestion > 0.0);
        assert!(sol.weights[0].is_empty());
    }

    /// Reference solver: the loop before the edge arena, which scanned
    /// each candidate's own `Path` and recomputed its bottleneck per call.
    fn per_path_scan(g: &Graph, entries: &[RestrictedEntry<'_>], eps: f64) -> RestrictedSolution {
        let m = g.num_edges();
        let active: Vec<usize> = (0..entries.len())
            .filter(|&j| entries[j].demand > 0.0)
            .collect();
        let mut weights: Vec<Vec<f64>> = entries.iter().map(|e| vec![0.0; e.paths.len()]).collect();
        let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
        let mut len: Vec<f64> = g.edges().iter().map(|e| delta / e.cap).collect();
        let mut volume: f64 = delta * m as f64;
        let mut phases: u64 = 0;
        while volume < 1.0 {
            phases += 1;
            for &j in &active {
                let entry = &entries[j];
                let mut remaining = entry.demand;
                while remaining > 1e-15 {
                    let mut best = 0usize;
                    let mut best_len = f64::INFINITY;
                    for (i, p) in entry.paths.iter().enumerate() {
                        let l = p.length(&len);
                        if l.total_cmp(&best_len).is_lt() {
                            best = i;
                            best_len = l;
                        }
                    }
                    let path = &entry.paths[best];
                    let bottleneck = path
                        .edges()
                        .iter()
                        .map(|&e| g.cap(e))
                        .fold(f64::INFINITY, f64::min);
                    let f = remaining.min(bottleneck);
                    weights[j][best] += f;
                    for &e in path.edges() {
                        let cap = g.cap(e);
                        let old = len[e.index()];
                        let new = old * (1.0 + eps * f / cap);
                        len[e.index()] = new;
                        volume += cap * (new - old);
                    }
                    remaining -= f;
                }
            }
        }
        let scale = 1.0 / phases as f64;
        let mut loads = EdgeLoads::zeros(m);
        for (j, entry) in entries.iter().enumerate() {
            for (i, w) in weights[j].iter_mut().enumerate() {
                *w *= scale;
                if *w > 0.0 {
                    loads.add_path(&entry.paths[i], *w);
                }
            }
        }
        let congestion = loads.congestion(g);
        let mut alpha = 0.0;
        for &j in &active {
            let dist = entries[j]
                .paths
                .iter()
                .map(|p| p.length(&len))
                .fold(f64::INFINITY, f64::min);
            alpha += entries[j].demand * dist;
        }
        RestrictedSolution {
            weights,
            loads,
            congestion,
            lower_bound: alpha / volume,
        }
    }

    fn assert_bit_equal(a: &RestrictedSolution, b: &RestrictedSolution) {
        let bits = |w: &[Vec<f64>]| -> Vec<Vec<u64>> {
            w.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&a.weights), bits(&b.weights));
        assert_eq!(a.congestion.to_bits(), b.congestion.to_bits());
        assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
        assert_eq!(a.loads, b.loads);
    }

    #[test]
    fn arena_scan_matches_per_path_scan() {
        // Parallel edges of unequal capacity, so the bottleneck and the
        // edge (not just the vertex) sequence of each candidate matter.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        g.add_edge(NodeId(0), NodeId(1), 2.5); // e1
        g.add_edge(NodeId(1), NodeId(2), 1.5); // e2
        g.add_edge(NodeId(0), NodeId(2), 0.7); // e3
        g.add_edge(NodeId(2), NodeId(3), 3.0); // e4
        g.add_edge(NodeId(1), NodeId(3), 1.1); // e5
        let e = |ids: &[usize]| {
            ids.iter()
                .map(|&i| EdgeId::from_usize(i))
                .collect::<Vec<_>>()
        };
        let path = |s: u32, ids: &[usize]| Path::from_edges(&g, NodeId(s), e(ids)).unwrap();
        // Repeated candidates: the first copy must keep winning ties.
        let p02 = vec![
            path(0, &[0, 2]),
            path(0, &[1, 2]),
            path(0, &[3]),
            path(0, &[1, 2]),
        ];
        let p03 = vec![
            path(0, &[3, 4]),
            path(0, &[1, 5]),
            path(0, &[0, 5]),
            path(0, &[3, 4]),
        ];
        let p13 = vec![path(1, &[5]), path(1, &[2, 4])];
        let entries = [
            entry(0, 2, 1.3, &p02),
            entry(0, 3, 0.0, &p03),
            entry(0, 3, 0.8, &p03),
            entry(1, 3, 2.0, &p13),
        ];
        for eps in [0.05, 0.2] {
            assert_bit_equal(
                &restricted_min_congestion(&g, &entries, eps),
                &per_path_scan(&g, &entries, eps),
            );
        }

        // A grid with random capacities and 3-shortest candidates, each
        // pair's list repeated once, plus a zero-demand pair.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let unit = gen::grid(6, 6);
        let mut g = Graph::new(unit.num_nodes());
        for e in unit.edges() {
            g.add_edge(e.u, e.v, 0.5 + 2.0 * next());
        }
        let pairs = [
            (0, 35, 1.0),
            (5, 30, 0.7),
            (7, 28, 0.0),
            (1, 34, 1.9),
            (12, 17, 0.4),
            (2, 33, 1.2),
        ];
        let lists: Vec<Vec<Path>> = pairs
            .iter()
            .map(|&(s, t, _)| {
                let mut ps = yen_ksp(&g, NodeId(s), NodeId(t), 3, &g.unit_lengths());
                ps.extend(ps.clone());
                ps
            })
            .collect();
        let entries: Vec<RestrictedEntry<'_>> = pairs
            .iter()
            .zip(&lists)
            .map(|(&(s, t, d), ps)| entry(s, t, d, ps))
            .collect();
        // At ε = 0.5 the final lengths are close enough in scale that
        // summing a path in another order changes the dual bound's bits.
        for eps in [0.1, 0.5] {
            assert_bit_equal(
                &restricted_min_congestion(&g, &entries, eps),
                &per_path_scan(&g, &entries, eps),
            );
        }
    }

    #[test]
    #[should_panic(expected = "no candidate paths")]
    fn demand_without_paths_panics() {
        let g = gen::cycle_graph(4);
        let empty: Vec<Path> = Vec::new();
        let entries = [entry(0, 2, 1.0, &empty)];
        restricted_min_congestion(&g, &entries, 0.1);
    }

    use sor_graph::NodeId;
}
