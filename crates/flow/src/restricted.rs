//! Min-congestion routing *restricted to a candidate path system* — the
//! semi-oblivious Stage 4 (Definition 5.1: `cong(P, D)` is the optimal
//! congestion over routings supported on the path system `P`).
//!
//! Same exponential-length MWU as [`crate::concurrent`], but the shortest
//! path oracle only chooses among each pair's candidate paths, so each
//! oracle call is a cheap scan instead of a Dijkstra.
//!
//! The demand is normalized as in [`crate::concurrent`], with the
//! restricted problem's own bounds: the one-pass bound λ₁ routes each
//! active entry whole on its cheapest candidate under the initial lengths
//! and stops once an edge's load reaches its capacity (on unit demands over
//! unit capacities, after the first entry); below 1, a coarse restricted
//! run refines it. Weights, loads and both bounds come back divided by the
//! scale, and [`crate::validate::check_restricted`] checks that unscaled
//! solution against the caller's own entries.

use crate::concurrent::{route_whole, unit_scale, FlowError, Lengths, COARSE_EPS};
use crate::loads::EdgeLoads;
use sor_graph::{EdgeId, Graph, NodeId, PathList};

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
    /// Candidate paths (each must run `s → t`), borrowed as stored.
    pub paths: &'a PathList,
}

/// The active entries' candidate lists copied into one edge-id arena, so
/// an oracle scan reads one contiguous run instead of one list per entry.
/// Paths are numbered across the active entries in order; path `p` runs
/// over `edges[start[p]..start[p + 1]]` and can carry at most
/// `bottleneck[p]`, the smallest capacity on it.
struct CandidateArena {
    edges: Vec<EdgeId>,
    start: Vec<usize>,
    bottleneck: Vec<f64>,
    /// Active entry `k` owns paths `first[k]..first[k + 1]`.
    first: Vec<usize>,
    /// Active entry `k` routes `demand[k]`.
    demand: Vec<f64>,
}

impl CandidateArena {
    fn new(g: &Graph, entries: &[RestrictedEntry<'_>], active: &[usize]) -> Self {
        let (mut num_paths, mut num_edges) = (0, 0);
        for &j in active {
            num_paths += entries[j].paths.len();
            num_edges += entries[j].paths.all_edges().len();
        }
        let mut arena = CandidateArena {
            edges: Vec::with_capacity(num_edges),
            start: Vec::with_capacity(num_paths + 1),
            bottleneck: Vec::with_capacity(num_paths),
            first: Vec::with_capacity(active.len() + 1),
            demand: active.iter().map(|&j| entries[j].demand).collect(),
        };
        arena.start.push(0);
        arena.first.push(0);
        for &j in active {
            let list = entries[j].paths;
            let mut end = arena.edges.len();
            arena.edges.extend_from_slice(list.all_edges());
            for path in list {
                end += path.hops();
                arena.start.push(end);
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
    /// [`sor_graph::Path::length`] sums it.
    fn length(&self, p: usize, len: &[f64]) -> f64 {
        self.edges(p).iter().map(|e| len[e.index()]).sum()
    }

    /// The first cheapest candidate of active entry `k` under `len` and
    /// its length (`total_cmp` keeps this well-defined even for NaN
    /// lengths, and an active entry has at least one candidate; when no
    /// length sorts below +∞, the first candidate comes back with +∞).
    ///
    /// Candidates are summed four at a time, then a leftover pair, then a
    /// last single one, so up to four independent add chains overlap
    /// instead of one chain per candidate waiting on the last add. Each
    /// length is bit-identical to [`CandidateArena::length`]: see
    /// [`lengths_side_by_side`].
    fn cheapest(&self, k: usize, len: &[f64]) -> (usize, f64) {
        let (mut p, end) = (self.first[k], self.first[k + 1]);
        let mut best = (p, f64::INFINITY);
        let mut offer = |q: usize, l: f64| {
            if l.total_cmp(&best.1).is_lt() {
                best = (q, l);
            }
        };
        while end - p >= 4 {
            let sums = lengths_side_by_side([p, p + 1, p + 2, p + 3].map(|q| self.edges(q)), len);
            for (q, l) in (p..).zip(sums) {
                offer(q, l);
            }
            p += 4;
        }
        if end - p >= 2 {
            let sums = lengths_side_by_side([p, p + 1].map(|q| self.edges(q)), len);
            for (q, l) in (p..).zip(sums) {
                offer(q, l);
            }
            p += 2;
        }
        if p < end {
            offer(p, self.length(p, len));
        }
        best
    }

    /// Loads of routing `weights[p]` on each path `p`, in path order.
    fn loads(&self, m: usize, weights: &[f64]) -> EdgeLoads {
        let mut loads = EdgeLoads::zeros(m);
        for (p, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                loads.add_edges(self.edges(p), w);
            }
        }
        loads
    }

    /// The one-pass bound λ₁ ≥ λ when it is below 1: the congestion of
    /// routing every active entry whole on its cheapest candidate under
    /// the initial lengths `len`. `None` as soon as an edge's load reaches
    /// its capacity (λ₁ ≥ 1), or when nothing loads an edge.
    fn one_pass_congestion(&self, g: &Graph, len: &[f64]) -> Option<f64> {
        let mut loads = EdgeLoads::zeros(g.num_edges());
        for (k, &d) in self.demand.iter().enumerate() {
            if !route_whole(g, &mut loads, self.edges(self.cheapest(k, len).0), d) {
                return None;
            }
        }
        let lambda_one = loads.congestion(g);
        (lambda_one > 0.0).then_some(lambda_one)
    }

    /// One run at accuracy `eps` that routes `sigma` times each active
    /// entry's demand per phase: the phase count, the final lengths and
    /// the raw flow on each path.
    fn run(&self, g: &Graph, eps: f64, sigma: f64) -> (u64, Lengths, Vec<f64>) {
        let mut lengths = Lengths::new(g, eps);
        let mut weights = vec![0.0; self.bottleneck.len()];
        let mut phases: u64 = 0;
        const MAX_PHASES: u64 = 1_000_000;

        while lengths.volume < 1.0 {
            phases += 1;
            sor_obs::counter_add!("flow/restricted/phases");
            assert!(phases <= MAX_PHASES, "restricted-flow phase bound exceeded");
            for (k, &d) in self.demand.iter().enumerate() {
                let mut remaining = d * sigma;
                while remaining > 1e-15 {
                    sor_obs::counter_add!("flow/restricted/oracle_scans");
                    let (best, _) = self.cheapest(k, &lengths.len);
                    let f = remaining.min(self.bottleneck[best]);
                    weights[best] += f;
                    lengths.route(g, self.edges(best), f);
                    remaining -= f;
                }
            }
        }
        (phases, lengths, weights)
    }
}

/// The lengths of `paths` under `len`: their common hop prefix summed in
/// one loop with one accumulator per path, then each path's tail on its
/// own. Every accumulator starts at −0.0, where `Iterator::sum` starts,
/// and adds its path's edge lengths in path order, so each sum has the
/// bits of [`CandidateArena::length`] while the `N` chains run side by
/// side.
fn lengths_side_by_side<const N: usize>(paths: [&[EdgeId]; N], len: &[f64]) -> [f64; N] {
    let common = paths.iter().map(|p| p.len()).fold(usize::MAX, usize::min);
    let heads = paths.map(|p| &p[..common]);
    let mut sums = [-0.0; N];
    for i in 0..common {
        for (sum, head) in sums.iter_mut().zip(&heads) {
            *sum += len[head[i].index()];
        }
    }
    for (sum, path) in sums.iter_mut().zip(paths) {
        for e in &path[common..] {
            *sum += len[e.index()];
        }
    }
    sums
}

/// Compute a `(1+O(ε))`-approximate min-congestion fractional routing of
/// the given entries where entry `j` may only use `entries[j].paths`.
/// Entries whose one-pass congestion is below 1 are solved scaled up to
/// optimal congestion near 1, as [`crate::concurrent`] describes.
///
/// Panics if `eps` is not in (0, 1) (with the message
/// [`FlowError::InvalidEpsilon`] prints), if an entry has positive demand
/// but no candidate paths, or if a candidate path has the wrong endpoints
/// (debug only).
pub fn restricted_min_congestion(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    eps: f64,
) -> RestrictedSolution {
    assert!(
        eps > 0.0 && eps < 1.0,
        "{}",
        FlowError::InvalidEpsilon { eps }
    );
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
            .all(|p| p.source() == e.s && p.target(g) == e.t));
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
    let sigma = match arena.one_pass_congestion(g, &Lengths::new(g, eps).len) {
        Some(lambda_one) => {
            let (phases, _, coarse) = arena.run(g, COARSE_EPS, 1.0 / lambda_one);
            unit_scale(
                lambda_one,
                arena.loads(m, &coarse).congestion(g) / phases as f64,
            )
        }
        None => 1.0,
    };
    let (phases, lengths, mut flat) = arena.run(g, eps, sigma);

    // Scale the accumulated weights so each entry routes its demand once.
    let scale = 1.0 / (phases as f64 * sigma);
    for w in &mut flat {
        *w *= scale;
    }
    let loads = arena.loads(m, &flat);
    for (k, &j) in active.iter().enumerate() {
        weights[j].copy_from_slice(&flat[arena.candidates(k)]);
    }
    let congestion = loads.congestion(g);

    // Dual bound restricted to the path system: dist is the min candidate
    // length under the final ℓ, over the caller's own demands.
    let mut alpha = 0.0;
    for (k, &d) in arena.demand.iter().enumerate() {
        alpha += d * arena.cheapest(k, &lengths.len).1;
    }
    let lower_bound = alpha / lengths.volume;

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
    use sor_graph::{gen, yen_ksp, Path};

    /// `paths` as one list, repeats kept (from `NodeId(0)` when empty).
    fn as_list(paths: &[Path]) -> PathList {
        PathList::from_paths(paths.first().map_or(NodeId(0), Path::source), paths)
    }

    fn entry<'a>(s: u32, t: u32, d: f64, paths: &'a PathList) -> RestrictedEntry<'a> {
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
        let paths = as_list(&yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()));
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
        let paths = as_list(&yen_ksp(&g, NodeId(0), NodeId(2), 1, &g.unit_lengths()));
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
        let one = as_list(&all[..1]);
        let all = as_list(&all);
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
        let p02 = as_list(&yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()));
        let p35 = as_list(&yen_ksp(&g, NodeId(3), NodeId(5), 2, &g.unit_lengths()));
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
        let paths = as_list(&yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()));
        let empty = PathList::new(NodeId(0));
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
                        let l: f64 = p.edges().iter().map(|e| len[e.index()]).sum();
                        if l.total_cmp(&best_len).is_lt() {
                            best = i;
                            best_len = l;
                        }
                    }
                    let path = entry.paths.get(best);
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
                    loads.add_edges(entry.paths.get(i).edges(), *w);
                }
            }
        }
        let congestion = loads.congestion(g);
        let mut alpha = 0.0;
        for &j in &active {
            let dist = entries[j]
                .paths
                .iter()
                .map(|p| p.edges().iter().map(|e| len[e.index()]).sum::<f64>())
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
        let p02 = as_list(&[
            path(0, &[0, 2]),
            path(0, &[1, 2]),
            path(0, &[3]),
            path(0, &[1, 2]),
        ]);
        let p03 = as_list(&[
            path(0, &[3, 4]),
            path(0, &[1, 5]),
            path(0, &[0, 5]),
            path(0, &[3, 4]),
        ]);
        let p13 = as_list(&[path(1, &[5]), path(1, &[2, 4])]);
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
        let lists: Vec<PathList> = pairs
            .iter()
            .map(|&(s, t, _)| {
                let mut ps = yen_ksp(&g, NodeId(s), NodeId(t), 3, &g.unit_lengths());
                ps.extend(ps.clone());
                as_list(&ps)
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

    /// `unit`'s edges with capacities drawn from `rng` in [0.5, 2.5).
    fn random_capacities(unit: &Graph, rng: &mut impl rand::Rng) -> Graph {
        let mut g = Graph::new(unit.num_nodes());
        for e in unit.edges() {
            g.add_edge(e.u, e.v, rng.gen_range(0.5..2.5));
        }
        g
    }

    /// One length per edge of `g`, drawn from `rng` in [0.2, 1.0).
    fn random_lengths(g: &Graph, rng: &mut impl rand::Rng) -> Vec<f64> {
        (0..g.num_edges())
            .map(|_| rng.gen_range(0.2..1.0))
            .collect()
    }

    /// Whether some group of four candidates, as the scan takes them from
    /// an entry's first candidate on, has paths of unequal hop counts.
    fn has_ragged_group(lists: &[Vec<Path>]) -> bool {
        lists.iter().any(|ps| {
            ps.chunks_exact(4)
                .any(|group| group.iter().any(|p| p.hops() != group[0].hops()))
        })
    }

    #[test]
    fn grouped_scan_matches_per_path_scan_on_every_group_shape() {
        // Entries of 1 to 9 candidates take every mix of groups of four, a
        // leftover pair and a last single candidate. The candidates are the
        // k shortest under random lengths, so hop counts differ inside a
        // group, and each list of two or more ends with a copy of its first
        // candidate: in the same group, the pair or the single, or (from
        // five candidates on) a later one. The copy ties the first
        // candidate in every scan and must never take its flow.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_capacities(&gen::grid(6, 6), &mut rng);
        let detour = random_lengths(&g, &mut rng);
        let pairs = [
            (0, 35),
            (5, 30),
            (1, 34),
            (6, 29),
            (2, 33),
            (12, 23),
            (3, 32),
            (4, 31),
            (7, 28),
        ];
        let lists: Vec<Vec<Path>> = (1..=9)
            .zip(pairs)
            .map(|(count, (s, t))| {
                let mut ps = yen_ksp(&g, NodeId(s), NodeId(t), (count - 1).max(1), &detour);
                if count > 1 {
                    ps.push(ps[0].clone());
                }
                assert_eq!(ps.len(), count);
                ps
            })
            .collect();
        assert!(has_ragged_group(&lists));
        let lists: Vec<PathList> = lists.iter().map(|ps| as_list(ps)).collect();
        let entries: Vec<RestrictedEntry<'_>> = (0u32..)
            .zip(pairs.iter().zip(&lists))
            .map(|(i, (&(s, t), ps))| entry(s, t, 1.0 + 0.1 * f64::from(i), ps))
            .collect();
        for eps in [0.1, 0.3] {
            // Unscaled, so the reference (which never scales) keeps every bit.
            assert_eq!(one_pass(&g, &entries, eps), None);
            let reference = per_path_scan(&g, &entries, eps);
            // The first candidate carries flow in a list whose copy sits in
            // a later group, the pair or the single: the ties happened.
            assert!((5..=9).any(|count| reference.weights[count - 1][0] > 0.0));
            assert_bit_equal(&restricted_min_congestion(&g, &entries, eps), &reference);
        }
    }

    #[test]
    fn yen_candidates_on_an_expander_match_per_path_scan() {
        // 11 candidates per pair, the k shortest under random lengths: two
        // groups of four with ragged hop counts, a pair and a single.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let unit = gen::random_regular(256, 4, &mut rng);
        let g = random_capacities(&unit, &mut rng);
        let detour = random_lengths(&g, &mut rng);
        let pairs: Vec<(u32, u32, f64)> = (0..16)
            .map(|i| (i, 255 - 7 * i, rng.gen_range(0.5..1.5)))
            .collect();
        let lists: Vec<Vec<Path>> = pairs
            .iter()
            .map(|&(s, t, _)| yen_ksp(&g, NodeId(s), NodeId(t), 11, &detour))
            .collect();
        assert!(lists.iter().all(|ps| ps.len() == 11));
        assert!(has_ragged_group(&lists));
        let lists: Vec<PathList> = lists.iter().map(|ps| as_list(ps)).collect();
        let entries: Vec<RestrictedEntry<'_>> = pairs
            .iter()
            .zip(&lists)
            .map(|(&(s, t, d), ps)| entry(s, t, d, ps))
            .collect();
        for eps in [0.1, 0.3] {
            assert_eq!(one_pass(&g, &entries, eps), None);
            assert_bit_equal(
                &restricted_min_congestion(&g, &entries, eps),
                &per_path_scan(&g, &entries, eps),
            );
        }
    }

    #[test]
    fn cheapest_returns_the_first_minimum_with_its_length_bits() {
        // Entries of 1 to 9 candidates with ragged hop counts, one list with
        // copies of its first candidate in later groups, and one of seven
        // trivial paths (a group, a pair and a single), whose lengths are
        // −0.0: the sum of no edges. Unit lengths tie many candidates.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let unit = gen::random_regular(64, 4, &mut rng);
        let g = random_capacities(&unit, &mut rng);
        let detour = random_lengths(&g, &mut rng);
        let mut lists: Vec<Vec<Path>> = (1..=9)
            .map(|count| {
                yen_ksp(
                    &g,
                    NodeId(count),
                    NodeId(63 - count),
                    count as usize,
                    &detour,
                )
            })
            .collect();
        let copies = lists[8].clone();
        lists.push([copies.clone(), copies].concat());
        lists.push(vec![Path::trivial(NodeId(12)); 7]);
        assert!(has_ragged_group(&lists));
        let ends: Vec<(u32, u32)> = lists
            .iter()
            .map(|ps| (ps[0].source().0, ps[0].target().0))
            .collect();
        let lists: Vec<PathList> = lists.iter().map(|ps| as_list(ps)).collect();
        let entries: Vec<RestrictedEntry<'_>> = ends
            .iter()
            .zip(&lists)
            .map(|(&(s, t), ps)| entry(s, t, 1.0, ps))
            .collect();
        let active: Vec<usize> = (0..entries.len()).collect();
        let arena = CandidateArena::new(&g, &entries, &active);
        let mut tables = vec![g.unit_lengths()];
        tables.extend((0..4).map(|_| random_lengths(&g, &mut rng)));
        for len in &tables {
            for k in 0..active.len() {
                let mut first_min = (arena.first[k], f64::INFINITY);
                for p in arena.candidates(k) {
                    let l = arena.length(p, len);
                    if l.total_cmp(&first_min.1).is_lt() {
                        first_min = (p, l);
                    }
                }
                let (best, l) = arena.cheapest(k, len);
                assert_eq!(best, first_min.0, "entry {k}");
                assert_eq!(l.to_bits(), arena.length(best, len).to_bits(), "entry {k}");
            }
        }
    }

    /// A gravity TM of 4.0 units over `g`'s vertices, masses drawn from
    /// `seed`, with the 4 fewest-hop candidates per pair.
    fn gravity_candidates(g: &Graph, seed: u64) -> Vec<(NodeId, NodeId, f64, PathList)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mass: Vec<f64> = nodes.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
        crate::demand::gravity(&nodes, &mass, 4.0)
            .entries()
            .iter()
            .map(|&(s, t, d)| (s, t, d, as_list(&yen_ksp(g, s, t, 4, &g.unit_lengths()))))
            .collect()
    }

    /// `tm`'s entries with every demand multiplied by `factor`.
    fn scaled_entries(
        tm: &[(NodeId, NodeId, f64, PathList)],
        factor: f64,
    ) -> Vec<RestrictedEntry<'_>> {
        tm.iter()
            .map(|(s, t, d, paths)| RestrictedEntry {
                s: *s,
                t: *t,
                demand: d * factor,
                paths,
            })
            .collect()
    }

    fn gap(sol: &RestrictedSolution) -> f64 {
        sol.congestion / sol.lower_bound
    }

    /// Both certified intervals overlap, and the solver's gap is within
    /// `1+ε²` of the reference's.
    fn inside_reference_sandwich(
        new: &RestrictedSolution,
        old: &RestrictedSolution,
        eps: f64,
        at: &str,
    ) {
        assert!(new.lower_bound <= new.congestion + 1e-9, "{at}");
        assert!(new.lower_bound <= old.congestion, "{at}");
        assert!(old.lower_bound <= new.congestion, "{at}");
        assert!(
            gap(new) <= gap(old) * (1.0 + eps * eps),
            "{at}: gap {} vs reference {}",
            gap(new),
            gap(old)
        );
    }

    #[test]
    fn scaled_solves_stay_inside_the_reference_sandwich_on_wans() {
        // On B4, GEANT and ATT these TMs' one-pass bound is below 1, so the
        // solver scales them; the reference never scales. In debug builds
        // the solver also checks each unscaled solution.
        for g in [gen::abilene(), gen::b4(), gen::geant(), gen::att()] {
            for seed in [1, 2] {
                let tm = gravity_candidates(&g, seed);
                let entries = scaled_entries(&tm, 1.0);
                for eps in [0.05, 0.1, 0.3] {
                    let at = format!("n={} seed {seed} eps {eps}", g.num_nodes());
                    inside_reference_sandwich(
                        &restricted_min_congestion(&g, &entries, eps),
                        &per_path_scan(&g, &entries, eps),
                        eps,
                        &at,
                    );
                }
            }
        }
    }

    fn one_pass(g: &Graph, entries: &[RestrictedEntry<'_>], eps: f64) -> Option<f64> {
        let active: Vec<usize> = (0..entries.len())
            .filter(|&j| entries[j].demand > 0.0)
            .collect();
        CandidateArena::new(g, entries, &active).one_pass_congestion(g, &Lengths::new(g, eps).len)
    }

    /// The factor that puts the one-pass bound at ε = 0.1 of B4's seed-1
    /// TM at `target`; the bound is linear in the demand.
    fn factor_for_one_pass(g: &Graph, tm: &[(NodeId, NodeId, f64, PathList)], target: f64) -> f64 {
        let lambda_one =
            one_pass(g, &scaled_entries(tm, 1e-3), 0.1).expect("a thousandth of a TM fits");
        target * 1e-3 / lambda_one
    }

    #[test]
    fn one_pass_bound_just_above_one_keeps_every_bit() {
        let g = gen::b4();
        let tm = gravity_candidates(&g, 1);
        let entries = scaled_entries(&tm, factor_for_one_pass(&g, &tm, 1.0 + 1e-9));
        assert_eq!(one_pass(&g, &entries, 0.1), None);
        assert_bit_equal(
            &restricted_min_congestion(&g, &entries, 0.1),
            &per_path_scan(&g, &entries, 0.1),
        );
    }

    #[test]
    fn one_pass_bound_just_below_one_stays_inside_the_reference_sandwich() {
        let g = gen::b4();
        let tm = gravity_candidates(&g, 1);
        let entries = scaled_entries(&tm, factor_for_one_pass(&g, &tm, 1.0 - 1e-9));
        assert!(one_pass(&g, &entries, 0.1).is_some_and(|l| l < 1.0));
        inside_reference_sandwich(
            &restricted_min_congestion(&g, &entries, 0.1),
            &per_path_scan(&g, &entries, 0.1),
            0.1,
            "b4 seed 1",
        );
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1), got 1")]
    fn epsilon_of_one_panics_with_the_typed_message() {
        let g = gen::cycle_graph(4);
        let paths = as_list(&yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()));
        let entries = [entry(0, 2, 1.0, &paths)];
        restricted_min_congestion(&g, &entries, 1.0);
    }

    #[test]
    #[should_panic(expected = "no candidate paths")]
    fn demand_without_paths_panics() {
        let g = gen::cycle_graph(4);
        let empty = PathList::new(NodeId(0));
        let entries = [entry(0, 2, 1.0, &empty)];
        restricted_min_congestion(&g, &entries, 0.1);
    }

    use sor_graph::NodeId;
}
