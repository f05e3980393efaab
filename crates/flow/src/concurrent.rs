//! Max concurrent flow on the whole graph — the offline OPT oracle.
//!
//! Garg–Könemann with exponential lengths: maintain edge lengths
//! `ℓ_e = δ/c_e · Π (1+ε·f/c_e)`, repeatedly route each commodity along a
//! near-shortest path in capacity-bounded pieces, and stop once the
//! total length volume `D(ℓ) = Σ_e c_e ℓ_e` reaches 1. Scaling the
//! accumulated flow by the number of completed phases yields a *feasible*
//! fractional routing of the demand whose congestion is within `(1+O(ε))`
//! of optimal; LP duality turns the final lengths into a certified lower
//! bound, so callers get a sandwich `lower ≤ OPT ≤ upper`.
//!
//! When sources have several commodities, most oracle calls run no
//! search, as in Fleischer's variant of the algorithm. Each commodity `j`
//! keeps the paths it has been routed on (the pool its path decomposition
//! is built from) and a bound `lower[j]`: the exact `s_j→t_j` distance from
//! the last search out of `s_j`. Lengths only ever grow, so `lower[j]`
//! stays a lower bound on j's distance for the rest of the run. A call
//! routes on j's cheapest pool path while that path is within `1+ε²` of
//! `lower[j]`, and so within `1+ε²` of shortest; such an approximate oracle
//! costs the analysis at most a factor `1+ε²`. Otherwise one Dijkstra from
//! `s_j` settles every target of `s_j` and refreshes the bounds of all of
//! `s_j`'s commodities. A commodity alone at its source searches for its
//! first piece of each phase: only its own searches refresh its bound, and
//! a phase of routes usually lengthens its paths by far more than `1+ε²`.
//! The later pieces of a demand split at a bottleneck follow the rule
//! above. The sandwich needs no such argument: the upper bound is the
//! congestion of the routed, scaled flow and the lower bound is the exact
//! dual at the end of the run.

use crate::demand::Demand;
use crate::loads::EdgeLoads;
use crate::validate;
use sor_graph::{DijkstraSearch, EdgeId, Graph, NodeId, Path};
use std::collections::BTreeMap;

/// Result of the OPT-congestion computation for a demand.
#[derive(Clone, Debug)]
pub struct OptResult {
    /// Congestion of the feasible routing we constructed: an *upper* bound
    /// on the optimal fractional congestion, achieved by an explicit
    /// routing.
    pub congestion_upper: f64,
    /// Certified LP lower bound on the congestion of *any* fractional
    /// routing of the demand.
    pub congestion_lower: f64,
    /// Per-edge loads of the constructed routing (routes the demand once;
    /// `loads.congestion(g) == congestion_upper`).
    pub loads: EdgeLoads,
    /// Path decomposition of the constructed routing:
    /// `(commodity index, path, weight)`, where per-commodity weights sum
    /// to that commodity's demand.
    pub paths: Vec<(usize, Path, f64)>,
}

impl OptResult {
    /// Midpoint estimate of OPT (geometric mean of the sandwich).
    pub fn congestion_estimate(&self) -> f64 {
        (self.congestion_upper * self.congestion_lower).sqrt()
    }

    /// Multiplicative width of the sandwich (1.0 = exact).
    pub fn gap(&self) -> f64 {
        if self.congestion_lower > 0.0 {
            self.congestion_upper / self.congestion_lower
        } else {
            f64::INFINITY
        }
    }
}

/// Why a flow computation could not produce a routing.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// A demand pair has positive demand but no path between its
    /// endpoints.
    Disconnected {
        /// Source of the unroutable pair.
        s: NodeId,
        /// Target of the unroutable pair.
        t: NodeId,
    },
    /// The accuracy parameter ε is outside the open interval (0, 1) or
    /// NaN.
    InvalidEpsilon {
        /// The rejected ε.
        eps: f64,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Disconnected { s, t } => {
                write!(f, "demand pair {s}→{t} disconnected")
            }
            FlowError::InvalidEpsilon { eps } => write!(f, "eps must be in (0,1), got {eps}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Compute a `(1+O(ε))`-approximate min-congestion fractional routing of
/// `demand` in `g` (Garg–Könemann max concurrent flow, reinterpreted:
/// min congestion = 1 / max concurrent throughput).
///
/// Panics if some demand pair is disconnected in `g` or `eps` is not in
/// (0, 1); use [`try_max_concurrent_flow`] to get the failure as a value
/// instead.
pub fn max_concurrent_flow(g: &Graph, demand: &Demand, eps: f64) -> OptResult {
    match try_max_concurrent_flow(g, demand, eps) {
        Ok(r) => r,
        // sor-check: allow(unwrap, panic-path) — panicking facade over the Result API; contract in the doc comment
        Err(e) => panic!("{e}"),
    }
}

/// The commodities out of one source, in demand order.
struct SourceGroup {
    source: NodeId,
    /// Commodity indices into the demand's entries.
    members: Vec<usize>,
    /// `targets[i]` is the target of commodity `members[i]`.
    targets: Vec<NodeId>,
}

/// Index and length under `len` of the first shortest path in `pool`,
/// each path summed in edge order; `None` for an empty pool.
fn cheapest(pool: &[(Vec<EdgeId>, f64)], len: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, (edges, _)) in pool.iter().enumerate() {
        let l: f64 = edges.iter().map(|e| len[e.index()]).sum();
        if best.is_none_or(|(_, b)| l < b) {
            best = Some((i, l));
        }
    }
    best
}

/// Fallible form of [`max_concurrent_flow`]: a disconnected demand pair
/// is reported as [`FlowError::Disconnected`] and an ε outside (0, 1) as
/// [`FlowError::InvalidEpsilon`] instead of a panic, so solver pipelines
/// can surface them as a `Result`.
///
/// An oracle call routes on the commodity's cheapest path so far when that
/// path is within `1+ε²` of the commodity's distance bound (see the module
/// doc for when a commodity alone at its source skips this); otherwise it
/// runs one Dijkstra from the commodity's source that settles every target
/// of that source, on a search workspace shared by all calls.
pub fn try_max_concurrent_flow(
    g: &Graph,
    demand: &Demand,
    eps: f64,
) -> Result<OptResult, FlowError> {
    if !(eps > 0.0 && eps < 1.0) {
        return Err(FlowError::InvalidEpsilon { eps });
    }
    let _span = sor_obs::span("flow/opt");
    let m = g.num_edges();
    let entries = demand.entries();
    if entries.is_empty() || m == 0 {
        return Ok(OptResult {
            congestion_upper: 0.0,
            congestion_lower: 0.0,
            loads: EdgeLoads::zeros(m),
            paths: Vec::new(),
        });
    }

    let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
    let mut len: Vec<f64> = g.edges().iter().map(|e| delta / e.cap).collect();
    let mut volume: f64 = delta * m as f64; // D(ℓ) = Σ c_e ℓ_e

    // Sources ascending, each group in demand order: one search settles
    // a whole group, and the dual bound below sums over the groups in
    // this order. α is a float sum, so the order must not depend on a
    // hasher.
    let mut by_source: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (j, &(s, _, _)) in entries.iter().enumerate() {
        by_source.entry(s).or_default().push(j);
    }
    let groups: Vec<SourceGroup> = by_source
        .into_iter()
        .map(|(source, members)| SourceGroup {
            source,
            targets: members.iter().map(|&j| entries[j].1).collect(),
            members,
        })
        .collect();
    let mut group_of = vec![0; entries.len()];
    for (i, group) in groups.iter().enumerate() {
        for &j in &group.members {
            group_of[j] = i;
        }
    }

    let mut raw = EdgeLoads::zeros(m);
    // Per commodity, each distinct edge list it was routed on with its raw
    // amount, in first-seen order: the reuse pool and the path
    // decomposition.
    let mut found: Vec<Vec<(Vec<EdgeId>, f64)>> = vec![Vec::new(); entries.len()];
    // `lower[j]`: j's distance at its source's last search, a lower bound
    // on its distance from then on; 0 before the first.
    let mut lower = vec![0.0; entries.len()];
    let reuse = 1.0 + eps * eps;
    let mut path: Vec<EdgeId> = Vec::with_capacity(g.num_nodes());
    let mut phases: u64 = 0;
    let mut search = DijkstraSearch::with_nodes(g.num_nodes());
    // A second workspace, so the reuse check leaves `search` alone.
    let mut exact =
        validate::validators_enabled().then(|| DijkstraSearch::with_nodes(g.num_nodes()));
    // Safety valve: phases are Θ(log(m)/ε²) for this normalization; 10^6
    // would indicate a bug, not a hard instance.
    const MAX_PHASES: u64 = 1_000_000;

    while volume < 1.0 {
        phases += 1;
        sor_obs::counter_add!("flow/mwu/phases");
        assert!(phases <= MAX_PHASES, "concurrent-flow phase bound exceeded");
        for (j, &(s, t, d)) in entries.iter().enumerate() {
            let pool = &mut found[j];
            let group = &groups[group_of[j]];
            // A commodity alone at its source scans its pool only for the
            // later pieces of a split demand, after this phase's search
            // refreshed its bound (module doc); on permutation demands the
            // first piece's scan cost more than it saved.
            let shared = group.members.len() > 1;
            let mut remaining = d;
            while remaining > 1e-15 {
                sor_obs::counter_add!("flow/mwu/oracle_calls");
                let reused = if shared || remaining < d {
                    cheapest(pool, &len)
                } else {
                    None
                };
                let slot = match reused {
                    Some((i, l)) if l <= reuse * lower[j] => {
                        if let Some(exact) = exact.as_mut() {
                            if let Err(msg) =
                                validate::check_reused_path(g, &len, s, t, l, reuse, exact)
                            {
                                // sor-check: allow(unwrap, panic-path) — validator failure means a solver bug, not recoverable state
                                panic!("max concurrent flow oracle reused a long path: {msg}");
                            }
                        }
                        i
                    }
                    _ => {
                        sor_obs::counter_add!("flow/mwu/searches");
                        search.settle(g, s, &len, &group.targets);
                        for (&k, &tk) in group.members.iter().zip(&group.targets) {
                            lower[k] = search.dist(tk);
                        }
                        if !search.edges_to(g, t, &mut path) {
                            return Err(FlowError::Disconnected { s, t });
                        }
                        match pool.iter().position(|(edges, _)| *edges == path) {
                            Some(i) => i,
                            None => {
                                pool.push((path.clone(), 0.0));
                                pool.len() - 1
                            }
                        }
                    }
                };
                let (edges, amount) = &mut pool[slot];
                let bottleneck = edges
                    .iter()
                    .map(|&e| g.cap(e))
                    .fold(f64::INFINITY, f64::min);
                let f = remaining.min(bottleneck);
                raw.add_edges(edges, f);
                for &e in edges.iter() {
                    let cap = g.cap(e);
                    let old = len[e.index()];
                    let new = old * (1.0 + eps * f / cap);
                    len[e.index()] = new;
                    volume += cap * (new - old);
                }
                *amount += f;
                remaining -= f;
            }
        }
    }

    // Every commodity was routed `phases` times in full; scaling by
    // 1/phases routes the demand exactly once.
    let scale = 1.0 / phases as f64;
    let mut loads = raw;
    loads.scale(scale);
    let congestion_upper = loads.congestion(g);

    // Dual bound: for any positive lengths ℓ,
    //   OPT_cong ≥ (Σ_j d_j · dist_ℓ(s_j, t_j)) / (Σ_e c_e ℓ_e),
    // one search per source group.
    let mut alpha = 0.0;
    for group in &groups {
        sor_obs::counter_add!("flow/mwu/oracle_calls");
        sor_obs::counter_add!("flow/mwu/searches");
        search.settle(g, group.source, &len, &group.targets);
        for (&k, &t) in group.members.iter().zip(&group.targets) {
            alpha += entries[k].2 * search.dist(t);
        }
    }
    let congestion_lower = alpha / volume;

    // Each distinct path is built, and so checked simple, once; a failed
    // check surfaces as the per-call path extraction reported it.
    let mut paths: Vec<(usize, Path, f64)> = Vec::with_capacity(found.iter().map(Vec::len).sum());
    for (j, (seen, &(s, t, _))) in found.into_iter().zip(entries).enumerate() {
        let first = paths.len();
        for (edges, amount) in seen {
            let Some(path) = Path::from_edges(g, s, edges) else {
                return Err(FlowError::Disconnected { s, t });
            };
            paths.push((j, path, amount * scale));
        }
        // Node sequence, then edge sequence (parallel edges), so the order
        // never depends on the order paths were first found.
        paths[first..].sort_by(|a, b| {
            a.1.nodes()
                .cmp(b.1.nodes())
                .then_with(|| a.1.edges().cmp(b.1.edges()))
        });
    }

    Ok(OptResult {
        congestion_upper,
        congestion_lower,
        loads,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;

    fn sandwich_ok(r: &OptResult) {
        assert!(
            r.congestion_lower <= r.congestion_upper + 1e-9,
            "lower {} > upper {}",
            r.congestion_lower,
            r.congestion_upper
        );
    }

    #[test]
    fn single_path_unit_demand() {
        let g = gen::path_graph(5);
        let d = Demand::from_pairs([(NodeId(0), NodeId(4))]);
        let r = max_concurrent_flow(&g, &d, 0.05);
        sandwich_ok(&r);
        assert!(
            (r.congestion_upper - 1.0).abs() < 0.05,
            "{}",
            r.congestion_upper
        );
        assert!(r.congestion_lower > 0.8);
    }

    #[test]
    fn cycle_splits_both_ways() {
        // On C4, one unit 0→2 splits over two 2-hop paths: OPT = 0.5.
        let g = gen::cycle_graph(4);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        let r = max_concurrent_flow(&g, &d, 0.05);
        sandwich_ok(&r);
        assert!(
            (r.congestion_upper - 0.5).abs() < 0.06,
            "{}",
            r.congestion_upper
        );
        assert!(r.congestion_lower > 0.4);
    }

    #[test]
    fn dumbbell_bridge_bound() {
        // 1 unit across a dumbbell with 2 bridges: OPT = 0.5 on bridges.
        let g = gen::dumbbell(4, 2);
        let d = Demand::from_pairs([(NodeId(3), NodeId(7))]);
        let r = max_concurrent_flow(&g, &d, 0.05);
        sandwich_ok(&r);
        assert!(r.congestion_upper < 0.62, "{}", r.congestion_upper);
        assert!(r.congestion_lower > 0.38, "{}", r.congestion_lower);
    }

    #[test]
    fn respects_capacities() {
        // Two parallel edges of caps 1 and 3: 1 unit splits 1:3 → cong 0.25.
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 3.0);
        let d = Demand::from_pairs([(NodeId(0), NodeId(1))]);
        let r = max_concurrent_flow(&g, &d, 0.05);
        sandwich_ok(&r);
        assert!(
            (r.congestion_upper - 0.25).abs() < 0.05,
            "{}",
            r.congestion_upper
        );
    }

    #[test]
    fn loads_match_paths() {
        let g = gen::cycle_graph(6);
        let d = Demand::from_pairs([(NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))]);
        let r = max_concurrent_flow(&g, &d, 0.1);
        decomposition_ok(&g, &d, &r);
    }

    #[test]
    fn empty_demand() {
        let g = gen::cycle_graph(4);
        let r = max_concurrent_flow(&g, &Demand::new(), 0.1);
        assert_eq!(r.congestion_upper, 0.0);
        assert!(r.paths.is_empty());
    }

    #[test]
    fn permutation_on_hypercube_near_one() {
        // A permutation demand on Q_3 has OPT congestion ≥ ~?; sanity: the
        // sandwich holds and the routing is feasible-looking (upper ≥ lower,
        // upper within [1/d, n]).
        let g = gen::hypercube(3);
        let pairs = gen::bit_reversal_perm(3)
            .into_iter()
            .filter(|(s, t)| s != t);
        let d = Demand::from_pairs(pairs);
        let r = max_concurrent_flow(&g, &d, 0.1);
        sandwich_ok(&r);
        assert!(r.congestion_upper >= 0.3 && r.congestion_upper <= 8.0);
        assert!(r.gap() < 2.0, "sandwich too loose: {}", r.gap());
    }

    #[test]
    fn invalid_epsilon_is_a_typed_error() {
        let g = gen::cycle_graph(4);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        for eps in [0.0, 1.0, f64::NAN] {
            match try_max_concurrent_flow(&g, &d, eps) {
                Err(FlowError::InvalidEpsilon { eps: got }) => {
                    assert_eq!(got.to_bits(), eps.to_bits())
                }
                other => panic!("eps {eps}: expected InvalidEpsilon, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn facade_panics_on_invalid_epsilon() {
        let g = gen::cycle_graph(4);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
        max_concurrent_flow(&g, &d, f64::NAN);
    }

    #[test]
    fn path_decomposition_order_is_deterministic() {
        // Two solves of one input in one process: the hasher seeds differ
        // between the two solves, the returned decomposition must not.
        let g = gen::grid(4, 4);
        let d = Demand::from_pairs([
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(5), NodeId(10)),
            (NodeId(6), NodeId(9)),
            (NodeId(0), NodeId(10)),
        ]);
        let a = max_concurrent_flow(&g, &d, 0.1);
        let b = max_concurrent_flow(&g, &d, 0.1);
        assert!(a.paths.len() > 5);
        assert_eq!(a.paths, b.paths);
    }

    /// Reference solver: one early-stopping Dijkstra per oracle call,
    /// a `Path` built per call, and amounts accumulated in a
    /// `HashMap<(commodity, Path), f64>` sorted at the end.
    fn per_call_paths(g: &Graph, demand: &Demand, eps: f64) -> OptResult {
        let m = g.num_edges();
        let entries = demand.entries();
        let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
        let mut len: Vec<f64> = g.edges().iter().map(|e| delta / e.cap).collect();
        let mut volume: f64 = delta * m as f64;
        let mut raw = EdgeLoads::zeros(m);
        let mut path_amounts: std::collections::HashMap<(usize, Path), f64> =
            std::collections::HashMap::new();
        let mut phases: u64 = 0;
        let mut search = DijkstraSearch::with_nodes(g.num_nodes());
        while volume < 1.0 {
            phases += 1;
            for (j, &(s, t, d)) in entries.iter().enumerate() {
                let mut remaining = d;
                while remaining > 1e-15 {
                    search.settle(g, s, &len, &[t]);
                    let path = search.path_to(g, t).unwrap();
                    let bottleneck = path
                        .edges()
                        .iter()
                        .map(|&e| g.cap(e))
                        .fold(f64::INFINITY, f64::min);
                    let f = remaining.min(bottleneck);
                    raw.add_path(&path, f);
                    for &e in path.edges() {
                        let cap = g.cap(e);
                        let old = len[e.index()];
                        let new = old * (1.0 + eps * f / cap);
                        len[e.index()] = new;
                        volume += cap * (new - old);
                    }
                    *path_amounts.entry((j, path)).or_insert(0.0) += f;
                    remaining -= f;
                }
            }
        }
        let scale = 1.0 / phases as f64;
        let mut loads = raw;
        loads.scale(scale);
        let congestion_upper = loads.congestion(g);
        let mut by_source: BTreeMap<NodeId, Vec<(NodeId, f64)>> = BTreeMap::new();
        for &(s, t, d) in entries {
            by_source.entry(s).or_default().push((t, d));
        }
        let mut alpha = 0.0;
        for (&s, commodities) in &by_source {
            let targets: Vec<NodeId> = commodities.iter().map(|&(t, _)| t).collect();
            search.settle(g, s, &len, &targets);
            for &(t, d) in commodities {
                alpha += d * search.dist(t);
            }
        }
        let mut paths: Vec<(usize, Path, f64)> = path_amounts
            .into_iter()
            .map(|((j, p), a)| (j, p, a * scale))
            .collect();
        paths.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.nodes().cmp(b.1.nodes()))
                .then_with(|| a.1.edges().cmp(b.1.edges()))
        });
        OptResult {
            congestion_upper,
            congestion_lower: alpha / volume,
            loads,
            paths,
        }
    }

    /// Rebuild loads and per-commodity totals from `r`'s decomposition and
    /// check them against `r.loads` and the demand.
    fn decomposition_ok(g: &Graph, d: &Demand, r: &OptResult) {
        let mut rebuilt = EdgeLoads::for_graph(g);
        let mut per_comm = vec![0.0; d.entries().len()];
        for (j, p, w) in &r.paths {
            rebuilt.add_path(p, *w);
            per_comm[*j] += w;
        }
        for e in g.edge_ids() {
            let (have, want) = (r.loads.load(e), rebuilt.load(e));
            assert!(
                (have - want).abs() <= 1e-9 * want.max(1.0),
                "edge {e}: {have} vs {want}"
            );
        }
        for (&(_, _, dj), &x) in d.entries().iter().zip(&per_comm) {
            assert!(
                (x - dj).abs() <= 1e-9 * dj.max(1.0),
                "weights {x} for demand {dj}"
            );
        }
    }

    #[test]
    fn reuse_matches_per_call_paths_with_one_commodity_per_source() {
        // A permutation of unit demands on unit capacities: one commodity
        // per source and one piece per phase, so every oracle call searches
        // and the result is bit-identical to the reference.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::hypercube(5);
        let d = crate::demand::random_permutation(&g, &mut rng);
        let a = max_concurrent_flow(&g, &d, 0.1);
        let b = per_call_paths(&g, &d, 0.1);
        assert_eq!(a.congestion_upper.to_bits(), b.congestion_upper.to_bits());
        assert_eq!(a.congestion_lower.to_bits(), b.congestion_lower.to_bits());
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.paths.len(), b.paths.len());
        for (x, y) in a.paths.iter().zip(&b.paths) {
            assert_eq!((x.0, &x.1, x.2.to_bits()), (y.0, &y.1, y.2.to_bits()));
        }
    }

    #[test]
    fn reuse_stays_inside_the_reference_sandwich_on_wans() {
        // Gravity TMs on every WAN: every ordered pair, many commodities
        // per source, so the pool serves most oracle calls. In debug
        // builds the solver also checks each reused path against an exact
        // search.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for g in [gen::abilene(), gen::b4(), gen::geant(), gen::att()] {
            let nodes: Vec<NodeId> = g.nodes().collect();
            for seed in [1, 2] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mass: Vec<f64> = nodes.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
                let d = crate::demand::gravity(&nodes, &mass, 4.0);
                for eps in [0.05, 0.1, 0.3] {
                    let new = max_concurrent_flow(&g, &d, eps);
                    let old = per_call_paths(&g, &d, eps);
                    let at = format!("n={} seed {seed} eps {eps}", g.num_nodes());
                    sandwich_ok(&new);
                    assert!(new.congestion_lower <= old.congestion_upper, "{at}");
                    assert!(old.congestion_lower <= new.congestion_upper, "{at}");
                    assert!(
                        new.gap() <= old.gap() * (1.0 + eps * eps),
                        "{at}: gap {} vs reference {}",
                        new.gap(),
                        old.gap()
                    );
                    decomposition_ok(&g, &d, &new);
                }
            }
        }
    }

    #[test]
    fn tighter_eps_tightens_gap() {
        let g = gen::grid(3, 3);
        let d = Demand::from_pairs([(NodeId(0), NodeId(8)), (NodeId(2), NodeId(6))]);
        let loose = max_concurrent_flow(&g, &d, 0.4);
        let tight = max_concurrent_flow(&g, &d, 0.05);
        assert!(tight.gap() <= loose.gap() + 1e-9);
        assert!(tight.gap() < 1.3);
    }

    use sor_graph::{Graph, NodeId};
}
