//! Max concurrent flow on the whole graph — the offline OPT oracle.
//!
//! Fleischer's FPTAS with exponential lengths: maintain edge lengths
//! `ℓ_e = δ/c_e · Π (1+ε·f/c_e)`, repeatedly route each commodity along its
//! currently-shortest path in capacity-bounded pieces, and stop once the
//! total length volume `D(ℓ) = Σ_e c_e ℓ_e` reaches 1. Scaling the
//! accumulated flow by the number of completed phases yields a *feasible*
//! fractional routing of the demand whose congestion is within `(1+O(ε))`
//! of optimal; LP duality turns the final lengths into a certified lower
//! bound, so callers get a sandwich `lower ≤ OPT ≤ upper`.

use crate::demand::Demand;
use crate::loads::EdgeLoads;
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
/// `demand` in `g` (Fleischer's max-concurrent-flow FPTAS, reinterpreted:
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

/// Fallible form of [`max_concurrent_flow`]: a disconnected demand pair
/// is reported as [`FlowError::Disconnected`] and an ε outside (0, 1) as
/// [`FlowError::InvalidEpsilon`] instead of a panic, so solver pipelines
/// can surface them as a `Result`.
///
/// Each oracle call is one Dijkstra from the commodity's source that stops
/// once its target is settled, on a search workspace shared by all calls.
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

    let mut raw = EdgeLoads::zeros(m);
    // Path decomposition: per commodity, each distinct edge list with its
    // raw amount, in first-seen order.
    let mut found: Vec<Vec<(Vec<EdgeId>, f64)>> = vec![Vec::new(); entries.len()];
    let mut path: Vec<EdgeId> = Vec::with_capacity(g.num_nodes());
    let mut phases: u64 = 0;
    let mut search = DijkstraSearch::with_nodes(g.num_nodes());
    // Safety valve: phases are Θ(log(m)/ε²) for this normalization; 10^6
    // would indicate a bug, not a hard instance.
    const MAX_PHASES: u64 = 1_000_000;

    while volume < 1.0 {
        phases += 1;
        sor_obs::counter_add!("flow/mwu/phases");
        assert!(phases <= MAX_PHASES, "concurrent-flow phase bound exceeded");
        for (j, &(s, t, d)) in entries.iter().enumerate() {
            let mut remaining = d;
            while remaining > 1e-15 {
                sor_obs::counter_add!("flow/mwu/oracle_calls");
                search.settle(g, s, &len, &[t]);
                if !search.edges_to(g, t, &mut path) {
                    return Err(FlowError::Disconnected { s, t });
                }
                let bottleneck = path.iter().map(|&e| g.cap(e)).fold(f64::INFINITY, f64::min);
                let f = remaining.min(bottleneck);
                raw.add_edges(&path, f);
                for &e in &path {
                    let cap = g.cap(e);
                    let old = len[e.index()];
                    let new = old * (1.0 + eps * f / cap);
                    len[e.index()] = new;
                    volume += cap * (new - old);
                }
                let seen = &mut found[j];
                match seen.iter_mut().find(|(edges, _)| *edges == path) {
                    Some((_, amount)) => *amount += f,
                    None => seen.push((path.clone(), f)),
                }
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
    //   OPT_cong ≥ (Σ_j d_j · dist_ℓ(s_j, t_j)) / (Σ_e c_e ℓ_e).
    // Group commodities by source so each distinct source costs one
    // Dijkstra. Ordered map: α is a float sum, so the iteration order
    // below must not depend on the hasher.
    let mut by_source: BTreeMap<NodeId, Vec<(NodeId, f64)>> = BTreeMap::new();
    for &(s, t, d) in entries {
        by_source.entry(s).or_default().push((t, d));
    }
    let mut alpha = 0.0;
    let mut targets: Vec<NodeId> = Vec::with_capacity(entries.len());
    for (&s, commodities) in &by_source {
        sor_obs::counter_add!("flow/mwu/oracle_calls");
        targets.clear();
        targets.extend(commodities.iter().map(|&(t, _)| t));
        search.settle(g, s, &len, &targets);
        for &(t, d) in commodities {
            alpha += d * search.dist(t);
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

/// Convenience wrapper returning just the congestion sandwich
/// `(lower, upper)` with a default ε.
pub fn opt_congestion(g: &Graph, demand: &Demand) -> OptResult {
    max_concurrent_flow(g, demand, 0.1)
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
        // Rebuild loads from the decomposition and compare.
        let mut rebuilt = EdgeLoads::for_graph(&g);
        let mut per_comm = vec![0.0; 2];
        for (j, p, w) in &r.paths {
            rebuilt.add_path(p, *w);
            per_comm[*j] += w;
        }
        for e in g.edge_ids() {
            assert!((rebuilt.load(e) - r.loads.load(e)).abs() < 1e-9);
        }
        for &x in &per_comm {
            assert!((x - 1.0).abs() < 1e-9, "decomposition routes demand once");
        }
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

    /// Reference solver: the oracle loop before the path-free one, which
    /// built a `Path` per call and accumulated amounts in a
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

    #[test]
    fn path_free_oracle_matches_per_call_paths() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        // One commodity per source.
        let cube = gen::hypercube(5);
        let perm = crate::demand::random_permutation(&cube, &mut rng);
        // Every ordered pair of a WAN, with unequal capacities: many
        // commodities per source and parallel shortest-path choices.
        let wan = gen::abilene();
        let nodes: Vec<NodeId> = wan.nodes().collect();
        let mass: Vec<f64> = (0..nodes.len()).map(|i| 1.0 + (i % 5) as f64).collect();
        let tm = crate::demand::gravity(&nodes, &mass, 10.0);
        for (g, d, eps) in [(&cube, &perm, 0.1), (&wan, &tm, 0.1), (&wan, &tm, 0.3)] {
            let a = max_concurrent_flow(g, d, eps);
            let b = per_call_paths(g, d, eps);
            assert_eq!(a.congestion_upper.to_bits(), b.congestion_upper.to_bits());
            assert_eq!(a.congestion_lower.to_bits(), b.congestion_lower.to_bits());
            assert_eq!(a.loads, b.loads);
            assert_eq!(a.paths.len(), b.paths.len());
            for (x, y) in a.paths.iter().zip(&b.paths) {
                assert_eq!((x.0, &x.1, x.2.to_bits()), (y.0, &y.1, y.2.to_bits()));
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
