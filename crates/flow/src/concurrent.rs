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
//!
//! When at least `LANDMARK_SOURCES` (16) sources have one commodity each,
//! as on a permutation, the searches of those sources run as A* toward
//! their one target ([`DijkstraSearch::settle_toward`]), on the bounds of
//! `LANDMARKS` (4) landmarks picked farthest first by hops once per solve
//! ([`Landmarks`]). Their distance rows are refreshed at the start of
//! every phase, coarse runs included. Lengths only grow, so a row from the
//! phase's start is a distance under lengths no greater than the current
//! ones, its bounds stay consistent, and A* settles the target at its
//! exact distance; a tie may pick another shortest path than a forward
//! search would. The refreshes settle about `LANDMARKS`·n vertices per
//! phase and each A* search saves a share of n, so the break-even is a
//! count of sources whatever n is: on partial permutations of expander,
//! hypercube and grid graphs with n from 64 to 1,024, landmarks took
//! longer at 4 sources on every graph and at 8 on most, and won on all of
//! them from 16 on (DESIGN.md, "OPT oracle landmark search"). Below 16
//! every search runs forward. Sources with several commodities, the
//! one-pass bound and the dual bound always search forward.
//!
//! A run takes about `ln(1/δ)/(ε·λ)` phases, where λ is the demand's
//! optimal congestion, so a demand far below capacity first gets scaled
//! until λ lands near 1 (both solvers, see `unit_scale`). Routing every
//! commodity whole on its shortest path under the initial lengths gives a
//! one-pass bound λ₁ ≥ λ; the pass stops as soon as an edge's load reaches
//! its capacity, and then the demand keeps scale 1 and the run is exactly
//! the unscaled one. Below 1, a coarse run at ε = `COARSE_EPS` (0.5) on the
//! demand scaled by 1/λ₁ refines the bound to λ̂ ≥ λ, and the run solves
//! the demand scaled by 1/λ̂. Every returned bound, load and weight is
//! divided by that factor; the dual bound sums the caller's own demands,
//! so both ends of the sandwich stay certified.

use crate::demand::Demand;
use crate::loads::EdgeLoads;
use crate::validate;
use sor_graph::{DijkstraSearch, EdgeId, Graph, Landmarks, NodeId, Path};
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

/// Accuracy of the coarse run that estimates a demand's optimal congestion
/// when its one-pass bound is below 1 (module doc).
pub(crate) const COARSE_EPS: f64 = 0.5;

/// The factor both MWU solvers scale a demand by, from its one-pass bound
/// `lambda_one` < 1 and the upper bound `coarse_upper` that a coarse run
/// returned on the demand scaled by `1/lambda_one`. Each bound is the
/// congestion of a routing, so λ̂ = λ₁·min(1, U) ≥ λ and the scaled demand's
/// optimum λ/λ̂ never exceeds 1: the scale never overshoots. Both bounds
/// are positive: a one-pass bound exists only when some demand loads an
/// edge, and the coarse run routes all of it.
pub(crate) fn unit_scale(lambda_one: f64, coarse_upper: f64) -> f64 {
    1.0 / (lambda_one * coarse_upper.min(1.0))
}

/// Landmarks of the A* oracle for commodities alone at their source
/// (module doc).
const LANDMARKS: usize = 4;

/// Fewest single-commodity sources for which a solve uses landmarks: the
/// smallest measured count at which A* saved more than the `LANDMARKS`
/// refresh searches of each phase cost, on every graph tried (module doc).
const LANDMARK_SOURCES: usize = 4 * LANDMARKS;

/// Add `d` along `edges` to the one-pass routing's `loads`; `false` once
/// one of them reaches its capacity, which puts λ₁ at 1 or more.
pub(crate) fn route_whole(g: &Graph, loads: &mut EdgeLoads, edges: &[EdgeId], d: f64) -> bool {
    loads.add_edges(edges, d);
    edges.iter().all(|&e| loads.load(e) < g.cap(e))
}

/// Garg–Könemann edge lengths and their volume `D(ℓ) = Σ_e c_e ℓ_e`, as
/// both MWU solvers grow them.
pub(crate) struct Lengths {
    pub(crate) len: Vec<f64>,
    pub(crate) volume: f64,
    eps: f64,
}

impl Lengths {
    /// The initial lengths `δ/c_e` for accuracy `eps`, with
    /// `δ = (m/(1−ε))^(−1/ε)`.
    pub(crate) fn new(g: &Graph, eps: f64) -> Self {
        let m = g.num_edges();
        let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
        Lengths {
            len: g.edges().iter().map(|e| delta / e.cap).collect(),
            volume: delta * m as f64,
            eps,
        }
    }

    /// Route `f` more units along `edges`: each edge's length grows by the
    /// factor `1 + ε·f/c_e`.
    pub(crate) fn route(&mut self, g: &Graph, edges: &[EdgeId], f: f64) {
        for &e in edges {
            let cap = g.cap(e);
            let old = self.len[e.index()];
            let new = old * (1.0 + self.eps * f / cap);
            self.len[e.index()] = new;
            self.volume += cap * (new - old);
        }
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

/// One distinct path a commodity was routed on.
#[derive(Clone, Debug)]
struct Pooled {
    edges: Vec<EdgeId>,
    /// The smallest capacity on the path, folded once when it joins the
    /// pool.
    bottleneck: f64,
    /// The raw amount routed on it so far.
    amount: f64,
}

/// Index and length under `len` of the first shortest path in `pool`,
/// each path summed in edge order; `None` for an empty pool.
fn cheapest(pool: &[Pooled], len: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, Pooled { edges, .. }) in pool.iter().enumerate() {
        let l: f64 = edges.iter().map(|e| len[e.index()]).sum();
        if best.is_none_or(|(_, b)| l < b) {
            best = Some((i, l));
        }
    }
    best
}

/// When the validators are on (`exact` is set), check that an oracle
/// path from `s` to `t` of length `l`, routed on without a forward search,
/// is within `slack` of the exact distance; panic with `what` otherwise.
fn check_oracle(
    exact: &mut Option<DijkstraSearch>,
    g: &Graph,
    len: &[f64],
    (s, t, l): (NodeId, NodeId, f64),
    slack: f64,
    what: &str,
) {
    if let Some(exact) = exact.as_mut() {
        if let Err(msg) = validate::check_oracle_path(g, len, s, t, l, slack, exact) {
            // sor-check: allow(unwrap, panic-path) — validator failure means a solver bug, not recoverable state
            panic!("max concurrent flow {what}: {msg}");
        }
    }
}

/// What one Garg–Könemann run leaves behind.
struct Run {
    phases: u64,
    lengths: Lengths,
    /// Loads of all `phases` routings of the scaled demand.
    raw: EdgeLoads,
    /// Per commodity, each distinct path it was routed on, in first-seen
    /// order: the reuse pool and the path decomposition.
    found: Vec<Vec<Pooled>>,
}

/// One solve's commodities, grouped by source, and its search workspaces.
struct Solver<'a> {
    g: &'a Graph,
    entries: &'a [(NodeId, NodeId, f64)],
    groups: Vec<SourceGroup>,
    group_of: Vec<usize>,
    search: DijkstraSearch,
    /// A second workspace, so the oracle path checks leave `search` alone.
    exact: Option<DijkstraSearch>,
    /// The A* potentials of single-commodity searches, when the demand
    /// has at least `LANDMARK_SOURCES` single-commodity sources.
    landmarks: Option<Landmarks>,
}

impl<'a> Solver<'a> {
    fn new(g: &'a Graph, entries: &'a [(NodeId, NodeId, f64)]) -> Self {
        // Sources ascending, each group in demand order: one search settles
        // a whole group, and the dual bound sums over the groups in this
        // order. α is a float sum, so the order must not depend on a
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
        let single = groups.iter().filter(|gr| gr.members.len() == 1).count();
        Solver {
            g,
            entries,
            groups,
            group_of,
            search: DijkstraSearch::with_nodes(g.num_nodes()),
            exact: validate::validators_enabled()
                .then(|| DijkstraSearch::with_nodes(g.num_nodes())),
            landmarks: (single >= LANDMARK_SOURCES)
                .then(|| Landmarks::farthest_first(g, LANDMARKS)),
        }
    }

    /// The one-pass bound λ₁ ≥ λ when it is below 1: the congestion of
    /// routing every commodity whole on its shortest path under the
    /// initial lengths `len`, one search per source group. `None` as soon
    /// as an edge's load reaches its capacity (λ₁ ≥ 1) or a pair turns out
    /// disconnected, which the unscaled run then reports.
    fn one_pass_congestion(&mut self, len: &[f64]) -> Option<f64> {
        let g = self.g;
        let mut loads = EdgeLoads::zeros(g.num_edges());
        let mut path = Vec::with_capacity(g.num_nodes());
        for group in &self.groups {
            self.search.settle(g, group.source, len, &group.targets);
            sor_obs::counter_add!("flow/mwu/settled", self.search.settled() as u64);
            for (&j, &t) in group.members.iter().zip(&group.targets) {
                if !self.search.edges_to(g, t, &mut path)
                    || !route_whole(g, &mut loads, &path, self.entries[j].2)
                {
                    return None;
                }
            }
        }
        Some(loads.congestion(g))
    }

    /// One run at accuracy `eps` on the demand scaled by `sigma`.
    fn run(&mut self, eps: f64, sigma: f64) -> Result<Run, FlowError> {
        let (g, entries) = (self.g, self.entries);
        let mut lengths = Lengths::new(g, eps);
        let mut raw = EdgeLoads::zeros(g.num_edges());
        let mut found: Vec<Vec<Pooled>> = vec![Vec::new(); entries.len()];
        // `lower[j]`: j's distance at its source's last search, a lower
        // bound on its distance from then on; 0 before the first.
        let mut lower = vec![0.0; entries.len()];
        let reuse = 1.0 + eps * eps;
        let mut path: Vec<EdgeId> = Vec::with_capacity(g.num_nodes());
        let mut phases: u64 = 0;
        // Safety valve: phases are Θ(log(m)/ε²) for this normalization;
        // 10^6 would indicate a bug, not a hard instance.
        const MAX_PHASES: u64 = 1_000_000;

        while lengths.volume < 1.0 {
            phases += 1;
            sor_obs::counter_add!("flow/mwu/phases");
            assert!(phases <= MAX_PHASES, "concurrent-flow phase bound exceeded");
            if let Some(landmarks) = self.landmarks.as_mut() {
                let settled = landmarks.refresh(g, &lengths.len, &mut self.search);
                sor_obs::counter_add!("flow/mwu/settled", settled as u64);
            }
            for (j, &(s, t, d)) in entries.iter().enumerate() {
                let d = d * sigma;
                let pool = &mut found[j];
                let group = &self.groups[self.group_of[j]];
                // A commodity alone at its source scans its pool only for
                // the later pieces of a split demand, after this phase's
                // search refreshed its bound (module doc); on permutation
                // demands the first piece's scan cost more than it saved.
                let shared = group.members.len() > 1;
                let mut remaining = d;
                while remaining > 1e-15 {
                    sor_obs::counter_add!("flow/mwu/oracle_calls");
                    let reused = if shared || remaining < d {
                        cheapest(pool, &lengths.len)
                    } else {
                        None
                    };
                    let slot = match reused {
                        Some((i, l)) if l <= reuse * lower[j] => {
                            check_oracle(
                                &mut self.exact,
                                g,
                                &lengths.len,
                                (s, t, l),
                                reuse,
                                "oracle reused a long path",
                            );
                            i
                        }
                        _ => {
                            sor_obs::counter_add!("flow/mwu/searches");
                            match self.landmarks.as_ref().filter(|_| !shared) {
                                Some(landmarks) => {
                                    self.search.settle_toward(g, s, t, &lengths.len, landmarks);
                                    lower[j] = self.search.dist(t);
                                    check_oracle(
                                        &mut self.exact,
                                        g,
                                        &lengths.len,
                                        (s, t, lower[j]),
                                        1.0,
                                        "landmark search missed the shortest path",
                                    );
                                }
                                None => {
                                    self.search.settle(g, s, &lengths.len, &group.targets);
                                    for (&k, &tk) in group.members.iter().zip(&group.targets) {
                                        lower[k] = self.search.dist(tk);
                                    }
                                }
                            }
                            sor_obs::counter_add!("flow/mwu/settled", self.search.settled() as u64);
                            if !self.search.edges_to(g, t, &mut path) {
                                return Err(FlowError::Disconnected { s, t });
                            }
                            match pool.iter().position(|p| p.edges == path) {
                                Some(i) => i,
                                None => {
                                    pool.push(Pooled {
                                        edges: path.clone(),
                                        bottleneck: path
                                            .iter()
                                            .map(|&e| g.cap(e))
                                            .fold(f64::INFINITY, f64::min),
                                        amount: 0.0,
                                    });
                                    pool.len() - 1
                                }
                            }
                        }
                    };
                    let pooled = &mut pool[slot];
                    let f = remaining.min(pooled.bottleneck);
                    raw.add_edges(&pooled.edges, f);
                    lengths.route(g, &pooled.edges, f);
                    pooled.amount += f;
                    remaining -= f;
                }
            }
        }
        Ok(Run {
            phases,
            lengths,
            raw,
            found,
        })
    }
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
/// of that source, on a search workspace shared by all calls, or, for a
/// commodity alone at its source in a demand with many such sources, one
/// landmark A* search toward its target (module doc). A demand whose
/// one-pass congestion is below 1 is solved scaled up to optimal
/// congestion near 1 (module doc).
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

    let mut solver = Solver::new(g, entries);
    let sigma = match solver.one_pass_congestion(&Lengths::new(g, eps).len) {
        Some(lambda_one) => {
            let coarse = solver.run(COARSE_EPS, 1.0 / lambda_one)?;
            unit_scale(lambda_one, coarse.raw.congestion(g) / coarse.phases as f64)
        }
        None => 1.0,
    };
    let Run {
        phases,
        lengths,
        raw,
        found,
    } = solver.run(eps, sigma)?;

    // Every commodity was routed `phases` times in full at `sigma` times
    // its demand; scaling by 1/(phases·sigma) routes the demand exactly
    // once.
    let scale = 1.0 / (phases as f64 * sigma);
    let mut loads = raw;
    loads.scale(scale);
    let congestion_upper = loads.congestion(g);

    // Dual bound: for any positive lengths ℓ,
    //   OPT_cong ≥ (Σ_j d_j · dist_ℓ(s_j, t_j)) / (Σ_e c_e ℓ_e),
    // one search per source group, over the caller's own demands.
    let mut alpha = 0.0;
    for group in &solver.groups {
        sor_obs::counter_add!("flow/mwu/oracle_calls");
        sor_obs::counter_add!("flow/mwu/searches");
        solver
            .search
            .settle(g, group.source, &lengths.len, &group.targets);
        sor_obs::counter_add!("flow/mwu/settled", solver.search.settled() as u64);
        for (&k, &t) in group.members.iter().zip(&group.targets) {
            alpha += entries[k].2 * solver.search.dist(t);
        }
    }
    let congestion_lower = alpha / lengths.volume;

    // Each distinct path is built, and so checked simple, once; a failed
    // check surfaces as the per-call path extraction reported it.
    let mut paths: Vec<(usize, Path, f64)> = Vec::with_capacity(found.iter().map(Vec::len).sum());
    for (j, (seen, &(s, t, _))) in found.into_iter().zip(entries).enumerate() {
        let first = paths.len();
        for Pooled { edges, amount, .. } in seen {
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
        // Unit demands on disjoint pairs over unit capacities: one
        // commodity per source and one piece per phase, so every oracle
        // call searches. 15 sources are too few for landmarks, so every
        // search runs forward and the result is bit-identical to the
        // reference.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::hypercube(5);
        let d = crate::demand::random_matching(&g, LANDMARK_SOURCES - 1, &mut rng);
        assert!(Solver::new(&g, d.entries()).landmarks.is_none());
        assert_bit_equal(
            &max_concurrent_flow(&g, &d, 0.1),
            &per_call_paths(&g, &d, 0.1),
        );
    }

    #[test]
    fn landmark_oracle_stays_inside_the_reference_sandwich() {
        // Permutations: at least `LANDMARK_SOURCES` single-commodity
        // sources, so every oracle call is a landmark A* search, which may
        // break ties differently from the reference's forward searches. In
        // debug builds the solver checks each one against a forward search.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let eps = 0.1;
        let mut rng = StdRng::seed_from_u64(7);
        for g in [gen::hypercube(5), gen::random_regular(64, 4, &mut rng)] {
            let d = crate::demand::random_permutation(&g, &mut rng);
            assert!(Solver::new(&g, d.entries()).landmarks.is_some());
            let new = max_concurrent_flow(&g, &d, eps);
            let old = per_call_paths(&g, &d, eps);
            let at = format!("n={}", g.num_nodes());
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
            assert_bit_equal(&new, &max_concurrent_flow(&g, &d, eps));
        }
    }

    #[test]
    fn landmark_oracle_reports_a_disconnected_pair() {
        // Two disjoint Q4s and one commodity out of each vertex, all but
        // 3→20 inside its own Q4: 32 single-commodity sources, so the
        // landmark oracle searches for the pair across.
        let mut g = Graph::new(32);
        for e in gen::hypercube(4).edges() {
            g.add_unit_edge(e.u, e.v);
            g.add_unit_edge(NodeId(e.u.0 + 16), NodeId(e.v.0 + 16));
        }
        let d = Demand::from_pairs(
            (0..32u32).map(|v| (NodeId(v), NodeId(if v == 3 { 20 } else { v ^ 1 }))),
        );
        assert!(Solver::new(&g, d.entries()).landmarks.is_some());
        assert_eq!(
            try_max_concurrent_flow(&g, &d, 0.1).unwrap_err(),
            FlowError::Disconnected {
                s: NodeId(3),
                t: NodeId(20)
            }
        );
    }

    fn assert_bit_equal(a: &OptResult, b: &OptResult) {
        assert_eq!(a.congestion_upper.to_bits(), b.congestion_upper.to_bits());
        assert_eq!(a.congestion_lower.to_bits(), b.congestion_lower.to_bits());
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.paths.len(), b.paths.len());
        for (x, y) in a.paths.iter().zip(&b.paths) {
            assert_eq!((x.0, &x.1, x.2.to_bits()), (y.0, &y.1, y.2.to_bits()));
        }
    }

    fn one_pass(g: &Graph, d: &Demand, eps: f64) -> Option<f64> {
        Solver::new(g, d.entries()).one_pass_congestion(&Lengths::new(g, eps).len)
    }

    /// A demand on Q5 scaled so that its one-pass bound at ε = 0.1 lands
    /// at `target`: `pairs` random disjoint pairs, or a random permutation
    /// for `None`. The bound is linear in the demand, and its shortest
    /// paths overlap, so every amount stays below the unit capacities: at
    /// scale 1 each commodity routes in one piece per phase.
    fn q5_with_one_pass(pairs: Option<usize>, target: f64) -> (Graph, Demand) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = gen::hypercube(5);
        let mut rng = StdRng::seed_from_u64(11);
        let d = match pairs {
            Some(k) => crate::demand::random_matching(&g, k, &mut rng),
            None => crate::demand::random_permutation(&g, &mut rng),
        }
        .scaled(1e-3);
        let lambda_one = one_pass(&g, &d, 0.1).expect("a thousandth of the demand fits");
        let d = d.scaled(target / lambda_one);
        assert!(d.entries().iter().all(|&(_, _, a)| a < 1.0));
        (g, d)
    }

    #[test]
    fn one_pass_bound_just_above_one_keeps_every_bit() {
        // Below `LANDMARK_SOURCES`, so every search runs forward.
        let (g, d) = q5_with_one_pass(Some(LANDMARK_SOURCES - 1), 1.0 + 1e-9);
        assert_eq!(one_pass(&g, &d, 0.1), None);
        assert_bit_equal(
            &max_concurrent_flow(&g, &d, 0.1),
            &per_call_paths(&g, &d, 0.1),
        );
    }

    #[test]
    fn one_pass_bound_just_below_one_stays_inside_the_reference_sandwich() {
        let (g, d) = q5_with_one_pass(None, 1.0 - 1e-9);
        assert!(one_pass(&g, &d, 0.1).is_some_and(|l| l < 1.0));
        let new = max_concurrent_flow(&g, &d, 0.1);
        let old = per_call_paths(&g, &d, 0.1);
        sandwich_ok(&new);
        assert!(new.congestion_lower <= old.congestion_upper);
        assert!(old.congestion_lower <= new.congestion_upper);
        // The routing is as good as the reference's. Its dual bound is
        // looser: a run at optimal congestion ≈ 1 takes a quarter of the
        // reference's phases, and at that phase count the last phase's
        // dual moves by several percent from one phase to the next (gap
        // 1.067 here, against 1.012 for the reference). The gap stays
        // within 1 + ε all the same.
        assert!(
            new.congestion_upper <= old.congestion_upper * (1.0 + 0.1 * 0.1),
            "upper {} vs reference {}",
            new.congestion_upper,
            old.congestion_upper
        );
        assert!(new.gap() <= 1.0 + 0.1, "gap {}", new.gap());
        decomposition_ok(&g, &d, &new);
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
