//! Exponential-time exact solvers for tiny instances.
//!
//! These exist to validate the approximate solvers: the MWU solvers and the
//! rounding pipeline are checked against exhaustive search on graphs small
//! enough to enumerate.

use crate::loads::EdgeLoads;
use crate::restricted::RestrictedEntry;
use sor_graph::{Graph, NodeId, Path, PathList};

/// Exact optimal *integral* congestion restricted to the given candidate
/// paths: every unit of every entry is assigned to one candidate path,
/// minimizing max congestion, by branch-and-bound over all assignments.
///
/// The search space is `Π_j |paths_j|^{demand_j}`; callers must keep it
/// tiny (tests use ≤ a few thousand leaves).
pub fn exact_integral_restricted(g: &Graph, entries: &[RestrictedEntry<'_>]) -> f64 {
    // Flatten to one unit per slot.
    let mut slots: Vec<&PathList> = Vec::new();
    for e in entries {
        let d = e.demand.round();
        assert!((e.demand - d).abs() < 1e-9, "integral demands required");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        for _ in 0..d as u64 {
            assert!(!e.paths.is_empty(), "entry with demand but no paths");
            slots.push(e.paths);
        }
    }
    let mut loads = EdgeLoads::for_graph(g);
    let mut best = f64::INFINITY;
    fn rec(g: &Graph, slots: &[&PathList], i: usize, loads: &mut EdgeLoads, best: &mut f64) {
        // Bound: current congestion can only grow.
        let cur = loads.congestion(g);
        if cur >= *best {
            return;
        }
        if i == slots.len() {
            *best = cur;
            return;
        }
        for p in slots[i] {
            loads.add_edges(p.edges(), 1.0);
            rec(g, slots, i + 1, loads, best);
            loads.add_edges(p.edges(), -1.0);
        }
    }
    rec(g, &slots, 0, &mut loads, &mut best);
    if slots.is_empty() {
        0.0
    } else {
        best
    }
}

/// Exact optimal *fractional* congestion for a single-pair demand:
/// by flow duality it is simply `d / maxflow(s, t)` — the one case where
/// the LP has a closed form. Used as a ground-truth anchor for the MWU
/// solvers.
pub fn exact_single_pair_fractional(g: &Graph, s: NodeId, t: NodeId, d: f64) -> f64 {
    assert!(d >= 0.0);
    // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
    if d == 0.0 {
        return 0.0;
    }
    let f = sor_graph::max_flow(g, s, t);
    assert!(f > 0.0, "pair {s}→{t} disconnected");
    d / f
}

/// Enumerate *all* simple `s`-`t` paths by DFS. Exponential; tiny graphs
/// only.
pub fn all_simple_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Path> {
    let mut out = Vec::new();
    let mut on_stack = vec![false; g.num_nodes()];
    let mut edge_stack: Vec<sor_graph::EdgeId> = Vec::new();
    fn dfs(
        g: &Graph,
        cur: NodeId,
        t: NodeId,
        s: NodeId,
        on_stack: &mut [bool],
        edge_stack: &mut Vec<sor_graph::EdgeId>,
        out: &mut Vec<Path>,
    ) {
        if cur == t {
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            let p = Path::from_edges(g, s, edge_stack.clone()).expect("DFS builds valid paths");
            out.push(p);
            return;
        }
        on_stack[cur.index()] = true;
        for &(e, v) in g.incident(cur) {
            if !on_stack[v.index()] {
                edge_stack.push(e);
                dfs(g, v, t, s, on_stack, edge_stack, out);
                edge_stack.pop();
            }
        }
        on_stack[cur.index()] = false;
    }
    dfs(g, s, t, s, &mut on_stack, &mut edge_stack, &mut out);
    out
}

/// Exact optimal integral congestion over *all* simple paths — the true
/// integral offline optimum `OPT_int` for tiny instances.
pub fn exact_integral_opt(g: &Graph, demand: &crate::demand::Demand) -> f64 {
    let path_sets: Vec<PathList> = demand
        .entries()
        .iter()
        .map(|&(s, t, _)| PathList::from_paths(s, &all_simple_paths(g, s, t)))
        .collect();
    let entries: Vec<RestrictedEntry> = demand
        .entries()
        .iter()
        .zip(&path_sets)
        .map(|(&(s, t, d), ps)| RestrictedEntry {
            s,
            t,
            demand: d,
            paths: ps,
        })
        .collect();
    exact_integral_restricted(g, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use sor_graph::{gen, yen_ksp};

    #[test]
    fn all_simple_paths_counts() {
        let g = gen::cycle_graph(5);
        assert_eq!(all_simple_paths(&g, NodeId(0), NodeId(2)).len(), 2);
        let k4 = gen::complete_graph(4);
        assert_eq!(all_simple_paths(&k4, NodeId(0), NodeId(1)).len(), 5);
    }

    #[test]
    fn exact_restricted_even_split() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [RestrictedEntry {
            s: NodeId(0),
            t: NodeId(3),
            demand: 4.0,
            paths: &paths,
        }];
        assert!((exact_integral_restricted(&g, &entries) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exact_opt_on_cycle() {
        // 2 units 0→2 on C4: one per direction → congestion 1.
        let g = gen::cycle_graph(4);
        let d = Demand::from_triples([(NodeId(0), NodeId(2), 2.0)]);
        assert!((exact_integral_opt(&g, &d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_opt_two_commodities() {
        // C4: 0→2 and 1→3, one unit each. Every 0-2 path and every 1-3
        // path are 2-hop arcs that overlap in exactly one edge, so the
        // integral optimum is 2.
        let g = gen::cycle_graph(4);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2)), (NodeId(1), NodeId(3))]);
        let opt = exact_integral_opt(&g, &d);
        assert!((opt - 2.0).abs() < 1e-12, "opt = {opt}");
    }

    #[test]
    fn exact_opt_two_commodities_c6() {
        // C6: 0→2 and 3→5 have edge-disjoint short arcs → optimum 1.
        let g = gen::cycle_graph(6);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2)), (NodeId(3), NodeId(5))]);
        let opt = exact_integral_opt(&g, &d);
        assert!((opt - 1.0).abs() < 1e-12, "opt = {opt}");
    }

    #[test]
    fn empty_demand_zero() {
        let g = gen::cycle_graph(4);
        assert_eq!(exact_integral_opt(&g, &Demand::new()), 0.0);
    }

    #[test]
    fn mwu_matches_exact_on_small() {
        // Fractional MWU upper bound must be ≥ its own lower bound and the
        // integral exact value must dominate the fractional optimum.
        let g = gen::cycle_graph(5);
        let d = Demand::from_pairs([(NodeId(0), NodeId(2)), (NodeId(1), NodeId(4))]);
        let frac = crate::concurrent::max_concurrent_flow(&g, &d, 0.05);
        let exact_int = exact_integral_opt(&g, &d);
        assert!(frac.congestion_lower <= exact_int + 1e-9);
        assert!(frac.congestion_upper <= exact_int * 1.2 + 1e-9);
    }
}
