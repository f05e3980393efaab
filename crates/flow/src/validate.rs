//! Runtime invariant validators for flow solutions.
//!
//! The solvers in [`crate::restricted`] and [`crate::rounding`] self-check
//! their output against the invariants a routing must satisfy — flow
//! conservation (each commodity's path weights sum to its demand), load
//! consistency (the reported per-edge loads equal the loads induced by the
//! weights), and capacity respect (the reported congestion really is the
//! maximum load-to-capacity ratio). The offline OPT solver in
//! [`crate::concurrent`] checks every path it routes on without a forward
//! search (a reused pool path or a landmark A* path) against a fresh
//! forward search. The checks run in debug builds and,
//! in release, when the `validate` cargo feature is enabled; see
//! [`validators_enabled`]. Tests call the checkers directly.

use crate::loads::EdgeLoads;
use crate::restricted::{RestrictedEntry, RestrictedSolution};
use crate::rounding::IntegralSolution;
use sor_graph::{DijkstraSearch, Graph, NodeId};

/// Relative tolerance for the conservation and consistency checks. The
/// solvers accumulate `O(phases · paths)` floating-point additions, so
/// exact equality is not meaningful; `1e-6` is far above accumulated
/// rounding error yet far below any real conservation violation.
pub const TOLERANCE: f64 = 1e-6;

/// Whether solver self-checks run: always in debug builds, and in release
/// builds when the `validate` cargo feature is on.
#[inline]
pub fn validators_enabled() -> bool {
    cfg!(debug_assertions) || cfg!(feature = "validate")
}

/// Tolerance scaled to the magnitude of the quantities compared, so the
/// check is relative for large demands and absolute near zero.
fn tol(scale: f64) -> f64 {
    TOLERANCE * scale.abs().max(1.0)
}

/// Check flow conservation of fractional `weights` against `entries`:
/// shapes line up, every weight is finite and non-negative, and each
/// entry's weights sum to its demand (within [`TOLERANCE`]).
pub fn check_flow_conservation(
    entries: &[RestrictedEntry<'_>],
    weights: &[Vec<f64>],
) -> Result<(), String> {
    if entries.len() != weights.len() {
        return Err(format!(
            "weight rows ({}) do not match entries ({})",
            weights.len(),
            entries.len()
        ));
    }
    for (j, (entry, w)) in entries.iter().zip(weights).enumerate() {
        if w.len() != entry.paths.len() {
            return Err(format!(
                "entry {j} ({}→{}): {} weights for {} candidate paths",
                entry.s,
                entry.t,
                w.len(),
                entry.paths.len()
            ));
        }
        for (i, &wi) in w.iter().enumerate() {
            if !wi.is_finite() || wi < -tol(entry.demand) {
                return Err(format!(
                    "entry {j} ({}→{}): weight {wi} on path {i} is negative or non-finite",
                    entry.s, entry.t
                ));
            }
        }
        let total: f64 = w.iter().sum();
        if (total - entry.demand).abs() > tol(entry.demand) {
            return Err(format!(
                "entry {j} ({}→{}): weights sum to {total}, demand is {} — flow not conserved",
                entry.s, entry.t, entry.demand
            ));
        }
    }
    Ok(())
}

/// Recompute per-edge loads induced by `weights` and compare them (and the
/// implied max congestion) against the reported `loads`/`congestion`.
fn check_load_consistency(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    weights: &[Vec<f64>],
    loads: &EdgeLoads,
    congestion: f64,
) -> Result<(), String> {
    let mut rebuilt = EdgeLoads::for_graph(g);
    for (entry, w) in entries.iter().zip(weights) {
        for (i, &wi) in w.iter().enumerate() {
            if wi > 0.0 {
                rebuilt.add_edges(entry.paths.get(i).edges(), wi);
            }
        }
    }
    for e in g.edge_ids() {
        let (have, want) = (loads.load(e), rebuilt.load(e));
        if (have - want).abs() > tol(want) {
            return Err(format!(
                "edge {e}: reported load {have}, weights induce {want}"
            ));
        }
        let ratio = want / g.cap(e);
        if ratio > congestion + tol(congestion) {
            return Err(format!(
                "edge {e}: load/capacity ratio {ratio} exceeds reported congestion {congestion}"
            ));
        }
    }
    let max_ratio = rebuilt.congestion(g);
    if (max_ratio - congestion).abs() > tol(congestion) {
        return Err(format!(
            "reported congestion {congestion} but max load/capacity ratio is {max_ratio}"
        ));
    }
    Ok(())
}

/// Full invariant check of a fractional [`RestrictedSolution`]: flow
/// conservation, load consistency, and capacity respect.
pub fn check_restricted(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    sol: &RestrictedSolution,
) -> Result<(), String> {
    check_flow_conservation(entries, &sol.weights)?;
    check_load_consistency(g, entries, &sol.weights, &sol.loads, sol.congestion)?;
    if sol.lower_bound > sol.congestion + tol(sol.congestion) {
        return Err(format!(
            "certified lower bound {} exceeds achieved congestion {}",
            sol.lower_bound, sol.congestion
        ));
    }
    Ok(())
}

/// Full invariant check of an [`IntegralSolution`] against the entries it
/// was rounded from: per-entry path counts sum to the (integral) demand,
/// and the reported loads/congestion match the counts.
pub fn check_integral(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    sol: &IntegralSolution,
) -> Result<(), String> {
    let as_weights: Vec<Vec<f64>> = sol
        .counts
        .iter()
        .map(|row| row.iter().map(|&c| f64::from(c)).collect())
        .collect();
    check_flow_conservation(entries, &as_weights)?;
    check_load_consistency(g, entries, &as_weights, &sol.loads, sol.congestion)
}

/// Relative tolerance for [`check_oracle_path`], which compares two
/// floating-point sums of edge lengths along possibly different paths.
const ORACLE_TOLERANCE: f64 = 1e-12;

/// Check a path the OPT oracle routes on without a forward search, either
/// reused from the commodity's pool or found by a landmark A* search: its
/// `length` under `lengths` is at most `slack` times the exact `s`→`t`
/// distance, which a fresh forward search on the separate workspace
/// `search` computes.
pub(crate) fn check_oracle_path(
    g: &Graph,
    lengths: &[f64],
    s: NodeId,
    t: NodeId,
    length: f64,
    slack: f64,
    search: &mut DijkstraSearch,
) -> Result<(), String> {
    search.settle(g, s, lengths, &[t]);
    let exact = search.dist(t);
    if length <= slack * exact * (1.0 + ORACLE_TOLERANCE) {
        Ok(())
    } else {
        Err(format!(
            "{s}→{t}: oracle path of length {length:e} exceeds {slack} × exact distance {exact:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::restricted_min_congestion;
    use crate::rounding::round_and_improve;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, yen_ksp, NodeId, PathList};

    fn entry<'a>(s: u32, t: u32, d: f64, paths: &'a PathList) -> RestrictedEntry<'a> {
        RestrictedEntry {
            s: NodeId(s),
            t: NodeId(t),
            demand: d,
            paths,
        }
    }

    #[test]
    fn solver_output_passes() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 2.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.1);
        assert_eq!(check_restricted(&g, &entries, &sol), Ok(()));
    }

    #[test]
    fn tampered_weights_fail_conservation() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 2.0, &paths)];
        let mut sol = restricted_min_congestion(&g, &entries, 0.1);
        sol.weights[0][0] += 0.5;
        let err = check_restricted(&g, &entries, &sol).unwrap_err();
        assert!(err.contains("flow not conserved"), "{err}");
    }

    #[test]
    fn tampered_loads_fail_consistency() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 2.0, &paths)];
        let mut sol = restricted_min_congestion(&g, &entries, 0.1);
        sol.loads.scale(1.5);
        let err = check_restricted(&g, &entries, &sol).unwrap_err();
        assert!(err.contains("reported load"), "{err}");
    }

    #[test]
    fn understated_congestion_fails() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 2.0, &paths)];
        let mut sol = restricted_min_congestion(&g, &entries, 0.1);
        sol.congestion /= 2.0;
        assert!(check_restricted(&g, &entries, &sol).is_err());
    }

    #[test]
    fn negative_weight_rejected() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 1.0, &paths)];
        let weights = vec![vec![1.5, -0.5]];
        let err = check_flow_conservation(&entries, &weights).unwrap_err();
        assert!(err.contains("negative or non-finite"), "{err}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 1.0, &paths)];
        assert!(check_flow_conservation(&entries, &[]).is_err());
        assert!(check_flow_conservation(&entries, &[vec![1.0]]).is_err());
    }

    #[test]
    fn oracle_path_within_slack_passes_and_longer_fails() {
        // C4 with unit lengths: the exact 0→2 distance is 2.
        let g = gen::cycle_graph(4);
        let lengths = g.unit_lengths();
        let mut search = sor_graph::DijkstraSearch::with_nodes(g.num_nodes());
        let (s, t) = (NodeId(0), NodeId(2));
        assert_eq!(
            check_oracle_path(&g, &lengths, s, t, 2.0, 1.01, &mut search),
            Ok(())
        );
        assert_eq!(
            check_oracle_path(&g, &lengths, s, t, 2.02, 1.01, &mut search),
            Ok(())
        );
        let err = check_oracle_path(&g, &lengths, s, t, 2.03, 1.01, &mut search).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn integral_output_passes_and_tampering_fails() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 4.0, &paths)];
        let frac = restricted_min_congestion(&g, &entries, 0.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut sol = round_and_improve(&g, &entries, &frac.weights, 10, &mut rng);
        assert_eq!(check_integral(&g, &entries, &sol), Ok(()));
        sol.counts[0][0] += 1;
        assert!(check_integral(&g, &entries, &sol).is_err());
    }
}
