//! Integral routing: randomized rounding (Lemma 6.3 / \[RT87\]) followed by
//! potential-based local search.
//!
//! Given an integral demand, a candidate path system, and a fractional
//! routing over it (typically from
//! [`crate::restricted::restricted_min_congestion`]), each unit of demand
//! independently picks a candidate path with probability proportional to
//! its fractional weight; the Chernoff argument of Lemma 6.3 bounds the
//! rounding loss by `O(1)·frac + O(log n)`. A local search then walks the
//! assignment downhill under the softmax-style potential
//! `Φ = Σ_e (load_e / cap_e)^p`, which in practice removes most of the
//! additive loss.

use crate::loads::EdgeLoads;
use crate::restricted::RestrictedEntry;
use rand::Rng;
use sor_graph::{Graph, PathRef};

/// An integral assignment of each unit of demand to one candidate path.
#[derive(Clone, Debug)]
pub struct IntegralSolution {
    /// `counts[j][i]` = number of units of entry `j` routed on candidate
    /// path `i`; sums to the entry's (integral) demand.
    pub counts: Vec<Vec<u32>>,
    /// Per-edge loads of the assignment.
    pub loads: EdgeLoads,
    /// Max congestion of the assignment.
    pub congestion: f64,
}

/// Exponent of the local-search potential. High enough that reducing the
/// maximum dominates, low enough to avoid overflow on the loads the
/// experiments produce.
const POTENTIAL_EXP: i32 = 8;

fn potential_term(load: f64, cap: f64) -> f64 {
    (load / cap).powi(POTENTIAL_EXP)
}

/// Round the fractional `weights` (aligned with `entries`) to an integral
/// assignment and locally improve it. `max_passes` bounds the number of
/// full improvement sweeps (each sweep tries to move every unit once).
pub fn round_and_improve<R: Rng>(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    weights: &[Vec<f64>],
    max_passes: usize,
    rng: &mut R,
) -> IntegralSolution {
    assert_eq!(entries.len(), weights.len());
    let _span = sor_obs::span("flow/round");
    let mut counts: Vec<Vec<u32>> = Vec::with_capacity(entries.len());
    let mut loads = EdgeLoads::for_graph(g);

    // --- randomized rounding ---
    for (entry, w) in entries.iter().zip(weights) {
        let d = entry.demand.round();
        assert!(
            (entry.demand - d).abs() < 1e-6,
            "integral rounding needs an integral demand, got {}",
            entry.demand
        );
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let units = d as u32;
        let mut c = vec![0u32; entry.paths.len()];
        if units > 0 {
            let total: f64 = w.iter().sum();
            assert!(total > 0.0, "entry with demand but zero fractional weight");
            for _ in 0..units {
                let mut x = rng.gen_range(0.0..total);
                let mut pick = entry.paths.len() - 1;
                for (i, &wi) in w.iter().enumerate() {
                    if x < wi {
                        pick = i;
                        break;
                    }
                    x -= wi;
                }
                c[pick] += 1;
                loads.add_edges(entry.paths.get(pick).edges(), 1.0);
            }
        }
        counts.push(c);
    }

    // --- local search ---
    let mut passes = 0usize;
    let mut moves = 0u64;
    let mut converged = false;
    for _pass in 0..max_passes {
        passes += 1;
        sor_obs::counter_add!("flow/rounding/passes");
        let mut improved = false;
        for (j, entry) in entries.iter().enumerate() {
            if entry.paths.len() < 2 {
                continue;
            }
            for from in 0..entry.paths.len() {
                if counts[j][from] == 0 {
                    continue;
                }
                // Find the best alternative path for one unit currently on
                // `from`, by potential delta over the symmetric difference.
                let mut best: Option<(usize, f64)> = None;
                for to in 0..entry.paths.len() {
                    if to == from {
                        continue;
                    }
                    let delta = move_delta(g, &loads, entry.paths.get(from), entry.paths.get(to));
                    if delta < -1e-12 && best.is_none_or(|(_, bd)| delta < bd) {
                        best = Some((to, delta));
                    }
                }
                if let Some((to, _)) = best {
                    counts[j][from] -= 1;
                    counts[j][to] += 1;
                    loads.add_edges(entry.paths.get(from).edges(), -1.0);
                    loads.add_edges(entry.paths.get(to).edges(), 1.0);
                    moves += 1;
                    sor_obs::counter_add!("flow/rounding/moves");
                    improved = true;
                }
            }
        }
        if !improved {
            converged = true;
            break;
        }
    }
    if max_passes > 0 && !converged {
        sor_obs::warn!(
            "local search stopped at the {max_passes}-pass budget without converging \
             ({moves} moves so far); congestion may be improvable"
        );
    } else {
        sor_obs::debug!("local search converged after {passes} passes ({moves} moves)");
    }

    let congestion = loads.congestion(g);
    let sol = IntegralSolution {
        counts,
        loads,
        congestion,
    };
    if crate::validate::validators_enabled() {
        if let Err(msg) = crate::validate::check_integral(g, entries, &sol) {
            // sor-check: allow(unwrap, panic-path) — validator failure means a solver bug, not recoverable state
            panic!("round_and_improve produced an invalid assignment: {msg}");
        }
    }
    sol
}

/// Potential change of moving one unit from path `a` to path `b`. Only
/// edges in the symmetric difference contribute.
fn move_delta(g: &Graph, loads: &EdgeLoads, a: PathRef<'_>, b: PathRef<'_>) -> f64 {
    let mut delta = 0.0;
    for &e in a.edges() {
        if b.contains_edge(e) {
            continue;
        }
        let cap = g.cap(e);
        let l = loads.load(e);
        delta += potential_term(l - 1.0, cap) - potential_term(l, cap);
    }
    for &e in b.edges() {
        if a.contains_edge(e) {
            continue;
        }
        let cap = g.cap(e);
        let l = loads.load(e);
        delta += potential_term(l + 1.0, cap) - potential_term(l, cap);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::restricted_min_congestion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, yen_ksp, NodeId, Path, PathList};

    fn entry<'a>(s: u32, t: u32, d: f64, paths: &'a PathList) -> RestrictedEntry<'a> {
        RestrictedEntry {
            s: NodeId(s),
            t: NodeId(t),
            demand: d,
            paths,
        }
    }

    #[test]
    fn counts_match_demand_and_loads() {
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 4.0, &paths)];
        let frac = restricted_min_congestion(&g, &entries, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let sol = round_and_improve(&g, &entries, &frac.weights, 10, &mut rng);
        assert_eq!(sol.counts[0].iter().sum::<u32>(), 4);
        // rebuild loads
        let mut rebuilt = EdgeLoads::for_graph(&g);
        for (i, &c) in sol.counts[0].iter().enumerate() {
            rebuilt.add_edges(paths.get(i).edges(), c as f64);
        }
        for e in g.edge_ids() {
            assert!((rebuilt.load(e) - sol.loads.load(e)).abs() < 1e-9);
        }
        assert!((sol.congestion - rebuilt.congestion(&g)).abs() < 1e-9);
    }

    #[test]
    fn local_search_balances_even_split() {
        // 4 units over 2 disjoint 3-hop paths on C6: optimum = 2 per path.
        let g = gen::cycle_graph(6);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 3, 4.0, &paths)];
        // Deliberately lopsided fractional weights; local search must fix it.
        let weights = vec![vec![4.0, 0.000001]];
        let mut rng = StdRng::seed_from_u64(1);
        let sol = round_and_improve(&g, &entries, &weights, 20, &mut rng);
        assert!((sol.congestion - 2.0).abs() < 1e-9, "{}", sol.congestion);
        assert_eq!(sol.counts[0], vec![2, 2]);
    }

    #[test]
    fn respects_capacities_in_potential() {
        // Two parallel edges, caps 1 and 3: 4 units should go 1/3.
        let mut g = sor_graph::Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 3.0);
        let p0 = Path::from_edges(&g, NodeId(0), vec![sor_graph::EdgeId(0)]).unwrap();
        let p1 = Path::from_edges(&g, NodeId(0), vec![sor_graph::EdgeId(1)]).unwrap();
        let paths = PathList::from_paths(NodeId(0), &[p0, p1]);
        let entries = [entry(0, 1, 4.0, &paths)];
        let weights = vec![vec![2.0, 2.0]];
        let mut rng = StdRng::seed_from_u64(3);
        let sol = round_and_improve(&g, &entries, &weights, 20, &mut rng);
        assert_eq!(sol.counts[0], vec![1, 3]);
        assert!((sol.congestion - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_ok() {
        let g = gen::cycle_graph(4);
        let paths = PathList::from_paths(
            NodeId(0),
            &yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()),
        );
        let entries = [entry(0, 2, 0.0, &paths)];
        let weights = vec![vec![0.0, 0.0]];
        let mut rng = StdRng::seed_from_u64(3);
        let sol = round_and_improve(&g, &entries, &weights, 5, &mut rng);
        assert_eq!(sol.congestion, 0.0);
        assert_eq!(sol.counts[0], vec![0, 0]);
    }

    #[test]
    fn rounding_close_to_fractional_on_expander() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_regular(24, 4, &mut rng);
        // several unit demands with 3 candidates each
        let pairs = [(0u32, 12u32), (1, 13), (2, 14), (3, 15), (4, 16)];
        let path_sets: Vec<PathList> = pairs
            .iter()
            .map(|&(s, t)| {
                let ps = yen_ksp(&g, NodeId(s), NodeId(t), 3, &g.unit_lengths());
                PathList::from_paths(NodeId(s), &ps)
            })
            .collect();
        let entries: Vec<RestrictedEntry> = pairs
            .iter()
            .zip(&path_sets)
            .map(|(&(s, t), ps)| entry(s, t, 1.0, ps))
            .collect();
        let frac = restricted_min_congestion(&g, &entries, 0.1);
        let sol = round_and_improve(&g, &entries, &frac.weights, 10, &mut rng);
        // integral congestion within additive 2 of fractional (very loose)
        assert!(sol.congestion <= frac.congestion + 2.0 + 1e-9);
        assert!(sol.congestion >= 1.0 - 1e-9); // at least one unit somewhere
    }
}
