//! Experiments E1–E4: the upper-bound theorems as measurements.

use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::eval::evaluate;
use sor_core::sample::{demand_pairs, sample_k, sample_k_plus_cut};
use sor_core::SemiObliviousRouting;
use sor_flow::demand::random_permutation;
use sor_flow::{max_concurrent_flow, Demand};
use sor_graph::{gen, Graph, NodeId};
use sor_oblivious::routing::{fractional_loads, oblivious_congestion, ObliviousRouting};
use sor_oblivious::{GreedyBitFix, RaeckeRouting, ValiantHypercube};

/// Worst/mean competitive ratio of a `k`-sample of `routing` on random
/// permutation demands, averaged over `seeds`.
fn permutation_ratios<O: ObliviousRouting>(
    g: &Graph,
    routing: &O,
    k: usize,
    seeds: u64,
    eps: f64,
) -> (f64, f64, f64) {
    let per_seed: Vec<(f64, f64)> = (0..seeds)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let demand = random_permutation(g, &mut rng);
            let sampled = sample_k(routing, &demand_pairs(&demand), k, &mut rng);
            let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
            let report = evaluate(&sor, std::slice::from_ref(&demand), Some(routing), eps);
            let vs_obl = report.worst_ratio_vs_oblivious().unwrap_or(f64::NAN);
            (report.worst_ratio(), vs_obl)
        })
        .collect();
    let worst = per_seed.iter().map(|x| x.0).fold(0.0, f64::max);
    let mean = per_seed.iter().map(|x| x.0).sum::<f64>() / per_seed.len() as f64;
    let vs_obl = per_seed.iter().map(|x| x.1).fold(0.0, f64::max);
    (worst, mean, vs_obl)
}

/// E1 — Theorem 2.3's measured analogue: `O(log n)` sampled paths give a
/// small competitive ratio on permutation demands, on hypercubes (Valiant
/// base) and expanders (Räcke base).
pub fn e1_log_sparsity(quick: bool) -> Table {
    let mut t = Table::new(
        "E1 log-sparsity sample is competitive (Thm 2.3)",
        &[
            "graph",
            "n",
            "k=O(log n)",
            "mean ratio",
            "worst ratio",
            "vs oblivious",
        ],
    );
    let dims: &[usize] = if quick { &[4, 5] } else { &[4, 5, 6, 7] };
    let seeds = if quick { 2 } else { 4 };
    let eps = 0.2;
    for &d in dims {
        let g = gen::hypercube(d);
        let r = ValiantHypercube::new(g.clone());
        let k = d; // log2 n
        let (worst, mean, vs_obl) = permutation_ratios(&g, &r, k, seeds, eps);
        t.row(vec![
            format!("Q_{d}"),
            (1usize << d).to_string(),
            k.to_string(),
            f(mean),
            f(worst),
            f(vs_obl),
        ]);
    }
    let sizes: &[usize] = if quick { &[32] } else { &[32, 64] };
    for &n in sizes {
        let mut grng = StdRng::seed_from_u64(7);
        let g = gen::random_regular(n, 4, &mut grng);
        let r = RaeckeRouting::build(g.clone(), 8, &mut grng);
        // log2 of a graph size: tiny, non-negative — the floor fits easily
        #[allow(clippy::cast_possible_truncation)]
        let k = (n as f64).log2().ceil() as usize;
        let (worst, mean, vs_obl) = permutation_ratios(&g, &r, k, seeds, eps);
        t.row(vec![
            format!("expander(4-reg)"),
            n.to_string(),
            k.to_string(),
            f(mean),
            f(worst),
            f(vs_obl),
        ]);
    }
    t.note("ratio = semi-oblivious congestion / offline OPT (MCF upper bound)");
    t.note("paper: polylog(n)-competitive with O(log n) paths; flat small ratios expected");
    t
}

/// E2 — Theorem 2.5: the competitiveness improves exponentially with the
/// sparsity `s` ("power of a few random choices"). The `n^{1/s}` column is
/// the predicted shape to compare against.
pub fn e2_few_choices(quick: bool) -> Table {
    let mut t = Table::new(
        "E2 power of few choices: ratio vs sparsity (Thm 2.5)",
        &["graph", "s", "mean ratio", "worst ratio", "shape n^{1/s}"],
    );
    let d = if quick { 5 } else { 7 };
    let g = gen::hypercube(d);
    let r = ValiantHypercube::new(g.clone());
    let n = 1usize << d;
    let seeds = if quick { 2 } else { 4 };
    let svals: &[usize] = if quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 3, 4, 6, 8, 12]
    };
    for &s in svals {
        let (worst, mean, _) = permutation_ratios(&g, &r, s, seeds, 0.2);
        t.row(vec![
            format!("Q_{d}"),
            s.to_string(),
            f(mean),
            f(worst),
            f(sor_core::negassoc::predicted_ratio_shape(n, s)),
        ]);
    }
    if !quick {
        // a second graph family: 4-regular expander with a Räcke base
        let ne = 64usize;
        let mut grng = StdRng::seed_from_u64(7);
        let ge = gen::random_regular(ne, 4, &mut grng);
        let re = RaeckeRouting::build(ge.clone(), 10, &mut grng);
        for &s in &[1usize, 2, 4, 8] {
            let (worst, mean, _) = permutation_ratios(&ge, &re, s, seeds, 0.2);
            t.row(vec![
                format!("expander({ne},4)"),
                s.to_string(),
                f(mean),
                f(worst),
                f(sor_core::negassoc::predicted_ratio_shape(ne, s)),
            ]);
        }
    }
    t.note("each extra path should yield a polynomial improvement (exponential in s)");
    t
}

/// E3 — the deterministic-routing consequence on hypercubes: one
/// deterministic path (greedy bit-fixing) is Ω(√N/d)-congested on bit
/// reversal, while a few *sampled* paths with adaptation collapse the
/// ratio.
pub fn e3_deterministic(quick: bool) -> Table {
    let mut t = Table::new(
        "E3 deterministic 1-path fails; s sampled paths suffice (Q_d, bit reversal)",
        &["scheme", "congestion", "ratio vs OPT"],
    );
    let d = if quick { 6 } else { 8 };
    let g = gen::hypercube(d);
    let demand = Demand::from_pairs(
        gen::bit_reversal_perm(d)
            .into_iter()
            .filter(|(s, t)| s != t),
    );
    let eps = 0.25;
    let opt = max_concurrent_flow(&g, &demand, eps).congestion_upper;

    let greedy = GreedyBitFix::new(g.clone());
    let cg = oblivious_congestion(&greedy, &demand);
    t.row(vec![
        "greedy bit-fix (deterministic, 1 path)".into(),
        f(cg),
        f(cg / opt),
    ]);

    let valiant = ValiantHypercube::new(g.clone());
    let cv = fractional_loads(&valiant, &demand).congestion(&g);
    t.row(vec![
        "Valiant oblivious (fractional)".into(),
        f(cv),
        f(cv / opt),
    ]);

    for s in [1usize, 2, 4] {
        let mut rng = StdRng::seed_from_u64(500 + s as u64);
        let sampled = sample_k(&valiant, &demand_pairs(&demand), s, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        let c = sor.congestion(&demand, eps);
        t.row(vec![
            format!("semi-oblivious sample s={s}"),
            f(c),
            f(c / opt),
        ]);
    }
    t.note(format!("OPT (MCF upper) = {}", f(opt)));
    t.note("greedy >= sqrt(N)/d by [KKT91]; sampling shows the exponential drop with s");
    t
}

/// E4 — Corollary 6.2: arbitrary (heavy) integral demands need the
/// `(s + mincut)`-sample; a plain `s`-sample bottlenecks on pairs whose
/// demand exceeds `s` disjoint candidates.
pub fn e4_cut_sampling(quick: bool) -> Table {
    let mut t = Table::new(
        "E4 (s+cut)-sampling for arbitrary demands (Cor 6.2 / Lem 2.7)",
        &["sampling", "paths installed", "congestion", "ratio vs OPT"],
    );
    let k = if quick { 5 } else { 8 };
    let bridges = 4usize;
    let g = gen::dumbbell(k, bridges);
    // heavy demand across the dumbbell + light noise inside the cliques
    let across = (NodeId::from_usize(k - 1), NodeId::from_usize(2 * k - 1));
    let mut demand = Demand::new();
    demand.add(across.0, across.1, bridges as f64 * 2.0);
    demand.add(NodeId(0), NodeId(1), 1.0);
    demand.add(NodeId::from_usize(k), NodeId::from_usize(k + 1), 1.0);

    let mut rng = StdRng::seed_from_u64(11);
    let base = RaeckeRouting::build(g.clone(), 8, &mut rng);
    let eps = 0.15;
    let opt = max_concurrent_flow(&g, &demand, eps).congestion_upper;

    let s = 2usize;
    let mut rng_a = StdRng::seed_from_u64(21);
    let plain = sample_k(&base, &demand_pairs(&demand), s, &mut rng_a);
    let sor_plain = SemiObliviousRouting::new(g.clone(), plain.system);
    let c_plain = sor_plain.congestion(&demand, eps);
    t.row(vec![
        format!("s-sample (s={s})"),
        sor_plain.system().total_paths().to_string(),
        f(c_plain),
        f(c_plain / opt),
    ]);

    let mut rng_b = StdRng::seed_from_u64(21);
    let cut = sample_k_plus_cut(&base, &g, &demand_pairs(&demand), s, &mut rng_b);
    let sor_cut = SemiObliviousRouting::new(g.clone(), cut.system);
    let c_cut = sor_cut.congestion(&demand, eps);
    t.row(vec![
        format!("(s+cut)-sample (s={s})"),
        sor_cut.system().total_paths().to_string(),
        f(c_cut),
        f(c_cut / opt),
    ]);
    t.note(format!(
        "dumbbell({k},{bridges}), cross-pair demand = {}; OPT = {}",
        f(bridges as f64 * 2.0),
        f(opt)
    ));
    t.note("cut-scaled sampling should track OPT; plain s-sample loses on the heavy pair");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_is_sane() {
        let t = e1_log_sparsity(true);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let worst: f64 = row[4].parse().unwrap();
            assert!(worst < 10.0, "E1 worst ratio {worst} too big");
            assert!(worst > 0.5);
        }
    }

    #[test]
    fn e2_quick_ratio_decreases() {
        let t = e2_few_choices(true);
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last <= first,
            "mean ratio should not increase with sparsity: {first} → {last}"
        );
    }

    #[test]
    fn e3_quick_shows_separation() {
        let t = e3_deterministic(true);
        let greedy: f64 = t.rows[0][1].parse().unwrap();
        let s4: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(
            greedy / s4 > 1.5,
            "sampling should beat greedy: {greedy} vs {s4}"
        );
    }

    #[test]
    fn e4_quick_cut_sample_wins() {
        let t = e4_cut_sampling(true);
        let plain: f64 = t.rows[0][3].parse().unwrap();
        let cut: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            cut <= plain + 1e-9,
            "(s+cut) should be at least as good: plain {plain}, cut {cut}"
        );
    }
}
