//! Experiments E5–E7: the lower bound, the completion-time objective, and
//! the deletion process.

use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::completion::CompletionRouting;
use sor_core::lowerbound::adversarial_demand;
use sor_core::negassoc::chernoff_upper_tail;
use sor_core::process::weak_failure_rate;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::Demand;
use sor_graph::{gen, Graph, NodeId};
use sor_oblivious::{KspRouting, ValiantHypercube};
use sor_sched::{simulate, Policy};

/// E5 — the Section 8 lower bound, executed: on the two-star family, the
/// adversary extracts a permutation demand forcing congestion `q/|S|` on
/// any sparse system while OPT stays small.
pub fn e5_lower_bound(quick: bool) -> Table {
    let mut t = Table::new(
        "E5 two-star lower bound (Lemma 8.1)",
        &[
            "r (middles)",
            "m (leaves)",
            "s",
            "matched q",
            "|S|",
            "certified cong",
            "OPT",
            "ratio",
            "theory r/s",
        ],
    );
    let rs: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4, 6] };
    for &r in rs {
        let m = 3 * r;
        let ts = gen::TwoStar::new(r, m);
        for s in 1..=if quick { 2 } else { 3 } {
            let g = ts.graph().clone();
            let base = KspRouting::new(g, r); // r candidate routes (one per middle)
            let mut rng = StdRng::seed_from_u64(900 + (r * 10 + s) as u64);
            let mut pairs = Vec::new();
            for i in 0..m {
                for j in 0..m {
                    pairs.push((ts.left_leaf(i), ts.right_leaf(j)));
                }
            }
            let sampled = sample_k(&base, &pairs, s, &mut rng);
            match adversarial_demand(&ts, &sampled.system) {
                Some(res) => t.row(vec![
                    r.to_string(),
                    m.to_string(),
                    s.to_string(),
                    res.matched.to_string(),
                    res.hitting_set.len().to_string(),
                    f(res.certified_congestion),
                    f(res.opt_upper),
                    f(res.ratio()),
                    f(r as f64 / s as f64),
                ]),
                None => t.row(vec![
                    r.to_string(),
                    m.to_string(),
                    s.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    t.note("ratio grows as the system gets sparser relative to r — the (n/s²)^{Ω(1/s)} family");
    t
}

/// The theta graph for E6: a direct `s`-`t` edge plus `p` disjoint paths
/// of `len` hops each. Congestion-only optimization spreads over the long
/// paths (dilation `len`); the completion-time objective prefers the
/// short edge.
fn theta_graph(p: usize, len: usize) -> (Graph, NodeId, NodeId) {
    assert!(len >= 2 && p >= 1);
    let n = 2 + p * (len - 1);
    let mut g = Graph::new(n);
    let s = NodeId(0);
    let t = NodeId(1);
    g.add_unit_edge(s, t);
    let mut next = 2u32;
    for _ in 0..p {
        let mut prev = s;
        for _ in 0..len - 1 {
            let v = NodeId(next);
            next += 1;
            g.add_unit_edge(prev, v);
            prev = v;
        }
        g.add_unit_edge(prev, t);
    }
    (g, s, t)
}

/// E6 — Lemmas 2.8/2.9: congestion-optimal routing can have terrible
/// completion time; sampling from hop-constrained routings fixes it. Both
/// schemes are also *simulated* (store-and-forward, random priorities) to
/// confirm that C+D predicts delivery time.
pub fn e6_completion_time(quick: bool) -> Table {
    let mut t = Table::new(
        "E6 completion time: congestion-only vs hop-constrained sampling (Lem 2.8)",
        &["scheme", "congestion", "dilation", "C+D", "sim makespan"],
    );
    let (len, p, units) = if quick { (8, 3, 3u32) } else { (14, 4, 4u32) };
    let (g, s, tt) = theta_graph(p, len);
    let demand = Demand::from_triples([(s, tt, units as f64)]);
    let pairs = demand_pairs(&demand);
    let eps = 0.1;

    // Congestion-only: install all p+1 routes (KSP), adapt for congestion
    // alone — the congestion-optimal solution spreads over the long paths.
    let ksp = KspRouting::new(g.clone(), p + 1);
    let mut system = sor_core::PathSystem::new();
    for &(a, b) in &pairs {
        for (path, _) in
            sor_oblivious::routing::ObliviousRouting::path_distribution(&ksp, a, b).iter()
        {
            system.insert(a, b, path.clone());
        }
    }
    let sor = SemiObliviousRouting::new(g.clone(), system);
    let mut rng_i = StdRng::seed_from_u64(34);
    let integral = sor.route_integral(&demand, eps, &mut rng_i);
    let mut routes = Vec::new();
    for (counts, &(a, b, _)) in integral.counts.iter().zip(demand.entries()) {
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                routes.push(sor.system().paths(a, b).get(i).to_path(sor.graph()));
            }
        }
    }
    let dil = routes.iter().map(|p| p.hops()).max().unwrap_or(0);
    let sim = simulate(&g, &routes, Policy::RandomPriority { seed: 5 });
    t.row(vec![
        "congestion-only (all routes installed)".into(),
        f(integral.congestion),
        dil.to_string(),
        f(integral.congestion + dil as f64),
        sim.makespan.to_string(),
    ]);

    // Hop-constrained completion routing (integral at the winning scale).
    let mut rng_h = StdRng::seed_from_u64(35);
    let cr = CompletionRouting::build(&g, &pairs, p + 1, 4, &mut rng_h);
    let (res, routes_h) = cr
        .route_integral(&demand, eps, &mut rng_h)
        .expect("covered");
    let sim_h = simulate(&g, &routes_h, Policy::RandomPriority { seed: 6 });
    t.row(vec![
        format!("hop-constrained (best scale h={})", res.scale),
        f(res.congestion),
        res.dilation.to_string(),
        f(res.completion_time()),
        sim_h.makespan.to_string(),
    ]);
    t.note(format!(
        "theta graph: direct edge + {p} disjoint {len}-hop paths; demand {units} units s→t"
    ));
    t.note("congestion-only spreads onto long paths (D≈len); hop-aware keeps C+D small");
    t
}

/// E7 — the Main Lemma's deletion process, Monte-Carlo: weak-routing
/// failure rate versus sparsity `k`, with a crude Chernoff × union-bound
/// overlay (theory column).
pub fn e7_deletion_process(quick: bool) -> Table {
    let mut t = Table::new(
        "E7 dynamic deletion process: weak-routing failure vs sparsity (Sec 5.3)",
        &[
            "k",
            "tau",
            "measured failure rate",
            "per-edge Chernoff tail",
        ],
    );
    let d = if quick { 5 } else { 6 };
    let g = gen::hypercube(d);
    let r = ValiantHypercube::new(g.clone());
    let mut drng = StdRng::seed_from_u64(77);
    let demand = sor_flow::demand::random_permutation(&g, &mut drng);
    let trials = if quick { 10 } else { 40 };
    let tau = 2.0;
    // Expected per-edge congestion of the all-candidates routing (Valiant
    // on a permutation is O(1)-congested; ≈ 0.75 on Q_d) — the `μ` of the
    // Main Lemma's Chernoff variables, per draw of weight 1/k.
    let mu_per_draw = 0.75;
    for k in [1usize, 2, 3, 4, 6] {
        let rate = weak_failure_rate(&g, &r, &demand, k, tau, trials, 4242);
        // Per-edge overcongestion tail: the edge's draw count has mean
        // μ·k and overcongests at > τ·k draws. Drawn per edge (not
        // union-bounded): the *trend* — exponential decay in k — is the
        // Main Lemma's mechanism; the full bad-pattern union bound is
        // what turns it into a w.h.p. statement.
        let per_edge = chernoff_upper_tail(mu_per_draw * k as f64, tau * k as f64);
        t.row(vec![
            k.to_string(),
            f(tau),
            f(rate),
            format!("{per_edge:.3}"),
        ]);
    }
    t.note(format!(
        "Q_{d}, random permutation demand, {trials} trials/row"
    ));
    t.note("both columns decay exponentially in k — the power of a few random choices");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_graph_shape() {
        let (g, s, t) = theta_graph(3, 5);
        assert_eq!(g.num_nodes(), 2 + 3 * 4);
        assert_eq!(g.num_edges(), 1 + 3 * 5);
        assert!(sor_graph::is_connected(&g));
        assert_eq!(sor_graph::bfs_path(&g, s, t).unwrap().hops(), 1);
    }

    #[test]
    fn e5_quick_finds_hard_demands() {
        let t = e5_lower_bound(true);
        // at least one sparse row should certify a ratio > 1
        let any_hard = t
            .rows
            .iter()
            .filter(|r| r[7] != "-")
            .any(|r| r[7].parse::<f64>().unwrap() > 1.2);
        assert!(any_hard, "adversary found nothing: {:?}", t.rows);
    }

    #[test]
    fn e6_quick_hop_constrained_wins_cd() {
        let t = e6_completion_time(true);
        let cd_cong: f64 = t.rows[0][3].parse().unwrap();
        let cd_hop: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            cd_hop <= cd_cong + 1e-9,
            "hop-constrained C+D {cd_hop} should beat congestion-only {cd_cong}"
        );
        // simulated makespans track C+D within a constant
        let sim_hop: f64 = t.rows[1][4].parse().unwrap();
        assert!(sim_hop <= 3.0 * cd_hop + 5.0);
    }

    #[test]
    fn e7_quick_rates_decrease() {
        let t = e7_deletion_process(true);
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(last <= first + 1e-9);
    }
}
