//! Experiments E13–E17, E19–E20: extensions beyond the core reproduction.

use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::demand::random_permutation;
use sor_graph::gen;
use sor_oblivious::{RaeckeRouting, ValiantHypercube};
use sor_te::{churn_experiment, gravity_tm, Scenario};

/// E13 — path churn across drifting traffic matrices: the operational
/// SMORE argument. The semi-oblivious system never changes its installed
/// paths (churn 0); a per-step re-solved optimum replaces a large
/// fraction of its paths at every snapshot.
pub fn e13_churn(quick: bool) -> Table {
    let mut t = Table::new(
        "E13 path churn under TM drift (semi-oblivious vs re-solved MCF)",
        &[
            "scenario",
            "steps",
            "jitter",
            "semi MLU ratio",
            "semi path churn",
            "MCF path churn",
        ],
    );
    let scenarios = if quick {
        vec![Scenario::abilene()]
    } else {
        vec![Scenario::abilene(), Scenario::b4()]
    };
    let steps = if quick { 4 } else { 8 };
    for sc in &scenarios {
        for &jitter in if quick {
            &[0.3][..]
        } else {
            &[0.1, 0.3, 0.5][..]
        } {
            let mut rng = StdRng::seed_from_u64(11);
            let tm = gravity_tm(sc, 3.0, &mut rng);
            let res = churn_experiment(sc, &tm, steps, jitter, 4, 8, 21, 0.15);
            t.row(vec![
                sc.name.to_string(),
                steps.to_string(),
                f(jitter),
                f(res.semi_mean_ratio),
                f(res.semi_path_churn),
                f(res.mcf_path_churn),
            ]);
        }
    }
    t.note("churn = mean Jaccard distance between consecutive support path sets");
    t.note("semi-oblivious: paths installed once, only rates move (churn identically 0)");
    t
}

/// E14 — the rounding lemma (Lemma 6.3): integral congestion is at most
/// `O(1)·fractional + O(log m)`. Measured as the additive gap between the
/// rounded-and-improved integral routing and its fractional relaxation,
/// across graph scales.
pub fn e14_rounding_gap(quick: bool) -> Table {
    let mut t = Table::new(
        "E14 rounding gap (Lemma 6.3): integral vs fractional congestion",
        &[
            "graph",
            "m",
            "frac cong",
            "int cong",
            "additive gap",
            "ln m",
        ],
    );
    let dims: &[usize] = if quick { &[4, 5] } else { &[4, 5, 6, 7] };
    for &d in dims {
        let g = gen::hypercube(d);
        let base = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(70 + d as u64);
        let dm = random_permutation(&g, &mut rng);
        let sampled = sample_k(&base, &demand_pairs(&dm), 3, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        let frac = sor.route_fractional(&dm, 0.2).congestion;
        let int = sor.route_integral(&dm, 0.2, &mut rng).congestion;
        t.row(vec![
            format!("Q_{d}"),
            g.num_edges().to_string(),
            f(frac),
            f(int),
            f(int - frac),
            f((g.num_edges() as f64).ln()),
        ]);
    }
    // one non-hypercube instance
    let side = if quick { 4 } else { 6 };
    let g = gen::grid(side, side);
    let mut rng = StdRng::seed_from_u64(99);
    let base = RaeckeRouting::build(g.clone(), 8, &mut rng);
    let dm = random_permutation(&g, &mut rng);
    let sampled = sample_k(&base, &demand_pairs(&dm), 3, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
    let frac = sor.route_fractional(&dm, 0.2).congestion;
    let int = sor.route_integral(&dm, 0.2, &mut rng).congestion;
    t.row(vec![
        format!("grid{side}x{side}"),
        g.num_edges().to_string(),
        f(frac),
        f(int),
        f(int - frac),
        f((g.num_edges() as f64).ln()),
    ]);
    t.note("Lemma 6.3: gap ≤ O(frac) + O(log m); local search keeps it near-constant in practice");
    t
}

/// E15 — scheduling-policy ablation: the same route set under every
/// scheduler, against the `max(C, D)` floor — grounding the claim that
/// "completion time ≈ C + D" is achievable by simple online policies
/// (\[LMR94\] and the practical schedulers that approximate it).
pub fn e15_scheduling(quick: bool) -> Table {
    use sor_sched::{simulate, Policy};
    let mut t = Table::new(
        "E15 scheduler ablation on fixed routes (C+D realizability)",
        &["policy", "makespan", "mean latency", "max(C, D) floor"],
    );
    let d = if quick { 6 } else { 8 };
    let g = gen::hypercube(d);
    let routes: Vec<_> = gen::bit_reversal_perm(d)
        .into_iter()
        .filter(|(s, t)| s != t)
        .map(|(s, t)| sor_graph::bfs_path(&g, s, t).expect("connected"))
        .collect();
    for (name, policy) in [
        ("fifo", Policy::Fifo),
        ("random-priority", Policy::RandomPriority { seed: 1 }),
        (
            "random-delay",
            Policy::RandomDelay {
                seed: 2,
                max_delay: 8,
            },
        ),
        ("longest-remaining", Policy::LongestRemaining),
    ] {
        let r = simulate(&g, &routes, policy);
        t.row(vec![
            name.to_string(),
            r.makespan.to_string(),
            f(r.mean_latency().unwrap_or(0.0)),
            r.lower_bound().to_string(),
        ]);
    }
    t.note(format!(
        "Q_{d}, greedy shortest routes of the bit-reversal permutation"
    ));
    t.note("all policies land within a small constant of the C/D floor");
    t
}

/// E16 — the integral setting of Section 6: integral semi-oblivious
/// routing (rounding + local search) against the *exact* integral offline
/// optimum, on instances small enough to brute-force.
pub fn e16_integral(quick: bool) -> Table {
    use sor_core::eval::evaluate_integral;
    use sor_flow::Demand;
    use sor_graph::NodeId;
    use sor_oblivious::KspRouting;
    let mut t = Table::new(
        "E16 integral semi-oblivious vs exact integral OPT (Sec 6)",
        &[
            "graph",
            "pairs",
            "s",
            "semi int cong",
            "exact int OPT",
            "ratio",
        ],
    );
    type Case = (&'static str, sor_graph::Graph, Vec<(u32, u32)>);
    let cases: Vec<Case> = vec![
        ("cycle8", gen::cycle_graph(8), vec![(0, 4), (1, 5), (2, 6)]),
        ("grid3x3", gen::grid(3, 3), vec![(0, 8), (2, 6), (1, 7)]),
        (
            "twostar(3,4)",
            gen::two_star(3, 4),
            vec![(5, 9), (6, 10), (7, 11)],
        ),
    ];
    let svals: &[usize] = if quick { &[2] } else { &[1, 2, 3] };
    for (name, g, pairs) in &cases {
        let demand = Demand::from_pairs(pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))));
        for &s in svals {
            let base = KspRouting::new(g.clone(), 3);
            let mut rng = StdRng::seed_from_u64(40 + s as u64);
            let sampled = sample_k(&base, &demand_pairs(&demand), s, &mut rng);
            let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
            let ev = evaluate_integral(&sor, &demand, 0.1, &mut rng);
            t.row(vec![
                name.to_string(),
                demand.support_size().to_string(),
                s.to_string(),
                f(ev.semi_int),
                f(ev.opt_int),
                f(ev.ratio()),
            ]);
        }
    }
    t.note("exact OPT by exhaustive search over all simple-path assignments");
    t
}

/// E17 — packet-level validation of the fluid model (extension): the
/// fractional rates computed by the semi-oblivious controller are used to
/// assign *actual packets* streaming in over a time horizon; store-and-
/// forward simulation then measures delivery. The comparison point is
/// routing every packet on its pair's shortest path (ECMP-free
/// single-path forwarding).
pub fn e17_packet_level(quick: bool) -> Table {
    use sor_sched::{simulate_released, Policy};
    let mut t = Table::new(
        "E17 packet-level simulation of adapted rates vs single-path",
        &[
            "scheme",
            "packets",
            "makespan",
            "mean latency",
            "max(C,D) floor",
        ],
    );
    // p parallel 3-hop s-t paths: single-path forwarding queues the whole
    // burst on one path; adapted rates spread it across all p.
    let p = if quick { 3 } else { 5 };
    let len = 3usize;
    let n = 2 + p * (len - 1);
    let mut g = sor_graph::Graph::new(n);
    let (s0, t0) = (sor_graph::NodeId(0), sor_graph::NodeId(1));
    let mut next = 2u32;
    for _ in 0..p {
        let mut prev = s0;
        for _ in 0..len - 1 {
            let v = sor_graph::NodeId(next);
            next += 1;
            g.add_unit_edge(prev, v);
            prev = v;
        }
        g.add_unit_edge(prev, t0);
    }
    let burst = 3 * p; // packets
    let dm = sor_flow::Demand::from_triples([(s0, t0, burst as f64)]);
    // install all p routes (the sampling question is E1–E4; this
    // experiment validates the fluid model at the packet level)
    let ksp = sor_oblivious::KspRouting::new(g.clone(), p);
    let mut system = sor_core::PathSystem::new();
    for (path, _) in
        sor_oblivious::routing::ObliviousRouting::path_distribution(&ksp, s0, t0).iter()
    {
        system.insert(s0, t0, path.clone());
    }
    let sor = SemiObliviousRouting::new(g.clone(), system);
    let sol = sor.route_fractional(&dm, 0.1);

    // (a) packets assigned proportionally to the adapted weights
    let weights = &sol.weights[0];
    let total: f64 = weights.iter().sum();
    let mut routes_adapted = Vec::new();
    let releases: Vec<u64> = (0..burst as u64).map(|i| i / p as u64).collect();
    for i in 0..burst {
        let x = (i as f64 + 0.5) / burst as f64 * total;
        let mut acc = 0.0;
        let mut pick = 0;
        for (j, w) in weights.iter().enumerate() {
            acc += w;
            if x <= acc {
                pick = j;
                break;
            }
        }
        routes_adapted.push(sor.system().paths(s0, t0).get(pick).to_path(sor.graph()));
    }
    let sim_a = simulate_released(
        &g,
        &routes_adapted,
        Some(&releases),
        Policy::RandomPriority { seed: 4 },
    );
    t.row(vec![
        "adapted rates (semi-oblivious)".into(),
        burst.to_string(),
        sim_a.makespan.to_string(),
        f(sim_a.mean_latency().unwrap_or(0.0)),
        sim_a.lower_bound().to_string(),
    ]);

    // (b) every packet on the (one) shortest path
    let sp = sor_graph::bfs_path(&g, s0, t0).expect("connected");
    let routes_sp = vec![sp; burst];
    let sim_b = simulate_released(
        &g,
        &routes_sp,
        Some(&releases),
        Policy::RandomPriority { seed: 4 },
    );
    t.row(vec![
        "single shortest path".into(),
        burst.to_string(),
        sim_b.makespan.to_string(),
        f(sim_b.mean_latency().unwrap_or(0.0)),
        sim_b.lower_bound().to_string(),
    ]);
    t.note(format!(
        "{p} parallel {len}-hop s-t paths, burst of {burst} packets"
    ));
    t.note("adapted rates spread the burst across all candidates; single-path queues it");
    t
}

/// E19 — the "for ALL demands" quantifier, exhaustively: one installed
/// sample is evaluated against *every* k-pair permutation demand on the
/// instance (the theorems' Stage-3 adversary, enumerated instead of
/// sampled). This is only feasible on tiny graphs — which is exactly
/// where exhaustiveness is meaningful.
pub fn e19_exhaustive(quick: bool) -> Table {
    use sor_core::eval::exhaustive_worst_ratio;
    use sor_core::sample::all_pairs;
    use sor_oblivious::KspRouting;
    let mut t = Table::new(
        "E19 exhaustive verification over ALL k-pair permutation demands",
        &["graph", "k", "#demands", "s", "worst ratio over all"],
    );
    let n_cycle = if quick { 6 } else { 8 };
    let cases: Vec<(String, sor_graph::Graph)> = vec![
        (format!("cycle{n_cycle}"), gen::cycle_graph(n_cycle)),
        ("twostar(2,3)".into(), gen::two_star(2, 3)),
        ("grid2x3".into(), gen::grid(2, 3)),
    ];
    let k = 2usize;
    for (name, g) in &cases {
        for s in [2usize, 4] {
            let base = KspRouting::new(g.clone(), 3);
            let mut rng = StdRng::seed_from_u64(60 + s as u64);
            let sampled = sample_k(&base, &all_pairs(g), s, &mut rng);
            let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
            let nodes: Vec<sor_graph::NodeId> = g.nodes().collect();
            let (worst, count) = exhaustive_worst_ratio(&sor, &nodes, k, 0.15);
            t.row(vec![
                name.clone(),
                k.to_string(),
                count.to_string(),
                s.to_string(),
                f(worst),
            ]);
        }
    }
    t.note("every demand checked — no sampling of the demand space");
    t
}

/// E20 — adversarial demand search vs random demands: a black-box
/// hill-climb over permutation demands (the Stage-3 adversary, made
/// concrete for arbitrary graphs) quantifies how much worse worst-case is
/// than average-case for a fixed installed sample.
pub fn e20_adversarial_search(quick: bool) -> Table {
    use sor_core::lowerbound::search_hard_demand;
    use sor_core::sample::all_pairs;
    use sor_flow::max_concurrent_flow;
    use sor_oblivious::KspRouting;
    let mut t = Table::new(
        "E20 adversarial demand search vs random demands",
        &["graph", "s", "mean random ratio", "searched ratio"],
    );
    let iters = if quick { 40 } else { 150 };
    let cases: Vec<(String, sor_graph::Graph, usize)> = vec![
        ("twostar(3,6)".into(), gen::two_star(3, 6), 3),
        ("grid4x4".into(), gen::grid(4, 4), 4),
        ("cycle10".into(), gen::cycle_graph(10), 3),
    ];
    for (name, g, k) in &cases {
        for s in [1usize, 4] {
            let base = KspRouting::new(g.clone(), 3);
            let mut rng = StdRng::seed_from_u64(80 + s as u64);
            let sampled = sample_k(&base, &all_pairs(g), s, &mut rng);
            let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
            let eps = 0.2;
            // random baseline
            let mut rand_sum = 0.0;
            let trials = if quick { 3 } else { 6 };
            for seed in 0..trials {
                let mut drng = StdRng::seed_from_u64(200 + seed);
                let d = sor_flow::demand::random_matching(g, *k, &mut drng);
                if d.support_size() == 0 || !sor.covers(&d) {
                    continue;
                }
                let c = sor.congestion(&d, eps);
                let opt = max_concurrent_flow(g, &d, eps).congestion_upper;
                rand_sum += c / opt.max(1e-12);
            }
            let rand_mean = rand_sum / trials as f64;
            let (_, searched) = search_hard_demand(&sor, *k, eps, iters, &mut rng);
            t.row(vec![name.clone(), s.to_string(), f(rand_mean), f(searched)]);
        }
    }
    t.note("search: greedy hill-climb over matchings (swap/redirect/reverse moves)");
    t.note("the searched worst case falls as sparsity grows (Thm 2.5); the worst/average gap need not shrink");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_quick_search_dominates_random() {
        let t = e20_adversarial_search(true);
        for row in &t.rows {
            let rand_mean: f64 = row[2].parse().unwrap();
            let searched: f64 = row[3].parse().unwrap();
            assert!(
                searched >= rand_mean - 0.25,
                "{} s={}: searched {searched} far below random {rand_mean}",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn e19_quick_exhaustive_bounded() {
        let t = e19_exhaustive(true);
        for row in &t.rows {
            let worst: f64 = row[4].parse().unwrap();
            let count: usize = row[2].parse().unwrap();
            assert!(count >= 50, "enumeration too small");
            assert!(
                worst < 4.0,
                "{}: worst-over-all-demands ratio {worst} too large",
                row[0]
            );
        }
    }

    #[test]
    fn e17_quick_adapted_wins_under_contention() {
        let t = e17_packet_level(true);
        let adapted_mk: f64 = t.rows[0][2].parse().unwrap();
        let sp_mk: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            adapted_mk < sp_mk,
            "spreading ({adapted_mk}) should beat single-path queueing ({sp_mk})"
        );
        let adapted_lat: f64 = t.rows[0][3].parse().unwrap();
        let sp_lat: f64 = t.rows[1][3].parse().unwrap();
        assert!(adapted_lat < sp_lat);
    }

    #[test]
    fn e15_quick_policies_near_floor() {
        let t = e15_scheduling(true);
        for row in &t.rows {
            let makespan: f64 = row[1].parse().unwrap();
            let floor: f64 = row[3].parse().unwrap();
            assert!(makespan >= floor);
            assert!(
                makespan <= 4.0 * floor + 10.0,
                "{}: makespan {makespan} far above floor {floor}",
                row[0]
            );
        }
    }

    #[test]
    fn e16_quick_ratios_at_least_one() {
        let t = e16_integral(true);
        for row in &t.rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "{}: ratio {ratio} below 1", row[0]);
            assert!(ratio < 5.0, "{}: ratio {ratio} too large", row[0]);
        }
    }

    #[test]
    fn e13_quick_semi_has_zero_churn() {
        let t = e13_churn(true);
        for row in &t.rows {
            let semi_churn: f64 = row[4].parse().unwrap();
            let mcf_churn: f64 = row[5].parse().unwrap();
            assert_eq!(semi_churn, 0.0);
            assert!(mcf_churn > 0.0, "MCF churn should be positive");
        }
    }

    #[test]
    fn e14_quick_gap_is_bounded() {
        let t = e14_rounding_gap(true);
        for row in &t.rows {
            let gap: f64 = row[4].parse().unwrap();
            let frac: f64 = row[2].parse().unwrap();
            let lnm: f64 = row[5].parse().unwrap();
            assert!(
                gap <= 2.0 * frac + 2.0 * lnm + 1.0,
                "rounding gap {gap} exceeds the Lemma 6.3 envelope"
            );
        }
    }
}
