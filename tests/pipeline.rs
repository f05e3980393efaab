//! End-to-end integration tests spanning every crate: graph → oblivious
//! routing → sampling → rate adaptation → evaluation → scheduling.

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::core::eval::evaluate;
use semi_oblivious_routing::core::sample::{demand_pairs, sample_k, sample_k_plus_cut};
use semi_oblivious_routing::core::SemiObliviousRouting;
use semi_oblivious_routing::flow::{demand, max_concurrent_flow, Demand};
use semi_oblivious_routing::graph::{gen, NodeId};
use semi_oblivious_routing::oblivious::{RaeckeRouting, ValiantHypercube};
use semi_oblivious_routing::sched::{simulate, Policy};

/// The full fractional pipeline on three different topologies.
#[test]
fn full_pipeline_on_three_topologies() {
    let cases: Vec<(&str, semi_oblivious_routing::graph::Graph)> = vec![
        ("grid", gen::grid(4, 4)),
        ("torus", gen::torus(3, 5)),
        ("abilene", gen::abilene()),
    ];
    for (name, g) in cases {
        let mut rng = StdRng::seed_from_u64(1);
        let base = RaeckeRouting::build(g.clone(), 6, &mut rng);
        let dm = demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&base, &demand_pairs(&dm), 4, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        let report = evaluate(&sor, std::slice::from_ref(&dm), Some(&base), 0.2);
        let ratio = report.worst_ratio();
        assert!(
            (0.6..8.0).contains(&ratio),
            "{name}: pipeline ratio {ratio} out of range"
        );
        // Semi-oblivious adaptation never loses to its own base routing
        // by much (it can route exactly like a sampled sub-distribution).
        let vs_obl = report.worst_ratio_vs_oblivious().unwrap();
        assert!(vs_obl < 3.0, "{name}: vs-oblivious ratio {vs_obl}");
    }
}

/// Same seed ⇒ byte-identical results across the whole stack.
#[test]
fn determinism_end_to_end() {
    let run = || {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(99);
        let base = RaeckeRouting::build(g.clone(), 5, &mut rng);
        let dm = demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&base, &demand_pairs(&dm), 3, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        sor.congestion(&dm, 0.2)
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "pipeline is not deterministic");
}

/// Fractional congestion lower-bounds integral congestion, which is then
/// realized by an actual packet schedule.
#[test]
fn integral_routing_feeds_scheduler() {
    let d = 5;
    let g = gen::hypercube(d);
    let base = ValiantHypercube::new(g.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let dm = demand::random_permutation(&g, &mut rng);
    let sampled = sample_k(&base, &demand_pairs(&dm), 4, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
    let frac = sor.route_fractional(&dm, 0.2);
    let integral = sor.route_integral(&dm, 0.2, &mut rng);
    assert!(
        integral.congestion + 1e-9 >= frac.congestion / 1.3,
        "integral {} can't be far below fractional {}",
        integral.congestion,
        frac.congestion
    );

    // Feed the integral assignment to the scheduler.
    let mut routes = Vec::new();
    for (counts, &(a, b, _)) in integral.counts.iter().zip(dm.entries()) {
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                routes.push(sor.system().paths(a, b).get(i).to_path(sor.graph()));
            }
        }
    }
    let sim = simulate(&g, &routes, Policy::RandomPriority { seed: 4 });
    assert!(sim.makespan >= sim.lower_bound());
    // the simulator's congestion is per-direction; the routing's is
    // undirected, so directed is at most undirected
    assert!(sim.congestion <= integral.congestion + 1e-9);
    assert!(sim.congestion >= integral.congestion / 2.0 - 1e-9);
    assert!(
        sim.makespan as f64 <= (sim.congestion + 1.0) * (sim.dilation as f64 + 1.0),
        "makespan {} exceeds C·D envelope",
        sim.makespan
    );
}

/// The (s+cut)-sample covers demands a plain s-sample chokes on.
#[test]
fn cut_sampling_handles_heavy_demands() {
    let g = gen::dumbbell(5, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let base = RaeckeRouting::build(g.clone(), 6, &mut rng);
    let mut dm = Demand::new();
    dm.add(NodeId(4), NodeId(9), 6.0); // heavy cross-dumbbell pair

    let mut rng_a = StdRng::seed_from_u64(6);
    let plain = sample_k(&base, &demand_pairs(&dm), 1, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(6);
    let cut = sample_k_plus_cut(&base, &g, &demand_pairs(&dm), 1, &mut rng_b);
    let sor_plain = SemiObliviousRouting::new(g.clone(), plain.system);
    let sor_cut = SemiObliviousRouting::new(g.clone(), cut.system);
    let c_plain = sor_plain.congestion(&dm, 0.15);
    let c_cut = sor_cut.congestion(&dm, 0.15);
    assert!(
        c_cut <= c_plain + 1e-9,
        "(1+cut)-sample {c_cut} should beat 1-sample {c_plain}"
    );
    let opt = max_concurrent_flow(&g, &dm, 0.15).congestion_upper;
    assert!(
        c_cut / opt < 2.5,
        "cut-sample ratio {} too large",
        c_cut / opt
    );
}

/// Permutations on hypercubes: the headline Theorem 2.3 configuration,
/// run at two scales with the ratio staying flat-ish (polylog, not
/// polynomial).
#[test]
fn log_sparsity_scales() {
    let mut ratios = Vec::new();
    for d in [4usize, 6] {
        let g = gen::hypercube(d);
        let base = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(10 + d as u64);
        let dm = demand::random_permutation(&g, &mut rng);
        let sampled = sample_k(&base, &demand_pairs(&dm), d, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        let c = sor.congestion(&dm, 0.2);
        let opt = max_concurrent_flow(&g, &dm, 0.2).congestion_upper;
        ratios.push(c / opt);
    }
    for &r in &ratios {
        assert!(r < 5.0, "log-sparsity ratio {r} too large");
    }
    // quadrupling n (d: 4→6) must not double the ratio (it's polylog)
    assert!(
        ratios[1] <= ratios[0] * 2.0 + 0.5,
        "ratio grew too fast: {ratios:?}"
    );
}
