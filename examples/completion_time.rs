//! Completion time: why congestion alone is the wrong objective, and how
//! hop-constrained sampling (Section 7) fixes it — validated by an actual
//! store-and-forward packet simulation.
//!
//! The instance is the theta graph: one direct `s`–`t` edge plus several
//! long disjoint paths. Minimizing congestion spreads packets onto the
//! long paths (dilation explodes); minimizing `congestion + dilation`
//! keeps them on the short edge.
//!
//! Run: `cargo run --release --example completion_time`

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::core::completion::CompletionRouting;
use semi_oblivious_routing::core::sample::demand_pairs;
use semi_oblivious_routing::core::{PathSystem, SemiObliviousRouting};
use semi_oblivious_routing::flow::Demand;
use semi_oblivious_routing::graph::{Graph, NodeId};
use semi_oblivious_routing::oblivious::routing::ObliviousRouting;
use semi_oblivious_routing::oblivious::KspRouting;
use semi_oblivious_routing::sched::{simulate, Policy};

fn theta_graph(p: usize, len: usize) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new(2 + p * (len - 1));
    let (s, t) = (NodeId(0), NodeId(1));
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

fn routes_of(
    sor: &SemiObliviousRouting,
    demand: &Demand,
    seed: u64,
) -> Vec<semi_oblivious_routing::graph::Path> {
    let mut rng = StdRng::seed_from_u64(seed);
    let integral = sor.route_integral(demand, 0.1, &mut rng);
    let mut routes = Vec::new();
    for (counts, &(a, b, _)) in integral.counts.iter().zip(demand.entries()) {
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                routes.push(sor.system().paths(a, b).get(i).to_path(sor.graph()));
            }
        }
    }
    routes
}

fn report(name: &str, g: &Graph, routes: &[semi_oblivious_routing::graph::Path]) {
    let sim = simulate(g, routes, Policy::RandomPriority { seed: 9 });
    println!(
        "{name:<28} C = {:>5.2}  D = {:>2}  C+D = {:>5.2}  simulated makespan = {}",
        sim.congestion,
        sim.dilation,
        sim.congestion + sim.dilation as f64,
        sim.makespan
    );
}

fn main() {
    let (p, len, units) = (4usize, 14usize, 4u32);
    let (g, s, t) = theta_graph(p, len);
    println!("theta graph: direct edge + {p} disjoint {len}-hop paths; {units} packets s→t\n");
    let demand = Demand::from_triples([(s, t, units as f64)]);
    let pairs = demand_pairs(&demand);

    // Congestion-only: all routes installed, rates minimize congestion.
    let ksp = KspRouting::new(g.clone(), p + 1);
    let mut system = PathSystem::new();
    for (path, _) in ksp.path_distribution(s, t).iter() {
        system.insert(s, t, path.clone());
    }
    let sor_cong = SemiObliviousRouting::new(g.clone(), system);
    let routes_cong = routes_of(&sor_cong, &demand, 1);
    report("congestion-only", &g, &routes_cong);

    // Hop-constrained completion routing (Section 7), integral at the
    // winning scale.
    let mut rng = StdRng::seed_from_u64(2);
    let cr = CompletionRouting::build(&g, &pairs, p + 1, 4, &mut rng);
    let (res, routes_hop) = cr.route_integral(&demand, 0.1, &mut rng).expect("covered");
    report(
        &format!("hop-constrained (h = {})", res.scale),
        &g,
        &routes_hop,
    );

    println!("\n→ lower congestion ≠ faster delivery; C+D is what the schedule tracks.");
}
