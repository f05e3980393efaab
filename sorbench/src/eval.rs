//! The eval workloads: the offline E-series pipeline in a closed loop.
//! Each operation draws a fresh demand for the next graph family in turn
//! and runs `sample_k` on the family's prebuilt Räcke routing →
//! `route_fractional` → `max_concurrent_flow` with its certificate, all at
//! ε = 0.1.

use crate::check::check_instance;
use crate::stats::{median, percentile};
use crate::trace::{self, Half};
use crate::{rng, timed_setup, Args, EndToEnd, Report, Setup, Stream, Workload};
use rand::rngs::StdRng;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::demand::random_permutation;
use sor_flow::{max_concurrent_flow, Demand};
use sor_graph::{gen, Graph};
use sor_oblivious::RaeckeRouting;
use sor_te::{gravity_tm, Scenario};
use std::time::Instant;

const EPS: f64 = 0.1;
const TREES: usize = 8;
/// Paths per pair on the WANs, the sparsity of the E8 tables.
const WAN_SPARSITY: usize = 4;
/// Passes at the least, for the quartiles over passes and the quality
/// averages to rest on.
const MIN_PASSES: usize = 5;

enum Traffic {
    Permutation,
    /// Gravity TMs of 4.0 units over the scenario's endpoints.
    Gravity(Scenario),
}

/// One graph and the kind of demand drawn on it.
struct Family {
    name: String,
    graph: Graph,
    sparsity: usize,
    traffic: Traffic,
}

impl Family {
    fn permutations(name: &str, graph: Graph) -> Self {
        // ⌈log₂ n⌉ paths per pair, the sparsity of Theorem 2.3
        let sparsity = graph.num_nodes().next_power_of_two().trailing_zeros() as usize;
        Family {
            name: name.to_string(),
            graph,
            sparsity,
            traffic: Traffic::Permutation,
        }
    }

    fn demand(&self, rng: &mut StdRng) -> Demand {
        match &self.traffic {
            Traffic::Permutation => random_permutation(&self.graph, rng),
            Traffic::Gravity(sc) => gravity_tm(sc, 4.0, rng),
        }
    }
}

fn families(workload: Workload, seed: u64) -> Vec<Family> {
    if workload == Workload::EvalPerm {
        let expander = gen::random_regular(128, 4, &mut rng(seed, Stream::Graph));
        return vec![
            Family::permutations("expander:128x4", expander),
            Family::permutations("hypercube:6", gen::hypercube(6)),
            Family::permutations("grid:16x16", gen::grid(16, 16)),
        ];
    }
    [
        Scenario::abilene(),
        Scenario::b4(),
        Scenario::geant(),
        Scenario::att(),
    ]
    .into_iter()
    .map(|sc| Family {
        name: sc.name.to_string(),
        graph: sc.graph.clone(),
        sparsity: WAN_SPARSITY,
        traffic: Traffic::Gravity(sc),
    })
    .collect()
}

/// What the timed passes produced.
#[derive(Default)]
struct Tally {
    /// Solve wall of each demand, per family.
    walls: Vec<Vec<f64>>,
    /// Summed solve wall of each pass.
    passes: Vec<f64>,
    /// Commodities routed in each pass.
    pass_pairs: Vec<f64>,
    solves: u64,
    bad: u64,
    /// Semi-oblivious congestion ÷ OPT's certified lower bound, per solve.
    ratio: Vec<f64>,
    /// OPT's upper ÷ lower bound, per solve.
    gap: Vec<f64>,
}

struct Bench {
    families: Vec<Family>,
    routings: Vec<RaeckeRouting>,
    demands: StdRng,
    sampling: StdRng,
}

impl Bench {
    /// Whole passes over the families, for `seconds` and at least
    /// `min_passes`.
    fn run(&mut self, seconds: f64, min_passes: usize) -> Tally {
        let mut t = Tally {
            walls: vec![Vec::new(); self.families.len()],
            ..Tally::default()
        };
        let start = Instant::now();
        while t.passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
            let (mut pass, mut pass_pairs) = (0.0, 0);
            for (i, (fam, routing)) in self.families.iter().zip(&self.routings).enumerate() {
                let g = &fam.graph;
                let demand = fam.demand(&mut self.demands);
                let pairs = demand_pairs(&demand);
                let begin = Instant::now();
                let (sor, sol, opt) = {
                    let _span = sor_obs::span("bench/instance");
                    let system = sample_k(routing, &pairs, fam.sparsity, &mut self.sampling).system;
                    let sor = SemiObliviousRouting::new(g.clone(), system);
                    let sol = sor.route_fractional(&demand, EPS);
                    let opt = max_concurrent_flow(g, &demand, EPS);
                    (sor, sol, opt)
                };
                let wall = begin.elapsed().as_secs_f64();
                t.walls[i].push(wall);
                pass += wall;
                pass_pairs += pairs.len();
                t.solves += 1;
                if let Err(e) = check_instance(g, &demand, sor.system(), &sol, &opt) {
                    eprintln!("sorbench: {} instance failed its check: {e}", fam.name);
                    t.bad += 1;
                }
                t.ratio.push(sol.congestion / opt.congestion_lower);
                t.gap.push(opt.gap());
            }
            t.passes.push(pass);
            t.pass_pairs.push(pass_pairs as f64);
        }
        t
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let families = families(args.workload, args.seed);
    // Set-up is the once-per-graph oblivious routing, as in serving.
    let Setup {
        built: routings,
        median_s: setup_s,
        reps,
        capture,
    } = timed_setup(args, || {
        let mut r = rng(args.seed, Stream::Engine);
        families
            .iter()
            .map(|f| RaeckeRouting::build(f.graph.clone(), TREES, &mut r))
            .collect()
    });
    let mut bench = Bench {
        families,
        routings,
        demands: rng(args.seed, Stream::Demands),
        sampling: rng(args.seed, Stream::Sampling),
    };

    if args.trace {
        let graphs: Vec<&Graph> = bench.families.iter().map(|f| &f.graph).collect();
        let dijkstra_us = trace::dijkstra_us(&graphs);
        return trace::run(args, &capture, reps, dijkstra_us, |seconds| {
            let t = bench.run(seconds, 1);
            Half {
                op_walls: t.passes,
                attempted: t.solves,
                failed: t.bad,
                bad: t.bad,
            }
        });
    }

    let t = bench.run(args.seconds as f64, MIN_PASSES);
    for (fam, walls) in bench.families.iter().zip(&t.walls) {
        let wall = median(walls).unwrap_or(f64::NAN);
        println!("# {}: median solve {:.1} ms", fam.name, wall * 1e3);
    }
    println!(
        "# {} passes ({} solves), {reps} set-up builds",
        t.passes.len(),
        t.solves
    );
    let families = bench.families.len() as f64;
    let rates: Vec<f64> = t
        .pass_pairs
        .iter()
        .zip(&t.passes)
        .map(|(pairs, wall)| pairs / wall)
        .collect();
    let per_solve: Vec<f64> = t.passes.iter().map(|wall| wall / families).collect();
    // Quality over the first `MIN_PASSES` passes, which every run makes, so
    // a seed always averages the same demands however fast the machine is.
    let quality = |values: &[f64]| {
        let first = &values[..MIN_PASSES * bench.families.len()];
        first.iter().sum::<f64>() / first.len() as f64
    };
    let e2e = EndToEnd {
        setup_s,
        pairs_per_s: percentile(&rates, 75).unwrap_or(f64::NAN),
        latency_ms: percentile(&per_solve, 25).unwrap_or(f64::NAN) * 1e3,
        mean_congestion: quality(&t.ratio),
        solver_gap: quality(&t.gap),
    };
    Ok(Report {
        attempted: t.solves,
        failed: t.bad,
        correct: t.bad == 0,
        metrics: e2e.metrics()?,
    })
}
