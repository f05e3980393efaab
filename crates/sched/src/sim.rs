//! The store-and-forward simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_graph::{Graph, Path};
use std::collections::HashMap;

/// Scheduling policy deciding which queued packets cross an edge when more
/// packets want it than its per-step capacity allows.
#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// First-in-first-out per directed edge, ties by packet id.
    Fifo,
    /// Each packet draws one static random priority at start; smaller wins
    /// every contention (the classic O(C + D·log)-style scheduler).
    RandomPriority {
        /// RNG seed for the priority draw.
        seed: u64,
    },
    /// Each packet waits a uniform random delay in `[0, max_delay]` before
    /// injecting, then moves FIFO (the \[LMR94\] random-delay trick; a good
    /// `max_delay` is ≈ the congestion bound).
    RandomDelay {
        /// RNG seed for the delay draw.
        seed: u64,
        /// Inclusive upper bound on the initial delay.
        max_delay: u32,
    },
    /// Longest remaining route first: packets with more hops left win
    /// contentions (a farthest-to-go heuristic that shortens the tail of
    /// the completion-time distribution).
    LongestRemaining,
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Steps until the last packet arrived.
    pub makespan: u64,
    /// Congestion of the route set: max over directed edge uses of
    /// `traversals / ⌊cap⌋` (a lower bound on the makespan).
    pub congestion: f64,
    /// Max hops over the routes (also a lower bound on the makespan).
    pub dilation: u64,
    /// Per-packet arrival times (0 for zero-hop routes), in input order.
    pub finish_times: Vec<u64>,
    /// Largest queue observed at any directed edge in any step (packets
    /// wanting the edge beyond its per-step budget).
    pub max_queue: usize,
}

impl SimResult {
    /// Mean packet latency, or `None` when the run carried no packets
    /// (a mean over zero packets has no meaningful value; callers that
    /// want a number for a table row typically use `.unwrap_or(0.0)`).
    pub fn mean_latency(&self) -> Option<f64> {
        if self.finish_times.is_empty() {
            return None;
        }
        Some(self.finish_times.iter().sum::<u64>() as f64 / self.finish_times.len() as f64)
    }
}

impl SimResult {
    /// `max(⌈C⌉, D)` — no schedule can beat this.
    pub fn lower_bound(&self) -> u64 {
        // ceil of a non-negative congestion; the value is far below u64::MAX
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = self.congestion.ceil() as u64;
        c.max(self.dilation)
    }
}

/// Per-step per-direction transmission budget of an edge.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn edge_budget(g: &Graph, e: sor_graph::EdgeId) -> u64 {
    (g.cap(e).floor() as u64).max(1)
}

/// Simulate the routes under the policy. Zero-hop routes complete at time
/// 0. Panics on invalid input or if the schedule fails to finish within a
/// generous safety bound; use [`try_simulate`] to handle those as errors.
pub fn simulate(g: &Graph, routes: &[Path], policy: Policy) -> SimResult {
    simulate_released(g, routes, None, policy)
}

/// Fallible [`simulate`]: returns an error naming the offending packet
/// (a route that is not a path of `g`) instead of panicking.
pub fn try_simulate(g: &Graph, routes: &[Path], policy: Policy) -> Result<SimResult, String> {
    try_simulate_released(g, routes, None, policy)
}

/// Like [`simulate`], but packet `i` is injected at `releases[i]` (on top
/// of any policy delay) — the streaming-arrivals model the packet-level
/// TE experiment uses. `None` releases everything at time 0.
pub fn simulate_released(
    g: &Graph,
    routes: &[Path],
    releases: Option<&[u64]>,
    policy: Policy,
) -> SimResult {
    match try_simulate_released(g, routes, releases, policy) {
        Ok(r) => r,
        // sor-check: allow(unwrap) — panicking front end over the fallible simulator
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`simulate_released`]: validates every route against `g` and
/// the release vector's shape up front, and reports a scheduler stall as
/// an error instead of panicking. Error messages name the offending
/// packet index and its endpoints.
pub fn try_simulate_released(
    g: &Graph,
    routes: &[Path],
    releases: Option<&[u64]>,
    policy: Policy,
) -> Result<SimResult, String> {
    let _span = sor_obs::span("sched/simulate");
    let n_packets = routes.len();
    if let Some(r) = releases {
        if r.len() != n_packets {
            return Err(format!(
                "{} release times for {n_packets} packets — one is required per packet",
                r.len()
            ));
        }
    }
    for (i, p) in routes.iter().enumerate() {
        if !p.validate(g) {
            return Err(format!(
                "packet {i} ({}→{}): route is not a path of the graph \
                 (out-of-bounds or non-consecutive edges)",
                p.source(),
                p.target()
            ));
        }
    }
    // Static inputs: congestion and dilation of the route set.
    let mut uses: HashMap<(u32, u32), u64> = HashMap::new(); // (edge, from-node)
    let mut dilation = 0u64;
    for p in routes {
        dilation = dilation.max(p.hops() as u64);
        for (i, &e) in p.edges().iter().enumerate() {
            let from = p.nodes()[i];
            *uses.entry((e.0, from.0)).or_insert(0) += 1;
        }
    }
    let congestion = uses
        .iter()
        .map(|(&(e, _), &u)| u as f64 / edge_budget(g, sor_graph::EdgeId(e)) as f64)
        .fold(0.0, f64::max);

    // Policy state. `LongestRemaining` re-ranks dynamically below; the
    // others use a static priority.
    let dynamic_longest = matches!(policy, Policy::LongestRemaining);
    let (priority, start_time): (Vec<u64>, Vec<u64>) = match policy {
        Policy::Fifo | Policy::LongestRemaining => {
            ((0..n_packets as u64).collect(), vec![0; n_packets])
        }
        Policy::RandomPriority { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut prio: Vec<u64> = (0..n_packets as u64).collect();
            // random distinct priorities: shuffle ids
            for i in (1..prio.len()).rev() {
                let j = rng.gen_range(0..=i);
                prio.swap(i, j);
            }
            (prio, vec![0; n_packets])
        }
        Policy::RandomDelay { seed, max_delay } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let delays = (0..n_packets)
                .map(|_| rng.gen_range(0..=max_delay) as u64)
                .collect();
            ((0..n_packets as u64).collect(), delays)
        }
    };

    // fold explicit releases into the policy start times
    let start_time: Vec<u64> = match releases {
        Some(r) => start_time.iter().zip(r).map(|(&a, &b)| a + b).collect(),
        None => start_time,
    };
    let max_start = start_time.iter().copied().max().unwrap_or(0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let safety = (congestion.ceil() as u64 + 1) * (dilation + 1) + max_start + 16;

    let mut pos: Vec<usize> = vec![0; n_packets];
    let mut remaining: usize = routes.iter().filter(|p| p.hops() > 0).count();
    let mut finish_times = vec![0u64; n_packets];
    let mut max_queue = 0usize;
    let mut makespan = 0u64;
    let mut t = 0u64;
    // Reusable queue map: (edge, from) -> packet ids wanting to cross now.
    let mut wanting: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    while remaining > 0 {
        if t > safety {
            return Err(format!(
                "scheduler stalled: {remaining} of {n_packets} packets unfinished \
                 after the safety bound of {safety} steps — simulator bug"
            ));
        }
        wanting.clear();
        #[allow(clippy::cast_possible_truncation)]
        for (i, p) in routes.iter().enumerate() {
            if pos[i] < p.hops() && start_time[i] <= t {
                let e = p.edges()[pos[i]];
                let from = p.nodes()[pos[i]];
                wanting.entry((e.0, from.0)).or_default().push(i as u32);
            }
        }
        for (&(e, _), packets) in wanting.iter_mut() {
            #[allow(clippy::cast_possible_truncation)]
            let budget = edge_budget(g, sor_graph::EdgeId(e)) as usize;
            let deferred = packets.len().saturating_sub(budget);
            max_queue = max_queue.max(deferred);
            sor_obs::count_usize("sched/deferred", deferred);
            sor_obs::observe_into!("sched/queue_depth", packets.len() as f64);
            if packets.len() > budget {
                if dynamic_longest {
                    // more hops left wins; ties by id for determinism
                    packets.sort_by_key(|&i| {
                        let i = i as usize;
                        (usize::MAX - (routes[i].hops() - pos[i]), i)
                    });
                } else {
                    packets.sort_by_key(|&i| priority[i as usize]);
                }
                packets.truncate(budget);
            }
            for &i in packets.iter() {
                let i = i as usize;
                pos[i] += 1;
                if pos[i] == routes[i].hops() {
                    remaining -= 1;
                    finish_times[i] = t + 1;
                    makespan = makespan.max(t + 1);
                }
            }
        }
        sor_obs::counter_add!("sched/steps");
        t += 1;
    }
    Ok(SimResult {
        makespan,
        congestion,
        dilation,
        finish_times,
        max_queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{bfs_path, gen, NodeId};

    #[test]
    fn try_simulate_names_offending_packet() {
        let g = gen::path_graph(5);
        let good = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        // a route built over a larger graph is not a path of `g`
        let g_big = gen::path_graph(8);
        let alien = bfs_path(&g_big, NodeId(0), NodeId(7)).unwrap();
        let err = try_simulate(&g, &[good.clone(), alien], Policy::Fifo).unwrap_err();
        assert!(err.contains("packet 1"), "{err}");
        assert!(err.contains("v0→v7"), "{err}");
        assert!(try_simulate(&g, &[good], Policy::Fifo).is_ok());
    }

    #[test]
    fn try_simulate_released_checks_shape() {
        let g = gen::path_graph(3);
        let p = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        let err = try_simulate_released(&g, &[p], Some(&[0, 1]), Policy::Fifo).unwrap_err();
        assert!(err.contains("2 release times for 1 packets"), "{err}");
    }

    #[test]
    fn single_packet_takes_hops_steps() {
        let g = gen::path_graph(5);
        let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        let r = simulate(&g, &[p], Policy::Fifo);
        assert_eq!(r.makespan, 4);
        assert_eq!(r.dilation, 4);
        assert_eq!(r.congestion, 1.0);
        assert_eq!(r.lower_bound(), 4);
    }

    #[test]
    fn pipeline_on_shared_path() {
        // k packets over the same 4-hop path: pipelined makespan = 4 + k−1.
        let g = gen::path_graph(5);
        let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        let routes = vec![p; 3];
        let r = simulate(&g, &routes, Policy::Fifo);
        assert_eq!(r.makespan, 6);
        assert_eq!(r.congestion, 3.0);
    }

    #[test]
    fn disjoint_paths_run_in_parallel() {
        let g = gen::grid(2, 4);
        let top = bfs_path(&g, NodeId(0), NodeId(3)).unwrap();
        let bottom = bfs_path(&g, NodeId(4), NodeId(7)).unwrap();
        let r = simulate(&g, &[top, bottom], Policy::Fifo);
        assert_eq!(r.makespan, 3);
    }

    #[test]
    fn capacity_two_carries_two() {
        let mut g = sor_graph::Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        let p = bfs_path(&g, NodeId(0), NodeId(1)).unwrap();
        let r = simulate(&g, &[p.clone(), p.clone(), p], Policy::Fifo);
        // 3 packets over a cap-2 edge: 2 in step 1, 1 in step 2.
        assert_eq!(r.makespan, 2);
        assert_eq!(r.congestion, 1.5);
    }

    #[test]
    fn opposite_directions_dont_contend() {
        // Store-and-forward links are full duplex per direction.
        let g = gen::path_graph(3);
        let fwd = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        let bwd = bfs_path(&g, NodeId(2), NodeId(0)).unwrap();
        let r = simulate(&g, &[fwd, bwd], Policy::Fifo);
        assert_eq!(r.makespan, 2);
    }

    #[test]
    fn zero_hop_routes_finish_instantly() {
        let g = gen::path_graph(3);
        let r = simulate(&g, &[sor_graph::Path::trivial(NodeId(1))], Policy::Fifo);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.lower_bound(), 0);
    }

    #[test]
    fn makespan_respects_lower_bound_and_cd() {
        // Random permutation on a hypercube, greedy one-bend routes: the
        // schedule must sit between max(C, D) and (C+1)(D+1).
        let g = gen::hypercube(5);
        let perm = gen::bit_reversal_perm(5);
        let routes: Vec<Path> = perm
            .into_iter()
            .filter(|(s, t)| s != t)
            .map(|(s, t)| bfs_path(&g, s, t).unwrap())
            .collect();
        for policy in [
            Policy::Fifo,
            Policy::RandomPriority { seed: 1 },
            Policy::RandomDelay {
                seed: 2,
                max_delay: 4,
            },
        ] {
            let r = simulate(&g, &routes, policy);
            assert!(r.makespan >= r.lower_bound());
            assert!(
                (r.makespan as f64) <= (r.congestion + 1.0) * (r.dilation as f64 + 1.0) + 8.0,
                "makespan {} far above C·D",
                r.makespan
            );
        }
    }

    #[test]
    fn longest_remaining_prioritizes_far_packets() {
        // Two packets contend on the first edge of a path; one travels
        // much further. LongestRemaining sends the long one first, so the
        // long packet is never delayed: makespan = long hops + 0, and the
        // short packet finishes at 2.
        let g = gen::path_graph(6);
        let long = bfs_path(&g, NodeId(0), NodeId(5)).unwrap();
        let short = bfs_path(&g, NodeId(0), NodeId(1)).unwrap();
        let r = simulate(&g, &[short.clone(), long.clone()], Policy::LongestRemaining);
        assert_eq!(r.finish_times[1], 5, "long packet should go first");
        assert_eq!(r.finish_times[0], 2, "short packet waits one step");
        assert_eq!(r.makespan, 5);
        // FIFO (by id) sends the short one first, delaying the long one.
        let r2 = simulate(&g, &[short, long], Policy::Fifo);
        assert_eq!(r2.makespan, 6);
    }

    #[test]
    fn queue_depth_tracked() {
        let g = gen::path_graph(3);
        let p = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        // 4 packets on one unit edge: 3 wait in the first step
        let r = simulate(&g, &vec![p.clone(); 4], Policy::Fifo);
        assert_eq!(r.max_queue, 3);
        // a single packet never queues
        let r1 = simulate(&g, &[p], Policy::Fifo);
        assert_eq!(r1.max_queue, 0);
    }

    #[test]
    fn latency_stats() {
        let g = gen::path_graph(5);
        let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        let r = simulate(&g, &[p.clone(), p], Policy::Fifo);
        assert_eq!(r.finish_times, vec![4, 5]);
        assert!((r.mean_latency().unwrap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn mean_latency_none_without_packets() {
        let g = gen::path_graph(3);
        let r = simulate(&g, &[], Policy::Fifo);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.mean_latency(), None);
        // zero-hop routes still count as (instantly finished) packets
        let r0 = simulate(&g, &[sor_graph::Path::trivial(NodeId(1))], Policy::Fifo);
        assert_eq!(r0.mean_latency(), Some(0.0));
    }

    #[test]
    fn releases_delay_injection() {
        // One packet released at t=5 over a 2-hop path finishes at 7.
        let g = gen::path_graph(3);
        let p = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        let r = simulate_released(&g, std::slice::from_ref(&p), Some(&[5]), Policy::Fifo);
        assert_eq!(r.makespan, 7);
        // staggered arrivals on a shared edge pipeline cleanly
        let r2 = simulate_released(&g, &[p.clone(), p], Some(&[0, 1]), Policy::Fifo);
        assert_eq!(r2.makespan, 3);
    }

    #[test]
    fn random_delay_spreads_bursts() {
        // Many packets sharing one edge then dispersing: random delays
        // cannot beat the pipeline bound but must stay within C + D + max_delay.
        let g = gen::star(6);
        let routes: Vec<Path> = (1..=5)
            .map(|i| bfs_path(&g, NodeId(i), NodeId(if i == 5 { 1 } else { i + 1 })).unwrap())
            .collect();
        let r = simulate(
            &g,
            &routes,
            Policy::RandomDelay {
                seed: 3,
                max_delay: 6,
            },
        );
        assert!(r.makespan >= r.lower_bound());
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = r.congestion as u64;
        assert!(r.makespan <= c + r.dilation + 6 + 2);
    }
}
