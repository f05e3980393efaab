//! The serve workloads: one client drives `sor_serve::Engine` in a closed
//! loop, 256 unit requests per epoch, each epoch waiting for the previous
//! snapshot.

use crate::check::check_snapshot;
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Half};
use crate::{rng, stream_seed, timed_setup, Args, EndToEnd, Report, Setup, Stream, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use sor_core::sample::demand_pairs;
use sor_core::PathSystem;
use sor_flow::demand::random_matching;
use sor_graph::{connected_without, gen, EdgeId, Graph, NodeId};
use sor_serve::{CacheKey, Engine, EngineConfig, PathSystemCache, Request, SnapshotFormat};
use std::time::Instant;

const NODES: usize = 2048;
const DEGREE: usize = 4;
/// ⌈log₂ n⌉ paths per pair, the sparsity of Theorem 2.3.
const SPARSITY: usize = 11;
const BATCH: usize = 256;
const CACHE_CAPACITY: usize = 16;
/// Epochs at the least: 30 blocks, and 15 epochs beyond the p99.
const MIN_EPOCHS: usize = 1500;
/// serve-churn takes one edge down every `FAIL_EVERY` epochs and brings it
/// back `RESTORE_AFTER` epochs later.
const FAIL_EVERY: u64 = 50;
const RESTORE_AFTER: u64 = 10;
/// Epochs per block: one failure cycle of serve-churn.
const BLOCK: usize = 50;

type Pattern = Vec<(NodeId, NodeId)>;

fn config(seed: u64) -> EngineConfig {
    // `integral`, `compare_fresh` and the compact snapshot format keep
    // their defaults (off, off, explicit): see the crate doc.
    EngineConfig {
        sparsity: SPARSITY,
        trees: 8,
        eps: 0.2,
        epoch_batch: BATCH,
        queue_bound: 1024,
        cache_capacity: CACHE_CAPACITY,
        seed,
        ..EngineConfig::default()
    }
}

/// What the timed epochs produced.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    /// Requests admitted, per epoch.
    admitted: Vec<f64>,
    offered: u64,
    /// Requests refused by backpressure, dropped as unserved, or published
    /// in an epoch that failed the output check.
    failed: u64,
    bad_epochs: u64,
    /// Published congestion, per epoch.
    congestion: Vec<f64>,
    /// Published congestion ÷ its LP lower bound, per epoch.
    gap: Vec<f64>,
}

struct Client {
    engine: Engine,
    patterns: Vec<Pattern>,
    traffic: StdRng,
    failures: Option<StdRng>,
}

impl Client {
    /// Run one epoch on pattern `idx`, timing ingest → snapshot, then check
    /// the snapshot outside the timed region.
    fn epoch(&mut self, idx: usize, tally: &mut Tally) {
        let engine = &mut self.engine;
        if let Some(rng) = &mut self.failures {
            match engine.epochs_run() % FAIL_EVERY {
                0 => {
                    let edge = pick_failure(engine.graph(), rng);
                    let _span = sor_obs::span("bench/fail_edges");
                    engine.fail_edges(&[edge]);
                }
                RESTORE_AFTER => {
                    let _span = sor_obs::span("bench/fail_edges");
                    engine.restore_all();
                }
                _ => {}
            }
        }
        let pattern = &self.patterns[idx];
        let start = Instant::now();
        let mut rejected = 0;
        let snap = {
            let _span = sor_obs::span("bench/epoch");
            for &(s, t) in pattern {
                if !engine.ingest(Request::unit(s, t)) {
                    rejected += 1;
                }
            }
            engine.run_epoch()
        };
        tally.walls.push(start.elapsed().as_secs_f64());
        tally.offered += pattern.len() as u64;
        tally.admitted.push(snap.admitted as f64);
        tally.failed += rejected + snap.unserved_pairs as u64;
        tally.congestion.push(snap.congestion);
        tally.gap.push(snap.congestion / snap.lower_bound);
        if let Err(e) = check_snapshot(engine.graph(), pattern, engine.failed_edges(), &snap) {
            if tally.bad_epochs == 0 {
                eprintln!("sorbench: epoch {} failed its check: {e}", snap.epoch);
            }
            tally.bad_epochs += 1;
            tally.failed += snap.admitted as u64;
        }
    }

    /// Closed loop for `seconds`, and for at least `min_epochs` epochs.
    fn run(&mut self, seconds: f64, min_epochs: usize) -> Tally {
        let mut tally = Tally::default();
        let start = Instant::now();
        while tally.walls.len() < min_epochs || start.elapsed().as_secs_f64() < seconds {
            let idx = self.traffic.gen_range(0..self.patterns.len());
            self.epoch(idx, &mut tally);
        }
        tally
    }
}

/// A uniformly random edge whose loss keeps the graph connected, so no
/// request becomes unservable.
fn pick_failure(g: &Graph, rng: &mut StdRng) -> EdgeId {
    loop {
        let e = EdgeId::from_usize(rng.gen_range(0..g.num_edges()));
        if connected_without(g, &[e]) {
            return e;
        }
    }
}

/// Whether the patterns' systems fit the engine's cache together. The cache
/// is sharded, so a pool smaller than its capacity can still evict.
fn fits_cache(g: &Graph, pool: &[Pattern]) -> bool {
    let probe = PathSystemCache::new(CACHE_CAPACITY);
    for pairs in pool {
        probe.get_or_insert_with(
            CacheKey::new(g, pairs, SPARSITY),
            SnapshotFormat::Explicit,
            PathSystem::new,
        );
    }
    probe.stats().evictions == 0
}

/// `count` random perfect matchings of `BATCH` pairs; with `fit_cache`, a
/// pattern that would push another out of the cache is drawn again.
fn pattern_pool(g: &Graph, count: usize, fit_cache: bool, rng: &mut StdRng) -> Vec<Pattern> {
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        pool.push(demand_pairs(&random_matching(g, BATCH, rng)));
        if fit_cache && !fits_cache(g, &pool) {
            pool.pop();
        }
    }
    pool
}

/// Mean over the first `MIN_EPOCHS` epochs, which every run reaches, so a
/// seed always averages the same epochs however fast the machine is.
fn quality(per_epoch: &[f64]) -> f64 {
    let first = &per_epoch[..MIN_EPOCHS];
    first.iter().sum::<f64>() / first.len() as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let churn = args.workload == Workload::ServeChurn;
    let g = gen::random_regular(NODES, DEGREE, &mut rng(args.seed, Stream::Graph));
    let patterns = pattern_pool(
        &g,
        if churn { 64 } else { 8 },
        !churn,
        &mut rng(args.seed, Stream::Patterns),
    );
    let cfg = config(stream_seed(args.seed, Stream::Engine));
    let Setup {
        built: engine,
        median_s: setup_s,
        reps,
        capture,
    } = timed_setup(args, || Engine::new(g.clone(), cfg));

    let mut client = Client {
        engine,
        patterns,
        traffic: rng(args.seed, Stream::Traffic),
        failures: churn.then(|| rng(args.seed, Stream::Failures)),
    };
    // Warm-up, untimed: serve-warm fills the cache with every pattern,
    // serve-churn reaches its steady eviction rate.
    let mut warmup = Tally::default();
    if churn {
        for _ in 0..16 {
            let idx = client.traffic.gen_range(0..client.patterns.len());
            client.epoch(idx, &mut warmup);
        }
    } else {
        for idx in 0..client.patterns.len() {
            client.epoch(idx, &mut warmup);
        }
    }

    if args.trace {
        let dijkstra_us = trace::dijkstra_us(&[&g]);
        return trace::run(args, &capture, reps, dijkstra_us, |seconds| {
            let t = client.run(seconds, 100);
            Half {
                op_walls: t.walls,
                attempted: t.offered,
                failed: t.failed,
                bad: t.bad_epochs,
            }
        });
    }

    let t = client.run(args.seconds as f64, MIN_EPOCHS);
    let epochs = t.walls.len();
    let p99 = match tail(&t.walls, 99) {
        Some((p99, beyond)) => format!("p99 {:.3} ms ({beyond} beyond)", p99 * 1e3),
        None => "too few epochs for a p99".to_string(),
    };
    let stats = client.engine.cache_stats();
    println!(
        "# {epochs} timed epochs: p50 {:.3} ms, {p99}; {reps} set-up builds; \
         cache lifetime: {} hits, {} misses, {} evictions, {} invalidations",
        median(&t.walls).unwrap_or(f64::NAN) * 1e3,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.invalidations
    );
    let blocks: Vec<(&[f64], &[f64])> = t
        .walls
        .chunks_exact(BLOCK)
        .zip(t.admitted.chunks_exact(BLOCK))
        .collect();
    let rates: Vec<f64> = blocks
        .iter()
        .map(|(walls, admitted)| admitted.iter().sum::<f64>() / walls.iter().sum::<f64>())
        .collect();
    let p50s: Vec<f64> = blocks
        .iter()
        .map(|(walls, _)| median(walls).unwrap_or(f64::NAN))
        .collect();
    let e2e = EndToEnd {
        setup_s,
        pairs_per_s: percentile(&rates, 75).unwrap_or(f64::NAN),
        latency_ms: percentile(&p50s, 25).unwrap_or(f64::NAN) * 1e3,
        mean_congestion: quality(&t.congestion),
        solver_gap: quality(&t.gap),
    };
    Ok(Report {
        attempted: t.offered,
        failed: t.failed,
        correct: t.bad_epochs == 0,
        metrics: e2e.metrics()?,
    })
}
