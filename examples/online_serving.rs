//! Online serving: the semi-oblivious model as a long-running engine.
//!
//! Batch experiments pay the expensive phase — building an oblivious
//! routing and sampling a sparse path system — on every run. The online
//! engine pays it once: requests stream in, epochs batch them up, and
//! each epoch re-optimizes sending rates restricted to a *cached* path
//! system. This example walks the whole lifecycle by hand:
//!
//! 1. warm-up epochs over a recurring pattern pool (watch misses turn
//!    into hits),
//! 2. an edge failure (watch the cache invalidate only affected entries
//!    and the epoch fall back onto surviving paths),
//! 3. recovery, plus the resample-per-epoch comparison the cache
//!    amortizes away.
//!
//! Run: `cargo run --release --example online_serving`

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::graph::gen;
use semi_oblivious_routing::graph::NodeId;
use semi_oblivious_routing::serve::{
    matching_patterns, run_workload, Engine, EngineConfig, Request, WorkloadConfig,
};

fn main() {
    let g = gen::random_regular(24, 4, &mut StdRng::seed_from_u64(1));
    println!(
        "graph: 4-regular expander, n = {}, m = {}",
        g.num_nodes(),
        g.num_edges()
    );

    // --- Driving the engine by hand: ingest → epoch → snapshot. -------
    let cfg = EngineConfig {
        sparsity: 3,
        trees: 6,
        compare_fresh: true,
        seed: 7,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(g.clone(), cfg);
    for round in 0..2 {
        for i in 0..6u32 {
            engine.ingest(Request::unit(NodeId(i), NodeId(23 - i)));
        }
        let snap = engine.run_epoch();
        println!(
            "round {round}: {} on {} pairs, congestion {:.3} (fresh resample: {:.3})",
            if snap.cache_hit {
                "cache hit "
            } else {
                "cache miss"
            },
            snap.routes.len(),
            snap.congestion,
            snap.fresh_congestion.unwrap_or(f64::NAN),
        );
    }
    let st = engine.cache_stats();
    println!(
        "cache after warm-up: hits={} misses={} entries={}\n",
        st.hits, st.misses, st.entries
    );

    // --- The closed loop: arrival process + failure schedule. ---------
    let wcfg = WorkloadConfig {
        epochs: 10,
        rate: 8,
        patterns: 2,
        pairs_per_pattern: 5,
        fail_at: Some(4),
        restore_after: 3,
        seed: 7,
    };
    let mut rng = StdRng::seed_from_u64(wcfg.seed);
    let patterns = matching_patterns(&g, wcfg.patterns, wcfg.pairs_per_pattern, &mut rng);
    let report = run_workload(
        &g,
        EngineConfig {
            compare_fresh: true,
            seed: 7,
            ..EngineConfig::default()
        },
        &wcfg,
        &patterns,
        None,
    );
    for s in &report.snapshots {
        println!(
            "epoch {:>2}: {} cong={:.3} fresh={:.3} fallback={}",
            s.epoch,
            if s.cache_hit { "hit " } else { "miss" },
            s.congestion,
            s.fresh_congestion.unwrap_or(f64::NAN),
            s.fallback_pairs,
        );
    }
    for &(epoch, e) in &report.failures {
        println!("failure injected at epoch {epoch}: edge {}", e.0);
    }
    let c = report.cache;
    println!(
        "cache: hits={} misses={} evictions={} invalidations={}",
        c.hits, c.misses, c.evictions, c.invalidations
    );
    if let Some(r) = report.mean_fresh_ratio() {
        println!("mean cached/fresh congestion ratio: {r:.3} (≈1 ⇒ caching costs nothing)");
    }
}
