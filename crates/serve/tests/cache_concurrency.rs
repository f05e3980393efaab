//! Concurrency hammer for the sharded path-system cache.
//!
//! The cache's contract: `get_or_insert_with` takes one shard lock, so
//! concurrent lookups of one key cost exactly one build and the
//! hit/miss counters sum exactly; eviction removes an entry from the
//! map but never invalidates an `Arc` a caller already holds.
//!
//! Threads come from `std::thread::scope` (mirroring
//! `crates/obs/tests/concurrency.rs`). The cache itself is per-instance
//! state — no process-global registry — so the tests here need no
//! serialization lock; `sor-obs` capture stays disabled (its default)
//! so the obs-side counters are out of the picture.

use sor_core::PathSystem;
use sor_graph::{bfs_path, gen, EdgeId, NodeId};
use sor_serve::{CacheKey, PathSystemCache, SnapshotFormat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const ITERS: usize = 500;

/// A distinct single-pair key: fingerprints are opaque u64s, so tests
/// may fabricate them directly.
fn key(i: u64) -> CacheKey {
    CacheKey {
        graph_fp: i,
        pairs_fp: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        sparsity: 1,
    }
}

fn tiny_system(tag: u64) -> PathSystem {
    let g = gen::cycle_graph(6);
    let mut sys = PathSystem::new();
    let s = NodeId::from_usize(usize::try_from(tag).unwrap_or(0) % 6);
    let t = NodeId::from_usize((usize::try_from(tag).unwrap_or(0) + 3) % 6);
    sys.insert(s, t, bfs_path(&g, s, t).expect("cycle is connected"));
    sys
}

#[test]
fn hammering_one_key_builds_once_and_counts_exactly() {
    let cache = PathSystemCache::with_shards(4, 4);
    let builds = AtomicU64::new(0);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..ITERS {
                    let (sys, _) =
                        cache.get_or_insert_with(key(1), SnapshotFormat::Explicit, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            tiny_system(1)
                        });
                    assert_eq!(sys.num_pairs(), 1);
                }
            });
        }
    });
    // One thread lost the race and built; every other access hit.
    assert_eq!(builds.load(Ordering::Relaxed), 1);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, (THREADS * ITERS) as u64 - 1);
    assert_eq!(stats.evictions, 0);
    assert_eq!(cache.len(), 1);
}

#[test]
fn disjoint_keys_from_many_threads_sum_exactly() {
    // Each thread works its own key range; totals decompose per thread.
    let cache = PathSystemCache::with_shards(ITERS, 8);
    thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            s.spawn(move || {
                let base = (t * ITERS) as u64;
                for i in 0..ITERS as u64 {
                    // miss, then hit, the same key
                    let (_, hit) =
                        cache.get_or_insert_with(key(base + i), SnapshotFormat::Explicit, || {
                            tiny_system(i)
                        });
                    assert!(!hit);
                    let (_, hit) =
                        cache.get_or_insert_with(key(base + i), SnapshotFormat::Explicit, || {
                            tiny_system(i)
                        });
                    assert!(hit);
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.misses, (THREADS * ITERS) as u64);
    assert_eq!(stats.hits, (THREADS * ITERS) as u64);
    // capacity was ITERS per shard × 8 shards ≥ THREADS*ITERS inserts,
    // but keys spread unevenly; evictions may occur — entries+evictions
    // must still account for every insert.
    assert_eq!(
        stats.evictions + stats.entries as u64,
        (THREADS * ITERS) as u64
    );
}

#[test]
fn eviction_never_drops_an_in_flight_arc() {
    // Capacity one entry per shard: nearly every insert evicts. Threads
    // hold the returned Arc and keep using it after it has certainly
    // been evicted — the data must stay alive and intact.
    let cache = PathSystemCache::with_shards(1, 1);
    thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            s.spawn(move || {
                let mut held: Vec<Arc<PathSystem>> = Vec::new();
                for i in 0..ITERS as u64 {
                    let tag = (t as u64) << 32 | i;
                    let (sys, _) =
                        cache.get_or_insert_with(key(tag), SnapshotFormat::Explicit, || {
                            tiny_system(i)
                        });
                    held.push(sys);
                    // Everything held so far is still a valid system.
                    for h in &held {
                        assert_eq!(h.num_pairs(), 1);
                        assert_eq!(h.sparsity(), 1);
                    }
                    if held.len() > 8 {
                        held.clear();
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    // Single shard of capacity 1: at most one resident entry...
    assert!(cache.len() <= 1);
    // ...and every insert beyond the survivor was evicted.
    assert_eq!(stats.evictions, stats.misses - cache.len() as u64);
}

#[test]
fn concurrent_invalidation_and_lookup_stay_coherent() {
    // Writers keep inserting systems that cross edge 0 of the cycle;
    // an invalidator keeps knocking them out. Every removal must be
    // counted, and at the end one sweep leaves the cache empty of any
    // entry crossing the failed edge.
    let cache = PathSystemCache::with_shards(64, 8);
    let g = gen::cycle_graph(4);
    thread::scope(|s| {
        for t in 0..4usize {
            let cache = &cache;
            let g = &g;
            s.spawn(move || {
                for i in 0..ITERS as u64 {
                    let tag = ((t as u64) << 32) | i;
                    cache.get_or_insert_with(key(tag), SnapshotFormat::Explicit, || {
                        let mut sys = PathSystem::new();
                        // the direct edge (0,1) is edge 0 in the cycle
                        sys.insert(
                            NodeId(0),
                            NodeId(1),
                            bfs_path(g, NodeId(0), NodeId(1)).expect("connected"),
                        );
                        sys
                    });
                }
            });
        }
        let cache = &cache;
        s.spawn(move || {
            for _ in 0..50 {
                cache.invalidate_edges(&[EdgeId(0)]);
                thread::yield_now();
            }
        });
    });
    let before = cache.len();
    let removed = cache.invalidate_edges(&[EdgeId(0)]);
    assert_eq!(removed, before, "every resident entry crossed edge 0");
    assert!(cache.is_empty());
    let stats = cache.stats();
    assert_eq!(stats.misses, 4 * ITERS as u64);
    assert_eq!(
        stats.invalidations,
        stats.misses - stats.evictions,
        "inserts = invalidated + evicted + resident(0)"
    );
}
