//! Sharded, capacity-bounded cache of sampled path systems.
//!
//! The semi-oblivious model's whole point is that the expensive phase —
//! building an oblivious routing and sampling a sparse path system from
//! it — happens *once*, while rate re-optimization happens per demand.
//! The online engine amortizes the expensive phase across epochs by
//! keeping sampled systems here, keyed by what they were sampled *for*:
//! the graph (fingerprint), the ordered pair set (fingerprint), and the
//! per-pair sparsity `s`.
//!
//! Entries are `Arc<PathSystem>`: LRU eviction and failure invalidation
//! remove an entry from the cache's index, but a solver holding the Arc
//! keeps routing on it safely — an in-flight system is never dropped out
//! from under its user.
//!
//! Shards are `parking_lot::Mutex`es over `BTreeMap`s (deterministic
//! iteration, so eviction order is reproducible). The build closure of
//! [`PathSystemCache::get_or_insert_with`] runs *while the shard lock is
//! held*: concurrent requests for the same key produce exactly one miss
//! and N−1 hits, which keeps the hit/miss counters exact — a property
//! the concurrency tests pin down.

use crate::engine::SnapshotFormat;
use sor_core::PathSystem;
use sor_graph::{EdgeId, Graph, NodeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn fnv1a_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// Deterministic fingerprint of a graph's structure: vertex/edge counts
/// plus every edge's endpoints and capacity bits. Two graphs with the same
/// fingerprint are (with overwhelming probability) the same routing
/// instance, so their sampled path systems are interchangeable.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, g.num_nodes() as u64);
    h = fnv1a_u64(h, g.num_edges() as u64);
    for e in g.edges() {
        h = fnv1a_u64(h, u64::from(e.u.0));
        h = fnv1a_u64(h, u64::from(e.v.0));
        h = fnv1a_u64(h, e.cap.to_bits());
    }
    h
}

/// Deterministic fingerprint of an ordered pair set (order-sensitive:
/// demand entries are kept sorted upstream, so equal pair sets hash
/// equal).
pub fn pairs_fingerprint(pairs: &[(NodeId, NodeId)]) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, pairs.len() as u64);
    for &(s, t) in pairs {
        h = fnv1a_u64(h, u64::from(s.0));
        h = fnv1a_u64(h, u64::from(t.0));
    }
    h
}

/// Cache key: which instance a path system was sampled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`graph_fingerprint`] of the routing instance's graph.
    pub graph_fp: u64,
    /// [`pairs_fingerprint`] of the ordered pair set the sample covers.
    pub pairs_fp: u64,
    /// Per-pair sample count `s` the system was drawn with.
    pub sparsity: usize,
}

impl CacheKey {
    /// Key for a (graph, pair set, sparsity) instance.
    pub fn new(g: &Graph, pairs: &[(NodeId, NodeId)], sparsity: usize) -> Self {
        CacheKey {
            graph_fp: graph_fingerprint(g),
            pairs_fp: pairs_fingerprint(pairs),
            sparsity,
        }
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut h = fnv1a_u64(FNV_OFFSET, self.graph_fp);
        h = fnv1a_u64(h, self.pairs_fp);
        h = fnv1a_u64(h, self.sparsity as u64);
        #[allow(clippy::cast_possible_truncation)]
        {
            (h % shards.max(1) as u64) as usize
        }
    }
}

struct Entry {
    system: Arc<PathSystem>,
    last_used: u64,
}

type Shard = parking_lot::Mutex<BTreeMap<CacheKey, Entry>>;

/// Point-in-time counter snapshot of a [`PathSystemCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the build closure.
    pub misses: u64,
    /// Entries removed by LRU capacity pressure.
    pub evictions: u64,
    /// Entries removed because a failed edge appeared in their paths.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Per-epoch movement of the cache counters: the difference between two
/// [`CacheStats`] snapshots. The engine stamps one of these into every
/// [`EpochSnapshot`](crate::EpochSnapshot) so the timeline and the
/// cumulative `--metrics-out` counters describe the same events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDeltas {
    /// Hits since the previous epoch's snapshot.
    pub hits: u64,
    /// Misses since the previous epoch's snapshot.
    pub misses: u64,
    /// LRU evictions since the previous epoch's snapshot.
    pub evictions: u64,
    /// Failure invalidations since the previous epoch's snapshot
    /// (includes `fail_edges` calls between the two epochs).
    pub invalidations: u64,
}

impl CacheStats {
    /// Counter movement from `prev` to `self` (saturating: a counter
    /// reset between snapshots reads as zero movement, not a wrap).
    pub fn delta_since(&self, prev: &CacheStats) -> CacheDeltas {
        CacheDeltas {
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            evictions: self.evictions.saturating_sub(prev.evictions),
            invalidations: self.invalidations.saturating_sub(prev.invalidations),
        }
    }
}

/// Sharded LRU cache of sampled path systems (see module docs).
pub struct PathSystemCache {
    shards: Vec<Shard>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PathSystemCache {
    /// Default shard count. Small: keys are few (pattern pool sized), and
    /// the win is lock splitting, not hash-table scale.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Cache holding at most `capacity` entries total, spread over
    /// [`PathSystemCache::DEFAULT_SHARDS`] shards (per-shard capacity is
    /// the ceiling split, so tiny capacities still admit one entry per
    /// shard).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(
            capacity.div_ceil(Self::DEFAULT_SHARDS),
            Self::DEFAULT_SHARDS,
        )
    }

    /// Cache with an explicit shard layout: `shards` shards of
    /// `per_shard_capacity` entries each. Tests use a single shard to make
    /// eviction order fully scripted.
    pub fn with_shards(per_shard_capacity: usize, shards: usize) -> Self {
        assert!(per_shard_capacity >= 1, "cache needs capacity >= 1");
        assert!(shards >= 1, "cache needs at least one shard");
        PathSystemCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up `key`, building and inserting the system on a miss.
    /// Returns the shared system and whether this was a hit. The build
    /// closure runs under the shard lock, so concurrent lookups of one
    /// key cost exactly one build; if the insert pushes the shard over
    /// capacity, the least-recently-used entry is evicted (outstanding
    /// `Arc`s to it stay valid).
    /// The [`SnapshotFormat`] argument is accepted and ignored: there is
    /// one format.
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        _format: SnapshotFormat,
        build: impl FnOnce() -> PathSystem,
    ) -> (Arc<PathSystem>, bool) {
        // sor-check: allow(panic-path) — shard_of is modulo len, always in bounds
        let shard = &self.shards[key.shard_of(self.shards.len())];
        let mut map = shard.lock();
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = map.get_mut(&key) {
            entry.last_used = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            sor_obs::counter_add!("serve/cache_hits");
            return (Arc::clone(&entry.system), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        sor_obs::counter_add!("serve/cache_misses");
        let system = Arc::new(build());
        map.insert(
            key,
            Entry {
                system: Arc::clone(&system),
                last_used: now,
            },
        );
        if map.len() > self.per_shard_capacity {
            // Deterministic LRU: ticks are unique, so the minimum is
            // unambiguous; BTreeMap iteration breaks (impossible) ties
            // by key order.
            if let Some(&victim) = map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| k)
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                sor_obs::counter_add!("serve/cache_evictions");
            }
        }
        (system, false)
    }

    /// Peek without affecting LRU order or counters (tests, diagnostics).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<PathSystem>> {
        // sor-check: allow(panic-path) — shard_of is modulo len, always in bounds
        let shard = &self.shards[key.shard_of(self.shards.len())];
        shard.lock().get(key).map(|e| Arc::clone(&e.system))
    }

    /// Drop every entry whose system routes over any of `failed` —
    /// the edge-down coherence step. Untouched entries (systems disjoint
    /// from the failure) survive, which is the point: a failure on one
    /// side of the network must not cold-start the whole cache. Returns
    /// the number of invalidated entries.
    pub fn invalidate_edges(&self, failed: &[EdgeId]) -> usize {
        if failed.is_empty() {
            return 0;
        }
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut map = shard.lock();
            map.retain(|_, entry| {
                let uses = entry
                    .system
                    .pairs()
                    .any(|(_, _, paths)| paths.all_edges().iter().any(|e| failed.contains(e)));
                if uses {
                    removed += 1;
                }
                !uses
            });
        }
        self.invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        sor_obs::count_usize("serve/cache_invalidations", removed);
        removed
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{bfs_path, gen};

    fn system_for(g: &Graph, s: u32, t: u32) -> PathSystem {
        let mut sys = PathSystem::new();
        let p = bfs_path(g, NodeId(s), NodeId(t)).expect("connected");
        sys.insert(NodeId(s), NodeId(t), p);
        sys
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let g = gen::cycle_graph(6);
        let cache = PathSystemCache::new(4);
        let key = CacheKey::new(&g, &[(NodeId(0), NodeId(3))], 2);
        let (a, hit) =
            cache.get_or_insert_with(key, SnapshotFormat::Explicit, || system_for(&g, 0, 3));
        assert!(!hit);
        let (b, hit) =
            cache.get_or_insert_with(key, SnapshotFormat::Explicit, || panic!("must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_but_arc_survives() {
        let g = gen::cycle_graph(8);
        // one shard, capacity 2 → fully scripted eviction order
        let cache = PathSystemCache::with_shards(2, 1);
        let k = |t: u32| CacheKey::new(&g, &[(NodeId(0), NodeId(t))], 1);
        let (first, _) =
            cache.get_or_insert_with(k(2), SnapshotFormat::Explicit, || system_for(&g, 0, 2));
        cache.get_or_insert_with(k(3), SnapshotFormat::Explicit, || system_for(&g, 0, 3));
        // touch k(2) so k(3) is the LRU victim
        cache.get_or_insert_with(k(2), SnapshotFormat::Explicit, || panic!("hit expected"));
        cache.get_or_insert_with(k(4), SnapshotFormat::Explicit, || system_for(&g, 0, 4));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&k(3)).is_none(), "LRU entry evicted");
        assert!(cache.peek(&k(2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // the in-flight Arc from before the evictions still reads fine
        assert!(first.covers(NodeId(0), NodeId(2)));
    }

    #[test]
    fn invalidation_is_selective() {
        let g = gen::cycle_graph(6);
        let cache = PathSystemCache::new(8);
        let k1 = CacheKey::new(&g, &[(NodeId(0), NodeId(1))], 1);
        let k2 = CacheKey::new(&g, &[(NodeId(3), NodeId(4))], 1);
        cache.get_or_insert_with(k1, SnapshotFormat::Explicit, || system_for(&g, 0, 1));
        cache.get_or_insert_with(k2, SnapshotFormat::Explicit, || system_for(&g, 3, 4));
        // edge 0 is {0,1}: only k1's single-hop path crosses it
        let removed = cache.invalidate_edges(&[EdgeId(0)]);
        assert_eq!(removed, 1);
        assert!(cache.peek(&k1).is_none());
        assert!(cache.peek(&k2).is_some());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.invalidate_edges(&[]), 0);
    }

    #[test]
    fn stats_deltas_track_movement() {
        let g = gen::cycle_graph(6);
        let cache = PathSystemCache::new(4);
        let before = cache.stats();
        let key = CacheKey::new(&g, &[(NodeId(0), NodeId(3))], 2);
        cache.get_or_insert_with(key, SnapshotFormat::Explicit, || system_for(&g, 0, 3));
        cache.get_or_insert_with(key, SnapshotFormat::Explicit, || panic!("hit expected"));
        let mid = cache.stats();
        let d = mid.delta_since(&before);
        assert_eq!(
            (d.hits, d.misses, d.evictions, d.invalidations),
            (1, 1, 0, 0)
        );
        // no movement ⇒ all-zero deltas; reversed order saturates to zero
        assert_eq!(mid.delta_since(&mid), CacheDeltas::default());
        assert_eq!(before.delta_since(&mid), CacheDeltas::default());
    }

    #[test]
    fn fingerprints_separate_instances() {
        let g1 = gen::cycle_graph(6);
        let g2 = gen::cycle_graph(7);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_eq!(
            graph_fingerprint(&g1),
            graph_fingerprint(&gen::cycle_graph(6))
        );
        let p1 = [(NodeId(0), NodeId(3))];
        let p2 = [(NodeId(0), NodeId(4))];
        assert_ne!(pairs_fingerprint(&p1), pairs_fingerprint(&p2));
        assert_ne!(
            CacheKey::new(&g1, &p1, 2),
            CacheKey::new(&g1, &p1, 3),
            "sparsity is part of the key"
        );
    }
}
