//! The online engine: epoch lifecycle over cached path systems.
//!
//! Lifecycle per epoch: **ingest** (requests queue up, backpressure
//! rejects past a bound) → **admit** (pop up to a batch into the epoch's
//! demand) → **solve** (re-optimize sending rates restricted to a cached
//! sparse path system, sampling one only on a cache miss) → **publish**
//! (an [`EpochSnapshot`] with per-pair rate-weighted routes).
//!
//! The expensive phase — building the Räcke routing and sampling path
//! systems — happens once at startup and on cache misses; every warm
//! epoch is just an MWU rate re-optimization ([`SemiObliviousRouting::
//! route_fractional`]), which is the semi-oblivious model's operational
//! promise. Edge failures invalidate only affected cache entries and the
//! epoch routes on [`PathSystem::degraded`], the routine `sor-te`'s
//! failure replay uses too: pairs that lost every candidate fall back to
//! a surviving shortest path.
//!
//! Everything is deterministic for a fixed seed: the cache is keyed and
//! evicted deterministically, the engine RNG is a seeded `StdRng`, and
//! the fresh-sample comparison derives its RNG from (seed, epoch).

use crate::cache::{
    graph_fingerprint, pairs_fingerprint, CacheDeltas, CacheKey, CacheStats, PathSystemCache,
};
use crate::observer::{EpochMeasures, Observer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::{PathSystem, SemiObliviousRouting};
use sor_flow::Demand;
use sor_graph::{EdgeId, Graph, NodeId};
use sor_oblivious::RaeckeRouting;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One routing request: `amount` units of flow from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Source vertex.
    pub src: NodeId,
    /// Destination vertex.
    pub dst: NodeId,
    /// Flow units requested (finite, positive).
    pub amount: f64,
}

impl Request {
    /// A unit request.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Request {
            src,
            dst,
            amount: 1.0,
        }
    }
}

/// How an epoch's path system is materialized for publication: explicit
/// per-pair edge lists, the one format the engine publishes. The enum and
/// [`PathSystemCache::get_or_insert_with`]'s argument that takes it stay
/// only because the end-to-end benchmark (`sorbench`) names both; a change
/// that may touch the benchmark deletes them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Explicit per-pair edge lists.
    #[default]
    Explicit,
}

/// Engine tuning knobs. Every field participates in the determinism
/// contract: same config + same ingest sequence ⇒ bit-identical
/// snapshots.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Paths sampled per pair (the `s` of an `s`-sparse system).
    pub sparsity: usize,
    /// FRT trees in the Räcke mixture built at startup.
    pub trees: usize,
    /// MWU solver accuracy.
    pub eps: f64,
    /// Max requests admitted into one epoch.
    pub epoch_batch: usize,
    /// Queue depth beyond which `ingest` rejects (backpressure).
    pub queue_bound: usize,
    /// Total path systems the cache may hold.
    pub cache_capacity: usize,
    /// Solve each epoch integrally (randomized rounding + local search)
    /// when the admitted demand is integral; otherwise fractionally.
    pub integral: bool,
    /// Also run the resample-per-epoch baseline (fresh Räcke build +
    /// sample + solve) and record its congestion — the cost the cache
    /// amortizes away.
    pub compare_fresh: bool,
    /// Seed for the engine RNG and all derived per-epoch RNGs.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sparsity: 3,
            trees: 6,
            eps: 0.2,
            epoch_batch: 64,
            queue_bound: 256,
            cache_capacity: 32,
            integral: false,
            compare_fresh: false,
            seed: 0,
        }
    }
}

/// A published per-pair route assignment: candidate paths (as edge-id
/// sequences) with the rates the epoch's re-optimization put on them.
/// Zero-rate candidates are omitted.
#[derive(Clone, Debug, PartialEq)]
pub struct PublishedRoute {
    /// Source vertex.
    pub s: NodeId,
    /// Destination vertex.
    pub t: NodeId,
    /// The pair's admitted demand.
    pub demand: f64,
    /// `(path edges, rate)` with rate > 0; rates sum to `demand`.
    pub paths: Vec<(Vec<EdgeId>, f64)>,
}

/// What one epoch published. `PartialEq` + float fields make bit-level
/// determinism checks (`same seed ⇒ identical snapshots`) a plain
/// `assert_eq!`.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Requests admitted into this epoch.
    pub admitted: usize,
    /// Whether the path system came from the cache.
    pub cache_hit: bool,
    /// Congestion of the published routing.
    pub congestion: f64,
    /// Solver's LP lower bound (0 when the epoch was empty or integral).
    pub lower_bound: f64,
    /// Pairs that lost every sampled candidate to failures and were
    /// routed on an emergency shortest path.
    pub fallback_pairs: usize,
    /// Pairs disconnected outright by the failures (dropped from the
    /// epoch's demand).
    pub unserved_pairs: usize,
    /// Queue depth after admission (what backpressure acts on).
    pub queue_depth: usize,
    /// Sparsity of the system the epoch solved on.
    pub sparsity: usize,
    /// Congestion of the resample-per-epoch baseline, when
    /// [`EngineConfig::compare_fresh`] is set.
    pub fresh_congestion: Option<f64>,
    /// Cache counter movement attributable to this epoch (including any
    /// `fail_edges` invalidations since the previous epoch) — per-epoch
    /// deltas, where [`Engine::cache_stats`] gives lifetime totals.
    pub cache: CacheDeltas,
    /// The rate assignment, one entry per served pair.
    pub routes: Vec<PublishedRoute>,
}

impl EpochSnapshot {
    fn empty(epoch: u64, queue_depth: usize) -> Self {
        EpochSnapshot {
            epoch,
            admitted: 0,
            cache_hit: false,
            congestion: 0.0,
            lower_bound: 0.0,
            fallback_pairs: 0,
            unserved_pairs: 0,
            queue_depth,
            sparsity: 0,
            fresh_congestion: None,
            cache: CacheDeltas::default(),
            routes: Vec::new(),
        }
    }
}

/// The long-running engine (see module docs for the lifecycle).
pub struct Engine {
    /// Shared with every epoch's [`SemiObliviousRouting`]. It never
    /// changes: failures live in `failed`.
    g: Arc<Graph>,
    /// [`graph_fingerprint`] of `g`, for every epoch's cache key.
    graph_fp: u64,
    cfg: EngineConfig,
    routing: RaeckeRouting,
    cache: PathSystemCache,
    queue: VecDeque<Request>,
    failed: Vec<EdgeId>,
    rng: StdRng,
    epoch: u64,
    rejected: u64,
    last: Option<SemiObliviousRouting>,
    last_stats: CacheStats,
    observer: Option<Arc<Observer>>,
    /// Enqueue instants mirroring `queue`, kept only while an observer
    /// is attached (queue-wait percentiles).
    queue_times: VecDeque<Instant>,
}

impl Engine {
    /// Build the engine: one Räcke routing construction (the expensive
    /// oblivious phase), an empty cache, an empty queue.
    pub fn new(g: Graph, cfg: EngineConfig) -> Self {
        let _span = sor_obs::span("serve/build");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let routing = RaeckeRouting::build(g.clone(), cfg.trees, &mut rng);
        Engine {
            graph_fp: graph_fingerprint(&g),
            cache: PathSystemCache::new(cfg.cache_capacity),
            queue: VecDeque::new(),
            failed: Vec::new(),
            rng,
            epoch: 0,
            rejected: 0,
            last: None,
            last_stats: CacheStats::default(),
            observer: None,
            queue_times: VecDeque::new(),
            g: Arc::new(g),
            cfg,
            routing,
        }
    }

    /// Attach an observer: every subsequent failure, restore and epoch
    /// makes one observer call, which journals it (each epoch closing
    /// into its timeline row, wall histograms and SLO watchdog).
    /// Observation is strictly read-only over the epoch's outputs —
    /// published snapshots stay bit-identical with or without it (the
    /// determinism test pins this), and an engine without one takes no
    /// clock reading and makes no call.
    pub fn attach_observer(&mut self, observer: Arc<Observer>) {
        self.observer = Some(observer);
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.observer.as_ref()
    }

    /// Offer a request. Returns `false` (and counts a rejection) when the
    /// queue is at the backpressure bound. Panics on malformed requests
    /// (self-loop, non-positive amount) — the same contract as `Demand`.
    pub fn ingest(&mut self, req: Request) -> bool {
        assert!(req.src != req.dst, "request between a vertex and itself");
        assert!(
            req.amount.is_finite() && req.amount > 0.0,
            "request amount must be finite and positive"
        );
        if self.queue.len() >= self.cfg.queue_bound {
            self.rejected += 1;
            sor_obs::counter_add!("serve/requests_rejected");
            return false;
        }
        if self.observer.is_some() {
            self.queue_times.push_back(Instant::now());
        }
        self.queue.push_back(req);
        true
    }

    /// Take edges down: extends the failure set and invalidates exactly
    /// the cache entries whose systems route over them. Returns how many
    /// entries were invalidated.
    pub fn fail_edges(&mut self, edges: &[EdgeId]) -> usize {
        for &e in edges {
            if !self.failed.contains(&e) {
                self.failed.push(e);
            }
        }
        sor_obs::count_usize("serve/edge_failures", edges.len());
        let invalidated = self.cache.invalidate_edges(edges);
        // Tagged with the *upcoming* epoch index: the failure takes
        // effect on that epoch, whose row carries the invalidations.
        if let Some(obs) = &self.observer {
            obs.edges_failed(self.epoch, edges);
        }
        invalidated
    }

    /// Bring every failed edge back up. Cached entries were sampled on
    /// the pristine graph and never contain emergency fallback paths, so
    /// no invalidation is needed.
    pub fn restore_all(&mut self) {
        let restored = self.failed.len();
        self.failed.clear();
        if let Some(obs) = self.observer.as_ref().filter(|_| restored > 0) {
            obs.edges_restored(self.epoch, restored);
        }
    }

    /// Run one epoch: admit a batch, solve it on a cached (or freshly
    /// sampled) path system, publish the snapshot.
    pub fn run_epoch(&mut self) -> EpochSnapshot {
        let epoch_start = self.observer.is_some().then(Instant::now);
        let mut m = EpochMeasures::default();
        let mut snap = {
            let _span = sor_obs::span("serve/epoch");
            self.run_epoch_inner(&mut m)
        };
        if self.cfg.compare_fresh && snap.admitted > 0 {
            // Sibling span, *outside* serve/epoch: the wall-time ratio of
            // the two spans is the cache's amortization factor.
            snap.fresh_congestion = Some(self.fresh_baseline(&snap));
        }
        // Per-epoch cache counter deltas are part of the published
        // snapshot regardless of observation: the movement is exactly as
        // deterministic as the lifetime counters it differences.
        let stats = self.cache.stats();
        snap.cache = stats.delta_since(&self.last_stats);
        self.last_stats = stats;
        if let (Some(obs), Some(t0)) = (&self.observer, epoch_start) {
            m.epoch_ns = elapsed_ns(t0);
            m.rejected_total = self.rejected;
            obs.close_epoch(&self.g, &snap, self.failed.len(), m);
        }
        snap
    }

    /// Admit, solve and publish one epoch, filling `m` with what the
    /// observer needs besides the snapshot (walls only while one is
    /// attached).
    fn run_epoch_inner(&mut self, m: &mut EpochMeasures) -> EpochSnapshot {
        let epoch = self.epoch;
        self.epoch += 1;
        sor_obs::counter_add!("serve/epochs");

        let take = self.cfg.epoch_batch.min(self.queue.len());
        let admitted: Vec<Request> = self.queue.drain(..take).collect();
        if self.observer.is_some() {
            // queue waits of the admitted batch (enqueue instants are
            // only mirrored while an observer is attached)
            m.queue_waits_ns = self
                .queue_times
                .drain(..take.min(self.queue_times.len()))
                .map(elapsed_ns)
                .collect();
        }
        sor_obs::count_usize("serve/requests_admitted", admitted.len());
        #[allow(clippy::cast_precision_loss)]
        let depth = self.queue.len() as f64;
        sor_obs::observe_into!("serve/queue_depth", depth);
        if admitted.is_empty() {
            return EpochSnapshot::empty(epoch, self.queue.len());
        }

        let demand = Demand::from_triples(admitted.iter().map(|r| (r.src, r.dst, r.amount)));
        let pairs = demand_pairs(&demand);
        let key = CacheKey {
            graph_fp: self.graph_fp,
            pairs_fp: pairs_fingerprint(&pairs),
            sparsity: self.cfg.sparsity,
        };
        m.demand_fp = Some(key.pairs_fp);
        let lookup_start = self.observer.as_ref().map(|_| Instant::now());
        let Engine {
            cache,
            routing,
            rng,
            cfg,
            ..
        } = self;
        let (sampled, cache_hit) = cache.get_or_insert_with(key, SnapshotFormat::Explicit, || {
            let _span = sor_obs::span("serve/sample");
            sample_k(routing, &pairs, cfg.sparsity, rng).system
        });
        if let Some(t0) = lookup_start {
            m.cache_lookup_ns = elapsed_ns(t0);
        }

        let (system, fallback_pairs, unserved) =
            resolve_failures(&self.g, &sampled, &self.failed, &pairs);
        if fallback_pairs > 0 {
            sor_obs::warn!(
                "epoch {epoch}: {fallback_pairs} pair(s) lost every cached candidate; \
                 emergency shortest-path fallback installed"
            );
            sor_obs::count_usize("serve/fallback_pairs", fallback_pairs);
        }
        let demand = if unserved.is_empty() {
            demand
        } else {
            sor_obs::warn!(
                "epoch {epoch}: {} pair(s) disconnected by failures; dropped",
                unserved.len()
            );
            sor_obs::count_usize("serve/unserved_pairs", unserved.len());
            Demand::from_triples(
                demand
                    .entries()
                    .iter()
                    .filter(|&&(s, t, _)| !unserved.contains(&(s, t)))
                    .copied(),
            )
        };
        if demand.support_size() == 0 {
            let mut snap = EpochSnapshot::empty(epoch, self.queue.len());
            snap.admitted = admitted.len();
            snap.cache_hit = cache_hit;
            snap.unserved_pairs = unserved.len();
            return snap;
        }

        let sparsity = system.sparsity();
        let sor = SemiObliviousRouting::new(Arc::clone(&self.g), system);
        let reopt_start = self.observer.as_ref().map(|_| Instant::now());
        let (weights, loads, congestion, lower_bound) = if self.cfg.integral && demand.is_integral()
        {
            let sol = sor.route_integral(&demand, self.cfg.eps, &mut self.rng);
            let weights: Vec<Vec<f64>> = sol
                .counts
                .iter()
                .map(|c| c.iter().map(|&n| f64::from(n)).collect())
                .collect();
            (weights, sol.loads, sol.congestion, 0.0)
        } else {
            let sol = sor.route_fractional(&demand, self.cfg.eps);
            (sol.weights, sol.loads, sol.congestion, sol.lower_bound)
        };
        if let Some(t0) = reopt_start {
            m.reopt_ns = elapsed_ns(t0);
        }

        // Publish: each pair's candidates that carry a positive rate.
        let routes: Vec<PublishedRoute> = demand
            .entries()
            .iter()
            .zip(&weights)
            .map(|(&(s, t, d), w)| PublishedRoute {
                s,
                t,
                demand: d,
                paths: sor
                    .system()
                    .paths(s, t)
                    .iter()
                    .zip(w)
                    .filter(|&(_, &rate)| rate > 0.0)
                    .map(|(p, &rate)| (p.edges().to_vec(), rate))
                    .collect(),
            })
            .collect();
        // the solve's own loads, summed over exactly the published rates
        m.loads = Some(loads);

        let snap = EpochSnapshot {
            epoch,
            admitted: admitted.len(),
            cache_hit,
            congestion,
            lower_bound,
            fallback_pairs,
            unserved_pairs: unserved.len(),
            queue_depth: self.queue.len(),
            sparsity,
            fresh_congestion: None,
            cache: CacheDeltas::default(),
            routes,
        };
        self.last = Some(sor);
        snap
    }

    /// The resample-per-epoch baseline: rebuild the oblivious routing and
    /// resample the epoch's system from scratch, then solve the same
    /// demand — everything the cache lets warm epochs skip.
    fn fresh_baseline(&self, snap: &EpochSnapshot) -> f64 {
        let _span = sor_obs::span("serve/fresh_sample");
        let demand = Demand::from_triples(snap.routes.iter().map(|r| (r.s, r.t, r.demand)));
        let pairs = demand_pairs(&demand);
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ snap.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let base = RaeckeRouting::build(Graph::clone(&self.g), self.cfg.trees, &mut rng);
        let sampled = Arc::new(sample_k(&base, &pairs, self.cfg.sparsity, &mut rng).system);
        let (system, _, unserved) = resolve_failures(&self.g, &sampled, &self.failed, &pairs);
        debug_assert!(unserved.is_empty(), "served pairs stay connected");
        let sor = SemiObliviousRouting::new(Arc::clone(&self.g), system);
        sor.congestion(&demand, self.cfg.eps)
    }

    /// The graph the engine routes on.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The path-system cache (stats, targeted tests).
    pub fn cache(&self) -> &PathSystemCache {
        &self.cache
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests rejected by backpressure so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected
    }

    /// Epochs run so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Currently failed edges.
    pub fn failed_edges(&self) -> &[EdgeId] {
        &self.failed
    }

    /// The system the last non-empty epoch solved on (degraded + fallback
    /// paths included) — the containment-invariant tests check published
    /// routes against exactly this. With no edge down it is the cache
    /// entry itself, not a copy.
    pub fn last_system(&self) -> Option<&PathSystem> {
        self.last.as_ref().map(SemiObliviousRouting::system)
    }
}

/// Saturating nanoseconds since `t0` (u64 holds ~584 years).
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Apply the failure set to a sampled system ([`PathSystem::degraded`]).
/// With no edge down the sampled system itself comes back, shared.
fn resolve_failures(
    g: &Graph,
    sampled: &Arc<PathSystem>,
    failed: &[EdgeId],
    pairs: &[(NodeId, NodeId)],
) -> (Arc<PathSystem>, usize, Vec<(NodeId, NodeId)>) {
    if failed.is_empty() {
        return (Arc::clone(sampled), 0, Vec::new());
    }
    let (system, fallback_pairs, unserved) = sampled.degraded(g, failed, pairs);
    (Arc::new(system), fallback_pairs, unserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;
    use sor_obs::JournalEvent;

    fn small_engine(compare_fresh: bool) -> Engine {
        let g = gen::hypercube(3);
        Engine::new(
            g,
            EngineConfig {
                sparsity: 2,
                trees: 3,
                epoch_batch: 8,
                queue_bound: 16,
                cache_capacity: 4,
                compare_fresh,
                seed: 11,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn warm_epoch_hits_cache() {
        let mut eng = small_engine(false);
        for _ in 0..2 {
            for i in 0..4u32 {
                assert!(eng.ingest(Request::unit(NodeId(i), NodeId(7 - i))));
            }
        }
        let first = eng.run_epoch();
        assert_eq!(first.admitted, 8);
        assert!(!first.cache_hit);
        assert!(first.congestion > 0.0);
        // same pair set again → hit, and the solve agrees bit-for-bit
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let second = eng.run_epoch();
        assert!(second.cache_hit);
        assert_eq!(first.congestion.to_bits(), second.congestion.to_bits());
        assert_eq!(first.routes, second.routes);
        let st = eng.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn epochs_solve_on_the_cache_entry_itself_until_an_edge_fails() {
        let mut eng = small_engine(false);
        let pairs: Vec<(NodeId, NodeId)> = (0..4u32).map(|i| (NodeId(i), NodeId(7 - i))).collect();
        let key = CacheKey::new(eng.graph(), &pairs, eng.config().sparsity);
        let run = |eng: &mut Engine| {
            for &(s, t) in &pairs {
                eng.ingest(Request::unit(s, t));
            }
            eng.run_epoch()
        };
        let cold = run(&mut eng);
        let warm = run(&mut eng);
        assert!(!cold.cache_hit && warm.cache_hit);
        let entry = eng
            .cache()
            .peek(&key)
            .expect("the pattern's system is cached");
        let last = eng.last_system().expect("a non-empty epoch ran");
        assert!(
            std::ptr::eq(last, Arc::as_ptr(&entry)),
            "with no edge down the epoch shares the cache entry"
        );

        // With an edge down the epoch solves on a degraded copy instead,
        // even when the entry survives because it never used the edge.
        let unused = eng
            .graph()
            .edge_ids()
            .find(|&e| {
                !entry
                    .pairs()
                    .any(|(_, _, ps)| ps.iter().any(|p| p.contains_edge(e)))
            })
            .expect("3 trees leave some hypercube edge unused");
        assert_eq!(eng.fail_edges(&[unused]), 0);
        assert!(run(&mut eng).cache_hit);
        let last = eng.last_system().expect("a non-empty epoch ran");
        assert!(!std::ptr::eq(last, Arc::as_ptr(&entry)));
        assert_eq!(last, &*entry);
        eng.restore_all();

        let used = entry.paths(pairs[0].0, pairs[0].1).get(0).edges()[0];
        assert_eq!(eng.fail_edges(&[used]), 1);
        assert!(!run(&mut eng).cache_hit);
        let resampled = eng
            .cache()
            .peek(&key)
            .expect("the miss cached a new sample");
        let last = eng.last_system().expect("a non-empty epoch ran");
        assert!(!std::ptr::eq(last, Arc::as_ptr(&resampled)));
        assert!(last
            .pairs()
            .all(|(_, _, ps)| ps.iter().all(|p| !p.contains_edge(used))));
        eng.restore_all();
        run(&mut eng);
        let last = eng.last_system().expect("a non-empty epoch ran");
        assert!(std::ptr::eq(last, Arc::as_ptr(&resampled)));
    }

    #[test]
    fn backpressure_rejects_at_bound() {
        let mut eng = small_engine(false);
        let mut accepted = 0;
        for i in 0..40u32 {
            if eng.ingest(Request::unit(NodeId(i % 7), NodeId(7))) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 16, "queue bound caps acceptance");
        assert_eq!(eng.rejected_total(), 24);
        assert_eq!(eng.queue_depth(), 16);
        let snap = eng.run_epoch();
        assert_eq!(snap.admitted, 8, "epoch batch caps admission");
        assert_eq!(snap.queue_depth, 8);
    }

    #[test]
    fn observer_sees_per_epoch_rejection_deltas() {
        let mut eng = small_engine(false);
        let observer = Arc::new(Observer::default());
        eng.attach_observer(Arc::clone(&observer));
        // offered before each epoch; queue bound 16, epoch batch 8
        for offered in [20u32, 10, 0, 17] {
            for i in 0..offered {
                eng.ingest(Request::unit(NodeId(i % 7), NodeId(7)));
            }
            eng.run_epoch();
        }
        assert_eq!(eng.rejected_total(), 4 + 2 + 1);
        let rows: Vec<u64> = observer.timeline().iter().map(|r| r.rejected).collect();
        assert_eq!(rows, [4, 2, 0, 1], "timeline rows carry deltas, not totals");
    }

    #[test]
    fn snapshots_carry_per_epoch_cache_deltas() {
        let mut eng = small_engine(false);
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let first = eng.run_epoch();
        assert_eq!((first.cache.hits, first.cache.misses), (0, 1));
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let second = eng.run_epoch();
        assert_eq!((second.cache.hits, second.cache.misses), (1, 0));
        // per-epoch deltas sum to the lifetime totals
        let st = eng.cache_stats();
        assert_eq!(st.hits, first.cache.hits + second.cache.hits);
        assert_eq!(st.misses, first.cache.misses + second.cache.misses);
        // an empty epoch moves nothing
        let idle = eng.run_epoch();
        assert_eq!(idle.cache, CacheDeltas::default());
    }

    #[test]
    fn empty_epoch_is_empty() {
        let mut eng = small_engine(false);
        let snap = eng.run_epoch();
        assert_eq!(snap.admitted, 0);
        assert_eq!(snap.congestion, 0.0);
        assert!(snap.routes.is_empty());
        assert_eq!(eng.epochs_run(), 1);
    }

    #[test]
    fn failures_invalidate_and_fall_back() {
        let g = gen::cycle_graph(6);
        let mut eng = Engine::new(
            g,
            EngineConfig {
                sparsity: 4,
                trees: 3,
                epoch_batch: 4,
                seed: 5,
                ..EngineConfig::default()
            },
        );
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        let warm = eng.run_epoch();
        assert!(!warm.cache_hit);
        // fail one cycle edge: the cached system (both directions around
        // the cycle, sparsity up to 2) used it, so the entry dies
        let invalidated = eng.fail_edges(&[EdgeId(0)]);
        assert_eq!(invalidated, 1);
        assert_eq!(eng.failed_edges(), &[EdgeId(0)]);
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        let degraded = eng.run_epoch();
        assert!(!degraded.cache_hit, "invalidated entry cannot hit");
        // the inter-epoch invalidation lands in this epoch's deltas
        assert_eq!(degraded.cache.invalidations, 1);
        assert_eq!(degraded.cache.misses, 1);
        assert!(degraded.congestion > 0.0);
        // every published route avoids the failed edge
        for r in &degraded.routes {
            for (edges, _) in &r.paths {
                assert!(!edges.contains(&EdgeId(0)));
            }
        }
        eng.restore_all();
        assert!(eng.failed_edges().is_empty());
    }

    #[test]
    fn journal_captures_the_epoch_lifecycle() {
        let mut eng = small_engine(false);
        let observer = Arc::new(Observer::default());
        eng.attach_observer(Arc::clone(&observer));
        let cold: Vec<(u32, u32)> = (0..4).map(|i| (i, 7 - i)).collect();
        // cold, a warm repeat, an empty epoch, then new pairs
        let batches = [cold.clone(), cold, Vec::new(), vec![(0, 3), (5, 6), (1, 7)]];
        let mut snaps = Vec::new();
        for batch in &batches {
            for &(s, t) in batch {
                eng.ingest(Request::unit(NodeId(s), NodeId(t)));
            }
            snaps.push(eng.run_epoch());
        }
        assert!(snaps[1].cache_hit);
        // a served epoch journals top_edges, its path churn (every pair
        // that is new; the warm repeat publishes the same paths), then
        // epoch_end; the empty epoch journals only its epoch_end
        let served = |epoch: u64, churn: usize| {
            let mut tags = vec![(epoch, "top_edges")];
            tags.extend(vec![(epoch, "path_churn"); churn]);
            tags.push((epoch, "epoch_end"));
            tags
        };
        let want = [
            served(0, 4),
            served(1, 0),
            vec![(2, "epoch_end")],
            served(3, 3),
        ]
        .concat();
        let events = observer.journal().events();
        let tags: Vec<(u64, &str)> = events
            .iter()
            .map(|(_, e)| (e.epoch(), e.type_tag()))
            .collect();
        assert_eq!(tags, want);
        let ends = events.iter().filter_map(|(_, e)| match e {
            JournalEvent::EpochEnd {
                demand_fp,
                lower_bound,
                ..
            } => Some((*demand_fp, *lower_bound)),
            _ => None,
        });
        for ((batch, snap), (demand_fp, lower_bound)) in batches.iter().zip(&snaps).zip(ends) {
            let demand =
                Demand::from_triples(batch.iter().map(|&(s, t)| (NodeId(s), NodeId(t), 1.0)));
            let fp = (!batch.is_empty()).then(|| pairs_fingerprint(&demand_pairs(&demand)));
            assert_eq!(demand_fp, fp, "epoch {}", snap.epoch);
            assert_eq!(lower_bound.to_bits(), snap.lower_bound.to_bits());
        }

        // the dump is sor-journal/3 and keeps every fingerprint bit,
        // including those past f64's 2^53 integer range
        let text = observer.journal().dump_json(&[]);
        assert!(text.starts_with("{\"format\":\"sor-journal/3\""));
        let dump = sor_obs::parse_journal(&text).expect("the dump parses");
        assert_eq!(dump.events, observer.journal().events());
        assert!(dump.events.iter().any(|(_, e)| matches!(
            e,
            JournalEvent::EpochEnd { demand_fp: Some(fp), .. } if *fp > 1 << 53
        )));
        // and the retired sor-journal/2 format is refused, not misread
        let v2 = text.replacen("sor-journal/3", "sor-journal/2", 1);
        assert!(sor_obs::parse_journal(&v2).is_err());
    }

    #[test]
    fn journal_records_failures_and_restores() {
        let g = gen::cycle_graph(6);
        let mut eng = Engine::new(
            g,
            EngineConfig {
                sparsity: 4,
                trees: 3,
                epoch_batch: 4,
                seed: 5,
                ..EngineConfig::default()
            },
        );
        let observer = Arc::new(Observer::default());
        eng.attach_observer(Arc::clone(&observer));
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        eng.run_epoch();
        eng.fail_edges(&[EdgeId(0)]);
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        eng.run_epoch();
        eng.restore_all();
        let events = observer.journal().events();
        let fail = events
            .iter()
            .find_map(|(_, e)| match e {
                JournalEvent::EdgeFail { epoch, edges } => Some((*epoch, edges.clone())),
                _ => None,
            })
            .expect("edge_fail recorded");
        assert_eq!(fail, (1, vec![0]), "failure tagged with the next epoch");
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, JournalEvent::EdgeRestore { restored: 1, .. })),
            "restore journaled"
        );
        // the degraded epoch's row carries the invalidation and the live
        // failure count
        let rows = observer.journal().rows(2);
        assert_eq!(rows[1].epoch, 1);
        assert_eq!(rows[1].cache_invalidations, 1, "invalidation journaled");
        assert_eq!(rows[1].failed_edges, 1);
        assert_eq!((rows[0].cache_invalidations, rows[0].failed_edges), (0, 0));
    }

    #[test]
    fn compare_fresh_records_baseline() {
        let mut eng = small_engine(true);
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let snap = eng.run_epoch();
        let fresh = snap.fresh_congestion.expect("compare_fresh on");
        assert!(fresh.is_finite() && fresh > 0.0);
        // same optimizer, same instance family: within a loose factor
        assert!(snap.congestion <= fresh * 3.0 + 1e-9);
        assert!(fresh <= snap.congestion * 3.0 + 1e-9);
    }

    #[test]
    fn integral_mode_publishes_integral_rates() {
        let g = gen::hypercube(3);
        let mut eng = Engine::new(
            g,
            EngineConfig {
                sparsity: 2,
                trees: 3,
                integral: true,
                seed: 3,
                ..EngineConfig::default()
            },
        );
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let snap = eng.run_epoch();
        assert!(snap.congestion >= 1.0 - 1e-9, "unit demands, integral MLU");
        for r in &snap.routes {
            let total: f64 = r.paths.iter().map(|&(_, w)| w).sum();
            assert!((total - r.demand).abs() < 1e-9);
            for &(_, w) in &r.paths {
                assert!((w - w.round()).abs() < 1e-9, "integral rate");
            }
        }
    }
}
