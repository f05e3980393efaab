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
//! epoch routes on the degraded system, pairs that lost every candidate
//! falling back to a surviving shortest path exactly like `sor-te`'s
//! failure replay.
//!
//! Everything is deterministic for a fixed seed: the cache is keyed and
//! evicted deterministically, the engine RNG is a seeded `StdRng`, and
//! the fresh-sample comparison derives its RNG from (seed, epoch).

use crate::cache::{
    fnv1a_u64, graph_fingerprint, pairs_fingerprint, CacheDeltas, CacheKey, CacheStats,
    PathSystemCache, FNV_OFFSET,
};
use crate::observer::{EpochMeasures, Observer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use sor_compact::{CompactStats, CompactSystem};
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::{PathSystem, SemiObliviousRouting};
use sor_flow::Demand;
use sor_graph::{EdgeId, Graph, NodeId};
use sor_oblivious::RaeckeRouting;
use sor_obs::{EdgeLoad, JournalEvent};
use sor_te::emergency_path;
use std::collections::{BTreeMap, VecDeque};
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

/// How an epoch's path system is materialized for publication. Both
/// formats publish bit-identical routes — compact mode re-encodes the
/// system through `sor-compact`'s verified lossless tables and decodes
/// the published edge lists from them, recording the size accounting on
/// the snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Explicit per-pair edge lists (the historical format).
    #[default]
    Explicit,
    /// o(n)-state label-interval next-hop tables ([`CompactSystem`]).
    Compact,
}

impl SnapshotFormat {
    /// Parse a CLI spelling (`explicit` / `compact`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "explicit" => Ok(SnapshotFormat::Explicit),
            "compact" => Ok(SnapshotFormat::Compact),
            other => Err(format!(
                "unknown snapshot format {other:?} (expected explicit|compact)"
            )),
        }
    }
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
    /// How published snapshots materialize their path systems (explicit
    /// edge lists or compact next-hop tables). Published routes are
    /// bit-identical either way; only the snapshot's size accounting and
    /// the cache's encoding tag differ.
    pub snapshot_format: SnapshotFormat,
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
            snapshot_format: SnapshotFormat::Explicit,
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
    /// Size accounting of the compact encoding, present only when the
    /// engine ran with [`SnapshotFormat::Compact`]. Routes themselves
    /// are identical between formats (the codec is verified lossless).
    pub compact: Option<CompactStats>,
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
            compact: None,
        }
    }
}

/// Congested edges reported per `top_edges` journal event.
const TOP_EDGES_K: usize = 8;

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
    /// The running epoch's rejection delta and wall clocks, filled only
    /// while an observer is attached (wall time never reaches published
    /// output).
    measures: EpochMeasures,
    /// Rejection total at the last observed epoch.
    prev_rejected: u64,
    /// Last published path-set fingerprint per pair — path-churn events
    /// difference against this. BTreeMap: churn events come out in
    /// deterministic pair order.
    pair_fps: BTreeMap<(u32, u32), u64>,
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
            measures: EpochMeasures::default(),
            prev_rejected: 0,
            pair_fps: BTreeMap::new(),
            g: Arc::new(g),
            cfg,
            routing,
        }
    }

    /// Attach an observer: every subsequent lifecycle step journals a
    /// causal event, and every epoch closes into its journaled timeline
    /// row, wall histograms and SLO watchdog. Observation is strictly
    /// read-only over the epoch's outputs — published snapshots stay
    /// bit-identical with or without it (the determinism test pins
    /// this), and an engine without one takes no clock reading and
    /// builds no event.
    pub fn attach_observer(&mut self, observer: Arc<Observer>) {
        self.observer = Some(observer);
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.observer.as_ref()
    }

    /// Journal a causal event; without an observer the event is never
    /// built.
    fn record(&self, event: impl FnOnce() -> JournalEvent) {
        if let Some(obs) = &self.observer {
            obs.record(event());
        }
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
        self.record(|| JournalEvent::EdgeFail {
            epoch: self.epoch,
            edges: edges.iter().map(|e| e.0).collect(),
        });
        invalidated
    }

    /// Bring every failed edge back up. Cached entries were sampled on
    /// the pristine graph and never contain emergency fallback paths, so
    /// no invalidation is needed.
    pub fn restore_all(&mut self) {
        let restored = self.failed.len();
        self.failed.clear();
        if restored > 0 {
            self.record(|| JournalEvent::EdgeRestore {
                epoch: self.epoch,
                restored,
            });
        }
    }

    /// Run one epoch: admit a batch, solve it on a cached (or freshly
    /// sampled) path system, publish the snapshot.
    pub fn run_epoch(&mut self) -> EpochSnapshot {
        let epoch_start = self.observer.is_some().then(Instant::now);
        self.measures = EpochMeasures::default();
        let mut snap = {
            let _span = sor_obs::span("serve/epoch");
            self.run_epoch_inner()
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
            self.measures.epoch_ns = elapsed_ns(t0);
            obs.close_epoch(&snap, self.failed.len(), self.measures);
        }
        snap
    }

    fn run_epoch_inner(&mut self) -> EpochSnapshot {
        let epoch = self.epoch;
        self.epoch += 1;
        sor_obs::counter_add!("serve/epochs");

        if let Some(obs) = &self.observer {
            obs.record(JournalEvent::EpochBegin {
                epoch,
                queue_depth: self.queue.len(),
            });
            // Rejections only happen at ingest, between epochs, so this
            // delta is the one the epoch's timeline row carries.
            self.measures.rejected = self.rejected.saturating_sub(self.prev_rejected);
            self.prev_rejected = self.rejected;
        }

        let take = self.cfg.epoch_batch.min(self.queue.len());
        let admitted: Vec<Request> = self.queue.drain(..take).collect();
        if let Some(obs) = &self.observer {
            // queue-wait percentiles for the admitted batch (enqueue
            // instants are only mirrored while an observer is attached)
            for t0 in self.queue_times.drain(..take.min(self.queue_times.len())) {
                obs.observe_queue_wait_ns(elapsed_ns(t0));
            }
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
        self.record(|| JournalEvent::Admit {
            epoch,
            count: admitted.len(),
            demand_fp: pairs_fingerprint(&pairs),
        });
        let key = CacheKey {
            graph_fp: self.graph_fp,
            pairs_fp: pairs_fingerprint(&pairs),
            sparsity: self.cfg.sparsity,
        };
        let lookup_start = self.observer.as_ref().map(|_| Instant::now());
        let Engine {
            cache,
            routing,
            rng,
            cfg,
            ..
        } = self;
        let (sampled, cache_hit) = cache.get_or_insert_with(key, cfg.snapshot_format, || {
            let _span = sor_obs::span("serve/sample");
            sample_k(routing, &pairs, cfg.sparsity, rng).system
        });
        if let Some(t0) = lookup_start {
            self.measures.cache_lookup_ns = elapsed_ns(t0);
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
        let integral_solve = self.cfg.integral && demand.is_integral();
        let (weights, congestion, lower_bound) = if integral_solve {
            let sol = sor.route_integral(&demand, self.cfg.eps, &mut self.rng);
            let weights: Vec<Vec<f64>> = sol
                .counts
                .iter()
                .map(|c| c.iter().map(|&n| f64::from(n)).collect())
                .collect();
            (weights, sol.congestion, 0.0)
        } else {
            let sol = sor.route_fractional(&demand, self.cfg.eps);
            (sol.weights, sol.congestion, sol.lower_bound)
        };
        if let Some(t0) = reopt_start {
            self.measures.reopt_ns = elapsed_ns(t0);
        }

        // Compact mode: re-encode the epoch's (failure-resolved) system
        // through the verified lossless codec and publish the *decoded*
        // routes — identical bits by the codec's round-trip guarantee,
        // with the size accounting recorded on the snapshot.
        let compact = (self.cfg.snapshot_format == SnapshotFormat::Compact).then(|| {
            let _span = sor_obs::span("serve/compact_encode");
            let tree = self
                .routing
                .trees()
                .first()
                // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                .expect("RaeckeRouting::build produces at least one tree");
            CompactSystem::encode(&self.g, tree, sor.system())
        });

        // Publish: per-commodity route extraction (rayon; the vendored
        // stand-in runs it sequentially, deterministically).
        let routes: Vec<PublishedRoute> = match &compact {
            Some(cs) => demand
                .entries()
                .iter()
                .zip(weights.iter())
                .map(|(&(s, t, d), w)| PublishedRoute {
                    s,
                    t,
                    demand: d,
                    paths: cs
                        .decode_pair(&self.g, s, t)
                        .iter()
                        .zip(w.iter())
                        .filter(|&(_, &rate)| rate > 0.0)
                        .map(|(p, &rate)| (p.edges().to_vec(), rate))
                        .collect(),
                })
                .collect(),
            None => demand
                .entries()
                .par_iter()
                .zip(weights.par_iter())
                .map(|(&(s, t, d), w)| PublishedRoute {
                    s,
                    t,
                    demand: d,
                    paths: sor
                        .system()
                        .paths(s, t)
                        .par_iter()
                        .zip(w.par_iter())
                        .filter(|&(_, &rate)| rate > 0.0)
                        .map(|(p, &rate)| (p.edges().to_vec(), rate))
                        .collect(),
                })
                .collect(),
        };

        if self.observer.is_some() {
            self.journal_solve_events(
                epoch,
                &demand,
                &routes,
                congestion,
                lower_bound,
                integral_solve,
            );
        }

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
            compact: compact.as_ref().map(CompactSystem::stats),
        };
        self.last = Some(sor);
        snap
    }

    /// Journal the solve's outcome: the re-opt summary, the top-k most
    /// utilized edges of the published assignment, and per-pair path
    /// churn vs. the previous publication. Only called while an observer
    /// is attached, so the load/fingerprint passes cost an unobserved
    /// engine nothing.
    fn journal_solve_events(
        &mut self,
        epoch: u64,
        demand: &Demand,
        routes: &[PublishedRoute],
        congestion: f64,
        lower_bound: f64,
        integral: bool,
    ) {
        let Some(obs) = &self.observer else {
            return;
        };
        obs.record(JournalEvent::Reopt {
            epoch,
            pairs: demand.support_size(),
            congestion,
            lower_bound,
            integral,
        });
        // Per-edge loads of the published assignment: rates sum to the
        // admitted demands, so this is exactly the utilization the epoch
        // ships.
        let mut loads = vec![0.0f64; self.g.num_edges()];
        for r in routes {
            for (edges, rate) in &r.paths {
                for e in edges {
                    if let Some(slot) = loads.get_mut(e.0 as usize) {
                        *slot += *rate;
                    }
                }
            }
        }
        let mut top: Vec<EdgeLoad> = loads
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(i, &load)| {
                let e = EdgeId::from_usize(i);
                EdgeLoad {
                    edge: e.0,
                    load,
                    utilization: load / self.g.cap(e),
                }
            })
            .collect();
        top.sort_by(|a, b| {
            b.utilization
                .total_cmp(&a.utilization)
                .then(a.edge.cmp(&b.edge))
        });
        top.truncate(TOP_EDGES_K);
        obs.record(JournalEvent::TopEdges { epoch, edges: top });
        // Path churn: fingerprint each pair's published path set and diff
        // it against the pair's previous publication.
        for r in routes {
            let mut fp = FNV_OFFSET;
            for (edges, _) in &r.paths {
                fp = fnv1a_u64(fp, edges.len() as u64);
                for e in edges {
                    fp = fnv1a_u64(fp, u64::from(e.0));
                }
            }
            let pair = (r.s.0, r.t.0);
            let churn = match self.pair_fps.insert(pair, fp) {
                None => Some(true),
                Some(prev) if prev != fp => Some(false),
                Some(_) => None,
            };
            if let Some(new_pair) = churn {
                obs.record(JournalEvent::PathChurn {
                    epoch,
                    src: pair.0,
                    dst: pair.1,
                    new_pair,
                });
            }
        }
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

/// Apply the failure set to a sampled system: drop crossing paths, give
/// pairs that lost everything an emergency shortest path on the survivor
/// graph (re-traced onto original edge ids, the `sor-te` failure-replay
/// idiom), and report pairs the failures disconnected outright. With no
/// edge down the sampled system itself comes back, shared.
fn resolve_failures(
    g: &Graph,
    sampled: &Arc<PathSystem>,
    failed: &[EdgeId],
    pairs: &[(NodeId, NodeId)],
) -> (Arc<PathSystem>, usize, Vec<(NodeId, NodeId)>) {
    if failed.is_empty() {
        return (Arc::clone(sampled), 0, Vec::new());
    }
    let mut system = sampled.without_edges(failed);
    let survivor = g.without_edges(failed);
    let mut fallback_pairs = 0;
    let mut unserved = Vec::new();
    for &(a, b) in pairs {
        if system.covers(a, b) {
            continue;
        }
        // `sor-te`'s emergency reroute: BFS on the survivor graph,
        // re-traced onto original edge ids.
        let Some(orig) = emergency_path(g, &survivor, failed, a, b) else {
            unserved.push((a, b));
            continue;
        };
        fallback_pairs += 1;
        system.insert(a, b, orig);
    }
    (Arc::new(system), fallback_pairs, unserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;

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

        let used = entry.paths(pairs[0].0, pairs[0].1)[0].edges()[0];
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
        let journal = observer.journal();
        for _ in 0..2 {
            for i in 0..4u32 {
                eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
            }
        }
        eng.run_epoch();
        let tags: Vec<&'static str> = journal.events().iter().map(|(_, e)| e.type_tag()).collect();
        for expected in [
            "epoch_begin",
            "admit",
            "reopt",
            "top_edges",
            "path_churn",
            "epoch_end",
        ] {
            assert!(tags.contains(&expected), "missing {expected} in {tags:?}");
        }
        // 4 pairs, all published for the first time, on a sampled system
        assert_eq!(tags.iter().filter(|t| **t == "path_churn").count(), 4);
        let cold = &journal.rows(1)[0];
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1));
        let before = journal.len();
        // identical demand again: warm hit, identical publication → no churn
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        eng.run_epoch();
        let tags2: Vec<&'static str> = journal
            .events()
            .iter()
            .skip(before)
            .map(|(_, e)| e.type_tag())
            .collect();
        let warm = &journal.rows(1)[0];
        assert_eq!(
            (warm.cache_hits, warm.cache_misses),
            (1, 0),
            "warm epoch hits"
        );
        assert!(
            !tags2.contains(&"path_churn"),
            "identical publication churns nothing: {tags2:?}"
        );
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
