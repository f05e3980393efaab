//! The engine's observer: every observation store behind one value.
//!
//! One [`Observer`] owns the flight-recorder journal, the SLO watchdog,
//! the four wall-clock tail histograms and the optional breach-dump
//! target. It is shared (`Arc`) between the engine, which attaches it
//! with [`crate::Engine::attach_observer`], and readers such as the
//! scrape thread (`/metrics`, `/timeline`, `/health`) or the CLI writing
//! artifacts at exit.
//!
//! The observer is the only code that builds a journal event. The engine
//! calls it once per edge failure or restore, and once per published
//! epoch with the snapshot and what only the engine knows: its rejection
//! total, the admitted pairs' fingerprint, the solve's own edge loads
//! and the walls. The epoch close observes the walls, ranks the
//! solve's edge loads into the epoch's `top_edges` event, diffs each
//! served pair's published path set against its previous publication
//! into `path_churn` events, builds the epoch's timeline row once, runs
//! the watchdog on it, journals the row (breaches included) with the
//! demand fingerprint and the solve's lower bound as the epoch's
//! `epoch_end` event, and writes the journal dump on a breach. The
//! journal is the only per-epoch store: the timeline is its newest
//! `epoch_end` rows. Observation is strictly read-only over the epoch's
//! outputs: attaching an observer cannot change a published route or
//! rate (`serve_determinism.rs` asserts bit-equality either way).

use crate::cache::{fnv1a_u64, FNV_OFFSET};
use crate::engine::{EpochSnapshot, PublishedRoute};
use parking_lot::Mutex;
use sor_flow::EdgeLoads;
use sor_graph::{EdgeId, Graph};
use sor_obs::timeline::{render_json, DEFAULT_TIMELINE_CAPACITY};
use sor_obs::{
    EdgeLoad, EpochRecord, Journal, JournalEvent, LogHistogram, PromGauges, SloBreach, SloConfig,
    SloInputs, SloWatchdog, TelemetryHandler, TelemetryServer,
};
use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// How many recent epochs the windowed cache hit rate averages over.
const HIT_RATE_WINDOW: usize = 10;

/// Congested edges reported per `top_edges` journal event.
const TOP_EDGES_K: usize = 8;

/// Breach dumps written per run at most: a breach storm must not turn
/// the flight recorder into a disk-filling loop.
pub const MAX_BREACH_DUMPS: usize = 16;

/// What the engine knows about one epoch besides its snapshot: its
/// rejection total, the admitted pairs' fingerprint, the solve's own
/// edge loads and the wall clocks (nanoseconds; zero when a phase did
/// not run).
#[derive(Debug, Default)]
pub(crate) struct EpochMeasures {
    /// Backpressure rejections over the engine's lifetime; the observer
    /// differences consecutive totals into the row's per-epoch count.
    pub(crate) rejected_total: u64,
    /// The cache key's fingerprint of the admitted pairs; `None` when
    /// the epoch admitted nothing.
    pub(crate) demand_fp: Option<u64>,
    /// The solve's per-edge loads, summed over exactly the published
    /// rates; `None` when nothing was solved.
    pub(crate) loads: Option<EdgeLoads>,
    /// How long each admitted request waited in the queue.
    pub(crate) queue_waits_ns: Vec<u64>,
    /// Whole `run_epoch` call.
    pub(crate) epoch_ns: u64,
    /// The rate re-optimization (MWU / integral solve).
    pub(crate) reopt_ns: u64,
    /// The path-system cache lookup (including a miss's sampling).
    pub(crate) cache_lookup_ns: u64,
}

/// What the next epoch close differences against.
#[derive(Default)]
struct Previous {
    /// The engine's rejection total at the last close.
    rejected_total: u64,
    /// Last published path-set fingerprint per pair. BTreeMap: no
    /// hash-order dependence anywhere in the serving layer.
    pair_fps: BTreeMap<(u32, u32), u64>,
}

/// Where breach dumps go: `{prefix}-epoch{NNNNNN}.json`, each holding
/// the ring's last `context_epochs` epochs (0 = everything retained).
struct BreachDump {
    prefix: String,
    context_epochs: u64,
}

/// Every observation store of a serving run (see module docs).
pub struct Observer {
    journal: Journal,
    watchdog: SloWatchdog,
    epoch_wall: LogHistogram,
    reopt_wall: LogHistogram,
    cache_lookup: LogHistogram,
    queue_wait: LogHistogram,
    breach_dump: Option<BreachDump>,
    dumps: Mutex<Vec<String>>,
    previous: Mutex<Previous>,
}

impl Default for Observer {
    fn default() -> Self {
        Self::new(SloConfig::disabled())
    }
}

impl Observer {
    /// An observer with the given SLO thresholds (use
    /// [`SloConfig::disabled`] for pure observation) and no breach dumps.
    pub fn new(slo: SloConfig) -> Self {
        Observer {
            journal: Journal::new(),
            watchdog: SloWatchdog::new(slo),
            epoch_wall: LogHistogram::new(),
            reopt_wall: LogHistogram::new(),
            cache_lookup: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            breach_dump: None,
            dumps: Mutex::new(Vec::new()),
            previous: Mutex::new(Previous::default()),
        }
    }

    /// Arm breach-triggered dumps: every epoch that trips an SLO rule
    /// snapshots the journal's last `context_epochs` epochs (0 = all
    /// retained) to `{prefix}-epoch{NNNNNN}.json`, the `sor-journal/3`
    /// format `sor forensics` ingests, up to [`MAX_BREACH_DUMPS`] files.
    #[must_use]
    pub fn with_breach_dump(mut self, prefix: impl Into<String>, context_epochs: u64) -> Self {
        self.breach_dump = Some(BreachDump {
            prefix: prefix.into(),
            context_epochs,
        });
        self
    }

    /// Journal edges going down before `epoch`, the first epoch the
    /// failure affects (its row carries the invalidations).
    pub(crate) fn edges_failed(&self, epoch: u64, edges: &[EdgeId]) {
        self.journal.record(JournalEvent::EdgeFail {
            epoch,
            edges: edges.iter().map(|e| e.0).collect(),
        });
    }

    /// Journal `restored` failed edges coming back up before `epoch`.
    pub(crate) fn edges_restored(&self, epoch: u64, restored: usize) {
        self.journal
            .record(JournalEvent::EdgeRestore { epoch, restored });
    }

    /// Close one published epoch on graph `g`: observe the walls,
    /// journal the epoch's `top_edges` and `path_churn` events, build its
    /// row, evaluate the SLO watchdog on it, journal the row (with its
    /// breaches) as `epoch_end`, and dump the journal if a rule was
    /// breached.
    pub(crate) fn close_epoch(
        &self,
        g: &Graph,
        snap: &EpochSnapshot,
        failed_edges: usize,
        m: EpochMeasures,
    ) {
        #[allow(clippy::cast_precision_loss)]
        {
            self.epoch_wall.observe(m.epoch_ns as f64);
            if m.reopt_ns > 0 {
                self.reopt_wall.observe(m.reopt_ns as f64);
            }
            if m.cache_lookup_ns > 0 {
                self.cache_lookup.observe(m.cache_lookup_ns as f64);
            }
            for &ns in &m.queue_waits_ns {
                self.queue_wait.observe(ns as f64);
            }
        }
        let epoch = snap.epoch;
        if let Some(loads) = &m.loads {
            let edges = top_edges(g, loads);
            self.journal.record(JournalEvent::TopEdges { epoch, edges });
        }
        let rejected = {
            let mut prev = self.previous.lock();
            for r in &snap.routes {
                if let Some(new_pair) = churn(&mut prev.pair_fps, r) {
                    self.journal.record(JournalEvent::PathChurn {
                        epoch,
                        src: r.s.0,
                        dst: r.t.0,
                        new_pair,
                    });
                }
            }
            // Rejections only happen at ingest, between epochs, so the
            // difference is exactly this epoch's.
            let total = std::mem::replace(&mut prev.rejected_total, m.rejected_total);
            m.rejected_total.saturating_sub(total)
        };
        let mut row = EpochRecord {
            epoch,
            admitted: snap.admitted,
            rejected,
            cache_hit: snap.cache_hit,
            cache_hits: snap.cache.hits,
            cache_misses: snap.cache.misses,
            cache_evictions: snap.cache.evictions,
            cache_invalidations: snap.cache.invalidations,
            congestion: snap.congestion,
            fresh_congestion: snap.fresh_congestion,
            fallback_pairs: snap.fallback_pairs,
            unserved_pairs: snap.unserved_pairs,
            queue_depth: snap.queue_depth,
            failed_edges,
            epoch_wall_ns: m.epoch_ns,
            slo_breaches: Vec::new(),
        };
        let inputs = SloInputs {
            p99_epoch_wall_ms: self.epoch_wall.quantile(0.99).map(|ns| ns / 1e6),
            cache_hit_rate: self.windowed_hit_rate(&row),
        };
        let breaches = self.watchdog.evaluate(&row, inputs);
        row.slo_breaches = breaches.iter().map(|b| b.rule.to_string()).collect();
        self.journal.record(JournalEvent::EpochEnd {
            row,
            demand_fp: m.demand_fp,
            lower_bound: snap.lower_bound,
        });
        if !breaches.is_empty() {
            self.dump_on_breach(epoch, &breaches);
        }
    }

    /// Cache hit rate over the current epoch plus the journal's last
    /// `HIT_RATE_WINDOW - 1` rows; `None` until any lookup happened
    /// (empty epochs perform none).
    fn windowed_hit_rate(&self, current: &EpochRecord) -> Option<f64> {
        let (mut hits, mut lookups) = (current.cache_hits, current.cache_hits);
        lookups += current.cache_misses;
        for r in &self.journal.rows(HIT_RATE_WINDOW - 1) {
            hits += r.cache_hits;
            lookups += r.cache_hits + r.cache_misses;
        }
        if lookups == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(hits as f64 / lookups as f64)
    }

    /// Breach reaction: snapshot the journal's recent epochs to a
    /// breach-stamped artifact (no-op unless dumps are armed; capped at
    /// [`MAX_BREACH_DUMPS`]).
    fn dump_on_breach(&self, epoch: u64, breaches: &[SloBreach]) {
        let Some(cfg) = &self.breach_dump else {
            return;
        };
        if self.dumps.lock().len() >= MAX_BREACH_DUMPS {
            return;
        }
        let rules = breaches
            .iter()
            .map(|b| b.rule)
            .collect::<Vec<_>>()
            .join(",");
        let epoch_str = epoch.to_string();
        let doc = self.journal.dump_json_last(
            cfg.context_epochs,
            &[
                ("reason", "slo-breach"),
                ("breach_epoch", epoch_str.as_str()),
                ("rules", rules.as_str()),
            ],
        );
        let path = format!("{}-epoch{epoch:06}.json", cfg.prefix);
        match std::fs::write(&path, doc) {
            Ok(()) => {
                sor_obs::warn!("epoch {epoch}: SLO breach ({rules}); journal dumped to {path}");
                self.dumps.lock().push(path);
            }
            Err(e) => {
                sor_obs::warn!(
                    "epoch {epoch}: SLO breach ({rules}); journal dump to {path} failed: {e}"
                );
            }
        }
    }

    /// The flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The timeline: the journal's newest `epoch_end` rows, at most
    /// [`DEFAULT_TIMELINE_CAPACITY`], oldest first.
    pub fn timeline(&self) -> Vec<EpochRecord> {
        self.journal.rows(DEFAULT_TIMELINE_CAPACITY)
    }

    /// The SLO watchdog (config, health summary).
    pub fn watchdog(&self) -> &SloWatchdog {
        &self.watchdog
    }

    /// Paths of the breach dumps written so far, in breach order.
    pub fn breach_dumps(&self) -> Vec<String> {
        self.dumps.lock().clone()
    }

    /// Start the scrape endpoint on `addr` (`127.0.0.1:0` binds an
    /// ephemeral port; read it back from
    /// [`TelemetryServer::local_addr`]).
    pub fn serve_http<A: ToSocketAddrs>(
        self: &Arc<Self>,
        addr: A,
    ) -> std::io::Result<TelemetryServer> {
        TelemetryServer::start(addr, Arc::clone(self) as Arc<dyn TelemetryHandler>)
    }
}

impl TelemetryHandler for Observer {
    /// The full registry snapshot plus gauges for the streaming tail
    /// percentiles and the SLO health counters.
    fn metrics(&self) -> String {
        let mut gauges = PromGauges::new();
        for (hist, base) in [
            (&self.epoch_wall, "serve/epoch_wall_ns"),
            (&self.reopt_wall, "serve/reopt_wall_ns"),
            (&self.cache_lookup, "serve/cache_lookup_ns"),
            (&self.queue_wait, "serve/queue_wait_ns"),
        ] {
            if let Some((p50, p90, p99, p999)) = hist.tail_summary() {
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99), ("0.999", p999)] {
                    gauges.push(base, &format!("quantile=\"{q}\""), v);
                }
            }
        }
        let health = self.watchdog.summary();
        #[allow(clippy::cast_precision_loss)]
        {
            gauges.push("slo/epochs_evaluated", "", health.epochs_evaluated as f64);
            gauges.push("slo/breaches_total", "", health.total_breaches as f64);
            for (rule, count) in sor_obs::SLO_RULES.iter().zip(health.breaches_by_rule) {
                gauges.push("slo/breaches", &format!("rule=\"{rule}\""), count as f64);
            }
        }
        sor_obs::render_prometheus(&sor_obs::snapshot(), &gauges)
    }

    fn timeline_json(&self, last: usize) -> String {
        render_json(&self.journal.rows(last.min(DEFAULT_TIMELINE_CAPACITY)))
    }

    fn health(&self) -> String {
        self.watchdog.summary().render_json()
    }
}

/// The [`TOP_EDGES_K`] most utilized edges of `g` under `loads`,
/// utilization-descending (ties by edge id).
fn top_edges(g: &Graph, loads: &EdgeLoads) -> Vec<EdgeLoad> {
    let mut top: Vec<EdgeLoad> = loads
        .as_slice()
        .iter()
        .enumerate()
        .filter(|&(_, &load)| load > 0.0)
        .map(|(i, &load)| {
            let e = EdgeId::from_usize(i);
            EdgeLoad {
                edge: e.0,
                load,
                utilization: load / g.cap(e),
            }
        })
        .collect();
    top.sort_by(|a, b| {
        b.utilization
            .total_cmp(&a.utilization)
            .then(a.edge.cmp(&b.edge))
    });
    top.truncate(TOP_EDGES_K);
    top
}

/// Fingerprint `r`'s published path set and store it as the pair's
/// latest: `Some(true)` for a pair never published before, `Some(false)`
/// for a changed path set, `None` for an unchanged one.
fn churn(pair_fps: &mut BTreeMap<(u32, u32), u64>, r: &PublishedRoute) -> Option<bool> {
    let mut fp = FNV_OFFSET;
    for (edges, _) in &r.paths {
        fp = fnv1a_u64(fp, edges.len() as u64);
        for e in edges {
            fp = fnv1a_u64(fp, u64::from(e.0));
        }
    }
    match pair_fps.insert((r.s.0, r.t.0), fp) {
        None => Some(true),
        Some(prev) => (prev != fp).then_some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheDeltas;

    /// Close `snap` on a graph the snapshot's (route-free) epoch never
    /// touches.
    fn close(o: &Observer, snap: &EpochSnapshot, m: EpochMeasures) {
        o.close_epoch(&sor_graph::gen::path_graph(2), snap, 0, m);
    }

    fn snap(epoch: u64, hit: bool) -> EpochSnapshot {
        let mut s = EpochSnapshot {
            epoch,
            admitted: 4,
            cache_hit: hit,
            congestion: 2.0,
            lower_bound: 1.0,
            fallback_pairs: 0,
            unserved_pairs: 0,
            queue_depth: 0,
            sparsity: 2,
            fresh_congestion: Some(1.0),
            cache: CacheDeltas::default(),
            routes: Vec::new(),
        };
        if hit {
            s.cache.hits = 1;
        } else {
            s.cache.misses = 1;
        }
        s
    }

    #[test]
    fn close_epoch_feeds_journal_timeline_and_hit_rate() {
        let o = Observer::new(SloConfig::disabled());
        close(&o, &snap(0, false), EpochMeasures::default());
        for e in 1..5 {
            close(
                &o,
                &snap(e, true),
                EpochMeasures {
                    rejected_total: e,
                    epoch_ns: 1_000_000,
                    reopt_ns: 400_000,
                    cache_lookup_ns: 10_000,
                    ..EpochMeasures::default()
                },
            );
        }
        let records = o.timeline();
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].rejected, 0);
        assert!(records[1..].iter().all(|r| r.rejected == 1));
        assert_eq!(o.journal().len(), 5, "one epoch_end per close");
        // 1 miss + 4 hits
        let rate = o.windowed_hit_rate(&records[4]).expect("lookups happened");
        assert!(rate > 0.5, "mostly hits: {rate}");
    }

    #[test]
    fn slo_breach_lands_in_timeline_record() {
        let o = Observer::new(SloConfig {
            max_congestion_ratio: Some(1.5),
            ..SloConfig::disabled()
        });
        // congestion 2.0 vs fresh 1.0 → ratio 2.0 > 1.5
        close(&o, &snap(0, false), EpochMeasures::default());
        let records = o.timeline();
        assert_eq!(records[0].slo_breaches, vec!["max_congestion_ratio"]);
        let health = o.watchdog().summary();
        assert_eq!(health.total_breaches, 1);
        assert!(o.health().contains("degraded"));
        assert!(o.breach_dumps().is_empty(), "dumps are not armed");
    }

    #[test]
    fn breach_dumps_stop_at_the_cap() {
        let dir = std::env::temp_dir().join(format!("sor-observer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let prefix = dir.join("breach").to_string_lossy().into_owned();
        let o = Observer::new(SloConfig {
            max_congestion_ratio: Some(1.5),
            ..SloConfig::disabled()
        })
        .with_breach_dump(prefix.clone(), 2);
        for e in 0..MAX_BREACH_DUMPS as u64 + 3 {
            close(&o, &snap(e, false), EpochMeasures::default());
        }
        let dumps = o.breach_dumps();
        assert_eq!(dumps.len(), MAX_BREACH_DUMPS);
        assert_eq!(dumps[0], format!("{prefix}-epoch000000.json"));
        let text = std::fs::read_to_string(&dumps[1]).expect("dump written");
        let dump = sor_obs::parse_journal(&text).expect("dump parses");
        // two epochs of context around breach epoch 1: epochs 0 and 1
        assert!(dump.events.iter().any(|(_, e)| e.epoch() == 0));
        assert!(dump.events.iter().all(|(_, e)| e.epoch() <= 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exposition_includes_percentiles_and_slo_gauges() {
        let o = Observer::new(SloConfig::serving_defaults());
        close(
            &o,
            &snap(0, false),
            EpochMeasures {
                queue_waits_ns: vec![5_000],
                epoch_ns: 2_000_000,
                reopt_ns: 900_000,
                cache_lookup_ns: 50_000,
                ..EpochMeasures::default()
            },
        );
        let text = o.metrics();
        assert!(text.contains("sor_serve_epoch_wall_ns{quantile=\"0.99\"}"));
        assert!(text.contains("sor_serve_queue_wait_ns{quantile=\"0.5\"}"));
        assert!(text.contains("sor_slo_epochs_evaluated 1"));
        assert!(text.contains("sor_slo_breaches{rule=\"max_congestion_ratio\"}"));
        assert!(!text.contains("window="), "no window-rate gauges");
        let json = o.timeline_json(DEFAULT_TIMELINE_CAPACITY);
        assert!(json.contains("\"format\":\"sor-timeline/1\""));
    }
}
