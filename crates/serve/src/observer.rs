//! The engine's observer: every observation store behind one value.
//!
//! One [`Observer`] owns the flight-recorder journal, the SLO watchdog,
//! the four wall-clock tail histograms and the optional breach-dump
//! target. It is shared (`Arc`) between the engine, which attaches it
//! with [`crate::Engine::attach_observer`], and readers such as the
//! scrape thread (`/metrics`, `/timeline`, `/health`) or the CLI writing
//! artifacts at exit.
//!
//! The engine makes two kinds of call: `record` for each causal event
//! of the epoch lifecycle, and one epoch close per published epoch,
//! which observes the walls, builds the epoch's timeline row once, runs
//! the watchdog on it, journals the row (breaches included) as the
//! epoch's `epoch_end` event and writes the journal dump on a breach.
//! The journal is the only per-epoch store: the timeline is its newest
//! `epoch_end` rows. Observation is strictly read-only over the epoch's
//! outputs: attaching an observer cannot change a published route or
//! rate (`serve_determinism.rs` asserts bit-equality either way).

use crate::engine::EpochSnapshot;
use parking_lot::Mutex;
use sor_obs::timeline::{render_json, DEFAULT_TIMELINE_CAPACITY};
use sor_obs::{
    EpochRecord, Journal, JournalEvent, LogHistogram, PromGauges, SloBreach, SloConfig, SloInputs,
    SloWatchdog, TelemetryHandler, TelemetryServer,
};
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// How many recent epochs the windowed cache hit rate averages over.
const HIT_RATE_WINDOW: usize = 10;

/// Breach dumps written per run at most: a breach storm must not turn
/// the flight recorder into a disk-filling loop.
pub const MAX_BREACH_DUMPS: usize = 16;

/// What the engine measured over one epoch besides its snapshot: the
/// requests rejected since the previous epoch and the wall clocks
/// (nanoseconds; zero when a phase did not run).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpochMeasures {
    /// Backpressure rejections since the previous epoch.
    pub(crate) rejected: u64,
    /// Whole `run_epoch` call.
    pub(crate) epoch_ns: u64,
    /// The rate re-optimization (MWU / integral solve).
    pub(crate) reopt_ns: u64,
    /// The path-system cache lookup (including a miss's sampling).
    pub(crate) cache_lookup_ns: u64,
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
        }
    }

    /// Arm breach-triggered dumps: every epoch that trips an SLO rule
    /// snapshots the journal's last `context_epochs` epochs (0 = all
    /// retained) to `{prefix}-epoch{NNNNNN}.json`, the `sor-journal/2`
    /// format `sor forensics` ingests, up to [`MAX_BREACH_DUMPS`] files.
    #[must_use]
    pub fn with_breach_dump(mut self, prefix: impl Into<String>, context_epochs: u64) -> Self {
        self.breach_dump = Some(BreachDump {
            prefix: prefix.into(),
            context_epochs,
        });
        self
    }

    /// Journal one causal event.
    pub(crate) fn record(&self, event: JournalEvent) {
        self.journal.record(event);
    }

    /// Record one queued request's wait (engine ingest → admission).
    pub(crate) fn observe_queue_wait_ns(&self, ns: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.queue_wait.observe(ns as f64);
    }

    /// Close one published epoch: observe the walls, build the epoch's
    /// row, evaluate the SLO watchdog on it, journal the row (with its
    /// breaches) as `epoch_end`, and dump the journal if a rule was
    /// breached.
    pub(crate) fn close_epoch(&self, snap: &EpochSnapshot, failed_edges: usize, m: EpochMeasures) {
        #[allow(clippy::cast_precision_loss)]
        {
            self.epoch_wall.observe(m.epoch_ns as f64);
            if m.reopt_ns > 0 {
                self.reopt_wall.observe(m.reopt_ns as f64);
            }
            if m.cache_lookup_ns > 0 {
                self.cache_lookup.observe(m.cache_lookup_ns as f64);
            }
        }
        let mut row = EpochRecord {
            epoch: snap.epoch,
            admitted: snap.admitted,
            rejected: m.rejected,
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
        self.record(JournalEvent::EpochEnd(row));
        if !breaches.is_empty() {
            self.dump_on_breach(snap.epoch, &breaches);
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

    fn timeline_json(&self) -> String {
        render_json(&self.timeline())
    }

    fn timeline_json_last(&self, last: usize) -> String {
        render_json(&self.journal.rows(last.min(DEFAULT_TIMELINE_CAPACITY)))
    }

    fn health(&self) -> String {
        self.watchdog.summary().render_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheDeltas;

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
        o.close_epoch(&snap(0, false), 0, EpochMeasures::default());
        for e in 1..5 {
            o.close_epoch(
                &snap(e, true),
                0,
                EpochMeasures {
                    rejected: 1,
                    epoch_ns: 1_000_000,
                    reopt_ns: 400_000,
                    cache_lookup_ns: 10_000,
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
        o.close_epoch(&snap(0, false), 0, EpochMeasures::default());
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
            o.close_epoch(&snap(e, false), 0, EpochMeasures::default());
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
        o.observe_queue_wait_ns(5_000);
        o.close_epoch(
            &snap(0, false),
            0,
            EpochMeasures {
                rejected: 0,
                epoch_ns: 2_000_000,
                reopt_ns: 900_000,
                cache_lookup_ns: 50_000,
            },
        );
        let text = o.metrics();
        assert!(text.contains("sor_serve_epoch_wall_ns{quantile=\"0.99\"}"));
        assert!(text.contains("sor_serve_queue_wait_ns{quantile=\"0.5\"}"));
        assert!(text.contains("sor_slo_epochs_evaluated 1"));
        assert!(text.contains("sor_slo_breaches{rule=\"max_congestion_ratio\"}"));
        assert!(!text.contains("window="), "no window-rate gauges");
        let json = o.timeline_json();
        assert!(json.contains("\"format\":\"sor-timeline/1\""));
    }
}
