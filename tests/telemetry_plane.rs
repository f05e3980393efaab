//! Umbrella-level exercise of the live telemetry plane's public
//! surface: the observer's store constants and exposition, log-bucket
//! geometry, the epoch timeline, SLO breach records and health
//! summaries, Prometheus name mangling, and the walls and cache deltas
//! an observed run carries. This is the cross-crate coverage for API
//! items whose natural callers live inside their own crate (`sor-obs`,
//! `sor-serve`).
//!
//! The tests share the process-global metrics registry, so they
//! serialize on a local mutex.

use semi_oblivious_routing::graph::gen;
use semi_oblivious_routing::obs;
use semi_oblivious_routing::obs::loghist::{log_bucket_of, SUB_BUCKETS};
use semi_oblivious_routing::obs::timeline::DEFAULT_TIMELINE_CAPACITY;
use semi_oblivious_routing::obs::{
    prom_name, EpochRecord, HealthSummary, Journal, JournalEvent, SloBreach, SloConfig, SloInputs,
    SloWatchdog, TelemetryHandler, DEFAULT_JOURNAL_CAPACITY,
};
use semi_oblivious_routing::serve::{
    run_workload, CacheDeltas, EngineConfig, Observer, WorkloadConfig, MAX_BREACH_DUMPS,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn observer_constants_and_stores_describe_the_plane() {
    let _guard = serial();
    obs::reset();
    obs::set_enabled(true);

    // the documented bounds: the journal's ring holds far more events
    // than the timeline shows rows, and breach storms stop at the cap
    assert_eq!(DEFAULT_JOURNAL_CAPACITY, 8192);
    assert_eq!(DEFAULT_TIMELINE_CAPACITY, 256);
    assert_eq!(MAX_BREACH_DUMPS, 16);

    // /metrics exports the registry's cumulative counters and histograms
    // as they stand; per-epoch rates are the scraper's to derive
    let observer = Observer::default();
    obs::counter_add!("umbrella/ticked", 5);
    obs::observe_into!("umbrella/obs_hist", 3.0);
    let text = observer.metrics();
    obs::set_enabled(false);
    assert!(text.contains("# TYPE sor_umbrella_ticked counter\nsor_umbrella_ticked 5\n"));
    assert!(text.contains("sor_umbrella_obs_hist_count 1\n"));
    assert!(!text.contains("_rate{"), "no window-rate gauges: {text}");
    // a fresh observer has evaluated nothing and recorded nothing
    assert!(text.contains("sor_slo_epochs_evaluated 0\n"));
    assert!(observer.journal().is_empty());
    assert!(observer.timeline().is_empty());
    assert!(observer.breach_dumps().is_empty());
}

#[test]
fn log_bucket_geometry_matches_sub_bucket_constant() {
    // SUB_BUCKETS buckets per doubling: v and 2v land exactly
    // SUB_BUCKETS apart
    assert_eq!(log_bucket_of(1.0), Some(0));
    assert_eq!(log_bucket_of(2.0), Some(SUB_BUCKETS));
    assert_eq!(log_bucket_of(4.0), Some(2 * SUB_BUCKETS));
    assert_eq!(
        log_bucket_of(0.5),
        None,
        "sub-unit values use the underflow bucket"
    );
    assert_eq!(log_bucket_of(f64::NAN), None);
}

#[test]
fn timeline_and_watchdog_round_trip_breaches() {
    let journal = Journal::new();
    let watchdog = SloWatchdog::new(SloConfig {
        max_congestion_ratio: Some(1.5),
        max_p99_epoch_wall_ms: None,
        min_cache_hit_rate: None,
        max_fallback_fraction: None,
    });
    let mut rec = EpochRecord {
        epoch: 0,
        congestion: 3.0,
        fresh_congestion: Some(1.0),
        admitted: 4,
        ..EpochRecord::default()
    };
    let breaches: Vec<SloBreach> = watchdog.evaluate(&rec, SloInputs::default());
    assert_eq!(breaches.len(), 1);
    assert_eq!(breaches[0].rule, "max_congestion_ratio");
    assert!((breaches[0].value - 3.0).abs() < 1e-9);
    assert!((breaches[0].threshold - 1.5).abs() < 1e-9);
    assert!(breaches[0].event_line().starts_with("SLO breach epoch=0"));
    rec.slo_breaches = breaches.iter().map(|b| b.rule.to_string()).collect();
    journal.record(JournalEvent::EpochEnd {
        row: rec.clone(),
        demand_fp: None,
        lower_bound: 0.0,
    });
    assert_eq!(journal.rows(DEFAULT_TIMELINE_CAPACITY), vec![rec]);

    let summary: HealthSummary = watchdog.summary();
    assert_eq!(summary.epochs_evaluated, 1);
    assert_eq!(summary.total_breaches, 1);
    assert!(!summary.healthy());
    assert!(summary.render().contains("degraded"));
}

#[test]
fn prom_names_are_sanitized() {
    assert_eq!(prom_name("serve/cache_hits"), "sor_serve_cache_hits");
    assert_eq!(prom_name("a-b.c/d"), "sor_a_b_c_d");
}

#[test]
fn serve_walls_and_cache_deltas_flow_through_the_plane() {
    let _guard = serial();
    obs::reset();
    obs::set_enabled(true);
    let g = gen::hypercube(3);
    let ecfg = EngineConfig {
        sparsity: 2,
        trees: 3,
        epoch_batch: 16,
        queue_bound: 32,
        cache_capacity: 4,
        seed: 5,
        ..EngineConfig::default()
    };
    let wcfg = WorkloadConfig {
        epochs: 4,
        rate: 4,
        patterns: 1,
        pairs_per_pattern: 2,
        seed: 5,
        ..WorkloadConfig::default()
    };
    let observer = Arc::new(Observer::default());
    let report = run_workload(
        &g,
        ecfg,
        &wcfg,
        &wcfg.pattern_pool(&g),
        Some(Arc::clone(&observer)),
    );
    obs::set_enabled(false);

    // per-epoch cache deltas sum back to the lifetime counters
    let total: CacheDeltas = report
        .snapshots
        .iter()
        .fold(CacheDeltas::default(), |acc, s| CacheDeltas {
            hits: acc.hits + s.cache.hits,
            misses: acc.misses + s.cache.misses,
            evictions: acc.evictions + s.cache.evictions,
            invalidations: acc.invalidations + s.cache.invalidations,
        });
    assert_eq!(total.hits, report.cache.hits);
    assert_eq!(total.misses, report.cache.misses);

    // every epoch closes into one journaled epoch_end row, the timeline
    // is those rows, and the walls feed the tail gauges
    let rows = observer.timeline();
    assert_eq!(rows.len(), report.snapshots.len());
    let ends: Vec<EpochRecord> = observer
        .journal()
        .events()
        .into_iter()
        .filter_map(|(_, e)| match e {
            JournalEvent::EpochEnd { row, .. } => Some(row),
            _ => None,
        })
        .collect();
    assert_eq!(ends, rows);
    assert!(
        rows.iter().all(|r| r.epoch_wall_ns > 0),
        "observed epochs are timed"
    );
    for (row, snap) in rows.iter().zip(&report.snapshots) {
        assert_eq!(row.epoch, snap.epoch);
        assert_eq!(row.cache_hits, snap.cache.hits);
        assert_eq!(row.cache_misses, snap.cache.misses);
    }
    assert!(observer
        .metrics()
        .contains("sor_serve_epoch_wall_ns{quantile=\"0.99\"}"));
}
