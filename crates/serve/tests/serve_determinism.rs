//! The serving engine must be bit-deterministic for a fixed seed, and
//! observability capture must never change what it publishes.
//!
//! Mirrors `tests/obs_determinism.rs` at the umbrella level: the full
//! closed-loop workload (arrival process, epoch solves, failure
//! schedule, recovery) runs twice with metric/span capture off and once
//! with it on, and every published snapshot — routes, rates, congestion
//! bits, cache/fallback accounting — must be identical across all three.
//!
//! The tests share the process-global metrics registry, so they
//! serialize on a local mutex.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_graph::gen;
use sor_obs::{JournalEvent, SloConfig, TelemetryHandler};
use sor_serve::{
    run_workload, EngineConfig, EpochSnapshot, Observer, WorkloadConfig, WorkloadReport,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_once() -> WorkloadReport {
    run_once_observed(None)
}

fn run_once_observed(observer: Option<Arc<Observer>>) -> WorkloadReport {
    let g = gen::random_regular(20, 4, &mut StdRng::seed_from_u64(3));
    let ecfg = EngineConfig {
        sparsity: 3,
        trees: 5,
        epoch_batch: 24,
        queue_bound: 48,
        cache_capacity: 8,
        compare_fresh: true,
        seed: 7,
        ..EngineConfig::default()
    };
    let wcfg = WorkloadConfig {
        epochs: 6,
        rate: 10,
        patterns: 2,
        pairs_per_pattern: 5,
        fail_at: Some(3),
        restore_after: 2,
        seed: 7,
    };
    run_workload(&g, ecfg, &wcfg, &wcfg.pattern_pool(&g), observer)
}

/// Everything a run decides, with floats pinned to their bit patterns
/// so "deterministic" means *bit*-deterministic, not approximately so.
#[derive(PartialEq, Debug)]
struct RunBits {
    epochs: Vec<EpochSnapshot>,
    congestion_bits: Vec<u64>,
    fresh_bits: Vec<Option<u64>>,
    rate_bits: Vec<Vec<u64>>,
    admitted: usize,
    rejected: u64,
    failures: Vec<(u64, u32)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

fn bits(report: &WorkloadReport) -> RunBits {
    RunBits {
        congestion_bits: report
            .snapshots
            .iter()
            .map(|s| s.congestion.to_bits())
            .collect(),
        fresh_bits: report
            .snapshots
            .iter()
            .map(|s| s.fresh_congestion.map(f64::to_bits))
            .collect(),
        rate_bits: report
            .snapshots
            .iter()
            .map(|s| {
                s.routes
                    .iter()
                    .flat_map(|r| r.paths.iter().map(|&(_, w)| w.to_bits()))
                    .collect()
            })
            .collect(),
        epochs: report.snapshots.clone(),
        admitted: report.admitted,
        rejected: report.rejected,
        failures: report.failures.iter().map(|&(ep, e)| (ep, e.0)).collect(),
        hits: report.cache.hits,
        misses: report.cache.misses,
        evictions: report.cache.evictions,
        invalidations: report.cache.invalidations,
    }
}

#[test]
fn same_seed_same_snapshots() {
    let _guard = serial();
    sor_obs::set_enabled(false);
    sor_obs::reset();
    let a = run_once();
    let b = run_once();
    assert_eq!(bits(&a), bits(&b), "two runs with the same seed diverged");
}

#[test]
fn capture_does_not_change_published_routes() {
    let _guard = serial();
    sor_obs::set_enabled(false);
    sor_obs::reset();
    let plain = run_once();
    sor_obs::set_enabled(true);
    sor_obs::reset();
    let instrumented = run_once();
    sor_obs::set_enabled(false);
    assert_eq!(
        bits(&plain),
        bits(&instrumented),
        "enabling metric/span capture changed the serving output"
    );
}

#[test]
fn instrumented_run_records_serve_metrics() {
    let _guard = serial();
    sor_obs::set_enabled(true);
    sor_obs::reset();
    let report = run_once();
    let snap = sor_obs::snapshot();
    sor_obs::set_enabled(false);

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter("serve/cache_hits"), report.cache.hits);
    assert_eq!(counter("serve/cache_misses"), report.cache.misses);
    assert_eq!(counter("serve/requests_admitted"), report.admitted as u64);
    let depth = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve/queue_depth")
        .expect("queue-depth histogram recorded");
    assert_eq!(depth.count, report.snapshots.len() as u64);
    assert!(
        snap.spans
            .iter()
            .any(|s| s.path.last().is_some_and(|p| p == "serve/epoch")),
        "no serve/epoch span recorded"
    );
}

#[test]
fn observer_does_not_change_published_routes() {
    let _guard = serial();
    sor_obs::set_enabled(false);
    sor_obs::reset();
    let plain = run_once();

    // full observer attached: armed SLO watchdog, journal, timeline, wall
    // histograms — everything wall-clock-dependent stays off the
    // published path, so the snapshots are still bit-identical
    sor_obs::set_enabled(true);
    sor_obs::reset();
    let observer = Arc::new(Observer::new(SloConfig::serving_defaults()));
    let observed = run_once_observed(Some(Arc::clone(&observer)));
    sor_obs::set_enabled(false);
    assert_eq!(
        bits(&plain),
        bits(&observed),
        "attaching an observer changed the serving output"
    );

    // one timeline record and one watchdog pass per epoch
    assert_eq!(observer.timeline().len(), plain.snapshots.len());
    let summary = observer.watchdog().summary();
    assert_eq!(summary.epochs_evaluated, plain.snapshots.len() as u64);

    // and the journal saw the whole run: one begin/end bracket per epoch
    // plus the schedule's failure and restore
    let events = observer.journal().events();
    let count = |tag: &str| events.iter().filter(|(_, e)| e.type_tag() == tag).count();
    assert_eq!(count("epoch_begin"), plain.snapshots.len());
    assert_eq!(count("epoch_end"), plain.snapshots.len());
    assert_eq!(count("edge_fail"), plain.failures.len());
    assert_eq!(count("edge_restore"), 1);
    assert!(count("reopt") > 0 && count("top_edges") > 0);
    // the journaled epoch rows carry the published congestion bits
    for snap in &plain.snapshots {
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                JournalEvent::EpochEnd(row)
                    if row.epoch == snap.epoch
                        && row.congestion.to_bits() == snap.congestion.to_bits()
            )),
            "epoch {} row missing or drifted",
            snap.epoch
        );
    }
    // round-trip: the dump parses and preserves every event
    let dump = observer
        .journal()
        .dump_json(&[("source", "serve_determinism")]);
    let parsed = sor_obs::parse_journal(&dump).expect("journal dump parses");
    assert_eq!(parsed.events.len(), events.len());
}

/// An SLO no run can meet once the cache is consulted: every epoch with
/// a lookup breaches, with no wall clock involved.
fn unreachable_hit_rate() -> SloConfig {
    SloConfig {
        min_cache_hit_rate: Some(2.0),
        ..SloConfig::disabled()
    }
}

#[test]
fn journal_dump_carries_the_timeline() {
    let _guard = serial();
    let observer = Arc::new(Observer::new(unreachable_hit_rate()));
    run_once_observed(Some(Arc::clone(&observer)));
    let dump =
        sor_obs::parse_journal(&observer.journal().dump_json(&[])).expect("journal dump parses");
    let rows: Vec<sor_obs::EpochRecord> = dump
        .events
        .into_iter()
        .filter_map(|(_, e)| match e {
            JournalEvent::EpochEnd(row) => Some(row),
            _ => None,
        })
        .collect();
    assert!(rows.iter().any(|r| r.fresh_congestion.is_some()));
    assert!(rows.iter().any(|r| !r.slo_breaches.is_empty()));
    assert_eq!(
        sor_obs::timeline::render_json(&rows),
        observer.timeline_json(),
        "the dump's epoch_end rows are the timeline"
    );
}

#[test]
fn seeded_journals_match_up_to_epoch_walls() {
    let _guard = serial();
    let journal_of = || {
        let observer = Arc::new(Observer::new(unreachable_hit_rate()));
        run_once_observed(Some(Arc::clone(&observer)));
        let mut events = observer.journal().events();
        for (_, e) in &mut events {
            if let JournalEvent::EpochEnd(row) = e {
                row.epoch_wall_ns = 0;
            }
        }
        events
    };
    let first = journal_of();
    assert!(first
        .iter()
        .any(|(_, e)| matches!(e, JournalEvent::EpochEnd(row) if !row.slo_breaches.is_empty())));
    assert_eq!(
        first,
        journal_of(),
        "two runs with one seed journaled different events"
    );
}

#[test]
fn engine_exposes_its_attached_observer() {
    let g = gen::hypercube(3);
    let mut engine = sor_serve::Engine::new(g, EngineConfig::default());
    assert!(engine.observer().is_none());
    let observer = Arc::new(Observer::default());
    engine.attach_observer(Arc::clone(&observer));
    let attached = engine.observer().expect("observer attached");
    assert!(Arc::ptr_eq(attached, &observer));
}

/// FNV-1a over everything a run publishes: per epoch the congestion,
/// lower-bound and fresh-baseline bits, then every route's pair, demand
/// bits, and each path's edge list and rate bits.
fn published_fingerprint(report: &WorkloadReport) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for snap in &report.snapshots {
        h = mix(h, snap.congestion.to_bits());
        h = mix(h, snap.lower_bound.to_bits());
        h = mix(h, snap.fresh_congestion.map_or(u64::MAX, f64::to_bits));
        for r in &snap.routes {
            h = mix(h, u64::from(r.s.0) << 32 | u64::from(r.t.0));
            h = mix(h, r.demand.to_bits());
            for (edges, rate) in &r.paths {
                h = mix(h, edges.len() as u64);
                for e in edges {
                    h = mix(h, u64::from(e.0));
                }
                h = mix(h, rate.to_bits());
            }
        }
    }
    h
}

/// A seeded 40-epoch run over an expander with an edge down for epochs
/// 10–19 publishes exactly the output pinned here. The value comes from
/// the engine that routed every draw and copied its system each epoch, so
/// it pins that the memoized sampler and the shared epoch state publish
/// the same bits; any change that moves a published bit moves it.
#[test]
fn published_output_matches_its_pinned_fingerprint() {
    let _guard = serial();
    let g = gen::random_regular(64, 4, &mut StdRng::seed_from_u64(12));
    let ecfg = EngineConfig {
        sparsity: 11,
        trees: 8,
        epoch_batch: 32,
        queue_bound: 64,
        cache_capacity: 4,
        compare_fresh: true,
        seed: 12,
        ..EngineConfig::default()
    };
    let wcfg = WorkloadConfig {
        epochs: 40,
        rate: 32,
        patterns: 6,
        pairs_per_pattern: 16,
        fail_at: Some(10),
        restore_after: 10,
        seed: 12,
    };
    let report = run_workload(&g, ecfg, &wcfg, &wcfg.pattern_pool(&g), None);
    assert_eq!(report.failures.len(), 1);
    assert!(report.cache.hits > 0 && report.cache.evictions > 0);
    let fp = published_fingerprint(&report);
    assert_eq!(
        fp, 0x4780_c600_48b9_8c0e,
        "published output moved: fingerprint {fp:#018x}"
    );
}
