//! End-to-end flight-recorder forensics: a seeded workload with an
//! injected failure runs with an observer attached and an impossible SLO
//! armed, the observer writes breach-triggered dumps automatically, and
//! the forensics analyzer attributes the congestion movement to the
//! injected failure — the exact offline loop `sor forensics` runs on a
//! production artifact.

use sor_graph::gen;
use sor_obs::{
    fold_epochs, Cause, CauseAttribution, EdgeShift, EpochStats, EpochTransition, ForensicsReport,
    JournalDump, JournalEvent, SloConfig, CAUSES, DEFAULT_JOURNAL_CAPACITY,
};
use sor_serve::{run_workload, EngineConfig, Observer, WorkloadConfig, MAX_BREACH_DUMPS};
use std::sync::Arc;

#[test]
fn breach_dump_and_forensics_attribute_injected_failure() {
    let dir = std::env::temp_dir().join(format!("sor-forensics-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let prefix = dir.join("breach").to_string_lossy().into_owned();

    // A cycle: every edge is connectivity-preserving, and failing one
    // reroutes real traffic (the sampled systems ride the cycle), so the
    // failure epochs move congestion for a reason forensics can name.
    let g = gen::cycle_graph(8);
    let ecfg = EngineConfig {
        sparsity: 3,
        trees: 4,
        epoch_batch: 8,
        queue_bound: 32,
        cache_capacity: 8,
        seed: 11,
        ..EngineConfig::default()
    };
    // One recurring pattern: steady epochs re-solve an identical demand
    // on an identical cached system, so every steady transition has an
    // exactly-zero congestion delta — whatever moves, the failure moved.
    // Seed 2 draws a victim edge that carries published load, so the
    // failure epochs shift real traffic instead of breaking a dead link.
    let wcfg = WorkloadConfig {
        epochs: 8,
        rate: 4,
        patterns: 1,
        pairs_per_pattern: 2,
        fail_at: Some(3),
        restore_after: 2,
        seed: 2,
    };
    // A hit rate no run can reach: the watchdog breaches deterministically
    // once lookups happen, so the dump trigger fires without wall-clock
    // dependence.
    let slo = SloConfig {
        min_cache_hit_rate: Some(2.0),
        ..SloConfig::disabled()
    };
    let observer = Arc::new(Observer::new(slo).with_breach_dump(prefix, 16));
    let report = run_workload(
        &g,
        ecfg,
        &wcfg,
        &wcfg.pattern_pool(&g),
        Some(Arc::clone(&observer)),
    );
    assert_eq!(report.failures.len(), 1, "schedule injected one failure");
    let breach_dumps = observer.breach_dumps();
    assert!(
        !breach_dumps.is_empty(),
        "SLO breach must write a journal dump"
    );
    assert!(
        breach_dumps.len() <= MAX_BREACH_DUMPS,
        "dump cap respected: {breach_dumps:?}"
    );

    // Every artifact is a parseable sor-journal/3 document carrying the
    // breach metadata.
    let mut saw_failure_event = false;
    for path in &breach_dumps {
        let text = std::fs::read_to_string(path).expect("breach dump exists on disk");
        assert!(text.starts_with("{\"format\":\"sor-journal/3\""));
        let dump: JournalDump = sor_obs::parse_journal(&text).expect("breach dump parses");
        assert!(
            dump.meta
                .iter()
                .any(|(k, v)| k == "reason" && v == "slo-breach"),
            "dump meta names its trigger: {:?}",
            dump.meta
        );
        assert!(dump.meta.iter().any(|(k, _)| k == "rules"));
        assert!(!dump.events.is_empty(), "dump carries journal context");
        saw_failure_event |= dump
            .events
            .iter()
            .any(|(_, e)| matches!(e, JournalEvent::EdgeFail { .. }));
    }
    assert!(
        saw_failure_event,
        "at least one dump's context window covers the injected failure"
    );

    // This short run fits comfortably inside the ring: nothing dropped.
    let journal = observer.journal();
    let events: Vec<JournalEvent> = journal.events().into_iter().map(|(_, e)| e).collect();
    assert!(
        events.len() <= DEFAULT_JOURNAL_CAPACITY,
        "run must fit in the default ring"
    );
    assert_eq!(journal.dropped(), 0, "no eviction in a fitting run");

    // Offline attribution over the full journal: the injected failure is
    // the top-ranked cause of the epoch-over-epoch movement.
    let forensics: ForensicsReport = sor_obs::analyze(&events, 8);
    assert_eq!(forensics.epochs.len(), 8, "one folded record per epoch");
    let folded: Vec<EpochStats> = fold_epochs(&events);
    assert_eq!(
        folded, forensics.epochs,
        "analyze folds the same per-epoch stats fold_epochs exposes"
    );
    let top: Cause = forensics
        .top_cause()
        .expect("non-empty run has transitions");
    assert_eq!(
        top,
        Cause::Failure,
        "injected failure must dominate the attribution:\n{}",
        forensics.render_text()
    );
    let failure_attr: &CauseAttribution = forensics
        .causes
        .iter()
        .find(|c| c.cause == Cause::Failure)
        .expect("failure row present");
    assert!(
        failure_attr.transitions >= 1,
        "failure epochs produce failure-classified transitions"
    );
    assert!(
        failure_attr.share > 0.99,
        "with zero-delta steady epochs, all movement belongs to the \
         failure (share = {})",
        failure_attr.share
    );
    assert_eq!(
        forensics.causes.len(),
        CAUSES.len(),
        "one attribution row per causal bucket"
    );
    let failure_transition: &EpochTransition = forensics
        .transitions
        .iter()
        .find(|t| t.cause == Cause::Failure)
        .expect("a transition lands on the failure epoch");
    assert!(failure_transition.to > failure_transition.from);
    let top_shift: &EdgeShift = forensics
        .edge_shifts
        .first()
        .expect("a failure run moves load between edges");
    assert!(
        top_shift.delta.abs() > 0.0,
        "edge-shift table only records real movement"
    );
    let json = forensics.to_json();
    assert!(json.contains("\"format\":\"sor-forensics/1\""));
    assert!(json.contains("\"top_cause\":\"failure\""));

    std::fs::remove_dir_all(&dir).ok();
}
