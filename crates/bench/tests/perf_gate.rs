//! End-to-end check of the perf harness on a fast suite subset: run
//! real kernels, serialize a baseline, parse it back, and gate — clean
//! against itself, failing with a *named* metric when perturbed.

use sor_bench::perf::{gate, parse_baseline, run_suite, suite_to_json, GatePolicy, PerfConfig};
use sor_obs::snapshot::DiffStatus;
use std::sync::{Mutex, PoisonError};

/// Metric capture is process-global, so two suites running at once on
/// the test harness's threads would count each other's work and fail the
/// trial-determinism check; the suites in this file take turns.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn quick_subset(filter: &str) -> sor_bench::perf::SuiteRun {
    let _turn = SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut cfg = PerfConfig::new(true);
    cfg.trials = 2;
    cfg.warmup = 0;
    cfg.filter = Some(filter.to_string());
    run_suite(&cfg)
}

#[test]
fn subset_round_trips_and_gates_clean() {
    let suite = quick_subset("kernel/frt_build");
    assert_eq!(suite.runs.len(), 1);
    assert!(suite.runs[0].deterministic, "fixed seeds must be stable");

    let text = suite_to_json(&suite, true, &[("profile", "test")]);
    let baseline = parse_baseline(&text).expect("own output parses");
    let report = gate(&baseline, &suite, &GatePolicy::default());
    assert_eq!(
        report.status(),
        DiffStatus::Pass,
        "{}",
        report.render_text()
    );
    assert!(report.num_checked() > 0);
}

#[test]
fn work_snapshot_round_trips_through_obs_parser() {
    let suite = quick_subset("kernel/mwu_restricted");
    let work = &suite.runs[0].work;
    assert!(!work.counters.is_empty(), "mwu kernel records counters");

    let json = work.to_json();
    let (back, warnings) = sor_obs::snapshot::parse_snapshot(&json).expect("own export parses");
    assert!(warnings.is_empty(), "clean export: {warnings:?}");
    assert_eq!(back.counters, work.counters);
    assert_eq!(back.spans.len(), work.spans.len());

    let err: sor_obs::JsonError = sor_obs::parse_json("{ truncated").expect_err("bad json");
    assert!(err.to_string().contains("parse error at byte"), "{err}");
}

#[test]
fn perturbed_work_counter_fails_with_named_metric() {
    let suite = quick_subset("kernel/eval_exact");
    assert_eq!(suite.runs.len(), 1);
    let baseline = parse_baseline(&suite_to_json(&suite, false, &[])).expect("parses");

    let mut bad = suite.clone();
    let c = bad.runs[0]
        .work
        .counters
        .first_mut()
        .expect("eval kernel records counters");
    let name = c.name.clone();
    c.value += 1;

    let report = gate(&baseline, &bad, &GatePolicy::default());
    assert_eq!(report.status(), DiffStatus::Fail);
    assert!(
        report.render_text().contains(&name),
        "report must name the failing metric {name}: {}",
        report.render_text()
    );
}

#[test]
fn perturbed_quality_fails_and_tolerance_forgives() {
    let suite = quick_subset("kernel/frt_build");
    let baseline = parse_baseline(&suite_to_json(&suite, false, &[])).expect("parses");

    let mut bad = suite.clone();
    let (qname, qval) = bad.runs[0]
        .quality
        .first_mut()
        .map(|(n, v)| {
            *v *= 1.05;
            (n.clone(), *v)
        })
        .expect("frt kernel records quality");
    assert!(qval.is_finite());

    let strict = gate(&baseline, &bad, &GatePolicy::default());
    assert_eq!(strict.status(), DiffStatus::Fail);
    assert!(strict.render_text().contains(&qname));

    let loose = GatePolicy {
        quality_tol: 0.1,
        ..GatePolicy::default()
    };
    assert_eq!(gate(&baseline, &bad, &loose).status(), DiffStatus::Pass);
}
