//! End-to-end check of the perf gate on a fast suite subset: run real
//! kernels, serialize a baseline, parse it back, and gate — clean
//! against itself, failing with a *named* metric when perturbed — plus
//! the committed baseline under a filter and under malformed input.

use sor_bench::perf::{baseline_json, gate, parse_baseline, run_suite, BenchRun, Status};
use std::sync::{Mutex, PoisonError};

/// Metric capture is process-global, so two suites running at once on
/// the test harness's threads would count each other's work and fail the
/// trial-determinism check; the suites in this file take turns.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn subset(filter: &str) -> Vec<BenchRun> {
    let _turn = SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    run_suite(Some(filter))
}

fn committed_baseline() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
    std::fs::read_to_string(path).expect("the committed baseline is readable")
}

#[test]
fn subset_round_trips_and_gates_clean() {
    let runs = subset("kernel/frt_build");
    assert_eq!(runs.len(), 1);
    assert!(runs[0].deterministic, "fixed seeds must be stable");

    let text = baseline_json(&runs, &[("profile", "test")]).expect("deterministic");
    let baseline = parse_baseline(&text).expect("own output parses");
    let report = gate(&baseline, &runs, None);
    assert_eq!(report.status(), Status::Pass, "{}", report.render_text());
    assert!(report.checked > 0);
}

#[test]
fn filtered_gate_of_the_committed_baseline_passes_with_one_bench() {
    let baseline = parse_baseline(&committed_baseline()).expect("committed baseline parses");
    assert!(baseline.len() > 1);
    let filter = Some("kernel/frt_build");
    let report = gate(&baseline, &subset("kernel/frt_build"), filter);
    assert_eq!(report.status(), Status::Pass, "{}", report.render_text());
    assert_eq!(report.benches, 1);
    assert!(report.deltas.is_empty(), "{}", report.render_text());
}

#[test]
fn work_snapshot_round_trips_through_obs_parser() {
    let runs = subset("kernel/mwu_restricted");
    let work = &runs[0].work;
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
    let runs = subset("kernel/eval_exact");
    assert_eq!(runs.len(), 1);
    let baseline =
        parse_baseline(&baseline_json(&runs, &[]).expect("deterministic")).expect("parses");

    let mut bad = runs.clone();
    let c = bad[0]
        .work
        .counters
        .first_mut()
        .expect("eval kernel records counters");
    let name = c.name.clone();
    c.value += 1;

    let report = gate(&baseline, &bad, None);
    assert_eq!(report.status(), Status::Fail);
    assert!(
        report.render_text().contains(&name),
        "report must name the failing metric {name}: {}",
        report.render_text()
    );
}

#[test]
fn perturbed_quality_fails_with_named_metric() {
    let runs = subset("kernel/frt_build");
    let baseline =
        parse_baseline(&baseline_json(&runs, &[]).expect("deterministic")).expect("parses");

    let mut bad = runs.clone();
    let qname = bad[0]
        .quality
        .first_mut()
        .map(|(n, v)| {
            *v *= 1.05;
            n.clone()
        })
        .expect("frt kernel records quality");

    let report = gate(&baseline, &bad, None);
    assert_eq!(report.status(), Status::Fail);
    assert!(report.render_text().contains(&qname));
}

/// SplitMix64 over (seed, index): a deterministic stream without rand.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn truncated_baselines_are_errors() {
    let text = committed_baseline();
    let complete = text.trim_end().len();
    for (i, _) in text.char_indices().filter(|&(i, _)| i < complete) {
        // the top-level object only closes at its last byte, so every
        // shorter prefix is incomplete
        assert!(parse_baseline(&text[..i]).is_err(), "prefix {i} parsed");
    }
}

#[test]
fn byte_flipped_baselines_never_panic() {
    // JSON punctuation and literal starters reach the deepest parser
    // states; the rest are arbitrary (possibly invalid UTF-8, repaired
    // lossily before parsing).
    const FLIP_BYTES: &[u8] = b"\"\\{}[]:,-+.eE0123456789tfnu \t\n\x00\x7f\xc3\xe2\xf0\xff";
    let text = committed_baseline();
    let len = u64::try_from(text.len()).expect("small file");
    let picks = u64::try_from(FLIP_BYTES.len()).expect("small table");
    for round in 0..256u64 {
        let mut bytes = text.clone().into_bytes();
        for f in 0..1 + mix(round, 1) % 4 {
            let at = usize::try_from(mix(round, 2 + 2 * f) % len).expect("in range");
            let pick = usize::try_from(mix(round, 3 + 2 * f) % picks).expect("in range");
            bytes[at] = FLIP_BYTES[pick];
        }
        // Ok or Err are both fine; reaching the next round is the test
        let _ = parse_baseline(&String::from_utf8_lossy(&bytes));
    }
}
