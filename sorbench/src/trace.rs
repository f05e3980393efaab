//! Per-layer metrics of a traced run. They are read from the spans and
//! counters the library already records through `sor_obs`, plus the
//! benchmark's own `bench/*` spans around its calls into each layer.
//!
//! Counts and times are per operation of the traced half (`/op`): one
//! epoch on the serve workloads, one pass over the graph families on the
//! eval workloads. A layer that some workload does not exercise is given
//! as its share of the operation wall, which reads 0 there.

use crate::{Args, Metric, Report};
use sor_graph::{dijkstra, Graph};
use sor_obs::Snapshot;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One half of a traced run's loop.
pub struct Half {
    /// Wall of each operation, in seconds.
    pub op_walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that failed their check.
    pub bad: u64,
}

/// Mean microseconds of one `sor_graph::dijkstra` call under
/// inverse-capacity lengths, over `graphs`, each timed for 50 ms from its
/// first 64 vertices in turn: the graph layer's adjacency walk, measured
/// on every workload whether or not its loop runs the OPT solver.
pub fn dijkstra_us(graphs: &[&Graph]) -> f64 {
    let per_graph: Vec<f64> = graphs
        .iter()
        .map(|g| {
            let len = g.inv_cap_lengths();
            let start = Instant::now();
            let mut calls = 0u32;
            while start.elapsed().as_secs_f64() < 0.05 {
                for s in g.nodes().take(64) {
                    black_box(dijkstra(g, s, &len));
                    calls += 1;
                }
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    per_graph.iter().sum::<f64>() / per_graph.len() as f64
}

/// A traced run: `half(seconds)` runs the workload's loop, first untraced
/// and then with capture on, each for half of `--seconds`. Prints the phase
/// tree to stderr and writes the `--trace-out` document.
pub fn run(
    args: &Args,
    setup: &Snapshot,
    setup_reps: usize,
    dijkstra_us: f64,
    mut half: impl FnMut(f64) -> Half,
) -> Result<Report, String> {
    let seconds = args.seconds as f64 / 2.0;
    let untraced = half(seconds);
    sor_obs::reset();
    sor_obs::set_enabled(true);
    let traced = half(seconds);
    sor_obs::set_enabled(false);
    let timed = sor_obs::snapshot();
    let median = |h: &Half| crate::stats::median(&h.op_walls).unwrap_or(f64::NAN);
    let w = Window {
        setup,
        setup_reps,
        timed: &timed,
        ops: traced.op_walls.len(),
        traced_wall_s: traced.op_walls.iter().sum(),
        untraced_median_s: median(&untraced),
        traced_median_s: median(&traced),
        dijkstra_us,
    };
    let metrics = layer_metrics(&w);
    eprint!("{}", sor_obs::render_phase_tree(&timed.spans));
    if let Some(path) = &args.trace_out {
        std::fs::write(path, to_json(args, &w, &metrics))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        correct: untraced.bad + traced.bad == 0,
        metrics,
    })
}

/// What a traced run measured.
struct Window<'a> {
    /// Capture of the set-up builds.
    setup: &'a Snapshot,
    /// Set-up builds captured in `setup`.
    setup_reps: usize,
    /// Capture of the traced half of the timed loop.
    timed: &'a Snapshot,
    /// Operations in the traced half.
    ops: usize,
    /// Summed operation wall of the traced half, in seconds.
    traced_wall_s: f64,
    /// Median operation wall of the untraced half, in seconds.
    untraced_median_s: f64,
    /// Median operation wall of the traced half, in seconds.
    traced_median_s: f64,
    dijkstra_us: f64,
}

fn span_s(snap: &Snapshot, name: &str, self_only: bool) -> f64 {
    let ns: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name() == name)
        .map(|s| if self_only { s.self_ns } else { s.total_ns })
        .sum();
    ns as f64 / 1e9
}

fn count(snap: &Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
fn layer_metrics(w: &Window<'_>) -> Vec<Metric> {
    let (setup, timed) = (w.setup, w.timed);
    let per_build = |x: f64| x / w.setup_reps as f64;
    let per_op = |x: f64| x / w.ops as f64;
    let share = |x: f64| ratio(x, w.traced_wall_s);
    let draws = count(timed, "core/sample/draws");
    let hits = count(timed, "serve/cache_hits");
    let lookups = hits + count(timed, "serve/cache_misses");
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "oblivious.raecke_build_s",
            per_build(span_s(setup, "hierarchy/build", false)),
            "s",
        ),
        m(
            "oblivious.frt_trees",
            per_build(count(setup, "oblivious/frt/trees")),
            "count",
        ),
        m(
            "oblivious.route_calls",
            per_op(count(timed, "oblivious/route_calls")),
            "count/op",
        ),
        m(
            "core.sample_share",
            share(span_s(timed, "sample/pair", false)),
            "fraction",
        ),
        m("core.sample_draws", per_op(draws), "count/op"),
        m(
            "core.sample_distinct_ratio",
            ratio(draws - count(timed, "core/sample/duplicates"), draws),
            "ratio",
        ),
        m(
            "core.route_fractional_s",
            per_op(span_s(timed, "core/route_fractional", false)),
            "s/op",
        ),
        m(
            "flow.restricted_s",
            per_op(span_s(timed, "mwu/restricted", false)),
            "s/op",
        ),
        m(
            "flow.restricted_phases",
            per_op(count(timed, "flow/restricted/phases")),
            "count/op",
        ),
        m(
            "flow.restricted_oracle_scans",
            per_op(count(timed, "flow/restricted/oracle_scans")),
            "count/op",
        ),
        m(
            "flow.opt_phases",
            per_op(count(timed, "flow/mwu/phases")),
            "count/op",
        ),
        m(
            "flow.opt_oracle_calls",
            per_op(count(timed, "flow/mwu/oracle_calls")),
            "count/op",
        ),
        m(
            "flow.opt_share",
            share(span_s(timed, "flow/opt", false)),
            "fraction",
        ),
        m("graph.dijkstra_us", w.dijkstra_us, "us"),
        m(
            "serve.epoch_self_share",
            share(span_s(timed, "serve/epoch", true)),
            "fraction",
        ),
        m("serve.cache_hit_ratio", ratio(hits, lookups), "ratio"),
        m(
            "serve.cache_evictions",
            per_op(count(timed, "serve/cache_evictions")),
            "count/op",
        ),
        m(
            "serve.cache_invalidations",
            per_op(count(timed, "serve/cache_invalidations")),
            "count/op",
        ),
        m(
            "serve.fail_edges_share",
            share(span_s(timed, "bench/fail_edges", false)),
            "fraction",
        ),
        m(
            "serve.fallback_pairs",
            per_op(count(timed, "serve/fallback_pairs")),
            "count/op",
        ),
        m(
            "serve.unserved_pairs",
            per_op(count(timed, "serve/unserved_pairs")),
            "count/op",
        ),
        m(
            "obs.trace_overhead_frac",
            w.traced_median_s / w.untraced_median_s - 1.0,
            "fraction",
        ),
    ]
}

/// The trace document `--trace-out` writes: both span trees (total and
/// self nanoseconds per path) and the per-layer metrics.
fn to_json(args: &Args, w: &Window<'_>, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"workload\": {:?}, \"seed\": {}",
        args.workload.name(),
        args.seed
    );
    for (key, snap) in [("setup_spans", w.setup), ("timed_spans", w.timed)] {
        let _ = write!(out, ", {key:?}: [");
        for (i, s) in snap.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"path\": {:?}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                s.path,
                s.calls,
                s.total_ns,
                s.self_ns
            );
        }
        out.push(']');
    }
    let _ = write!(out, ", \"metrics\": {}}}", crate::metrics_json(metrics));
    out
}
