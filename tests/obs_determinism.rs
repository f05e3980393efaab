//! Observability must never change what the pipeline computes.
//!
//! Runs the full seeded pipeline (Räcke build → sampling → integral
//! routing → packet simulation) twice — once with metric/span capture
//! off, once on — and asserts bit-identical routing output. Also checks
//! the coverage acceptance bar (≥10 distinct metrics spanning ≥4
//! crates) and exercises the public `sor-obs` surface end to end.
//!
//! The tests share the process-global metrics registry, so they
//! serialize on a local mutex.

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::cli::{parse_demand, parse_graph};
use semi_oblivious_routing::core::sample::{demand_pairs, sample_k};
use semi_oblivious_routing::core::SemiObliviousRouting;
use semi_oblivious_routing::graph::Path;
use semi_oblivious_routing::oblivious::RaeckeRouting;
use semi_oblivious_routing::obs;
use semi_oblivious_routing::sched::{try_simulate, Policy};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Everything the pipeline decides, in one comparable bundle.
#[derive(PartialEq, Debug)]
struct RunOutput {
    routes: Vec<Vec<u32>>,
    makespan: u64,
    congestion_bits: u64,
    dilation: u64,
    mean_latency_bits: Option<u64>,
    max_queue: usize,
}

/// The `sor sim` pipeline on twostar:2x6 with s = 4, seed 42.
fn run_pipeline() -> RunOutput {
    let seed = 42;
    let g = parse_graph("twostar:2x6", seed).expect("graph spec");
    let demand = parse_demand("perm", &g, seed).expect("demand spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let base = RaeckeRouting::build(g.clone(), 8, &mut rng);
    let sampled = sample_k(&base, &demand_pairs(&demand), 4, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
    let integral = sor.route_integral(&demand, 0.15, &mut rng);
    let mut routes: Vec<Path> = Vec::new();
    for (j, &(a, b, _)) in demand.entries().iter().enumerate() {
        let paths = sor.system().paths(a, b);
        for (i, &c) in integral.counts[j].iter().enumerate() {
            for _ in 0..c {
                routes.push(paths.get(i).to_path(&g));
            }
        }
    }
    let res = try_simulate(&g, &routes, Policy::Fifo).expect("simulation");
    RunOutput {
        routes: routes
            .iter()
            .map(|p| p.nodes().iter().map(|n| n.0).collect())
            .collect(),
        makespan: res.makespan,
        congestion_bits: res.congestion.to_bits(),
        dilation: res.dilation,
        mean_latency_bits: res.mean_latency().map(f64::to_bits),
        max_queue: res.max_queue,
    }
}

#[test]
fn capture_does_not_change_routing_output() {
    let _guard = serial();
    obs::set_enabled(false);
    obs::reset();
    let plain = run_pipeline();
    obs::set_enabled(true);
    obs::reset();
    let instrumented = run_pipeline();
    obs::set_enabled(false);
    assert_eq!(
        plain, instrumented,
        "enabling metric/span capture changed the routing output"
    );
}

#[test]
fn instrumented_run_meets_coverage_bar() {
    let _guard = serial();
    obs::set_enabled(true);
    obs::reset();
    {
        let _root: obs::Span = obs::span("test/pipeline");
        run_pipeline();
    }
    let snap: obs::Snapshot = obs::snapshot();
    obs::set_enabled(false);

    // ≥10 distinct named metrics spanning ≥4 crates (acceptance bar).
    assert!(
        snap.num_metrics() >= 10,
        "only {} metrics captured",
        snap.num_metrics()
    );
    let mut crates: Vec<&str> = snap
        .counters
        .iter()
        .map(|c: &obs::CounterSnapshot| c.name.as_str())
        .chain(
            snap.histograms
                .iter()
                .map(|h: &obs::HistogramSnapshot| h.name.as_str()),
        )
        .filter_map(|name| name.split('/').next())
        .collect();
    crates.sort_unstable();
    crates.dedup();
    assert!(
        crates.len() >= 4,
        "metrics span only {} crates: {crates:?}",
        crates.len()
    );
    for want in ["flow", "oblivious", "core", "sched"] {
        assert!(crates.contains(&want), "no metrics from {want}");
    }

    // The span tree nests under the root and renders.
    let root = snap
        .spans
        .iter()
        .find(|s: &&obs::SpanSnapshot| s.path == ["test/pipeline"])
        .expect("root span recorded");
    assert_eq!(root.calls, 1);
    assert!(root.total_ns > 0);
    assert!(
        snap.spans.iter().any(|s| s.depth() > 0),
        "no nested phases recorded"
    );
    let rendered = obs::render_phase_tree(&snap.spans);
    assert!(rendered.contains("test/pipeline"));
    assert!(obs::phase_report().contains("test/pipeline"));

    // Each histogram lists its occupied buckets under strictly ascending
    // edges, and they account for every observation.
    for want in ["core/path/hops", "sched/queue_depth"] {
        assert!(snap.histograms.iter().any(|h| h.name == want), "no {want}");
    }
    for h in &snap.histograms {
        assert!(
            h.buckets.windows(2).all(|w| w[0].le < w[1].le),
            "{}: {:?}",
            h.name,
            h.buckets
        );
        let in_buckets: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(in_buckets, h.count, "{}", h.name);
    }

    // JSON export carries the same inventory and reads back unchanged.
    let json = snap.to_json();
    assert!(json.contains("\"counters\""));
    assert!(json.contains("flow/restricted/phases"));
    let doc = obs::parse_json(&json).expect("export parses");
    let back = obs::snapshot::snapshot_from_value(&doc).expect("export reads back");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.histograms, snap.histograms);
    assert_eq!(back.spans, snap.spans);
}

#[test]
fn metrics_registry_surface() {
    let _guard = serial();
    obs::set_enabled(true);
    obs::reset();
    assert!(obs::enabled());

    let c: std::sync::Arc<obs::Counter> = obs::counter("test/api/counter");
    c.inc();
    obs::count("test/api/counter", 2);
    obs::count_usize("test/api/counter", 3);
    assert_eq!(c.get(), 6);

    let h: std::sync::Arc<obs::LogHistogram> = obs::histogram("test/api/ratio");
    h.observe(0.5);
    obs::observe("test/api/ratio", 100.0);

    let reg: &obs::MetricsRegistry = obs::registry();
    assert!(reg
        .counter_snapshots()
        .iter()
        .any(|c| c.name == "test/api/counter" && c.value == 6));
    let snap = obs::snapshot();
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "test/api/ratio")
        .expect("histogram registered");
    assert_eq!(hs.count, 2);
    // 0.5 is the underflow bucket, at edge 1; 100 lands in the log
    // bucket (2^6.5, 2^6.75], the first whose edge is above 100
    let buckets: &[obs::BucketCount] = &hs.buckets;
    assert_eq!(
        buckets,
        [
            obs::BucketCount { le: 1.0, count: 1 },
            obs::BucketCount {
                le: 6.75f64.exp2(),
                count: 1
            },
        ]
    );

    obs::set_enabled(false);
}

#[test]
fn logging_surface() {
    let _guard = serial();
    obs::set_sink(obs::Sink::Memory);
    obs::set_log_level(obs::Level::Debug);
    assert_eq!(obs::log_level(), obs::Level::Debug);
    assert!(obs::log_enabled(obs::Level::Warn));
    obs::log(
        obs::Level::Warn,
        "obs_determinism",
        format_args!("captured {}", 1),
    );
    let lines = obs::take_captured();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("captured 1"));
    obs::set_log_level(obs::Level::Off);
    assert!(!obs::log_enabled(obs::Level::Error));
    obs::set_log_level(obs::Level::Warn);
    obs::set_sink(obs::Sink::Stderr);
}
