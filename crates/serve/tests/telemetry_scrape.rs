//! End-to-end exercise of the live telemetry plane: run a seeded
//! workload with an observer attached, scrape the HTTP endpoint with a
//! plain `std::net::TcpStream` client, and check the exposition,
//! timeline, and health documents. Also drives the SLO watchdog over a
//! seeded failure workload and asserts the structured breach events.
//!
//! CI runs this test binary as its scrape smoke — keep it dependent on
//! nothing but the workspace and the loopback interface.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_graph::gen;
use sor_obs::SloConfig;
use sor_serve::{run_workload, EngineConfig, Observer, WorkloadConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Tests share the process-global metrics registry and log sink.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_instrumented(slo: SloConfig, fail_at: Option<u64>) -> Arc<Observer> {
    let g = gen::random_regular(16, 4, &mut StdRng::seed_from_u64(11));
    let ecfg = EngineConfig {
        sparsity: 3,
        trees: 4,
        epoch_batch: 16,
        queue_bound: 32,
        cache_capacity: 8,
        compare_fresh: true,
        seed: 11,
        ..EngineConfig::default()
    };
    let wcfg = WorkloadConfig {
        epochs: 6,
        rate: 8,
        patterns: 2,
        pairs_per_pattern: 4,
        fail_at,
        restore_after: 2,
        seed: 11,
    };
    let observer = Arc::new(Observer::new(slo));
    let report = run_workload(
        &g,
        ecfg,
        &wcfg,
        &wcfg.pattern_pool(&g),
        Some(Arc::clone(&observer)),
    );
    assert!(report.admitted > 0, "workload admitted nothing");
    observer
}

/// Minimal HTTP/1.0 GET over a std TCP client; returns (status line,
/// full header block, body) so callers can assert on headers like
/// `Content-Type` as well as the document.
fn get_full(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: sor\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, head.to_owned(), body.to_owned())
}

/// [`get_full`] without the header block.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let (status, _, body) = get_full(addr, path);
    (status, body)
}

/// Every non-comment exposition line must be `name[{labels}] value` with
/// a parseable value.
fn assert_well_formed_exposition(body: &str) {
    let mut metric_lines = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable sample value in {line:?}"
        );
        if let Some(open) = name.find('{') {
            assert!(name.ends_with('}'), "unbalanced labels in {line:?}");
            assert!(open > 0, "label-only metric name in {line:?}");
        }
        metric_lines += 1;
    }
    assert!(metric_lines > 0, "exposition has no samples");
}

#[test]
fn scrape_endpoint_serves_metrics_timeline_and_health() {
    let _guard = serial();
    sor_obs::reset();
    sor_obs::set_enabled(true);
    let observer = run_instrumented(SloConfig::disabled(), None);
    sor_obs::set_enabled(false);

    let mut server = observer
        .serve_http("127.0.0.1:0")
        .expect("bind loopback scrape endpoint");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "bad /metrics status: {status}");
    assert_well_formed_exposition(&body);
    assert!(
        body.lines().any(|l| l.starts_with("sor_serve_")),
        "no sor_serve_ metric in exposition:\n{body}"
    );
    assert!(
        body.contains("le=\"+Inf\""),
        "histogram exposition lacks its closing le=\"+Inf\" bucket"
    );
    assert!(body.contains("# TYPE"), "exposition lacks TYPE metadata");
    assert!(
        body.contains("quantile=\"0.99\""),
        "exposition lacks streaming tail quantiles"
    );
    assert!(
        !body.contains("window="),
        "per-epoch rates come from the cumulative counters and /timeline, \
         not window gauges"
    );

    let (status, head, body) = get_full(addr, "/timeline");
    assert!(status.contains("200"), "bad /timeline status: {status}");
    assert!(
        head.contains("Content-Type: application/json\r\n"),
        "/timeline must declare a JSON content type: {head}"
    );
    assert!(body.contains("\"sor-timeline/1\""), "timeline format tag");
    assert!(body.contains("\"epochs\""), "timeline epochs array");
    let parsed = sor_obs::parse_json(&body).expect("timeline body parses as JSON");
    let epochs = parsed
        .get("epochs")
        .and_then(|v| v.as_arr())
        .expect("epochs");
    assert_eq!(epochs.len(), 6, "one timeline record per epoch");

    let (status, head, body) = get_full(addr, "/health");
    assert!(status.contains("200"), "bad /health status: {status}");
    assert!(
        head.contains("Content-Type: application/json\r\n"),
        "/health must declare a JSON content type: {head}"
    );
    assert!(
        body.contains("\"sor-health/1\""),
        "health format tag: {body}"
    );
    assert!(body.contains("health:"), "health summary body: {body}");
    let parsed = sor_obs::parse_json(&body).expect("health body parses as JSON");
    assert_eq!(
        parsed
            .get("healthy")
            .and_then(|v| v.as_str().map(str::to_owned)),
        None,
        "healthy must be a JSON bool, not a string"
    );
    assert!(parsed
        .get("epochs_evaluated")
        .and_then(|v| v.as_u64())
        .is_some());

    let (status, body) = get(addr, "/timeline?last=2");
    assert!(status.contains("200"), "bad truncated status: {status}");
    let parsed = sor_obs::parse_json(&body).expect("truncated timeline parses as JSON");
    let epochs = parsed
        .get("epochs")
        .and_then(|v| v.as_arr())
        .expect("epochs");
    assert_eq!(epochs.len(), 2, "last=2 keeps exactly the 2 newest epochs");
    let newest: Vec<u64> = epochs
        .iter()
        .filter_map(|e| e.get("epoch").and_then(|v| v.as_u64()))
        .collect();
    assert_eq!(
        newest,
        vec![4, 5],
        "truncation keeps the tail, not the head"
    );

    // a `last` larger than the ring is the full timeline
    let (status, body) = get(addr, "/timeline?last=100");
    assert!(status.contains("200"), "bad over-sized status: {status}");
    assert!(body.matches("\"epoch\":").count() >= 6);

    // malformed queries are client errors, not missing routes
    for bad in [
        "/timeline?",
        "/timeline?last=",
        "/timeline?last=x",
        "/metrics?x=1",
    ] {
        let (status, _) = get(addr, bad);
        assert!(status.contains("400"), "{bad} must 400, got: {status}");
    }

    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "unknown path must 404: {status}");

    server.shutdown();
}

#[test]
fn slo_breaches_on_failure_workload_emit_structured_events() {
    let _guard = serial();
    sor_obs::reset();
    sor_obs::set_enabled(true);
    sor_obs::set_sink(sor_obs::Sink::Memory);
    let _ = sor_obs::take_captured();

    // thresholds no real run can satisfy: any positive epoch wall
    // breaches p99, any hit rate below 200% breaches the minimum
    let slo = SloConfig {
        max_congestion_ratio: Some(1e9),
        max_p99_epoch_wall_ms: Some(0.0),
        min_cache_hit_rate: Some(2.0),
        max_fallback_fraction: Some(1.0),
    };
    let observer = run_instrumented(slo, Some(2));
    let captured = sor_obs::take_captured();
    sor_obs::set_sink(sor_obs::Sink::Stderr);
    sor_obs::set_enabled(false);

    let breach_lines: Vec<&String> = captured
        .iter()
        .filter(|l| l.contains("SLO breach epoch="))
        .collect();
    assert!(
        !breach_lines.is_empty(),
        "no structured breach events captured: {captured:?}"
    );
    for line in &breach_lines {
        assert!(line.starts_with("warn "), "breach must log at warn: {line}");
        assert!(line.contains(" rule="), "breach line lacks rule: {line}");
        assert!(line.contains(" value="), "breach line lacks value: {line}");
        assert!(
            line.contains(" threshold="),
            "breach line lacks threshold: {line}"
        );
    }
    assert!(
        breach_lines
            .iter()
            .any(|l| l.contains("rule=max_p99_epoch_wall_ms")),
        "expected a p99 wall breach among {breach_lines:?}"
    );
    assert!(
        breach_lines
            .iter()
            .any(|l| l.contains("rule=min_cache_hit_rate")),
        "expected a hit-rate breach among {breach_lines:?}"
    );

    let summary = observer.watchdog().summary();
    assert_eq!(summary.epochs_evaluated, 6);
    assert!(!summary.healthy(), "breached run must report degraded");
    assert!(summary.total_breaches >= breach_lines.len() as u64);
    assert!(summary.render().contains("degraded"));

    // breaches also land on the matching timeline records
    let records = observer.timeline();
    assert!(
        records.iter().any(|r| !r.slo_breaches.is_empty()),
        "no timeline record carries its breaches"
    );
}
