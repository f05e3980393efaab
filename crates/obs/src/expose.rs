//! Prometheus-style text exposition and the scrape endpoint.
//!
//! [`render_prometheus`] turns a [`Snapshot`] into the text exposition
//! format: counters as `# TYPE ... counter`, histograms as *cumulative*
//! `_bucket{le="..."}` series over their occupied edges, closed by the
//! mandatory `le="+Inf"` bucket (equal to the count), plus
//! `_sum`/`_count`. Callers can append gauges (streaming percentiles,
//! SLO breach counts) through [`PromGauges`].
//!
//! [`TelemetryServer`] serves the exposition over a plain
//! `std::net::TcpListener` accept thread — no HTTP framework, HTTP/1.0
//! responses, one request per connection, exactly what a Prometheus
//! scraper or `curl` needs. Routing: `/metrics` (text exposition),
//! `/timeline` (epoch timeline JSON), `/health` (SLO summary), anything
//! else 404. The handler trait decouples the server from the serve
//! crate; all rendering happens before any socket write and outside any
//! registry lock. Mapping a request head to a response is the pure
//! `respond`, so the request-line parsing is tested without a socket.

use crate::timeline::DEFAULT_TIMELINE_CAPACITY;
use crate::Snapshot;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sanitize a registry metric name into a Prometheus metric name:
/// `serve/cache_hits` → `sor_serve_cache_hits`. Every non-alphanumeric
/// byte becomes `_`, and everything gets the `sor_` namespace prefix.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("sor_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_prom_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Extra gauge samples appended to the exposition (percentiles, health
/// counts — anything not in the registry proper).
#[derive(Clone, Debug, Default)]
pub struct PromGauges {
    samples: Vec<(String, f64)>,
}

impl PromGauges {
    /// An empty gauge set.
    pub fn new() -> Self {
        PromGauges::default()
    }

    /// Append one gauge; `name` is a registry-style name (it goes
    /// through [`prom_name`]), `labels` is a pre-rendered label body
    /// such as `quantile="0.99"` (empty for none).
    pub fn push(&mut self, name: &str, labels: &str, value: f64) {
        let rendered = if labels.is_empty() {
            prom_name(name)
        } else {
            format!("{}{{{labels}}}", prom_name(name))
        };
        self.samples.push((rendered, value));
    }
}

/// Render a [`Snapshot`] (plus optional extra gauges) as Prometheus text
/// exposition format, deterministically (name-sorted input, stable
/// bucket order).
pub fn render_prometheus(snap: &Snapshot, gauges: &PromGauges) -> String {
    let mut out = String::with_capacity(1024 + snap.num_metrics() * 128);
    for c in &snap.counters {
        let name = prom_name(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {}\n", c.value));
    }
    for h in &snap.histograms {
        if h.count == 0 {
            // a registered-but-never-observed histogram has nothing to
            // say; an all-zero bucket series only confuses scrapers
            continue;
        }
        let name = prom_name(&h.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        // Prometheus buckets are cumulative and must end at le="+Inf";
        // the snapshot's occupied buckets (inclusive edges, ascending)
        // accumulate toward the count
        let mut cum = 0u64;
        for b in &h.buckets {
            cum += b.count;
            out.push_str(&format!("{name}_bucket{{le=\""));
            push_prom_f64(&mut out, b.le);
            out.push_str(&format!("\"}} {cum}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{name}_sum "));
        push_prom_f64(&mut out, h.sum);
        out.push('\n');
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    let mut seen_type: Vec<&str> = Vec::new();
    for (rendered, value) in &gauges.samples {
        let base = rendered.split('{').next().unwrap_or(rendered);
        if !seen_type.contains(&base) {
            out.push_str(&format!("# TYPE {base} gauge\n"));
            seen_type.push(base);
        }
        out.push_str(rendered);
        out.push(' ');
        push_prom_f64(&mut out, *value);
        out.push('\n');
    }
    out
}

/// What the scrape endpoint serves; implemented by the serve crate's
/// observer. Implementations must render entirely before
/// returning (no locks escaping, no sockets touched).
pub trait TelemetryHandler: Send + Sync {
    /// Body for `GET /metrics` (Prometheus text exposition).
    fn metrics(&self) -> String;
    /// Body for `GET /timeline?last=N`: the epoch timeline JSON of the
    /// most recent `last` epochs. A plain `GET /timeline` passes
    /// [`DEFAULT_TIMELINE_CAPACITY`].
    fn timeline_json(&self, last: usize) -> String;
    /// Body for `GET /health` (SLO health summary, JSON — served with
    /// `Content-Type: application/json`; see
    /// [`crate::slo::HealthSummary::render_json`] for the canonical
    /// `sor-health/1` shape).
    fn health(&self) -> String;
}

/// A minimal scrape server: one accept thread on a
/// `std::net::TcpListener`, HTTP/1.0, one request per connection.
/// Shuts down on drop (a self-connection wakes the accept loop).
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start the accept thread.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn TelemetryHandler>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("sor-telemetry".to_string())
            .spawn(move || accept_loop(&listener, &stop_flag, handler.as_ref()))?;
        Ok(TelemetryServer {
            addr: bound,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept thread and join it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        // Relaxed: the flag carries no data — the wake-up connection and
        // the join below provide all the synchronization shutdown needs.
        self.stop.store(true, Ordering::Relaxed);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, handler: &dyn TelemetryHandler) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Relaxed: flag-only check, no ordering needed (see
                // `shutdown`)
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        serve_one(stream, handler);
    }
}

/// Read one request head (bounded, with a timeout) and answer it with
/// [`respond`].
fn serve_one(mut stream: TcpStream, handler: &dyn TelemetryHandler) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let (status, content_type, body) = respond(&head, handler);
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Map a request head (any bytes, possibly truncated) to its status
/// line, content type and body.
fn respond(head: &[u8], handler: &dyn TelemetryHandler) -> (&'static str, &'static str, String) {
    let request_line = String::from_utf8_lossy(head);
    let path = request_line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, Some(q)),
        None => (path, None),
    };
    let bad_request = || {
        (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad query string\n".to_string(),
        )
    };
    match route {
        // only /timeline takes a query; a query anywhere else (or one
        // that is not exactly `last=N`) is a 400, not a silent ignore
        "/metrics" | "/" if query.is_none() => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            handler.metrics(),
        ),
        "/timeline" => match query.map_or(Some(DEFAULT_TIMELINE_CAPACITY), parse_timeline_query) {
            Some(last) => ("200 OK", "application/json", handler.timeline_json(last)),
            None => bad_request(),
        },
        "/health" if query.is_none() => ("200 OK", "application/json", handler.health()),
        "/metrics" | "/" | "/health" => bad_request(),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

/// Parse a `/timeline` query string: exactly one `last=N` parameter with
/// a non-negative integer `N`. Anything else is malformed (`None`).
fn parse_timeline_query(query: &str) -> Option<usize> {
    let value = query.strip_prefix("last=")?;
    if value.is_empty() || value.contains('=') || value.contains('&') {
        return None;
    }
    value.parse::<usize>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BucketCount, CounterSnapshot, HistogramSnapshot};

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "serve/cache_hits".to_string(),
                value: 42,
            }],
            histograms: vec![HistogramSnapshot {
                name: "serve/epoch_wall_ms".to_string(),
                buckets: vec![
                    BucketCount { le: 1.0, count: 2 },
                    BucketCount { le: 4.0, count: 3 },
                    BucketCount {
                        le: 2.75f64.exp2(),
                        count: 1,
                    },
                ],
                count: 6,
                sum: 19.5,
            }],
            spans: Vec::new(),
        }
    }

    #[test]
    fn names_are_sanitized_and_namespaced() {
        assert_eq!(prom_name("serve/cache_hits"), "sor_serve_cache_hits");
        assert_eq!(prom_name("slo/breaches"), "sor_slo_breaches");
        assert_eq!(prom_name("a-b.c"), "sor_a_b_c");
    }

    #[test]
    fn exposition_is_cumulative_and_closes_at_inf() {
        let text = render_prometheus(&sample_snapshot(), &PromGauges::new());
        assert!(text.contains("# TYPE sor_serve_cache_hits counter\n"));
        assert!(text.contains("sor_serve_cache_hits 42\n"));
        // cumulative over the occupied edges (2, 2+3, 2+3+1), then +Inf
        // equal to the count
        assert!(
            text.contains(
                "# TYPE sor_serve_epoch_wall_ms histogram\n\
                 sor_serve_epoch_wall_ms_bucket{le=\"1\"} 2\n\
                 sor_serve_epoch_wall_ms_bucket{le=\"4\"} 5\n\
                 sor_serve_epoch_wall_ms_bucket{le=\"6.727171322029716\"} 6\n\
                 sor_serve_epoch_wall_ms_bucket{le=\"+Inf\"} 6\n\
                 sor_serve_epoch_wall_ms_sum 19.5\n\
                 sor_serve_epoch_wall_ms_count 6\n"
            ),
            "got:\n{text}"
        );
    }

    #[test]
    fn gauges_append_with_labels() {
        let mut g = PromGauges::new();
        g.push("serve/cache_hit_rate", "rule=\"min\"", 0.875);
        g.push("serve/epoch_wall_p99_ms", "", 12.0);
        let text = render_prometheus(
            &Snapshot {
                counters: Vec::new(),
                histograms: Vec::new(),
                spans: Vec::new(),
            },
            &g,
        );
        assert!(text.contains("# TYPE sor_serve_cache_hit_rate gauge\n"));
        assert!(text.contains("sor_serve_cache_hit_rate{rule=\"min\"} 0.875\n"));
        assert!(text.contains("sor_serve_epoch_wall_p99_ms 12\n"));
    }

    #[test]
    fn empty_histograms_are_skipped_in_exposition() {
        let mut snap = sample_snapshot();
        snap.histograms.push(HistogramSnapshot {
            name: "serve/never_observed".to_string(),
            buckets: Vec::new(),
            count: 0,
            sum: 0.0,
        });
        let text = render_prometheus(&snap, &PromGauges::new());
        assert!(
            !text.contains("sor_serve_never_observed"),
            "empty histogram must not render:\n{text}"
        );
        // the non-empty sibling still renders in full
        assert!(text.contains("sor_serve_epoch_wall_ms_count 6\n"));
    }

    #[test]
    fn timeline_query_parses_strictly() {
        assert_eq!(parse_timeline_query("last=3"), Some(3));
        assert_eq!(parse_timeline_query("last=0"), Some(0));
        assert_eq!(parse_timeline_query(""), None);
        assert_eq!(parse_timeline_query("last="), None);
        assert_eq!(parse_timeline_query("last=abc"), None);
        assert_eq!(parse_timeline_query("last=1&x=2"), None);
        assert_eq!(parse_timeline_query("first=1"), None);
        assert_eq!(parse_timeline_query("last=1=2"), None);
    }

    struct FixedHandler;
    impl TelemetryHandler for FixedHandler {
        fn metrics(&self) -> String {
            "sor_test_metric 1\n".to_string()
        }
        fn timeline_json(&self, last: usize) -> String {
            format!("{{\"format\":\"sor-timeline/1\",\"last\":{last},\"epochs\":[]}}")
        }
        fn health(&self) -> String {
            crate::slo::HealthSummary::default().render_json()
        }
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    /// SplitMix64 over (seed, index), as in `tests/parser_fuzz.rs`.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every answer is a 200, 400 or 404; a 200 carries its route's
    /// content type, anything else plain text.
    fn check_response(head: &[u8]) {
        let (status, content_type, body) = respond(head, &FixedHandler);
        let want = match status {
            "200 OK" if body == FixedHandler.metrics() => {
                "text/plain; version=0.0.4; charset=utf-8"
            }
            "200 OK" => {
                assert!(
                    body.contains("\"sor-timeline/1\"") || body.contains("\"sor-health/1\""),
                    "{body}"
                );
                "application/json"
            }
            "400 Bad Request" | "404 Not Found" => "text/plain; charset=utf-8",
            other => panic!("status {other} for {:?}", String::from_utf8_lossy(head)),
        };
        assert_eq!(content_type, want, "{:?}", String::from_utf8_lossy(head));
    }

    #[test]
    fn truncated_and_flipped_request_heads_get_well_formed_answers() {
        let paths = [
            "/metrics",
            "/timeline?last=2",
            "/health",
            "/timeline?last=x",
            "/nope",
        ];
        for (seed, path) in (0u64..).zip(paths) {
            let head = format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").into_bytes();
            for end in 0..=head.len() {
                check_response(&head[..end]);
            }
            let len = u64::try_from(head.len()).expect("short head");
            for round in 0..256u64 {
                let mut bytes = head.clone();
                for f in 0..1 + mix(seed, round) % 4 {
                    let at =
                        usize::try_from(mix(seed, 1_000 + round * 8 + f) % len).expect("in range");
                    bytes[at] = mix(seed, 2_000 + round * 8 + f).to_le_bytes()[0];
                }
                check_response(&bytes);
            }
        }
    }

    #[test]
    fn server_routes_and_shuts_down() {
        let mut server =
            TelemetryServer::start("127.0.0.1:0", Arc::new(FixedHandler)).expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port resolved");
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(metrics.contains("Content-Length:"));
        assert!(metrics.ends_with("sor_test_metric 1\n"));
        let timeline = get(addr, "/timeline");
        assert!(timeline.contains("Content-Type: application/json\r\n"));
        assert!(timeline.contains("sor-timeline/1"));
        assert!(timeline.contains("\"last\":256"), "{timeline}");
        let health = get(addr, "/health");
        assert!(health.contains("health: ok"));
        assert!(
            health.contains("Content-Type: application/json\r\n"),
            "/health must declare a JSON content type: {health}"
        );
        assert!(health.contains("\"sor-health/1\""));
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        // query handling: /timeline?last=N truncates, malformed is 400
        let truncated = get(addr, "/timeline?last=2");
        assert!(truncated.starts_with("HTTP/1.0 200"), "{truncated}");
        assert!(truncated.contains("\"last\":2"), "{truncated}");
        for bad in [
            "/timeline?",
            "/timeline?last=",
            "/timeline?last=x",
            "/metrics?x=1",
        ] {
            let resp = get(addr, bad);
            assert!(
                resp.starts_with("HTTP/1.0 400"),
                "{bad} must 400, got: {resp}"
            );
        }
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
