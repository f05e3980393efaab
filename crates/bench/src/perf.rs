//! `sor-perf`: the exact work-and-quality gate behind the `perf` binary.
//!
//! A fixed suite of seeded benchmarks — quick variants of the macro
//! experiments E1/E2/E7/E8 plus micro-kernels over the library's hot
//! paths (FRT tree build, MWU restricted solve, randomized rounding,
//! scheduler step loop, the §5.3 deletion process, MCF solves, …) — each
//! run under `sor-obs` capture, producing two kinds of data per bench:
//!
//! * **work metrics** — counters, histograms, and span *call counts*
//!   from the [`sor_obs::Snapshot`]. Deterministic under the fixed seeds,
//!   so the integer values gate **exactly** against the committed
//!   baseline; histogram sums are floats and gate within [`VALUE_TOL`].
//! * **quality metrics** — competitive ratios / MLU ratios / survival
//!   fractions, parsed back out of the experiment [`Table`]s or computed
//!   directly. Deterministic too; they gate within [`VALUE_TOL`].
//!
//! Every bench runs exactly twice. The second trial exists only for the
//! determinism check: both trials must give bit-identical gated values,
//! or the bench cannot be trusted as a gate. Wall time is not measured
//! here; the end-to-end benchmark `sorbench` (declared in
//! `BENCHMARK.json`) owns timing.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_obs::snapshot::snapshot_from_value;
use sor_obs::{parse_json, push_escaped, push_f64, JsonValue, Snapshot};
use std::fmt::Write as _;

mod kernels;

/// Format tag written into / expected from baseline files.
pub const BASELINE_FORMAT: &str = "sor-perf/1";

/// Relative tolerance for the float-valued metrics, quality values and
/// histogram sums (absolute when the baseline value is 0). Integer work
/// metrics gate exactly.
pub const VALUE_TOL: f64 = 1e-9;

/// Separator used when flattening a span path into one metric name.
const SPAN_PATH_SEP: &str = " > ";

/// One benchmark, as run or as read back from a baseline.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Suite-unique bench name (`macro/e1`, `kernel/frt`, …).
    pub name: String,
    /// Deterministic work metrics: the first trial's snapshot with
    /// wall-time fields zeroed and zero-valued metrics stripped (so the
    /// view is independent of which benches ran earlier in the process).
    pub work: Snapshot,
    /// Derived quality metrics, in insertion order.
    pub quality: Vec<(String, f64)>,
    /// Whether both trials gave bit-identical work and quality values.
    /// Always `true` when read from a baseline: the writer refuses a
    /// nondeterministic bench.
    pub deterministic: bool,
}

type BenchFn = fn() -> Vec<(String, f64)>;

/// The fixed suite: (name, workload). Order matters — metric registries
/// accumulate registrations process-wide, and the work view strips
/// zeros, so each bench's work snapshot contains exactly the metrics it
/// touched regardless of position.
const BENCHES: &[(&str, BenchFn)] = &[
    ("macro/e1", kernels::macro_e1),
    ("macro/e2", kernels::macro_e2),
    ("macro/e7", kernels::macro_e7),
    ("macro/e8", kernels::macro_e8),
    ("kernel/frt_build", kernels::frt_build),
    ("kernel/mwu_restricted", kernels::mwu_restricted),
    ("kernel/rounding", kernels::rounding),
    ("kernel/sched_steps", kernels::sched_steps),
    ("kernel/deletion", kernels::deletion),
    ("kernel/mcf", kernels::mcf),
    ("kernel/graph_algos", kernels::graph_algos),
    ("kernel/hop_electrical", kernels::hop_electrical),
    ("kernel/te_schemes", kernels::te_schemes),
    ("kernel/eval_exact", kernels::eval_exact),
    ("kernel/adversary", kernels::adversary),
    ("kernel/serve_warm", kernels::serve_warm_cache),
    ("kernel/serve_failover", kernels::serve_failover),
    ("kernel/observer_overhead", kernels::observer_overhead),
    ("kernel/compact_tables", kernels::compact_tables),
    ("kernel/mcf_wan", kernels::mcf_wan),
];

/// Names of every bench in the suite, in order.
pub fn bench_names() -> Vec<&'static str> {
    BENCHES.iter().map(|(n, _)| *n).collect()
}

/// Whether `--filter` selects a bench: a substring match, and `None`
/// selects every bench.
pub fn selected(name: &str, filter: Option<&str>) -> bool {
    filter.is_none_or(|needle| name.contains(needle))
}

/// Derive gateable quality metrics from an experiment table: each row is
/// keyed by its non-numeric cells, and every numeric cell becomes
/// `<rowkey>/<header> = value`. The formatted cell strings round-trip to
/// the same `f64` on every run, so these are deterministic.
pub fn table_quality(t: &Table) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (ri, row) in t.rows.iter().enumerate() {
        let key_cells: Vec<&str> = row
            .iter()
            .filter(|c| parse_cell(c).is_none())
            .map(String::as_str)
            .collect();
        let rowkey = if key_cells.is_empty() {
            format!("row{ri}")
        } else {
            sanitize(&key_cells.join(","))
        };
        for (ci, cell) in row.iter().enumerate() {
            if let Some(v) = parse_cell(cell) {
                let header = sanitize(t.headers.get(ci).map_or("col", String::as_str));
                let mut name = format!("{rowkey}/{header}");
                if out.iter().any(|(n, _)| *n == name) {
                    name = format!("{rowkey}#{ri}/{header}");
                }
                out.push((name, v));
            }
        }
    }
    out
}

/// Numeric-cell parse: strict (digits/sign/dot only) so labels like
/// `"grid6x6"`, `"inf"`, or `"n=5"` stay row-key material.
fn parse_cell(cell: &str) -> Option<f64> {
    let body = cell.trim();
    if body.is_empty()
        || !body
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e')
    {
        return None;
    }
    body.parse::<f64>().ok().filter(|v| v.is_finite())
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            ' ' | '\t' => '_',
            '/' => '|',
            c => c,
        })
        .collect()
}

/// The deterministic view of a snapshot: wall-time fields zeroed (span
/// call counts stay — they are work), zero-valued counters/histograms
/// dropped (they are registrations left over from other benches in the
/// same process, not work done by this one).
pub fn work_view(snap: &Snapshot) -> Snapshot {
    Snapshot {
        counters: snap
            .counters
            .iter()
            .filter(|c| c.value > 0)
            .cloned()
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|h| h.count > 0)
            .cloned()
            .collect(),
        spans: snap
            .spans
            .iter()
            .map(|s| sor_obs::SpanSnapshot {
                path: s.path.clone(),
                calls: s.calls,
                total_ns: 0,
                self_ns: 0,
            })
            .collect(),
    }
}

/// Run one bench twice, each trial bracketed by `reset` / `set_enabled`,
/// and keep the first trial; the second only checks determinism.
fn run_bench(name: &str, workload: BenchFn) -> BenchRun {
    let trial = || {
        sor_obs::reset();
        sor_obs::set_enabled(true);
        let quality = workload();
        sor_obs::set_enabled(false);
        BenchRun {
            name: name.to_string(),
            work: work_view(&sor_obs::snapshot()),
            quality,
            deterministic: true,
        }
    };
    let mut run = trial();
    let again = trial();
    run.deterministic = gated_values(&run) == gated_values(&again);
    run
}

/// Run the suite's benches that `filter` selects, with a progress line
/// per bench on stderr.
pub fn run_suite(filter: Option<&str>) -> Vec<BenchRun> {
    BENCHES
        .iter()
        .filter(|(name, _)| selected(name, filter))
        .map(|(name, workload)| {
            eprintln!("perf: running {name}");
            run_bench(name, *workload)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Baseline serialization
// ---------------------------------------------------------------------

/// Serialize benches as a baseline document, byte-deterministic for a
/// fixed workspace revision. A nondeterministic bench is an error: its
/// values could not gate a later run.
pub fn baseline_json(runs: &[BenchRun], meta: &[(&str, &str)]) -> Result<String, String> {
    if let Some(run) = runs.iter().find(|r| !r.deterministic) {
        return Err(format!(
            "bench '{}' gave different work or quality values in its two trials; \
             a baseline cannot pin it",
            run.name
        ));
    }
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\n  \"meta\": { \"format\": ");
    push_escaped(&mut out, BASELINE_FORMAT);
    for (k, v) in meta {
        out.push_str(", ");
        push_escaped(&mut out, k);
        out.push_str(": ");
        push_escaped(&mut out, v);
    }
    out.push_str(" },\n  \"benchmarks\": [");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n      \"name\": ");
        push_escaped(&mut out, &run.name);
        out.push_str(",\n      \"deterministic\": true,\n      \"quality\": [");
        for (j, (qname, qval)) in run.quality.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n        { \"name\": ");
            push_escaped(&mut out, qname);
            out.push_str(", \"value\": ");
            push_f64(&mut out, *qval);
            out.push_str(" }");
        }
        if !run.quality.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("],\n      \"work\": ");
        // The snapshot export is itself a JSON object; indentation is
        // cosmetic, so embed it as-is (minus its trailing newline).
        out.push_str(run.work.to_json().trim_end());
        out.push_str("\n    }");
    }
    if !runs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    Ok(out)
}

/// Parse a baseline document written by [`baseline_json`]. Every bench
/// must carry its `work` snapshot and its `quality` array; an error
/// names the bench.
pub fn parse_baseline(text: &str) -> Result<Vec<BenchRun>, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let format = doc
        .get("meta")
        .and_then(|m| m.get("format"))
        .and_then(JsonValue::as_str)
        .ok_or("missing meta.format")?;
    if format != BASELINE_FORMAT {
        return Err(format!(
            "baseline format '{format}' unsupported (expected '{BASELINE_FORMAT}')"
        ));
    }
    doc.get("benchmarks")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'benchmarks' array")?
        .iter()
        .map(bench_from_value)
        .collect()
}

fn bench_from_value(b: &JsonValue) -> Result<BenchRun, String> {
    let name = b
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("benchmark missing 'name'")?
        .to_string();
    let work = snapshot_from_value(
        b.get("work")
            .ok_or_else(|| format!("benchmark '{name}' missing 'work' snapshot"))?,
    )
    .map_err(|e| format!("benchmark '{name}': {e}"))?;
    let quality = b
        .get("quality")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("benchmark '{name}' missing 'quality' array"))?
        .iter()
        .map(|qv| {
            let qname = qv
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("benchmark '{name}': quality entry missing 'name'"))?;
            let value = qv.get("value").and_then(JsonValue::as_f64).ok_or_else(|| {
                format!("benchmark '{name}': quality '{qname}' missing numeric 'value'")
            })?;
            Ok((qname.to_string(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchRun {
        name,
        work,
        quality,
        deterministic: true,
    })
}

// ---------------------------------------------------------------------
// Gate engine
// ---------------------------------------------------------------------

/// Severity of one [`Delta`], and of a whole [`GateReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Every comparison matched.
    Pass,
    /// Something new appeared that the baseline does not pin.
    Warn,
    /// A pinned value moved or vanished — the gate rejects the run.
    Fail,
}

impl Status {
    /// Short uppercase tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            Status::Pass => "PASS",
            Status::Warn => "WARN",
            Status::Fail => "FAIL",
        }
    }
}

/// Which facet of a bench a [`Delta`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A counter's value.
    Counter,
    /// A histogram's observation count.
    HistogramCount,
    /// A histogram's value sum.
    HistogramSum,
    /// A span path's call count.
    SpanCalls,
    /// A derived quality metric (competitive ratio, MLU ratio, …).
    Quality,
    /// The two trials of the current run disagreed.
    Trials,
    /// A metric or bench in the baseline that the current run lacks.
    Missing,
    /// A metric or bench the baseline lacks: the one kind that only
    /// warns (refresh the baseline when the addition is intended).
    Added,
}

impl DeltaKind {
    /// Human label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DeltaKind::Counter => "counter",
            DeltaKind::HistogramCount => "histogram count",
            DeltaKind::HistogramSum => "histogram sum",
            DeltaKind::SpanCalls => "span calls",
            DeltaKind::Quality => "quality",
            DeltaKind::Trials => "trials disagree",
            DeltaKind::Missing => "missing from this run",
            DeltaKind::Added => "not in baseline",
        }
    }

    /// What a delta of this kind does to the gate.
    pub fn status(self) -> Status {
        if self == DeltaKind::Added {
            Status::Warn
        } else {
            Status::Fail
        }
    }
}

/// One comparison that did not pass.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric name (span paths joined with `" > "`), or `"(bench)"` /
    /// `"(trials)"` for a whole-bench delta.
    pub metric: String,
    /// Which facet differed.
    pub kind: DeltaKind,
    /// Baseline value (`NaN` when absent).
    pub base: f64,
    /// Current value (`NaN` when absent).
    pub cur: f64,
}

/// Gate outcome: every comparison that did not pass, in bench order.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Benches compared.
    pub benches: usize,
    /// Comparisons performed.
    pub checked: usize,
    /// Failing and warning comparisons.
    pub deltas: Vec<Delta>,
}

impl GateReport {
    /// Worst status across deltas ([`Status::Pass`] when clean).
    pub fn status(&self) -> Status {
        self.deltas
            .iter()
            .map(|d| d.kind.status())
            .max()
            .unwrap_or(Status::Pass)
    }

    fn count(&self, status: Status) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.kind.status() == status)
            .count()
    }

    /// Count one comparison and record it as a delta unless it passed.
    fn check(
        &mut self,
        pass: bool,
        bench: &str,
        metric: &str,
        kind: DeltaKind,
        base: f64,
        cur: f64,
    ) {
        self.checked += 1;
        if !pass {
            self.deltas.push(Delta {
                bench: bench.to_string(),
                metric: metric.to_string(),
                kind,
                base,
                cur,
            });
        }
    }

    /// Human-readable report: a summary line, then each delta under its
    /// bench.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate: {} — {} benches, {} comparisons, {} fail / {} warn",
            self.status().tag(),
            self.benches,
            self.checked,
            self.count(Status::Fail),
            self.count(Status::Warn)
        );
        for (i, d) in self.deltas.iter().enumerate() {
            if i == 0 || self.deltas[i - 1].bench != d.bench {
                let bench_status = self
                    .deltas
                    .iter()
                    .filter(|x| x.bench == d.bench)
                    .map(|x| x.kind.status())
                    .max()
                    .unwrap_or(Status::Pass);
                let _ = writeln!(out, "{} [{}]:", d.bench, bench_status.tag());
            }
            let _ = write!(
                out,
                "  [{}] {} ({})",
                d.kind.status().tag(),
                d.metric,
                d.kind.label()
            );
            if !(d.base.is_nan() && d.cur.is_nan()) {
                let _ = write!(
                    out,
                    ": baseline {} -> current {}",
                    fmt_val(d.base),
                    fmt_val(d.cur)
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Shortest round-trip form, so a move past [`VALUE_TOL`] stays visible.
fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else {
        v.to_string()
    }
}

/// One gated value: integer work metrics match exactly, floats within
/// [`VALUE_TOL`].
#[derive(Clone, Copy, Debug)]
enum Value {
    Exact(u64),
    Close(f64),
}

/// Bitwise equality, the trial-to-trial determinism test: a NaN equals
/// itself, and any other difference counts.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Exact(a), Value::Exact(b)) => a == b,
            (Value::Close(a), Value::Close(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Value::Exact(v) => v as f64,
            Value::Close(v) => v,
        }
    }

    /// Whether the current value `cur` matches this baseline value.
    fn matches(self, cur: Value) -> bool {
        match (self, cur) {
            (Value::Exact(b), Value::Exact(c)) => b == c,
            (Value::Close(b), Value::Close(c)) => close(b, c),
            _ => false,
        }
    }
}

/// Whether a float metric matches its baseline: both finite and within
/// [`VALUE_TOL`] relative deviation (absolute at a zero baseline), or
/// both non-finite. The baseline stores a non-finite value as `null`,
/// which reads back as NaN, so the regression to catch is a *change* in
/// non-finiteness — and a NaN deviation must never count as small.
fn close(base: f64, cur: f64) -> bool {
    if !base.is_finite() || !cur.is_finite() {
        return !base.is_finite() && !cur.is_finite();
    }
    // sor-check: allow(float-eq) — a zero baseline is an exact sentinel for the absolute-deviation fallback
    let dev = if base == 0.0 {
        cur.abs()
    } else {
        ((cur - base) / base).abs()
    };
    dev <= VALUE_TOL
}

/// Every gated value of a bench, keyed by kind and metric name.
fn gated_values(run: &BenchRun) -> Vec<(DeltaKind, String, Value)> {
    let work = &run.work;
    let mut out = Vec::with_capacity(
        work.counters.len() + 2 * work.histograms.len() + work.spans.len() + run.quality.len(),
    );
    for c in &work.counters {
        out.push((DeltaKind::Counter, c.name.clone(), Value::Exact(c.value)));
    }
    for h in &work.histograms {
        out.push((
            DeltaKind::HistogramCount,
            h.name.clone(),
            Value::Exact(h.count),
        ));
        out.push((DeltaKind::HistogramSum, h.name.clone(), Value::Close(h.sum)));
    }
    for s in &work.spans {
        let path = s.path.join(SPAN_PATH_SEP);
        out.push((DeltaKind::SpanCalls, path, Value::Exact(s.calls)));
    }
    for (name, v) in &run.quality {
        out.push((DeltaKind::Quality, name.clone(), Value::Close(*v)));
    }
    out
}

/// Gate the current runs against the baseline benches that `filter`
/// selects. A selected baseline bench that did not run fails; a run
/// bench the baseline lacks warns.
pub fn gate(baseline: &[BenchRun], current: &[BenchRun], filter: Option<&str>) -> GateReport {
    let mut report = GateReport::default();
    let baseline: Vec<&BenchRun> = baseline
        .iter()
        .filter(|b| selected(&b.name, filter))
        .collect();
    for base in &baseline {
        report.benches += 1;
        match current.iter().find(|r| r.name == base.name) {
            Some(cur) => compare_bench(&mut report, base, cur),
            None => report.check(
                false,
                &base.name,
                "(bench)",
                DeltaKind::Missing,
                f64::NAN,
                f64::NAN,
            ),
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            report.benches += 1;
            report.check(
                false,
                &cur.name,
                "(bench)",
                DeltaKind::Added,
                f64::NAN,
                f64::NAN,
            );
        }
    }
    report
}

/// Compare one bench's gated values by kind and name: a matched value
/// must match, a baseline value the run lacks fails, a new one warns.
fn compare_bench(report: &mut GateReport, base: &BenchRun, cur: &BenchRun) {
    let bench = base.name.as_str();
    let (base_values, cur_values) = (gated_values(base), gated_values(cur));
    for (kind, name, b) in &base_values {
        match cur_values.iter().find(|(k, n, _)| k == kind && n == name) {
            Some((_, _, c)) => {
                report.check(b.matches(*c), bench, name, *kind, b.as_f64(), c.as_f64())
            }
            None => report.check(false, bench, name, DeltaKind::Missing, b.as_f64(), f64::NAN),
        }
    }
    for (kind, name, c) in &cur_values {
        if !base_values.iter().any(|(k, n, _)| k == kind && n == name) {
            report.check(false, bench, name, DeltaKind::Added, f64::NAN, c.as_f64());
        }
    }
    // Not a comparison against the baseline, so not counted as one.
    if !cur.deterministic {
        report.deltas.push(Delta {
            bench: bench.to_string(),
            metric: "(trials)".to_string(),
            kind: DeltaKind::Trials,
            base: f64::NAN,
            cur: f64::NAN,
        });
    }
}

/// Seeded RNG helper shared by the kernels (fixed stream per label).
fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_obs::{BucketCount, CounterSnapshot, HistogramSnapshot, SpanSnapshot};

    fn sample_run() -> BenchRun {
        BenchRun {
            name: "kernel/x".to_string(),
            work: Snapshot {
                counters: vec![
                    CounterSnapshot {
                        name: "flow/oracle_calls".to_string(),
                        value: 42,
                    },
                    CounterSnapshot {
                        name: "flow/phases".to_string(),
                        value: 7,
                    },
                ],
                histograms: vec![HistogramSnapshot {
                    name: "core/path/hops".to_string(),
                    buckets: vec![
                        BucketCount { le: 2.0, count: 3 },
                        BucketCount {
                            le: 2.5f64.exp2(),
                            count: 1,
                        },
                    ],
                    count: 4,
                    sum: 11.5,
                }],
                spans: vec![SpanSnapshot {
                    path: vec!["bench/run".to_string(), "frt/tree".to_string()],
                    calls: 8,
                    total_ns: 0,
                    self_ns: 0,
                }],
            },
            quality: vec![("q/ratio".to_string(), 1.25), ("q/zero".to_string(), 0.0)],
            deterministic: true,
        }
    }

    #[test]
    fn table_quality_extracts_numeric_cells() {
        let mut t = Table::new("E0", &["graph", "n", "mean ratio"]);
        t.row(vec!["grid6x6".into(), "36".into(), "1.25".into()]);
        t.row(vec!["q6".into(), "64".into(), "1.50".into()]);
        let q = table_quality(&t);
        assert_eq!(
            q,
            vec![
                ("grid6x6/n".to_string(), 36.0),
                ("grid6x6/mean_ratio".to_string(), 1.25),
                ("q6/n".to_string(), 64.0),
                ("q6/mean_ratio".to_string(), 1.5),
            ]
        );
    }

    #[test]
    fn parse_cell_rejects_labels_and_non_finite() {
        assert_eq!(parse_cell("1.5"), Some(1.5));
        assert_eq!(parse_cell("-2"), Some(-2.0));
        assert_eq!(parse_cell("grid6x6"), None);
        assert_eq!(parse_cell("inf"), None);
        assert_eq!(parse_cell("NaN"), None);
        assert_eq!(parse_cell(""), None);
    }

    #[test]
    fn baseline_round_trip() {
        let run = sample_run();
        let text = baseline_json(std::slice::from_ref(&run), &[("validators", "off")])
            .expect("deterministic");
        let back = parse_baseline(&text).expect("parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].work.counters, run.work.counters);
        assert_eq!(back[0].work.histograms, run.work.histograms);
        assert_eq!(back[0].work.spans, run.work.spans);
        assert_eq!(back[0].quality, run.quality);
        let report = gate(&back, &[run], None);
        assert_eq!(report.status(), Status::Pass, "{}", report.render_text());
        assert_eq!(report.benches, 1);
        // 2 counters + histogram count and sum + 1 span + 2 quality
        assert_eq!(report.checked, 7);
    }

    #[test]
    fn gate_fails_each_moved_value_by_name_and_warns_on_additions() {
        // (case, perturbation of the current run, the single expected
        // delta — None when the gate must pass)
        type Case = (
            &'static str,
            fn(&mut BenchRun),
            Option<(DeltaKind, &'static str)>,
        );
        let cases: &[Case] = &[
            ("identical", |_| {}, None),
            (
                "counter",
                |r| r.work.counters[0].value += 1,
                Some((DeltaKind::Counter, "flow/oracle_calls")),
            ),
            (
                "histogram count",
                |r| r.work.histograms[0].count += 1,
                Some((DeltaKind::HistogramCount, "core/path/hops")),
            ),
            (
                "histogram sum",
                |r| r.work.histograms[0].sum = 12.5,
                Some((DeltaKind::HistogramSum, "core/path/hops")),
            ),
            (
                "histogram sum turns NaN",
                |r| r.work.histograms[0].sum = f64::NAN,
                Some((DeltaKind::HistogramSum, "core/path/hops")),
            ),
            (
                "span calls",
                |r| r.work.spans[0].calls += 1,
                Some((DeltaKind::SpanCalls, "bench/run > frt/tree")),
            ),
            (
                "quality beyond 1e-9",
                |r| r.quality[0].1 *= 1.0 + 1e-8,
                Some((DeltaKind::Quality, "q/ratio")),
            ),
            (
                "quality within 1e-9",
                |r| r.quality[0].1 *= 1.0 + 1e-12,
                None,
            ),
            (
                "quality turns NaN",
                |r| r.quality[0].1 = f64::NAN,
                Some((DeltaKind::Quality, "q/ratio")),
            ),
            (
                "quality leaves zero",
                |r| r.quality[1].1 = 1e-6,
                Some((DeltaKind::Quality, "q/zero")),
            ),
            (
                "trial disagreement",
                |r| r.deterministic = false,
                Some((DeltaKind::Trials, "(trials)")),
            ),
            (
                "missing counter",
                |r| {
                    r.work.counters.remove(1);
                },
                Some((DeltaKind::Missing, "flow/phases")),
            ),
            (
                "missing quality",
                |r| {
                    r.quality.remove(0);
                },
                Some((DeltaKind::Missing, "q/ratio")),
            ),
            (
                "added counter",
                |r| {
                    r.work.counters.push(CounterSnapshot {
                        name: "new/metric".to_string(),
                        value: 1,
                    });
                },
                Some((DeltaKind::Added, "new/metric")),
            ),
        ];
        let base = [sample_run()];
        for (case, perturb, expected) in cases {
            let mut cur = sample_run();
            perturb(&mut cur);
            let report = gate(&base, &[cur], None);
            let text = report.render_text();
            match expected {
                None => assert!(report.deltas.is_empty(), "{case}: {text}"),
                Some((kind, metric)) => {
                    assert_eq!(report.deltas.len(), 1, "{case}: {text}");
                    let d = &report.deltas[0];
                    assert_eq!((d.kind, d.metric.as_str()), (*kind, *metric), "{case}");
                    assert_eq!(report.status(), kind.status(), "{case}");
                    assert!(text.contains(metric), "{case}: {text}");
                }
            }
        }
        // only an addition warns; everything else fails
        assert_eq!(DeltaKind::Added.status(), Status::Warn);
        assert_eq!(DeltaKind::Missing.status(), Status::Fail);
    }

    #[test]
    fn non_finite_matches_only_non_finite() {
        let mut base = sample_run();
        base.work.histograms[0].sum = f64::NAN;
        let mut cur = base.clone();
        assert_eq!(
            gate(&[base.clone()], &[cur.clone()], None).status(),
            Status::Pass
        );
        // the writer stores +inf as null, which reads back as NaN
        cur.work.histograms[0].sum = f64::INFINITY;
        assert_eq!(
            gate(&[base.clone()], &[cur.clone()], None).status(),
            Status::Pass
        );
        cur.work.histograms[0].sum = 11.5;
        assert_eq!(gate(&[base], &[cur], None).status(), Status::Fail);
    }

    #[test]
    fn missing_bench_fails_added_bench_warns() {
        let mk = |name: &str| BenchRun {
            name: name.to_string(),
            ..sample_run()
        };
        let report = gate(&[mk("a"), mk("b")], &[mk("a"), mk("c")], None);
        assert_eq!(report.status(), Status::Fail);
        assert_eq!(report.benches, 3);
        let kind_of = |bench: &str| {
            report
                .deltas
                .iter()
                .find(|d| d.bench == bench)
                .map(|d| d.kind)
        };
        assert_eq!(kind_of("a"), None);
        assert_eq!(kind_of("b"), Some(DeltaKind::Missing));
        assert_eq!(kind_of("c"), Some(DeltaKind::Added));
        // a filter narrows the baseline to the benches it selects
        let filtered = gate(&[mk("a"), mk("b")], &[mk("a")], Some("a"));
        assert_eq!(filtered.status(), Status::Pass);
        assert_eq!(filtered.benches, 1);
    }

    #[test]
    fn drifting_quality_is_nondeterministic_and_never_written() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        fn drifting() -> Vec<(String, f64)> {
            let n = CALLS.fetch_add(1, Ordering::Relaxed);
            #[allow(clippy::cast_precision_loss)]
            let v = 1.0 + n as f64 * 1e-15;
            vec![("drift/ratio".to_string(), v)]
        }
        let drift = run_bench("test/drift", drifting);
        assert!(!drift.deterministic, "a 1e-15 drift is still a drift");
        let err = baseline_json(&[drift], &[]).expect_err("refuses to pin it");
        assert!(err.contains("test/drift"), "{err}");
    }

    #[test]
    fn baseline_without_quality_array_is_rejected_by_name() {
        let text = baseline_json(&[sample_run()], &[]).expect("deterministic");
        let renamed = text.replace("\"quality\"", "\"qualities\"");
        let err = parse_baseline(&renamed).expect_err("quality is required");
        assert!(err.contains("kernel/x") && err.contains("quality"), "{err}");
    }
}
