//! `sor-perf`: the deterministic performance & quality trajectory
//! harness behind the `perf` binary.
//!
//! A fixed suite of seeded benchmarks — quick variants of the macro
//! experiments E1/E2/E7/E8 plus micro-kernels over the library's hot
//! paths (FRT tree build, MWU restricted solve, randomized rounding,
//! scheduler step loop, the §5.3 deletion process, MCF solves, …) — each
//! run under `sor-obs` capture, producing three kinds of data per bench:
//!
//! * **work metrics** — counters, histograms, and span *call counts*
//!   from the [`sor_obs::Snapshot`]. Deterministic under the fixed seeds
//!   (the runner cross-checks trial-to-trial equality), so they gate
//!   **exactly** against the committed baseline.
//! * **quality metrics** — competitive ratios / MLU ratios / survival
//!   fractions, parsed back out of the experiment [`Table`]s or computed
//!   directly. Deterministic too; gate within a tiny tolerance.
//! * **wall times** — per span path and per whole bench, with robust
//!   stats over warmup + N trials (median / min / MAD, outlier
//!   rejection). Noisy by nature, so they gate *loosely* by ratio and
//!   can be excluded entirely (`--no-wall`, the CI posture).
//!
//! The `--quick` flag changes **only** the trial/warmup counts — never
//! instance sizes or seeds — so a quick gate run checks the identical
//! work/quality numbers the committed `BENCH_BASELINE.json` records.
//!
//! The baseline diff engine proper lives in [`sor_obs::snapshot`]
//! ([`sor_obs::snapshot::diff`]); this module layers quality and
//! wall-stat comparisons on top, reusing the same
//! [`Delta`]/[`DiffStatus`] report machinery, and adds the append-only
//! `BENCH_TRAJECTORY.jsonl` history line.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_obs::snapshot::{
    diff, snapshot_from_value, Delta, DeltaKind, DiffPolicy, DiffStatus, SnapshotDiff,
    SPAN_PATH_SEP,
};
use sor_obs::{parse_json, JsonValue, Snapshot};
use std::fmt::Write as _;
use std::time::Instant;

mod kernels;

/// Format tag written into / expected from baseline files.
pub const BASELINE_FORMAT: &str = "sor-perf/1";

/// How the suite is executed. `quick` trims trials/warmup only — the
/// workloads themselves are identical, so work/quality metrics match
/// between quick and full runs by construction.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Fewer trials/warmups (CI posture). Never changes the workloads.
    pub quick: bool,
    /// Timed trials per bench.
    pub trials: usize,
    /// Untimed warmup runs per bench (capture off).
    pub warmup: usize,
    /// Run only benches whose name contains this substring.
    pub filter: Option<String>,
}

impl PerfConfig {
    /// Defaults for the given mode: quick = 1 warmup / 2 trials,
    /// full = 2 warmups / 5 trials.
    pub fn new(quick: bool) -> Self {
        PerfConfig {
            quick,
            trials: if quick { 2 } else { 5 },
            warmup: if quick { 1 } else { 2 },
            filter: None,
        }
    }

    fn suite_name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Robust wall-time statistics for one span path of one bench.
#[derive(Clone, Debug)]
pub struct PhaseWall {
    /// Span path joined with [`SPAN_PATH_SEP`], or `"(total)"` for the
    /// whole bench.
    pub phase: String,
    /// Median over surviving trials.
    pub median_ns: u64,
    /// Minimum over surviving trials (the least-noise estimate).
    pub min_ns: u64,
    /// Median absolute deviation over surviving trials.
    pub mad_ns: u64,
    /// Trials that survived outlier rejection.
    pub trials: usize,
}

/// One executed benchmark.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Suite-unique bench name (`macro/e1`, `kernel/frt`, …).
    pub name: String,
    /// Deterministic work metrics: the trial-0 snapshot with wall-time
    /// fields zeroed and zero-valued metrics stripped (so the view is
    /// independent of which benches ran earlier in the process).
    pub work: Snapshot,
    /// Derived quality metrics, in insertion order.
    pub quality: Vec<(String, f64)>,
    /// Robust wall stats per span path plus `"(total)"`.
    pub wall: Vec<PhaseWall>,
    /// Whether every trial produced identical work metrics (it must —
    /// a `false` here means the bench is nondeterministic and cannot be
    /// trusted as a gate).
    pub deterministic: bool,
}

/// One full suite execution.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// Executed benches, in suite order.
    pub runs: Vec<BenchRun>,
}

type BenchFn = fn() -> Vec<(String, f64)>;

/// The fixed suite: (name, workload). Order matters — metric registries
/// accumulate registrations process-wide, and the work view strips
/// zeros, so each bench's work snapshot contains exactly the metrics it
/// touched regardless of position; wall spans reset per trial.
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
];

/// Names of every bench in the suite, in order.
pub fn bench_names() -> Vec<&'static str> {
    BENCHES.iter().map(|(n, _)| *n).collect()
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

/// Median / min / MAD with one round of outlier rejection (drop samples
/// above `median + 5·MAD`, then recompute). `samples` must be non-empty.
fn robust_stats(samples: &[u64]) -> (u64, u64, u64, usize) {
    fn median(sorted: &[u64]) -> u64 {
        sorted[sorted.len() / 2]
    }
    fn mad(sorted: &[u64], med: u64) -> u64 {
        let mut devs: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(med)).collect();
        devs.sort_unstable();
        median(&devs)
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let med = median(&sorted);
    let spread = mad(&sorted, med);
    let kept: Vec<u64> = sorted
        .iter()
        .copied()
        .filter(|&x| x <= med.saturating_add(spread.saturating_mul(5)))
        .collect();
    let sorted = if kept.is_empty() { sorted } else { kept };
    let med = median(&sorted);
    (med, sorted[0], mad(&sorted, med), sorted.len())
}

/// Execute one bench under the config: warmup (capture off), then timed
/// trials bracketed by `reset` / `set_enabled`, each snapshotted.
fn run_bench(name: &str, workload: BenchFn, cfg: &PerfConfig) -> BenchRun {
    sor_obs::set_enabled(false);
    for _ in 0..cfg.warmup {
        sor_obs::reset();
        let _ = workload();
    }
    let trials = cfg.trials.max(1);
    let mut snaps: Vec<Snapshot> = Vec::with_capacity(trials);
    let mut totals: Vec<u64> = Vec::with_capacity(trials);
    let mut quality: Vec<(String, f64)> = Vec::new();
    for t in 0..trials {
        sor_obs::reset();
        sor_obs::set_enabled(true);
        let t0 = Instant::now();
        let q = workload();
        let elapsed = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        sor_obs::set_enabled(false);
        snaps.push(sor_obs::snapshot());
        totals.push(elapsed);
        if t == 0 {
            quality = q;
        }
    }

    let work = work_view(&snaps[0]);
    let exact = DiffPolicy::default();
    let deterministic = snaps
        .iter()
        .skip(1)
        .all(|s| diff(&work, &work_view(s), &exact).deltas.is_empty());

    // Wall stats per span path across trials, plus the whole bench.
    let mut wall: Vec<PhaseWall> = Vec::new();
    let (median_ns, min_ns, mad_ns, kept) = robust_stats(&totals);
    wall.push(PhaseWall {
        phase: "(total)".to_string(),
        median_ns,
        min_ns,
        mad_ns,
        trials: kept,
    });
    for span in &snaps[0].spans {
        let path = span.path.join(SPAN_PATH_SEP);
        let samples: Vec<u64> = snaps
            .iter()
            .filter_map(|s| {
                s.spans
                    .iter()
                    .find(|x| x.path == span.path)
                    .map(|x| x.total_ns)
            })
            .collect();
        if samples.is_empty() {
            continue;
        }
        let (median_ns, min_ns, mad_ns, kept) = robust_stats(&samples);
        wall.push(PhaseWall {
            phase: path,
            median_ns,
            min_ns,
            mad_ns,
            trials: kept,
        });
    }

    BenchRun {
        name: name.to_string(),
        work,
        quality,
        wall,
        deterministic,
    }
}

/// Run the whole suite (honoring `cfg.filter`), with a progress line per
/// bench on stderr.
pub fn run_suite(cfg: &PerfConfig) -> SuiteRun {
    let runs = BENCHES
        .iter()
        .filter(|(name, _)| {
            cfg.filter
                .as_deref()
                .is_none_or(|needle| name.contains(needle))
        })
        .map(|(name, workload)| {
            eprintln!("perf: running {name} ({} trials)", cfg.trials.max(1));
            run_bench(name, *workload, cfg)
        })
        .collect();
    SuiteRun {
        suite: cfg.suite_name().to_string(),
        runs,
    }
}

// ---------------------------------------------------------------------
// Baseline serialization
// ---------------------------------------------------------------------

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Serialize a suite run as a baseline document. Work and quality
/// sections are byte-deterministic for a fixed workspace revision; the
/// `wall` section (omitted when `include_wall` is false) is the only
/// part that varies run to run.
pub fn suite_to_json(suite: &SuiteRun, include_wall: bool, meta: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\n  \"meta\": { \"format\": ");
    push_escaped(&mut out, BASELINE_FORMAT);
    out.push_str(", \"suite\": ");
    push_escaped(&mut out, &suite.suite);
    for (k, v) in meta {
        out.push_str(", ");
        push_escaped(&mut out, k);
        out.push_str(": ");
        push_escaped(&mut out, v);
    }
    out.push_str(" },\n  \"benchmarks\": [");
    for (i, run) in suite.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n      \"name\": ");
        push_escaped(&mut out, &run.name);
        let _ = write!(
            out,
            ",\n      \"deterministic\": {},\n      \"quality\": [",
            run.deterministic
        );
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
        out.push_str(",\n      \"wall\": [");
        if include_wall {
            for (j, w) in run.wall.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        { \"phase\": ");
                push_escaped(&mut out, &w.phase);
                let _ = write!(
                    out,
                    ", \"median_ns\": {}, \"min_ns\": {}, \"mad_ns\": {}, \"trials\": {} }}",
                    w.median_ns, w.min_ns, w.mad_ns, w.trials
                );
            }
            if !run.wall.is_empty() {
                out.push_str("\n      ");
            }
        }
        out.push_str("]\n    }");
    }
    if !suite.runs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// A baseline parsed back from disk: suite-shaped, snapshot per bench.
pub type Baseline = SuiteRun;

/// Parse a baseline document written by [`suite_to_json`].
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let meta = doc.get("meta").ok_or("missing 'meta'")?;
    let format = meta
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or("missing meta.format")?;
    if format != BASELINE_FORMAT {
        return Err(format!(
            "baseline format '{format}' unsupported (expected '{BASELINE_FORMAT}')"
        ));
    }
    let suite = meta
        .get("suite")
        .and_then(JsonValue::as_str)
        .unwrap_or("quick")
        .to_string();
    let mut runs = Vec::new();
    for b in doc
        .get("benchmarks")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'benchmarks' array")?
    {
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
        let mut quality = Vec::new();
        for qv in b.get("quality").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let qname = qv
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("quality entry missing 'name'")?;
            let value = qv
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("quality '{qname}' missing numeric 'value'"))?;
            quality.push((qname.to_string(), value));
        }
        let mut wall = Vec::new();
        for wv in b.get("wall").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            wall.push(PhaseWall {
                phase: wv
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .ok_or("wall entry missing 'phase'")?
                    .to_string(),
                median_ns: wv.get("median_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                min_ns: wv.get("min_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                mad_ns: wv.get("mad_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                trials: usize::try_from(wv.get("trials").and_then(JsonValue::as_u64).unwrap_or(0))
                    .unwrap_or(0),
            });
        }
        let deterministic = b
            .get("deterministic")
            .map(|v| v == &JsonValue::Bool(true))
            .unwrap_or(true);
        runs.push(BenchRun {
            name,
            work,
            quality,
            wall,
            deterministic,
        });
    }
    Ok(SuiteRun { suite, runs })
}

// ---------------------------------------------------------------------
// Gate engine
// ---------------------------------------------------------------------

/// Gate thresholds. Work gating delegates to the
/// [`sor_obs::snapshot::diff`] engine; quality and wall comparisons are
/// layered here because they operate on derived values and robust
/// medians rather than raw snapshots.
#[derive(Clone, Debug)]
pub struct GatePolicy {
    /// Relative tolerance for work metrics (0 = exact, the default).
    pub work_tol: f64,
    /// Relative tolerance for quality metrics.
    pub quality_tol: f64,
    /// Compare wall medians at all (off = CI noise-proof posture).
    pub wall: bool,
    /// Current median above this multiple of baseline median → warn.
    pub wall_warn_ratio: f64,
    /// Current median above this multiple of baseline median → fail.
    pub wall_fail_ratio: f64,
    /// Phases with baseline median below this floor are never compared.
    pub min_wall_ns: u64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            work_tol: 0.0,
            quality_tol: 1e-9,
            wall: false,
            wall_warn_ratio: 1.3,
            wall_fail_ratio: 1.6,
            min_wall_ns: 200_000,
        }
    }
}

/// Gate outcome for one bench.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Bench name.
    pub name: String,
    /// Comparisons performed.
    pub checked: usize,
    /// Non-pass deltas (work, quality, and wall combined).
    pub deltas: Vec<Delta>,
}

impl BenchReport {
    /// Worst delta status (Pass when clean).
    pub fn status(&self) -> DiffStatus {
        self.deltas
            .iter()
            .map(|d| d.status)
            .max()
            .unwrap_or(DiffStatus::Pass)
    }
}

/// Gate outcome for the whole suite.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Per-bench outcomes, in baseline order.
    pub benches: Vec<BenchReport>,
}

impl GateReport {
    /// Worst status across benches.
    pub fn status(&self) -> DiffStatus {
        self.benches
            .iter()
            .map(BenchReport::status)
            .max()
            .unwrap_or(DiffStatus::Pass)
    }

    /// Total failing deltas.
    pub fn num_fail(&self) -> usize {
        self.benches
            .iter()
            .flat_map(|b| &b.deltas)
            .filter(|d| d.status == DiffStatus::Fail)
            .count()
    }

    /// Total warning deltas.
    pub fn num_warn(&self) -> usize {
        self.benches
            .iter()
            .flat_map(|b| &b.deltas)
            .filter(|d| d.status == DiffStatus::Warn)
            .count()
    }

    /// Total comparisons performed.
    pub fn num_checked(&self) -> usize {
        self.benches.iter().map(|b| b.checked).sum()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate: {} — {} benches, {} comparisons, {} fail / {} warn",
            self.status().tag(),
            self.benches.len(),
            self.num_checked(),
            self.num_fail(),
            self.num_warn()
        );
        for b in &self.benches {
            if b.deltas.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{} [{}]:", b.name, b.status().tag());
            let diff_view = SnapshotDiff {
                checked: b.checked,
                deltas: b.deltas.clone(),
            };
            out.push_str(&diff_view.render_text());
        }
        out
    }

    /// Machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"status\": \"{}\", \"checked\": {}, \"fail\": {}, \"warn\": {},\n  \"benches\": [",
            self.status().tag(),
            self.num_checked(),
            self.num_fail(),
            self.num_warn()
        );
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"name\": ");
            push_escaped(&mut out, &b.name);
            let _ = write!(
                out,
                ", \"status\": \"{}\", \"checked\": {}, \"deltas\": [",
                b.status().tag(),
                b.checked
            );
            for (j, d) in b.deltas.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      { \"metric\": ");
                push_escaped(&mut out, &d.metric);
                let _ = write!(
                    out,
                    ", \"kind\": \"{}\", \"status\": \"{}\", ",
                    d.kind.label(),
                    d.status.tag()
                );
                out.push_str("\"base\": ");
                push_f64(&mut out, d.base);
                out.push_str(", \"cur\": ");
                push_f64(&mut out, d.cur);
                out.push_str(", \"note\": ");
                push_escaped(&mut out, &d.note);
                out.push_str(" }");
            }
            if !b.deltas.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("] }");
        }
        if !self.benches.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Markdown report (for CI artifacts / PR summaries).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## perf gate: {}\n\n{} benches, {} comparisons, **{} fail**, {} warn\n",
            self.status().tag(),
            self.benches.len(),
            self.num_checked(),
            self.num_fail(),
            self.num_warn()
        );
        if self.benches.iter().all(|b| b.deltas.is_empty()) {
            out.push_str("No deviations from baseline.\n");
            return out;
        }
        out.push_str("| bench | metric | kind | baseline | current | status | note |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for b in &self.benches {
            for d in &b.deltas {
                let _ = writeln!(
                    out,
                    "| {} | `{}` | {} | {} | {} | {} | {} |",
                    b.name,
                    d.metric,
                    d.kind.label(),
                    fmt_json_num(d.base),
                    fmt_json_num(d.cur),
                    d.status.tag(),
                    d.note
                );
            }
        }
        out
    }
}

fn fmt_json_num(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    // sor-check: allow(float-eq) — fract()==0.0 is an exact integrality test for display
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Gate a current suite run against a baseline.
pub fn gate(baseline: &Baseline, current: &SuiteRun, policy: &GatePolicy) -> GateReport {
    let mut benches = Vec::new();
    for base in &baseline.runs {
        let mut report = BenchReport {
            name: base.name.clone(),
            checked: 0,
            deltas: Vec::new(),
        };
        let Some(cur) = current.runs.iter().find(|r| r.name == base.name) else {
            report.checked += 1;
            report.deltas.push(Delta {
                metric: "(bench)".to_string(),
                kind: DeltaKind::Missing,
                base: f64::NAN,
                cur: f64::NAN,
                status: DiffStatus::Fail,
                note: "bench in baseline was not run (check --filter)".to_string(),
            });
            benches.push(report);
            continue;
        };

        // Work metrics through the sor-obs diff engine, exact by default.
        let work_policy = DiffPolicy {
            counter_tol: policy.work_tol,
            value_tol: policy.work_tol.max(1e-9),
            compare_wall: false,
            ..DiffPolicy::default()
        };
        let work_diff = diff(&base.work, &cur.work, &work_policy);
        report.checked += work_diff.checked;
        report.deltas.extend(work_diff.deltas);

        if !cur.deterministic {
            report.deltas.push(Delta {
                metric: "(determinism)".to_string(),
                kind: DeltaKind::Counter,
                base: 1.0,
                cur: 0.0,
                status: DiffStatus::Fail,
                note: "work metrics differed between trials of this run".to_string(),
            });
        }

        // Quality metrics, tolerance compare by name.
        for (qname, qbase) in &base.quality {
            report.checked += 1;
            match cur.quality.iter().find(|(n, _)| n == qname) {
                None => report.deltas.push(Delta {
                    metric: qname.clone(),
                    kind: DeltaKind::Missing,
                    base: *qbase,
                    cur: f64::NAN,
                    status: DiffStatus::Fail,
                    note: "quality metric vanished".to_string(),
                }),
                Some((_, qcur)) => {
                    // sor-check: allow(float-eq) — 0.0 is an exact sentinel (absolute-dev fallback)
                    let dev = if *qbase == 0.0 {
                        qcur.abs()
                    } else {
                        ((qcur - qbase) / qbase).abs()
                    };
                    if dev > policy.quality_tol {
                        report.deltas.push(Delta {
                            metric: qname.clone(),
                            kind: DeltaKind::Quality,
                            base: *qbase,
                            cur: *qcur,
                            status: DiffStatus::Fail,
                            note: format!(
                                "quality deviates beyond tolerance {}",
                                policy.quality_tol
                            ),
                        });
                    }
                }
            }
        }
        for (qname, qcur) in &cur.quality {
            if !base.quality.iter().any(|(n, _)| n == qname) {
                report.checked += 1;
                report.deltas.push(Delta {
                    metric: qname.clone(),
                    kind: DeltaKind::Added,
                    base: f64::NAN,
                    cur: *qcur,
                    status: DiffStatus::Warn,
                    note: "new quality metric not in baseline".to_string(),
                });
            }
        }

        // Wall medians, loose ratios, only when enabled and recorded.
        if policy.wall {
            for bw in &base.wall {
                if bw.median_ns < policy.min_wall_ns {
                    continue;
                }
                let Some(cw) = cur.wall.iter().find(|w| w.phase == bw.phase) else {
                    continue; // span vanished — already failed via work spans
                };
                report.checked += 1;
                #[allow(clippy::cast_precision_loss)]
                let ratio = cw.median_ns as f64 / (bw.median_ns as f64).max(1.0);
                let status = if ratio > policy.wall_fail_ratio {
                    DiffStatus::Fail
                } else if ratio > policy.wall_warn_ratio {
                    DiffStatus::Warn
                } else {
                    DiffStatus::Pass
                };
                if status != DiffStatus::Pass {
                    #[allow(clippy::cast_precision_loss)]
                    report.deltas.push(Delta {
                        metric: format!("{}:{}", base.name, bw.phase),
                        kind: DeltaKind::SpanWall,
                        base: bw.median_ns as f64,
                        cur: cw.median_ns as f64,
                        status,
                        note: format!(
                            "median wall {ratio:.2}x baseline (warn >{:.2}x, fail >{:.2}x)",
                            policy.wall_warn_ratio, policy.wall_fail_ratio
                        ),
                    });
                }
            }
        }

        benches.push(report);
    }

    // Benches run but absent from the baseline: warn (refresh intended?).
    for cur in &current.runs {
        if !baseline.runs.iter().any(|b| b.name == cur.name) {
            benches.push(BenchReport {
                name: cur.name.clone(),
                checked: 1,
                deltas: vec![Delta {
                    metric: "(bench)".to_string(),
                    kind: DeltaKind::Added,
                    base: f64::NAN,
                    cur: f64::NAN,
                    status: DiffStatus::Warn,
                    note: "bench not in baseline (refresh baseline if intended)".to_string(),
                }],
            });
        }
    }

    GateReport { benches }
}

/// One `BENCH_TRAJECTORY.jsonl` line for a gated run. `rev`/`dirty` come
/// from git (the binary shells out); `unix_ts` from the system clock.
pub fn trajectory_line(
    report: &GateReport,
    suite: &SuiteRun,
    rev: &str,
    dirty: bool,
    unix_ts: u64,
) -> String {
    let wall_total_ns: u64 = suite
        .runs
        .iter()
        .filter_map(|r| r.wall.iter().find(|w| w.phase == "(total)"))
        .map(|w| w.median_ns)
        .sum();
    let mut out = String::with_capacity(256);
    out.push_str("{ \"ts\": ");
    let _ = write!(out, "{unix_ts}");
    out.push_str(", \"rev\": ");
    push_escaped(&mut out, rev);
    let _ = write!(
        out,
        ", \"dirty\": {dirty}, \"suite\": \"{}\", \"status\": \"{}\", \"benches\": {}, \"checked\": {}, \"fail\": {}, \"warn\": {}, \"wall_total_ms\": {} }}",
        suite.suite,
        report.status().tag(),
        suite.runs.len(),
        report.num_checked(),
        report.num_fail(),
        report.num_warn(),
        wall_total_ns / 1_000_000
    );
    out
}

/// Summary table of a suite run (the no-gate default output).
pub fn render_suite_summary(suite: &SuiteRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>8} {:>8} {:>7}  det",
        "bench", "median_ms", "work", "quality", "phases"
    );
    for r in &suite.runs {
        let total = r
            .wall
            .iter()
            .find(|w| w.phase == "(total)")
            .map_or(0, |w| w.median_ns);
        let _ = writeln!(
            out,
            "{:<24} {:>10.2} {:>8} {:>8} {:>7}  {}",
            r.name,
            total as f64 / 1e6,
            r.work.num_metrics(),
            r.quality.len(),
            r.wall.len().saturating_sub(1),
            if r.deterministic { "yes" } else { "NO" }
        );
    }
    out
}

/// Seeded RNG helper shared by the kernels (fixed stream per label).
fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn robust_stats_rejects_outliers() {
        let (med, min, _mad, kept) = robust_stats(&[100, 101, 102, 99, 5000]);
        assert_eq!(min, 99);
        assert!(med <= 102);
        assert_eq!(kept, 4);
    }

    #[test]
    fn baseline_round_trip() {
        let suite = SuiteRun {
            suite: "quick".to_string(),
            runs: vec![BenchRun {
                name: "kernel/x".to_string(),
                work: Snapshot {
                    counters: vec![sor_obs::CounterSnapshot {
                        name: "a/b".to_string(),
                        value: 3,
                    }],
                    histograms: vec![],
                    spans: vec![],
                },
                quality: vec![("q/ratio".to_string(), 1.25)],
                wall: vec![PhaseWall {
                    phase: "(total)".to_string(),
                    median_ns: 1000,
                    min_ns: 900,
                    mad_ns: 10,
                    trials: 3,
                }],
                deterministic: true,
            }],
        };
        let text = suite_to_json(&suite, true, &[("validators", "off")]);
        let back = parse_baseline(&text).expect("parses");
        assert_eq!(back.suite, "quick");
        assert_eq!(back.runs.len(), 1);
        assert_eq!(back.runs[0].work.counters[0].value, 3);
        assert_eq!(back.runs[0].quality, suite.runs[0].quality);
        assert_eq!(back.runs[0].wall[0].median_ns, 1000);

        // gate against itself: clean
        let report = gate(&back, &suite, &GatePolicy::default());
        assert_eq!(report.status(), DiffStatus::Pass);

        // perturb a work counter: named failure
        let mut bad = suite.clone();
        bad.runs[0].work.counters[0].value = 4;
        let report = gate(&back, &bad, &GatePolicy::default());
        assert_eq!(report.status(), DiffStatus::Fail);
        assert!(report.render_text().contains("a/b"));
        assert!(report.render_json().contains("\"a/b\""));
        assert!(report.render_markdown().contains("`a/b`"));

        // perturb a quality metric: named failure
        let mut bad = suite.clone();
        bad.runs[0].quality[0].1 = 1.5;
        let report = gate(&back, &bad, &GatePolicy::default());
        assert_eq!(report.status(), DiffStatus::Fail);
        assert!(report.render_text().contains("q/ratio"));

        // wall regression: pass without --wall, fail with
        let mut slow = suite.clone();
        slow.runs[0].wall[0].median_ns = 2000;
        let mut policy = GatePolicy::default();
        assert_eq!(gate(&back, &slow, &policy).status(), DiffStatus::Pass);
        policy.wall = true;
        policy.min_wall_ns = 0;
        let report = gate(&back, &slow, &policy);
        assert_eq!(report.status(), DiffStatus::Fail);
        assert!(report.render_text().contains("(total)"));
    }

    #[test]
    fn missing_bench_fails_added_bench_warns() {
        let mk = |name: &str| BenchRun {
            name: name.to_string(),
            work: Snapshot {
                counters: vec![],
                histograms: vec![],
                spans: vec![],
            },
            quality: vec![],
            wall: vec![],
            deterministic: true,
        };
        let baseline = SuiteRun {
            suite: "quick".into(),
            runs: vec![mk("a"), mk("b")],
        };
        let current = SuiteRun {
            suite: "quick".into(),
            runs: vec![mk("a"), mk("c")],
        };
        let report = gate(&baseline, &current, &GatePolicy::default());
        assert_eq!(report.status(), DiffStatus::Fail);
        let b = report.benches.iter().find(|x| x.name == "b").expect("b");
        assert_eq!(b.status(), DiffStatus::Fail);
        let c = report.benches.iter().find(|x| x.name == "c").expect("c");
        assert_eq!(c.status(), DiffStatus::Warn);
    }

    #[test]
    fn trajectory_line_is_one_json_object() {
        let suite = SuiteRun {
            suite: "quick".into(),
            runs: vec![],
        };
        let report = gate(&suite, &suite, &GatePolicy::default());
        let line = trajectory_line(&report, &suite, "abc123", false, 1700000000);
        assert!(!line.contains('\n'));
        let v = parse_json(&line).expect("valid json");
        assert_eq!(v.get("rev").and_then(JsonValue::as_str), Some("abc123"));
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("PASS"));
    }
}
