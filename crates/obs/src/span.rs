//! RAII structured spans and the phase tree.
//!
//! [`span`] returns a guard that times its scope; guards nest through a
//! thread-local stack, so each distinct *path* of span names (e.g.
//! `sor/run` → `hierarchy/build` → `frt/tree`) becomes one node of a
//! phase tree with a call count and accumulated wall time. Span names
//! themselves may contain `/` (the workspace convention is
//! `area/action`), so tree paths are stored as segment vectors and keyed
//! internally with a separator that cannot appear in a name.
//!
//! [`phase_report`] renders the tree as an indented flamegraph-style
//! text report with per-node total time, self time (total minus direct
//! children), and share of the root span.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Internal path separator for the span map key. Span *names* use `/`
/// freely; `;` is reserved (a name containing it would corrupt the
/// tree, so don't).
const SEP: char = ';';

#[derive(Default)]
struct SpanStat {
    calls: u64,
    total_ns: u64,
}

fn span_map() -> &'static Mutex<HashMap<String, SpanStat>> {
    static MAP: OnceLock<Mutex<HashMap<String, SpanStat>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    /// The currently open span names on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A live RAII span; created by [`span`], recorded into the phase tree
/// when dropped. Inert (and allocation-free) while capture is disabled.
#[must_use = "a span times its scope; dropping it immediately records ~0ns"]
#[derive(Debug)]
pub struct Span {
    /// `Some((start, key))` when capture was enabled at creation; the
    /// key is the full stack path, pre-joined so `Drop` does no work
    /// beyond one map update.
    live: Option<(Instant, String)>,
}

/// Open a span named `name` for the enclosing scope. The returned guard
/// records one call and the elapsed wall time into the phase-tree node
/// identified by the stack of currently open spans on this thread.
///
/// ```
/// let _root = sor_obs::span("doc/outer");
/// {
///     let _inner = sor_obs::span("doc/inner"); // node: doc/outer → doc/inner
/// }
/// ```
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { live: None };
    }
    let key = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        let mut key = String::with_capacity(stack.len() * 16);
        for (i, seg) in stack.iter().enumerate() {
            if i > 0 {
                key.push(SEP);
            }
            key.push_str(seg);
        }
        key
    });
    Span {
        live: Some((Instant::now(), key)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((start, key)) = self.live.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut map = span_map().lock();
        let stat = map.entry(key).or_default();
        stat.calls += 1;
        stat.total_ns = stat
            .total_ns
            .saturating_add(u64::try_from(elapsed).unwrap_or(u64::MAX));
    }
}

/// One node of the phase tree at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span names from the root down to this node (names may contain
    /// `/`; the nesting structure lives in this vector, not the names).
    pub path: Vec<String>,
    /// How many times this exact path was entered.
    pub calls: u64,
    /// Accumulated wall time across all calls, in nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus the total of direct children (saturating);
    /// computed at snapshot time.
    pub self_ns: u64,
}

impl SpanSnapshot {
    /// Depth in the tree (root spans have depth 1).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The node's own name (last path segment), or `""` for a
    /// degenerate empty path (never produced by [`span`]).
    pub fn name(&self) -> &str {
        self.path.last().map_or("", String::as_str)
    }
}

/// Snapshot the phase tree, sorted by path (parents sort before their
/// children, so iteration order is a pre-order walk).
pub(crate) fn span_snapshots() -> Vec<SpanSnapshot> {
    let mut nodes: Vec<SpanSnapshot> = {
        let map = span_map().lock();
        map.iter()
            .map(|(key, stat)| SpanSnapshot {
                path: key.split(SEP).map(str::to_string).collect(),
                calls: stat.calls,
                total_ns: stat.total_ns,
                self_ns: stat.total_ns,
            })
            .collect()
    };
    nodes.sort_by(|a, b| a.path.cmp(&b.path));
    // Subtract each node's total from its parent's self time.
    for i in 0..nodes.len() {
        let (parent_path, child_total) = (nodes[i].path.clone(), nodes[i].total_ns);
        if parent_path.len() < 2 {
            continue;
        }
        let parent = &parent_path[..parent_path.len() - 1];
        if let Some(p) = nodes.iter_mut().find(|n| n.path == parent) {
            p.self_ns = p.self_ns.saturating_sub(child_total);
        }
    }
    nodes
}

/// Clear the phase tree (open spans on other threads will re-create
/// their nodes when they close).
pub(crate) fn reset_spans() {
    span_map().lock().clear();
}

fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ms = ns as f64 / 1e6;
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{ms:.3}ms")
    }
}

/// Render a snapshot of the phase tree (as produced by
/// [`crate::snapshot`](fn@crate::snapshot)) as an indented text report. Percentages are of
/// the first root span's total.
pub fn render_phase_tree(nodes: &[SpanSnapshot]) -> String {
    if nodes.is_empty() {
        return "(no spans recorded)\n".to_string();
    }
    let root_total: u64 = nodes
        .iter()
        .filter(|n| n.depth() == 1)
        .map(|n| n.total_ns)
        .sum();
    let name_width = nodes
        .iter()
        .map(|n| 2 * (n.depth() - 1) + n.name().len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    for n in nodes {
        let indent = "  ".repeat(n.depth() - 1);
        #[allow(clippy::cast_precision_loss)]
        let pct = if root_total > 0 {
            100.0 * n.total_ns as f64 / root_total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{indent}{name:<width$}  calls={calls:<7} total={total:>9}  self={selfv:>9}  {pct:5.1}%",
            name = n.name(),
            width = name_width - indent.len(),
            calls = n.calls,
            total = fmt_ns(n.total_ns),
            selfv = fmt_ns(n.self_ns),
        );
    }
    out
}

/// Snapshot the phase tree and render it — the `--trace` report.
pub fn phase_report() -> String {
    render_phase_tree(&span_snapshots())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let _guard = crate::metrics::test_lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _root = span("span-test/root");
            spin(50_000);
            for _ in 0..3 {
                let _child = span("span-test/child");
                spin(10_000);
            }
            {
                let _other = span("span-test/other");
                let _grand = span("span-test/grand");
                spin(5_000);
            }
        }
        crate::set_enabled(false);
        let nodes = span_snapshots();
        let paths: Vec<Vec<String>> = nodes.iter().map(|n| n.path.clone()).collect();
        assert_eq!(
            paths,
            vec![
                vec!["span-test/root".to_string()],
                vec!["span-test/root".to_string(), "span-test/child".to_string()],
                vec!["span-test/root".to_string(), "span-test/other".to_string()],
                vec![
                    "span-test/root".to_string(),
                    "span-test/other".to_string(),
                    "span-test/grand".to_string()
                ],
            ]
        );
        let root = &nodes[0];
        let child = &nodes[1];
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 3);
        // parent strictly contains its children
        assert!(root.total_ns >= child.total_ns + nodes[2].total_ns);
        // self = total − direct children (grandchild subtracts from
        // `other`, not from root)
        assert_eq!(
            root.self_ns,
            root.total_ns - child.total_ns - nodes[2].total_ns
        );
        reset_spans();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::metrics::test_lock();
        crate::set_enabled(false);
        reset_spans();
        {
            let _s = span("span-test/ghost");
        }
        assert!(span_snapshots().is_empty());
    }

    #[test]
    fn render_includes_names_and_handles_empty() {
        let _guard = crate::metrics::test_lock();
        assert!(render_phase_tree(&[]).contains("no spans"));
        let nodes = vec![
            SpanSnapshot {
                path: vec!["a".into()],
                calls: 1,
                total_ns: 2_000_000,
                self_ns: 1_000_000,
            },
            SpanSnapshot {
                path: vec!["a".into(), "b".into()],
                calls: 4,
                total_ns: 1_000_000,
                self_ns: 1_000_000,
            },
        ];
        let text = render_phase_tree(&nodes);
        assert!(text.contains("a "));
        assert!(text.contains("  b"));
        assert!(text.contains("calls=4"));
        assert!(text.contains("100.0%"));
    }
}
