//! `growth-without-capacity`: collections grown in a loop must be
//! pre-sized.
//!
//! Within every function of a hot tree, a local constructed with a
//! growable default constructor (`Vec::new()`, `vec![]`,
//! `String::new()`, `HashMap::new()`, ...) and then `.push(..)` /
//! `.insert(..)` / `.push_str(..)`-ed at a strictly deeper lexical loop
//! depth than its construction pays repeated reallocation on the hot
//! path — construct it `with_capacity` (or `reserve` up front) instead.
//! Intra-function and lexical by design: the interprocedural story is
//! `alloc-in-hot`'s job.

use std::collections::BTreeSet;

use crate::graph::{ItemGraph, Workspace};
use crate::items::{body_spans, ident_after_let, loop_depths};
use crate::report::Finding;

use super::allows;
use super::hotpath::Hot;

/// Constructors of growable collections that support pre-sizing.
const GROWABLE_CTORS: [&str; 6] = [
    "Vec::new(",
    "vec![]",
    "String::new(",
    "HashMap::new(",
    "HashSet::new(",
    "VecDeque::new(",
];

/// Growth methods whose amortized cost a capacity hint removes.
const GROW_CALLS: [&str; 3] = [".push(", ".insert(", ".push_str("];

/// Run the growth-without-capacity rule.
pub fn run(ws: &Workspace, graph: &ItemGraph, hot: &Hot) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    // (file, item) → body span, for files that host hot-tree fns.
    let mut spans_of: Vec<Option<std::collections::BTreeMap<usize, (usize, usize)>>> =
        vec![None; ws.files.len()];
    for (f, fref) in graph.fns.iter().enumerate() {
        if !hot.in_tree[f] {
            continue;
        }
        let file = &ws.files[fref.file];
        let item = &file.items[fref.item];
        if allows(file, item.line, "growth-without-capacity") {
            continue;
        }
        let spans = spans_of[fref.file].get_or_insert_with(|| {
            body_spans(file)
                .into_iter()
                .map(|(i, o, c)| (i, (o, c)))
                .collect()
        });
        let Some(&(open, close)) = spans.get(&fref.item) else {
            continue;
        };
        let depth = loop_depths(&file.stripped);
        // Locals constructed without capacity: (name, 1-based decl line).
        let mut locals: Vec<(String, usize)> = Vec::new();
        for idx in (open - 1)..close.min(file.stripped.len()) {
            let s = &file.stripped[idx];
            let t = s.trim_start();
            if !t.starts_with("let ") || !GROWABLE_CTORS.iter().any(|c| s.contains(c)) {
                continue;
            }
            if let Some(name) = ident_after_let(t) {
                locals.push((name, idx + 1));
            }
        }
        for (name, decl_line) in locals {
            for idx in (decl_line)..close.min(file.stripped.len()) {
                let s = &file.stripped[idx];
                let line_no = idx + 1;
                let hit = GROW_CALLS
                    .iter()
                    .find(|c| s.contains(&format!("{name}{c}")));
                let Some(grow) = hit else { continue };
                if depth[idx] <= depth[decl_line - 1] {
                    continue; // same loop level as the construction
                }
                if allows(file, line_no, "growth-without-capacity") {
                    continue;
                }
                if !seen.insert((fref.file, fref.item, name.clone())) {
                    break;
                }
                let fn_path = graph.fn_path(ws, f);
                let shown = grow.trim_matches(['.', '(']);
                out.push(Finding {
                    rule: "growth-without-capacity".into(),
                    file: file.rel.clone(),
                    line: line_no,
                    symbol: format!("{fn_path}:{name}"),
                    message: format!(
                        "`{}` is grown with `.{}(..)` inside a loop but constructed \
                         without `with_capacity` in `{}` (hot tree) — pre-size it to \
                         avoid repeated reallocation",
                        name, shown, fn_path
                    ),
                    witness: vec![
                        format!(
                            "`{}` constructed without capacity at {}:{}",
                            name,
                            file.rel.display(),
                            decl_line
                        ),
                        format!(
                            "`{}.{}(..)` in a loop at {}:{} (loop depth {})",
                            name,
                            shown,
                            file.rel.display(),
                            line_no,
                            depth[idx]
                        ),
                    ],
                });
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::items::parse_file;
    use std::path::Path;

    fn findings(text: &str) -> Vec<Finding> {
        let mut w = Workspace::default();
        w.files.push(parse_file(
            Path::new("crates/core/src/a.rs"),
            "sor-core",
            text,
        ));
        let cfg = Config::parse("[hotpath]\nentries = [\"entry\"]\n").expect("cfg");
        let graph = ItemGraph::build(&w);
        let hot = Hot::build(&w, &graph, &cfg);
        run(&w, &graph, &hot)
    }

    #[test]
    fn push_in_loop_without_capacity_is_flagged() {
        let fs = findings(
            "pub fn entry(n: usize) -> Vec<usize> {\n    let mut out = Vec::new();\n    for i in 0..n {\n        out.push(i);\n    }\n    out\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].symbol.ends_with("entry:out"), "{}", fs[0].symbol);
        assert_eq!(fs[0].witness.len(), 2, "{:?}", fs[0].witness);
    }

    #[test]
    fn with_capacity_is_clean() {
        let fs = findings(
            "pub fn entry(n: usize) -> Vec<usize> {\n    let mut out = Vec::with_capacity(n);\n    for i in 0..n {\n        out.push(i);\n    }\n    out\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn per_iteration_local_is_clean() {
        // `v` is rebuilt each iteration and pushed at its own loop
        // level: not repeated growth of one collection.
        let fs = findings(
            "pub fn entry(n: usize) {\n    for i in 0..n {\n        let mut v = Vec::new();\n        v.push(i);\n        let _ = v;\n    }\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
