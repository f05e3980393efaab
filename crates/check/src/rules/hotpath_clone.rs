//! `clone-in-loop`: no `.clone()` at loop depth ≥ 1 in a hot tree.
//!
//! A clone duplicates its receiver's heap storage; doing so once per
//! loop iteration — counting loops across function boundaries via the
//! hot tree's chain depth, so a depth-0 clone inside a helper called
//! from a loop still counts — is the single most common way the
//! ROADMAP-2 hot paths (FRT embedding, `sample_k`, the MWU oracle) go
//! quadratic in practice. The fix is almost always a borrow,
//! `std::mem::take`, or an `Arc` share.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{ItemGraph, Workspace};
use crate::items::AllocKind;
use crate::report::Finding;

use super::allows;
use super::hotpath::{witness_to, Hot};

/// Run the clone-in-loop rule.
pub fn run(ws: &Workspace, graph: &ItemGraph, hot: &Hot) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for tree in &hot.trees {
        for (f, fref) in graph.fns.iter().enumerate() {
            if !tree.reached[f] {
                continue;
            }
            let file = &ws.files[fref.file];
            let item = &file.items[fref.item];
            if allows(file, item.line, "clone-in-loop") {
                continue;
            }
            // Deepest unallowed clone per receiver label.
            let mut deepest: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // label → (eff, line)
            for a in &item.facts.allocs {
                if a.kind != AllocKind::Clone {
                    continue;
                }
                let eff = tree.chain_depth[f].max(a.depth);
                if eff < 1 || allows(file, a.line, "clone-in-loop") {
                    continue;
                }
                let label = a.recv.clone().unwrap_or_else(|| "<expr>".to_string());
                let e = deepest.entry(label).or_insert((eff, a.line));
                if eff > e.0 {
                    *e = (eff, a.line);
                }
            }
            for (label, (eff, line)) in deepest {
                if !seen.insert((fref.file, fref.item, label.clone())) {
                    continue;
                }
                let fn_path = graph.fn_path(ws, f);
                let witness = witness_to(
                    ws,
                    graph,
                    tree,
                    f,
                    &format!(
                        "`{}.clone()` at {}:{} (loop depth {})",
                        label,
                        file.rel.display(),
                        line,
                        eff
                    ),
                );
                out.push(Finding {
                    rule: "clone-in-loop".into(),
                    file: file.rel.clone(),
                    line,
                    symbol: format!("{fn_path}:{label}.clone"),
                    message: format!(
                        "`{}.clone()` runs at effective loop depth {} in `{}`, on the \
                         hot path of `{}` — borrow, `std::mem::take`, or share via \
                         `Arc` instead of cloning per iteration",
                        label, eff, fn_path, tree.spec
                    ),
                    witness,
                });
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
    fn lexical_clone_in_loop_is_flagged() {
        let fs = findings(
            "pub fn entry(xs: &[X]) {\n    for x in xs {\n        let y = x.clone();\n        let _ = y;\n    }\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].symbol.ends_with("entry:x.clone"), "{}", fs[0].symbol);
    }

    #[test]
    fn helper_clone_under_caller_loop_is_flagged() {
        let fs = findings(
            "pub fn entry(xs: &[X]) {\n    for x in xs {\n        helper(x);\n    }\n}\nfn helper(x: &X) {\n    let y = x.clone();\n    let _ = y;\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].symbol.ends_with("helper:x.clone"), "{}", fs[0].symbol);
    }

    #[test]
    fn clone_outside_any_loop_is_clean() {
        let fs = findings("pub fn entry(x: &X) {\n    let y = x.clone();\n    let _ = y;\n}\n");
        assert!(fs.is_empty(), "{fs:?}");
    }
}
