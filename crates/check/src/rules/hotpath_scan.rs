//! `quadratic-scan`: no linear scans inside a loop over a collection.
//!
//! Within every function of a hot tree, a `for` loop over a `Vec`/slice
//! whose body runs `.contains(..)`, `.iter().position(..)` or
//! `.iter().find(..)` against the same or a sibling `Vec`/slice is
//! O(n·m) — the classic accidental quadratic. The receivers are tracked
//! lexically: slice/`Vec` parameters from the signature plus locals
//! whose `let` line evidences a `Vec` (`vec![`, `Vec::`, `.to_vec()`,
//! `.collect::<Vec`). Sets and maps are exempt: their `.contains` is
//! the fix, not the bug.

use std::collections::BTreeSet;

use crate::graph::{ItemGraph, Workspace};
use crate::items::{body_spans, ident_after_let, loop_depths, SourceFile};
use crate::report::Finding;

use super::allows;
use super::hotpath::Hot;

/// Evidence on a `let` line that the local is a `Vec`.
const VEC_LOCAL_EVIDENCE: [&str; 5] = ["vec![", "Vec::", ": Vec<", ".to_vec()", ".collect::<Vec"];

/// Linear-scan tokens on a tracked receiver: `(suffix, shown)`.
const SCAN_TOKENS: [(&str, &str); 3] = [
    (".contains(", "contains"),
    (".iter().position(", "iter().position"),
    (".iter().find(", "iter().find"),
];

/// `Vec`/slice parameter names from a flattened fn signature.
fn slice_params(sig: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in sig.match_indices(':') {
        let after = sig[pos + 1..].trim_start();
        let is_slice = after.starts_with("&[")
            || after.starts_with("&mut [")
            || after.starts_with("Vec<")
            || after.starts_with("&Vec<")
            || after.starts_with("&mut Vec<");
        if !is_slice {
            continue;
        }
        let before = &sig[..pos];
        let name: String = before
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let name: String = name.chars().rev().collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

/// Does `line` contain `name` followed by `suffix`, with a left ident
/// boundary on `name`?
fn scans(line: &str, name: &str, suffix: &str) -> bool {
    let pat = format!("{name}{suffix}");
    for (pos, _) in line.match_indices(&pat) {
        let ok = pos == 0 || {
            let b = line.as_bytes()[pos - 1];
            !b.is_ascii_alphanumeric() && b != b'_' && b != b'.'
        };
        if ok {
            return true;
        }
    }
    false
}

/// The loop collection named in a `for ... in <expr>` header, if it is
/// one of `tracked`.
fn loop_collection<'a>(header: &str, tracked: &'a [String]) -> Option<&'a String> {
    let (_, expr) = header.split_once(" in ")?;
    tracked.iter().find(|name| {
        [
            format!("&{name}"),
            format!("&mut {name}"),
            format!("{name}.iter"),
            format!("{name} "),
            format!("{name}.len()"),
            format!("{name}.windows"),
            format!("{name}.chunks"),
        ]
        .iter()
        .any(|p| expr.trim_start().starts_with(p.as_str()) || expr.contains(&format!(" {p}")))
    })
}

/// 0-based last line of the loop body opened by the header at `l0`.
fn loop_end(file: &SourceFile, l0: usize, fn_close: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    for idx in l0..=fn_close.min(file.stripped.len().saturating_sub(1)) {
        for c in file.stripped[idx].chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return idx;
        }
    }
    fn_close
}

/// Run the quadratic-scan rule.
pub fn run(ws: &Workspace, graph: &ItemGraph, hot: &Hot) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for (f, fref) in graph.fns.iter().enumerate() {
        if !hot.in_tree[f] {
            continue;
        }
        let file = &ws.files[fref.file];
        let item = &file.items[fref.item];
        if allows(file, item.line, "quadratic-scan") {
            continue;
        }
        let Some((open, close)) = body_spans(file)
            .into_iter()
            .find(|&(i, _, _)| i == fref.item)
            .map(|(_, o, c)| (o, c))
        else {
            continue;
        };
        let depth = loop_depths(&file.stripped);
        // Tracked Vec/slice names: params + locals.
        let mut tracked = slice_params(&item.signature);
        for idx in (open - 1)..close.min(file.stripped.len()) {
            let t = file.stripped[idx].trim_start();
            if t.starts_with("let ") && VEC_LOCAL_EVIDENCE.iter().any(|e| t.contains(e)) {
                if let Some(name) = ident_after_let(t) {
                    if !tracked.contains(&name) {
                        tracked.push(name);
                    }
                }
            }
        }
        if tracked.is_empty() {
            continue;
        }
        let hi = close.min(file.stripped.len());
        for (idx, stripped) in file.stripped.iter().enumerate().take(hi).skip(open - 1) {
            let t = stripped.trim_start();
            if !t.starts_with("for ") {
                continue;
            }
            let Some(loop_name) = loop_collection(t, &tracked) else {
                continue;
            };
            let end = loop_end(file, idx, close - 1);
            for body_idx in (idx + 1)..=end {
                let line = &file.stripped[body_idx];
                for name in &tracked {
                    for (suffix, shown) in SCAN_TOKENS {
                        if !scans(line, name, suffix) {
                            continue;
                        }
                        let line_no = body_idx + 1;
                        if allows(file, line_no, "quadratic-scan") {
                            continue;
                        }
                        let key = format!("{name}.{shown}");
                        if !seen.insert((fref.file, fref.item, key.clone())) {
                            continue;
                        }
                        let fn_path = graph.fn_path(ws, f);
                        out.push(Finding {
                            rule: "quadratic-scan".into(),
                            file: file.rel.clone(),
                            line: line_no,
                            symbol: format!("{fn_path}:{key}"),
                            message: format!(
                                "linear scan `{}.{}(..)` inside the loop over `{}` in \
                                 `{}` (hot tree) is O(|{}|·|{}|) — index into a \
                                 `HashSet`/`HashMap` or sort once instead",
                                name, shown, loop_name, fn_path, loop_name, name
                            ),
                            witness: vec![
                                format!(
                                    "loop over `{}` at {}:{} (loop depth {})",
                                    loop_name,
                                    file.rel.display(),
                                    idx + 1,
                                    depth[idx] + 1
                                ),
                                format!(
                                    "`{}.{}(..)` at {}:{}",
                                    name,
                                    shown,
                                    file.rel.display(),
                                    line_no
                                ),
                            ],
                        });
                    }
                }
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
    fn contains_scan_over_sibling_vec_is_flagged() {
        let fs = findings(
            "pub fn entry(xs: &[u32], ys: &[u32]) -> usize {\n    let mut n = 0;\n    for x in xs {\n        if ys.contains(x) {\n            n += 1;\n        }\n    }\n    n\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].symbol.ends_with("entry:ys.contains"),
            "{}",
            fs[0].symbol
        );
    }

    #[test]
    fn position_scan_over_local_vec_is_flagged() {
        let fs = findings(
            "pub fn entry(xs: &[u32]) -> usize {\n    let seen: Vec<u32> = xs.to_vec();\n    let mut n = 0;\n    for x in xs {\n        if let Some(i) = seen.iter().position(|s| s == x) {\n            n += i;\n        }\n    }\n    n\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].symbol.ends_with("seen.iter().position"),
            "{}",
            fs[0].symbol
        );
    }

    #[test]
    fn hashset_contains_is_clean() {
        let fs = findings(
            "pub fn entry(xs: &[u32]) -> usize {\n    let seen: HashSet<u32> = xs.iter().copied().collect();\n    let mut n = 0;\n    for x in xs {\n        if seen.contains(x) {\n            n += 1;\n        }\n    }\n    n\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn scan_outside_the_loop_is_clean() {
        let fs = findings(
            "pub fn entry(xs: &[u32], ys: &[u32]) -> bool {\n    for x in xs {\n        let _ = x;\n    }\n    ys.contains(&0)\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
