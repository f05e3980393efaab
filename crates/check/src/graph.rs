//! The workspace item graph: every analyzed source file's items plus
//! resolved intra-workspace call edges.
//!
//! Call resolution is name-based with preference tiers (same file →
//! same crate → crates imported by the file → whole workspace); when a
//! tier holds several same-named candidates they are *all* linked, so
//! reachability analyses over-approximate rather than silently miss
//! paths.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::collect_rs_files;
use crate::items::{parse_file, ItemKind, SourceFile};

/// All analyzed files.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed crate sources (`crates/*/src/**`, `src/**`), sorted by path.
    pub files: Vec<SourceFile>,
}

/// Read the `name = "..."` of the first `[package]` section of a
/// manifest, if any.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// The crate owning an analyzed source file — `crates/<dir>/src/**` or
/// the root package's `src/**`, fixtures and build output excluded — in
/// dash form; `None` for any other path. Falls back to `sor-<dir>` /
/// `root` when no manifest is readable (the test fixtures carry none).
fn crate_of(root: &Path, rel: &Path) -> Option<String> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if parts
        .iter()
        .any(|p| *p == "fixtures" || *p == "target" || *p == "vendor")
    {
        return None;
    }
    match parts.as_slice() {
        ["crates", dir, "src", ..] => Some(
            package_name(&root.join("crates").join(dir).join("Cargo.toml"))
                .unwrap_or_else(|| format!("sor-{dir}")),
        ),
        ["src", ..] => {
            Some(package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".to_string()))
        }
        _ => None,
    }
}

/// Load and parse the workspace under `root`.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut paths = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut ws = Workspace::default();
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let Some(krate) = crate_of(root, &rel) else {
            continue;
        };
        let text = std::fs::read_to_string(&path)?;
        ws.files.push(parse_file(&rel, &krate, &text));
    }
    Ok(ws)
}

/// Handle of one function item inside a [`Workspace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `items`.
    pub item: usize,
}

/// The resolved call graph over every `fn` in the workspace.
#[derive(Debug)]
pub struct ItemGraph {
    /// All function items, in file order.
    pub fns: Vec<FnRef>,
    /// `calls[i]` = indices into `fns` that `fns[i]` may call.
    pub calls: Vec<Vec<usize>>,
}

impl ItemGraph {
    /// Build the call graph for `ws`.
    pub fn build(ws: &Workspace) -> ItemGraph {
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                if item.kind == ItemKind::Fn {
                    fns.push(FnRef { file: fi, item: ii });
                }
            }
        }
        // name → candidate fn indices
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name
                .entry(ws.files[f.file].items[f.item].name.as_str())
                .or_default()
                .push(i);
        }

        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, fref) in fns.iter().enumerate() {
            let file = &ws.files[fref.file];
            let item = &file.items[fref.item];
            let imported: BTreeSet<&str> = file
                .uses
                .iter()
                .filter_map(|u| u.krate.as_deref())
                .collect();
            let mut out = BTreeSet::new();
            for call in &item.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue; // std / vendor call
                };
                // Filter candidates by shape first.
                let shaped: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let ci = &ws.files[fns[c].file].items[fns[c].item];
                        if call.method {
                            ci.self_ty.is_some()
                        } else if let Some(q) = &call.qualifier {
                            // `Q::name(..)`: associated fn of type Q, or a
                            // free fn in a module whose tail is q.
                            ci.self_ty.as_deref() == Some(q.as_str())
                                || (ci.self_ty.is_none()
                                    && ws.files[fns[c].file]
                                        .module
                                        .rsplit("::")
                                        .next()
                                        .is_some_and(|m| m == q))
                        } else {
                            ci.self_ty.is_none()
                        }
                    })
                    .collect();
                // Preference tiers: same file → same crate → imported
                // crates → workspace.
                let tiers: [Box<dyn Fn(usize) -> bool>; 4] = [
                    Box::new(|c: usize| fns[c].file == fref.file),
                    Box::new(|c: usize| ws.files[fns[c].file].krate == file.krate),
                    Box::new(|c: usize| imported.contains(ws.files[fns[c].file].krate.as_str())),
                    Box::new(|_| true),
                ];
                for tier in tiers {
                    let hits: Vec<usize> = shaped.iter().copied().filter(|&c| tier(c)).collect();
                    if !hits.is_empty() {
                        for h in hits {
                            if h != i {
                                out.insert(h);
                            }
                        }
                        break;
                    }
                }
            }
            calls[i] = out.into_iter().collect();
        }
        ItemGraph { fns, calls }
    }

    /// Display path of `fns[i]`: `crate::module::Type::name`.
    pub fn fn_path(&self, ws: &Workspace, i: usize) -> String {
        let fref = self.fns[i];
        let file = &ws.files[fref.file];
        let item = &file.items[fref.item];
        format!("{}::{}", file.krate, item.path_in(&file.module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn ws_of(files: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, krate, text) in files {
            ws.files.push(parse_file(Path::new(rel), krate, text));
        }
        ws
    }

    #[test]
    fn resolves_same_file_call() {
        let ws = ws_of(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub fn caller() {\n    helper();\n}\nfn helper() {}\n",
        )]);
        let g = ItemGraph::build(&ws);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.calls[0], vec![1]);
        assert!(g.calls[1].is_empty());
    }

    #[test]
    fn resolves_cross_crate_via_import() {
        let ws = ws_of(&[
            (
                "crates/core/src/lib.rs",
                "sor-core",
                "use sor_flow::solve;\npub fn run() {\n    solve();\n}\n",
            ),
            ("crates/flow/src/lib.rs", "sor-flow", "pub fn solve() {}\n"),
        ]);
        let g = ItemGraph::build(&ws);
        let run = g
            .fns
            .iter()
            .position(|f| ws.files[f.file].items[f.item].name == "run")
            .expect("run");
        let solve = g
            .fns
            .iter()
            .position(|f| ws.files[f.file].items[f.item].name == "solve")
            .expect("solve");
        assert_eq!(g.calls[run], vec![solve]);
    }

    #[test]
    fn method_calls_prefer_same_crate() {
        let ws = ws_of(&[
            (
                "crates/flow/src/a.rs",
                "sor-flow",
                "struct S;\nimpl S {\n    pub fn frob(&self) {}\n}\npub fn caller(s: &S) {\n    s.frob();\n}\n",
            ),
            (
                "crates/te/src/a.rs",
                "sor-te",
                "struct T;\nimpl T {\n    pub fn frob(&self) {}\n}\n",
            ),
        ]);
        let g = ItemGraph::build(&ws);
        let caller = g
            .fns
            .iter()
            .position(|f| ws.files[f.file].items[f.item].name == "caller")
            .expect("caller");
        assert_eq!(g.calls[caller].len(), 1);
        let callee = g.calls[caller][0];
        assert_eq!(ws.files[g.fns[callee].file].krate, "sor-flow");
    }

    #[test]
    fn fn_path_display() {
        let ws = ws_of(&[(
            "crates/graph/src/gen/wan.rs",
            "sor-graph",
            "impl G {\n    pub fn build(&self) {}\n}\n",
        )]);
        let g = ItemGraph::build(&ws);
        assert_eq!(g.fn_path(&ws, 0), "sor-graph::gen::wan::G::build");
    }
}
