//! The workspace item graph: every analyzed source file's items plus
//! resolved intra-workspace call edges.
//!
//! Call resolution is name-based with preference tiers (same file →
//! same crate → crates imported by the file → whole workspace); when a
//! tier holds several same-named candidates they are *all* linked, so
//! reachability analyses over-approximate rather than silently miss
//! paths. Every tier holds only the fns the caller can reach under the
//! `[layers]` table of `check.toml`: those of its own crate and of the
//! crates in its closure (any crate when `[layers]` does not declare the
//! caller). A method of `impl Tr for T` is in reach of a `.name(..)` call
//! when its trait `Tr` is, wherever the impl lives: a `&dyn Tr` carries a
//! higher crate's impl down into the caller. A trait declared outside the
//! workspace (std's) is in every crate's reach. So a same-named fn in a
//! crate the caller cannot depend on is linked only through a trait the
//! caller can call. A call's shape narrows the candidates further:
//!
//! * `x.name(..)` links to methods: `fn`s inside an `impl` block, and
//!   default bodies inside a `trait` body. The two groups take their
//!   tiers separately, so a default body next to the caller does not
//!   hide the overrides in other files, nor the reverse;
//! * `Q::name(..)` links to associated fns of a type or trait named `Q`
//!   (`Self` is the caller's own impl type or trait) and to free fns of
//!   a module whose last segment is `Q`;
//! * a bare `name(..)` links to free fns only.
//!
//! A bodyless declaration (a trait's required method) is no node. What
//! resolution still misses: calls through function pointers and closure
//! values, `<T as Tr>::name(..)` calls, macro-generated items, and the
//! overrides of a call qualified by a trait (`Tr::name(..)`, or
//! `Self::name(..)` inside the trait), which reaches only the trait's
//! own default body.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::collect_rs_files;
use crate::config::Config;
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
    /// Build the call graph for `ws` under `cfg`'s `[layers]`.
    pub fn build(ws: &Workspace, cfg: &Config) -> ItemGraph {
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                // A bodyless declaration (a trait's required method, whose
                // signature ends at `;`) is no call target.
                if item.kind == ItemKind::Fn && !item.signature.ends_with(';') {
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

        // Per caller crate, the crates its `[layers]` closure reaches;
        // `None` when `[layers]` does not declare it.
        let mut closure: BTreeMap<&str, Option<Vec<String>>> = BTreeMap::new();
        // trait name → the crates declaring a trait of that name
        let mut trait_crates: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for file in &ws.files {
            closure
                .entry(file.krate.as_str())
                .or_insert_with(|| cfg.allowed_deps(&file.krate));
            for item in file.items.iter().filter(|i| i.kind == ItemKind::Trait) {
                trait_crates
                    .entry(item.name.as_str())
                    .or_default()
                    .insert(file.krate.as_str());
            }
        }

        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, fref) in fns.iter().enumerate() {
            let file = &ws.files[fref.file];
            let item = &file.items[fref.item];
            let deps = closure.get(file.krate.as_str()).and_then(Option::as_ref);
            let reaches =
                |k: &str| k == file.krate || deps.is_none_or(|deps| deps.iter().any(|d| d == k));
            let imported: BTreeSet<&str> = file
                .uses
                .iter()
                .filter_map(|u| u.krate.as_deref())
                .collect();
            // Preference tiers: same file → same crate → imported
            // crates → workspace.
            let tiers: [Box<dyn Fn(usize) -> bool>; 4] = [
                Box::new(|c: usize| fns[c].file == fref.file),
                Box::new(|c: usize| ws.files[fns[c].file].krate == file.krate),
                Box::new(|c: usize| imported.contains(ws.files[fns[c].file].krate.as_str())),
                Box::new(|_| true),
            ];
            let mut out = BTreeSet::new();
            for call in &item.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue; // std / vendor call
                };
                // Filter candidates by reach, then by shape.
                let shaped: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let ci = &ws.files[fns[c].file].items[fns[c].item];
                        match (&ci.of_trait, call.method) {
                            (Some(tr), true) => trait_crates
                                .get(tr.as_str())
                                .is_none_or(|ks| ks.iter().any(|k| reaches(k))),
                            _ => reaches(&ws.files[fns[c].file].krate),
                        }
                    })
                    .filter(|&c| {
                        let ci = &ws.files[fns[c].file].items[fns[c].item];
                        if call.method {
                            ci.self_ty.is_some()
                        } else if let Some(q) = &call.qualifier {
                            // `Q::name(..)`: associated fn of type Q, or a
                            // free fn in a module whose tail is q. `Self`
                            // names the caller's own impl or trait.
                            let q = match (q.as_str(), &item.self_ty) {
                                ("Self", Some(own)) => own,
                                _ => q,
                            };
                            ci.self_ty.as_ref() == Some(q)
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
                // Impl methods and trait default bodies take their tiers
                // separately, so a default body near the caller does not
                // hide the overrides farther away, nor the reverse.
                let (defaults, impls): (Vec<usize>, Vec<usize>) = shaped
                    .into_iter()
                    .partition(|&c| ws.files[fns[c].file].items[fns[c].item].in_trait);
                for group in [impls, defaults] {
                    for tier in &tiers {
                        let hits: Vec<usize> = group.iter().copied().filter(|&c| tier(c)).collect();
                        if !hits.is_empty() {
                            out.extend(hits.into_iter().filter(|&h| h != i));
                            break;
                        }
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
        let g = ItemGraph::build(&ws, &Config::default());
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
        let g = ItemGraph::build(&ws, &Config::default());
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
        let g = ItemGraph::build(&ws, &Config::default());
        let caller = g
            .fns
            .iter()
            .position(|f| ws.files[f.file].items[f.item].name == "caller")
            .expect("caller");
        assert_eq!(g.calls[caller].len(), 1);
        let callee = g.calls[caller][0];
        assert_eq!(ws.files[g.fns[callee].file].krate, "sor-flow");
    }

    /// Display paths of the fns the fn named `name` calls.
    fn callees(ws: &Workspace, g: &ItemGraph, name: &str) -> Vec<String> {
        let caller = g
            .fns
            .iter()
            .position(|f| ws.files[f.file].items[f.item].name == name)
            .expect("caller");
        g.calls[caller].iter().map(|&c| g.fn_path(ws, c)).collect()
    }

    #[test]
    fn self_calls_resolve_to_the_callers_own_type() {
        let ws = ws_of(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "impl S {\n    pub fn a() {\n        Self::b();\n    }\n    fn b() {}\n}\nimpl T {\n    fn b() {}\n}\n",
        )]);
        let g = ItemGraph::build(&ws, &Config::default());
        assert_eq!(callees(&ws, &g, "a"), ["sor-flow::a::S::b"]);
    }

    #[test]
    fn trait_default_bodies_are_methods_not_free_fns() {
        let ws = ws_of(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub trait Pick {\n    fn pick(&self) {}\n}\npub fn by_method(p: &S) {\n    p.pick();\n}\npub fn by_name() {\n    pick();\n}\n",
        )]);
        let g = ItemGraph::build(&ws, &Config::default());
        assert_eq!(callees(&ws, &g, "by_method"), ["sor-flow::a::Pick::pick"]);
        assert!(callees(&ws, &g, "by_name").is_empty());
    }

    #[test]
    fn default_bodies_and_declarations_do_not_hide_overrides() {
        let ws = ws_of(&[
            (
                "crates/flow/src/routing.rs",
                "sor-flow",
                "pub trait R {\n    fn dist(&self);\n    fn sample(&self) {\n        self.dist();\n    }\n    fn many(&self) {\n        self.sample();\n    }\n}\n",
            ),
            (
                "crates/flow/src/imp.rs",
                "sor-flow",
                "impl R for A {\n    fn dist(&self) {}\n    fn sample(&self) {}\n}\n",
            ),
        ]);
        let g = ItemGraph::build(&ws, &Config::default());
        // the default `sample` and its override; the bodyless `dist`
        // declaration is no node, so the call reaches the override
        assert_eq!(
            callees(&ws, &g, "many"),
            ["sor-flow::routing::R::sample", "sor-flow::imp::A::sample"]
        );
        assert_eq!(callees(&ws, &g, "sample"), ["sor-flow::imp::A::dist"]);
    }

    #[test]
    fn calls_resolve_only_within_the_callers_layer_closure() {
        let ws = ws_of(&[
            (
                "crates/obs/src/expose.rs",
                "sor-obs",
                "pub fn start(r: &R) {\n    r.name();\n}\n",
            ),
            (
                "crates/oblivious/src/routing.rs",
                "sor-oblivious",
                "impl Raecke {\n    pub fn name(&self) {}\n}\npub fn describe(r: &Raecke) {\n    r.name();\n}\n",
            ),
            (
                "crates/core/src/lib.rs",
                "sor-core",
                "pub fn label(r: &Raecke) {\n    r.name();\n}\n",
            ),
        ]);
        let layered = Config {
            layers: BTreeMap::from([
                ("sor-obs".to_string(), vec![]),
                ("sor-oblivious".to_string(), vec!["sor-obs".to_string()]),
                ("sor-core".to_string(), vec!["sor-oblivious".to_string()]),
            ]),
            ..Config::default()
        };
        let g = ItemGraph::build(&ws, &layered);
        // sor-obs cannot depend on sor-oblivious: no edge
        assert!(callees(&ws, &g, "start").is_empty());
        assert_eq!(
            callees(&ws, &g, "label"),
            ["sor-oblivious::routing::Raecke::name"]
        );
        // without [layers], the whole-workspace tier links it as before
        let g = ItemGraph::build(&ws, &Config::default());
        assert_eq!(
            callees(&ws, &g, "start"),
            ["sor-oblivious::routing::Raecke::name"]
        );
    }

    #[test]
    fn trait_impls_stay_in_reach_through_a_reachable_trait() {
        let ws = ws_of(&[
            (
                "crates/obs/src/expose.rs",
                "sor-obs",
                "pub trait Handler {\n    fn metrics(&self) -> String;\n}\npub fn serve_one(h: &dyn Handler, w: &mut W) {\n    h.metrics();\n    w.next();\n    w.name();\n}\n",
            ),
            (
                "crates/serve/src/observer.rs",
                "sor-serve",
                "impl Handler for Observer {\n    fn metrics(&self) -> String {\n        String::new()\n    }\n}\nimpl Iterator for Walk {\n    fn next(&mut self) -> Option<u32> {\n        None\n    }\n}\n",
            ),
            (
                "crates/oblivious/src/raecke.rs",
                "sor-oblivious",
                "pub trait Routing {\n    fn name(&self) {}\n}\nimpl Routing for Raecke {\n    fn name(&self) {}\n}\n",
            ),
        ]);
        let layered = Config {
            layers: BTreeMap::from([
                ("sor-obs".to_string(), vec![]),
                ("sor-oblivious".to_string(), vec!["sor-obs".to_string()]),
                (
                    "sor-serve".to_string(),
                    vec!["sor-oblivious".to_string(), "sor-obs".to_string()],
                ),
            ]),
            ..Config::default()
        };
        let g = ItemGraph::build(&ws, &layered);
        // sor-obs's own trait and std's dispatch into sor-serve's impls;
        // sor-oblivious's trait, its default body and its impl are out of
        // sor-obs's reach
        assert_eq!(
            callees(&ws, &g, "serve_one"),
            [
                "sor-serve::observer::Observer::metrics",
                "sor-serve::observer::Walk::next"
            ]
        );
    }

    #[test]
    fn fn_path_display() {
        let ws = ws_of(&[(
            "crates/graph/src/gen/wan.rs",
            "sor-graph",
            "impl G {\n    pub fn build(&self) {}\n}\n",
        )]);
        let g = ItemGraph::build(&ws, &Config::default());
        assert_eq!(g.fn_path(&ws, 0), "sor-graph::gen::wan::G::build");
    }
}
