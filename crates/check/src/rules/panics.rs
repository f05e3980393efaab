//! `panic-path`: transitive panic-reachability over the call graph.
//!
//! Direct panic facts (`panic!`-family macros, `.unwrap()`/`.expect()`,
//! and slice indexing in the crates listed in `panics.index_crates`)
//! are propagated backwards along resolved call edges. Every `pub` function
//! of a crate listed in `check.toml [panics] public_crates` from which
//! a panic site is reachable is reported once, with the *shortest*
//! witness call chain (BFS) ending in the concrete site.
//!
//! The lexical `allow(unwrap)` comments deliberately do **not** silence
//! this rule: they certify that a site's invariant is documented, not
//! that the panic is acceptable on a public solver path. A site is
//! excluded from reachability only with `allow(panic-path)` at the
//! site, and a public function is excused only with `allow(panic-path)`
//! at its declaration — everything else is fixed.

use crate::config::Config;
use crate::graph::{ItemGraph, Workspace};
use crate::items::{PanicKind, PanicSite, Visibility};
use crate::report::Finding;

use super::allows;

/// Run the panic-reachability rule.
pub fn run(ws: &Workspace, graph: &ItemGraph, cfg: &Config) -> Vec<Finding> {
    if cfg.panic_public_crates.is_empty() {
        return Vec::new();
    }
    // Direct, non-excluded panic sites per function node.
    let direct: Vec<Vec<&PanicSite>> = graph
        .fns
        .iter()
        .map(|fref| {
            let file = &ws.files[fref.file];
            file.items[fref.item]
                .facts
                .panics
                .iter()
                .filter(|site| {
                    (site.kind != PanicKind::Indexing
                        || cfg.panic_index_crates.iter().any(|c| c == &file.krate))
                        && !allows(file, site.line, "panic-path")
                })
                .collect()
        })
        .collect();

    let mut out = Vec::new();
    for (i, fref) in graph.fns.iter().enumerate() {
        let file = &ws.files[fref.file];
        let item = &file.items[fref.item];
        if item.vis != Visibility::Public
            || !cfg.panic_public_crates.iter().any(|c| c == &file.krate)
        {
            continue;
        }
        if allows(file, item.line, "panic-path") {
            continue;
        }
        let Some((chain, site)) = shortest_panic_chain(graph, &direct, i) else {
            continue;
        };
        let site_file = &ws.files[graph.fns[*chain.last().unwrap_or(&i)].file];
        let mut witness: Vec<String> = chain
            .iter()
            .map(|&j| {
                let fr = graph.fns[j];
                format!(
                    "{} ({}:{})",
                    graph.fn_path(ws, j),
                    ws.files[fr.file].rel.display(),
                    ws.files[fr.file].items[fr.item].line
                )
            })
            .collect();
        witness.push(format!(
            "{} at {}:{}",
            site.token,
            site_file.rel.display(),
            site.line
        ));
        out.push(Finding {
            rule: "panic-path".into(),
            file: file.rel.clone(),
            line: item.line,
            symbol: graph.fn_path(ws, i),
            message: format!(
                "public fn `{}` can reach {} at {}:{} ({} call{} deep) — return a \
                 Result or shed the panic",
                item.name,
                site.token,
                site_file.rel.display(),
                site.line,
                chain.len() - 1,
                if chain.len() == 2 { "" } else { "s" }
            ),
            witness,
        });
    }
    out
}

/// BFS from `start` along call edges to the nearest function with a
/// direct panic site. Returns the node chain (starting at `start`,
/// ending at the panicking function) and the site.
fn shortest_panic_chain<'a>(
    graph: &ItemGraph,
    direct: &[Vec<&'a PanicSite>],
    start: usize,
) -> Option<(Vec<usize>, &'a PanicSite)> {
    let mut parent: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut visited = vec![false; graph.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        if let Some(site) = direct[u].first() {
            // Reconstruct start → u.
            let mut chain = vec![u];
            let mut cur = u;
            while let Some(p) = parent[cur] {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            return Some((chain, site));
        }
        for &v in &graph.calls[u] {
            if !visited[v] {
                visited[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use std::path::Path;

    fn cfg() -> Config {
        Config::parse("[panics]\npublic_crates = [\"sor-flow\"]\n").expect("cfg")
    }

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, krate, text) in files {
            ws.files.push(parse_file(Path::new(rel), krate, text));
        }
        ws
    }

    #[test]
    fn transitive_reach_with_witness() {
        let ws = ws(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub fn entry() {\n    middle();\n}\nfn middle() {\n    deep();\n}\nfn deep(o: Option<u32>) {\n    o.unwrap();\n}\n",
        )]);
        let graph = ItemGraph::build(&ws);
        let fs = run(&ws, &graph, &cfg());
        assert_eq!(fs.len(), 1, "{fs:?}");
        let f = &fs[0];
        assert_eq!(f.symbol, "sor-flow::a::entry");
        // witness: entry → middle → deep → site
        assert_eq!(f.witness.len(), 4, "{:?}", f.witness);
        assert!(f.witness[0].contains("entry"));
        assert!(f.witness[1].contains("middle"));
        assert!(f.witness[2].contains("deep"));
        assert!(f.witness[3].contains(".unwrap()"));
        assert!(f.witness[3].contains("crates/flow/src/a.rs:8"));
    }

    #[test]
    fn shortest_chain_wins() {
        let ws = ws(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub fn entry() {\n    long_way();\n    short_way();\n}\nfn long_way() {\n    short_way();\n}\nfn short_way() {\n    panic!(\"x\");\n}\n",
        )]);
        let graph = ItemGraph::build(&ws);
        let fs = run(&ws, &graph, &cfg());
        assert_eq!(fs.len(), 1);
        // entry → short_way → site: 3 witness entries, not 4
        assert_eq!(fs[0].witness.len(), 3, "{:?}", fs[0].witness);
    }

    #[test]
    fn private_and_out_of_scope_fns_are_not_reported() {
        let ws = ws(&[
            (
                "crates/flow/src/a.rs",
                "sor-flow",
                "fn private_panics() {\n    panic!(\"x\");\n}\n",
            ),
            (
                "crates/te/src/a.rs",
                "sor-te",
                "pub fn public_panics() {\n    panic!(\"x\");\n}\n",
            ),
        ]);
        let graph = ItemGraph::build(&ws);
        assert!(run(&ws, &graph, &cfg()).is_empty());
    }

    #[test]
    fn allow_at_site_and_at_decl() {
        let at_site = ws(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub fn entry(o: Option<u32>) {\n    // sor-check: allow(panic-path) — validated upstream\n    o.unwrap();\n}\n",
        )]);
        let graph = ItemGraph::build(&at_site);
        assert!(run(&at_site, &graph, &cfg()).is_empty());

        let at_decl = ws(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "// sor-check: allow(panic-path) — panicking front-end by contract\npub fn entry(o: Option<u32>) {\n    o.unwrap();\n}\n",
        )]);
        let graph = ItemGraph::build(&at_decl);
        assert!(run(&at_decl, &graph, &cfg()).is_empty());
    }

    #[test]
    fn lexical_unwrap_allow_does_not_silence() {
        let ws = ws(&[(
            "crates/flow/src/a.rs",
            "sor-flow",
            "pub fn entry(o: Option<u32>) {\n    // sor-check: allow(unwrap) — invariant documented\n    o.unwrap();\n}\n",
        )]);
        let graph = ItemGraph::build(&ws);
        assert_eq!(run(&ws, &graph, &cfg()).len(), 1);
    }

    #[test]
    fn indexing_only_when_configured() {
        let text = "pub fn entry(v: &[u32]) -> u32 {\n    v[0]\n}\n";
        let ws1 = ws(&[("crates/flow/src/a.rs", "sor-flow", text)]);
        let graph = ItemGraph::build(&ws1);
        assert!(run(&ws1, &graph, &cfg()).is_empty());
        let mut with_idx = cfg();
        with_idx.panic_index_crates = vec!["sor-flow".into()];
        assert_eq!(run(&ws1, &graph, &with_idx).len(), 1);
    }
}
