//! `alloc-in-hot` and the shared hot-path model + per-entry cost report.
//!
//! `check.toml [hotpath] entries` names the hot entry points (the
//! ROADMAP-2 builders, the sor-serve epoch loop, the sor-perf kernels).
//! [`Hot::build`] walks the layering-filtered call graph (see
//! `layered_calls`) breadth-first from each entry, remembering the
//! shortest witness chain to every reachable function and the maximum
//! lexical loop depth among the call sites along that chain. Combining
//! the chain depth with each allocation site's own loop depth (recorded
//! by `items.rs`) yields the site's *effective depth*: how many loops —
//! across function boundaries — stand between the entry and the
//! allocation.
//!
//! The `alloc-in-hot` rule reports every non-clone heap-allocation site
//! (`Vec::new`, `vec![`, `.collect()`, `.to_vec()`, ...) whose
//! effective depth reaches [`ALLOC_MIN_DEPTH`]; clones are the
//! `clone-in-loop` rule's job. Shallower sites are not
//! findings but still count in the per-entry [`EntryCost`] report,
//! which `--hotpath-report` snapshots into the committed
//! `check-hotpath.json` so the arena refactor can show monotone
//! burn-down the same way sor-perf gates wall time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::{ItemGraph, Workspace};
use crate::items::AllocKind;
use crate::report::Finding;

use super::allows;

/// Effective loop depth at which a reachable allocation site becomes an
/// `alloc-in-hot` finding and a deep group in the cost report.
pub const ALLOC_MIN_DEPTH: usize = 1;

/// One entry's BFS tree over the layering-filtered call graph.
pub struct EntryTree {
    /// The configured spec (`name` or `crate::name`).
    pub spec: String,
    /// BFS parent per fn (graph index); `None` for entries / unreached.
    pub parent: Vec<Option<usize>>,
    /// Membership per fn.
    pub reached: Vec<bool>,
    /// Max call-site loop depth along the shortest chain, per fn.
    pub chain_depth: Vec<usize>,
}

/// Hot-path facts shared by the four hot-path rules.
pub struct Hot {
    /// One tree per configured entry, config order.
    pub trees: Vec<EntryTree>,
    /// Union membership: is the fn in *some* hot tree?
    pub in_tree: Vec<bool>,
}

/// `graph.calls` filtered through the `[layers]` closure: name
/// resolution over-approximates at the workspace tier, but an edge into
/// a crate the caller may not even reference (e.g. an atomic `.load(..)`
/// resolving to another crate's `Config::load`) is an artifact, not a
/// call — the hot trees are walked over this view.
fn layered_calls(ws: &Workspace, graph: &ItemGraph, cfg: &Config) -> Vec<Vec<usize>> {
    let mut closures: BTreeMap<&str, Option<BTreeSet<String>>> = BTreeMap::new();
    graph
        .calls
        .iter()
        .enumerate()
        .map(|(g, cs)| {
            let gk = ws.files[graph.fns[g].file].krate.as_str();
            let allowed = closures
                .entry(gk)
                .or_insert_with(|| cfg.allowed_deps(gk).map(|v| v.into_iter().collect()));
            cs.iter()
                .copied()
                .filter(|&k| {
                    let kk = ws.files[graph.fns[k].file].krate.as_str();
                    kk == gk || allowed.as_ref().is_none_or(|s| s.contains(kk))
                })
                .collect()
        })
        .collect()
}

impl Hot {
    /// Resolve each `[hotpath]` entry spec and walk its call tree.
    pub fn build(ws: &Workspace, graph: &ItemGraph, cfg: &Config) -> Hot {
        let n = graph.fns.len();
        let calls = layered_calls(ws, graph, cfg);
        let mut in_tree = vec![false; n];
        let mut trees = Vec::new();
        // Per caller: callee name → max loop depth among its call sites.
        let call_depth: Vec<BTreeMap<&str, usize>> = graph
            .fns
            .iter()
            .map(|fref| {
                let mut m: BTreeMap<&str, usize> = BTreeMap::new();
                for c in &ws.files[fref.file].items[fref.item].calls {
                    let e = m.entry(c.name.as_str()).or_insert(0);
                    *e = (*e).max(c.depth);
                }
                m
            })
            .collect();
        for spec in &cfg.hotpath_entries {
            let (kspec, name) = match spec.split_once("::") {
                Some((k, n)) => (Some(k), n),
                None => (None, spec.as_str()),
            };
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut reached = vec![false; n];
            let mut chain_depth = vec![0usize; n];
            let mut queue = VecDeque::new();
            for (i, fref) in graph.fns.iter().enumerate() {
                let file = &ws.files[fref.file];
                if file.items[fref.item].name == name && kspec.is_none_or(|k| file.krate == k) {
                    reached[i] = true;
                    queue.push_back(i);
                }
            }
            while let Some(g) = queue.pop_front() {
                for &k in &calls[g] {
                    if reached[k] {
                        continue;
                    }
                    let kf = graph.fns[k];
                    let kname = ws.files[kf.file].items[kf.item].name.as_str();
                    let edge = call_depth[g].get(kname).copied().unwrap_or(0);
                    reached[k] = true;
                    parent[k] = Some(g);
                    chain_depth[k] = chain_depth[g].max(edge);
                    queue.push_back(k);
                }
            }
            for (i, &r) in reached.iter().enumerate() {
                in_tree[i] |= r;
            }
            trees.push(EntryTree {
                spec: spec.clone(),
                parent,
                reached,
                chain_depth,
            });
        }
        Hot { trees, in_tree }
    }
}

/// The fn chain `entry → … → f` of `tree`, as graph indices.
pub(crate) fn chain_of(tree: &EntryTree, f: usize) -> Vec<usize> {
    let mut chain = vec![f];
    let mut cur = f;
    while let Some(p) = tree.parent[cur] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
}

/// Witness steps for a site in fn `f`: the chain functions with their
/// declaration sites, then the site line itself.
pub(crate) fn witness_to(
    ws: &Workspace,
    graph: &ItemGraph,
    tree: &EntryTree,
    f: usize,
    site_desc: &str,
) -> Vec<String> {
    let mut w: Vec<String> = chain_of(tree, f)
        .iter()
        .map(|&j| {
            let jf = graph.fns[j];
            format!(
                "{} ({}:{})",
                graph.fn_path(ws, j),
                ws.files[jf.file].rel.display(),
                ws.files[jf.file].items[jf.item].line
            )
        })
        .collect();
    w.push(site_desc.to_string());
    w
}

/// Run the `alloc-in-hot` rule.
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
            if allows(file, item.line, "alloc-in-hot") {
                continue;
            }
            // Deepest unallowed site per token.
            let mut deepest: BTreeMap<&str, (usize, usize)> = BTreeMap::new(); // token → (eff, line)
            for a in &item.facts.allocs {
                if a.kind == AllocKind::Clone {
                    continue;
                }
                let eff = tree.chain_depth[f].max(a.depth);
                if eff < ALLOC_MIN_DEPTH || allows(file, a.line, "alloc-in-hot") {
                    continue;
                }
                let e = deepest.entry(a.token.as_str()).or_insert((eff, a.line));
                if eff > e.0 {
                    *e = (eff, a.line);
                }
            }
            for (token, (eff, line)) in deepest {
                if !seen.insert((fref.file, fref.item, token.to_string())) {
                    continue;
                }
                let fn_path = graph.fn_path(ws, f);
                let witness = witness_to(
                    ws,
                    graph,
                    tree,
                    f,
                    &format!(
                        "`{}` at {}:{} (loop depth {})",
                        token,
                        file.rel.display(),
                        line,
                        eff
                    ),
                );
                out.push(Finding {
                    rule: "alloc-in-hot".into(),
                    file: file.rel.clone(),
                    line,
                    symbol: format!("{fn_path}:{token}"),
                    message: format!(
                        "`{}` allocates via `{}` at effective loop depth {} on the hot \
                         path of `{}` — hoist the allocation, reuse a buffer, or \
                         pre-size with `with_capacity`",
                        fn_path, token, eff, tree.spec
                    ),
                    witness,
                });
            }
        }
    }
    out
}

/// One aggregated witness row of the cost report: a `(function, token)`
/// group of deep allocation sites. Line-free so the committed snapshot
/// only churns when cost structure actually changes.
pub struct CostWitness {
    /// Function path (`crate::module::Type::fn`).
    pub func: String,
    /// Allocation token (`Vec::new`, `.collect`, `.clone()`, ...).
    pub token: String,
    /// Maximum effective loop depth among the grouped sites.
    pub depth: usize,
    /// Number of sites in the group.
    pub sites: usize,
    /// Shortest witness chain of function paths, entry first.
    pub chain: Vec<String>,
}

/// Per-entry cost summary.
pub struct EntryCost {
    /// The configured entry spec.
    pub entry: String,
    /// Reachable functions (the entry itself included).
    pub fns: usize,
    /// Non-clone heap-allocation sites in the tree.
    pub alloc_sites: usize,
    /// `.clone()` sites in the tree.
    pub clone_sites: usize,
    /// Maximum effective loop depth over every site in the tree.
    pub max_depth: usize,
    /// Deep sites (effective depth ≥ [`ALLOC_MIN_DEPTH`]), grouped.
    pub witnesses: Vec<CostWitness>,
}

/// Build the per-entry cost report. Allows do *not* subtract from the
/// report: it is a cost inventory, not a finding list.
pub fn cost_report(ws: &Workspace, graph: &ItemGraph, hot: &Hot) -> Vec<EntryCost> {
    let mut out = Vec::new();
    for tree in &hot.trees {
        let mut fns = 0usize;
        let mut alloc_sites = 0usize;
        let mut clone_sites = 0usize;
        let mut max_depth = 0usize;
        let mut groups: BTreeMap<(String, String), (usize, usize, usize)> = BTreeMap::new();
        for (f, fref) in graph.fns.iter().enumerate() {
            if !tree.reached[f] {
                continue;
            }
            fns += 1;
            let item = &ws.files[fref.file].items[fref.item];
            for a in &item.facts.allocs {
                if a.kind == AllocKind::Clone {
                    clone_sites += 1;
                } else {
                    alloc_sites += 1;
                }
                let eff = tree.chain_depth[f].max(a.depth);
                max_depth = max_depth.max(eff);
                if eff >= ALLOC_MIN_DEPTH {
                    let key = (graph.fn_path(ws, f), a.token.clone());
                    let e = groups.entry(key).or_insert((eff, 0, f));
                    e.0 = e.0.max(eff);
                    e.1 += 1;
                }
            }
        }
        let witnesses = groups
            .into_iter()
            .map(|((func, token), (depth, sites, f))| CostWitness {
                func,
                token,
                depth,
                sites,
                chain: chain_of(tree, f)
                    .iter()
                    .map(|&j| graph.fn_path(ws, j))
                    .collect(),
            })
            .collect();
        out.push(EntryCost {
            entry: tree.spec.clone(),
            fns,
            alloc_sites,
            clone_sites,
            max_depth,
            witnesses,
        });
    }
    out
}

/// Render the cost report as a compact text table, one row per entry.
pub fn render_cost_table(costs: &[EntryCost]) -> String {
    let mut s = String::from(
        "hot-path cost report (entry: reachable fns / alloc sites / clone sites / max loop depth / deep groups):\n",
    );
    for c in costs {
        s.push_str(&format!(
            "  {:<40} {:>4} fns  {:>4} allocs  {:>4} clones  depth {}  {:>3} deep\n",
            c.entry,
            c.fns,
            c.alloc_sites,
            c.clone_sites,
            c.max_depth,
            c.witnesses.len()
        ));
    }
    s
}

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the cost report as deterministic JSON (the committed
/// `check-hotpath.json`). Line-free by construction.
pub fn render_cost_json(costs: &[EntryCost]) -> String {
    let mut s = String::from("{\n  \"tool\": \"sor-check\",\n  \"version\": 1,\n  \"entries\": [");
    for (i, c) in costs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\n      \"entry\": \"{}\",\n      \"functions\": {},\n      \
             \"alloc_sites\": {},\n      \"clone_sites\": {},\n      \
             \"max_loop_depth\": {},\n      \"witnesses\": [",
            json_escape(&c.entry),
            c.fns,
            c.alloc_sites,
            c.clone_sites,
            c.max_depth
        ));
        for (j, w) in c.witnesses.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let chain: Vec<String> = w
                .chain
                .iter()
                .map(|p| format!("\"{}\"", json_escape(p)))
                .collect();
            s.push_str(&format!(
                "\n        {{\"fn\": \"{}\", \"token\": \"{}\", \"depth\": {}, \
                 \"sites\": {}, \"chain\": [{}]}}",
                json_escape(&w.func),
                json_escape(&w.token),
                w.depth,
                w.sites,
                chain.join(", ")
            ));
        }
        if !c.witnesses.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }");
    }
    if !costs.is_empty() {
        s.push('\n');
        s.push_str("  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use std::path::Path;

    fn ws(text: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.files.push(parse_file(
            Path::new("crates/core/src/a.rs"),
            "sor-core",
            text,
        ));
        ws
    }

    fn run_on(text: &str, cfg_text: &str) -> (Vec<Finding>, Vec<EntryCost>) {
        let w = ws(text);
        let cfg = Config::parse(cfg_text).expect("cfg");
        let graph = ItemGraph::build(&w);
        let hot = Hot::build(&w, &graph, &cfg);
        (run(&w, &graph, &hot), cost_report(&w, &graph, &hot))
    }

    #[test]
    fn allocation_under_loop_through_call_is_deep() {
        let (fs, costs) = run_on(
            "pub fn entry(n: usize) {\n    for i in 0..n {\n        helper(i);\n    }\n}\nfn helper(i: usize) {\n    let v = Vec::new();\n    let _ = (v, i);\n}\n",
            "[hotpath]\nentries = [\"entry\"]\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "alloc-in-hot");
        assert!(
            fs[0].symbol.ends_with("helper:Vec::new"),
            "{}",
            fs[0].symbol
        );
        // witness: entry decl, helper decl, site with depth.
        assert_eq!(fs[0].witness.len(), 3, "{:?}", fs[0].witness);
        assert!(
            fs[0].witness[2].contains("loop depth 1"),
            "{:?}",
            fs[0].witness
        );
        assert_eq!(costs.len(), 1);
        assert_eq!(costs[0].fns, 2);
        assert_eq!(costs[0].max_depth, 1);
    }

    #[test]
    fn entry_level_allocation_is_cost_not_finding() {
        let (fs, costs) = run_on(
            "pub fn entry() {\n    let v = Vec::new();\n    let _ = v;\n}\n",
            "[hotpath]\nentries = [\"entry\"]\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(costs[0].alloc_sites, 1);
        assert_eq!(costs[0].max_depth, 0);
        assert!(costs[0].witnesses.is_empty());
    }

    #[test]
    fn clones_are_left_to_clone_in_loop() {
        let (fs, costs) = run_on(
            "pub fn entry(x: &X) {\n    for _ in 0..3 {\n        let y = x.clone();\n        let _ = y;\n    }\n}\n",
            "[hotpath]\nentries = [\"entry\"]\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(costs[0].clone_sites, 1);
        assert_eq!(costs[0].witnesses.len(), 1);
    }

    #[test]
    fn justified_allow_suppresses_the_finding() {
        let (fs, costs) = run_on(
            "pub fn entry(n: usize) {\n    for _ in 0..n {\n        // sor-check: allow(alloc-in-hot) — tiny bounded scratch vector\n        let v = Vec::new();\n        let _ = v;\n    }\n}\n",
            "[hotpath]\nentries = [\"entry\"]\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
        // the cost inventory still counts it
        assert_eq!(costs[0].alloc_sites, 1);
    }

    #[test]
    fn cost_json_is_line_free() {
        let (_, costs) = run_on(
            "pub fn entry(n: usize) {\n    for i in 0..n {\n        let v = vec![i];\n        let _ = v;\n    }\n}\n",
            "[hotpath]\nentries = [\"entry\"]\n",
        );
        let json = render_cost_json(&costs);
        assert!(json.contains("\"entry\": \"entry\""), "{json}");
        assert!(
            json.contains(
                "{\"fn\": \"sor-core::a::entry\", \"token\": \"vec!\", \"depth\": 1, \
                 \"sites\": 1, \"chain\": [\"sor-core::a::entry\"]}"
            ),
            "{json}"
        );
        assert!(!json.contains(":4"), "line numbers leaked: {json}");
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
