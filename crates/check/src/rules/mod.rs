//! The semantic rules, each built on the item graph.
//!
//! | id | meaning |
//! |----|---------|
//! | `layering` | crate references respect the DAG declared in `check.toml [layers]` |
//! | `panic-path` | no panic reachable from `pub` fns of the configured crates, with a shortest witness call chain |
//! | `unseeded-rng` | functions constructing an RNG take a seed/`Rng` parameter |
//! | `hash-order` | no `HashMap`/`HashSet` iteration order observable in sampler/solver code |
//!
//! Every rule honors the same `sor-check: allow(<id>)` comment
//! mechanism as the lexical pass (same line, the line directly above,
//! or the declaration line of the owning item) — but unlike the lexical
//! pass, a semantic allow is valid only when it carries a justification
//! string after the closing parenthesis (`// sor-check: allow(id) —
//! reason`). A bare allow is ignored.

use crate::config::Config;
use crate::graph::{ItemGraph, Workspace};
use crate::items::SourceFile;
use crate::parse_allow_ids;
use crate::report::Finding;

pub mod determinism;
pub mod layering;
pub mod panics;

/// Run every semantic rule over a loaded workspace.
pub fn run_semantic(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = layering::run(ws, cfg);
    out.extend(panics::run(ws, &ItemGraph::build(ws, cfg), cfg));
    out.extend(determinism::run(ws, cfg));
    out
}

/// Does the text after `marker`'s closing parenthesis on `line` carry a
/// justification — at least three alphanumeric characters of prose?
/// `// sor-check: allow(hash-order) — keys are sorted below` does; a
/// bare `// sor-check: allow(hash-order)` does not.
fn justified(line: &str, marker: &str) -> bool {
    let Some(pos) = line.find(marker) else {
        return false;
    };
    let rest = &line[pos + marker.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[close + 1..]
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .take(3)
        .count()
        >= 3
}

/// Does line `line_no` (1-based) of `file` carry a *justified*
/// allowlist comment for rule `id` — on the same line, the line
/// directly above, or as a file-wide `allow-file`?
pub(crate) fn allows(file: &SourceFile, line_no: usize, id: &str) -> bool {
    let idx = line_no.saturating_sub(1);
    let hit = |l: &str, marker: &str| -> bool {
        parse_allow_ids(l, marker).iter().any(|a| a == id) && justified(l, marker)
    };
    let at = |i: usize| -> bool { file.raw.get(i).is_some_and(|l| hit(l, "sor-check: allow(")) };
    if at(idx) || (idx > 0 && at(idx - 1)) {
        return true;
    }
    file.raw.iter().any(|l| hit(l, "sor-check: allow-file("))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use std::path::Path;

    fn file(text: &str) -> SourceFile {
        parse_file(Path::new("crates/core/src/a.rs"), "sor-core", text)
    }

    #[test]
    fn justified_allow_is_honored() {
        let f =
            file("// sor-check: allow(hash-order) — keys are sorted before output\nfn f() {}\n");
        assert!(allows(&f, 2, "hash-order"));
        assert!(!allows(&f, 2, "panic-path"));
    }

    #[test]
    fn bare_allow_is_ignored() {
        let f = file("// sor-check: allow(hash-order)\nfn f() {}\n");
        assert!(!allows(&f, 2, "hash-order"));
        // trailing punctuation alone is not a justification
        let g = file("// sor-check: allow(hash-order) --\nfn f() {}\n");
        assert!(!allows(&g, 2, "hash-order"));
    }

    #[test]
    fn allow_file_requires_justification_too() {
        let bare = file("// sor-check: allow-file(hash-order)\nfn f() {}\n");
        assert!(!allows(&bare, 2, "hash-order"));
        let just = file(
            "// sor-check: allow-file(hash-order) — generated table, audited manually\nfn f() {}\n",
        );
        assert!(allows(&just, 2, "hash-order"));
    }
}
