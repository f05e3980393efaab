//! Unified findings, the text report, and the rule catalogue.
//!
//! Both passes funnel into [`Finding`]: the lexical rules (via
//! [`crate::Violation`]) and the semantic rules built on the item
//! graph. A finding carries an optional *witness* — for
//! panic-reachability, the shortest call chain from the reported public
//! function to the offending site.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::Violation;

/// Identifier and one-line description of every rule either pass can
/// fire, in reporting order (used by `--explain`).
pub const RULE_DESCRIPTIONS: [(&str, &str); 6] = [
    ("unwrap", "no .unwrap()/.expect()/panic! in library code"),
    ("float-eq", "no ==/!= against float literals"),
    (
        "layering",
        "crate references respect the declared layer DAG",
    ),
    (
        "panic-path",
        "no panic reachable from public solver-crate functions",
    ),
    (
        "unseeded-rng",
        "functions constructing RNGs take a seed or Rng parameter",
    ),
    (
        "hash-order",
        "no HashMap/HashSet iteration order in solver/sampler output",
    ),
];

/// Long-form documentation per rule for `sor-check --explain <rule>`:
/// `(id, doc, config keys)`.
pub fn explain(id: &str) -> Option<String> {
    let (doc, keys): (&str, &str) = match id {
        "unwrap" => (
            "Library code must not call .unwrap()/.expect() or panic!. Propagate a\n\
             Result or handle the None arm; tests, benches, examples and binaries\n\
             are exempt.",
            "none (lexical; scope: every crate under crates/ but sor-bench, and src/)",
        ),
        "float-eq" => (
            "Float == / != against literals is almost never what a solver means;\n\
             compare against a tolerance.",
            "none (lexical)",
        ),
        "layering" => (
            "Crate references must respect the DAG declared in [layers]: a crate may\n\
             reference only the transitive closure of its declared dependencies.",
            "[layers] <crate> = [<deps>...]",
        ),
        "panic-path" => (
            "No panic site may be reachable from a pub fn of the configured crates,\n\
             over the workspace call graph; the witness is the shortest call chain.",
            "[panics] public_crates, index_crates",
        ),
        "unseeded-rng" => (
            "Functions of the configured crates that construct an RNG must take a\n\
             seed or Rng parameter; from_entropy/thread_rng-style constructors flag.",
            "[determinism] rng_crates",
        ),
        "hash-order" => (
            "Solver/sampler crates must not iterate HashMap/HashSet locals in hash\n\
             order — switch to BTreeMap or sort before iterating.",
            "[determinism] order_crates",
        ),
        _ => return None,
    };
    let (_, short) = RULE_DESCRIPTIONS.iter().find(|(i, _)| *i == id)?;
    Some(format!(
        "{id} — {short}\n\n{doc}\n\nconfig: {keys}\n\nallow syntax: // sor-check: allow({id}) — <justification>\n"
    ))
}

/// One finding from either pass.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule identifier (see [`RULE_DESCRIPTIONS`]).
    pub rule: String,
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Item path the finding anchors to (`sor-flow::restricted::solve`),
    /// empty for purely positional findings.
    pub symbol: String,
    /// Human-oriented message.
    pub message: String,
    /// Optional witness chain, outermost first. For `panic-path`: the
    /// call path ending in the panic site.
    pub witness: Vec<String>,
}

impl From<Violation> for Finding {
    fn from(v: Violation) -> Finding {
        Finding {
            rule: v.rule.id().to_string(),
            file: v.file,
            line: v.line,
            symbol: String::new(),
            message: v.message,
            witness: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        for (i, step) in self.witness.iter().enumerate() {
            write!(f, "\n    {}{}", if i == 0 { "via " } else { "  → " }, step)?;
        }
        Ok(())
    }
}

/// Render the human report: every finding in full, then a summary line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    if findings.is_empty() {
        let _ = writeln!(out, "sor-check: clean");
    } else {
        let _ = writeln!(out, "sor-check: {} finding(s)", findings.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "panic-path".into(),
            file: PathBuf::from("crates/flow/src/x.rs"),
            line: 10,
            symbol: "sor-flow::x::f".into(),
            message: "panic reachable".into(),
            witness: vec![
                "sor-flow::x::f".into(),
                ".expect(..) at crates/flow/src/y.rs:3".into(),
            ],
        }
    }

    #[test]
    fn text_report_shows_witness_and_counts() {
        let text = render_text(&[sample()]);
        assert!(text.contains("via sor-flow::x::f"), "{text}");
        assert!(text.ends_with("sor-check: 1 finding(s)\n"), "{text}");
        assert_eq!(render_text(&[]), "sor-check: clean\n");
    }
}
