//! Unified findings, the text report, and the rule catalogue.
//!
//! Both passes funnel into [`Finding`]: the lexical rules (via
//! [`crate::Violation`]) and the semantic rules built on the item
//! graph. A finding carries an optional *witness* — for
//! panic-reachability, the shortest call chain from the reported public
//! function to the offending site — and a stable [`Finding::fingerprint`]
//! that the baseline mechanism keys on (deliberately line-free, so
//! unrelated edits that shift line numbers do not churn the baseline).

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::Violation;

/// Identifier and one-line description of every rule either pass can
/// fire, in reporting order (used by `--explain` and to validate
/// baseline lines).
pub const RULE_DESCRIPTIONS: [(&str, &str); 10] = [
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
    (
        "alloc-in-hot",
        "no heap allocation at loop depth >= 1 reachable from a hot entry",
    ),
    (
        "clone-in-loop",
        "no .clone() at effective loop depth >= 1 anywhere in a hot call tree",
    ),
    (
        "growth-without-capacity",
        "collections grown in a loop are constructed with_capacity",
    ),
    (
        "quadratic-scan",
        "no linear Vec/slice scans inside a loop over a collection",
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
        "alloc-in-hot" => (
            "Walks the layering-filtered call graph from each [hotpath] entry; every\n\
             non-clone heap-allocation site (Vec::new, vec![, String::new, Box::new,\n\
             .collect(), .to_vec(), ...) whose effective loop depth — the maximum\n\
             lexical loop depth along the shortest witness chain, call sites\n\
             included — reaches 1 is reported. Depth-0 sites still count in the\n\
             per-entry cost report (--hotpath-report).",
            "[hotpath] entries",
        ),
        "clone-in-loop" => (
            ".clone() at effective loop depth >= 1 anywhere in a hot tree — a clone\n\
             per iteration, counting loops across function boundaries. Borrow,\n\
             std::mem::take, or share via Arc instead.",
            "[hotpath] entries",
        ),
        "growth-without-capacity" => (
            "Within hot-tree functions: a local built with Vec::new()/vec![]/\n\
             String::new()/HashMap::new()/... and then .push/.insert/.push_str-ed\n\
             at a strictly deeper lexical loop depth pays repeated reallocation;\n\
             construct it with_capacity.",
            "[hotpath] entries",
        ),
        "quadratic-scan" => (
            "Within hot-tree functions: a for-loop over a Vec/slice whose body runs\n\
             .contains()/.iter().position()/.iter().find() against the same or a\n\
             sibling Vec/slice is O(n*m); index into a HashSet/HashMap or sort once.",
            "[hotpath] entries",
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

impl Finding {
    /// Baseline key: rule + file + symbol (or the message when the
    /// finding has no symbol). Line numbers are deliberately excluded so
    /// the baseline survives unrelated edits above a finding.
    pub fn fingerprint(&self) -> String {
        let anchor = if self.symbol.is_empty() {
            &self.message
        } else {
            &self.symbol
        };
        format!("{}:{}:{}", self.rule, self.file.display(), anchor)
    }
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

/// Render the human report: new findings in full, baselined ones as a
/// single summary count.
pub fn render_text(new: &[Finding], baselined: usize) -> String {
    let mut out = String::new();
    for f in new {
        let _ = writeln!(out, "{f}");
    }
    if new.is_empty() {
        let _ = write!(out, "sor-check: clean");
    } else {
        let _ = write!(out, "sor-check: {} new finding(s)", new.len());
    }
    if baselined > 0 {
        let _ = write!(out, " ({baselined} baselined)");
    }
    let _ = writeln!(out);
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
    fn fingerprint_is_line_free() {
        let mut f = sample();
        let a = f.fingerprint();
        f.line = 99;
        assert_eq!(a, f.fingerprint());
        assert!(a.starts_with("panic-path:"));
    }

    #[test]
    fn text_report_shows_witness_and_counts() {
        let text = render_text(&[sample()], 2);
        assert!(text.contains("via sor-flow::x::f"), "{text}");
        assert!(text.contains("1 new finding(s) (2 baselined)"), "{text}");
        let clean = render_text(&[], 0);
        assert!(clean.contains("clean"));
    }
}
