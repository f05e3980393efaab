//! `sor-check`: the workspace's repo-specific static-analysis pass.
//!
//! The generic toolchain cannot express the rules this workspace actually
//! depends on — that library code never hides a failure behind
//! `unwrap()` without a stated invariant, that no public solver entry
//! point can reach a panic, that every random draw threads an explicit
//! seeded [`rand::Rng`] so experiments stay reproducible. This crate is a
//! std-only source scanner (the registry is unreachable from CI, so no
//! `syn`), run as `cargo run -p sor-check` and from CI; it exits
//! non-zero when any rule fires.
//!
//! # Lexical rules
//!
//! | id | scope | meaning |
//! |----|-------|---------|
//! | `unwrap` | library crates | no `.unwrap()` / `.expect(..)` / `panic!(..)` outside `#[cfg(test)]` |
//! | `float-eq` | everywhere scanned | no `==` / `!=` against a floating-point literal (compare with a tolerance) |
//!
//! The semantic rules (`layering`, `panic-path`, `unseeded-rng`,
//! `hash-order`) run over the item graph; see [`rules`].
//!
//! Checks that need type information are left to the toolchain, which
//! has it: `unsafe_code = "forbid"` and clippy's `unwrap_used` /
//! `cast_possible_truncation` in the root `[workspace.lints]`, and
//! `#![deny(missing_docs)]` in `sor-core`.
//!
//! # Allowlist mechanism
//!
//! A violation is suppressed by an explanatory comment on the same line or
//! the line directly above:
//!
//! ```text
//! // sor-check: allow(unwrap) — the queue was checked non-empty above
//! let head = queue.pop_front().unwrap();
//! ```
//!
//! A whole file opts out of one rule with `sor-check: allow-file(<rule>)`
//! in any comment. Allowlists are deliberately *loud*: they make every
//! exception grep-able, reviewed, and justified in place.
//!
//! # Honest limitations
//!
//! This is a lexical scanner with just enough state to strip strings,
//! comments and `#[cfg(test)]` regions. `float-eq` only recognizes
//! comparisons where one side is a float *literal*; it errs toward asking
//! for an allowlist comment rather than silence.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod config;
pub mod graph;
pub mod items;
pub mod report;
pub mod rules;
mod strip;
pub use strip::strip_line;

/// One of the repo-specific lint rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` / `panic!(` in library code.
    Unwrap,
    /// `==` / `!=` against a float literal.
    FloatEq,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 2] = [Rule::Unwrap, Rule::FloatEq];

impl Rule {
    /// Stable identifier used in reports and allowlist comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::FloatEq => "float-eq",
        }
    }

    /// Parse an allowlist identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A single rule hit.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-oriented explanation naming the offending token.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// Library code: the `unwrap` rule applies.
    pub library: bool,
}

/// Classify a workspace-relative path; `None` means the file is not
/// scanned at all (tests, benches, fixtures, generated output). Every
/// crate under `crates/` is library code except `bench`, the experiment
/// harness, which like the binaries is driver code and may panic on
/// broken input.
pub fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if parts.iter().any(|p| {
        *p == "tests" || *p == "benches" || *p == "examples" || *p == "fixtures" || *p == "target"
    }) {
        return None;
    }
    let is_binary = parts.contains(&"bin") || parts.last() == Some(&"main.rs");
    match parts.as_slice() {
        ["crates", krate, "src", ..] => Some(FileClass {
            library: *krate != "bench" && !is_binary,
        }),
        // the root package's library sources (src/bin is driver code)
        ["src", ..] => Some(FileClass {
            library: !is_binary,
        }),
        _ => None,
    }
}

/// Scan one file's text. `rel` is only used for reporting.
pub fn scan_file(rel: &Path, text: &str, class: FileClass) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut stripper = strip::Stripper::new();
    let lines: Vec<&str> = text.lines().collect();
    let stripped: Vec<String> = lines.iter().map(|l| stripper.strip_line(l)).collect();

    let file_allows: Vec<Rule> = lines
        .iter()
        .flat_map(|l| parse_allow(l, "sor-check: allow-file("))
        .collect();

    // `#[cfg(test)]` region tracking over stripped lines (shared with
    // the semantic pass, see items::test_mask).
    let in_test = items::test_mask(&stripped);

    let allowed = |rule: Rule, idx: usize| -> bool {
        if file_allows.contains(&rule) {
            return true;
        }
        let same = parse_allow(lines[idx], "sor-check: allow(");
        if same.contains(&rule) {
            return true;
        }
        idx > 0 && parse_allow(lines[idx - 1], "sor-check: allow(").contains(&rule)
    };

    for (idx, s) in stripped.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let line_no = idx + 1;

        if class.library {
            for (token, what) in [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect(..)`"),
                ("panic!(", "`panic!(..)`"),
            ] {
                if s.contains(token) && !allowed(Rule::Unwrap, idx) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: line_no,
                        rule: Rule::Unwrap,
                        message: format!(
                            "{what} in library code — propagate a Result or document the \
                             invariant with `// sor-check: allow(unwrap)`"
                        ),
                    });
                }
            }
        }

        if let Some(op) = float_literal_comparison(s) {
            if !allowed(Rule::FloatEq, idx) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: Rule::FloatEq,
                    message: format!(
                        "`{op}` against a float literal — exact float comparison is \
                         almost always a bug; compare with a tolerance"
                    ),
                });
            }
        }
    }
    out
}

/// Parse `sor-check: allow(a, b)`-style id lists out of a raw source
/// line. Semantic rule ids (not in [`ALL_RULES`]) come through too —
/// the rules in [`rules`] match on the raw strings.
pub fn parse_allow_ids(line: &str, marker: &str) -> Vec<String> {
    let Some(pos) = line.find(marker) else {
        return Vec::new();
    };
    let rest = &line[pos + marker.len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|id| id.trim().to_string())
        .filter(|id| !id.is_empty())
        .collect()
}

/// Parse `sor-check: allow(a, b)`-style lists of lexical rules.
fn parse_allow(line: &str, marker: &str) -> Vec<Rule> {
    parse_allow_ids(line, marker)
        .iter()
        .filter_map(|id| Rule::from_id(id))
        .collect()
}

/// Returns the comparison operator if the line compares against a float
/// literal with `==` or `!=`.
fn float_literal_comparison(s: &str) -> Option<&'static str> {
    for (op, len) in [("==", 2), ("!=", 2)] {
        let mut search = 0;
        while let Some(rel_pos) = s[search..].find(op) {
            let pos = search + rel_pos;
            search = pos + len;
            // reject `<=`, `>=`, `=>`, `===`-like neighborhoods
            let before = s[..pos].chars().next_back();
            let after = s[pos + len..].chars().next();
            if matches!(before, Some('<') | Some('>') | Some('=') | Some('!'))
                || matches!(after, Some('='))
            {
                continue;
            }
            let left = last_token(&s[..pos]);
            let right = first_token(&s[pos + len..]);
            if is_float_literal(left) || is_float_literal(right) {
                return Some(op);
            }
        }
    }
    None
}

fn last_token(s: &str) -> &str {
    let trimmed = s.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &trimmed[start..]
}

fn first_token(s: &str) -> &str {
    let trimmed = s.trim_start();
    let end = trimmed
        .char_indices()
        .find(|&(i, c)| {
            !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || (c == '-' && i == 0))
        })
        .map(|(i, _)| i)
        .unwrap_or(trimmed.len());
    &trimmed[..end]
}

/// Lexical float-literal shapes: `1.0`, `.5`, `2.`, `1e-9`, `1.5f64`.
fn is_float_literal(token: &str) -> bool {
    let has_suffix = token.ends_with("f64") || token.ends_with("f32");
    let t = token.strip_prefix('-').unwrap_or(token);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp = t.chars().any(|c| c == 'e' || c == 'E');
    if !has_dot && !has_exp && !has_suffix {
        return false; // plain integer literal
    }
    t.chars()
        .all(|c| c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+')
        && t.chars().any(|c| c.is_ascii_digit())
}

/// Recursively collect `.rs` files under `root/crates` and `root/src`,
/// scan each, and return all violations sorted by path and line.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut out = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let Some(class) = classify(&rel) else {
            continue;
        };
        let text = std::fs::read_to_string(&file)?;
        out.extend(scan_file(&rel, &text, class));
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(out)
}

/// Append every `.rs` file under `dir`, recursively, to `out`.
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// An analysis failure that is not a finding: unreadable sources or a
/// malformed `check.toml`.
#[derive(Debug)]
pub enum AnalysisError {
    /// Filesystem error while loading sources.
    Io(std::io::Error),
    /// `check.toml` did not parse or declared an invalid layering.
    Config(config::ConfigError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Io(e) => write!(f, "io: {e}"),
            AnalysisError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for AnalysisError {
    fn from(e: std::io::Error) -> Self {
        AnalysisError::Io(e)
    }
}

impl From<config::ConfigError> for AnalysisError {
    fn from(e: config::ConfigError) -> Self {
        AnalysisError::Config(e)
    }
}

/// Run both passes — the lexical rules and the semantic item-graph
/// rules — over the workspace at `root`, returning every
/// finding sorted by path, line, and rule. `check.toml` at `root`
/// configures the semantic rules; without it they are skipped.
pub fn analyze_workspace(root: &Path) -> Result<Vec<report::Finding>, AnalysisError> {
    let cfg = config::Config::load(root)?;
    let mut findings: Vec<report::Finding> = scan_workspace(root)?
        .into_iter()
        .map(report::Finding::from)
        .collect();
    let ws = graph::load_workspace(root)?;
    findings.extend(rules::run_semantic(&ws, &cfg));
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.symbol.cmp(&b.symbol))
    });
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, text: &str) -> Vec<Violation> {
        let rel = PathBuf::from(path);
        let class = classify(&rel).expect("classified");
        scan_file(&rel, text, class)
    }

    #[test]
    fn classification() {
        let library = |p: &str| classify(Path::new(p)).map(|c| c.library);
        assert_eq!(library("crates/graph/src/graph.rs"), Some(true));
        assert_eq!(library("crates/compact/src/codec.rs"), Some(true));
        assert_eq!(library("crates/check/src/lib.rs"), Some(true));
        assert_eq!(library("crates/bench/src/lib.rs"), Some(false));
        assert_eq!(library("crates/serve/src/bin/x.rs"), Some(false));
        assert_eq!(library("crates/graph/tests/props.rs"), None);
        assert_eq!(library("crates/bench/benches/kernels.rs"), None);
        assert_eq!(library("src/bin/sor.rs"), Some(false));
        assert_eq!(library("src/cli.rs"), Some(true));
        assert_eq!(library("README.md"), None);
    }

    #[test]
    fn unwrap_rule_fires_and_allows() {
        let v = scan("crates/graph/src/x.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
        assert_eq!(v[0].line, 1);
        let ok = scan(
            "crates/graph/src/x.rs",
            "// sor-check: allow(unwrap) — length checked above\nfn f() { y.unwrap(); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unwrap_ignored_in_tests_and_strings() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(scan("crates/flow/src/x.rs", text).is_empty());
        let text2 = "fn f() { let s = \".unwrap()\"; }\n// .expect( in a comment\n";
        assert!(scan("crates/flow/src/x.rs", text2).is_empty());
    }

    #[test]
    fn float_eq_rule() {
        let v = scan("crates/sched/src/x.rs", "if x == 1.0 { }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatEq);
        assert_eq!(scan("crates/sched/src/x.rs", "if 0.5 != y { }\n").len(), 1);
        // integers, <=, >= are fine
        assert!(scan("crates/sched/src/x.rs", "if x == 1 && y <= 2.0 { }\n").is_empty());
        assert!(scan("crates/sched/src/x.rs", "if (a - b).abs() < 1e-9 { }\n").is_empty());
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let text = "// sor-check: allow-file(float-eq)\nfn f() { if x == 1.0 {} if y == 2.0 {} }\n";
        assert!(scan("crates/sched/src/x.rs", text).is_empty());
    }

    #[test]
    fn violation_display_names_file_line_rule() {
        let v = scan("crates/graph/src/x.rs", "fn f() { y.unwrap(); }\n");
        let shown = v[0].to_string();
        assert!(shown.contains("crates/graph/src/x.rs:1"), "{shown}");
        assert!(shown.contains("[unwrap]"), "{shown}");
    }
}
