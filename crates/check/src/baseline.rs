//! The committed-findings baseline: CI fails only on *regressions*.
//!
//! `check-baseline.txt` holds the fingerprints of findings that are
//! known, triaged, and deliberately tolerated: one
//! `<rule>:<path>:<anchor>` line per finding (see
//! [`Finding::fingerprint`]), sorted, so the file reviews like a TODO
//! list and diffs line by line. [`partition`] splits a fresh run
//! against it; the driver exits non-zero only for the `new` side.
//! Regenerate with
//! `cargo run -p sor-check -- --write-baseline check-baseline.txt`
//! after fixing or triaging findings — shrinking the file is progress,
//! growing it is a review conversation.

use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::Path;

use crate::report::{Finding, RULE_DESCRIPTIONS};

/// Load the baseline fingerprint set from `path`. A missing file is an
/// empty baseline (everything is new). An unreadable file, or a line
/// that is not `<rule>:<path>:<anchor>` for one of the rules, is an
/// error naming the line, so a corrupted baseline cannot silently
/// disable the gate. CRLF line endings and a final newline are fine.
pub fn load(path: &Path) -> Result<BTreeSet<String>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(format!("{}: cannot read: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .map(|(idx, line)| {
            if is_fingerprint(line) {
                Ok(line.to_string())
            } else {
                Err(format!(
                    "{}:{}: expected `<rule>:<path>:<anchor>` with a known rule id, got `{line}`",
                    path.display(),
                    idx + 1
                ))
            }
        })
        .collect()
}

/// Is `line` a `<rule>:<path>:<anchor>` fingerprint of a known rule?
fn is_fingerprint(line: &str) -> bool {
    let Some((rule, rest)) = line.split_once(':') else {
        return false;
    };
    let Some((path, anchor)) = rest.split_once(':') else {
        return false;
    };
    RULE_DESCRIPTIONS.iter().any(|(id, _)| *id == rule) && !path.is_empty() && !anchor.is_empty()
}

/// Serialize findings as a baseline: their fingerprints, sorted and
/// de-duplicated, one per line.
pub fn render(findings: &[Finding]) -> String {
    let fingerprints: BTreeSet<String> = findings.iter().map(Finding::fingerprint).collect();
    fingerprints.into_iter().map(|fp| fp + "\n").collect()
}

/// Split findings into (new, baselined) against a fingerprint set.
pub fn partition(
    findings: Vec<Finding>,
    baseline: &BTreeSet<String>,
) -> (Vec<Finding>, Vec<Finding>) {
    let mut new = Vec::new();
    let mut old = Vec::new();
    for f in findings {
        if baseline.contains(&f.fingerprint()) {
            old.push(f);
        } else {
            new.push(f);
        }
    }
    (new, old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn finding(rule: &str, sym: &str) -> Finding {
        Finding {
            rule: rule.into(),
            file: PathBuf::from("crates/flow/src/x.rs"),
            line: 1,
            symbol: sym.into(),
            message: format!("{rule} on {sym}"),
            witness: Vec::new(),
        }
    }

    /// Write `text` to a per-test temp file, load it, clean up.
    fn load_text(name: &str, text: &str) -> Result<BTreeSet<String>, String> {
        let tmp = std::env::temp_dir().join(format!(
            "sor_check_baseline_{name}_{}.txt",
            std::process::id()
        ));
        std::fs::write(&tmp, text).expect("write tmp");
        let r = load(&tmp);
        std::fs::remove_file(&tmp).ok();
        r
    }

    #[test]
    fn render_then_load_roundtrip() {
        let fs = vec![
            finding("panic-path", "sor-flow::a"),
            finding("hash-order", "sor-core::b"),
        ];
        let set = load_text("roundtrip", &render(&fs)).expect("load");
        assert_eq!(set.len(), 2);
        assert!(set.contains(&fs[0].fingerprint()));
    }

    #[test]
    fn render_is_sorted_and_deduplicated() {
        let fs = vec![
            finding("panic-path", "b"),
            finding("layering", "z"),
            finding("panic-path", "b"),
            finding("panic-path", "a"),
        ];
        assert_eq!(
            render(&fs),
            "layering:crates/flow/src/x.rs:z\n\
             panic-path:crates/flow/src/x.rs:a\n\
             panic-path:crates/flow/src/x.rs:b\n"
        );
        assert_eq!(render(&[]), "");
    }

    #[test]
    fn partition_splits() {
        let fs = vec![finding("layering", "a"), finding("layering", "b")];
        let mut base = BTreeSet::new();
        base.insert(fs[0].fingerprint());
        let (new, old) = partition(fs, &base);
        assert_eq!(new.len(), 1);
        assert_eq!(old.len(), 1);
        assert_eq!(new[0].symbol, "b");
    }

    #[test]
    fn missing_baseline_is_empty() {
        let set = load(Path::new("/no/such/baseline.txt")).expect("empty");
        assert!(set.is_empty());
    }

    #[test]
    fn malformed_baseline_is_error() {
        for (name, text) in [
            ("no_anchor", "layering:crates/a.rs\n"),
            ("blank", "layering:crates/a.rs:x\n\n"),
            ("retired_rule", "dead-api:crates/a.rs:sor-a::f\n"),
        ] {
            let err = load_text(name, text).expect_err(name);
            assert!(err.contains("expected `<rule>:<path>:<anchor>`"), "{err}");
        }
    }
}
