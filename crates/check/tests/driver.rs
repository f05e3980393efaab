//! End-to-end tests for the `sor-check` driver: the binary must exit
//! non-zero on a workspace seeded with violations, zero on a clean one,
//! and zero on the real workspace (the acceptance gate CI enforces).
//! The semantic pass is covered against the same fixtures: every
//! item-graph rule fires on `bad_ws` and witness chains are exact,
//! including chains through `Self::` calls and trait default bodies.
//! Unreadable or unknown configuration and retired flags exit 2, and
//! the toolchain lints that replaced the type-blind lexical rules stay
//! switched on.

use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sor_check::{analyze_workspace, scan_workspace};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn seeded_fixture_triggers_every_rule() {
    let violations = scan_workspace(&fixture("bad_ws")).expect("scan bad_ws");
    let fired: Vec<sor_check::Rule> = violations.iter().map(|v| v.rule).collect();
    for rule in sor_check::ALL_RULES {
        assert!(
            fired.contains(&rule),
            "rule {rule} did not fire on the seeded fixture; got: {violations:#?}"
        );
    }
}

#[test]
fn clean_fixture_passes() {
    let violations = scan_workspace(&fixture("clean_ws")).expect("scan clean_ws");
    assert!(
        violations.is_empty(),
        "clean fixture flagged: {violations:#?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let violations = scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "workspace has {} lint violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exits_nonzero_on_seeded_violations() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .status()
        .expect("run sor-check on bad_ws");
    assert_eq!(status.code(), Some(1), "expected exit 1 on seeded fixture");
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("clean_ws"))
        .status()
        .expect("run sor-check on clean_ws");
    assert_eq!(status.code(), Some(0), "expected exit 0 on clean fixture");
}

#[test]
fn semantic_rules_all_fire_on_bad_ws() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    for rule in ["layering", "panic-path", "unseeded-rng", "hash-order"] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "semantic rule {rule} did not fire on bad_ws; got: {findings:#?}"
        );
    }
}

#[test]
fn panic_path_reports_shortest_witness_chain() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "panic-path" && f.symbol.ends_with("solver_entry"))
        .expect("panic-path finding for solver_entry");
    // entry → middle → deep → the concrete site
    assert_eq!(f.witness.len(), 4, "{:?}", f.witness);
    assert!(f.witness[0].contains("solver_entry"), "{:?}", f.witness);
    assert!(f.witness[1].contains("solver_middle"), "{:?}", f.witness);
    assert!(f.witness[2].contains("solver_deep"), "{:?}", f.witness);
    assert!(f.witness[3].contains(".expect("), "{:?}", f.witness);
    assert!(f.message.contains("2 calls deep"), "{}", f.message);
}

/// The witness of the `panic-path` finding on `bad_ws`'s public fn
/// `symbol`.
fn panic_witness(symbol: &str) -> Vec<String> {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    findings
        .into_iter()
        .find(|f| f.rule == "panic-path" && f.symbol == symbol)
        .unwrap_or_else(|| panic!("no panic-path finding for {symbol}"))
        .witness
}

#[test]
fn panic_path_follows_self_calls() {
    assert_eq!(
        panic_witness("sor-core::resolve::Table::via_self"),
        [
            "sor-core::resolve::Table::via_self (crates/core/src/resolve.rs:9)",
            "sor-core::resolve::Table::lookup (crates/core/src/resolve.rs:22)",
            ".expect(..) at crates/core/src/resolve.rs:23",
        ]
    );
    assert_eq!(
        panic_witness("sor-core::resolve::Table::via_method"),
        [
            "sor-core::resolve::Table::via_method (crates/core/src/resolve.rs:14)",
            "sor-core::resolve::Table::checked (crates/core/src/resolve.rs:18)",
            "sor-core::resolve::Table::lookup (crates/core/src/resolve.rs:22)",
            ".expect(..) at crates/core/src/resolve.rs:23",
        ]
    );
}

#[test]
fn panic_path_reaches_trait_default_bodies() {
    assert_eq!(
        panic_witness("sor-core::resolve::route"),
        [
            "sor-core::resolve::route (crates/core/src/resolve.rs:35)",
            "sor-core::resolve::Picker::pick (crates/core/src/resolve.rs:29)",
            ".expect(..) at crates/core/src/resolve.rs:30",
        ]
    );
}

#[test]
fn layering_violation_names_the_illegal_edge() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "layering" && f.symbol == "sor-graph -> sor-core"),
        "expected a sor-graph -> sor-core layering finding; got: {findings:#?}"
    );
}

#[test]
fn clean_fixture_has_no_semantic_findings() {
    let findings = analyze_workspace(&fixture("clean_ws")).expect("analyze clean_ws");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn explain_prints_rule_doc_and_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("panic-path")
        .output()
        .expect("explain run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("panic-path — "), "{stdout}");
    assert!(stdout.contains("allow(panic-path)"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("explain unknown run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("hash-order"), "{stderr}");
}

#[test]
fn real_workspace_gate_is_clean_with_no_baseline() {
    let out = run_check([workspace_root()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout, "sor-check: clean\n");
}

#[test]
fn binary_rejects_missing_root() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("no_such_dir"))
        .status()
        .expect("run sor-check on missing dir");
    assert_eq!(status.code(), Some(2), "expected exit 2 on bad root");
}

/// A fresh scratch workspace root for one test (`name` keeps parallel
/// tests apart); the caller removes it.
fn temp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sor_check_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(root.join("crates/graph/src")).expect("create temp root");
    root
}

fn run_check<I: IntoIterator<Item = S>, S: AsRef<OsStr>>(args: I) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .args(args)
        .output()
        .expect("run sor-check")
}

#[test]
fn unreadable_check_toml_exits_2() {
    let root = temp_root("bad_utf8_config");
    std::fs::write(root.join("check.toml"), b"[layers]\n\xff = []\n").expect("write");
    let out = run_check([&root]);
    std::fs::remove_dir_all(&root).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("check.toml: cannot read"), "{stderr}");
}

#[test]
fn retired_flags_and_config_keys_exit_2() {
    for flags in [
        &["--format", "sarif"][..],
        &["--output", "report.txt"],
        &["--fail-on-new"],
        &["--baseline", "check-baseline.txt"],
        &["--no-baseline"],
        &["--write-baseline", "baseline.txt"],
        &["--hotpath-report", "hotpath.json"],
    ] {
        let mut args = vec![fixture("clean_ws").into_os_string()];
        args.extend(flags.iter().map(OsString::from));
        let out = run_check(args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flags:?}: {stderr}");
    }
    let root = temp_root("retired_keys");
    for key in [
        "[panics]\ninclude_indexing = false\n",
        "[hotpath]\nalloc_min_depth = 1\n",
        "[hotpath]\nentries = [\"sample_k\", \"sor-serve::run_epoch\"]\n",
        "[dead-api]\ncrates = [\"sor-graph\"]\n",
        "[concurrency]\ncrates = [\"sor-obs\"]\n",
        "[concurrency]\nexpensive = [\"build\"]\n",
        "[concurrency]\nparallel_targets = [\"sample_k\"]\n",
    ] {
        std::fs::write(root.join("check.toml"), key).expect("write");
        let out = run_check([&root]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}: {stderr}");
        assert!(stderr.contains("unknown configuration key"), "{stderr}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The trimmed lines of one `[header]` section of a TOML file.
fn section<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

#[test]
fn toolchain_lints_replace_the_type_blind_rules() {
    let root = workspace_root();
    let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let manifest = read(root.join("Cargo.toml"));
    assert!(
        section(&manifest, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\""),
        "unsafe code must stay forbidden workspace-wide"
    );
    let clippy = section(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "unwrap_used = \"deny\"",
        "cast_possible_truncation = \"deny\"",
    ] {
        assert!(clippy.contains(&lint), "missing `{lint}`: {clippy:?}");
    }
    assert!(section(&manifest, "[lints]").contains(&"workspace = true"));
    let mut members = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let crate_manifest = entry.expect("entry").path().join("Cargo.toml");
        if crate_manifest.is_file() {
            members += 1;
            assert!(
                section(&read(crate_manifest.clone()), "[lints]").contains(&"workspace = true"),
                "{crate_manifest:?} must inherit the workspace lints"
            );
        }
    }
    assert!(members >= 10, "only {members} member crates found");
    let core = read(root.join("crates/core/src/lib.rs"));
    assert!(
        core.lines().any(|l| l.trim() == "#![deny(missing_docs)]"),
        "sor-core must deny missing docs"
    );
}
