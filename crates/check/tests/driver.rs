//! End-to-end tests for the `sor-check` driver: the binary must exit
//! non-zero on a workspace seeded with violations, zero on a clean one,
//! and zero on the real workspace (the acceptance gate CI enforces).
//! The semantic pass is covered against the same fixtures: every
//! item-graph rule fires on `bad_ws`, witness chains are exact, and the
//! baseline turns the gate regression-only. Unreadable or malformed
//! configuration and baselines exit 2, and the toolchain lints that
//! replaced the type-blind lexical rules stay switched on.

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
    for rule in [
        "layering",
        "panic-path",
        "unseeded-rng",
        "hash-order",
        "alloc-in-hot",
        "clone-in-loop",
        "growth-without-capacity",
        "quadratic-scan",
    ] {
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
fn alloc_in_hot_reports_the_interprocedural_chain_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "alloc-in-hot")
        .expect("alloc-in-hot finding");
    // entry → callee → the allocation site, with the effective loop depth
    assert_eq!(
        f.witness,
        vec![
            "sor-core::hot::hot_entry (crates/core/src/hot.rs:10)".to_string(),
            "sor-core::hot::alloc_helper (crates/core/src/hot.rs:23)".to_string(),
            "`Vec::new` at crates/core/src/hot.rs:24 (loop depth 1)".to_string(),
        ],
        "{:?}",
        f.witness
    );
    assert!(
        f.message.contains("effective loop depth 1")
            && f.message.contains("hot path of `hot_entry`"),
        "{}",
        f.message
    );
}

#[test]
fn clone_in_loop_reports_depth_and_chain_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "clone-in-loop")
        .expect("clone-in-loop finding");
    assert_eq!(
        f.witness,
        vec![
            "sor-core::hot::hot_entry (crates/core/src/hot.rs:10)".to_string(),
            "sor-core::hot::clone_spin (crates/core/src/hot.rs:29)".to_string(),
            "`name.clone()` at crates/core/src/hot.rs:32 (loop depth 1)".to_string(),
        ],
        "{:?}",
        f.witness
    );
}

#[test]
fn growth_and_scan_report_two_step_witnesses_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let growth = findings
        .iter()
        .find(|f| f.rule == "growth-without-capacity")
        .expect("growth-without-capacity finding");
    assert_eq!(
        growth.witness,
        vec![
            "`out` constructed without capacity at crates/core/src/hot.rs:41".to_string(),
            "`out.push(..)` in a loop at crates/core/src/hot.rs:43 (loop depth 1)".to_string(),
        ],
        "{:?}",
        growth.witness
    );
    let scan = findings
        .iter()
        .find(|f| f.rule == "quadratic-scan")
        .expect("quadratic-scan finding");
    assert_eq!(
        scan.witness,
        vec![
            "loop over `xs` at crates/core/src/hot.rs:52 (loop depth 1)".to_string(),
            "`ys.contains(..)` at crates/core/src/hot.rs:53".to_string(),
        ],
        "{:?}",
        scan.witness
    );
}

#[test]
fn text_output_includes_the_cost_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .output()
        .expect("text run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot-path cost report"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("hot_entry")),
        "{stdout}"
    );
}

#[test]
fn hotpath_report_flag_writes_cost_json() {
    let tmp = std::env::temp_dir().join("sor_check_bad_ws_hotpath.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--hotpath-report")
        .arg(&tmp)
        .status()
        .expect("hotpath-report run");
    assert_eq!(status.code(), Some(1), "seeded findings still gate");
    let text = std::fs::read_to_string(&tmp).expect("cost report written");
    std::fs::remove_file(&tmp).ok();
    assert!(
        text.contains(
            "{\n      \"entry\": \"hot_entry\",\n      \"functions\": 5,\n      \
             \"alloc_sites\": 2,\n      \"clone_sites\": 1,\n      \
             \"max_loop_depth\": 1,\n      \"witnesses\": ["
        ),
        "{text}"
    );
}

#[test]
fn explain_prints_rule_doc_and_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("alloc-in-hot")
        .output()
        .expect("explain run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("alloc-in-hot — "), "{stdout}");
    assert!(stdout.contains("allow(alloc-in-hot)"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("explain unknown run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("quadratic-scan"), "{stderr}");
}

#[test]
fn baseline_makes_the_gate_regression_only() {
    let tmp = std::env::temp_dir().join("sor_check_bad_ws_baseline.txt");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--write-baseline")
        .arg(&tmp)
        .status()
        .expect("write baseline");
    assert_eq!(status.code(), Some(0), "--write-baseline must succeed");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--baseline")
        .arg(&tmp)
        .status()
        .expect("gated run");
    std::fs::remove_file(&tmp).ok();
    assert_eq!(
        status.code(),
        Some(0),
        "every finding is baselined, so the gate must pass"
    );
}

#[test]
fn real_workspace_gate_passes_with_committed_baseline() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(workspace_root())
        .status()
        .expect("run sor-check on the real workspace");
    assert_eq!(
        status.code(),
        Some(0),
        "the real workspace must have no findings beyond check-baseline.txt"
    );
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
    let out = run_check([root.as_os_str(), "--no-baseline".as_ref()]);
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
        "[dead-api]\ncrates = [\"sor-graph\"]\n",
        "[concurrency]\ncrates = [\"sor-obs\"]\n",
        "[concurrency]\nexpensive = [\"build\"]\n",
        "[concurrency]\nparallel_targets = [\"sample_k\"]\n",
    ] {
        std::fs::write(root.join("check.toml"), key).expect("write");
        let out = run_check([root.as_os_str(), "--no-baseline".as_ref()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}: {stderr}");
        assert!(stderr.contains("unknown configuration key"), "{stderr}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_or_unreadable_baseline_exits_2_naming_the_line() {
    let root = temp_root("bad_baseline");
    let baseline = root.join("baseline.txt");
    std::fs::write(
        &baseline,
        "unwrap:crates/graph/src/lib.rs:x\nnot a fingerprint\n",
    )
    .expect("write");
    let out = run_check([
        root.as_os_str(),
        "--baseline".as_ref(),
        baseline.as_os_str(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    std::fs::write(&baseline, b"unwrap:crates/graph/src/lib.rs:\xff\n").expect("write");
    let unreadable = run_check([
        root.as_os_str(),
        "--baseline".as_ref(),
        baseline.as_os_str(),
    ]);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("baseline.txt:2: expected"), "{stderr}");
    assert!(stderr.contains("not a fingerprint"), "{stderr}");
    assert_eq!(unreadable.status.code(), Some(2));
}

#[test]
fn crlf_baseline_with_trailing_newline_gates_clean() {
    let root = temp_root("crlf_baseline");
    let baseline = root.join("baseline.txt");
    let written = run_check([
        fixture("bad_ws").as_os_str(),
        "--write-baseline".as_ref(),
        baseline.as_os_str(),
    ]);
    assert_eq!(written.status.code(), Some(0));
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.ends_with('\n'), "{text}");
    std::fs::write(&baseline, text.replace('\n', "\r\n")).expect("write crlf");
    let out = run_check([
        fixture("bad_ws").as_os_str(),
        "--baseline".as_ref(),
        baseline.as_os_str(),
    ]);
    std::fs::remove_dir_all(&root).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("sor-check: clean (12 baselined)"),
        "{stdout}"
    );
}

#[test]
fn write_baseline_is_sorted_and_deduplicated() {
    let root = temp_root("dedup_baseline");
    std::fs::write(
        root.join("crates/graph/src/lib.rs"),
        "pub fn f(a: Option<u32>, x: f64) -> u32 {\n    if x == 1.0 {\n        panic!(\"x\");\n    }\n    \
         let b = a.unwrap();\n    b + a.unwrap()\n}\n",
    )
    .expect("write source");
    let baseline = root.join("baseline.txt");
    let out = run_check([
        root.as_os_str(),
        "--write-baseline".as_ref(),
        baseline.as_os_str(),
    ]);
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wrote baseline with 4 finding(s)"),
        "{stdout}"
    );
    let lines: Vec<&str> = text.lines().collect();
    // the two `.unwrap()` findings share one fingerprint
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines.windows(2).all(|w| w[0] < w[1]), "not sorted: {text}");
    assert!(
        lines[0].starts_with("float-eq:crates/graph/src/lib.rs:"),
        "{text}"
    );
    assert!(
        lines[1].starts_with("unwrap:crates/graph/src/lib.rs:`.unwrap()`"),
        "{text}"
    );
    assert!(
        lines[2].starts_with("unwrap:crates/graph/src/lib.rs:`panic!(..)`"),
        "{text}"
    );
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
