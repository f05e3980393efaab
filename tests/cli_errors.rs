//! The `sor` binary rejects degenerate flag values and graph specs as
//! usage errors: exit code 2, an `error:` line naming the flag or spec,
//! and no panic.

use std::process::Command;

/// Run `sor` with `args` and check it failed as a usage error whose
/// message names `names`.
fn rejects(args: &[&str], names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sor"))
        .args(args)
        .arg("--quiet")
        .output()
        .expect("run sor");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(names)),
        "{args:?}: no error line naming {names}: {stderr}"
    );
}

#[test]
fn degenerate_flag_values_are_usage_errors() {
    let g = ["--graph", "hypercube:3"];
    for (cmd, flag, value) in [
        ("eval", "--s", "0"),
        ("eval", "--trees", "0"),
        ("eval", "--eps", "0"),
        ("eval", "--eps", "1.5"),
        ("process", "--tau", "0"),
        ("serve", "--cache-cap", "0"),
        ("serve", "--patterns", "0"),
    ] {
        let mut args = vec![cmd];
        args.extend(g);
        args.extend([flag, value]);
        rejects(&args, flag);
    }
}

#[test]
fn degenerate_graph_specs_are_usage_errors() {
    for spec in [
        "hypercube:0",
        "hypercube:40",
        "grid:0x5",
        "grid:1x1",
        "cycle:2",
        "path:1",
        "expander:4x4",
        "expander:5x3",
        "twostar:0x3",
    ] {
        rejects(&["eval", "--graph", spec], spec);
    }
}
