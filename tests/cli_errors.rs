//! The `sor` binary rejects degenerate flag values, graph and demand
//! specs, and flags a subcommand does not take as usage errors: exit code
//! 2, an `error:` line naming the flag or spec, and no panic.

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
    // a serve run that could never admit a request idles every epoch
    for flag in ["--batch", "--queue-bound", "--rate"] {
        let args = ["serve", "--graph", "hypercube:3", flag, "0"];
        rejects(&args, &format!("{flag}: must be at least 1"));
    }
}

#[test]
fn degenerate_demand_specs_are_usage_errors() {
    // gravity totals must be finite and positive; pairs:K must fit in a
    // matching of the 8 vertices (1 <= K <= 4)
    for spec in [
        "gravity:0",
        "gravity:-1",
        "gravity:inf",
        "pairs:0",
        "pairs:5",
        "pairs:100",
    ] {
        rejects(&["eval", "--graph", "hypercube:3", "--demand", spec], spec);
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

#[test]
fn pattern_pairs_beyond_half_the_vertices_are_usage_errors() {
    // Patterns are matchings: n vertices hold at most n/2 disjoint pairs,
    // and the default of 4 is too many on 6 or 5 vertices.
    for args in [
        "serve --graph grid:2x3",
        "serve --graph twostar:1x1",
        "serve --graph grid:4x4 --pattern-pairs 9",
        "serve --graph grid:4x4 --pattern-pairs 0",
    ] {
        rejects(&args.split(' ').collect::<Vec<_>>(), "--pattern-pairs");
    }
}

#[test]
fn flags_a_subcommand_does_not_take_are_usage_errors() {
    for (args, names) in [
        // the retired snapshot-format selector
        (
            "serve --graph hypercube:3 --snapshot-format compact",
            "--snapshot-format",
        ),
        // a typo for --s, and a serve-only flag elsewhere
        ("eval --graph hypercube:3 --sparsity 5", "--sparsity"),
        ("eval --graph hypercube:3 --dashboard", "--dashboard"),
        // a value missing at the end, or taken by the next flag
        ("eval --graph hypercube:3 --s", "--s"),
        ("eval --graph hypercube:3 --demand --eps 0.2", "--demand"),
        ("info --graph hypercube:3 stray", "stray"),
        ("forensics --journal j.json --graph abilene", "--graph"),
    ] {
        rejects(&args.split(' ').collect::<Vec<_>>(), names);
    }
}

#[test]
fn every_listed_flag_is_accepted() {
    let dir = std::env::temp_dir().join(format!("sor-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tiny = "--graph cycle:6 --seed 3 --trees 2";
    for args in [
        "info --graph cycle:6 --seed 3".to_string(),
        format!("eval {tiny} --s 2 --demand perm --eps 0.3"),
        format!("sweep {tiny} --max-s 2 --demand perm --eps 0.3"),
        format!("sim {tiny} --s 2 --demand perm --eps 0.3"),
        format!("compact {tiny} --max-s 1 --demand perm --eps 0.3"),
        format!("export {tiny} --s 2 --demand perm"),
        format!("process {tiny} --s 2 --tau 2 --demand perm"),
        format!(
            "serve {tiny} --epochs 3 --rate 4 --patterns 2 --pattern-pairs 3 --s 2 --eps 0.3 \
             --batch 4 --queue-bound 8 --cache-cap 2 --fail-at 1 --restore-after 1 \
             --compare-fresh --integral --telemetry-addr 127.0.0.1:0 --hold-ms 0 \
             --timeline-out t.json --dashboard --slo --slo-max-ratio 9 --slo-max-p99-ms 1e9 \
             --slo-min-hit-rate 2 --slo-max-fallback 1 --journal-out j.json \
             --journal-epochs 0 --dump-on-breach breach"
        ),
        "forensics --journal j.json --top 3 --json report.json".to_string(),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sor"))
            .current_dir(&dir)
            .args(args.split_whitespace())
            .args(["--quiet", "--trace", "--metrics-out", "metrics.json"])
            .output()
            .expect("run sor");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
