//! Driver for the workspace analysis: `cargo run -p sor-check`.
//!
//! Runs the lexical lint rules *and* the semantic item-graph pass
//! (layering / panic-reachability / determinism / hot-path cost) over
//! the workspace root (or an explicit root passed as the first
//! positional argument, used by the integration tests to point at
//! seeded fixtures).
//!
//! ```text
//! sor-check [ROOT] [--baseline PATH] [--no-baseline]
//!           [--write-baseline PATH] [--hotpath-report PATH]
//! sor-check --explain <rule>
//! ```
//!
//! `--hotpath-report PATH` writes the per-entry hot-path cost report
//! (reachable functions, allocation/clone sites, max loop depth, deep
//! witness groups) as deterministic JSON — the committed
//! `check-hotpath.json` snapshot CI diffs against. `--explain <rule>`
//! prints the long-form documentation for one rule id and exits.
//!
//! A baseline at `<ROOT>/check-baseline.txt` is picked up
//! automatically (override with `--baseline`, disable with
//! `--no-baseline`); findings whose fingerprint it contains are
//! *baselined* and do not fail the run — the gate is regression-only.
//! Exit codes: 0 no new findings, 1 new findings, 2
//! usage/configuration/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use sor_check::report::{explain, render_text, RULE_DESCRIPTIONS};
use sor_check::rules::hotpath::{render_cost_json, render_cost_table};
use sor_check::{analyze_workspace_with_cost, baseline};

/// Parsed command line.
struct Opts {
    root: PathBuf,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: Option<PathBuf>,
    hotpath_report: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: workspace_root(),
        baseline: None,
        no_baseline: false,
        write_baseline: None,
        hotpath_report: None,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        let mut value_of = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => opts.baseline = Some(PathBuf::from(value_of("--baseline")?)),
            "--no-baseline" => opts.no_baseline = true,
            "--write-baseline" => {
                opts.write_baseline = Some(PathBuf::from(value_of("--write-baseline")?));
            }
            "--hotpath-report" => {
                opts.hotpath_report = Some(PathBuf::from(value_of("--hotpath-report")?));
            }
            "--explain" => opts.explain = Some(value_of("--explain")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if positional_seen {
                    return Err(format!("unexpected extra argument `{positional}`"));
                }
                positional_seen = true;
                opts.root = PathBuf::from(positional);
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sor-check: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &opts.explain {
        return match explain(id) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                let ids: Vec<&str> = RULE_DESCRIPTIONS.iter().map(|(i, _)| *i).collect();
                eprintln!(
                    "sor-check: unknown rule `{id}` — valid ids: {}",
                    ids.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    if !opts.root.is_dir() {
        eprintln!(
            "sor-check: root `{}` is not a directory",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let (findings, cost) = match analyze_workspace_with_cost(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sor-check: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    // The cost report is an inventory, not a gate: write it whenever
    // asked, including --write-baseline runs (so CI regenerates both
    // snapshots from one invocation).
    if let Some(path) = &opts.hotpath_report {
        if let Err(e) = std::fs::write(path, render_cost_json(&cost)) {
            eprintln!(
                "sor-check: cannot write hot-path report {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if let Some(path) = &opts.write_baseline {
        let text = baseline::render(&findings);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("sor-check: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "sor-check: wrote baseline with {} finding(s) to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_set = if opts.no_baseline {
        Default::default()
    } else {
        let path = opts
            .baseline
            .clone()
            .unwrap_or_else(|| opts.root.join("check-baseline.txt"));
        match baseline::load(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sor-check: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let (new, baselined) = baseline::partition(findings, &baseline_set);

    print!("{}", render_text(&new, baselined.len()));
    if !cost.is_empty() {
        print!("\n{}", render_cost_table(&cost));
    }

    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}
