//! Driver for the workspace analysis: `cargo run -p sor-check`.
//!
//! Runs the lexical lint rules *and* the semantic item-graph pass
//! (layering / panic-reachability / determinism) over the workspace
//! root (or an explicit root passed as the first positional argument,
//! used by the integration tests to point at seeded fixtures).
//!
//! ```text
//! sor-check [ROOT]
//! sor-check --explain <rule>
//! ```
//!
//! `--explain <rule>` prints the long-form documentation for one rule id
//! and exits. Exit codes: 0 no findings, 1 any finding, 2
//! usage/configuration/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use sor_check::analyze_workspace;
use sor_check::report::{explain, render_text, RULE_DESCRIPTIONS};

/// Parsed command line.
struct Opts {
    root: PathBuf,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: workspace_root(),
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain requires a value")?);
            }
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

    let findings = match analyze_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sor-check: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", render_text(&findings));
    if findings.is_empty() {
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
