//! `perf`: the exact work-and-quality regression gate.
//!
//! Runs the fixed seeded benchmark suite from [`sor_bench::perf`] and
//! gates it against the committed baseline, failing the process (exit 1)
//! when a deterministic work metric or a quality value moved. With
//! `--write-baseline` it rewrites the baseline instead.
//!
//! ```text
//! perf                          # gate the suite against BENCH_BASELINE.json
//! perf --filter kernel/mcf      # gate the selected benches only
//! perf --write-baseline         # regenerate BENCH_BASELINE.json
//! perf --list                   # print suite bench names
//! ```

#![forbid(unsafe_code)]

use sor_bench::perf::{
    baseline_json, bench_names, gate, parse_baseline, run_suite, selected, Status, BASELINE_FORMAT,
};
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perf [options]

Runs every bench twice and gates its work and quality metrics against the
baseline: exit 0 on PASS or WARN, 1 on FAIL, 2 on a usage or baseline error.

  --baseline PATH     baseline file (default BENCH_BASELINE.json)
  --filter SUBSTR     run and gate only the benches whose name contains SUBSTR
  --write-baseline    rewrite the baseline from a full run instead of gating
  --list              print the suite's bench names and exit
";

struct Args {
    write_baseline: bool,
    list: bool,
    filter: Option<String>,
    baseline: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        write_baseline: false,
        list: false,
        filter: None,
        baseline: "BENCH_BASELINE.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--write-baseline" => args.write_baseline = true,
            "--list" => args.list = true,
            "--filter" => args.filter = Some(value("--filter")?),
            "--baseline" => args.baseline = value("--baseline")?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.write_baseline && args.filter.is_some() {
        return Err("--write-baseline rewrites the whole baseline, so it takes no --filter".into());
    }
    if let Some(filter) = &args.filter {
        if !bench_names()
            .iter()
            .any(|name| selected(name, Some(filter)))
        {
            return Err(format!("--filter '{filter}' selects no bench (see --list)"));
        }
    }
    Ok(args)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if args.list {
        for name in bench_names() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let validators = if sor_flow::validate::validators_enabled() {
        "on"
    } else {
        "off"
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    eprintln!("perf: profile={profile} validators={validators}");

    if args.write_baseline {
        let runs = run_suite(None);
        let text = baseline_json(&runs, &[("profile", profile), ("validators", validators)])?;
        fs::write(&args.baseline, &text).map_err(|e| format!("write {}: {e}", args.baseline))?;
        println!(
            "wrote {} ({} benches, format {BASELINE_FORMAT})",
            args.baseline,
            runs.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Read the baseline first, so a bad file fails before the suite runs.
    let text = fs::read_to_string(&args.baseline).map_err(|e| {
        format!(
            "read baseline {}: {e} (run `perf --write-baseline` to create it)",
            args.baseline
        )
    })?;
    let baseline = parse_baseline(&text).map_err(|e| format!("{}: {e}", args.baseline))?;
    let filter = args.filter.as_deref();
    let report = gate(&baseline, &run_suite(filter), filter);
    print!("{}", report.render_text());
    Ok(if report.status() == Status::Fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: error: {msg}");
            eprintln!("run `perf --help` for usage");
            ExitCode::from(2)
        }
    }
}
