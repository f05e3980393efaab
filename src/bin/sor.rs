//! `sor` — command-line front end to the semi-oblivious routing library.
//!
//! ```text
//! sor info  --graph <spec> [--seed N]
//! sor eval  --graph <spec> [--s K] [--trees T] [--demand spec] [--eps E] [--seed N]
//! sor sweep --graph <spec> [--max-s K] [--trees T] [--demand spec] [--eps E] [--seed N]
//! sor sim   --graph <spec> [--s K] [--trees T] [--demand spec] [--eps E] [--seed N]
//! sor serve --graph <spec> [--epochs E] [--rate R] [--patterns P] [--s K] [--seed N] …
//! sor compact --graph <spec> [--max-s K] [--trees T] [--demand spec] [--eps E] [--seed N]
//! ```
//!
//! Graph specs: `hypercube:8`, `grid:5x5`, `expander:64x4`, `abilene`,
//! `twostar:4x12`, … (see `semi_oblivious_routing::cli::parse_graph`).
//! Demand specs: `perm`, `bitrev`, `gravity:4`, `pairs:10`.
//!
//! Observability flags (any subcommand): `--trace` prints the phase-tree
//! wall-time report to stderr, `--metrics-out FILE` writes the full
//! counter/histogram/span snapshot as JSON, `--quiet` silences the
//! pipeline's diagnostic logging. Any other flag a subcommand does not
//! take is a usage error (exit 2), not a silent no-op.

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::cli::{
    flag_count, flag_eps, flag_parse, flag_parse_valid, flag_value, parse_demand, parse_graph,
};
use semi_oblivious_routing::core::sample::{demand_pairs, sample_k};
use semi_oblivious_routing::core::SemiObliviousRouting;
use semi_oblivious_routing::flow::max_concurrent_flow;
use semi_oblivious_routing::graph::{
    articulation_points, bridges, diameter, global_min_cut, spectral_gap,
};
use semi_oblivious_routing::oblivious::RaeckeRouting;
use semi_oblivious_routing::obs::timeline;
use semi_oblivious_routing::sched::{try_simulate, Policy};
use semi_oblivious_routing::serve;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  sor info    --graph <spec> [--seed N]\n  sor eval    --graph <spec> [--s K] [--trees T] [--demand spec] [--eps E] [--seed N]\n  sor sweep   --graph <spec> [--max-s K] [--trees T] [--demand spec] [--eps E] [--seed N]\n  sor sim     --graph <spec> [--s K] [--trees T] [--demand spec] [--eps E] [--seed N]\n  sor serve   --graph <spec> [--epochs E] [--rate R] [--patterns P] [--pattern-pairs K]\n              [--s K] [--trees T] [--eps E] [--batch B] [--queue-bound Q] [--cache-cap C]\n              [--fail-at E] [--restore-after R] [--compare-fresh] [--integral] [--seed N]\n  sor compact --graph <spec> [--max-s K] [--trees T] [--demand spec] [--eps E] [--seed N]\n  sor forensics --journal FILE [--top K] [--json FILE]\n  sor export  --graph <spec> [--s K] [--trees T] [--demand spec] [--seed N]\n  sor process --graph <spec> [--s K] [--tau T] [--trees T] [--demand spec] [--seed N]\nobservability (any subcommand):\n  --trace             print the phase-tree timing report to stderr\n  --metrics-out FILE  write the metrics snapshot (counters/histograms/spans) as JSON\n  --quiet             silence diagnostic logging\nlive telemetry (serve only):\n  --telemetry-addr A  serve Prometheus exposition at A (e.g. 127.0.0.1:9100;\n                      port 0 binds an ephemeral port, printed to stderr)\n  --timeline-out FILE write the epoch timeline as JSON after the run\n  --dashboard         print the epoch timeline dashboard to stderr\n  --hold-ms MS        keep the scrape endpoint up MS ms after the run\n  --slo               arm the default SLO thresholds; or set individually:\n  --slo-max-ratio X --slo-max-p99-ms X --slo-min-hit-rate X --slo-max-fallback X\nflight recorder (serve only):\n  --journal-out FILE  write the causal event journal (sor-journal/3) after the run\n  --journal-epochs N  epochs of journal context per dump (default 16; 0 = all)\n  --dump-on-breach P  write {{P}}-epochNNNNNN.json whenever an epoch trips an SLO rule\nforensics (offline, on a journal dump):\n  --journal FILE      the sor-journal/3 artifact to analyze (required)\n  --top K             per-edge load-shift rows to show (default 8)\n  --json FILE         also write the sor-forensics/1 report as JSON"
    );
    exit(2)
}

/// The observability flags every subcommand takes.
const GLOBAL_FLAGS: &str = "--quiet --trace --metrics-out";

/// The flags that take no value; every other flag takes one.
const SWITCHES: &str = "--quiet --trace --compare-fresh --integral --dashboard --slo";

/// Each subcommand's own flags, as [`usage`] lists them.
const FLAGS: [(&str, &str); 9] = [
    ("info", "--graph --seed"),
    ("eval", "--graph --seed --s --trees --demand --eps"),
    ("sweep", "--graph --seed --max-s --trees --demand --eps"),
    ("sim", "--graph --seed --s --trees --demand --eps"),
    (
        "serve",
        "--graph --seed --epochs --rate --patterns --pattern-pairs --s --trees --eps --batch \
         --queue-bound --cache-cap --fail-at --restore-after --compare-fresh --integral \
         --telemetry-addr --timeline-out --dashboard --hold-ms --slo --slo-max-ratio \
         --slo-max-p99-ms --slo-min-hit-rate --slo-max-fallback --journal-out \
         --journal-epochs --dump-on-breach",
    ),
    ("compact", "--graph --seed --max-s --trees --demand --eps"),
    ("forensics", "--journal --top --json"),
    ("export", "--graph --seed --s --trees --demand"),
    ("process", "--graph --seed --s --tau --trees --demand"),
];

/// Whether the space-separated `list` names `flag`.
fn lists(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

/// Check `args` (subcommand first) against the subcommand's flags before
/// it does any work, and return the subcommand: a flag it does not take,
/// a flag missing its value, or a stray word is an error naming it. An
/// unknown subcommand prints the usage.
fn check_flags(args: &[String]) -> Result<&str, String> {
    let Some(cmd) = args.first() else { usage() };
    let Some((_, own)) = FLAGS.iter().find(|(c, _)| c == cmd) else {
        usage()
    };
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !lists(own, arg) && !lists(GLOBAL_FLAGS, arg) {
            return Err(if arg.starts_with("--") {
                format!("sor {cmd} does not take {arg}")
            } else {
                format!("unexpected argument '{arg}' for sor {cmd}")
            });
        }
        if !lists(SWITCHES, arg) && rest.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(cmd)
}

/// Unwrap a CLI parse result or exit with the error message (which names
/// the offending flag or spec).
fn or_die<T>(r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quiet") {
        semi_oblivious_routing::obs::set_log_level(semi_oblivious_routing::obs::Level::Off);
    }
    let trace = args.iter().any(|a| a == "--trace");
    let metrics_out = flag_value(&args, "--metrics-out").map(str::to_string);
    // The scrape endpoint's /metrics exposes the registry, so serving it
    // implies capture.
    let scrape = flag_value(&args, "--telemetry-addr").is_some();
    if trace || metrics_out.is_some() || scrape {
        semi_oblivious_routing::obs::set_enabled(true);
    }
    {
        // Root span: everything the command does nests under `sor/run`,
        // so the phase report accounts for the full command wall time.
        let _root = semi_oblivious_routing::obs::span("sor/run");
        run(&args);
    }
    if trace {
        eprint!("{}", semi_oblivious_routing::obs::phase_report());
    }
    if let Some(path) = metrics_out {
        let snap = semi_oblivious_routing::obs::snapshot();
        if let Err(e) = std::fs::write(&path, snap.to_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            exit(1);
        }
    }
}

fn run(args: &[String]) {
    let cmd = or_die(check_flags(args));
    if cmd == "forensics" {
        // Offline analysis of a journal artifact: no graph, no seed —
        // everything comes out of the dump.
        run_forensics(args);
        return;
    }
    let seed: u64 = or_die(flag_parse(args, "--seed", 42));
    let Some(gspec) = flag_value(args, "--graph") else {
        usage()
    };
    let g = or_die(parse_graph(gspec, seed));

    match cmd {
        "info" => {
            println!(
                "graph {gspec}: n = {}, m = {}",
                g.num_nodes(),
                g.num_edges()
            );
            println!("  diameter        : {}", diameter(&g));
            println!("  global min cut  : {:.2}", global_min_cut(&g));
            println!("  bridges         : {}", bridges(&g).len());
            println!("  articulation pts: {}", articulation_points(&g).len());
            println!("  spectral gap    : {:.4}", spectral_gap(&g, 300));
        }
        "export" => {
            // Build and print the installable artifact: topology + sampled
            // candidate path system, in the portable text format.
            let trees: usize = or_die(flag_count(args, "--trees", 8));
            let s: usize = or_die(flag_count(args, "--s", 4));
            let dspec = flag_value(args, "--demand").unwrap_or("perm");
            let demand = or_die(parse_demand(dspec, &g, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
            let sampled = sample_k(&base, &demand_pairs(&demand), s, &mut rng);
            print!("{}", semi_oblivious_routing::graph::graph_to_text(&g));
            print!(
                "{}",
                semi_oblivious_routing::core::system_to_text(&sampled.system)
            );
        }
        "process" => {
            // Run the Main Lemma's deletion process once and print its
            // statistics (Section 5.3, live).
            let s: usize = or_die(flag_count(args, "--s", 4));
            let tau: f64 = or_die(flag_parse_valid(
                args,
                "--tau",
                2.0,
                |&t| t > 0.0,
                "must be positive",
            ));
            let trees: usize = or_die(flag_count(args, "--trees", 8));
            let dspec = flag_value(args, "--demand").unwrap_or("perm");
            let demand = or_die(parse_demand(dspec, &g, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
            let sampled = semi_oblivious_routing::core::sample::sample_k(
                &base,
                &demand_pairs(&demand),
                s,
                &mut rng,
            );
            let out =
                semi_oblivious_routing::core::process::deletion_process(&g, &sampled, &demand, tau);
            println!(
                "deletion process on {gspec} | demand {dspec} ({} pairs) | s = {s}, tau = {tau}",
                demand.support_size()
            );
            println!("  total weight        : {:.3}", out.total_weight);
            println!("  survived weight     : {:.3}", out.survived_weight);
            println!("  survival fraction   : {:.3}", out.survival_fraction());
            println!("  overcongested edges : {}", out.overcongested.len());
            println!("  weak success (>=half): {}", out.weak_success());
        }
        "sim" => {
            // End-to-end packet run: sample a semi-oblivious system, route
            // an integral demand over it, and push the unit packets through
            // the store-and-forward scheduler. Exercises every pipeline
            // stage, so it is also the smoke test for `--metrics-out`.
            let s: usize = or_die(flag_count(args, "--s", 4));
            let trees: usize = or_die(flag_count(args, "--trees", 8));
            let eps: f64 = or_die(flag_eps(args, 0.15));
            let dspec = flag_value(args, "--demand").unwrap_or("perm");
            let demand = or_die(parse_demand(dspec, &g, seed));
            if !demand.is_integral() {
                or_die::<()>(Err(format!(
                    "sim needs an integral demand; `{dspec}` is fractional \
                     (use perm, bitrev, or pairs:N)"
                )));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
            let sampled = sample_k(&base, &demand_pairs(&demand), s, &mut rng);
            let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
            let integral = sor.route_integral(&demand, eps, &mut rng);
            // one unit packet per routed demand unit
            let mut routes = Vec::new();
            for (j, &(a, b, _)) in demand.entries().iter().enumerate() {
                let paths = sor.system().paths(a, b);
                for (i, &c) in integral.counts[j].iter().enumerate() {
                    for _ in 0..c {
                        routes.push(paths.get(i).to_path(&g));
                    }
                }
            }
            let res = or_die(try_simulate(&g, &routes, Policy::Fifo));
            println!(
                "sim on {gspec} | demand {dspec} ({} pairs) | s = {s}, trees = {trees}",
                demand.support_size()
            );
            println!("  packets       : {}", routes.len());
            println!("  makespan      : {}", res.makespan);
            println!("  lower bound   : {} (max(⌈C⌉, D))", res.lower_bound());
            println!("  congestion    : {:.3}", res.congestion);
            println!("  dilation      : {}", res.dilation);
            println!("  mean latency  : {:.3}", res.mean_latency().unwrap_or(0.0));
            println!("  max queue     : {}", res.max_queue);
        }
        "serve" => {
            // Online engine: a closed-loop seeded workload over the epoch
            // lifecycle (ingest → admit → solve on cached path systems →
            // publish). Stdout is bit-deterministic for a fixed seed;
            // wall-clock throughput goes to the (leveled) stderr log.
            //
            // Reject silently-inert flag combinations up front: a tuning
            // flag whose controlling flag is absent does nothing, and the
            // operator should hear about it rather than wonder why the
            // artifact never appeared.
            if flag_value(args, "--journal-epochs").is_some()
                && flag_value(args, "--journal-out").is_none()
                && flag_value(args, "--dump-on-breach").is_none()
            {
                or_die::<()>(Err(
                    "--journal-epochs does nothing without --journal-out or --dump-on-breach"
                        .to_string(),
                ));
            }
            let slo_armed = args.iter().any(|a| a == "--slo")
                || flag_value(args, "--slo-max-ratio").is_some()
                || flag_value(args, "--slo-max-p99-ms").is_some()
                || flag_value(args, "--slo-min-hit-rate").is_some()
                || flag_value(args, "--slo-max-fallback").is_some();
            if flag_value(args, "--dump-on-breach").is_some() && !slo_armed {
                or_die::<()>(Err(
                    "--dump-on-breach needs an armed SLO rule (--slo or one of \
                     --slo-max-ratio/--slo-max-p99-ms/--slo-min-hit-rate/--slo-max-fallback)"
                        .to_string(),
                ));
            }
            let ecfg = serve::EngineConfig {
                sparsity: or_die(flag_count(args, "--s", 3)),
                trees: or_die(flag_count(args, "--trees", 6)),
                eps: or_die(flag_eps(args, 0.2)),
                epoch_batch: or_die(flag_count(args, "--batch", 64)),
                queue_bound: or_die(flag_count(args, "--queue-bound", 256)),
                cache_capacity: or_die(flag_count(args, "--cache-cap", 32)),
                integral: args.iter().any(|a| a == "--integral"),
                compare_fresh: args.iter().any(|a| a == "--compare-fresh"),
                seed,
            };
            // `random_matching` draws disjoint pairs, at most n/2 of them.
            let half = g.num_nodes() / 2;
            let wcfg = serve::WorkloadConfig {
                epochs: or_die(flag_parse(args, "--epochs", 8)),
                rate: or_die(flag_count(args, "--rate", 8)),
                patterns: or_die(flag_count(args, "--patterns", 3)),
                pairs_per_pattern: or_die(flag_parse_valid(
                    args,
                    "--pattern-pairs",
                    4,
                    |&k| (1..=half).contains(&k),
                    &format!("must be between 1 and n/2 = {half}"),
                )),
                fail_at: flag_value(args, "--fail-at")
                    .map(|v| or_die(v.parse().map_err(|_| format!("bad --fail-at '{v}'")))),
                restore_after: or_die(flag_parse(args, "--restore-after", 2)),
                seed,
            };
            println!(
                "serve on {gspec}: {} epochs | rate {}/epoch | {} patterns x {} pairs | \
                 s = {}, trees = {}",
                wcfg.epochs,
                wcfg.rate,
                wcfg.patterns,
                wcfg.pairs_per_pattern,
                ecfg.sparsity,
                ecfg.trees
            );
            // Any telemetry, SLO or journal flag builds one observer; it
            // attaches to the engine but never changes published output
            // (stdout stays bit-deterministic for a fixed seed — CI
            // cmp-checks exactly that).
            let slo = if args.iter().any(|a| a == "--slo") {
                semi_oblivious_routing::obs::SloConfig::serving_defaults()
            } else {
                semi_oblivious_routing::obs::SloConfig {
                    max_congestion_ratio: flag_value(args, "--slo-max-ratio").map(|v| {
                        or_die(v.parse().map_err(|_| format!("bad --slo-max-ratio '{v}'")))
                    }),
                    max_p99_epoch_wall_ms: flag_value(args, "--slo-max-p99-ms").map(|v| {
                        or_die(v.parse().map_err(|_| format!("bad --slo-max-p99-ms '{v}'")))
                    }),
                    min_cache_hit_rate: flag_value(args, "--slo-min-hit-rate").map(|v| {
                        or_die(
                            v.parse()
                                .map_err(|_| format!("bad --slo-min-hit-rate '{v}'")),
                        )
                    }),
                    max_fallback_fraction: flag_value(args, "--slo-max-fallback").map(|v| {
                        or_die(
                            v.parse()
                                .map_err(|_| format!("bad --slo-max-fallback '{v}'")),
                        )
                    }),
                }
            };
            let telemetry_addr = flag_value(args, "--telemetry-addr");
            let timeline_out = flag_value(args, "--timeline-out");
            let dashboard = args.iter().any(|a| a == "--dashboard");
            let quiet = args.iter().any(|a| a == "--quiet");
            let journal_out = flag_value(args, "--journal-out");
            let journal_epochs: u64 = or_die(flag_parse(args, "--journal-epochs", 16));
            let dump_prefix = flag_value(args, "--dump-on-breach");
            let observer = (telemetry_addr.is_some()
                || timeline_out.is_some()
                || dashboard
                || slo.is_armed()
                || journal_out.is_some()
                || dump_prefix.is_some())
            .then(|| {
                let observer = serve::Observer::new(slo);
                std::sync::Arc::new(match dump_prefix {
                    Some(prefix) => observer.with_breach_dump(prefix, journal_epochs),
                    None => observer,
                })
            });
            let server = observer.as_ref().zip(telemetry_addr).map(|(t, addr)| {
                let server = or_die(
                    t.serve_http(addr)
                        .map_err(|e| format!("cannot bind telemetry endpoint {addr}: {e}")),
                );
                if !quiet {
                    eprintln!(
                        "telemetry: scraping at http://{}/metrics",
                        server.local_addr()
                    );
                }
                server
            });
            let started = std::time::Instant::now();
            let report: serve::WorkloadReport =
                serve::run_workload(&g, ecfg, &wcfg, &wcfg.pattern_pool(&g), observer.clone());
            let elapsed = started.elapsed();
            for s in &report.snapshots {
                let hit = if s.admitted == 0 {
                    "idle"
                } else if s.cache_hit {
                    "hit "
                } else {
                    "miss"
                };
                let fresh = s
                    .fresh_congestion
                    .map(|f| format!(" fresh={f:.3}"))
                    .unwrap_or_default();
                println!(
                    "epoch {:>3}: admitted={:<3} {hit} cong={:.3}{fresh} fallback={} queue={}",
                    s.epoch, s.admitted, s.congestion, s.fallback_pairs, s.queue_depth
                );
            }
            let c = &report.cache;
            println!("summary:");
            println!(
                "  admitted  : {} requests over {} epochs (rejected {})",
                report.admitted,
                report.snapshots.len(),
                report.rejected
            );
            println!(
                "  cache     : hits={} misses={} evictions={} invalidations={} entries={}",
                c.hits, c.misses, c.evictions, c.invalidations, c.entries
            );
            println!("  mean cong : {:.3}", report.mean_congestion());
            if let Some(r) = report.mean_fresh_ratio() {
                println!("  vs fresh  : {r:.3}x (mean cached/fresh congestion)");
            }
            for &(epoch, e) in &report.failures {
                println!("  failure   : epoch {epoch}, edge {}", e.0);
            }
            // Wall-clock throughput is run-dependent, so it goes to
            // stderr (respecting --quiet) and stdout stays
            // bit-deterministic for a fixed seed.
            if !quiet {
                eprintln!(
                    "serve throughput: {:.0} requests/s, {:.1} epochs/s ({} requests in {:.3}s)",
                    report.admitted as f64 / elapsed.as_secs_f64().max(1e-9),
                    report.snapshots.len() as f64 / elapsed.as_secs_f64().max(1e-9),
                    report.admitted,
                    elapsed.as_secs_f64()
                );
            }
            if let Some(o) = &observer {
                // The timeline contains wall clocks, so the dashboard and
                // the health summary go to stderr like the throughput line.
                if dashboard && !quiet {
                    eprint!("{}", timeline::render_dashboard(&o.timeline()));
                    eprint!("{}", o.watchdog().summary().render());
                }
                if let Some(path) = timeline_out {
                    if let Err(e) = std::fs::write(path, timeline::render_json(&o.timeline())) {
                        eprintln!("error: cannot write timeline to {path}: {e}");
                        exit(1);
                    }
                }
                if let Some(path) = journal_out {
                    let seed_str = seed.to_string();
                    let doc = o.journal().dump_json_last(
                        journal_epochs,
                        &[
                            ("source", "sor-serve"),
                            ("graph", gspec),
                            ("seed", seed_str.as_str()),
                        ],
                    );
                    if let Err(e) = std::fs::write(path, doc) {
                        eprintln!("error: cannot write journal to {path}: {e}");
                        exit(1);
                    }
                }
                if !quiet {
                    for p in o.breach_dumps() {
                        eprintln!("breach dump: {p}");
                    }
                }
            }
            let hold_ms: u64 = or_die(flag_parse(args, "--hold-ms", 0));
            if hold_ms > 0 && server.is_some() {
                std::thread::sleep(std::time::Duration::from_millis(hold_ms));
            }
            drop(server);
        }
        "compact" => {
            // Table-size vs congestion trade-off: for each sparsity level,
            // sample a path system, re-encode it as compact next-hop
            // tables (verified lossless — decode must bit-match before
            // stats are trusted), and report both encodings' footprints
            // next to the congestion the system achieves.
            let eps: f64 = or_die(flag_eps(args, 0.15));
            let trees: usize = or_die(flag_count(args, "--trees", 8));
            let max_s: usize = or_die(flag_parse(args, "--max-s", 6));
            let dspec = flag_value(args, "--demand").unwrap_or("perm");
            let demand = or_die(parse_demand(dspec, &g, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
            let tree = base
                .trees()
                .first()
                // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                .expect("RaeckeRouting::build produces at least one tree");
            println!(
                "compact tables on {gspec} | demand {dspec} ({} pairs) | n = {}, trees = {trees}",
                demand.support_size(),
                g.num_nodes()
            );
            println!(
                "{:>3} {:>12} {:>12} {:>12} {:>7} {:>6}",
                "s", "congestion", "compact b/n", "explicit b/n", "ratio", "exc"
            );
            for s in 1..=max_s {
                let sampled = sample_k(&base, &demand_pairs(&demand), s, &mut rng);
                let report = semi_oblivious_routing::compact::verify_round_trip(
                    &g,
                    tree,
                    &sampled.system,
                    &demand,
                    Some(s),
                    eps,
                );
                if !report.ok() {
                    or_die::<()>(Err(format!(
                        "compact round-trip failed at s = {s}: decoded system diverged"
                    )));
                }
                let stats = report.stats;
                println!(
                    "{s:>3} {:>12.3} {:>12.1} {:>12.1} {:>7.2} {:>6}",
                    report.congestion_compact,
                    stats.bits_per_node(),
                    stats.explicit_bits_per_node(),
                    stats.ratio(),
                    stats.exceptions
                );
            }
        }
        "eval" | "sweep" => {
            let eps: f64 = or_die(flag_eps(args, 0.15));
            let trees: usize = or_die(flag_count(args, "--trees", 8));
            let svals: Vec<usize> = if cmd == "eval" {
                vec![or_die(flag_count(args, "--s", 4))]
            } else {
                let max_s: usize = or_die(flag_parse(args, "--max-s", 8));
                (1..=max_s).collect()
            };
            let dspec = flag_value(args, "--demand").unwrap_or("perm");
            let demand = or_die(parse_demand(dspec, &g, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let base = RaeckeRouting::build(g.clone(), trees, &mut rng);
            let opt = max_concurrent_flow(&g, &demand, eps);
            println!(
                "graph {gspec} | demand {dspec} ({} pairs, |D| = {:.1}) | OPT in [{:.3}, {:.3}]",
                demand.support_size(),
                demand.size(),
                opt.congestion_lower,
                opt.congestion_upper
            );
            println!("{:>3} {:>12} {:>10}", "s", "congestion", "ratio");
            for s in svals {
                let sampled = sample_k(&base, &demand_pairs(&demand), s, &mut rng);
                let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
                let c = sor.congestion(&demand, eps);
                println!(
                    "{s:>3} {:>12.3} {:>10.2}",
                    c,
                    c / opt.congestion_upper.max(1e-12)
                );
            }
        }
        _ => usage(),
    }
}

/// `sor forensics`: ingest a `sor-journal/3` dump (breach-triggered or
/// `--journal-out`), attribute epoch-over-epoch congestion/wall movement
/// to causes, and render the text report (optionally the JSON one too).
fn run_forensics(args: &[String]) {
    let Some(path) = flag_value(args, "--journal") else {
        usage()
    };
    let top: usize = or_die(flag_parse(args, "--top", 8));
    let text = or_die(
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path}: {e}")),
    );
    let dump = or_die(semi_oblivious_routing::obs::parse_journal(&text));
    println!(
        "forensics on {path}: {} events (journal recorded {}, dropped {})",
        dump.events.len(),
        dump.recorded,
        dump.dropped
    );
    for (k, v) in &dump.meta {
        println!("  {k}: {v}");
    }
    let events: Vec<semi_oblivious_routing::obs::JournalEvent> =
        dump.events.into_iter().map(|(_, e)| e).collect();
    let report = semi_oblivious_routing::obs::analyze(&events, top);
    print!("{}", report.render_text());
    if let Some(out) = flag_value(args, "--json") {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("error: cannot write forensics report to {out}: {e}");
            exit(1);
        }
    }
}
