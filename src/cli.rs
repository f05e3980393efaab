//! Helpers for the `sor` command-line tool: graph/demand specification
//! parsing and the little evaluation drivers the subcommands share.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_flow::{demand, Demand};
use sor_graph::{gen, Graph};

/// Parse a graph specification string.
///
/// Accepted forms:
/// `hypercube:D`, `grid:RxC`, `torus:RxC`, `cycle:N`, `path:N`,
/// `complete:N`, `star:N`, `expander:NxD` (random regular, seeded),
/// `clos:SxL`, `dumbbell:KxB`, `twostar:RxM`, `smallworld:NxK` (β = 0.2,
/// seeded), `abilene`, `att`, `b4`, `geant`. Sizes outside a family's
/// range (the preconditions its generator asserts, at least 2 vertices,
/// and vertex ids that fit in `u32`) are an error naming the spec.
pub fn parse_graph(spec: &str, seed: u64) -> Result<Graph, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    let one = |a: Option<&str>| -> Result<usize, String> {
        a.ok_or_else(|| format!("'{name}' needs a size argument, e.g. {name}:8"))?
            .parse()
            .map_err(|_| format!("bad size in '{spec}'"))
    };
    let two = |a: Option<&str>| -> Result<(usize, usize), String> {
        let a = a.ok_or_else(|| format!("'{name}' needs AxB arguments"))?;
        let (x, y) = a
            .split_once('x')
            .ok_or_else(|| format!("'{spec}': expected AxB"))?;
        Ok((
            x.parse().map_err(|_| format!("bad number in '{spec}'"))?,
            y.parse().map_err(|_| format!("bad number in '{spec}'"))?,
        ))
    };
    // `nodes` is the family's vertex count (None on overflow); vertex
    // ids are u32 indices, so `Graph::new` needs fewer than u32::MAX.
    let check = |ok: bool, nodes: Option<usize>, need: &str| -> Result<(), String> {
        if ok && nodes.is_some_and(|n| n < u32::MAX as usize) {
            Ok(())
        } else {
            Err(format!(
                "bad graph '{spec}': {need} and fewer than {} vertices",
                u32::MAX
            ))
        }
    };
    Ok(match name {
        "hypercube" => {
            let d = one(arg)?;
            check(
                (1..=24).contains(&d),
                Some(1 << d.min(24)),
                "hypercube:D needs 1 <= D <= 24",
            )?;
            gen::hypercube(d)
        }
        "cycle" => {
            let n = one(arg)?;
            check(n >= 3, Some(n), "cycle:N needs N >= 3")?;
            gen::cycle_graph(n)
        }
        "path" => {
            let n = one(arg)?;
            check(n >= 2, Some(n), "path:N needs N >= 2")?;
            gen::path_graph(n)
        }
        "complete" => {
            let n = one(arg)?;
            check(n >= 2, Some(n), "complete:N needs N >= 2")?;
            gen::complete_graph(n)
        }
        "star" => {
            let n = one(arg)?;
            check(n >= 1, n.checked_add(1), "star:N needs N >= 1 leaves")?;
            gen::star(n)
        }
        "grid" => {
            let (r, c) = two(arg)?;
            let n = r.checked_mul(c);
            check(
                r >= 1 && c >= 1 && n >= Some(2),
                n,
                "grid:RxC needs R, C >= 1 and R*C >= 2",
            )?;
            gen::grid(r, c)
        }
        "torus" => {
            let (r, c) = two(arg)?;
            check(
                r >= 3 && c >= 3,
                r.checked_mul(c),
                "torus:RxC needs R, C >= 3",
            )?;
            gen::torus(r, c)
        }
        "expander" => {
            let (n, d) = two(arg)?;
            let even = n.checked_mul(d).is_some_and(|nd| nd.is_multiple_of(2));
            check(
                d >= 3 && d < n && even,
                Some(n),
                "expander:NxD needs 3 <= D < N, N*D even",
            )?;
            let mut rng = StdRng::seed_from_u64(seed);
            gen::random_regular(n, d, &mut rng)
        }
        "smallworld" => {
            let (n, k) = two(arg)?;
            check(
                k >= 2 && k.is_multiple_of(2) && k < n,
                Some(n),
                "smallworld:NxK needs even 2 <= K < N",
            )?;
            let mut rng = StdRng::seed_from_u64(seed);
            gen::watts_strogatz(n, k, 0.2, &mut rng)
        }
        "clos" => {
            let (s, l) = two(arg)?;
            check(
                s >= 1 && l >= 2,
                s.checked_add(l),
                "clos:SxL needs S >= 1, L >= 2",
            )?;
            gen::clos(s, l, 1.0)
        }
        "dumbbell" => {
            let (k, b) = two(arg)?;
            check(
                k >= 2 && (1..=k).contains(&b),
                k.checked_mul(2),
                "dumbbell:KxB needs K >= 2, 1 <= B <= K",
            )?;
            gen::dumbbell(k, b)
        }
        "twostar" => {
            let (r, m) = two(arg)?;
            let n = m
                .checked_mul(2)
                .and_then(|x| x.checked_add(r))
                .and_then(|x| x.checked_add(2));
            check(r >= 1 && m >= 1, n, "twostar:RxM needs R, M >= 1")?;
            gen::two_star(r, m)
        }
        "abilene" => gen::abilene(),
        "att" => gen::att(),
        "b4" => gen::b4(),
        "geant" => gen::geant(),
        other => return Err(format!("unknown graph '{other}'")),
    })
}

/// Parse a demand specification: `perm` (random permutation), `bitrev`
/// (hypercubes only), `gravity:T` (finite total T > 0 over all
/// vertices), `pairs:K` (K random disjoint unit pairs, 1 <= K <= n/2),
/// `file:PATH` (text format of `sor_flow::io::demand_to_text`). A total
/// or count outside its range is an error naming the spec.
pub fn parse_demand(spec: &str, g: &Graph, seed: u64) -> Result<Demand, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    Ok(match name {
        "file" => {
            let path = arg.ok_or("file needs a path, e.g. file:tm.txt")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            sor_flow::demand_from_text(&text, g.num_nodes())?
        }
        "perm" => demand::random_permutation(g, &mut rng),
        "bitrev" => {
            let d = gen::hypercube::dim_of(g.num_nodes())
                .ok_or("bitrev demand needs a hypercube graph")?;
            Demand::from_pairs(
                gen::bit_reversal_perm(d)
                    .into_iter()
                    .filter(|(s, t)| s != t),
            )
        }
        "gravity" => {
            let total: f64 = arg
                .ok_or("gravity needs a total, e.g. gravity:4")?
                .parse()
                .map_err(|_| "bad gravity total")?;
            if !(total.is_finite() && total > 0.0) {
                return Err(format!(
                    "bad demand '{spec}': gravity:T needs a finite T > 0"
                ));
            }
            let endpoints: Vec<_> = g.nodes().collect();
            let masses = vec![1.0; endpoints.len()];
            demand::gravity(&endpoints, &masses, total)
        }
        "pairs" => {
            let k: usize = arg
                .ok_or("pairs needs a count, e.g. pairs:10")?
                .parse()
                .map_err(|_| "bad pair count")?;
            let half = g.num_nodes() / 2;
            if !(1..=half).contains(&k) {
                return Err(format!(
                    "bad demand '{spec}': pairs:K needs 1 <= K <= n/2 = {half}"
                ));
            }
            demand::random_matching(g, k, &mut rng)
        }
        other => return Err(format!("unknown demand '{other}'")),
    })
}

/// Fetch the value following `--flag`, if present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse `--flag <v>` with a default for an absent flag. A flag that is
/// present but malformed is an error naming the flag and the offending
/// value — silently falling back to the default would make typos in
/// experiment parameters invisible.
pub fn flag_parse<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for {flag}")),
    }
}

/// [`flag_parse`] for a flag whose value must also satisfy `valid`;
/// `need` says what a valid value is. A default can be invalid too, when
/// the bound depends on the input (a count limited by the graph's size);
/// the error then names the default.
pub fn flag_parse_valid<T: std::str::FromStr + std::fmt::Display>(
    args: &[String],
    flag: &str,
    default: T,
    valid: impl Fn(&T) -> bool,
    need: &str,
) -> Result<T, String> {
    let v = flag_parse(args, flag, default)?;
    if valid(&v) {
        return Ok(v);
    }
    Err(match flag_value(args, flag) {
        Some(given) => format!("invalid value '{given}' for {flag}: {need}"),
        None => format!("invalid default {v} for {flag}: {need}"),
    })
}

/// A count flag (sample sizes, tree counts, capacities) that must be at
/// least 1.
pub fn flag_count(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    flag_parse_valid(args, flag, default, |&v| v >= 1, "must be at least 1")
}

/// The MWU accuracy `--eps`, which the solvers need in (0, 1).
pub fn flag_eps(args: &[String], default: f64) -> Result<f64, String> {
    flag_parse_valid(
        args,
        "--eps",
        default,
        |&e| e > 0.0 && e < 1.0,
        "must be in (0, 1)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_graph_specs() {
        assert_eq!(parse_graph("hypercube:4", 0).unwrap().num_nodes(), 16);
        assert_eq!(parse_graph("grid:3x4", 0).unwrap().num_nodes(), 12);
        assert_eq!(parse_graph("abilene", 0).unwrap().num_nodes(), 11);
        assert_eq!(parse_graph("expander:20x3", 1).unwrap().num_edges(), 30);
        assert_eq!(
            parse_graph("twostar:2x3", 0).unwrap().num_nodes(),
            2 + 2 + 6
        );
        assert!(parse_graph("bogus", 0).is_err());
        assert!(parse_graph("grid:3", 0).is_err());
        assert!(parse_graph("hypercube", 0).is_err());
        // sizes the generators cannot build are errors naming the spec
        for spec in ["hypercube:25", "torus:2x3", "star:0", "smallworld:10x3"] {
            assert!(parse_graph(spec, 0).unwrap_err().contains(spec));
        }
        for spec in ["clos:1x1", "dumbbell:3x4", "path:4294967296"] {
            assert!(parse_graph(spec, 0).is_err(), "{spec}");
        }
        // the smallest graph of each family still builds
        for spec in [
            "hypercube:1",
            "grid:1x2",
            "cycle:3",
            "path:2",
            "expander:4x3",
        ] {
            assert!(parse_graph(spec, 0).is_ok(), "{spec}");
        }
    }

    #[test]
    fn parses_demand_specs() {
        let g = parse_graph("hypercube:3", 0).unwrap();
        assert!(parse_demand("perm", &g, 1).unwrap().is_permutation());
        let br = parse_demand("bitrev", &g, 1).unwrap();
        assert!(br.support_size() > 0);
        let gr = parse_demand("gravity:2", &g, 1).unwrap();
        assert!((gr.size() - 2.0).abs() < 1e-9);
        let pr = parse_demand("pairs:3", &g, 1).unwrap();
        assert_eq!(pr.support_size(), 3);
        assert!(parse_demand("bogus", &g, 1).is_err());
        let grid = parse_graph("grid:3x3", 0).unwrap();
        assert!(parse_demand("bitrev", &grid, 1).is_err());
    }

    #[test]
    fn demand_from_file() {
        let g = parse_graph("cycle:4", 0).unwrap();
        let dir = std::env::temp_dir().join("sor-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tm.txt");
        std::fs::write(&path, "demand 1\nflow 0 2 1.5\n").unwrap();
        let spec = format!("file:{}", path.display());
        let d = parse_demand(&spec, &g, 0).unwrap();
        assert!((d.size() - 1.5).abs() < 1e-12);
        assert!(parse_demand("file:/nonexistent/x.txt", &g, 0).is_err());
    }

    #[test]
    fn flag_helpers() {
        let args: Vec<String> = ["--s", "4", "--eps", "0.2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--s"), Some("4"));
        assert_eq!(flag_parse(&args, "--s", 1usize), Ok(4));
        assert_eq!(flag_parse(&args, "--missing", 7usize), Ok(7));
        assert!((flag_parse(&args, "--eps", 0.1f64).unwrap() - 0.2).abs() < 1e-12);
        // a present-but-malformed flag is an error naming flag and value
        let bad: Vec<String> = ["--eps", "fast"].iter().map(|s| s.to_string()).collect();
        let err = flag_parse(&bad, "--eps", 0.1f64).unwrap_err();
        assert_eq!(err, "invalid value 'fast' for --eps");
        // a well-formed value outside the flag's range is an error too
        let zero: Vec<String> = ["--s", "0", "--eps", "1.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = flag_count(&zero, "--s", 4).unwrap_err();
        assert_eq!(err, "invalid value '0' for --s: must be at least 1");
        assert!(flag_eps(&zero, 0.1).unwrap_err().contains("(0, 1)"));
        assert_eq!(flag_count(&args, "--s", 1), Ok(4));
        assert_eq!(flag_eps(&args, 0.1), Ok(0.2));
    }
}
