//! Experiments E8–E9 and E18: the traffic-engineering tables (the SMORE empirics
//! the paper explains).

use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_te::{failure_experiment, gravity_tm, run_scheme, Scenario, Scheme};

/// E8 — the SMORE comparison: MLU ratio vs the MCF optimum across
/// schemes and sparsities on WAN topologies. The paper's point: sampling
/// a *small constant* number of Räcke paths already sits near the optimum.
pub fn e8_te_comparison(quick: bool) -> Table {
    let mut t = Table::new(
        "E8 TE comparison: MLU ratio vs optimum (SMORE-style)",
        &["scenario", "scheme", "mean MLU ratio", "sparsity"],
    );
    let scenarios: Vec<Scenario> = if quick {
        vec![Scenario::abilene()]
    } else {
        vec![
            Scenario::abilene(),
            Scenario::b4(),
            Scenario::geant(),
            Scenario::att(),
        ]
    };
    let tm_seeds: u64 = if quick { 1 } else { 3 };
    let schemes = [
        Scheme::OptimalMcf,
        Scheme::SemiOblivious { s: 1, trees: 8 },
        Scheme::SemiOblivious { s: 2, trees: 8 },
        Scheme::SemiOblivious { s: 4, trees: 8 },
        Scheme::SemiOblivious { s: 8, trees: 8 },
        Scheme::Ksp { s: 4 },
        Scheme::ObliviousRaecke { trees: 8 },
    ];
    let eps = if quick { 0.2 } else { 0.1 };
    for sc in &scenarios {
        let results: Vec<(String, f64, usize)> = schemes
            .iter()
            .map(|&scheme| {
                let mut ratio_sum = 0.0;
                let mut sparsity = 0;
                for seed in 0..tm_seeds {
                    let mut rng = StdRng::seed_from_u64(3000 + seed);
                    let tm = gravity_tm(sc, 4.0, &mut rng);
                    let res = run_scheme(sc, &tm, scheme, 42 + seed, eps);
                    ratio_sum += res.ratio_vs_opt;
                    sparsity = sparsity.max(res.sparsity);
                }
                (scheme.label(), ratio_sum / tm_seeds as f64, sparsity)
            })
            .collect();
        for (name, ratio, sparsity) in results {
            t.row(vec![
                sc.name.to_string(),
                name,
                f(ratio),
                sparsity.to_string(),
            ]);
        }
    }
    t.note("gravity TMs, mean over seeds; expect semi-oblivious(4) ≈ optimal, oblivious worst");
    t
}

/// E9 — failure robustness: re-adapting rates on surviving candidate
/// paths (semi-oblivious) versus static renormalization (oblivious),
/// against the post-failure optimum.
pub fn e9_failures(quick: bool) -> Table {
    let mut t = Table::new(
        "E9 failure robustness (re-adaptation vs renormalization)",
        &[
            "scenario",
            "failures",
            "semi ratio",
            "oblivious ratio",
            "fallback pairs",
        ],
    );
    let sc = Scenario::abilene();
    let fail_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let seeds: u64 = if quick { 2 } else { 4 };
    let eps = 0.15;
    for &fcount in fail_counts {
        let results: Vec<_> = (0..seeds)
            .filter_map(|seed| {
                let mut rng = StdRng::seed_from_u64(5000 + seed);
                let tm = gravity_tm(&sc, 3.0, &mut rng);
                failure_experiment(&sc, &tm, 4, 8, fcount, 6000 + seed, eps)
            })
            .collect();
        if results.is_empty() {
            continue;
        }
        let n = results.len() as f64;
        let semi = results.iter().map(|r| r.semi_ratio()).sum::<f64>() / n;
        let obl = results.iter().map(|r| r.oblivious_ratio()).sum::<f64>() / n;
        let fallback: usize = results.iter().map(|r| r.fallback_pairs).sum();
        t.row(vec![
            sc.name.to_string(),
            fcount.to_string(),
            f(semi),
            f(obl),
            fallback.to_string(),
        ]);
    }
    t.note("ratios vs post-failure MCF optimum; adaptation should dominate renormalization");
    t
}

/// E18 — sparsity buys robustness (extension): after a random link
/// failure, how close does rate re-adaptation on the *surviving*
/// pre-installed paths get to the post-failure optimum, as a function of
/// the installed sparsity `s`? With s = 1 a failed candidate leaves a
/// pair stranded (emergency fallback); with s ≥ 4 there is almost always
/// a good survivor.
pub fn e18_sparsity_robustness(quick: bool) -> Table {
    let mut t = Table::new(
        "E18 sparsity vs failure robustness",
        &[
            "s",
            "mean semi ratio after failure",
            "fallback pairs (total)",
        ],
    );
    let sc = Scenario::abilene();
    let seeds: u64 = if quick { 2 } else { 5 };
    let eps = 0.15;
    for s in [1usize, 2, 4, 8] {
        let results: Vec<_> = (0..seeds)
            .filter_map(|seed| {
                let mut rng = StdRng::seed_from_u64(7000 + seed);
                let tm = gravity_tm(&sc, 3.0, &mut rng);
                failure_experiment(&sc, &tm, s, 8, 1, 8000 + seed, eps)
            })
            .collect();
        if results.is_empty() {
            continue;
        }
        let mean = results.iter().map(|r| r.semi_ratio()).sum::<f64>() / results.len() as f64;
        let fallback: usize = results.iter().map(|r| r.fallback_pairs).sum();
        t.row(vec![s.to_string(), f(mean), fallback.to_string()]);
    }
    t.note("abilene, 1 random link failure per trial, ratios vs post-failure optimum");
    t.note("higher sparsity → fewer stranded pairs; the ratio stays near the optimum at every s, with no trend");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_quick_more_sparsity_fewer_fallbacks() {
        let t = e18_sparsity_robustness(true);
        let first_fb: usize = t.rows.first().unwrap()[2].parse().unwrap();
        let last_fb: usize = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last_fb <= first_fb,
            "fallbacks should not increase with sparsity: {first_fb} → {last_fb}"
        );
        for row in &t.rows {
            let ratio: f64 = row[1].parse().unwrap();
            assert!((0.8..10.0).contains(&ratio));
        }
    }

    #[test]
    fn e8_quick_semi_beats_oblivious() {
        let t = e8_te_comparison(true);
        let get = |needle: &str| -> f64 {
            t.rows.iter().find(|r| r[1].contains(needle)).unwrap()[2]
                .parse()
                .unwrap()
        };
        let semi4 = get("semi-oblivious(s=4)");
        let obl = get("oblivious-raecke");
        assert!(
            semi4 <= obl + 1e-9,
            "semi-oblivious(4) {semi4} should be ≤ oblivious {obl}"
        );
        assert!(semi4 < 2.5, "semi-oblivious(4) ratio {semi4} too large");
    }

    #[test]
    fn e9_quick_runs() {
        let t = e9_failures(true);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let semi: f64 = row[2].parse().unwrap();
            assert!((0.8..20.0).contains(&semi));
        }
    }
}
