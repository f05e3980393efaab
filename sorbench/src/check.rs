//! Output checker: every published routing is re-verified from scratch,
//! outside the timed region. A check that fails counts its requests (serve)
//! or its instance (eval) as failed.

use sor_core::PathSystem;
use sor_flow::{Demand, OptResult, RestrictedSolution};
use sor_graph::{EdgeId, Graph, NodeId};
use sor_serve::{EpochSnapshot, PublishedRoute};
use std::collections::BTreeSet;

/// Relative tolerance for floating-point identities (rate sums, recomputed
/// congestion, bound comparisons).
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// Check every route of a published assignment: each path is an `s → t`
/// walk in `g` avoiding `failed`, each rate is positive, and the rates sum
/// to the pair's demand. Returns the congestion recomputed from the routes.
pub fn check_routes(
    g: &Graph,
    failed: &[EdgeId],
    routes: &[PublishedRoute],
) -> Result<f64, String> {
    let mut loads = vec![0.0f64; g.num_edges()];
    for r in routes {
        check_route(g, failed, r, &mut loads).map_err(|e| format!("{}→{}: {e}", r.s, r.t))?;
    }
    Ok(g.edges()
        .iter()
        .zip(&loads)
        .map(|(e, load)| load / e.cap)
        .fold(0.0, f64::max))
}

/// One route of [`check_routes`], adding its rates to `loads`.
fn check_route(
    g: &Graph,
    failed: &[EdgeId],
    r: &PublishedRoute,
    loads: &mut [f64],
) -> Result<(), String> {
    let mut total = 0.0;
    for (edges, rate) in &r.paths {
        if !(rate.is_finite() && *rate > 0.0) {
            return Err(format!("rate {rate} is not positive"));
        }
        let mut at = r.s;
        for &e in edges {
            let rec = g
                .edges()
                .get(e.index())
                .ok_or_else(|| format!("edge {e:?} is not in the graph"))?;
            if failed.contains(&e) {
                return Err(format!("path crosses failed edge {e:?}"));
            }
            at = match at {
                v if v == rec.u => rec.v,
                v if v == rec.v => rec.u,
                _ => return Err(format!("edge {e:?} does not continue the walk")),
            };
            loads[e.index()] += rate;
        }
        if at != r.t {
            return Err(format!("path ends at {at}"));
        }
        total += rate;
    }
    if !close(total, r.demand) {
        return Err(format!("rates sum to {total}, demand is {}", r.demand));
    }
    Ok(())
}

/// Check one serving epoch that admitted the unit requests `requested`
/// while `failed` edges were down.
pub fn check_snapshot(
    g: &Graph,
    requested: &[(NodeId, NodeId)],
    failed: &[EdgeId],
    snap: &EpochSnapshot,
) -> Result<(), String> {
    if snap.admitted != requested.len() {
        return Err(format!("admitted {} of {}", snap.admitted, requested.len()));
    }
    if snap.routes.len() + snap.unserved_pairs != requested.len() {
        return Err(format!(
            "{} routes + {} unserved pairs for {} requests",
            snap.routes.len(),
            snap.unserved_pairs,
            requested.len()
        ));
    }
    let wanted: BTreeSet<_> = requested.iter().collect();
    let published: BTreeSet<_> = snap.routes.iter().map(|r| (r.s, r.t)).collect();
    if published.len() != snap.routes.len() || published.iter().any(|p| !wanted.contains(p)) {
        return Err("published pairs are not the requested ones".to_string());
    }
    if let Some(r) = snap.routes.iter().find(|r| !close(r.demand, 1.0)) {
        return Err(format!(
            "{}→{}: unit request published with demand {}",
            r.s, r.t, r.demand
        ));
    }
    let congestion = check_routes(g, failed, &snap.routes)?;
    if !close(congestion, snap.congestion) {
        return Err(format!(
            "routes load {congestion}, snapshot reports {}",
            snap.congestion
        ));
    }
    if !(snap.lower_bound > 0.0 && snap.congestion >= snap.lower_bound * (1.0 - TOL)) {
        return Err(format!(
            "congestion {} below its lower bound {}",
            snap.congestion, snap.lower_bound
        ));
    }
    Ok(())
}

/// Check one offline instance: OPT's certified sandwich is ordered, the
/// semi-oblivious rates route the demand on `system` with the reported
/// congestion, and that congestion is no better than OPT's lower bound.
pub fn check_instance(
    g: &Graph,
    demand: &Demand,
    system: &PathSystem,
    sol: &RestrictedSolution,
    opt: &OptResult,
) -> Result<(), String> {
    if !(opt.congestion_lower > 0.0 && opt.congestion_lower <= opt.congestion_upper * (1.0 + TOL)) {
        return Err(format!(
            "OPT sandwich inverted: lower {} > upper {}",
            opt.congestion_lower, opt.congestion_upper
        ));
    }
    if sol.weights.len() != demand.entries().len() {
        return Err("one weight vector per commodity expected".to_string());
    }
    let mut routes = Vec::with_capacity(sol.weights.len());
    for (&(s, t, d), weights) in demand.entries().iter().zip(&sol.weights) {
        let paths = system.paths(s, t);
        if weights.len() != paths.len() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(format!("{s}→{t}: weights do not match its candidates"));
        }
        routes.push(PublishedRoute {
            s,
            t,
            demand: d,
            paths: paths
                .iter()
                .zip(weights)
                .filter(|&(_, &w)| w > 0.0)
                .map(|(p, &w)| (p.edges().to_vec(), w))
                .collect(),
        });
    }
    let congestion = check_routes(g, &[], &routes)?;
    if !close(congestion, sol.congestion) {
        return Err(format!(
            "weights load {congestion}, solver reports {}",
            sol.congestion
        ));
    }
    if sol.congestion < opt.congestion_lower * (1.0 - TOL) {
        return Err(format!(
            "semi-oblivious congestion {} below OPT's lower bound {}",
            sol.congestion, opt.congestion_lower
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_core::sample::{demand_pairs, sample_k};
    use sor_core::SemiObliviousRouting;
    use sor_flow::demand::{random_matching, random_permutation};
    use sor_flow::max_concurrent_flow;
    use sor_graph::gen;
    use sor_oblivious::RaeckeRouting;
    use sor_serve::{Engine, EngineConfig, Request};

    #[test]
    fn a_perturbed_rate_fails_the_snapshot_check() {
        let g = gen::hypercube(4);
        let cfg = EngineConfig {
            sparsity: 3,
            trees: 4,
            epoch_batch: 8,
            seed: 5,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(g.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let requested = demand_pairs(&random_matching(&g, 8, &mut rng));
        for &(s, t) in &requested {
            assert!(engine.ingest(Request::unit(s, t)));
        }
        let mut snap = engine.run_epoch();
        assert_eq!(check_snapshot(&g, &requested, &[], &snap), Ok(()));
        // the published routes must avoid a failed edge they use
        let used = snap.routes[0].paths[0].0[0];
        assert!(check_snapshot(&g, &requested, &[used], &snap).is_err());
        snap.routes[0].paths[0].1 += 0.25;
        assert!(check_snapshot(&g, &requested, &[], &snap).is_err());
    }

    #[test]
    fn an_inverted_sandwich_fails_the_instance_check() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(7);
        let demand = random_permutation(&g, &mut rng);
        let routing = RaeckeRouting::build(g.clone(), 4, &mut rng);
        let system = sample_k(&routing, &demand_pairs(&demand), 3, &mut rng).system;
        let sor = SemiObliviousRouting::new(g.clone(), system);
        let sol = sor.route_fractional(&demand, 0.2);
        let mut opt = max_concurrent_flow(&g, &demand, 0.2);
        assert_eq!(
            check_instance(&g, &demand, sor.system(), &sol, &opt),
            Ok(())
        );
        opt.congestion_lower = 2.0 * opt.congestion_upper;
        assert!(check_instance(&g, &demand, sor.system(), &sol, &opt).is_err());
    }
}
