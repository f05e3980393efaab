//! Competitiveness evaluation (Stage 5): compare the semi-oblivious
//! congestion against the offline optimum and against the base oblivious
//! routing.

use crate::semioblivious::SemiObliviousRouting;
use sor_flow::{max_concurrent_flow, Demand};
use sor_oblivious::routing::{oblivious_congestion, ObliviousRouting};

/// Evaluation of one demand.
#[derive(Clone, Debug)]
pub struct DemandEval {
    /// Semi-oblivious congestion `cong(P, D)` (fractional, MWU-solved).
    pub semi_cong: f64,
    /// Offline optimum, upper bound (achieved by an explicit routing).
    pub opt_upper: f64,
    /// Offline optimum, certified lower bound.
    pub opt_lower: f64,
    /// Congestion of the base oblivious routing on the same demand, if a
    /// base routing was supplied.
    pub oblivious_cong: Option<f64>,
}

impl DemandEval {
    /// Competitive ratio against the offline optimum, using the *upper*
    /// bound. A feasible routing exists with that congestion, so the true
    /// ratio is at least `semi_cong / opt_upper`: this ratio can only
    /// understate it, by at most the factor `opt_upper / opt_lower`.
    pub fn ratio_vs_opt(&self) -> f64 {
        self.semi_cong / self.opt_upper.max(1e-12)
    }

    /// Competitive ratio certified from the lower bound (never
    /// underestimates how competitive we are).
    pub fn certified_ratio(&self) -> f64 {
        self.semi_cong / self.opt_lower.max(1e-12)
    }

    /// Ratio against the base oblivious routing (Definition 5.1's
    /// "competitive with R"), if available.
    pub fn ratio_vs_oblivious(&self) -> Option<f64> {
        self.oblivious_cong.map(|c| self.semi_cong / c.max(1e-12))
    }
}

/// Aggregate over a demand set.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// One evaluation per demand, in input order.
    pub per_demand: Vec<DemandEval>,
}

impl EvalReport {
    /// Worst (max) ratio vs OPT-upper over the demand set — the empirical
    /// competitive ratio.
    pub fn worst_ratio(&self) -> f64 {
        self.per_demand
            .iter()
            .map(DemandEval::ratio_vs_opt)
            .fold(0.0, f64::max)
    }

    /// Mean ratio vs OPT-upper.
    pub fn mean_ratio(&self) -> f64 {
        if self.per_demand.is_empty() {
            return 0.0;
        }
        self.per_demand
            .iter()
            .map(DemandEval::ratio_vs_opt)
            .sum::<f64>()
            / self.per_demand.len() as f64
    }

    /// Worst ratio vs the base oblivious routing, if all entries have one.
    pub fn worst_ratio_vs_oblivious(&self) -> Option<f64> {
        self.per_demand
            .iter()
            .map(DemandEval::ratio_vs_oblivious)
            .try_fold(0.0f64, |acc, r| r.map(|x| acc.max(x)))
    }
}

/// Evaluate a semi-oblivious routing on a set of demands. `base` is the
/// oblivious routing the system was sampled from (pass `None` to skip the
/// vs-oblivious comparison). `eps` controls both MWU solvers.
pub fn evaluate<O: ObliviousRouting>(
    sor: &SemiObliviousRouting,
    demands: &[Demand],
    base: Option<&O>,
    eps: f64,
) -> EvalReport {
    let per_demand = demands
        .iter()
        .map(|d| {
            let semi = sor.congestion(d, eps);
            let opt = max_concurrent_flow(sor.graph(), d, eps);
            DemandEval {
                semi_cong: semi,
                opt_upper: opt.congestion_upper,
                opt_lower: opt.congestion_lower,
                oblivious_cong: base.map(|r| oblivious_congestion(r, d)),
            }
        })
        .collect();
    EvalReport { per_demand }
}

/// Integral evaluation (Section 6): the integral semi-oblivious congestion
/// (Definition 6.1, via rounding + local search) against the *exact*
/// integral offline optimum, computed by exhaustive search — tiny
/// instances only.
#[derive(Clone, Debug)]
pub struct IntegralEval {
    /// Integral semi-oblivious congestion.
    pub semi_int: f64,
    /// Exact integral offline optimum.
    pub opt_int: f64,
}

impl IntegralEval {
    /// The integral competitive ratio.
    pub fn ratio(&self) -> f64 {
        self.semi_int / self.opt_int.max(1e-12)
    }
}

/// Enumerate **every** permutation demand with exactly `k` disjoint pairs
/// over `nodes` — the quantifier "for all permutation demands" from the
/// theorem statements, made finite. Counts grow like `n!/(n−2k)!/k!`;
/// keep `nodes` and `k` tiny (the exhaustive tests use n ≤ 8, k ≤ 3).
pub fn enumerate_matching_demands(nodes: &[sor_graph::NodeId], k: usize) -> Vec<Demand> {
    // All ordered pairs, then all index-increasing vertex-disjoint
    // k-subsets: each unordered set of k ordered pairs appears exactly
    // once. C(n(n−1), k) — tiny inputs only.
    let mut cands: Vec<(sor_graph::NodeId, sor_graph::NodeId)> = Vec::new();
    for &a in nodes {
        for &b in nodes {
            if a != b {
                cands.push((a, b));
            }
        }
    }
    let mut out = Vec::new();
    let mut chosen: Vec<(sor_graph::NodeId, sor_graph::NodeId)> = Vec::new();
    fn rec(
        cands: &[(sor_graph::NodeId, sor_graph::NodeId)],
        from: usize,
        k: usize,
        chosen: &mut Vec<(sor_graph::NodeId, sor_graph::NodeId)>,
        out: &mut Vec<Demand>,
    ) {
        if chosen.len() == k {
            out.push(Demand::from_pairs(chosen.iter().copied()));
            return;
        }
        for i in from..cands.len() {
            let (s, t) = cands[i];
            if chosen
                .iter()
                .any(|&(a, b)| a == s || a == t || b == s || b == t)
            {
                continue;
            }
            chosen.push((s, t));
            rec(cands, i + 1, k, chosen, out);
            chosen.pop();
        }
    }
    rec(&cands, 0, k, &mut chosen, &mut out);
    out
}

/// Worst competitive ratio of `sor` over **every** `k`-pair permutation
/// demand on the given endpoints (exhaustive — the finite version of
/// Stage 3's adversary).
pub fn exhaustive_worst_ratio(
    sor: &SemiObliviousRouting,
    endpoints: &[sor_graph::NodeId],
    k: usize,
    eps: f64,
) -> (f64, usize) {
    let demands = enumerate_matching_demands(endpoints, k);
    let mut worst: f64 = 0.0;
    for d in &demands {
        if !sor.covers(d) {
            continue;
        }
        let c = sor.congestion(d, eps);
        let opt = max_concurrent_flow(sor.graph(), d, eps).congestion_upper;
        worst = worst.max(c / opt.max(1e-12));
    }
    (worst, demands.len())
}

/// Evaluate the integral pipeline on one integral demand against the
/// brute-force integral optimum. The exact solver enumerates all simple
/// paths per pair — keep graphs and demands tiny.
pub fn evaluate_integral<R: rand::Rng>(
    sor: &SemiObliviousRouting,
    demand: &Demand,
    eps: f64,
    rng: &mut R,
) -> IntegralEval {
    assert!(demand.is_integral());
    let semi = sor.route_integral(demand, eps, rng);
    let opt = sor_flow::exact::exact_integral_opt(sor.graph(), demand);
    IntegralEval {
        semi_int: semi.congestion,
        opt_int: opt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{demand_pairs, sample_k};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;
    use sor_oblivious::ValiantHypercube;

    #[test]
    fn log_sample_on_hypercube_is_competitive() {
        // The headline: O(log n) sampled paths ⇒ small competitive ratio
        // on permutation demands (Theorem 2.3's measured analogue).
        let d = 5;
        let g = gen::hypercube(d);
        let r = ValiantHypercube::new(g.clone());
        let mut rng = StdRng::seed_from_u64(42);
        let demands: Vec<Demand> = (0..2)
            .map(|_| sor_flow::demand::random_permutation(&g, &mut rng))
            .collect();
        let mut pairs = Vec::new();
        for dm in &demands {
            pairs.extend(demand_pairs(dm));
        }
        pairs.sort();
        pairs.dedup();
        let sampled = sample_k(&r, &pairs, d, &mut rng); // k = log n
        let sor = SemiObliviousRouting::new(g, sampled.system);
        let report = evaluate(&sor, &demands, Some(&r), 0.15);
        assert!(
            report.worst_ratio() < 6.0,
            "log-sparsity ratio {} too large on Q_{d}",
            report.worst_ratio()
        );
        assert!(report.mean_ratio() >= 0.5);
        let vs_obl = report.worst_ratio_vs_oblivious().unwrap();
        assert!(vs_obl < 4.0, "vs-oblivious ratio {vs_obl}");
    }

    #[test]
    fn enumeration_counts_and_shapes() {
        let nodes: Vec<sor_graph::NodeId> = (0..4).map(sor_graph::NodeId).collect();
        // k=1 on 4 nodes: 4·3 = 12 ordered pairs
        let one = enumerate_matching_demands(&nodes, 1);
        assert_eq!(one.len(), 12);
        for d in &one {
            assert!(d.is_permutation());
            assert_eq!(d.support_size(), 1);
        }
        // k=2 on 4 nodes: 3 perfect-matching partitions × 2 directions each
        // per pair = 3·4 = 12
        let two = enumerate_matching_demands(&nodes, 2);
        assert_eq!(two.len(), 12);
        for d in &two {
            assert!(d.is_permutation());
            assert_eq!(d.support_size(), 2);
        }
    }

    #[test]
    fn exhaustive_all_demands_on_cycle() {
        // The paper's headline quantifier, exhaustively: ONE sampled
        // system must be competitive on EVERY 2-pair permutation demand.
        let g = gen::cycle_graph(6);
        let base = sor_oblivious::KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(9);
        let pairs = crate::sample::all_pairs(&g);
        let sampled = sample_k(&base, &pairs, 4, &mut rng);
        let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
        let nodes: Vec<sor_graph::NodeId> = g.nodes().collect();
        let (worst, count) = exhaustive_worst_ratio(&sor, &nodes, 2, 0.15);
        assert!(count > 50, "enumeration too small: {count}");
        assert!(
            worst < 2.6,
            "one installed system must serve all {count} demands; worst ratio {worst}"
        );
    }

    #[test]
    fn integral_eval_on_cycle() {
        // C8, 3 unit pairs, 2 candidate paths each: the integral ratio
        // must be finite and at least 1 (exact OPT is exact).
        let g = gen::cycle_graph(8);
        let base = sor_oblivious::KspRouting::new(g.clone(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let demand = Demand::from_pairs([
            (sor_graph::NodeId(0), sor_graph::NodeId(4)),
            (sor_graph::NodeId(1), sor_graph::NodeId(5)),
            (sor_graph::NodeId(2), sor_graph::NodeId(6)),
        ]);
        let sampled = sample_k(&base, &demand_pairs(&demand), 2, &mut rng);
        let sor = SemiObliviousRouting::new(g, sampled.system);
        let ev = evaluate_integral(&sor, &demand, 0.1, &mut rng);
        assert!(ev.opt_int >= 1.0);
        assert!(ev.ratio() >= 1.0 - 1e-9, "ratio {}", ev.ratio());
        assert!(ev.ratio() < 4.0, "ratio {}", ev.ratio());
    }

    #[test]
    fn report_aggregation() {
        let e1 = DemandEval {
            semi_cong: 2.0,
            opt_upper: 1.0,
            opt_lower: 0.9,
            oblivious_cong: Some(4.0),
        };
        let e2 = DemandEval {
            semi_cong: 3.0,
            opt_upper: 1.0,
            opt_lower: 1.0,
            oblivious_cong: Some(3.0),
        };
        let r = EvalReport {
            per_demand: vec![e1, e2],
        };
        assert!((r.worst_ratio() - 3.0).abs() < 1e-12);
        assert!((r.mean_ratio() - 2.5).abs() < 1e-12);
        assert!((r.worst_ratio_vs_oblivious().unwrap() - 1.0).abs() < 1e-12);
    }
}
