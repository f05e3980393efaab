//! Completion-time-competitive semi-oblivious routing (Section 7).
//!
//! Lemmas 2.8/2.9: sample candidate paths from *hop-constrained* oblivious
//! routings at geometrically growing hop scales `h = 1, 2, 4, …, diam`;
//! the union is a (quadratically sparser-budgeted) path system that is
//! competitive for `congestion + dilation`. At demand time, each scale's
//! sub-system is rate-adapted independently and the scale with the best
//! `congestion + dilation` wins — the executable version of "for a demand
//! whose optimal routing has dilation between `h_i` and `h_{i+1}`, use the
//! scale-`i` sample".

use crate::path_system::PathSystem;
use crate::sample::sample_k;
use crate::semioblivious::SemiObliviousRouting;
use rand::Rng;
use sor_flow::Demand;
use sor_graph::{diameter, Graph, NodeId};
use sor_hop::HopRouting;

/// The per-scale sampled systems.
#[derive(Clone, Debug)]
pub struct CompletionRouting {
    g: Graph,
    /// `(hop bound h, sampled system from the h-hop routing)`, increasing
    /// in `h`.
    scales: Vec<(usize, PathSystem)>,
}

/// Result of routing a demand for the completion-time objective.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletionResult {
    /// Congestion of the chosen routing.
    pub congestion: f64,
    /// Dilation (max hops over paths carrying weight).
    pub dilation: usize,
    /// The hop scale that won.
    pub scale: usize,
}

impl CompletionResult {
    /// The completion-time objective `congestion + dilation` (\[LMR94\]:
    /// schedules of length O(C + D) exist).
    pub fn completion_time(&self) -> f64 {
        self.congestion + self.dilation as f64
    }
}

impl CompletionRouting {
    /// Build: for each `h ∈ {1, 2, 4, …, ≥ diam}`, construct an `h`-hop
    /// routing with `trees` trees and sample `k` candidate paths per pair.
    pub fn build<R: Rng + ?Sized>(
        g: &Graph,
        pairs: &[(NodeId, NodeId)],
        k: usize,
        trees: usize,
        rng: &mut R,
    ) -> Self {
        let diam = diameter(g) as usize;
        let mut scales = Vec::new();
        let mut h = 1usize;
        loop {
            let routing = HopRouting::build(g.clone(), h, trees, rng);
            let sampled = sample_k(&routing, pairs, k, rng);
            scales.push((h, sampled.system));
            if h >= diam {
                break;
            }
            h *= 2;
        }
        CompletionRouting {
            g: g.clone(),
            scales,
        }
    }

    /// Number of hop scales.
    pub fn num_scales(&self) -> usize {
        self.scales.len()
    }

    /// The sampled system of the scale with hop bound `h`, if present.
    pub fn scale_system(&self, h: usize) -> Option<&PathSystem> {
        self.scales.iter().find(|(hh, _)| *hh == h).map(|(_, s)| s)
    }

    /// Union of all per-scale systems — the installed path system; its
    /// sparsity is `O(k · log diam)` (Lemma 2.8's quadratic budget comes
    /// from also scaling `k` with `log`, which callers choose).
    pub fn union_system(&self) -> PathSystem {
        self.scales
            .iter()
            .fold(PathSystem::new(), |acc, (_, s)| acc.union(s))
    }

    /// Sparsity of the union system.
    pub fn sparsity(&self) -> usize {
        self.union_system().sparsity()
    }

    /// Integral routing at the winning scale: pick the best scale
    /// fractionally (as [`CompletionRouting::route`]), then round that
    /// scale's rates to per-unit path assignments (Lemma 2.8's integral
    /// statement). Returns the integral result plus one route per unit of
    /// demand, ready for the packet scheduler.
    pub fn route_integral<R: Rng>(
        &self,
        demand: &Demand,
        eps: f64,
        rng: &mut R,
    ) -> Option<(CompletionResult, Vec<sor_graph::Path>)> {
        assert!(demand.is_integral());
        let frac = self.route(demand, eps)?;
        let system = self.scale_system(frac.scale)?.clone();
        let sor = SemiObliviousRouting::new(self.g.clone(), system);
        let integral = sor.route_integral(demand, eps, rng);
        let mut routes = Vec::new();
        let mut dilation = 0usize;
        for (counts, &(s, t, _)) in integral.counts.iter().zip(demand.entries()) {
            for (i, &c) in counts.iter().enumerate() {
                for _ in 0..c {
                    let p = sor.system().paths(s, t).get(i).to_path(&self.g);
                    dilation = dilation.max(p.hops());
                    routes.push(p);
                }
            }
        }
        Some((
            CompletionResult {
                congestion: integral.congestion,
                dilation,
                scale: frac.scale,
            },
            routes,
        ))
    }

    /// Route `demand` at the best scale for `congestion + dilation`.
    /// Scales whose system misses a demanded pair are skipped; `None` if
    /// every scale misses some pair.
    pub fn route(&self, demand: &Demand, eps: f64) -> Option<CompletionResult> {
        let mut best: Option<CompletionResult> = None;
        for (h, system) in &self.scales {
            let sor = SemiObliviousRouting::new(self.g.clone(), system.clone());
            if !sor.covers(demand) {
                continue;
            }
            let sol = sor.route_fractional(demand, eps);
            let mut dilation = 0usize;
            for (w, &(s, t, _)) in sol.weights.iter().zip(demand.entries()) {
                for (i, &wi) in w.iter().enumerate() {
                    if wi > 1e-9 {
                        dilation = dilation.max(sor.system().paths(s, t).get(i).hops());
                    }
                }
            }
            let cand = CompletionResult {
                congestion: sol.congestion,
                dilation,
                scale: *h,
            };
            if best
                .as_ref()
                .is_none_or(|b| cand.completion_time() < b.completion_time())
            {
                best = Some(cand);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::demand_pairs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;

    #[test]
    fn scales_cover_diameter() {
        let g = gen::cycle_graph(16); // diameter 8
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = [(NodeId(0), NodeId(1))];
        let cr = CompletionRouting::build(&g, &pairs, 2, 2, &mut rng);
        // h = 1, 2, 4, 8
        assert_eq!(cr.num_scales(), 4);
    }

    #[test]
    fn routes_with_bounded_dilation() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let demand = sor_flow::demand::random_matching(&g, 4, &mut rng);
        let pairs = demand_pairs(&demand);
        let cr = CompletionRouting::build(&g, &pairs, 3, 4, &mut rng);
        let res = cr.route(&demand, 0.2).expect("covered");
        assert!(res.congestion > 0.0 && res.congestion.is_finite());
        // hop cap of the largest scale bounds any candidate's dilation:
        // stretch(4) · max(h_max, hopdist) with hopdist ≤ diam = 6.
        assert!(res.dilation <= 4 * 8);
        assert!(res.completion_time() >= 1.0);
    }

    #[test]
    fn adjacent_demand_prefers_small_scale() {
        // Demands between adjacent cycle vertices: the 1-hop scale routes
        // them with dilation ≈ 1–4 and congestion 1; larger scales can
        // only be worse on C+D.
        let g = gen::cycle_graph(12);
        let mut rng = StdRng::seed_from_u64(3);
        let demand = Demand::from_pairs([
            (NodeId(0), NodeId(1)),
            (NodeId(4), NodeId(5)),
            (NodeId(8), NodeId(9)),
        ]);
        let pairs = demand_pairs(&demand);
        let cr = CompletionRouting::build(&g, &pairs, 2, 3, &mut rng);
        let res = cr.route(&demand, 0.15).expect("covered");
        assert!(
            res.dilation <= 6,
            "adjacent pairs routed with dilation {}",
            res.dilation
        );
        assert!(res.completion_time() < 12.0);
    }

    #[test]
    fn integral_routing_matches_demand_units() {
        let g = gen::cycle_graph(10);
        let mut rng = StdRng::seed_from_u64(5);
        let demand =
            Demand::from_triples([(NodeId(0), NodeId(1), 2.0), (NodeId(5), NodeId(6), 1.0)]);
        let pairs = demand_pairs(&demand);
        let cr = CompletionRouting::build(&g, &pairs, 2, 3, &mut rng);
        let (res, routes) = cr.route_integral(&demand, 0.15, &mut rng).expect("covered");
        assert_eq!(routes.len(), 3, "one route per unit");
        assert!(res.congestion >= 1.0 - 1e-9);
        let max_hops = routes.iter().map(|p| p.hops()).max().unwrap();
        assert_eq!(res.dilation, max_hops);
        for p in &routes {
            assert!(p.validate(&g));
        }
    }

    use sor_graph::NodeId;
}
