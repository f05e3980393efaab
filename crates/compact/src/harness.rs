//! Round-trip correctness harness: proves a [`CompactSystem`] is a
//! faithful stand-in for the explicit [`PathSystem`] it encodes.
//!
//! Three checks, matching the guarantees the serving layer relies on:
//!
//! 1. **Structure** — the decoded system equals the source under
//!    `PathSystem::PartialEq` (same pairs, same vertex sequences, same
//!    slot order).
//! 2. **Verdict** — `validate_detailed` returns the identical result
//!    on both systems (same `Ok`/`Err` including the message).
//! 3. **Congestion** — `route_fractional` over the same demand produces
//!    bit-identical congestion on both systems. The MWU solver is
//!    deterministic in its inputs, so structural equality implies this;
//!    checking it end-to-end guards the whole pipeline, not just the
//!    codec.

use crate::codec::{CompactStats, CompactSystem};
use sor_core::{PathSystem, SemiObliviousRouting};
use sor_flow::Demand;
use sor_graph::Graph;
use sor_oblivious::ClusterTree;

/// Outcome of one round-trip verification.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundTripReport {
    /// Decoded system equals the source system exactly.
    pub systems_equal: bool,
    /// `validate_detailed` verdicts agree (messages included).
    pub verdicts_equal: bool,
    /// Congestion of the explicit system under `route_fractional`.
    pub congestion_explicit: f64,
    /// Congestion of the decoded system under `route_fractional`.
    pub congestion_compact: f64,
    /// The two congestions are bit-identical (`f64::to_bits`).
    pub congestion_bits_equal: bool,
    /// Size accounting of the compact form.
    pub stats: CompactStats,
}

impl RoundTripReport {
    /// All three checks passed.
    pub fn ok(&self) -> bool {
        self.systems_equal && self.verdicts_equal && self.congestion_bits_equal
    }
}

/// Encode `system` against `tree`, decode it back, and certify the
/// round trip: structural equality, identical validation verdict, and
/// bit-identical `route_fractional` congestion on `demand`.
///
/// `sparsity_bound` is forwarded to `validate_detailed` on both sides;
/// `eps` is the MWU accuracy used for the congestion comparison.
pub fn verify_round_trip(
    g: &Graph,
    tree: &ClusterTree,
    system: &PathSystem,
    demand: &Demand,
    sparsity_bound: Option<usize>,
    eps: f64,
) -> RoundTripReport {
    let compact = CompactSystem::encode(g, tree, system);
    let decoded = compact.decode(g);

    let systems_equal = decoded == *system;
    let verdicts_equal =
        decoded.validate_detailed(g, sparsity_bound) == system.validate_detailed(g, sparsity_bound);

    let explicit_sor = SemiObliviousRouting::new(g.clone(), system.clone());
    let decoded_sor = SemiObliviousRouting::new(g.clone(), decoded);
    let congestion_explicit = explicit_sor.congestion(demand, eps);
    let congestion_compact = decoded_sor.congestion(demand, eps);

    RoundTripReport {
        systems_equal,
        verdicts_equal,
        congestion_explicit,
        congestion_compact,
        congestion_bits_equal: congestion_explicit.to_bits() == congestion_compact.to_bits(),
        stats: compact.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_core::sample::{demand_pairs, sample_k};
    use sor_graph::gen;
    use sor_oblivious::RaeckeRouting;

    #[test]
    fn sampled_system_round_trips_with_equal_congestion() {
        let g = gen::random_regular(16, 4, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(2);
        let routing = RaeckeRouting::build(g.clone(), 4, &mut rng);
        let demand = sor_flow::demand::random_permutation(&g, &mut StdRng::seed_from_u64(3));
        let sampled = sample_k(&routing, &demand_pairs(&demand), 3, &mut rng);
        let tree = routing
            .trees()
            .first()
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            .expect("RaeckeRouting::build produces at least one tree");
        let report = verify_round_trip(&g, tree, &sampled.system, &demand, Some(3), 0.2);
        assert!(report.systems_equal, "decode diverged from source");
        assert!(report.verdicts_equal, "validation verdicts diverged");
        assert!(
            report.congestion_bits_equal,
            "congestion not bit-identical: {} vs {}",
            report.congestion_explicit, report.congestion_compact
        );
        assert!(report.ok());
        assert!(report.stats.compact_bits > 0);
    }

    #[test]
    fn compact_beats_explicit_on_wan() {
        // The acceptance-criteria shape: on Abilene, compact tables
        // must measure strictly fewer bits per node than the explicit
        // encoding at equal (bit-identical) congestion.
        let g = gen::abilene();
        let mut rng = StdRng::seed_from_u64(6);
        let routing = RaeckeRouting::build(g.clone(), 4, &mut rng);
        let demand = sor_flow::demand::random_permutation(&g, &mut StdRng::seed_from_u64(7));
        let sampled = sample_k(&routing, &demand_pairs(&demand), 3, &mut rng);
        let tree = routing
            .trees()
            .first()
            // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
            .expect("RaeckeRouting::build produces at least one tree");
        let report = verify_round_trip(&g, tree, &sampled.system, &demand, Some(3), 0.2);
        assert!(report.ok());
        assert!(
            report.stats.bits_per_node() < report.stats.explicit_bits_per_node(),
            "compact ({:.1} b/n) must beat explicit ({:.1} b/n)",
            report.stats.bits_per_node(),
            report.stats.explicit_bits_per_node()
        );
    }
}
