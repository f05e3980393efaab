//! # sor-oblivious
//!
//! Oblivious routings: demand-independent distributions over paths, one
//! distribution per vertex pair (Section 4, "Routings"). The semi-oblivious
//! construction of the paper samples its few candidate paths from exactly
//! these objects, so their quality is the base of every experiment.
//!
//! Schemes provided:
//!
//! * [`ValiantHypercube`] — Valiant–Brebner randomized bit-fixing through a
//!   uniform intermediate, the O(1)-competitive routing on hypercubes the
//!   paper's overview (Section 5.1) samples from,
//! * [`GreedyBitFix`] — deterministic single-path bit-fixing, the classical
//!   *negative* baseline (Ω(√N/d) congestion on bit reversal),
//! * [`KspRouting`] — uniform distribution over k shortest paths, the
//!   heuristic SMORE compares against,
//! * [`RandomWalkRouting`] — loop-erased random walks, an ablation
//!   sampling distribution,
//! * [`ElectricalRouting`] — electrical flows via a from-scratch
//!   Laplacian CG solver (extension),
//! * [`RaeckeRouting`] — Räcke-style multiplicative-weights mixture of
//!   congestion trees, the `O(log n)`-competitive general-graph routing
//!   \[Räc08\] (quality measured empirically by experiment E12). Its
//!   trees are [`ClusterTree`]s: FRT random hierarchically-separated tree
//!   embeddings ([`ClusterTree::frt`], [`frt`]), or spectral
//!   recursive-bisection hierarchies ([`ClusterTree::spectral`],
//!   [`hierarchy`]), an independent second substrate ablated in E12 via
//!   [`RaeckeRouting::spectral`].
//!
//! Every mixture merges its draws with [`routing::merge_draws`]: equal
//! paths' weights summed in draw order, the support ordered by vertex
//! sequence, then edge sequence, so a seeded build gives one distribution
//! on multigraphs too. Routings whose distribution is costly memoize it
//! per pair in a [`routing::DistMemo`].
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sor_graph::{gen, NodeId};
//! use sor_oblivious::routing::ObliviousRouting;
//! use sor_oblivious::ValiantHypercube;
//!
//! let r = ValiantHypercube::new(gen::hypercube(4));
//! let dist = r.path_distribution(NodeId(0), NodeId(15));
//! let total: f64 = dist.iter().map(|(_, w)| w).sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! let mut rng = StdRng::seed_from_u64(1);
//! let p = r.sample_path(NodeId(0), NodeId(15), &mut rng);
//! assert_eq!(p.source(), NodeId(0));
//! assert!(p.hops() <= 8); // ≤ 2·dim
//! ```

#![forbid(unsafe_code)]

pub mod electrical;
pub mod frt;
pub mod hierarchy;
pub mod ksp_routing;
pub mod raecke;
pub mod random_walk;
pub mod routing;
pub mod valiant;

pub use electrical::ElectricalRouting;
pub use frt::ClusterTree;
pub use ksp_routing::KspRouting;
pub use raecke::RaeckeRouting;
pub use random_walk::RandomWalkRouting;
pub use routing::{fractional_loads, oblivious_congestion, ObliviousRouting, PathDist};
pub use valiant::{GreedyBitFix, ValiantHypercube};
