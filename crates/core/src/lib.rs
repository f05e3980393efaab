//! # sor-core
//!
//! The paper's contribution: **sparse semi-oblivious routing by sampling
//! few paths from a competitive oblivious routing**.
//!
//! Pipeline (Section 2.1's five stages):
//!
//! 1. a graph is given ([`sor_graph`]),
//! 2. a *path system* is designed before any demand is seen —
//!    [`PathSystem`], constructed by [`sample`]-ing an oblivious routing
//!    (Definition 5.2),
//! 3. an adversarial demand is revealed ([`sor_flow::Demand`]),
//! 4. sending rates are re-optimized restricted to the candidate paths —
//!    [`SemiObliviousRouting`] delegating to the MWU solver in
//!    [`sor_flow::restricted`] (fractional, Definition 5.1) or the
//!    rounding pipeline (integral, Definition 6.1),
//! 5. the congestion is compared against the offline optimum — [`eval`].
//!
//! The analysis machinery is executable too:
//!
//! * [`process`] — the dynamic deletion process of Section 5.3,
//! * [`patterns`] — the bad pattern a failed run witnesses
//!   (Definition 5.11, Lemma 5.12),
//! * [`negassoc`] — Chernoff bounds for negatively associated variables
//!   (Appendix B) as numeric functions,
//! * [`special`] — special demands and the power-of-two bucketing
//!   reduction (Definition 5.5 / Lemma 5.9),
//! * [`lowerbound`] — the Section 8 two-star adversary,
//! * [`completion`] — completion-time competitive routing from
//!   hop-constrained samples (Section 7).
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sor_core::sample::{demand_pairs, sample_k};
//! use sor_core::SemiObliviousRouting;
//! use sor_flow::{demand, max_concurrent_flow};
//! use sor_graph::gen;
//! use sor_oblivious::ValiantHypercube;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let g = gen::hypercube(4);
//! let base = ValiantHypercube::new(g.clone());
//! // Stage 2: install 4 sampled candidate paths per pair, demand-obliviously.
//! let dm = demand::random_permutation(&g, &mut rng);
//! let sampled = sample_k(&base, &demand_pairs(&dm), 4, &mut rng);
//! let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
//! assert!(sor.sparsity() <= 4);
//! // Stage 4: the demand is revealed; re-optimize rates on the candidates.
//! let semi = sor.congestion(&dm, 0.2);
//! // Stage 5: compare with the offline optimum.
//! let opt = max_concurrent_flow(&g, &dm, 0.2);
//! assert!(semi / opt.congestion_upper < 6.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod completion;
pub mod eval;
pub mod lowerbound;
pub mod negassoc;
pub mod path_system;
pub mod patterns;
pub mod portable;
pub mod process;
pub mod sample;
pub mod semioblivious;
pub mod special;

pub use eval::{evaluate, DemandEval, EvalReport};
pub use path_system::PathSystem;
pub use portable::{system_from_text, system_to_text};
pub use sample::{sample_k, sample_k_plus_cut, SampledSystem};
pub use semioblivious::SemiObliviousRouting;
