//! # sor-flow
//!
//! Demands and multicommodity-flow solvers. This crate is the workspace's
//! replacement for an external LP solver (none is available offline, and
//! the reproduction bands flag LP bindings as the thin spot): both the
//! offline optimum and the semi-oblivious rate-adaptation step are
//! (1+ε)-approximated with multiplicative-weights / exponential-length
//! algorithms in the Garg–Könemann / Fleischer family.
//!
//! * [`Demand`] — the paper's demand matrices (Definition 2.2) plus the
//!   generators the experiments use (permutations, 1-demands, gravity…),
//! * [`EdgeLoads`] — per-edge load accounting and congestion,
//! * [`concurrent`] — max concurrent flow on the whole graph: the offline
//!   OPT congestion oracle, with primal (achievable) and dual (certified
//!   lower bound) values,
//! * [`restricted`] — the same solver restricted to a candidate path
//!   system: Stage 4 of the semi-oblivious pipeline, where sending rates
//!   are re-optimized after the demand is revealed,
//! * [`rounding`] — randomized rounding + local search for *integral*
//!   routings (Section 6 / Lemma 6.3),
//! * [`exact`] — exponential-time exact solvers for tiny instances, used
//!   to validate the approximate solvers in tests.
//!
//! # Example
//!
//! ```
//! use sor_flow::{max_concurrent_flow, Demand};
//! use sor_graph::{gen, NodeId};
//!
//! // one unit across C4 splits over both arcs: OPT congestion = 1/2
//! let g = gen::cycle_graph(4);
//! let d = Demand::from_pairs([(NodeId(0), NodeId(2))]);
//! let opt = max_concurrent_flow(&g, &d, 0.05);
//! assert!((opt.congestion_upper - 0.5).abs() < 0.06);
//! assert!(opt.congestion_lower <= opt.congestion_upper + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod concurrent;
pub mod demand;
pub mod exact;
pub mod io;
pub mod loads;
pub mod restricted;
pub mod rounding;
pub mod validate;

pub use concurrent::{max_concurrent_flow, try_max_concurrent_flow, FlowError, OptResult};
pub use demand::Demand;
pub use io::{demand_from_text, demand_to_text};
pub use loads::EdgeLoads;
pub use restricted::{restricted_min_congestion, RestrictedSolution};
pub use rounding::{round_and_improve, IntegralSolution};
pub use validate::{check_flow_conservation, check_integral, check_restricted};
