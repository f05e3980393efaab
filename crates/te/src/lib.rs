//! # sor-te
//!
//! SMORE-style traffic engineering harness \[KYF+18\] — the practical
//! setting that motivated the paper and that its theorems finally justify.
//!
//! A *scenario* is a WAN topology plus the set of traffic endpoints; a
//! *traffic matrix* is a gravity-model demand over those endpoints. Each
//! *scheme* installs a candidate path system (or a full oblivious routing)
//! and routes the matrix; the headline metric is max link utilization
//! (MLU) relative to the multicommodity-flow optimum. The failure module
//! re-adapts sending rates on the surviving candidate paths — the
//! robustness story that makes semi-oblivious TE attractive in practice.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sor_te::{gravity_tm, run_scheme, Scenario, Scheme};
//!
//! let sc = Scenario::abilene();
//! let mut rng = StdRng::seed_from_u64(7);
//! let tm = gravity_tm(&sc, 3.0, &mut rng);
//! let semi = run_scheme(&sc, &tm, Scheme::SemiOblivious { s: 4, trees: 6 }, 1, 0.2);
//! assert!(semi.ratio_vs_opt < 2.0);
//! assert!(semi.sparsity <= 4);
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod failures;
pub mod scenario;
pub mod schemes;

pub use churn::{churn_experiment, ChurnResult};
pub use failures::{emergency_path, failure_experiment, FailureResult};
pub use scenario::{gravity_tm, Scenario};
pub use schemes::{run_scheme, Scheme, SchemeResult};
