//! Graph generators for every family the paper's results are exercised on.
//!
//! * [`classic`] — paths, cycles, cliques, stars, grids, tori, dumbbells,
//! * [`hypercube`](mod@hypercube) — hypercubes plus the adversarial permutations used in
//!   the deterministic-routing experiments (bit reversal, transpose),
//! * [`random`] — Erdős–Rényi and random-regular (expander) graphs,
//! * [`fattree`] — leaf–spine Clos topologies,
//! * [`twostar`] — the two-star lower-bound family of Section 8,
//! * [`wan`] — WAN topologies in the style of the SMORE evaluation
//!   (Abilene / B4 / GEANT-like).

pub mod classic;
pub mod fattree;
pub mod hypercube;
pub mod random;
pub mod twostar;
pub mod wan;

pub use classic::{complete_graph, cycle_graph, dumbbell, grid, path_graph, star, torus};
pub use fattree::clos;
pub use hypercube::{bit_reversal_perm, hypercube, transpose_perm};
pub use random::{erdos_renyi_connected, random_geometric, random_regular, watts_strogatz};
pub use twostar::{two_star, TwoStar};
pub use wan::{abilene, att, b4, geant};
