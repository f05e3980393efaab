//! `sor-compact`: o(n)-state compact routing tables.
//!
//! A [`sor_core::PathSystem`] materialized as explicit vertex lists
//! costs Θ(n·k·diameter) state per node — fine for experiments,
//! unshippable for a router. Räcke–Schmid ("Compact Oblivious Routing")
//! and Czerner–Räcke (weighted graphs) observe that routings built from
//! a hierarchical decomposition admit *tree-label* forwarding state:
//! give every vertex a DFS label from the FRT hierarchy, and a node can
//! forward toward "the subtree holding the destination" with one
//! interval-matched table entry instead of one entry per destination.
//!
//! This crate turns the sampled path systems the workspace already
//! builds into exactly that representation:
//!
//! * [`labels`] — deterministic DFS-interval labels over an
//!   [`sor_oblivious::ClusterTree`] (u32-packed, `⌈log₂ n⌉` bits each),
//! * [`table`] — per-node next-hop tables mapping destination-label
//!   intervals to local out-edges, with exact bit accounting,
//! * [`codec`] — [`codec::CompactSystem`]: a *lossless, verified*
//!   re-encoding of a path system. Encoding greedily installs table
//!   entries, then decodes every pair back and demotes any path the
//!   tables cannot reproduce into an explicit exception list — so
//!   decoded routes bit-match the source system unconditionally, while
//!   the common case shares o(n)-bit tables across destinations,
//! * [`harness`] — the round-trip correctness harness: decoded system
//!   equals the explicit one (same vertex sequences), same
//!   `validate_detailed` verdict, bit-identical congestion under
//!   `route_fractional`.
//!
//! Why verify-and-except instead of trusting the tree? Because sampled
//! paths are *loop-erased* concatenations of FRT up/down paths
//! ([`sor_oblivious::ClusterTree::route`]): the suffix of a path after an
//! intermediate node is not in general the path the tree would route
//! from that node, so a pure (node, destination-label) → out-edge
//! function cannot always reproduce the sample. The verify pass makes
//! the format correct by construction; the exception count is part of
//! the accounting and stays near zero in practice.

#![forbid(unsafe_code)]

pub mod codec;
pub mod harness;
pub mod labels;
pub mod table;

pub use codec::{CompactStats, CompactSystem};
pub use harness::{verify_round_trip, RoundTripReport};
pub use labels::LabelAssignment;
pub use table::{IntervalEntry, NextHopTable};
