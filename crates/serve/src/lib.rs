//! `sor-serve`: the online semi-oblivious routing engine.
//!
//! The paper's model is two-phase: sample a sparse path system from an
//! oblivious routing *once*, then re-optimize sending rates whenever the
//! demand is revealed. Batch experiments pay the sampling phase on every
//! run; a long-running service shouldn't. This crate turns the model into
//! an engine: requests stream in, get batched into epochs, and each epoch
//! is answered by rate re-optimization restricted to a *cached* sparse
//! path system — sampling happens only on cache misses.
//!
//! * [`cache`] — sharded, capacity-bounded LRU cache of sampled path
//!   systems, keyed by (graph fingerprint, pair-set fingerprint,
//!   sparsity), with selective failure invalidation.
//! * [`engine`] — the epoch lifecycle: ingest → admit (backpressure) →
//!   solve (cached system, failures degrade + fall back) → publish.
//!   Snapshots publish in one of two formats behind
//!   [`engine::SnapshotFormat`]: explicit per-pair edge lists, or
//!   `sor-compact`'s o(n)-state next-hop tables — the published routes
//!   are bit-identical either way (the codec is verified lossless), and
//!   compact snapshots carry their size accounting.
//! * [`workload`] — deterministic closed-loop arrival processes and
//!   failure schedules for the CLI, benches, and tests.
//! * [`observer`] — one [`Observer`] owns every observation store: the
//!   flight-recorder journal of causal events (admissions, failures,
//!   re-opt summaries, top-k edge loads, path churn, and each epoch's
//!   timeline row — the timeline is the journal's newest rows),
//!   streaming tail percentiles, the SLO watchdog, and breach-triggered
//!   journal dumps — the artifact `sor forensics` ingests. It also serves the Prometheus-style scrape
//!   endpoint (`sor serve --telemetry-addr`).
//!
//! Everything is bit-deterministic for a fixed seed, with or without
//! `sor-obs` capture or an observer attached — the engine sits under the
//! repo's perf gate.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod observer;
pub mod workload;

pub use cache::{
    graph_fingerprint, pairs_fingerprint, CacheDeltas, CacheKey, CacheStats, PathSystemCache,
};
pub use engine::{Engine, EngineConfig, EpochSnapshot, PublishedRoute, Request, SnapshotFormat};
pub use observer::{Observer, MAX_BREACH_DUMPS};
pub use workload::{
    matching_patterns, run_workload, scenario_patterns, WorkloadConfig, WorkloadReport,
};
