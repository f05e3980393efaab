//! # sor-bench
//!
//! The experiment harness: one function per experiment in DESIGN.md's
//! per-experiment index (E1–E20), each regenerating the corresponding
//! paper result as a printable [`Table`]. The `tables` binary runs them
//! from the command line; the `perf` binary ([`perf`]) gates the exact
//! work and quality of quick E1/E2/E7/E8 and the kernels underneath them.
//!
//! Every experiment takes a `quick` flag: `true` shrinks instance sizes
//! and seed counts so the full suite finishes in a couple of minutes
//! (used by tests and the perf gate); `false` is the paper-scale run
//! recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod e_ablate;
pub mod e_extra;
pub mod e_lower;
pub mod e_te;
pub mod e_upper;
pub mod perf;
pub mod plot;
pub mod table;

pub use table::{f, Table};

/// Run every experiment, quick or full.
pub fn run_all(quick: bool) -> Vec<Table> {
    IDS.iter()
        .map(|id| run_one(id, quick).expect("known id"))
        .collect()
}

/// All experiment ids, in order.
pub const IDS: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20",
];

/// Look up an experiment by id ("e1" … "e16").
pub fn run_one(id: &str, quick: bool) -> Option<Table> {
    Some(match id {
        "e1" => e_upper::e1_log_sparsity(quick),
        "e2" => e_upper::e2_few_choices(quick),
        "e3" => e_upper::e3_deterministic(quick),
        "e4" => e_upper::e4_cut_sampling(quick),
        "e5" => e_lower::e5_lower_bound(quick),
        "e6" => e_lower::e6_completion_time(quick),
        "e7" => e_lower::e7_deletion_process(quick),
        "e8" => e_te::e8_te_comparison(quick),
        "e9" => e_te::e9_failures(quick),
        "e10" => e_ablate::e10_sampling_source(quick),
        "e11" => e_ablate::e11_bucketing(quick),
        "e12" => e_ablate::e12_raecke_quality(quick),
        "e13" => e_extra::e13_churn(quick),
        "e14" => e_extra::e14_rounding_gap(quick),
        "e15" => e_extra::e15_scheduling(quick),
        "e16" => e_extra::e16_integral(quick),
        "e17" => e_extra::e17_packet_level(quick),
        "e18" => e_te::e18_sparsity_robustness(quick),
        "e19" => e_extra::e19_exhaustive(quick),
        "e20" => e_extra::e20_adversarial_search(quick),
        _ => return None,
    })
}
