//! Concurrency and property tests for the log-bucketed percentile
//! histogram.
//!
//! The percentile contract: a [`LogHistogram`] quantile is the upper
//! edge of the bucket holding the ranked observation, so the estimate
//! is within one log bucket (a `2^(1/4)` factor) of the exact
//! sorted-sample quantile. The proptest drives seeded sample sets
//! through a histogram and checks the bucket distance. (The vendored proptest stub generates numeric values only,
//! so each case draws a seed and derives its samples from it.)

use proptest::prelude::*;
use sor_obs::loghist::log_bucket_of;
use sor_obs::LogHistogram;
use std::thread;

const THREADS: u64 = 8;
const PER_ROUND: u64 = 2_000;

#[test]
fn log_histogram_counts_exactly_under_concurrent_observe() {
    // recording is relaxed atomics, so counts stay exact
    let h = LogHistogram::new();
    thread::scope(|s| {
        for t in 0..THREADS {
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_ROUND {
                    #[allow(clippy::cast_precision_loss)]
                    h.observe((t * PER_ROUND + i + 1) as f64);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS * PER_ROUND);
    let p999 = h.quantile(0.999).expect("non-empty");
    #[allow(clippy::cast_precision_loss)]
    let max = (THREADS * PER_ROUND) as f64;
    assert!(p999 <= max * 2.0, "tail estimate stays within one bucket");
}

/// Derive a deterministic positive sample from (seed, index) without
/// pulling in rand: SplitMix64 over the pair, mapped into [1, 2^20).
fn sample(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    #[allow(clippy::cast_precision_loss)]
    let v = (z % (1 << 20)) as f64;
    v + 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Log-bucket percentile estimates are within one bucket of the
    /// exact sorted-sample quantile, for every standard quantile.
    #[test]
    fn quantiles_within_one_bucket_of_exact(seed in 0u64..100_000, n in 2u64..400) {
        let values: Vec<f64> = (0..n).map(|i| sample(seed, i)).collect();
        let h = LogHistogram::new();
        for v in &values { h.observe(*v); }
        prop_assert_eq!(h.count(), n);

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99, 0.999] {
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let rank = ((q * n as f64).ceil().max(1.0)) as usize;
            // sor-check: allow(panic-path) — rank is in [1, n] by construction
            let exact = sorted[rank.min(sorted.len()) - 1];
            let est = h.quantile(q).expect("non-empty");
            let exact_bucket = log_bucket_of(exact).expect("in range");
            let est_bucket = log_bucket_of(est).expect("in range");
            prop_assert!(
                est_bucket.abs_diff(exact_bucket) <= 1,
                "q={} exact={} (bucket {}) est={} (bucket {})",
                q, exact, exact_bucket, est, est_bucket
            );
        }
    }

    /// Quantiles are monotone in q, bounded by the extreme buckets.
    #[test]
    fn quantiles_are_monotone(seed in 0u64..100_000, n in 1u64..200) {
        let h = LogHistogram::new();
        for i in 0..n { h.observe(sample(seed, i)); }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q).expect("non-empty")).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", vals);
        }
    }
}
