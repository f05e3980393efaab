//! Log-bucketed streaming percentiles for wall durations.
//!
//! [`LogHistogram`] is a log-bucketed histogram (geometric
//! buckets, [`SUB_BUCKETS`] per doubling) whose quantile estimates are
//! within one bucket — a factor `2^(1/SUB_BUCKETS)` — of the exact
//! sorted-sample quantile. Recording is a couple of relaxed atomic
//! adds, so it is safe on the epoch path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Log-histogram resolution: buckets per doubling of the value. Bucket
/// `i` covers `[2^(i/SUB_BUCKETS), 2^((i+1)/SUB_BUCKETS))`, so a
/// quantile estimate is within a factor `2^(1/SUB_BUCKETS)` (~19%) of
/// the exact value — one bucket.
pub const SUB_BUCKETS: usize = 4;

/// Number of log buckets: covers `[1, 2^64)`, i.e. nanosecond latencies
/// up to several centuries.
const NUM_LOG_BUCKETS: usize = 64 * SUB_BUCKETS;

/// A log-bucketed histogram for streaming percentiles (p50/p90/p99/p999
/// of epoch wall, re-opt wall, cache lookup, queue wait). Values below 1
/// land in a dedicated underflow bucket; recording is lock-free (relaxed
/// atomic adds), and quantiles come from a cumulative walk.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: (0..NUM_LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Bucket index of a value `>= 1`; values below 1 (or non-finite) have
/// no log bucket and live in the underflow bucket. Public so tests can
/// assert the "within one bucket" quantile contract.
pub fn log_bucket_of(v: f64) -> Option<usize> {
    if !v.is_finite() || v < 1.0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let scaled = v.log2() * SUB_BUCKETS as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = scaled.floor().max(0.0) as usize;
    Some(idx.min(NUM_LOG_BUCKETS - 1))
}

/// Inclusive-exclusive upper edge of log bucket `i`.
fn log_bucket_upper(i: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let exp = (i + 1) as f64 / SUB_BUCKETS as f64;
    exp.exp2()
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (a couple of relaxed atomic adds; safe on
    /// the epoch path).
    pub fn observe(&self, v: f64) {
        match log_bucket_of(v) {
            // sor-check: allow(panic-path) — log_bucket_of clamps below the bucket count
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.underflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        let add = if v.is_finite() { v } else { 0.0 };
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed (finite) values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` observation (1.0 for the
    /// underflow bucket). `None` when empty. Within one log bucket of
    /// the exact sorted-sample quantile by construction.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = rank as u64;
        let mut seen = self.underflow.load(Ordering::Relaxed);
        if seen >= rank {
            return Some(1.0);
        }
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(log_bucket_upper(i));
            }
        }
        // Counts raced ahead of buckets under concurrent recording;
        // answer with the largest occupied edge.
        Some(log_bucket_upper(NUM_LOG_BUCKETS - 1))
    }

    /// The standard tail summary: (p50, p90, p99, p999), or `None` when
    /// empty.
    pub fn tail_summary(&self) -> Option<(f64, f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_quantiles_are_within_one_bucket() {
        let h = LogHistogram::new();
        for v in 1..=1000u32 {
            h.observe(f64::from(v));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).expect("non-empty");
        // exact p50 is 500; the estimate is the bucket upper edge
        let exact_bucket = log_bucket_of(500.0).expect("in range");
        let est_bucket = log_bucket_of(p50).expect("in range");
        assert!(
            est_bucket.abs_diff(exact_bucket) <= 1,
            "p50 estimate {p50} is {est_bucket} vs exact bucket {exact_bucket}"
        );
        let (q50, q90, q99, q999) = h.tail_summary().expect("non-empty");
        assert!(q50 <= q90 && q90 <= q99 && q99 <= q999);
    }

    #[test]
    fn empty_log_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        // no bucket-0 (or any) value may leak out of an empty histogram:
        // every quantile, and the tail summary built from them, is None
        for q in [0.0, 0.01, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q} on empty histogram");
        }
        assert_eq!(h.tail_summary(), None);
        // the first observation flips every quantile to a real edge
        h.observe(2.0);
        assert!(h.quantile(0.5).is_some());
        assert!(h.tail_summary().is_some());
    }

    #[test]
    fn log_histogram_underflow_and_non_finite() {
        let a = LogHistogram::new();
        a.observe(0.25); // underflow
        a.observe(4.0);
        a.observe(1024.0);
        a.observe(f64::NAN); // counted, no bucket, sum unchanged
        assert_eq!(a.count(), 4);
        assert!((a.sum() - (0.25 + 4.0 + 1024.0)).abs() < 1e-9);
        assert_eq!(a.quantile(0.01), Some(1.0), "underflow answers as 1.0");
        let p99 = a.quantile(0.99).expect("non-empty");
        assert!(p99 >= 1024.0, "tail reaches the large value");
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }
}
