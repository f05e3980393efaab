//! Log-bucketed histograms: the one histogram type in the process.
//!
//! [`LogHistogram`] has geometric buckets, [`SUB_BUCKETS`] per doubling,
//! whose edges are inclusive upper bounds, so each edge is a Prometheus
//! `le`. The metrics registry's histogram cells (path hops, queue
//! depths) and the serve observer's wall-time histograms are all
//! `LogHistogram`s. Quantile estimates are within one bucket — a factor
//! `2^(1/SUB_BUCKETS)` — of the exact sorted-sample quantile. Recording
//! is a couple of relaxed atomic adds, so it is safe on the epoch path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Log-histogram resolution: buckets per doubling of the value. Bucket
/// `i > 0` covers `(2^((i-1)/SUB_BUCKETS), 2^(i/SUB_BUCKETS)]`, so a
/// quantile estimate is within a factor `2^(1/SUB_BUCKETS)` (~19%) of
/// the exact value — one bucket.
pub const SUB_BUCKETS: usize = 4;

/// Number of log buckets: bucket 0 holds exactly 1, and the rest cover
/// `(1, 2^64]`, i.e. nanosecond latencies up to several centuries.
/// Larger values clamp into the last bucket.
const NUM_LOG_BUCKETS: usize = 64 * SUB_BUCKETS + 1;

/// A log-bucketed histogram: counts per inclusive upper edge
/// `2^(i/SUB_BUCKETS)`, plus the count and sum, all lock-free (relaxed
/// atomic adds). Values below 1 and non-finite ones have no log bucket;
/// they form the underflow bucket, which shares edge 1 with bucket 0 and
/// so is counted in it. Quantiles come from a cumulative walk.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: (0..NUM_LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Bucket index of a value `>= 1`: the least `i` whose exported edge
/// (`2^(i/SUB_BUCKETS)` as `exp2` rounds it) is `>= v`, so a value
/// exactly on an edge lands in the bucket that edge closes. The estimate
/// `⌈SUB_BUCKETS·log₂ v⌉` is settled against those float edges, since
/// `log2` and `exp2` each round. Values below 1 (or non-finite) have no
/// log bucket and live in the underflow bucket. Public so tests can
/// assert the "within one bucket" quantile contract.
pub fn log_bucket_of(v: f64) -> Option<usize> {
    if !v.is_finite() || v < 1.0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let scaled = v.log2() * SUB_BUCKETS as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mut idx = (scaled.ceil() as usize).min(NUM_LOG_BUCKETS - 1);
    while idx > 0 && v <= log_bucket_upper(idx - 1) {
        idx -= 1;
    }
    while idx < NUM_LOG_BUCKETS - 1 && v > log_bucket_upper(idx) {
        idx += 1;
    }
    Some(idx)
}

/// Inclusive upper edge of log bucket `i`: `2^(i/SUB_BUCKETS)`.
fn log_bucket_upper(i: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let exp = i as f64 / SUB_BUCKETS as f64;
    exp.exp2()
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (a couple of relaxed atomic adds; safe on
    /// the epoch path). The underflow bucket counts in bucket 0.
    pub fn observe(&self, v: f64) {
        // sor-check: allow(panic-path) — log_bucket_of clamps below the bucket count
        self.buckets[log_bucket_of(v).unwrap_or(0)].fetch_add(1, Ordering::Relaxed);
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

    /// The occupied buckets as (inclusive upper edge, count), edges
    /// ascending. Values below 1 and non-finite ones count under edge 1.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (log_bucket_upper(i), b.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
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
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(log_bucket_upper(i));
            }
        }
        // Counts raced ahead of buckets under concurrent recording;
        // answer with the largest edge.
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

    /// Zero the histogram in place, so a handle the registry handed out
    /// keeps counting into a live cell.
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
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
    fn buckets_are_upper_inclusive_and_reset_empties_them() {
        let h = LogHistogram::new();
        for v in [0.0, 1.0, 2.0, 3.0, 4.0, 4.0] {
            h.observe(v);
        }
        // 0 (underflow) and 1 share edge 1; 2 and 4 sit exactly on
        // edges and count there, not one bucket up
        assert_eq!(
            h.buckets(),
            vec![(1.0, 2), (2.0, 1), (1.75f64.exp2(), 1), (4.0, 2)]
        );
        h.reset();
        assert_eq!(h.buckets(), Vec::new());
        assert_eq!((h.count(), h.sum()), (0, 0.0));
    }

    #[test]
    fn every_power_of_two_lands_in_the_bucket_it_closes() {
        for k in 0..=64 {
            let v = f64::from(k).exp2();
            let i = usize::try_from(k).expect("small") * SUB_BUCKETS;
            assert_eq!(log_bucket_of(v), Some(i), "2^{k}");
            assert_eq!(log_bucket_upper(i), v);
        }
    }

    #[test]
    fn every_exported_edge_closes_its_own_bucket() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        for i in 1..NUM_LOG_BUCKETS {
            let edge = log_bucket_upper(i);
            assert_eq!(log_bucket_of(edge), Some(i), "edge {i} = {edge}");
            if i < NUM_LOG_BUCKETS - 1 {
                assert_eq!(
                    log_bucket_of(next_up(edge)),
                    Some(i + 1),
                    "next float above edge {i} = {edge}"
                );
            }
        }
        // bucket 2's edge is √2 rounded up, and it closes bucket 2
        assert_eq!(log_bucket_upper(2), std::f64::consts::SQRT_2);
        assert_eq!(log_bucket_of(std::f64::consts::SQRT_2), Some(2));
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
