//! Concurrency hammer for the 16-way sharded metrics registry.
//!
//! The registry's contract: registration takes a shard lock once, after
//! which every `counter_add!` / `observe_into!` hit is lock-free atomic
//! work, safe to fire from many threads at once; `reset()` zeroes the
//! cells *in place*, so handles cached in call-site `OnceLock`s keep
//! pointing at live metrics across resets.
//!
//! Threads come from `std::thread::scope`.
//!
//! This is an integration test (own process), so the process-global
//! registry is isolated from the crate's unit tests; the tests in this
//! file still share it, hence the file-local serialization lock.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;

const THREADS: u64 = 8;
const ITERS: u64 = 10_000;

/// Serialize tests in this file: they share the process-global registry
/// and `reset()` / `set_enabled()` are global effects.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counter_value(name: &str) -> u64 {
    sor_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

fn histogram_count(name: &str) -> u64 {
    sor_obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}

#[test]
fn threads_hammering_macros_sum_exactly() {
    let _guard = lock();
    sor_obs::reset();
    sor_obs::set_enabled(true);

    thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..ITERS {
                    sor_obs::counter_add!("conc/hammer/adds");
                    sor_obs::counter_add!("conc/hammer/weighted", t + 1);
                    #[allow(clippy::cast_precision_loss)]
                    let value = i as f64;
                    sor_obs::observe_into!("conc/hammer/histo", value);
                }
            });
        }
    });
    sor_obs::set_enabled(false);

    assert_eq!(counter_value("conc/hammer/adds"), THREADS * ITERS);
    // sum over t of (t+1) * ITERS = ITERS * THREADS*(THREADS+1)/2
    assert_eq!(
        counter_value("conc/hammer/weighted"),
        ITERS * THREADS * (THREADS + 1) / 2
    );
    assert_eq!(histogram_count("conc/hammer/histo"), THREADS * ITERS);

    let snap = sor_obs::snapshot();
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == "conc/hammer/histo")
        .expect("registered");
    // per-bucket counts are exact too: a single-threaded histogram fed
    // the same values has the same buckets
    let want = sor_obs::LogHistogram::new();
    for _ in 0..THREADS {
        for i in 0..ITERS {
            #[allow(clippy::cast_precision_loss)]
            want.observe(i as f64);
        }
    }
    let got: Vec<(f64, u64)> = h.buckets.iter().map(|b| (b.le, b.count)).collect();
    assert_eq!(got, want.buckets());
    // sum of 0..ITERS per thread, exact in f64 well below 2^53
    #[allow(clippy::cast_precision_loss)]
    let expect_sum = (THREADS * ITERS * (ITERS - 1) / 2) as f64;
    assert!((h.sum - expect_sum).abs() < 1e-6);
}

#[test]
fn reset_mid_flight_keeps_cached_handles_valid() {
    let _guard = lock();
    sor_obs::reset();
    sor_obs::set_enabled(true);

    // Prime the call-site OnceLock caches.
    sor_obs::counter_add!("conc/reset/counter");
    sor_obs::observe_into!("conc/reset/histo", 1.0);

    // Hammer through the *same cached handles* while another thread
    // resets concurrently: every add must land in a live cell (no lost
    // registration, no counting into a detached metric), so after a
    // final reset-then-count round the totals are exact again.
    thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..ITERS {
                    sor_obs::counter_add!("conc/reset/counter");
                    sor_obs::observe_into!("conc/reset/histo", 1.0);
                }
            });
        }
        s.spawn(|| {
            for _ in 0..50 {
                sor_obs::reset();
                thread::yield_now();
            }
        });
    });

    // Handles survived the resets: one more exact round proves they
    // still feed the registry's (zeroed-in-place) cells.
    sor_obs::reset();
    for _ in 0..ITERS {
        sor_obs::counter_add!("conc/reset/counter");
    }
    assert_eq!(counter_value("conc/reset/counter"), ITERS);
    assert_eq!(histogram_count("conc/reset/histo"), 0);
    sor_obs::observe_into!("conc/reset/histo", 3.0);
    assert_eq!(histogram_count("conc/reset/histo"), 1);
    sor_obs::set_enabled(false);
}
