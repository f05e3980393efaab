//! Bad patterns (Definition 5.11) and their counting bound (Lemma 5.13).
//!
//! A bad pattern abstracts a failed run of the deletion process: an
//! `m`-tuple `(c_1, …, c_m)` of nonnegative integers where every nonzero
//! entry exceeds the congestion threshold and the entries sum to at least
//! half the total number of draws. Lemma 5.12 maps every failed run to a
//! bad pattern it witnesses; Lemma 5.13 bounds how many bad patterns exist
//! (so a union bound over them is affordable); Lemma 5.14 bounds each
//! pattern's probability. This module makes the first two executable for
//! small parameters so tests can check them against brute force.

/// Extract the bad pattern witnessed by a run of the deletion process
/// (Lemma 5.12): floor the per-edge deleted weights, normalized by the
/// per-draw weight `theta`. Returns `None` if the run was not a failure
/// (deleted < half the total).
pub fn pattern_of_run(deleted_at: &[f64], theta: f64, total_draws: usize) -> Option<Vec<u64>> {
    assert!(theta > 0.0);
    let deleted: f64 = deleted_at.iter().sum();
    if deleted < theta * total_draws as f64 / 2.0 - 1e-12 {
        return None;
    }
    Some(
        deleted_at
            .iter()
            .map(
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                |&w| (w / theta + 1e-9).floor() as u64,
            )
            .collect(),
    )
}

/// Whether a tuple is a bad pattern for threshold `min_nonzero` (every
/// nonzero entry ≥ `min_nonzero`) and budget `min_sum` (entries sum to at
/// least `min_sum`, capped at `total`).
pub fn is_bad_pattern(pattern: &[u64], min_nonzero: u64, min_sum: u64, total: u64) -> bool {
    let sum: u64 = pattern.iter().sum();
    sum >= min_sum && sum <= total && pattern.iter().all(|&c| c == 0 || c >= min_nonzero)
}

/// Exact count of bad patterns over `m` edges with entries in
/// `{0} ∪ [min_nonzero, total]`, summing to a value in `[min_sum, total]`.
/// Dynamic programming; intended for small parameters (tests, overlays).
pub fn count_bad_patterns(m: usize, min_nonzero: u64, min_sum: u64, total: u64) -> u128 {
    assert!(min_nonzero >= 1);
    // dp[s] = number of tuples over the edges processed so far with sum s.
    #[allow(clippy::cast_possible_truncation)]
    let cap = total as usize;
    let mut dp = vec![0u128; cap + 1];
    dp[0] = 1;
    for _ in 0..m {
        let mut next = dp.clone(); // entry 0
        for (s, &ways) in dp.iter().enumerate() {
            if ways == 0 {
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let mut c = min_nonzero as usize;
            while s + c <= cap {
                next[s + c] += ways;
                c += 1;
            }
        }
        dp = next;
    }
    dp.iter()
        .enumerate()
        .filter(|&(s, _)| s as u64 >= min_sum)
        .map(|(_, &w)| w)
        .sum()
}

/// The Lemma 5.13-style analytic bound: at most `K = ⌊total/min_nonzero⌋`
/// nonzero entries, so the count is at most
/// `Σ_{j≤K} C(m, j) · C(total, j)` (choose the nonzero positions, then the
/// values by stars-and-bars majorization). Loose but union-bound-friendly.
pub fn pattern_count_bound(m: usize, min_nonzero: u64, total: u64) -> f64 {
    #[allow(clippy::cast_possible_truncation)]
    let k = (total / min_nonzero.max(1)) as usize;
    let mut bound = 0.0f64;
    for j in 0..=k.min(m) {
        #[allow(clippy::cast_possible_truncation)]
        let t = total as usize;
        bound += binom_f64(m, j) * binom_f64(t, j);
    }
    bound.max(1.0)
}

fn binom_f64(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut r = 1.0f64;
    for i in 0..k {
        r *= (n - i) as f64 / (i + 1) as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_of_run_thresholds() {
        // 10 draws of weight 0.5 → total weight 5; failure needs ≥ 2.5
        // deleted.
        let ok = pattern_of_run(&[1.0, 0.0, 1.0], 0.5, 10);
        assert!(ok.is_none(), "only 2.0 < 2.5 deleted");
        let fail = pattern_of_run(&[1.5, 0.0, 1.0], 0.5, 10).expect("failed run");
        assert_eq!(fail, vec![3, 0, 2]);
    }

    #[test]
    fn bad_pattern_predicate() {
        assert!(is_bad_pattern(&[3, 0, 2], 2, 5, 10));
        assert!(!is_bad_pattern(&[3, 1, 2], 2, 5, 10)); // entry 1 < min_nonzero
        assert!(!is_bad_pattern(&[2, 0, 2], 2, 5, 10)); // sum 4 < 5
        assert!(!is_bad_pattern(&[8, 0, 8], 2, 5, 10)); // sum 16 > total
    }

    #[test]
    fn dp_count_matches_brute_force() {
        // m=3 edges, entries in {0} ∪ [2, 6], sum in [3, 6].
        let m = 3;
        let (min_nz, min_sum, total) = (2u64, 3u64, 6u64);
        let mut brute = 0u128;
        for a in 0..=total {
            for b in 0..=total {
                for c in 0..=total {
                    if is_bad_pattern(&[a, b, c], min_nz, min_sum, total) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(count_bad_patterns(m, min_nz, min_sum, total), brute);
    }

    #[test]
    fn analytic_bound_dominates_exact_count() {
        for &(m, min_nz, total) in &[(4usize, 2u64, 8u64), (6, 3, 9), (5, 2, 6)] {
            let exact = count_bad_patterns(m, min_nz, total / 2, total);
            let bound = pattern_count_bound(m, min_nz, total);
            assert!(
                bound >= exact as f64,
                "bound {bound} < exact {exact} for m={m}, min_nz={min_nz}, total={total}"
            );
        }
    }

    #[test]
    fn counts_shrink_with_threshold() {
        // Raising the per-edge threshold (fewer admissible nonzero values)
        // cannot increase the pattern count — the mechanism by which
        // higher congestion thresholds make the union bound affordable.
        let a = count_bad_patterns(5, 2, 5, 10);
        let b = count_bad_patterns(5, 4, 5, 10);
        assert!(b <= a);
    }
}
