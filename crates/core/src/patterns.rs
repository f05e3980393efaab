//! Bad patterns (Definition 5.11).
//!
//! A bad pattern abstracts a failed run of the deletion process: an
//! `m`-tuple `(c_1, …, c_m)` of nonnegative integers where every nonzero
//! entry exceeds the congestion threshold and the entries sum to at least
//! half the total number of draws. Lemma 5.12 maps every failed run to a
//! bad pattern it witnesses; Lemma 5.13 bounds how many bad patterns exist
//! (so a union bound over them is affordable); Lemma 5.14 bounds each
//! pattern's probability. This module makes the first step executable:
//! the property tests check that every failed run witnesses a pattern.

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
}
