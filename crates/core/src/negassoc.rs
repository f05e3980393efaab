//! Negative association and Chernoff machinery (Appendix B), as numeric
//! functions.
//!
//! The Main Lemma's probability calculus rests on two facts: (i) the
//! per-pair sampling indicators are negatively associated (Lemmas B.2/B.3),
//! so (ii) Chernoff upper-tail bounds apply to disjoint subset sums and
//! multiply across disjoint subsets (Lemmas B.4–B.6). This module exposes
//! the bounds as functions — the E7 experiment overlays them on measured
//! failure rates.

/// Chernoff upper tail for a sum of 0/1 negatively associated variables
/// with mean `mu`: `P[X ≥ a] ≤ exp(a − mu − a·ln(a/mu))` for `a > mu`
/// (the `(e·mu/a)^a·e^{−mu}` form, Lemma B.5/B.6 combined); 1 otherwise.
pub fn chernoff_upper_tail(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
    if a <= mu || mu == 0.0 {
        // sor-check: allow(float-eq) — 0.0 is an exact sentinel here, not a computed value
        return if mu == 0.0 && a > 0.0 { 0.0 } else { 1.0 };
    }
    (a - mu - a * (a / mu).ln()).exp().min(1.0)
}

/// The paper's predicted competitiveness shape for an `s`-sample on an
/// `n`-vertex graph (Theorem 2.5): `n^{Θ(1/s)}`, up to polylogs. Used to
/// overlay theory curves in the benches; the constant in the exponent is
/// normalized to 1.
pub fn predicted_ratio_shape(n: usize, s: usize) -> f64 {
    assert!(s >= 1);
    (n as f64).powf(1.0 / s as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chernoff_basic_shape() {
        // Tail decreases in a, increases in mu; trivial below the mean.
        assert_eq!(chernoff_upper_tail(5.0, 4.0), 1.0);
        let t1 = chernoff_upper_tail(5.0, 10.0);
        let t2 = chernoff_upper_tail(5.0, 20.0);
        assert!(t2 < t1 && t1 < 1.0);
        assert!(chernoff_upper_tail(1.0, 10.0) < chernoff_upper_tail(5.0, 10.0));
        assert_eq!(chernoff_upper_tail(0.0, 3.0), 0.0);
    }

    #[test]
    fn chernoff_dominates_simulation() {
        // Binomial(100, 0.05), mean 5: measured P[X ≥ 15] must be below
        // the bound.
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            let x: u32 = (0..100).map(|_| u32::from(rng.gen_bool(0.05))).sum();
            if x >= 15 {
                hits += 1;
            }
        }
        let measured = hits as f64 / trials as f64;
        let bound = chernoff_upper_tail(5.0, 15.0);
        assert!(
            measured <= bound + 0.005,
            "measured {measured} exceeds Chernoff bound {bound}"
        );
    }

    #[test]
    fn predicted_shape_decreases_exponentially_in_s() {
        let n = 1 << 10;
        let r1 = predicted_ratio_shape(n, 1);
        let r2 = predicted_ratio_shape(n, 2);
        let r4 = predicted_ratio_shape(n, 4);
        assert!((r1 - 1024.0).abs() < 1e-9);
        assert!((r2 - 32.0).abs() < 1e-9);
        assert!((r4 - r2.sqrt()).abs() < 1e-9);
    }
}
