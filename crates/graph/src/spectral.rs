//! Spectral diagnostics: the second eigenvalue of the normalized
//! adjacency / the spectral gap.
//!
//! Random-regular graphs are expanders w.h.p.; the experiments that claim
//! "on an expander…" use this module to *certify* the sample they drew
//! (gap bounded away from 0) instead of trusting the generator.

use crate::graph::Graph;

/// Estimate `λ₂`, the second-largest eigenvalue of the lazy random-walk
/// matrix `W = (I + D^{-1}A)/2`, by power iteration on the space
/// orthogonal to the stationary distribution. Deterministic: starts from
/// a fixed deflated vector. Returns a value in `[1/2, 1]`; the *spectral
/// gap* is `1 − λ₂`.
///
/// The lazy walk keeps the spectrum in `[0, 1]`, so power iteration
/// converges to `λ₂` after deflation regardless of bipartiteness.
pub fn lambda2(g: &Graph, iters: usize) -> f64 {
    let n = g.num_nodes();
    assert!(n >= 2, "spectral gap of a single vertex is undefined");
    // capacitated degrees for the walk; stationary ∝ cap_degree
    let deg: Vec<f64> = g.nodes().map(|v| g.cap_degree(v)).collect();
    let total: f64 = deg.iter().sum();
    assert!(total > 0.0, "graph has no edges");
    let pi: Vec<f64> = deg.iter().map(|d| d / total).collect();

    // deflate: remove the π-component (left eigenvector pairing:
    // ⟨x, 1⟩_π = Σ π_i x_i)
    let deflate = |x: &mut [f64]| {
        let c: f64 = x.iter().zip(&pi).map(|(xi, pi)| xi * pi).sum();
        for v in x.iter_mut() {
            *v -= c;
        }
    };

    // fixed pseudo-random-ish start vector
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * 0.7548776662 + 0.31) % 1.0) - 0.5)
        .collect();
    deflate(&mut x);
    let mut y = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        // y = W x with W = (I + D^{-1} A)/2 (A capacitated)
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for u in g.nodes() {
            let mut acc = 0.0;
            for &(e, v) in g.incident(u) {
                acc += g.cap(e) * x[v.index()];
            }
            y[u.index()] = 0.5 * x[u.index()] + 0.5 * acc / deg[u.index()].max(1e-300);
        }
        deflate(&mut y);
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return 0.5; // x was (numerically) in the span of π
        }
        // Rayleigh-style estimate: ‖Wx‖/‖x‖ with x normalized each step
        lambda = norm / x.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    lambda.clamp(0.0, 1.0)
}

/// Spectral gap `1 − λ₂` of the lazy walk. Larger ⇒ better expander;
/// `O(1/n²)`-ish for paths/cycles, `Ω(1)` for random regular graphs.
pub fn spectral_gap(g: &Graph, iters: usize) -> f64 {
    1.0 - lambda2(g, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_has_large_gap() {
        // K_n lazy walk: λ₂ = 1/2 − 1/(2(n−1)) ≈ 1/2 ⇒ gap ≈ 1/2.
        let g = gen::complete_graph(10);
        let gap = spectral_gap(&g, 300);
        assert!(gap > 0.45, "K10 gap {gap}");
    }

    #[test]
    fn cycle_gap_shrinks_with_n() {
        let small = spectral_gap(&gen::cycle_graph(8), 600);
        let large = spectral_gap(&gen::cycle_graph(32), 600);
        assert!(
            large < small,
            "C32 gap {large} should be below C8 gap {small}"
        );
        assert!(large < 0.05, "C32 gap {large} should be tiny");
    }

    #[test]
    fn random_regular_is_expander() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_regular(64, 4, &mut rng);
        let gap = spectral_gap(&g, 200);
        assert!(
            gap >= 0.05,
            "4-regular random graph should be an expander (gap {gap})"
        );
    }

    #[test]
    fn path_is_not_an_expander() {
        let g = gen::path_graph(40);
        assert!(spectral_gap(&g, 200) < 0.05);
    }

    #[test]
    fn lambda_in_range() {
        for g in [gen::grid(4, 4), gen::hypercube(4), gen::star(6)] {
            let l = lambda2(&g, 200);
            assert!((0.0..=1.0).contains(&l), "λ₂ = {l} out of range");
        }
    }
}
