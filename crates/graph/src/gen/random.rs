//! Random graph models: Erdős–Rényi and random-regular (expanders).
//!
//! Random `d`-regular graphs are expanders with high probability; they are
//! the "general graph with good oblivious routing" test bed in experiments
//! E1/E2/E4.

use crate::graph::{Graph, NodeId};
use crate::traversal::is_connected;
use rand::seq::SliceRandom;
use rand::Rng;

/// A connected `G(n, p)` sample: edges included i.i.d. with probability
/// `p`, resampled until connected (caller should keep `p` comfortably above
/// the connectivity threshold `ln n / n`).
///
/// Panics after 1000 failed attempts to avoid silent infinite loops.
pub fn erdos_renyi_connected<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n >= 2 && (0.0..=1.0).contains(&p));
    for _ in 0..1000 {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_bool(p) {
                    g.add_unit_edge(NodeId::from_usize(i), NodeId::from_usize(j));
                }
            }
        }
        if g.num_edges() > 0 && is_connected(&g) {
            return g;
        }
    }
    // sor-check: allow(unwrap) — documented failure mode for unsatisfiable parameters
    panic!("failed to sample a connected G({n}, {p}) in 1000 attempts — p too small?");
}

/// A simple connected random `d`-regular graph: configuration (pairing)
/// model followed by double-edge-swap repair of self-loops and parallel
/// edges (the standard fix — whole-sample rejection has acceptance
/// `≈ e^{-(d²−1)/4}` and is hopeless beyond d ≈ 4). Disconnected samples
/// are resampled. Requires `n·d` even and `d < n`.
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d >= 1 && d < n, "need 1 <= d < n");
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    // sor-check: allow(unwrap) — d < n is asserted above
    let n32: u32 = n.try_into().expect("vertex count n exceeds u32 range");
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for v in 0..n32 {
        for _ in 0..d {
            stubs.push(v);
        }
    }
    'attempt: for _ in 0..1000 {
        stubs.shuffle(rng);
        let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        let key = |u: u32, v: u32| (u.min(v), u.max(v));
        // `seen` holds the keys of *good* pairings only; bad pairings
        // (self-loops, or the second copy of a duplicate key) are listed in
        // `bad` and never own a key.
        let mut seen: std::collections::HashSet<(u32, u32)> =
            std::collections::HashSet::with_capacity(pairs.len());
        let mut is_bad = vec![false; pairs.len()];
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if u == v || !seen.insert(key(u, v)) {
                is_bad[i] = true;
                bad.push(i);
            }
        }
        // Double-edge swaps: rewire each bad pairing (a,b) against a random
        // *good* partner (c,e) into (a,c),(b,e), accepting only when no new
        // self-loop or duplicate is produced.
        let mut budget = 500 * (bad.len() + 1) + 100 * pairs.len();
        while let Some(&i) = bad.last() {
            if budget == 0 {
                continue 'attempt;
            }
            budget -= 1;
            let j = rng.gen_range(0..pairs.len());
            if j == i || is_bad[j] {
                continue;
            }
            let (a, b) = pairs[i];
            let (c, e) = pairs[j];
            if a == c || b == e {
                continue;
            }
            let (k1, k2) = (key(a, c), key(b, e));
            if k1 == k2 || seen.contains(&k1) || seen.contains(&k2) {
                continue;
            }
            seen.remove(&key(c, e)); // j was good, so it owns its key
            seen.insert(k1);
            seen.insert(k2);
            pairs[i] = (a, c);
            pairs[j] = (b, e);
            is_bad[i] = false;
            bad.pop();
        }
        let mut g = Graph::new(n);
        for &(u, v) in &pairs {
            g.add_unit_edge(NodeId(u), NodeId(v));
        }
        if is_connected(&g) {
            return g;
        }
    }
    // sor-check: allow(unwrap) — documented failure mode for unsatisfiable parameters
    panic!("failed to sample a simple connected {d}-regular graph on {n} vertices");
}

/// A connected random geometric graph: `n` points uniform in the unit
/// square, edges between points within distance `radius` (WAN-ish spatial
/// locality). Resampled until connected; keep
/// `radius ≳ √(2 ln n / (π n))`.
pub fn random_geometric<R: Rng>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(n >= 2 && radius > 0.0);
    for _ in 0..1000 {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut g = Graph::new(n);
        let r2 = radius * radius;
        for i in 0..n {
            for j in i + 1..n {
                let dx = pts[i].0 - pts[j].0;
                let dy = pts[i].1 - pts[j].1;
                if dx * dx + dy * dy <= r2 {
                    g.add_unit_edge(NodeId::from_usize(i), NodeId::from_usize(j));
                }
            }
        }
        if g.num_edges() > 0 && is_connected(&g) {
            return g;
        }
    }
    // sor-check: allow(unwrap) — documented failure mode for unsatisfiable parameters
    panic!("failed to sample a connected geometric graph — radius too small?");
}

/// A connected Watts–Strogatz small-world graph: ring lattice where each
/// vertex connects to its `k/2` nearest neighbors per side, with each
/// edge's far endpoint rewired with probability `beta`. Resampled until
/// connected and simple.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(
        k >= 2 && k.is_multiple_of(2) && k < n,
        "need even 2 <= k < n"
    );
    assert!((0.0..=1.0).contains(&beta));
    'attempt: for _ in 0..1000 {
        // edge set as (min, max) pairs to keep the graph simple; ordered,
        // so the rewiring order and the edge order of the graph are fixed
        let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        let key = |a: u32, b: u32| (a.min(b), a.max(b));
        // ring arithmetic runs in u32 node-id space; k < n < u32::MAX is
        // enforced by the assert above plus Graph::new below
        // sor-check: allow(unwrap)
        let n32: u32 = n.try_into().expect("vertex count n exceeds u32 range");
        let half_k: u32 = (k / 2)
            .try_into()
            // sor-check: allow(unwrap)
            .expect("neighbor count k exceeds u32 range");
        for i in 0..n32 {
            for d in 1..=half_k {
                edges.insert(key(i, (i + d) % n32));
            }
        }
        let ring: Vec<(u32, u32)> = edges.iter().copied().collect();
        for (u, v) in ring {
            if rng.gen_bool(beta) {
                // rewire v-side to a uniform non-neighbor
                let mut tries = 0;
                loop {
                    tries += 1;
                    if tries > 100 {
                        continue 'attempt;
                    }
                    let w = rng.gen_range(0..n32);
                    if w != u && !edges.contains(&key(u, w)) {
                        edges.remove(&key(u, v));
                        edges.insert(key(u, w));
                        break;
                    }
                }
            }
        }
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_unit_edge(NodeId(u), NodeId(v));
        }
        if is_connected(&g) {
            return g;
        }
    }
    // sor-check: allow(unwrap) — documented failure mode for unsatisfiable parameters
    panic!("failed to sample a connected small-world graph");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometric_is_connected() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = random_geometric(30, 0.45, &mut rng);
        assert_eq!(g.num_nodes(), 30);
        assert!(is_connected(&g));
        // no parallel edges by construction
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert!(seen.insert((e.u.0.min(e.v.0), e.u.0.max(e.v.0))));
        }
    }

    #[test]
    fn small_world_shape() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = watts_strogatz(24, 4, 0.2, &mut rng);
        assert_eq!(g.num_nodes(), 24);
        // edge count preserved by rewiring
        assert_eq!(g.num_edges(), 24 * 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn small_world_beta_zero_is_lattice() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = watts_strogatz(12, 4, 0.0, &mut rng);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        // diameter of ring lattice n=12, k=4 is 3
        assert_eq!(crate::traversal::diameter(&g), 3);
    }

    #[test]
    fn er_is_connected_and_sized() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_connected(40, 0.2, &mut rng);
        assert_eq!(g.num_nodes(), 40);
        assert!(is_connected(&g));
    }

    #[test]
    fn regular_degrees() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(n, d) in &[(20usize, 3usize), (30, 4), (16, 6)] {
            let g = random_regular(n, d, &mut rng);
            assert_eq!(g.num_edges(), n * d / 2);
            for v in g.nodes() {
                assert_eq!(g.degree(v), d);
            }
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn regular_is_simple() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(24, 3, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert_ne!(e.u, e.v);
            let key = (e.u.0.min(e.v.0), e.u.0.max(e.v.0));
            assert!(seen.insert(key), "parallel edge in 'simple' regular graph");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_regular(20, 3, &mut StdRng::seed_from_u64(42));
        let b = random_regular(20, 3, &mut StdRng::seed_from_u64(42));
        let ea: Vec<_> = a.edges().iter().map(|e| (e.u, e.v)).collect();
        let eb: Vec<_> = b.edges().iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_product_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        random_regular(5, 3, &mut rng);
    }
}
