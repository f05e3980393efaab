//! Hypercubes and the adversarial permutations for deterministic routing.
//!
//! The hypercube `Q_d` (vertices = `d`-bit strings, edges between strings
//! at Hamming distance 1) is the paper's running special case: Valiant's
//! trick gives an O(1)-competitive oblivious routing, while any
//! *deterministic* oblivious routing suffers `Ω(√N / d)` congestion on some
//! permutation [KKT91, BH85]. The classical witnesses are the bit-reversal
//! and transpose permutations against greedy bit-fixing, which experiment
//! E3 regenerates.

use crate::graph::{Graph, NodeId};

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices with unit
/// capacities. Vertex `i`'s neighbors are `i ^ (1 << b)` for each bit `b`.
pub fn hypercube(d: usize) -> Graph {
    assert!((1..=24).contains(&d), "hypercube dimension out of range");
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for i in 0..n {
        for b in 0..d {
            let j = i ^ (1 << b);
            if j > i {
                g.add_unit_edge(NodeId::from_usize(i), NodeId::from_usize(j));
            }
        }
    }
    g
}

/// The bit-reversal permutation on `Q_d`: vertex `x_{d−1}…x_0` maps to
/// `x_0…x_{d−1}`. Greedy (fixed-order) bit-fixing routes all `2^{d/2}`
/// pairs whose low half mirrors their high half through a common
/// bottleneck, exhibiting `Ω(√N/d)` congestion.
pub fn bit_reversal_perm(d: usize) -> Vec<(NodeId, NodeId)> {
    let n = 1usize << d;
    (0..n)
        .map(|x| {
            let mut y = 0usize;
            for b in 0..d {
                if x & (1 << b) != 0 {
                    y |= 1 << (d - 1 - b);
                }
            }
            (NodeId::from_usize(x), NodeId::from_usize(y))
        })
        .collect()
}

/// The transpose permutation on `Q_d` for even `d`: the bit string is
/// viewed as a 2×(d/2) matrix (high half, low half) and transposed, i.e.
/// halves are swapped. Another classical hard instance for greedy routing.
pub fn transpose_perm(d: usize) -> Vec<(NodeId, NodeId)> {
    assert!(
        d.is_multiple_of(2),
        "transpose permutation needs even dimension"
    );
    let h = d / 2;
    let n = 1usize << d;
    let mask = (1usize << h) - 1;
    (0..n)
        .map(|x| {
            let lo = x & mask;
            let hi = x >> h;
            let y = (lo << h) | hi;
            (NodeId::from_usize(x), NodeId::from_usize(y))
        })
        .collect()
}

/// Dimension of a hypercube graph given its vertex count, if it is a power
/// of two.
pub fn dim_of(n: usize) -> Option<usize> {
    if n.is_power_of_two() {
        Some(n.trailing_zeros() as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_dists, is_connected};

    #[test]
    fn sizes_and_regularity() {
        for d in 1..=6 {
            let g = hypercube(d);
            assert_eq!(g.num_nodes(), 1 << d);
            assert_eq!(g.num_edges(), d << (d - 1));
            for v in g.nodes() {
                assert_eq!(g.degree(v), d);
            }
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn distance_is_hamming() {
        let g = hypercube(5);
        let d0 = bfs_dists(&g, NodeId(0));
        for v in g.nodes() {
            assert_eq!(d0[v.index()], v.0.count_ones());
        }
    }

    #[test]
    fn bit_reversal_is_permutation_and_involution() {
        let d = 6;
        let p = bit_reversal_perm(d);
        let mut seen = vec![false; 1 << d];
        for &(_, t) in &p {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        // Applying reversal twice is the identity.
        for &(s, t) in &p {
            let back = p[t.index()].1;
            assert_eq!(back, s);
        }
    }

    #[test]
    fn transpose_is_permutation_and_involution() {
        let d = 6;
        let p = transpose_perm(d);
        let mut seen = vec![false; 1 << d];
        for &(s, t) in &p {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
            assert_eq!(p[t.index()].1, s);
        }
    }

    #[test]
    fn dim_of_roundtrip() {
        assert_eq!(dim_of(64), Some(6));
        assert_eq!(dim_of(48), None);
    }
}
