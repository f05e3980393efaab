//! DFS-interval vertex labels derived from an FRT decomposition tree.
//!
//! The compact tables key forwarding decisions on *destination labels*
//! rather than destination identities. Labels come from a preorder DFS
//! over the hierarchy: vertices that share a cluster deep in the tree
//! receive consecutive labels, so a node whose sampled paths treat a
//! whole subtree the same way can cover it with one label interval
//! instead of one entry per destination. The assignment is a pure
//! function of the tree (children visited in build order), so every
//! replica of a snapshot derives the identical labeling.

use sor_graph::NodeId;
use sor_oblivious::ClusterTree;

/// A bijection between graph vertices and `0..n` DFS labels, plus the
/// bit width needed to store one label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelAssignment {
    /// `label_of[v.index()]` is the DFS label of vertex `v`.
    label_of: Vec<u32>,
    /// `node_of[label]` inverts [`Self::label`].
    node_of: Vec<NodeId>,
    /// Bits needed per label: `⌈log₂ n⌉`, at least 1.
    label_bits: u32,
}

impl LabelAssignment {
    /// Label each vertex by its position in the root's vertex range,
    /// which a tree keeps in DFS leaf order (preorder, children in build
    /// order): each cluster's vertices get consecutive labels.
    pub fn from_tree(tree: &ClusterTree) -> Self {
        let node_of = tree.vertices(0).to_vec();
        let mut label_of = vec![u32::MAX; node_of.len()];
        for (label, &v) in node_of.iter().enumerate() {
            label_of[v.index()] = u32::try_from(label)
                // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                .expect("node count fits u32 (NodeId is u32)");
        }
        debug_assert!(label_of.iter().all(|&l| l != u32::MAX));
        LabelAssignment {
            label_bits: bits_for(node_of.len()),
            label_of,
            node_of,
        }
    }

    /// The DFS label of vertex `v`.
    pub fn label(&self, v: NodeId) -> u32 {
        self.label_of[v.index()]
    }

    /// The vertex carrying `label`.
    pub fn node(&self, label: u32) -> NodeId {
        self.node_of[label as usize]
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Whether the assignment is empty (it never is for a built tree).
    pub fn is_empty(&self) -> bool {
        self.node_of.is_empty()
    }

    /// Bits per stored label: `⌈log₂ n⌉`, at least 1.
    pub fn label_bits(&self) -> u32 {
        self.label_bits
    }

    /// Total bits to ship the label map itself (one label per vertex).
    pub fn map_bits(&self) -> u64 {
        self.node_of.len() as u64 * u64::from(self.label_bits)
    }
}

/// `⌈log₂ count⌉` clamped below by 1 (a 1-vertex graph still needs a
/// nonzero field width).
pub(crate) fn bits_for(count: usize) -> u32 {
    let mut bits = 0u32;
    while (1usize << bits) < count {
        bits += 1;
    }
    bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sor_graph::{gen, Graph};

    fn tree_for(g: &Graph, seed: u64) -> ClusterTree {
        ClusterTree::frt(g, &g.unit_lengths(), &mut StdRng::seed_from_u64(seed))
    }

    /// Reference labels: an iterative preorder DFS over the tree's
    /// children, numbering each leaf's vertex as it is visited.
    fn labels_by_walk(tree: &ClusterTree) -> Vec<u32> {
        let mut label_of = vec![u32::MAX; tree.vertices(0).len()];
        let mut next = 0;
        // Push children reversed so the first-built child is visited first.
        let mut stack = vec![0usize];
        while let Some(c) = stack.pop() {
            if tree.children(c).is_empty() {
                for &v in tree.vertices(c) {
                    label_of[v.index()] = next;
                    next += 1;
                }
            } else {
                stack.extend(tree.children(c).rev());
            }
        }
        label_of
    }

    /// The six graph families of sor-oblivious's tree-build reference
    /// test (`frt::tests::reference_instances`, which other crates cannot
    /// reach), each with unit and with random capacities and lengths, and
    /// the graphs this crate's tests build trees on.
    fn label_instances() -> Vec<(Graph, Vec<f64>)> {
        let mut grng = StdRng::seed_from_u64(17);
        let families = [
            gen::grid(5, 6),
            gen::hypercube(5),
            gen::cycle_graph(13),
            gen::path_graph(11),
            gen::random_regular(40, 4, &mut grng),
            gen::abilene(),
        ];
        let mut out = Vec::new();
        for (gi, unit) in families.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + gi as u64);
            let mut weighted = Graph::new(unit.num_nodes());
            for e in unit.edges() {
                weighted.add_edge(e.u, e.v, 0.1 + rng.gen::<f64>());
            }
            let random: Vec<f64> = (0..unit.num_edges())
                .map(|_| 0.1 + 4.0 * rng.gen::<f64>())
                .collect();
            let unit_lengths = unit.unit_lengths();
            out.push((unit, unit_lengths));
            out.push((weighted, random));
        }
        let compact = [
            gen::grid(4, 4),
            gen::grid(3, 5),
            gen::grid(3, 3),
            gen::cycle_graph(8),
            gen::cycle_graph(6),
            gen::random_regular(16, 4, &mut StdRng::seed_from_u64(2)),
            gen::path_graph(24),
            gen::erdos_renyi_connected(30, 0.3, &mut StdRng::seed_from_u64(4)),
            Graph::new(1),
        ];
        out.extend(compact.into_iter().map(|g| {
            let unit = g.unit_lengths();
            (g, unit)
        }));
        out
    }

    #[test]
    fn range_labels_match_the_preorder_walk() {
        for (g, lengths) in label_instances() {
            for seed in 0..3 {
                let tree = ClusterTree::frt(&g, &lengths, &mut StdRng::seed_from_u64(seed));
                let labels = LabelAssignment::from_tree(&tree);
                let expected = labels_by_walk(&tree);
                for v in g.nodes() {
                    assert_eq!(labels.label(v), expected[v.index()], "{v}");
                }
            }
        }
    }

    #[test]
    fn labels_are_a_bijection() {
        let g = gen::grid(4, 4);
        let labels = LabelAssignment::from_tree(&tree_for(&g, 3));
        assert_eq!(labels.len(), 16);
        for v in g.nodes() {
            assert_eq!(labels.node(labels.label(v)), v);
        }
        let mut seen: Vec<u32> = g.nodes().map(|v| labels.label(v)).collect();
        seen.sort_unstable();
        let want: Vec<u32> = (0..16).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn sibling_leaves_get_consecutive_labels() {
        // Vertices under the same deepest internal node must be
        // label-adjacent — that is the whole point of DFS labels.
        let g = gen::grid(3, 5);
        let tree = tree_for(&g, 9);
        let labels = LabelAssignment::from_tree(&tree);
        for c in 0..tree.len() {
            let mut ls: Vec<u32> = tree.vertices(c).iter().map(|&v| labels.label(v)).collect();
            ls.sort_unstable();
            for w in ls.windows(2) {
                assert_eq!(w[1], w[0] + 1, "cluster labels not contiguous");
            }
        }
    }

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::new(1);
        let labels = LabelAssignment::from_tree(&tree_for(&g, 0));
        assert_eq!(labels.len(), 1);
        assert_eq!(labels.label_bits(), 1);
        assert_eq!(labels.map_bits(), 1);
    }
}
