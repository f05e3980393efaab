//! The compact codec: a verified lossless re-encoding of a
//! [`PathSystem`] into label-interval next-hop tables.
//!
//! Encoding installs, for every sampled path, a (vertex,
//! destination-label) → out-edge fact into a per-slot table (slot `k` =
//! the `k`-th candidate path of a pair, so the `s` candidates of a
//! sparsity-`s` system never collide with each other). Installation is
//! first-writer-wins: when two pairs disagree about how a shared vertex
//! forwards toward the same destination, the earlier pair keeps the
//! entry. A decode-verify pass then replays every pair through the
//! finished tables and demotes any path the tables fail to reproduce —
//! disagreements, loop-erasure artifacts, gap-merge collisions — to an
//! explicit per-pair exception. The result decodes *bit-identically* to
//! the source system by construction, and the exception count is an
//! honest part of the size accounting rather than a correctness caveat.

use crate::labels::{bits_for, LabelAssignment};
use crate::table::NextHopTable;
use sor_core::PathSystem;
use sor_graph::{EdgeId, Graph, NodeId, Path};
use sor_oblivious::ClusterTree;
use std::collections::BTreeMap;

/// A path system re-encoded as DFS labels + per-node next-hop tables +
/// verified exceptions. Decoding reproduces the source system exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactSystem {
    labels: LabelAssignment,
    /// `slots[k][v.index()]` forwards slot-`k` paths out of vertex `v`.
    slots: Vec<Vec<NextHopTable>>,
    /// `(s, t)` → number of candidate paths (slot count) for the pair.
    roster: BTreeMap<(u32, u32), u8>,
    /// `(slot, s, t)` → explicit edge list for paths the tables cannot
    /// reproduce. Populated by the encode-time verify pass.
    exceptions: BTreeMap<(u8, u32, u32), Vec<EdgeId>>,
    /// Bits per local out-edge index: `⌈log₂ Δ⌉`, at least 1.
    edge_bits: u32,
    /// Size of the source system under the explicit encoding, for
    /// honest side-by-side accounting (computed once at encode time).
    explicit_bits: u64,
}

/// Exact size accounting for one [`CompactSystem`] next to the explicit
/// encoding of the same path system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactStats {
    /// Number of graph vertices.
    pub n: usize,
    /// Covered ordered pairs.
    pub pairs: usize,
    /// Total candidate paths across all pairs.
    pub total_paths: usize,
    /// Interval rows summed over every non-empty table.
    pub table_entries: usize,
    /// Paths stored as explicit exceptions (verify-pass demotions).
    pub exceptions: usize,
    /// Bits per destination label.
    pub label_bits: u32,
    /// Bits per local out-edge index.
    pub edge_bits: u32,
    /// Total bits of the compact form (labels + tables + roster +
    /// exceptions).
    pub compact_bits: u64,
    /// Total bits of the explicit form (endpoints + per-path edge
    /// lists at 32 bits per edge id).
    pub explicit_bits: u64,
}

impl CompactStats {
    /// Compact bits divided by vertex count — the headline o(n) number.
    pub fn bits_per_node(&self) -> f64 {
        self.compact_bits as f64 / self.n as f64
    }

    /// Explicit bits divided by vertex count.
    pub fn explicit_bits_per_node(&self) -> f64 {
        self.explicit_bits as f64 / self.n as f64
    }

    /// Compression ratio `compact / explicit` (< 1 means compact wins).
    pub fn ratio(&self) -> f64 {
        self.compact_bits as f64 / self.explicit_bits as f64
    }
}

impl CompactSystem {
    /// Re-encode `system` against the hierarchy `tree` (labels) and the
    /// graph `g` (out-edge indices). Every path of `system` is either
    /// captured by the tables or demoted to an exception; decoding is
    /// exact either way.
    pub fn encode(g: &Graph, tree: &ClusterTree, system: &PathSystem) -> Self {
        let labels = LabelAssignment::from_tree(tree);
        let n = g.num_nodes();
        let sparsity = system.sparsity();

        // Pass 1: first-writer-wins label→out maps, one per (slot, vertex).
        let mut maps: Vec<Vec<BTreeMap<u32, u32>>> = vec![vec![BTreeMap::new(); n]; sparsity];
        let mut roster: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        let mut explicit_bits: u64 = 0;
        for (s, t, paths) in system.pairs() {
            let count = u8::try_from(paths.len())
                // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                .expect("sparsity ≤ 255 (sampled systems are s-sparse for small s)");
            roster.insert((s.0, t.0), count);
            explicit_bits += 2 * 32;
            let dest = labels.label(t);
            for (slot, p) in paths.iter().enumerate() {
                explicit_bits += 16 + p.hops() as u64 * 32;
                for ((&e, u), next) in p.edges().iter().zip(p.nodes(g)).zip(p.nodes(g).skip(1)) {
                    let out = local_out(g, u, e, next)
                        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                        .expect("path edge is incident to its own vertex");
                    maps[slot][u.index()].entry(dest).or_insert(out);
                }
            }
        }
        let slots: Vec<Vec<NextHopTable>> = maps
            .iter()
            .map(|per_v| per_v.iter().map(NextHopTable::from_map).collect())
            .collect();

        // Pass 2: verify. Any path the tables fail to replay becomes an
        // explicit exception, making decode exact unconditionally.
        let max_degree = g.nodes().map(|v| g.incident(v).len()).max().unwrap_or(1);
        let mut out = CompactSystem {
            labels,
            slots,
            roster,
            exceptions: BTreeMap::new(),
            edge_bits: bits_for(max_degree),
            explicit_bits,
        };
        for (s, t, paths) in system.pairs() {
            for (slot, p) in paths.iter().enumerate() {
                let slot_id = u8::try_from(slot)
                    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                    .expect("slot < sparsity ≤ 255");
                let replayed = out.walk(g, slot, s, t);
                if replayed.as_deref() != Some(p.edges()) {
                    let mut exc = Vec::with_capacity(p.edges().len());
                    exc.extend_from_slice(p.edges());
                    out.exceptions.insert((slot_id, s.0, t.0), exc);
                }
            }
        }
        out
    }

    /// Replay the slot-`slot` route `s → t` through the tables. `None`
    /// on a table miss, an out-of-range out-edge, or a walk that fails
    /// to reach `t` within `n` steps.
    fn walk(&self, g: &Graph, slot: usize, s: NodeId, t: NodeId) -> Option<Vec<EdgeId>> {
        let tables = self.slots.get(slot)?;
        let dest = self.labels.label(t);
        let mut cur = s;
        // pre-sized to the walk's own step cap: a replayed simple path
        // never exceeds n edges
        let mut edges = Vec::with_capacity(g.num_nodes());
        while cur != t {
            if edges.len() >= g.num_nodes() {
                return None;
            }
            let out = tables.get(cur.index())?.lookup(dest)?;
            let &(e, nb) = g.incident(cur).get(out as usize)?;
            edges.push(e);
            cur = nb;
        }
        Some(edges)
    }

    /// Decode the candidate paths of one pair (empty if the pair is not
    /// covered). Paths come back in the source system's slot order.
    pub fn decode_pair(&self, g: &Graph, s: NodeId, t: NodeId) -> Vec<Path> {
        let Some(&count) = self.roster.get(&(s.0, t.0)) else {
            return Vec::new();
        };
        (0..count)
            .map(|slot| {
                let edges = match self.exceptions.get(&(slot, s.0, t.0)) {
                    Some(exc) => exc.clone(),
                    None => self
                        .walk(g, usize::from(slot), s, t)
                        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                        .expect("non-exception pairs replay exactly (verified at encode)"),
                };
                Path::from_edges(g, s, edges)
                    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                    .expect("replayed edges form the original simple path")
            })
            .collect()
    }

    /// Decode the full system. Bit-identical to the encode input: same
    /// pairs, same paths, same slot order (certified by the harness).
    pub fn decode(&self, g: &Graph) -> PathSystem {
        let mut out = PathSystem::new();
        for &(s, t) in self.roster.keys() {
            for p in self.decode_pair(g, NodeId(s), NodeId(t)) {
                out.insert(NodeId(s), NodeId(t), p);
            }
        }
        out
    }

    /// The label assignment the tables key on.
    pub fn labels(&self) -> &LabelAssignment {
        &self.labels
    }

    /// Number of verify-pass exceptions (paths stored explicitly).
    pub fn num_exceptions(&self) -> usize {
        self.exceptions.len()
    }

    /// Interval rows summed over every table.
    pub fn table_entries(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|per_v| per_v.iter().map(NextHopTable::len))
            .sum()
    }

    /// Compact bits divided by vertex count.
    pub fn bits_per_node(&self) -> f64 {
        self.stats().bits_per_node()
    }

    /// Full size accounting next to the explicit encoding.
    pub fn stats(&self) -> CompactStats {
        let label_bits = self.labels.label_bits();
        // Label map: one label per vertex.
        let mut compact_bits = self.labels.map_bits();
        // Tables: a 16-bit header + rows, only for non-empty tables.
        for per_v in &self.slots {
            for t in per_v {
                if !t.is_empty() {
                    compact_bits += t.bits(label_bits, self.edge_bits);
                }
            }
        }
        // Roster: endpoints as labels + an 8-bit slot count per pair.
        compact_bits += self.roster.len() as u64 * (2 * u64::from(label_bits) + 8);
        // Exceptions: slot byte + endpoints + 16-bit length + edge ids.
        let mut total_paths = 0usize;
        for &count in self.roster.values() {
            total_paths += usize::from(count);
        }
        for edges in self.exceptions.values() {
            compact_bits += 8 + 2 * u64::from(label_bits) + 16 + edges.len() as u64 * 32;
        }
        CompactStats {
            n: self.labels.len(),
            pairs: self.roster.len(),
            total_paths,
            table_entries: self.table_entries(),
            exceptions: self.exceptions.len(),
            label_bits,
            edge_bits: self.edge_bits,
            compact_bits,
            explicit_bits: self.explicit_bits,
        }
    }
}

/// Position of edge `e` (toward `next`) in `g.incident(u)`.
fn local_out(g: &Graph, u: NodeId, e: EdgeId, next: NodeId) -> Option<u32> {
    g.incident(u)
        .iter()
        .position(|&(ie, nb)| ie == e && nb == next)
        .and_then(|pos| u32::try_from(pos).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;

    /// Sample a small system by routing a few pairs through the tree
    /// itself — the same shape the samplers produce.
    fn tree_system(_g: &Graph, tree: &ClusterTree, pairs: &[(u32, u32)]) -> PathSystem {
        let mut sys = PathSystem::new();
        for &(s, t) in pairs {
            let (s, t) = (NodeId(s), NodeId(t));
            sys.insert(s, t, tree.route(s, t));
        }
        sys
    }

    #[test]
    fn round_trip_is_exact_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i * 7 + 3) % 16)).collect();
        let sys = tree_system(&g, &tree, &pairs);
        let compact = CompactSystem::encode(&g, &tree, &sys);
        let decoded = compact.decode(&g);
        assert_eq!(decoded, sys, "decode must bit-match the source system");
        assert_eq!(
            decoded.validate_detailed(&g, Some(1)),
            sys.validate_detailed(&g, Some(1))
        );
    }

    #[test]
    fn multi_slot_pairs_round_trip() {
        let g = gen::cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(7);
        let t1 = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let t2 = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let mut sys = PathSystem::new();
        for (s, t) in [(0u32, 4u32), (1, 5), (2, 7)] {
            let (s, t) = (NodeId(s), NodeId(t));
            sys.insert(s, t, t1.route(s, t));
            sys.insert(s, t, t2.route(s, t));
        }
        let compact = CompactSystem::encode(&g, &t1, &sys);
        assert_eq!(compact.decode(&g), sys);
        for (s, t, paths) in sys.pairs() {
            let want: Vec<_> = paths.iter().map(|p| p.to_path(&g)).collect();
            assert_eq!(compact.decode_pair(&g, s, t), want);
        }
    }

    #[test]
    fn conflicting_paths_become_exceptions_not_corruption() {
        // Two pairs sharing a vertex but diverging toward the same
        // destination-side label force first-writer-wins conflicts; the
        // verify pass must keep decode exact regardless.
        let g = gen::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let mut sys = PathSystem::new();
        for s in 0..9u32 {
            for t in 0..9u32 {
                if s != t {
                    sys.insert(NodeId(s), NodeId(t), tree.route(NodeId(s), NodeId(t)));
                }
            }
        }
        let compact = CompactSystem::encode(&g, &tree, &sys);
        assert_eq!(compact.decode(&g), sys);
    }

    #[test]
    fn uncovered_pair_decodes_empty() {
        let g = gen::cycle_graph(6);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let sys = tree_system(&g, &tree, &[(0, 3)]);
        let compact = CompactSystem::encode(&g, &tree, &sys);
        assert!(compact.decode_pair(&g, NodeId(1), NodeId(4)).is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        let pairs: Vec<(u32, u32)> = (0..16u32)
            .map(|i| (i, 15 - i))
            .filter(|&(s, t)| s != t)
            .collect();
        let sys = tree_system(&g, &tree, &pairs);
        let compact = CompactSystem::encode(&g, &tree, &sys);
        let stats = compact.stats();
        assert_eq!(stats.n, 16);
        assert_eq!(stats.pairs, sys.num_pairs());
        assert_eq!(stats.total_paths, sys.total_paths());
        assert_eq!(stats.table_entries, compact.table_entries());
        assert_eq!(stats.exceptions, compact.num_exceptions());
        assert!(stats.compact_bits > 0);
        assert!(stats.explicit_bits > 0);
        assert!((stats.bits_per_node() - stats.compact_bits as f64 / 16.0).abs() < 1e-12);
        assert!(stats.ratio() > 0.0);
    }
}
