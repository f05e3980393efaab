//! Path systems (Definition 2.1): the combinatorial object a semi-oblivious
//! routing *is*.

use sor_graph::{bfs_path_avoiding, EdgeId, Graph, NodeId, Path};
use std::collections::BTreeMap;

/// A collection of candidate simple paths per ordered vertex pair.
///
/// `s`-sparsity (Definition 2.1) is `max |P_{u,v}|`. Stored paths are
/// deduplicated per pair — the paper samples *with replacement*, but a path
/// system is a set of paths, so duplicates only lower the effective
/// sparsity. Iteration order is deterministic (pairs sorted by id, paths in
/// insertion order), which keeps all seeded experiments reproducible.
///
/// `PartialEq` compares the exact stored structure — same pairs, same
/// paths, same order — which is the round-trip contract the compact
/// snapshot codec (`sor-compact`) certifies against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathSystem {
    paths: BTreeMap<(u32, u32), Vec<Path>>,
}

impl PathSystem {
    /// Empty system.
    pub fn new() -> Self {
        PathSystem::default()
    }

    /// Add a candidate path for `(s, t)`; duplicates are ignored. Returns
    /// whether the path was new. Panics if the path does not run `s → t`.
    pub fn insert(&mut self, s: NodeId, t: NodeId, path: Path) -> bool {
        assert_eq!(path.source(), s, "path source mismatch");
        assert_eq!(path.target(), t, "path target mismatch");
        let v = self.paths.entry((s.0, t.0)).or_default();
        if v.contains(&path) {
            false
        } else {
            v.push(path);
            true
        }
    }

    /// Add a pair's sampled paths: `distinct` holds pairwise distinct
    /// `s → t` paths and `draws` indexes it. Paths already stored are
    /// skipped, the rest appended in order, and `draws` rewritten to index
    /// [`PathSystem::paths`]`(s, t)`. Returns how many paths were new.
    pub(crate) fn insert_draws(
        &mut self,
        s: NodeId,
        t: NodeId,
        distinct: Vec<Path>,
        draws: &mut [u32],
    ) -> usize {
        for p in &distinct {
            assert_eq!(p.source(), s, "path source mismatch");
            assert_eq!(p.target(), t, "path target mismatch");
        }
        let v = self.paths.entry((s.0, t.0)).or_default();
        if v.is_empty() {
            // a new pair: `draws` already index the list as stored
            *v = distinct;
            return v.len();
        }
        let before = v.len();
        let mut slots = Vec::with_capacity(distinct.len());
        for p in distinct {
            let i = v.iter().position(|q| *q == p).unwrap_or_else(|| {
                v.push(p);
                v.len() - 1
            });
            // a pair's candidates are far fewer than u32::MAX
            #[allow(clippy::cast_possible_truncation)]
            slots.push(i as u32);
        }
        for d in draws {
            *d = slots[*d as usize];
        }
        v.len() - before
    }

    /// Candidate paths for `(s, t)` (empty slice if the pair is absent).
    pub fn paths(&self, s: NodeId, t: NodeId) -> &[Path] {
        self.paths
            .get(&(s.0, t.0))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether the pair has at least one candidate path.
    pub fn covers(&self, s: NodeId, t: NodeId) -> bool {
        !self.paths(s, t).is_empty()
    }

    /// Iterator over `(s, t, paths)`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, &[Path])> {
        self.paths
            .iter()
            .map(|(&(s, t), v)| (NodeId(s), NodeId(t), v.as_slice()))
    }

    /// Number of covered pairs.
    pub fn num_pairs(&self) -> usize {
        self.paths.len()
    }

    /// Total number of stored paths.
    pub fn total_paths(&self) -> usize {
        self.paths.values().map(Vec::len).sum()
    }

    /// The sparsity `max_{u,v} |P_{u,v}|` (0 for the empty system).
    pub fn sparsity(&self) -> usize {
        self.paths.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum hop length over all stored paths (the system's worst-case
    /// dilation).
    pub fn dilation(&self) -> usize {
        self.paths
            .values()
            .flat_map(|v| v.iter().map(Path::hops))
            .max()
            .unwrap_or(0)
    }

    /// Remove every path that crosses any of `failed` edges (the TE
    /// failure-robustness operation: candidate sets shrink, rates are then
    /// re-adapted on the survivors). Pairs left with no paths are removed.
    pub fn without_edges(&self, failed: &[EdgeId]) -> PathSystem {
        let mut out = PathSystem::new();
        for (&(s, t), v) in &self.paths {
            let kept: Vec<Path> = v
                .iter()
                .filter(|p| !failed.iter().any(|&e| p.contains_edge(e)))
                .cloned()
                .collect();
            if !kept.is_empty() {
                out.paths.insert((s, t), kept);
            }
        }
        out
    }

    /// The system an edge failure leaves for `pairs`: every path crossing
    /// `failed` dropped ([`PathSystem::without_edges`]), then each pair
    /// left without a candidate given one emergency shortest path on `g`
    /// that avoids `failed` ([`bfs_path_avoiding`]). Returns the degraded
    /// system, the number of pairs that fell back, and the pairs the
    /// failure disconnects, which stay uncovered.
    pub fn degraded(
        &self,
        g: &Graph,
        failed: &[EdgeId],
        pairs: &[(NodeId, NodeId)],
    ) -> (PathSystem, usize, Vec<(NodeId, NodeId)>) {
        let mut system = self.without_edges(failed);
        let mut fallback_pairs = 0;
        let mut unserved = Vec::new();
        for &(s, t) in pairs {
            if system.covers(s, t) {
                continue;
            }
            match bfs_path_avoiding(g, s, t, failed) {
                Some(p) => {
                    system.insert(s, t, p);
                    fallback_pairs += 1;
                }
                None => unserved.push((s, t)),
            }
        }
        (system, fallback_pairs, unserved)
    }

    /// Union of two systems (per-pair path union, deduplicated).
    pub fn union(&self, other: &PathSystem) -> PathSystem {
        let mut out = self.clone();
        for (&(s, t), v) in &other.paths {
            for p in v {
                out.insert(NodeId(s), NodeId(t), p.clone());
            }
        }
        out
    }

    /// Check every stored path against the graph (tests / debug).
    pub fn validate(&self, g: &Graph) -> bool {
        self.validate_detailed(g, None).is_ok()
    }

    /// Like [`PathSystem::validate`], but reports *which* invariant broke.
    ///
    /// Checked invariants (Definition 2.1):
    /// * every pair has a non-empty path list (empty pairs are removed, not
    ///   stored),
    /// * every path runs `s → t` for its pair,
    /// * every path is a valid simple path of `g` (edges in bounds and
    ///   consecutive),
    /// * paths within a pair are distinct (a path system is a *set*),
    /// * with `sparsity_bound = Some(s)`, no pair holds more than `s`
    ///   paths — the `s`-sparsity promise a `k`-sample must keep.
    pub fn validate_detailed(
        &self,
        g: &Graph,
        sparsity_bound: Option<usize>,
    ) -> Result<(), String> {
        for (s, t, ps) in self.pairs() {
            if ps.is_empty() {
                return Err(format!("pair {s}→{t} stores an empty path list"));
            }
            if let Some(bound) = sparsity_bound {
                if ps.len() > bound {
                    return Err(format!(
                        "pair {s}→{t} holds {} paths, exceeding the sparsity bound {bound}",
                        ps.len()
                    ));
                }
            }
            for (i, p) in ps.iter().enumerate() {
                if p.source() != s || p.target() != t {
                    return Err(format!(
                        "pair {s}→{t} path {i} runs {}→{} instead",
                        p.source(),
                        p.target()
                    ));
                }
                if !p.validate(g) {
                    return Err(format!(
                        "pair {s}→{t} path {i} is not a simple path of the graph \
                         (out-of-bounds or non-consecutive edges)"
                    ));
                }
                if ps[..i].contains(p) {
                    return Err(format!("pair {s}→{t} stores path {i} twice"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{bfs_path, gen, yen_ksp};

    #[test]
    fn insert_dedup_and_sparsity() {
        let g = gen::cycle_graph(6);
        let mut sys = PathSystem::new();
        let ps = yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths());
        assert!(sys.insert(NodeId(0), NodeId(3), ps[0].clone()));
        assert!(!sys.insert(NodeId(0), NodeId(3), ps[0].clone()));
        assert!(sys.insert(NodeId(0), NodeId(3), ps[1].clone()));
        assert_eq!(sys.sparsity(), 2);
        assert_eq!(sys.num_pairs(), 1);
        assert_eq!(sys.total_paths(), 2);
        assert!(sys.validate(&g));
        assert_eq!(sys.dilation(), 3);
    }

    #[test]
    fn without_edges_drops_crossing_paths() {
        let g = gen::cycle_graph(4);
        let mut sys = PathSystem::new();
        for p in yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths()) {
            sys.insert(NodeId(0), NodeId(2), p);
        }
        assert_eq!(sys.sparsity(), 2);
        // kill edge 0 (0-1): the clockwise path dies
        let cut = sys.without_edges(&[EdgeId(0)]);
        assert_eq!(cut.sparsity(), 1);
        // kill both first edges of both paths: pair disappears
        let dead = sys.without_edges(&[EdgeId(0), EdgeId(3)]);
        assert_eq!(dead.num_pairs(), 0);
    }

    #[test]
    fn degraded_drops_dead_paths_and_falls_back() {
        // cycle 0-1-2-3-4-5-0; edge i joins i and i+1
        let g = gen::cycle_graph(6);
        let mut sys = PathSystem::new();
        for p in yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()) {
            sys.insert(NodeId(0), NodeId(3), p);
        }
        sys.insert(
            NodeId(1),
            NodeId(2),
            bfs_path(&g, NodeId(1), NodeId(2)).unwrap(),
        );
        let pairs = [(NodeId(0), NodeId(3)), (NodeId(1), NodeId(2))];

        // no failure: the system as it was
        let (same, fallback, unserved) = sys.degraded(&g, &[], &pairs);
        assert_eq!(same, sys);
        assert_eq!((fallback, unserved.len()), (0, 0));

        // edge 0 down: 0→3 keeps its other candidate, 1→2 is untouched
        let (d, fallback, unserved) = sys.degraded(&g, &[EdgeId(0)], &pairs);
        assert_eq!(d, sys.without_edges(&[EdgeId(0)]));
        assert_eq!(d.paths(NodeId(0), NodeId(3)).len(), 1);
        assert_eq!((fallback, unserved.len()), (0, 0));

        // edge 1 down: 1→2 loses its only path and falls back the long way
        let (d, fallback, unserved) = sys.degraded(&g, &[EdgeId(1)], &pairs);
        assert_eq!((fallback, unserved.len()), (1, 0));
        let emergency = d.paths(NodeId(1), NodeId(2));
        assert_eq!(emergency.len(), 1);
        assert_eq!(emergency[0].hops(), 5);
        assert!(!emergency[0].contains_edge(EdgeId(1)));
        assert_eq!(d.paths(NodeId(0), NodeId(3)).len(), 1);
        assert!(d.validate(&g));

        // edges 1 and 3 down split the cycle into {2, 3} and {4, 5, 0, 1}:
        // both pairs are cut off and reported, in `pairs` order
        let (d, fallback, unserved) = sys.degraded(&g, &[EdgeId(1), EdgeId(3)], &pairs);
        assert_eq!(fallback, 0);
        assert_eq!(unserved, pairs);
        assert_eq!(d.num_pairs(), 0);
    }

    #[test]
    fn union_merges() {
        let g = gen::cycle_graph(6);
        let ps = yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths());
        let mut a = PathSystem::new();
        a.insert(NodeId(0), NodeId(3), ps[0].clone());
        let mut b = PathSystem::new();
        b.insert(NodeId(0), NodeId(3), ps[1].clone());
        b.insert(
            NodeId(1),
            NodeId(4),
            bfs_path(&g, NodeId(1), NodeId(4)).unwrap(),
        );
        let u = a.union(&b);
        assert_eq!(u.num_pairs(), 2);
        assert_eq!(u.paths(NodeId(0), NodeId(3)).len(), 2);
    }

    #[test]
    fn validate_detailed_reports_broken_invariant() {
        let g = gen::cycle_graph(6);
        let mut sys = PathSystem::new();
        for p in yen_ksp(&g, NodeId(0), NodeId(3), 2, &g.unit_lengths()) {
            sys.insert(NodeId(0), NodeId(3), p);
        }
        assert_eq!(sys.validate_detailed(&g, None), Ok(()));
        assert_eq!(sys.validate_detailed(&g, Some(2)), Ok(()));
        // sparsity bound violation names the pair and the bound
        let err = sys.validate_detailed(&g, Some(1)).unwrap_err();
        assert!(err.contains("sparsity bound 1"), "{err}");
        // a path over a *different* graph is caught as out-of-bounds
        let g2 = gen::cycle_graph(3);
        let mut alien = PathSystem::new();
        alien.insert(
            NodeId(0),
            NodeId(3),
            bfs_path(&g, NodeId(0), NodeId(3)).unwrap(),
        );
        let err = alien.validate_detailed(&g2, None).unwrap_err();
        assert!(err.contains("not a simple path"), "{err}");
        assert!(!alien.validate(&g2));
    }

    #[test]
    #[should_panic(expected = "source mismatch")]
    fn rejects_wrong_endpoints() {
        let g = gen::cycle_graph(4);
        let p = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        PathSystem::new().insert(NodeId(1), NodeId(2), p);
    }

    use sor_graph::{EdgeId, NodeId};
}
