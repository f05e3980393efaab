//! Path systems (Definition 2.1): the combinatorial object a semi-oblivious
//! routing *is*.

use sor_graph::{bfs_path_avoiding, EdgeId, Graph, NodeId, Path, PathList};
use std::collections::BTreeMap;

/// A collection of candidate simple paths per ordered vertex pair.
///
/// `s`-sparsity (Definition 2.1) is `max |P_{u,v}|`. Stored paths are
/// deduplicated per pair — the paper samples *with replacement*, but a path
/// system is a set of paths, so duplicates only lower the effective
/// sparsity. Iteration order is deterministic (pairs sorted by id, paths in
/// insertion order), which keeps all seeded experiments reproducible.
///
/// Each pair's paths are one [`PathList`]: their edges back to back in one
/// vector plus where each path ends, so a pair costs two allocations however
/// many candidates it holds.
///
/// `PartialEq` compares the exact stored structure — same pairs, same
/// paths, same order — which is the round-trip contract the compact
/// snapshot codec (`sor-compact`) certifies against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathSystem {
    paths: BTreeMap<(u32, u32), PathList>,
}

/// The list [`PathSystem::paths`] hands out for a pair it does not cover.
static NO_PATHS: PathList = PathList::new(NodeId(0));

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
        let list = self.list_mut(s, t);
        let before = list.len();
        list.index_or_push(path.edges());
        list.len() > before
    }

    /// The stored list of `(s, t)`, created empty if the pair is new.
    fn list_mut(&mut self, s: NodeId, t: NodeId) -> &mut PathList {
        self.paths
            .entry((s.0, t.0))
            .or_insert_with(|| PathList::new(s))
    }

    /// Add a pair's sampled paths: `distinct` holds pairwise distinct
    /// `s → t` paths of `g` and `draws` indexes it. Paths already stored
    /// are skipped, the rest appended in order, and `draws` rewritten to
    /// index [`PathSystem::paths`]`(s, t)`. Returns how many paths were new.
    pub(crate) fn insert_draws(
        &mut self,
        g: &Graph,
        s: NodeId,
        t: NodeId,
        distinct: PathList,
        draws: &mut [u32],
    ) -> usize {
        for p in &distinct {
            assert_eq!(p.source(), s, "path source mismatch");
            assert_eq!(p.target(g), t, "path target mismatch");
        }
        let list = self.list_mut(s, t);
        if list.is_empty() {
            // a new pair: `draws` already index the list as stored
            *list = distinct;
            return list.len();
        }
        let before = list.len();
        let slots: Vec<u32> = distinct
            .iter()
            .map(|p| list.index_or_push(p.edges()))
            .collect();
        for d in draws {
            *d = slots[*d as usize];
        }
        list.len() - before
    }

    /// Candidate paths for `(s, t)` (an empty list if the pair is absent).
    pub fn paths(&self, s: NodeId, t: NodeId) -> &PathList {
        self.paths.get(&(s.0, t.0)).unwrap_or(&NO_PATHS)
    }

    /// Whether the pair has at least one candidate path.
    pub fn covers(&self, s: NodeId, t: NodeId) -> bool {
        !self.paths(s, t).is_empty()
    }

    /// Iterator over `(s, t, paths)`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, &PathList)> {
        self.paths
            .iter()
            .map(|(&(s, t), list)| (NodeId(s), NodeId(t), list))
    }

    /// Number of covered pairs.
    pub fn num_pairs(&self) -> usize {
        self.paths.len()
    }

    /// Total number of stored paths.
    pub fn total_paths(&self) -> usize {
        self.paths.values().map(PathList::len).sum()
    }

    /// The sparsity `max_{u,v} |P_{u,v}|` (0 for the empty system).
    pub fn sparsity(&self) -> usize {
        self.paths.values().map(PathList::len).max().unwrap_or(0)
    }

    /// Maximum hop length over all stored paths (the system's worst-case
    /// dilation).
    pub fn dilation(&self) -> usize {
        self.paths
            .values()
            .flat_map(|list| list.iter().map(|p| p.hops()))
            .max()
            .unwrap_or(0)
    }

    /// Remove every path that crosses any of `failed` edges (the TE
    /// failure-robustness operation: candidate sets shrink, rates are then
    /// re-adapted on the survivors). Pairs left with no paths are removed.
    pub fn without_edges(&self, failed: &[EdgeId]) -> PathSystem {
        let mut out = PathSystem::new();
        for (&(s, t), list) in &self.paths {
            let (kept, ()) = PathList::build_exact(NodeId(s), |kept| {
                for p in list {
                    if !failed.iter().any(|&e| p.contains_edge(e)) {
                        kept.push(p.edges());
                    }
                }
            });
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
        for (s, t, list) in other.pairs() {
            let into = out.list_mut(s, t);
            for p in list {
                into.index_or_push(p.edges());
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
    /// * every path is a valid simple path of `g` (edges in bounds and
    ///   consecutive),
    /// * every path runs `s → t` for its pair,
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
                let Some(path) = p.checked_path(g) else {
                    return Err(format!(
                        "pair {s}→{t} path {i} is not a simple path of the graph \
                         (out-of-bounds or non-consecutive edges)"
                    ));
                };
                if path.source() != s || path.target() != t {
                    return Err(format!(
                        "pair {s}→{t} path {i} runs {}→{} instead",
                        path.source(),
                        path.target()
                    ));
                }
                if ps.iter().take(i).any(|q| q == p) {
                    return Err(format!("pair {s}→{t} stores path {i} twice"));
                }
            }
        }
        Ok(())
    }
}

/// A test-only reference for [`PathSystem`]: every candidate an owned
/// [`Path`] in a per-pair `Vec`, the representation before [`PathList`],
/// with its operations as they were written then.
#[cfg(test)]
pub(crate) mod reference {
    use super::PathSystem;
    use sor_graph::{bfs_path_avoiding, EdgeId, Graph, NodeId, Path};
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, Default)]
    pub(crate) struct VecSystem(BTreeMap<(u32, u32), Vec<Path>>);

    impl VecSystem {
        /// The index of `path` in `(s, t)`'s paths, appending it first if
        /// it is new.
        pub(crate) fn index_or_push(&mut self, s: NodeId, t: NodeId, path: Path) -> u32 {
            let v = self.0.entry((s.0, t.0)).or_default();
            let i = v.iter().position(|q| *q == path).unwrap_or_else(|| {
                v.push(path);
                v.len() - 1
            });
            u32::try_from(i).unwrap()
        }

        pub(crate) fn insert(&mut self, s: NodeId, t: NodeId, path: Path) -> bool {
            let before = self.0.get(&(s.0, t.0)).map_or(0, Vec::len);
            self.index_or_push(s, t, path);
            self.0[&(s.0, t.0)].len() > before
        }

        pub(crate) fn without_edges(&self, failed: &[EdgeId]) -> VecSystem {
            let mut out = VecSystem::default();
            for (&(s, t), v) in &self.0 {
                let kept: Vec<Path> = v
                    .iter()
                    .filter(|p| !failed.iter().any(|&e| p.contains_edge(e)))
                    .cloned()
                    .collect();
                if !kept.is_empty() {
                    out.0.insert((s, t), kept);
                }
            }
            out
        }

        pub(crate) fn degraded(
            &self,
            g: &Graph,
            failed: &[EdgeId],
            pairs: &[(NodeId, NodeId)],
        ) -> (VecSystem, usize, Vec<(NodeId, NodeId)>) {
            let mut system = self.without_edges(failed);
            let mut fallback_pairs = 0;
            let mut unserved = Vec::new();
            for &(s, t) in pairs {
                if system.0.contains_key(&(s.0, t.0)) {
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

        pub(crate) fn union(&self, other: &VecSystem) -> VecSystem {
            let mut out = self.clone();
            for (&(s, t), v) in &other.0 {
                for p in v {
                    out.insert(NodeId(s), NodeId(t), p.clone());
                }
            }
            out
        }

        /// `system` holds the same pairs with the same paths in the same
        /// order.
        pub(crate) fn assert_matches(&self, system: &PathSystem, g: &Graph) {
            let got: Vec<((u32, u32), Vec<Path>)> = system
                .pairs()
                .map(|(s, t, list)| ((s.0, t.0), list.iter().map(|p| p.to_path(g)).collect()))
                .collect();
            let want: Vec<((u32, u32), Vec<Path>)> =
                self.0.iter().map(|(&k, v)| (k, v.clone())).collect();
            assert_eq!(got, want);
            assert_eq!(system.total_paths(), self.0.values().map(Vec::len).sum());
            assert_eq!(
                system.dilation(),
                self.0.values().flatten().map(Path::hops).max().unwrap_or(0)
            );
        }
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
        assert_eq!(emergency.get(0).hops(), 5);
        assert!(!emergency.get(0).contains_edge(EdgeId(1)));
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
        // so is a trivial path at a vertex the graph does not have
        let mut outside = PathSystem::new();
        outside.insert(NodeId(99), NodeId(99), sor_graph::Path::trivial(NodeId(99)));
        let err = outside.validate_detailed(&g, None).unwrap_err();
        assert!(err.contains("not a simple path"), "{err}");
    }

    #[test]
    #[should_panic(expected = "source mismatch")]
    fn rejects_wrong_endpoints() {
        let g = gen::cycle_graph(4);
        let p = bfs_path(&g, NodeId(0), NodeId(2)).unwrap();
        PathSystem::new().insert(NodeId(1), NodeId(2), p);
    }

    /// A multigraph: the cycle 0-1-2-3-4-5-0 (edge i joins i and i+1),
    /// each of its first three edges doubled (edges 6, 7, 8), plus the
    /// chords 0-3 and 1-4 (edges 9, 10).
    fn doubled_cycle() -> Graph {
        let mut g = gen::cycle_graph(6);
        for i in 0..3 {
            g.add_unit_edge(NodeId(i), NodeId(i + 1));
        }
        g.add_unit_edge(NodeId(0), NodeId(3));
        g.add_unit_edge(NodeId(1), NodeId(4));
        g
    }

    /// Every simple path `s → t` of `g`, in DFS order.
    fn simple_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Path> {
        sor_flow::exact::all_simple_paths(g, s, t)
    }

    /// A system and its reference, built by the same inserts: for each
    /// pair, every `stride`-th simple path from `offset` on, then the
    /// first few again (duplicates).
    fn systems(g: &Graph, stride: usize, offset: usize) -> (PathSystem, VecSystem) {
        let mut sys = PathSystem::new();
        let mut reference = VecSystem::default();
        for (s, t) in [(0, 3), (3, 0), (1, 4), (2, 5), (0, 1)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let all = simple_paths(g, s, t);
            let picked: Vec<&Path> = all.iter().skip(offset).step_by(stride).collect();
            for p in picked.iter().chain(picked.iter().take(2)) {
                assert_eq!(
                    sys.insert(s, t, (*p).clone()),
                    reference.insert(s, t, (*p).clone())
                );
            }
        }
        (sys, reference)
    }

    #[test]
    fn operations_match_the_vec_reference() {
        let g = doubled_cycle();
        let (a, ref_a) = systems(&g, 3, 0);
        let (b, ref_b) = systems(&g, 2, 1);
        ref_a.assert_matches(&a, &g);
        ref_b.assert_matches(&b, &g);
        assert!(a.validate(&g) && b.validate(&g));
        ref_a.union(&ref_b).assert_matches(&a.union(&b), &g);
        ref_b.union(&ref_a).assert_matches(&b.union(&a), &g);

        let pairs: Vec<(NodeId, NodeId)> = [(0, 3), (3, 0), (1, 4), (2, 5), (0, 1), (4, 2)]
            .iter()
            .map(|&(s, t)| (NodeId(s), NodeId(t)))
            .collect();
        let failures: [&[u32]; 6] = [&[], &[0], &[6], &[0, 6], &[9, 10, 3], &[0, 5, 6, 9]];
        for failed in failures {
            let failed: Vec<EdgeId> = failed.iter().map(|&e| EdgeId(e)).collect();
            for (sys, reference) in [(&a, &ref_a), (&b, &ref_b)] {
                reference
                    .without_edges(&failed)
                    .assert_matches(&sys.without_edges(&failed), &g);
                let (got, got_fallback, got_unserved) = sys.degraded(&g, &failed, &pairs);
                let (want, want_fallback, want_unserved) = reference.degraded(&g, &failed, &pairs);
                want.assert_matches(&got, &g);
                assert_eq!((got_fallback, got_unserved), (want_fallback, want_unserved));
            }
        }
    }

    #[test]
    fn parallel_edges_are_distinct_paths() {
        // 0→1 over edge 0 or its twin 6: equal vertices, distinct paths.
        let g = doubled_cycle();
        let over = |e: u32| Path::from_edges(&g, NodeId(0), vec![EdgeId(e)]).unwrap();
        let mut sys = PathSystem::new();
        assert!(sys.insert(NodeId(0), NodeId(1), over(0)));
        assert!(sys.insert(NodeId(0), NodeId(1), over(6)));
        assert!(!sys.insert(NodeId(0), NodeId(1), over(0)));
        assert_eq!(over(0).nodes(), over(6).nodes());
        assert_eq!(sys.paths(NodeId(0), NodeId(1)).len(), 2);
        assert_eq!(sys.validate_detailed(&g, Some(2)), Ok(()));
    }

    #[test]
    fn absent_pairs_read_as_empty_lists() {
        let sys = PathSystem::new();
        assert!(sys.paths(NodeId(4), NodeId(2)).is_empty());
        assert!(!sys.covers(NodeId(4), NodeId(2)));
        assert_eq!(
            (sys.sparsity(), sys.dilation(), sys.total_paths()),
            (0, 0, 0)
        );
    }

    use super::reference::VecSystem;
    use sor_graph::{EdgeId, NodeId};
}
