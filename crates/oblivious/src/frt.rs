//! FRT random tree embeddings (Fakcharoenphol–Rao–Talwar) adapted for
//! congestion trees.
//!
//! Räcke's O(log n) oblivious routing \[Räc08\] is a convex combination of
//! hierarchical decomposition trees built by repeatedly embedding the graph
//! metric into a random HST and penalizing congested edges. This module
//! provides the single-tree building block:
//!
//! * random permutation `π` + random `β ∈ [1,2)`,
//! * level-`i` clusters: each vertex joins the `π`-minimal center within
//!   distance `β·2^i`, refining the parent partition; the center is read
//!   off the vertex's least-element list, so no all-pairs distance matrix
//!   is built,
//! * every cluster gets a physical *leader* vertex inside it; the tree edge
//!   to the parent cluster is mapped to a shortest physical path between
//!   the two leaders under the construction metric,
//! * each cluster records the total capacity leaving it (`cut_capacity`),
//!   which is how much load any congestion-1 demand can push across the
//!   corresponding tree edge — the quantity Räcke's MWU penalizes.

use rand::seq::SliceRandom;
use rand::Rng;
use sor_graph::{DijkstraSearch, Graph, LoopErasedWalk, NodeId, Path};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One node (cluster) of an FRT decomposition tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Parent cluster index (`None` for the root).
    pub parent: Option<usize>,
    /// Child cluster indices.
    pub children: Vec<usize>,
    /// Representative graph vertex inside the cluster.
    pub leader: NodeId,
    /// Vertices of the cluster.
    pub vertices: Vec<NodeId>,
    /// Physical path `leader → parent.leader` under the construction
    /// metric (`None` for the root or when the leaders coincide — then it
    /// is a trivial path).
    pub up_path: Option<Path>,
    /// Total capacity of graph edges leaving the cluster.
    pub cut_capacity: f64,
}

/// A rooted FRT decomposition tree with physical path mappings.
#[derive(Clone, Debug)]
pub struct FrtTree {
    nodes: Vec<TreeNode>,
    /// Leaf (singleton cluster) index of each graph vertex.
    leaf_of: Vec<usize>,
}

/// Least-element lists (Cohen 1997) for the center order `pi`: entry `v`
/// lists, in `pi` order, every center `u` whose distance `d(u, v)` is
/// strictly below that of all earlier centers, together with `d(u, v)`.
/// The π-first center within any radius `r` of `v` is therefore the
/// first entry with `d ≤ r`, and each list has O(log n) expected length.
///
/// One Dijkstra per center, in `pi` order, settles only the vertices it
/// reaches strictly closer than every earlier center did, and never
/// pushes a vertex it reaches no closer. Pruning a vertex never hides a
/// later list entry: if an earlier center reaches `w` at least as
/// closely, it reaches every vertex past `w` at least as closely too.
/// Also returns the eccentricity of `pi[0]`, whose search nothing prunes.
fn least_element_lists(
    g: &Graph,
    lengths: &[f64],
    pi: &[NodeId],
    search: &mut DijkstraSearch,
) -> (Vec<Vec<(NodeId, f64)>>, f64) {
    let n = g.num_nodes();
    let mut best = vec![f64::INFINITY; n];
    let mut lists: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    let mut ecc = 0.0;
    for (i, &u) in pi.iter().enumerate() {
        search.settle_pruned(g, u, lengths, &mut best, |v, d| {
            lists[v.index()].push((u, d));
        });
        if i == 0 {
            ecc = best.iter().copied().fold(0.0, f64::max);
            assert!(ecc.is_finite(), "FRT needs a connected graph");
        }
    }
    (lists, ecc)
}

/// Reused by every [`tree_route`] on a thread, so a route allocates only
/// the path it returns.
#[derive(Default)]
struct RouteBuffers {
    walk: LoopErasedWalk,
    s_chain: Vec<usize>,
    t_chain: Vec<usize>,
}

thread_local! {
    static ROUTE_BUFFERS: Cell<RouteBuffers> = Cell::new(RouteBuffers::default());
}

/// Route `s → t` through a rooted cluster tree whose leaves of `s` and
/// `t` are `leaves`: the up-paths from `s`'s leaf to just below the lowest
/// common ancestor, then the up-paths from there down to `t`'s leaf walked
/// backwards, loop-erased in one pass. `parent` and `up_path` read the
/// tree; a cluster without an up-path is skipped.
pub(crate) fn tree_route<'a>(
    s: NodeId,
    t: NodeId,
    leaves: (usize, usize),
    parent: impl Fn(usize) -> Option<usize>,
    up_path: impl Fn(usize) -> Option<&'a Path>,
) -> Path {
    if s == t {
        return Path::trivial(s);
    }
    ROUTE_BUFFERS.with(|cell| {
        let mut buffers = cell.take();
        let RouteBuffers {
            walk,
            s_chain,
            t_chain,
        } = &mut buffers;
        for (chain, leaf) in [(&mut *s_chain, leaves.0), (&mut *t_chain, leaves.1)] {
            chain.clear();
            let mut i = leaf;
            chain.push(i);
            while let Some(p) = parent(i) {
                i = p;
                chain.push(i);
            }
        }
        // Trim the shared ancestors: what is left lies strictly below the
        // lowest common ancestor on each side.
        let (mut a, mut b) = (s_chain.len(), t_chain.len());
        while a > 0 && b > 0 && s_chain[a - 1] == t_chain[b - 1] {
            a -= 1;
            b -= 1;
        }
        walk.start(s);
        for &i in &s_chain[..a] {
            if let Some(up) = up_path(i) {
                walk.follow(up);
            }
        }
        for &i in t_chain[..b].iter().rev() {
            if let Some(up) = up_path(i) {
                walk.follow_reversed(up);
            }
        }
        debug_assert_eq!(walk.head(), t);
        let path = walk.to_path();
        cell.set(buffers);
        path
    })
}

/// The vertex count from which [`up_path_workers`] runs the up-path
/// searches on every core. Below it a thread's start-up costs more than
/// it saves (DESIGN.md, "FRT from least-element lists", has the measured
/// break-even).
const PARALLEL_MIN_NODES: usize = 512;

/// How many workers [`up_paths`] gets on a graph of `n` vertices: one
/// below [`PARALLEL_MIN_NODES`], every core from there on.
pub(crate) fn up_path_workers(n: usize) -> usize {
    if n < PARALLEL_MIN_NODES {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// The physical up-paths of a cluster tree. `links[c]` is `Some((leader
/// of c, leader of c's parent))`, `None` at the root; entry `c` of the
/// result is the shortest path under `lengths` from `c`'s leader to its
/// parent's (trivial when they coincide), `None` at the root.
///
/// A leader heads a chain of nested clusters, so the searches are grouped
/// by parent leader: one search from each distinct parent leader, stopped
/// once the leaders of the children of every cluster it leads are
/// settled, yields all their paths. A stopped search's settled prefix
/// carries the full search's distance bits and parent edges, so every
/// path is the full search's. The searches are independent: `workers`
/// threads (the caller's, with `search`, and `workers - 1` more, each with
/// its own workspace) claim them in first-appearance order off a shared
/// counter, and each path lands at its cluster's index, so the result
/// does not depend on `workers`.
pub(crate) fn up_paths(
    g: &Graph,
    lengths: &[f64],
    links: &[Option<(NodeId, NodeId)>],
    workers: usize,
    search: &mut DijkstraSearch,
) -> Vec<Option<Path>> {
    // One job per distinct parent leader, found through a vertex-indexed
    // array: the leader, and each cluster whose parent it leads with the
    // cluster's own leader.
    let mut job_of = vec![usize::MAX; g.num_nodes()];
    let mut jobs: Vec<(NodeId, Vec<(usize, NodeId)>)> = Vec::new();
    for (c, link) in links.iter().enumerate() {
        let Some((own, up)) = *link else { continue };
        match job_of[up.index()] {
            usize::MAX => {
                job_of[up.index()] = jobs.len();
                jobs.push((up, vec![(c, own)]));
            }
            j => jobs[j].1.push((c, own)),
        }
    }
    // The counter only hands out job indices: the jobs are written before
    // any helper starts and the paths come back through `join`, so it
    // publishes nothing and `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = |search: &mut DijkstraSearch| {
        let mut found: Vec<(usize, Path)> = Vec::new();
        let mut targets: Vec<NodeId> = Vec::new();
        while let Some((source, children)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            targets.clear();
            targets.extend(children.iter().map(|&(_, own)| own));
            search.settle(g, *source, lengths, &targets);
            for &(c, own) in children {
                let path = search
                    .path_to(g, own)
                    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                    .expect("connected graph")
                    .reversed();
                found.push((c, path));
            }
        }
        found
    };
    let found = std::thread::scope(|scope| {
        // A helper that fails to start leaves its share to the others.
        let helpers: Vec<_> = (1..workers.min(jobs.len()))
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, || {
                        work(&mut DijkstraSearch::with_nodes(g.num_nodes()))
                    })
                    .ok()
            })
            .collect();
        let mut found = work(search);
        for helper in helpers {
            found.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        found
    });
    let mut paths = vec![None; links.len()];
    for (c, path) in found {
        paths[c] = Some(path);
    }
    paths
}

impl FrtTree {
    /// Build a random FRT tree over `g` with the metric induced by
    /// per-edge `lengths` (all strictly positive). On a graph of at least
    /// 512 vertices the up-path searches run on every core; the tree is
    /// the same on any number of cores.
    pub fn build<R: Rng + ?Sized>(g: &Graph, lengths: &[f64], rng: &mut R) -> Self {
        Self::build_on(g, lengths, rng, up_path_workers(g.num_nodes()))
    }

    /// [`FrtTree::build`] with its up-path searches on `workers` threads,
    /// whatever the graph's size. The tree does not depend on `workers`.
    pub(crate) fn build_on<R: Rng + ?Sized>(
        g: &Graph,
        lengths: &[f64],
        rng: &mut R,
        workers: usize,
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(lengths.len(), g.num_edges());
        assert!(
            lengths.iter().all(|&l| l > 0.0 && l.is_finite()),
            "FRT needs strictly positive finite lengths"
        );
        if n == 1 {
            let node = TreeNode {
                parent: None,
                children: Vec::new(),
                leader: NodeId(0),
                vertices: vec![NodeId(0)],
                up_path: None,
                cut_capacity: 0.0,
            };
            return FrtTree {
                nodes: vec![node],
                leaf_of: vec![0],
            };
        }

        // Random permutation and β ∈ [1, 2).
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();
        let mut rank = vec![0usize; n];
        for (i, &u) in pi.iter().enumerate() {
            rank[u.index()] = i;
        }

        let mut search = DijkstraSearch::with_nodes(n);
        let (lists, ecc) = least_element_lists(g, lengths, &pi, &mut search);
        // Top level: β·2^top ≥ 2·ecc(π₀) ≥ diameter, so everything fits in
        // one cluster.
        #[allow(clippy::cast_possible_truncation)]
        let top = (2.0 * ecc).log2().ceil() as i32 + 1;
        // Bottom level: β·2^bottom < dmin forces singletons; the closest
        // pair of vertices is the shortest edge.
        let dmin = lengths.iter().copied().fold(f64::INFINITY, f64::min);
        #[allow(clippy::cast_possible_truncation)]
        let bottom = (dmin.log2().floor() as i32) - 2;

        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut leaf_of = vec![usize::MAX; n];

        let root_vertices: Vec<NodeId> = g.nodes().collect();
        let root_leader = pi[0];
        nodes.push(TreeNode {
            parent: None,
            children: Vec::new(),
            leader: root_leader,
            vertices: root_vertices,
            up_path: None,
            cut_capacity: 0.0,
        });

        // Refine level by level. `frontier` holds indices of clusters that
        // are not yet singletons; `group_of[c]` is the index in `groups` of
        // center `c`'s group within the cluster being split.
        let mut frontier = vec![0usize];
        let mut group_of = vec![usize::MAX; n];
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom, "FRT refinement failed to reach singletons");
            let radius = beta * (level as f64).exp2();
            let mut next_frontier = Vec::new();
            for &ci in &frontier {
                // Partition nodes[ci].vertices by their first π-center
                // within `radius`. Take the vertex list (pushing children
                // below needs `nodes` mutably) and restore it afterwards —
                // no per-level copy.
                let verts = std::mem::take(&mut nodes[ci].vertices);
                let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
                for &v in &verts {
                    let (center, _) = *lists[v.index()]
                        .iter()
                        .find(|&&(_, d)| d <= radius)
                        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                        .expect("v's own entry, at distance 0, qualifies at any radius");
                    match group_of[center.index()] {
                        usize::MAX => {
                            group_of[center.index()] = groups.len();
                            groups.push((center, vec![v]));
                        }
                        gi => groups[gi].1.push(v),
                    }
                }
                for &(center, _) in &groups {
                    group_of[center.index()] = usize::MAX;
                }
                if groups.len() == 1 && verts.len() > 1 {
                    // No refinement at this level — reuse the node at the
                    // next level instead of stacking unary chains.
                    nodes[ci].vertices = verts;
                    next_frontier.push(ci);
                    continue;
                }
                nodes[ci].vertices = verts;
                for (_, vs) in groups {
                    // Leader: the center itself if inside, else the
                    // π-minimal member. No member precedes the center in π
                    // (each member is within `radius` of itself), so both
                    // cases are the π-minimal member.
                    let leader = vs.iter().copied().fold(vs[0], |a, b| {
                        if rank[b.index()] < rank[a.index()] {
                            b
                        } else {
                            a
                        }
                    });
                    let singleton = vs.len() == 1;
                    let idx = nodes.len();
                    nodes.push(TreeNode {
                        parent: Some(ci),
                        children: Vec::new(),
                        leader,
                        vertices: vs,
                        up_path: None, // filled below
                        cut_capacity: 0.0,
                    });
                    nodes[ci].children.push(idx);
                    if singleton {
                        let v = nodes[idx].vertices[0];
                        leaf_of[v.index()] = idx;
                    } else {
                        next_frontier.push(idx);
                    }
                }
            }
            frontier = next_frontier;
            level -= 1;
        }

        // Cut capacities: an edge leaves exactly the clusters strictly
        // below the lowest common ancestor of its endpoints' leaves.
        // Charging edges in edge order adds each cluster's terms in the
        // same order as a scan over all edges per cluster would.
        let mut depth = vec![0usize; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                depth[i] = depth[p] + 1;
            }
        }
        for e in g.edges() {
            let (mut a, mut b) = (leaf_of[e.u.index()], leaf_of[e.v.index()]);
            while a != b {
                let side = if depth[a] >= depth[b] { &mut a } else { &mut b };
                nodes[*side].cut_capacity += e.cap;
                // The deeper side of two distinct clusters is never the root.
                let Some(p) = nodes[*side].parent else { break };
                *side = p;
            }
        }

        let links: Vec<_> = nodes
            .iter()
            .map(|node| node.parent.map(|p| (node.leader, nodes[p].leader)))
            .collect();
        let paths = up_paths(g, lengths, &links, workers, &mut search);
        for (node, path) in nodes.iter_mut().zip(paths) {
            node.up_path = path;
        }

        debug_assert!(leaf_of.iter().all(|&l| l != usize::MAX));
        FrtTree { nodes, leaf_of }
    }

    /// All tree nodes (index 0 is the root).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Leaf cluster index of graph vertex `v`.
    pub fn leaf(&self, v: NodeId) -> usize {
        self.leaf_of[v.index()]
    }

    /// The physical path obtained by routing `s → t` through the tree:
    /// up-paths to the lowest common ancestor, then down-paths, all
    /// concatenated and loop-erased.
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        tree_route(
            s,
            t,
            (self.leaf(s), self.leaf(t)),
            |i| self.nodes[i].parent,
            |i| self.nodes[i].up_path.as_ref(),
        )
    }

    /// Räcke relative load: for each graph edge, the total cut capacity of
    /// tree edges whose physical path crosses it, divided by the edge's
    /// capacity. This upper-bounds the congestion this tree inflicts on
    /// any demand routable with congestion 1 in `g`.
    pub fn relative_loads(&self, g: &Graph) -> Vec<f64> {
        let mut load = vec![0.0; g.num_edges()];
        for node in &self.nodes {
            if let Some(up) = &node.up_path {
                for &e in up.edges() {
                    load[e.index()] += node.cut_capacity;
                }
            }
        }
        for (l, e) in load.iter_mut().zip(g.edges()) {
            *l /= e.cap;
        }
        load
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (trees are nonempty).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{dijkstra, gen};

    fn check_tree(g: &Graph, tree: &FrtTree) {
        // Root covers everything; leaves are singletons; children
        // partition parents.
        assert_eq!(tree.nodes()[0].vertices.len(), g.num_nodes());
        for v in g.nodes() {
            let l = tree.leaf(v);
            assert_eq!(tree.nodes()[l].vertices, vec![v]);
        }
        for (i, node) in tree.nodes().iter().enumerate() {
            if !node.children.is_empty() {
                let mut union: Vec<NodeId> = Vec::new();
                for &c in &node.children {
                    assert_eq!(tree.nodes()[c].parent, Some(i));
                    union.extend_from_slice(&tree.nodes()[c].vertices);
                }
                let mut a = union.clone();
                a.sort();
                a.dedup();
                assert_eq!(a.len(), union.len(), "children overlap");
                let mut b = node.vertices.clone();
                b.sort();
                assert_eq!(a, b, "children don't partition parent");
                // leaders live inside their cluster
                assert!(node.vertices.contains(&node.leader));
            }
        }
    }

    /// Reference construction: the π-first center within each radius is
    /// read off an all-pairs distance matrix, and every cut capacity and
    /// up-path comes from its own full scan or Dijkstra.
    fn build_apsp<R: Rng + ?Sized>(g: &Graph, lengths: &[f64], rng: &mut R) -> FrtTree {
        let n = g.num_nodes();
        let dist: Vec<Vec<f64>> = g.nodes().map(|s| dijkstra(g, s, lengths).dist).collect();
        let mut dmax: f64 = 0.0;
        let mut dmin = f64::INFINITY;
        for (i, row) in dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                if i != j {
                    assert!(d.is_finite(), "FRT needs a connected graph");
                    dmax = dmax.max(d);
                    dmin = dmin.min(d);
                }
            }
        }
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();
        #[allow(clippy::cast_possible_truncation)]
        let top = dmax.log2().ceil() as i32 + 1;
        #[allow(clippy::cast_possible_truncation)]
        let bottom = (dmin.log2().floor() as i32) - 2;
        let mut nodes = vec![TreeNode {
            parent: None,
            children: Vec::new(),
            leader: pi[0],
            vertices: g.nodes().collect(),
            up_path: None,
            cut_capacity: 0.0,
        }];
        let mut leaf_of = vec![usize::MAX; n];
        let mut frontier = vec![0usize];
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom);
            let radius = beta * (level as f64).exp2();
            let mut next_frontier = Vec::new();
            for &ci in &frontier {
                let verts = nodes[ci].vertices.clone();
                let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
                for &v in &verts {
                    let center = *pi
                        .iter()
                        .find(|u| dist[u.index()][v.index()] <= radius)
                        .unwrap();
                    match groups.iter_mut().find(|(c, _)| *c == center) {
                        Some((_, vs)) => vs.push(v),
                        None => groups.push((center, vec![v])),
                    }
                }
                if groups.len() == 1 && verts.len() > 1 {
                    next_frontier.push(ci);
                    continue;
                }
                for (center, vs) in groups {
                    let leader = if vs.contains(&center) {
                        center
                    } else {
                        *pi.iter().find(|u| vs.contains(u)).unwrap()
                    };
                    let idx = nodes.len();
                    if vs.len() == 1 {
                        leaf_of[vs[0].index()] = idx;
                    } else {
                        next_frontier.push(idx);
                    }
                    nodes.push(TreeNode {
                        parent: Some(ci),
                        children: Vec::new(),
                        leader,
                        vertices: vs,
                        up_path: None,
                        cut_capacity: 0.0,
                    });
                    nodes[ci].children.push(idx);
                }
            }
            frontier = next_frontier;
            level -= 1;
        }
        for node in &mut nodes {
            let inside = |v: NodeId| node.vertices.contains(&v);
            let mut cut = 0.0;
            for e in g.edges() {
                if inside(e.u) != inside(e.v) {
                    cut += e.cap;
                }
            }
            node.cut_capacity = cut;
        }
        for p in 0..nodes.len() {
            let tree = dijkstra(g, nodes[p].leader, lengths);
            for c in nodes[p].children.clone() {
                let path = tree.path_to(g, nodes[c].leader).unwrap().reversed();
                nodes[c].up_path = Some(path);
            }
        }
        FrtTree { nodes, leaf_of }
    }

    fn assert_same_tree(a: &FrtTree, b: &FrtTree) {
        assert_eq!(a.leaf_of, b.leaf_of);
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.parent, y.parent);
            assert_eq!(x.children, y.children);
            assert_eq!(x.leader, y.leader);
            assert_eq!(x.vertices, y.vertices);
            assert_eq!(x.up_path, y.up_path);
            assert_eq!(x.cut_capacity.to_bits(), y.cut_capacity.to_bits());
        }
    }

    /// The six graphs of the tree-build reference test, each once with
    /// unit capacities and lengths and once with random capacities and
    /// lengths (the random capacities make the order in which cut
    /// capacities are summed show in the bits).
    pub(crate) fn reference_instances() -> Vec<(Graph, Vec<f64>)> {
        let mut grng = StdRng::seed_from_u64(17);
        let graphs = [
            gen::grid(5, 6),
            gen::hypercube(5),
            gen::cycle_graph(13),
            gen::path_graph(11),
            gen::random_regular(40, 4, &mut grng),
            gen::abilene(),
        ];
        let mut out = Vec::new();
        for (gi, unit) in graphs.into_iter().enumerate() {
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
        out
    }

    /// Every reference instance lies below the worker gate, so the build
    /// runs once as `build` would (one worker) and once with two.
    #[test]
    fn least_element_build_matches_apsp_reference() {
        for (g, lengths) in reference_instances() {
            assert_eq!(up_path_workers(g.num_nodes()), 1);
            for seed in 0..4 {
                let reference = build_apsp(&g, &lengths, &mut StdRng::seed_from_u64(seed));
                for workers in [1, 2] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let fast = FrtTree::build_on(&g, &lengths, &mut rng, workers);
                    assert_same_tree(&fast, &reference);
                }
            }
        }
    }

    /// Above the gate, one worker and two build the same tree, on a
    /// random regular graph (random lengths) and a grid (unit lengths,
    /// which tie).
    #[test]
    fn parallel_up_paths_match_one_worker() {
        let mut grng = StdRng::seed_from_u64(5);
        let expander = gen::random_regular(PARALLEL_MIN_NODES, 4, &mut grng);
        let random: Vec<f64> = (0..expander.num_edges())
            .map(|_| 0.1 + 4.0 * grng.gen::<f64>())
            .collect();
        let grid = gen::grid(24, 24);
        let unit = grid.unit_lengths();
        for (g, lengths) in [(&expander, &random), (&grid, &unit)] {
            assert!(g.num_nodes() >= PARALLEL_MIN_NODES);
            for seed in 0..2 {
                let one = FrtTree::build_on(g, lengths, &mut StdRng::seed_from_u64(seed), 1);
                let two = FrtTree::build_on(g, lengths, &mut StdRng::seed_from_u64(seed), 2);
                assert_same_tree(&one, &two);
            }
        }
    }

    /// Reference join: concatenate `a` and `b` and excise loops through a
    /// vertex → position `HashMap` rebuilt per join, as routes were built
    /// before the one-pass [`LoopErasedWalk`].
    fn join_with_map(g: &Graph, a: &Path, b: &Path) -> Path {
        assert_eq!(a.target(), b.source(), "chained at leader");
        let nodes: Vec<NodeId> = a.nodes().iter().chain(&b.nodes()[1..]).copied().collect();
        let edges: Vec<_> = a.edges().iter().chain(b.edges()).copied().collect();
        let mut pos: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        let mut out_nodes: Vec<NodeId> = Vec::new();
        let mut out_edges = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            if let Some(&j) = pos.get(&v) {
                for dropped in out_nodes.drain(j + 1..) {
                    pos.remove(&dropped);
                }
                out_edges.truncate(j);
            } else {
                if i > 0 {
                    out_edges.push(edges[i - 1]);
                }
                pos.insert(v, out_nodes.len());
                out_nodes.push(v);
            }
        }
        let path = Path::from_edges(g, a.source(), out_edges).unwrap();
        assert_eq!(path.nodes(), &out_nodes[..]);
        path
    }

    /// Reference route: both ancestor chains collected, then one join per
    /// tree level, the trivial path at `s` first.
    pub(crate) fn join_chain_route<'a>(
        g: &Graph,
        s: NodeId,
        t: NodeId,
        leaves: (usize, usize),
        parent: impl Fn(usize) -> Option<usize>,
        up_path: impl Fn(usize) -> Option<&'a Path>,
    ) -> Path {
        if s == t {
            return Path::trivial(s);
        }
        let chain = |leaf: usize| {
            let mut c = vec![leaf];
            while let Some(p) = parent(c[c.len() - 1]) {
                c.push(p);
            }
            c
        };
        let (sa, ta) = (chain(leaves.0), chain(leaves.1));
        let (mut a, mut b) = (sa.len(), ta.len());
        while a > 0 && b > 0 && sa[a - 1] == ta[b - 1] {
            a -= 1;
            b -= 1;
        }
        let mut path = Path::trivial(s);
        for &i in &sa[..a] {
            if let Some(up) = up_path(i) {
                path = join_with_map(g, &path, up);
            }
        }
        for &i in ta[..b].iter().rev() {
            if let Some(up) = up_path(i) {
                path = join_with_map(g, &path, &up.reversed());
            }
        }
        path
    }

    #[test]
    fn one_pass_route_matches_level_by_level_joins() {
        for (g, lengths) in reference_instances() {
            for seed in 0..2 {
                let tree = FrtTree::build(&g, &lengths, &mut StdRng::seed_from_u64(seed));
                for s in g.nodes() {
                    for t in g.nodes() {
                        let reference = join_chain_route(
                            &g,
                            s,
                            t,
                            (tree.leaf(s), tree.leaf(t)),
                            |i| tree.nodes[i].parent,
                            |i| tree.nodes[i].up_path.as_ref(),
                        );
                        let path = tree.route(s, t);
                        assert_eq!(path, reference, "{s}->{t}");
                        assert_eq!(path.nodes().len(), path.hops() + 1);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "FRT needs a connected graph")]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(2), NodeId(3));
        FrtTree::build(&g, &g.unit_lengths(), &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn tree_structure_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        check_tree(&g, &tree);
    }

    #[test]
    fn tree_structure_on_hypercube() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(5);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        check_tree(&g, &tree);
    }

    #[test]
    fn routes_are_valid_paths() {
        let g = gen::grid(3, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        for s in g.nodes() {
            for t in g.nodes() {
                let p = tree.route(s, t);
                assert!(p.validate(&g));
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
            }
        }
    }

    #[test]
    fn single_vertex_tree() {
        let g = Graph::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let tree = FrtTree::build(&g, &[], &mut rng);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.route(NodeId(0), NodeId(0)).hops(), 0);
    }

    #[test]
    fn relative_loads_nonnegative_and_finite() {
        let g = gen::cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        for &l in &tree.relative_loads(&g) {
            assert!(l >= 0.0 && l.is_finite());
        }
    }

    #[test]
    fn stretch_is_moderate_on_path() {
        // Expected stretch of FRT is O(log n); check a loose bound on the
        // average over pairs for a path graph (hard case for trees).
        let g = gen::path_graph(16);
        let mut rng = StdRng::seed_from_u64(11);
        let mut total_ratio = 0.0;
        let mut count = 0.0;
        let trees: Vec<FrtTree> = (0..4)
            .map(|_| FrtTree::build(&g, &g.unit_lengths(), &mut rng))
            .collect();
        for s in g.nodes() {
            for t in g.nodes() {
                if s >= t {
                    continue;
                }
                let d = (t.0 as f64 - s.0 as f64).abs();
                let avg: f64 = trees
                    .iter()
                    .map(|tr| tr.route(s, t).hops() as f64)
                    .sum::<f64>()
                    / trees.len() as f64;
                total_ratio += avg / d;
                count += 1.0;
            }
        }
        let mean_stretch = total_ratio / count;
        assert!(mean_stretch < 12.0, "mean stretch {mean_stretch} too large");
        assert!(mean_stretch >= 1.0 - 1e-9);
    }

    use sor_graph::{Graph, NodeId};
}
