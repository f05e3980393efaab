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
//!
//! Trees are stored flat ([`ClusterTree`]); the spectral hierarchies of
//! [`crate::hierarchy`] use the same layout.

use rand::seq::SliceRandom;
use rand::Rng;
use sor_graph::{DijkstraSearch, EdgeId, Graph, LoopErasedWalk, NodeId, Path, PathList};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `u32` entry that names no index: the root's parent, and a slot not
/// yet filled.
const NONE: u32 = u32::MAX;

/// A cluster or arena index as stored: the arrays hold `u32`s.
fn stored(i: usize) -> u32 {
    // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
    u32::try_from(i).expect("cluster tree index exceeds u32 range")
}

/// A rooted laminar cluster tree over a graph's vertices, stored as flat
/// per-cluster arrays (cluster 0 is the root). [`ClusterTree::frt`]
/// builds an FRT tree, [`ClusterTree::spectral`] a spectral hierarchy.
///
/// * A parent precedes its children, and the children of one cluster are
///   consecutive, so [`ClusterTree::children`] is an index range.
/// * Every cluster's vertices are one range of a single vertex array kept
///   in DFS leaf order: the children partition their parent's range in
///   child order, a leaf's range is its one vertex, and the root's range
///   lists every vertex in preorder leaf order.
/// * Every up-path is one run of a single `(edge, vertex)` arena, in
///   cluster order: the steps from the cluster's leader to its parent's.
#[derive(Clone, Debug)]
pub struct ClusterTree {
    parent: Vec<u32>,
    depth: Vec<u32>,
    leader: Vec<NodeId>,
    cut_capacity: Vec<f64>,
    /// Cluster `c`'s children are `children[c].0..children[c].1`.
    children: Vec<(u32, u32)>,
    /// Cluster `c`'s vertices are `order[span[c].0..span[c].1]`.
    span: Vec<(u32, u32)>,
    order: Vec<NodeId>,
    /// Cluster `c`'s up-path is `steps[up_start[c]..up_start[c + 1]]`.
    up_start: Vec<u32>,
    steps: Vec<(EdgeId, NodeId)>,
    /// Leaf (singleton cluster) of each graph vertex.
    leaf_of: Vec<u32>,
}

/// Reused by every route through a tree on a thread, so
/// [`ClusterTree::route`] allocates only the path it returns and
/// [`ClusterTree::route_into`] nothing but list growth.
#[derive(Default)]
struct RouteBuffers {
    walk: LoopErasedWalk,
    /// The clusters below the lowest common ancestor on `t`'s side.
    down: Vec<usize>,
}

thread_local! {
    static ROUTE_BUFFERS: Cell<RouteBuffers> = Cell::new(RouteBuffers::default());
}

impl ClusterTree {
    /// A tree of one cluster holding `order`, led by `leader`; builders
    /// refine it with [`ClusterTree::push_child`] and end with
    /// [`ClusterTree::finish`].
    pub(crate) fn with_root(order: Vec<NodeId>, leader: NodeId) -> Self {
        ClusterTree {
            parent: vec![NONE],
            depth: vec![0],
            leader: vec![leader],
            cut_capacity: vec![0.0],
            children: vec![(0, 0)],
            span: vec![(0, stored(order.len()))],
            order,
            up_start: Vec::new(),
            steps: Vec::new(),
            leaf_of: Vec::new(),
        }
    }

    /// Add a child of `parent` over the next `size` vertices of the
    /// parent's range, led by `leader`, and return its index. The children
    /// of one cluster are pushed one after another, so their ranges
    /// partition the parent's in push order.
    pub(crate) fn push_child(&mut self, parent: usize, size: usize, leader: NodeId) -> usize {
        let c = self.parent.len();
        let slot = &mut self.children[parent];
        let start = if slot.0 == slot.1 {
            *slot = (stored(c), stored(c));
            self.span[parent].0
        } else {
            self.span[c - 1].1
        };
        debug_assert_eq!(slot.1 as usize, c, "children must be consecutive");
        slot.1 += 1;
        let end = start + stored(size);
        debug_assert!(end <= self.span[parent].1, "children overflow their parent");
        self.parent.push(stored(parent));
        self.depth.push(self.depth[parent] + 1);
        self.leader.push(leader);
        self.cut_capacity.push(0.0);
        self.children.push((0, 0));
        self.span.push((start, end));
        c
    }

    /// Cluster `c`'s vertices, for a builder to reorder in place.
    pub(crate) fn vertices_mut(&mut self, c: usize) -> &mut [NodeId] {
        let (a, b) = self.span[c];
        &mut self.order[a as usize..b as usize]
    }

    /// Complete a built tree: the leaves, the cut capacities (under `g`'s
    /// capacities) and the up-paths (shortest under `lengths`, searched on
    /// `workers` threads, `search` being the calling thread's workspace).
    pub(crate) fn finish(
        mut self,
        g: &Graph,
        lengths: &[f64],
        workers: usize,
        search: &mut DijkstraSearch,
    ) -> Self {
        self.leaf_of = vec![NONE; g.num_nodes()];
        for (c, &(a, b)) in self.span.iter().enumerate() {
            if b - a == 1 {
                self.leaf_of[self.order[a as usize].index()] = stored(c);
            }
        }
        debug_assert!(self.leaf_of.iter().all(|&l| l != NONE));
        // Cut capacities: an edge leaves exactly the clusters strictly
        // below the lowest common ancestor of its endpoints' leaves.
        // Charging edges in edge order adds each cluster's terms in the
        // same order as a scan over all edges per cluster would.
        for e in g.edges() {
            let (mut a, mut b) = (self.leaf(e.u), self.leaf(e.v));
            while a != b {
                // The deeper side of two distinct clusters is never the root.
                let side = if self.depth[a] >= self.depth[b] {
                    &mut a
                } else {
                    &mut b
                };
                self.cut_capacity[*side] += e.cap;
                *side = self.parent[*side] as usize;
            }
        }
        (self.up_start, self.steps) =
            up_paths(g, lengths, &self.parent, &self.leader, workers, search);
        // The per-cluster arrays grew by pushes: hand back their slack.
        self.parent.shrink_to_fit();
        self.depth.shrink_to_fit();
        self.leader.shrink_to_fit();
        self.cut_capacity.shrink_to_fit();
        self.children.shrink_to_fit();
        self.span.shrink_to_fit();
        self
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false (trees are nonempty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Leaf cluster index of graph vertex `v`.
    pub fn leaf(&self, v: NodeId) -> usize {
        self.leaf_of[v.index()] as usize
    }

    /// Parent cluster of `c` (`None` for the root).
    pub fn parent(&self, c: usize) -> Option<usize> {
        let p = self.parent[c];
        (p != NONE).then_some(p as usize)
    }

    /// Child clusters of `c`, in build order (empty at a leaf).
    pub fn children(&self, c: usize) -> Range<usize> {
        let (a, b) = self.children[c];
        a as usize..b as usize
    }

    /// Representative graph vertex inside cluster `c`.
    pub fn leader(&self, c: usize) -> NodeId {
        self.leader[c]
    }

    /// The vertices of cluster `c`, in DFS leaf order.
    pub fn vertices(&self, c: usize) -> &[NodeId] {
        let (a, b) = self.span[c];
        &self.order[a as usize..b as usize]
    }

    /// Cluster `c`'s physical up-path, from its leader to its parent's
    /// under the construction metric, as steps: each edge with the vertex
    /// it reaches. Empty at the root and where the two leaders coincide.
    pub fn up_path(&self, c: usize) -> &[(EdgeId, NodeId)] {
        &self.steps[self.up_start[c] as usize..self.up_start[c + 1] as usize]
    }

    /// Total capacity of graph edges leaving cluster `c`.
    pub fn cut_capacity(&self, c: usize) -> f64 {
        self.cut_capacity[c]
    }

    /// The physical path obtained by routing `s → t` through the tree:
    /// the up-paths from `s`'s leaf to just below the lowest common
    /// ancestor, then the up-paths from there down to `t`'s leaf walked
    /// backwards, loop-erased in one pass.
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        self.walk_route(s, t, LoopErasedWalk::to_path)
    }

    /// The index in `list` of the path [`ClusterTree::route`] returns,
    /// its edges appended to `list` first if the list does not hold them.
    /// `list` must hold paths from `s`.
    pub fn route_into(&self, s: NodeId, t: NodeId, list: &mut PathList) -> u32 {
        self.walk_route(s, t, |walk| list.index_or_push(walk.edges()))
    }

    /// Walk `s → t` as [`ClusterTree::route`] describes and hand the
    /// loop-erased walk to `read`. The walk is this thread's reused
    /// buffer, so the route itself allocates nothing.
    fn walk_route<T>(&self, s: NodeId, t: NodeId, read: impl FnOnce(&LoopErasedWalk) -> T) -> T {
        ROUTE_BUFFERS.with(|cell| {
            let mut buffers = cell.take();
            let RouteBuffers { walk, down } = &mut buffers;
            walk.start(s);
            down.clear();
            // Climb the deeper side until the two meet at the lowest common
            // ancestor: `s`'s side is walked on the way, `t`'s remembered.
            let (mut a, mut b) = (self.leaf(s), self.leaf(t));
            while a != b {
                if self.depth[a] >= self.depth[b] {
                    for &(e, v) in self.up_path(a) {
                        walk.step(e, v);
                    }
                    a = self.parent[a] as usize;
                } else {
                    down.push(b);
                    b = self.parent[b] as usize;
                }
            }
            for &c in down.iter().rev() {
                // Backwards, each step's edge leads to the vertex the step
                // before reached, the first step's to the cluster's leader.
                let up = self.up_path(c);
                for (i, &(e, _)) in up.iter().enumerate().rev() {
                    walk.step(e, if i == 0 { self.leader[c] } else { up[i - 1].1 });
                }
            }
            debug_assert_eq!(walk.head(), t);
            let out = read(walk);
            cell.set(buffers);
            out
        })
    }

    /// Räcke relative load: for each graph edge, the total cut capacity of
    /// tree edges whose physical path crosses it, divided by the edge's
    /// capacity. This upper-bounds the congestion this tree inflicts on
    /// any demand routable with congestion 1 in `g`.
    pub fn relative_loads(&self, g: &Graph) -> Vec<f64> {
        let mut load = vec![0.0; g.num_edges()];
        for (c, &cut) in self.cut_capacity.iter().enumerate() {
            for &(e, _) in self.up_path(c) {
                load[e.index()] += cut;
            }
        }
        for (l, e) in load.iter_mut().zip(g.edges()) {
            *l /= e.cap;
        }
        load
    }
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

/// The up-path arena of a cluster tree given as its `parent` and `leader`
/// arrays: cluster `c`'s run, `steps[start[c]..start[c + 1]]` of the
/// returned `(start, steps)`, is the shortest path under `lengths` from
/// `c`'s leader to its parent's, as steps (empty when the two coincide,
/// and at the root).
///
/// A leader heads a chain of nested clusters, so the searches are grouped
/// by parent leader: one search from each distinct parent leader, stopped
/// once the leaders of the children of every cluster it leads are
/// settled, yields all their paths. A stopped search's settled prefix
/// carries the full search's distance bits and parent edges, so every
/// path is the full search's. The searches are independent: `workers`
/// threads (the caller's, with `search`, and `workers - 1` more, each with
/// its own workspace) claim them in first-appearance order off a shared
/// counter, each writing its runs into one flat buffer, and every run is
/// then copied to its cluster's place, so the arena does not depend on
/// `workers`. The calling thread makes each helper's workspace and
/// buffers with room for the job and frees them after the join, so a
/// helper allocates nothing of its own unless a buffer outgrows its room
/// (a thread that allocates gets its own malloc arena, whose pages can
/// stay resident after the thread exits).
fn up_paths(
    g: &Graph,
    lengths: &[f64],
    parent: &[u32],
    leader: &[NodeId],
    workers: usize,
    search: &mut DijkstraSearch,
) -> (Vec<u32>, Vec<(EdgeId, NodeId)>) {
    // Number the distinct parent leaders in first-appearance order through
    // a vertex-indexed array, then list the clusters job by job (a stable
    // sort keeps each job's clusters in index order).
    let mut job_of = vec![NONE; g.num_nodes()];
    let mut jobs = 0;
    let mut members: Vec<(u32, u32)> = Vec::with_capacity(parent.len());
    for (c, &p) in parent.iter().enumerate() {
        if p == NONE {
            continue;
        }
        let up = &mut job_of[leader[p as usize].index()];
        if *up == NONE {
            *up = jobs;
            jobs += 1;
        }
        members.push((*up, stored(c)));
    }
    members.sort_by_key(|&(job, _)| job);
    // Job `j`'s clusters are `members[bounds[j]..bounds[j + 1]]`.
    let mut bounds: Vec<usize> = (0..members.len())
        .filter(|&i| i == 0 || members[i - 1].0 < members[i].0)
        .collect();
    bounds.push(members.len());
    let largest_job = bounds.windows(2).map(|w| w[1] - w[0]).max();
    let buffers = || UpPathBuffers {
        runs: Vec::with_capacity(members.len()),
        steps: Vec::with_capacity(STEPS_PER_CLUSTER * members.len()),
        targets: Vec::with_capacity(largest_job.unwrap_or(0)),
        edges: Vec::with_capacity(g.num_nodes()),
    };
    // The counter only hands out job indices: the jobs are written before
    // any helper starts and the runs come back through `join`, so it
    // publishes nothing and `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = |search: &mut DijkstraSearch, mut out: UpPathBuffers| {
        loop {
            let j = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = bounds.get(j..j + 2) else {
                break;
            };
            let clusters = &members[job[0]..job[1]];
            let source = leader[parent[clusters[0].1 as usize] as usize];
            out.targets.clear();
            out.targets
                .extend(clusters.iter().map(|&(_, c)| leader[c as usize]));
            search.settle(g, source, lengths, &out.targets);
            for &(_, c) in clusters {
                let own = leader[c as usize];
                let reached = search.edges_to(g, own, &mut out.edges);
                assert!(reached, "connected graph");
                // `edges` runs from the parent's leader to `own`; the run
                // walks it backwards from `own`.
                let mut at = own;
                for &e in out.edges.iter().rev() {
                    at = g.edge(e).other(at);
                    out.steps.push((e, at));
                }
                out.runs.push((c, stored(out.edges.len())));
            }
        }
        out
    };
    let found = std::thread::scope(|scope| {
        // A helper that fails to start leaves its share to the others; its
        // workspace and buffers come back through `join`.
        let helpers: Vec<_> = (1..workers.min(jobs as usize))
            .filter_map(|_| {
                let (mut own, out) = (DijkstraSearch::with_nodes(g.num_nodes()), buffers());
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || (work(&mut own, out), own))
                    .ok()
            })
            .collect();
        let mut found = vec![work(search, buffers())];
        for helper in helpers {
            let (out, _workspace) = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            found.push(out);
        }
        found
    });
    let mut start = vec![0u32; parent.len() + 1];
    for out in &found {
        for &(c, len) in &out.runs {
            start[c as usize + 1] = len;
        }
    }
    for c in 0..parent.len() {
        start[c + 1] += start[c];
    }
    let mut arena = vec![(EdgeId(0), NodeId(0)); start[parent.len()] as usize];
    for out in &found {
        let mut from = 0;
        for &(c, len) in &out.runs {
            let (c, len) = (c as usize, len as usize);
            arena[start[c] as usize..start[c + 1] as usize]
                .copy_from_slice(&out.steps[from..from + len]);
            from += len;
        }
    }
    (start, arena)
}

/// Up-path steps per cluster that [`up_paths`] reserves in each worker's
/// step buffer. The six FRT trees `sor serve --graph expander:2048x4`
/// builds hold 2.9–3.3 steps per cluster in all, and one of two workers
/// wrote at most 64% of them; a worker that needs more grows its buffer
/// itself.
const STEPS_PER_CLUSTER: usize = 4;

/// What one worker of [`up_paths`] writes: one `(cluster, run length)` per
/// path found, in claim order, the runs' steps one after another, and one
/// search's targets and path.
struct UpPathBuffers {
    runs: Vec<(u32, u32)>,
    steps: Vec<(EdgeId, NodeId)>,
    targets: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl ClusterTree {
    /// Build a random FRT tree over `g` with the metric induced by
    /// per-edge `lengths` (all strictly positive). On a graph of at least
    /// 512 vertices the up-path searches run on every core; the tree is
    /// the same on any number of cores.
    pub fn frt<R: Rng + ?Sized>(g: &Graph, lengths: &[f64], rng: &mut R) -> Self {
        Self::frt_on(g, lengths, rng, up_path_workers(g.num_nodes()))
    }

    /// [`ClusterTree::frt`] with its up-path searches on `workers` threads,
    /// whatever the graph's size. The tree does not depend on `workers`.
    pub(crate) fn frt_on<R: Rng + ?Sized>(
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
        let mut search = DijkstraSearch::with_nodes(n);
        if n == 1 {
            let tree = ClusterTree::with_root(vec![NodeId(0)], NodeId(0));
            return tree.finish(g, lengths, workers, &mut search);
        }

        // Random permutation and β ∈ [1, 2).
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();
        let mut rank = vec![0usize; n];
        for (i, &u) in pi.iter().enumerate() {
            rank[u.index()] = i;
        }

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

        let mut tree = ClusterTree::with_root(g.nodes().collect(), pi[0]);
        // Refine level by level. `frontier` holds indices of clusters that
        // are not yet singletons; `group_of[c]` is the index in `groups` of
        // center `c`'s group within the cluster being split, and `member`
        // the group of each of its vertices in turn.
        let mut frontier = vec![0usize];
        let mut group_of = vec![usize::MAX; n];
        // Per group: its center, its π-minimal member, and its size (then
        // its end in the split cluster's range).
        let mut groups: Vec<(NodeId, NodeId, usize)> = Vec::new();
        let mut member: Vec<usize> = Vec::new();
        let mut split: Vec<NodeId> = Vec::new();
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom, "FRT refinement failed to reach singletons");
            let radius = beta * (level as f64).exp2();
            let mut next_frontier = Vec::new();
            for &ci in &frontier {
                // Partition cluster ci's vertices by their first π-center
                // within `radius`.
                groups.clear();
                member.clear();
                for &v in tree.vertices(ci) {
                    let (center, _) = *lists[v.index()]
                        .iter()
                        .find(|&&(_, d)| d <= radius)
                        // sor-check: allow(unwrap, panic-path) — invariant stated in the expect message
                        .expect("v's own entry, at distance 0, qualifies at any radius");
                    let gi = match group_of[center.index()] {
                        usize::MAX => {
                            group_of[center.index()] = groups.len();
                            groups.push((center, v, 0));
                            groups.len() - 1
                        }
                        gi => gi,
                    };
                    // Leader: the center itself if inside, else the
                    // π-minimal member. No member precedes the center in π
                    // (each member is within `radius` of itself), so both
                    // cases are the π-minimal member.
                    let group = &mut groups[gi];
                    if rank[v.index()] < rank[group.1.index()] {
                        group.1 = v;
                    }
                    group.2 += 1;
                    member.push(gi);
                }
                for &(center, ..) in &groups {
                    group_of[center.index()] = usize::MAX;
                }
                if groups.len() == 1 {
                    // No refinement at this level — reuse the node at the
                    // next level instead of stacking unary chains.
                    next_frontier.push(ci);
                    continue;
                }
                // Stable partition of the range by group, groups in order
                // of first appearance: sizes become starts, then ends.
                let mut end = 0;
                for group in &mut groups {
                    end += group.2;
                    group.2 = end - group.2;
                }
                split.clear();
                split.resize(member.len(), NodeId(0));
                for (&v, &gi) in tree.vertices(ci).iter().zip(&member) {
                    split[groups[gi].2] = v;
                    groups[gi].2 += 1;
                }
                tree.vertices_mut(ci).copy_from_slice(&split);
                let mut lo = 0;
                for &(_, leader, hi) in &groups {
                    let child = tree.push_child(ci, hi - lo, leader);
                    if hi - lo > 1 {
                        next_frontier.push(child);
                    }
                    lo = hi;
                }
            }
            frontier = next_frontier;
            level -= 1;
        }
        tree.finish(g, lengths, workers, &mut search)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{dijkstra, gen};

    /// Cluster `c`'s up-path as a [`Path`] (`None` at the root), checking
    /// that each step's vertex is where its edge leads.
    fn up_path_of(g: &Graph, tree: &ClusterTree, c: usize) -> Option<Path> {
        tree.parent(c)?;
        let edges = tree.up_path(c).iter().map(|&(e, _)| e).collect();
        let path = Path::from_edges(g, tree.leader(c), edges).unwrap();
        let reached: Vec<NodeId> = tree.up_path(c).iter().map(|&(_, v)| v).collect();
        assert_eq!(path.nodes()[1..], reached[..]);
        Some(path)
    }

    /// The layout's invariants: the root's range is a permutation of the
    /// vertices; children follow their parent, name it as parent, and
    /// partition its range in child order; childless clusters are exactly
    /// the leaves, singletons matching [`ClusterTree::leaf`]; leaders lie
    /// inside their cluster; depths count the steps to the root.
    pub(crate) fn check_ranges(g: &Graph, tree: &ClusterTree) {
        let mut root = tree.vertices(0).to_vec();
        root.sort();
        assert_eq!(root, g.nodes().collect::<Vec<_>>(), "root range");
        assert_eq!((tree.parent(0), tree.depth[0]), (None, 0));
        for c in 0..tree.len() {
            assert!(tree.vertices(c).contains(&tree.leader(c)), "leader outside");
            let kids = tree.children(c);
            if kids.is_empty() {
                assert_eq!(tree.vertices(c).len(), 1, "childless non-singleton");
                assert_eq!(tree.leaf(tree.vertices(c)[0]), c);
                continue;
            }
            assert!(kids.start > c && kids.len() >= 2, "children of {c}");
            let mut at = tree.span[c].0;
            for k in kids {
                assert_eq!(tree.parent(k), Some(c));
                assert_eq!(tree.depth[k], tree.depth[c] + 1);
                assert_eq!(tree.span[k].0, at, "children leave a gap");
                at = tree.span[k].1;
            }
            assert_eq!(at, tree.span[c].1, "children do not cover the parent");
        }
        for v in g.nodes() {
            assert_eq!(tree.vertices(tree.leaf(v)), [v]);
        }
    }

    /// Cut capacities and relative loads, bit for bit: each cluster's
    /// capacity against a scan over every edge, and the loads against a
    /// per-cluster sum over materialized up-paths.
    pub(crate) fn check_cuts_and_loads(g: &Graph, tree: &ClusterTree) {
        let mut inside = vec![false; g.num_nodes()];
        let mut load = vec![0.0; g.num_edges()];
        for c in 0..tree.len() {
            for &v in tree.vertices(c) {
                inside[v.index()] = true;
            }
            let mut cut = 0.0;
            for e in g.edges() {
                if inside[e.u.index()] != inside[e.v.index()] {
                    cut += e.cap;
                }
            }
            assert_eq!(tree.cut_capacity(c).to_bits(), cut.to_bits(), "cut of {c}");
            inside.fill(false);
            if let Some(up) = up_path_of(g, tree, c) {
                for &e in up.edges() {
                    load[e.index()] += tree.cut_capacity(c);
                }
            }
        }
        for (l, e) in load.iter_mut().zip(g.edges()) {
            *l /= e.cap;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tree.relative_loads(g)), bits(&load));
    }

    /// The old tree layout, one struct per cluster with its own vertex
    /// list and up-path, as the APSP reference builds it.
    struct RefNode {
        parent: Option<usize>,
        children: Vec<usize>,
        leader: NodeId,
        vertices: Vec<NodeId>,
        up_path: Option<Path>,
        cut_capacity: f64,
    }

    /// Reference construction: the π-first center within each radius is
    /// read off an all-pairs distance matrix, and every cut capacity and
    /// up-path comes from its own full scan or Dijkstra.
    fn build_apsp<R: Rng + ?Sized>(
        g: &Graph,
        lengths: &[f64],
        rng: &mut R,
    ) -> (Vec<RefNode>, Vec<usize>) {
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
        let mut nodes = vec![RefNode {
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
                    nodes.push(RefNode {
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
        (nodes, leaf_of)
    }

    fn assert_matches_reference(
        g: &Graph,
        tree: &ClusterTree,
        reference: &(Vec<RefNode>, Vec<usize>),
    ) {
        let (nodes, leaf_of) = reference;
        assert_eq!(tree.len(), nodes.len());
        for v in g.nodes() {
            assert_eq!(tree.leaf(v), leaf_of[v.index()]);
        }
        for (c, node) in nodes.iter().enumerate() {
            assert_eq!(tree.parent(c), node.parent);
            assert_eq!(tree.children(c).collect::<Vec<_>>(), node.children);
            assert_eq!(tree.leader(c), node.leader);
            let mut vertices = tree.vertices(c).to_vec();
            let mut expected = node.vertices.clone();
            vertices.sort();
            expected.sort();
            assert_eq!(vertices, expected);
            assert_eq!(up_path_of(g, tree, c), node.up_path);
            assert_eq!(tree.cut_capacity(c).to_bits(), node.cut_capacity.to_bits());
        }
    }

    /// Every array of the two trees, the whole up-path arena included,
    /// with cut capacities compared bit for bit.
    fn assert_same_tree(a: &ClusterTree, b: &ClusterTree) {
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.leader, b.leader);
        let bits = |t: &ClusterTree| {
            t.cut_capacity
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.children, b.children);
        assert_eq!(a.span, b.span);
        assert_eq!(a.order, b.order);
        assert_eq!(a.up_start, b.up_start);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.leaf_of, b.leaf_of);
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
                    let fast = ClusterTree::frt_on(&g, &lengths, &mut rng, workers);
                    assert_matches_reference(&g, &fast, &reference);
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
                let one = ClusterTree::frt_on(g, lengths, &mut StdRng::seed_from_u64(seed), 1);
                let two = ClusterTree::frt_on(g, lengths, &mut StdRng::seed_from_u64(seed), 2);
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

    /// Both ancestor chains of `leaves`, trimmed of their shared clusters:
    /// what is left lies strictly below the lowest common ancestor.
    fn trimmed_chains(
        leaves: (usize, usize),
        parent: impl Fn(usize) -> Option<usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        let chain = |leaf: usize| {
            let mut c = vec![leaf];
            while let Some(p) = parent(c[c.len() - 1]) {
                c.push(p);
            }
            c
        };
        let (mut sa, mut ta) = (chain(leaves.0), chain(leaves.1));
        while !sa.is_empty() && !ta.is_empty() && sa[sa.len() - 1] == ta[ta.len() - 1] {
            sa.pop();
            ta.pop();
        }
        (sa, ta)
    }

    /// Reference route: both ancestor chains collected, then one join per
    /// tree level, the trivial path at `s` first.
    fn join_chain_route<'a>(
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
        let (sa, ta) = trimmed_chains(leaves, parent);
        let mut path = Path::trivial(s);
        for &i in &sa {
            if let Some(up) = up_path(i) {
                path = join_with_map(g, &path, up);
            }
        }
        for &i in ta.iter().rev() {
            if let Some(up) = up_path(i) {
                path = join_with_map(g, &path, &up.reversed());
            }
        }
        path
    }

    /// Reference route as cluster trees routed before the flat layout:
    /// both ancestor chains collected, then one loop-erased walk along
    /// each cluster's up-path `Path`.
    fn chain_walk_route<'a>(
        s: NodeId,
        t: NodeId,
        leaves: (usize, usize),
        parent: impl Fn(usize) -> Option<usize>,
        up_path: impl Fn(usize) -> Option<&'a Path>,
    ) -> Path {
        if s == t {
            return Path::trivial(s);
        }
        let (sa, ta) = trimmed_chains(leaves, parent);
        let mut walk = LoopErasedWalk::default();
        walk.start(s);
        for &i in &sa {
            if let Some(up) = up_path(i) {
                walk.follow(up);
            }
        }
        for &i in ta.iter().rev() {
            if let Some(up) = up_path(i) {
                walk.follow_reversed(up);
            }
        }
        assert_eq!(walk.head(), t);
        walk.to_path()
    }

    /// [`ClusterTree::route`] against both reference routes, on every
    /// ordered pair of `g`'s vertices.
    pub(crate) fn check_routes(g: &Graph, tree: &ClusterTree) {
        let paths: Vec<Option<Path>> = (0..tree.len()).map(|c| up_path_of(g, tree, c)).collect();
        let parent = |c: usize| tree.parent(c);
        let up_path = |c: usize| paths[c].as_ref();
        for s in g.nodes() {
            for t in g.nodes() {
                let leaves = (tree.leaf(s), tree.leaf(t));
                let route = tree.route(s, t);
                assert_eq!(
                    route,
                    chain_walk_route(s, t, leaves, parent, up_path),
                    "{s}->{t}"
                );
                assert_eq!(
                    route,
                    join_chain_route(g, s, t, leaves, parent, up_path),
                    "{s}->{t}"
                );
                assert_eq!(route.nodes().len(), route.hops() + 1);
            }
        }
    }

    #[test]
    fn one_pass_route_matches_level_by_level_joins() {
        for (g, lengths) in reference_instances() {
            for seed in 0..2 {
                let tree = ClusterTree::frt(&g, &lengths, &mut StdRng::seed_from_u64(seed));
                check_routes(&g, &tree);
            }
        }
    }

    #[test]
    fn ranges_cuts_and_loads_match_references() {
        for (g, lengths) in reference_instances() {
            for seed in 0..2 {
                let tree = ClusterTree::frt(&g, &lengths, &mut StdRng::seed_from_u64(seed));
                check_ranges(&g, &tree);
                check_cuts_and_loads(&g, &tree);
            }
        }
    }

    #[test]
    #[should_panic(expected = "FRT needs a connected graph")]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(2), NodeId(3));
        ClusterTree::frt(&g, &g.unit_lengths(), &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn tree_structure_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        check_ranges(&g, &tree);
    }

    #[test]
    fn tree_structure_on_hypercube() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(5);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
        check_ranges(&g, &tree);
    }

    #[test]
    fn routes_are_valid_paths() {
        let g = gen::grid(3, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
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
        let tree = ClusterTree::frt(&g, &[], &mut rng);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.route(NodeId(0), NodeId(0)).hops(), 0);
    }

    #[test]
    fn relative_loads_nonnegative_and_finite() {
        let g = gen::cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = ClusterTree::frt(&g, &g.unit_lengths(), &mut rng);
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
        let trees: Vec<ClusterTree> = (0..4)
            .map(|_| ClusterTree::frt(&g, &g.unit_lengths(), &mut rng))
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
