//! Dinic's max-flow and s-t min-cut on the undirected capacity graph.
//!
//! Used for the `(s + mincut)`-sampling rule (Definition 5.2 / Corollary
//! 6.2): the number of sampled paths between a pair must scale with the
//! pair's minimum cut for arbitrary-demand guarantees.

use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

const EPS: f64 = 1e-9;

/// Internal arc for Dinic: `to`, residual capacity, index of reverse arc.
struct Arc {
    to: u32,
    cap: f64,
    rev: u32,
}

struct Dinic {
    arcs: Vec<Vec<Arc>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut arcs: Vec<Vec<Arc>> = (0..n).map(|_| Vec::new()).collect();
        // An undirected edge of capacity c becomes the arc pair
        // (u→v, c) / (v→u, c), each the other's residual. This is the
        // standard encoding: pushing f over u→v leaves c−f forward and
        // c+f "backward", which is exactly undirected residual capacity.
        for e in g.edges() {
            let (u, v, c) = (e.u.index(), e.v.index(), e.cap);
            // Arc counts are bounded by 2·edges < u32::MAX (checked by
            // EdgeId::from_usize at edge insertion).
            let iu = EdgeId::from_usize(arcs[u].len()).0;
            let iv = EdgeId::from_usize(arcs[v].len()).0;
            arcs[u].push(Arc {
                to: e.v.0,
                cap: c,
                rev: iv,
            });
            arcs[v].push(Arc {
                to: e.u.0,
                cap: c,
                rev: iu,
            });
        }
        Dinic {
            arcs,
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = VecDeque::new();
        self.level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for a in &self.arcs[u] {
                if a.cap > EPS && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = self.level[u] + 1;
                    q.push_back(a.to as usize);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, f: f64) -> f64 {
        if u == t {
            return f;
        }
        while self.iter[u] < self.arcs[u].len() {
            let i = self.iter[u];
            let (to, cap, rev) = {
                let a = &self.arcs[u][i];
                (a.to as usize, a.cap, a.rev as usize)
            };
            if cap > EPS && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, f.min(cap));
                if d > EPS {
                    self.arcs[u][i].cap -= d;
                    self.arcs[to][rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    fn run(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// Maximum `s`-`t` flow value in the undirected capacity graph.
pub fn max_flow(g: &Graph, s: NodeId, t: NodeId) -> f64 {
    assert!(s != t, "max flow needs distinct endpoints");
    Dinic::new(g).run(s.index(), t.index())
}

/// The `s`-`t` minimum cut value (`= max_flow` by duality). The paper's
/// `mincut(s, t)` for unit-capacity multigraphs is the number of
/// edge-disjoint `s`-`t` paths.
pub fn st_min_cut(g: &Graph, s: NodeId, t: NodeId) -> f64 {
    max_flow(g, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::graph::Graph;

    #[test]
    fn path_graph_unit_cut() {
        let g = gen::path_graph(5);
        assert!((st_min_cut(&g, NodeId(0), NodeId(4)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_cut_is_two() {
        let g = gen::cycle_graph(7);
        assert!((st_min_cut(&g, NodeId(0), NodeId(3)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_cut() {
        // K5: min cut between any pair = degree = 4.
        let g = gen::complete_graph(5);
        assert!((st_min_cut(&g, NodeId(0), NodeId(3)) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_edges_add_up() {
        let mut g = Graph::new(2);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(0), NodeId(1));
        assert!((max_flow(&g, NodeId(0), NodeId(1)) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn capacities_respected() {
        // s -2.5- a -1.0- t and s -0.5- t : max flow 1.5.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 2.5);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 0.5);
        assert!((max_flow(&g, NodeId(0), NodeId(2)) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn hypercube_cut_equals_degree() {
        // In Q_d the min cut between any two vertices is d.
        let g = gen::hypercube(4);
        assert!((st_min_cut(&g, NodeId(0), NodeId(15)) - 4.0).abs() < 1e-6);
        assert!((st_min_cut(&g, NodeId(0), NodeId(1)) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_cut_is_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(2), NodeId(3));
        assert!(max_flow(&g, NodeId(0), NodeId(2)).abs() < 1e-9);
    }

    #[test]
    fn two_star_bridge_cut() {
        // The lower-bound family: cut between leaves of opposite stars is 1,
        // while the cut between the two centers is the middle-vertex count.
        let ts = gen::TwoStar::new(4, 3);
        let g = ts.graph();
        assert!((st_min_cut(g, ts.left_leaf(0), ts.right_leaf(0)) - 1.0).abs() < 1e-6);
        assert!((st_min_cut(g, ts.center1(), ts.center2()) - 4.0).abs() < 1e-6);
    }
}
