//! Per-edge load accounting.

use sor_graph::{EdgeId, Graph, Path};

/// Accumulated (fractional) load per edge. Congestion of an edge is its
/// load divided by its capacity; for the paper's unit-capacity multigraphs
/// the two coincide.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeLoads {
    loads: Vec<f64>,
}

impl EdgeLoads {
    /// Zero loads for a graph with `m` edges.
    pub fn zeros(m: usize) -> Self {
        EdgeLoads {
            loads: vec![0.0; m],
        }
    }

    /// Zero loads shaped to `g`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::zeros(g.num_edges())
    }

    /// Add `w` units along every edge of `path`. Negative `w` removes
    /// load (used by local-search moves); callers are responsible for not
    /// driving loads below zero.
    pub fn add_path(&mut self, path: &Path, w: f64) {
        self.add_edges(path.edges(), w);
    }

    /// Add `w` units along every edge of `edges` (as [`Self::add_path`],
    /// for an edge list that is not a [`Path`], such as a
    /// [`sor_graph::PathRef`]'s).
    pub fn add_edges(&mut self, edges: &[EdgeId], w: f64) {
        for &e in edges {
            self.loads[e.index()] += w;
        }
    }

    /// Add another load vector (element-wise).
    pub fn add(&mut self, other: &EdgeLoads) {
        assert_eq!(self.loads.len(), other.loads.len());
        for (a, b) in self.loads.iter_mut().zip(&other.loads) {
            *a += b;
        }
    }

    /// Multiply every load by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for l in &mut self.loads {
            *l *= factor;
        }
    }

    /// Load of edge `e`.
    #[inline]
    pub fn load(&self, e: EdgeId) -> f64 {
        self.loads[e.index()]
    }

    /// Raw load slice, indexed by `EdgeId`.
    pub fn as_slice(&self) -> &[f64] {
        &self.loads
    }

    /// Maximum raw load (ignores capacities).
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum congestion `load(e)/cap(e)` over all edges — the paper's
    /// objective.
    pub fn congestion(&self, g: &Graph) -> f64 {
        assert_eq!(self.loads.len(), g.num_edges());
        self.loads
            .iter()
            .zip(g.edges())
            .map(|(&l, e)| l / e.cap)
            .fold(0.0, f64::max)
    }

    /// The edge achieving maximum congestion (ties to the lowest id);
    /// `None` when there are no edges.
    pub fn argmax_congestion(&self, g: &Graph) -> Option<EdgeId> {
        let mut best: Option<(f64, EdgeId)> = None;
        for (i, (&l, e)) in self.loads.iter().zip(g.edges()).enumerate() {
            let c = l / e.cap;
            if best.is_none_or(|(bc, _)| c > bc) {
                best = Some((c, EdgeId::from_usize(i)));
            }
        }
        best.map(|(_, e)| e)
    }

    /// Total load across edges (≈ flow volume × average hops).
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{gen, NodeId};

    #[test]
    fn path_loading_and_congestion() {
        let g = gen::path_graph(4); // edges e0,e1,e2
        let p = sor_graph::bfs_path(&g, NodeId(0), NodeId(3)).unwrap();
        let mut l = EdgeLoads::for_graph(&g);
        l.add_path(&p, 2.0);
        assert_eq!(l.max_load(), 2.0);
        assert_eq!(l.congestion(&g), 2.0);
        assert_eq!(l.total(), 6.0);
    }

    #[test]
    fn congestion_respects_capacity() {
        let mut g = sor_graph::Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 4.0);
        let p = sor_graph::bfs_path(&g, NodeId(0), NodeId(1)).unwrap();
        let mut l = EdgeLoads::for_graph(&g);
        l.add_path(&p, 2.0);
        assert!((l.congestion(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let g = gen::cycle_graph(3);
        let mut a = EdgeLoads::for_graph(&g);
        let mut b = EdgeLoads::for_graph(&g);
        let p = sor_graph::bfs_path(&g, NodeId(0), NodeId(1)).unwrap();
        a.add_path(&p, 1.0);
        b.add_path(&p, 3.0);
        a.add(&b);
        a.scale(0.5);
        assert!((a.max_load() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_finds_heaviest() {
        let g = gen::path_graph(3);
        let mut l = EdgeLoads::for_graph(&g);
        let p = sor_graph::bfs_path(&g, NodeId(1), NodeId(2)).unwrap();
        l.add_path(&p, 5.0);
        assert_eq!(l.argmax_congestion(&g), Some(sor_graph::EdgeId(1)));
    }
}
