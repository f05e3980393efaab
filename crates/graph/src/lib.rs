//! # sor-graph
//!
//! Graph substrate for the sparse semi-oblivious routing reproduction.
//!
//! The paper works with undirected, connected multigraphs: parallel edges
//! stand in for integer capacities, but we generalize slightly and carry an
//! explicit nonnegative capacity per edge (a parallel bundle of `c` unit
//! edges is equivalent to one edge of capacity `c` for every quantity the
//! paper measures — congestion is always *load divided by capacity* here,
//! which for unit capacities is the paper's raw edge congestion).
//!
//! The crate provides:
//!
//! * [`Graph`] — compact undirected multigraph with adjacency lists,
//! * [`Path`] — a simple path as a node/edge sequence, the unit all routing
//!   objects are built from,
//! * traversal ([`bfs_dists`], [`is_connected`], hop metrics),
//! * weighted shortest paths ([`dijkstra`] and the reusable,
//!   target-stopped [`DijkstraSearch`]),
//! * Yen's loopless k-shortest paths ([`yen_ksp`]),
//! * Dinic max-flow / s-t min-cut ([`max_flow`], [`st_min_cut`]),
//! * Stoer–Wagner global min cut ([`global_min_cut`]),
//! * bridges / articulation points ([`bridges`], [`articulation_points`]),
//! * spectral-gap estimation ([`spectral_gap`]) to certify expanders,
//! * graph generators used by the experiments ([`gen`]).
//!
//! Everything downstream (flow solvers, oblivious routings, the
//! semi-oblivious core) is built on these primitives; no external graph or
//! LP library is used anywhere in the workspace.
//!
//! # Example
//!
//! ```
//! use sor_graph::{gen, st_min_cut, yen_ksp, NodeId};
//!
//! let g = gen::hypercube(3);
//! assert_eq!(g.num_nodes(), 8);
//! // min cut between antipodes equals the degree
//! assert_eq!(st_min_cut(&g, NodeId(0), NodeId(7)) as usize, 3);
//! // three shortest paths between antipodes, all 3 hops
//! let paths = yen_ksp(&g, NodeId(0), NodeId(7), 3, &g.unit_lengths());
//! assert_eq!(paths.len(), 3);
//! assert!(paths.iter().all(|p| p.hops() == 3));
//! ```

#![forbid(unsafe_code)]

pub mod connectivity;
pub mod gen;
pub mod globalcut;
mod graph;
pub mod io;
pub mod ksp;
pub mod maxflow;
mod path;
pub mod shortest;
pub mod spectral;
pub mod traversal;

pub use connectivity::{articulation_points, bridges, connected_without};
pub use globalcut::{global_min_cut, stoer_wagner};
pub use graph::{EdgeId, EdgeRec, Graph, NodeId};
pub use io::{graph_from_text, graph_to_text, MAX_TEXT_NODES};
pub use ksp::yen_ksp;
pub use maxflow::{max_flow, st_min_cut};
pub use path::{LoopErasedWalk, Path};
pub use shortest::{dijkstra, DijkstraSearch, ShortestPathTree};
pub use spectral::spectral_gap;
pub use traversal::{bfs_dists, bfs_path, bfs_path_avoiding, diameter, is_connected};
