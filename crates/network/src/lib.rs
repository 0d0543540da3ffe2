#![warn(missing_docs)]
//! # senn-network
//!
//! The spatial road-network substrate (paper Section 3.4 and 4.1.2).
//!
//! The paper digitizes TIGER/LINE street vectors into a *modeling graph*
//! whose nodes are network junctions, segment endpoints and auxiliary
//! points, computes shortest paths with Dijkstra's algorithm, and runs the
//! IER / INE network nearest-neighbor algorithms of Papadias et al. on top.
//! TIGER data is not redistributable here, so [`generator`] synthesizes
//! networks with the same structure the paper extracts from TIGER: road
//! segments in several classes (primary highways, secondary/connecting
//! roads, rural/local roads) with per-class speed limits, where apparent
//! crossings between a highway and a local road are over-passes, not
//! intersections (see `DESIGN.md` §3 for the substitution argument).
//!
//! Provided components:
//!
//! * [`RoadNetwork`] — the modeling graph: nodes with coordinates,
//!   undirected edges with length and [`RoadClass`].
//! * [`shortest_path`] — Dijkstra and A\* (the Euclidean heuristic is
//!   admissible because every edge is at least as long as the straight
//!   line between its endpoints), plus one-to-many distance maps, over
//!   the one label-setting kernel every search of the crate but CH runs.
//! * [`alt`] — landmark (ALT) lower bounds in one `f32` table: the
//!   heuristic every road trip is planned with
//!   ([`RoadNetwork::route_index`], [`alt_path_into`]).
//! * [`poi`] + [`knn`] — POIs snapped onto the network and the **IER** /
//!   **INE** network-kNN baselines used by SNNN.
//! * [`ch`] — a contraction-hierarchy distance oracle: seeded
//!   deterministic preprocessing (edge-difference ordering, witness
//!   searches, shortcuts) and hub-label queries whose unpacked distances
//!   are bit-identical to Dijkstra on unique shortest paths.
//! * [`distance`] — the road-network implementations of `senn-core`'s
//!   `DistanceModel` seam: [`NetworkDistance`] (Euclidean-heuristic A\*,
//!   the reference) and [`ChDistance`] (the hierarchy oracle), which is
//!   also the lower bound [`ChBound`].
//! * [`generator`] — the seeded synthetic network generator.

pub mod alt;
pub mod ch;
pub mod distance;
pub mod generator;
pub mod graph;
pub mod knn;
pub mod locator;
pub mod poi;
pub mod shortest_path;

pub use alt::{alt_path_into, counting_alt, AltIndex, ROUTE_LANDMARKS};
pub use ch::{counting_ch, ChIndex, ChScratch};
pub use distance::{Anchored, ChBound, ChDistance, NetworkDistance};
pub use generator::{generate_network, GeneratorConfig};
pub use graph::{NodeId, RoadClass, RoadNetwork};
pub use knn::{ier_knn, ine_knn, NetworkNeighbor};
pub use locator::NodeLocator;
pub use poi::NetworkPois;
pub use shortest_path::{
    astar_distance, astar_path, counting_astar, counting_dijkstra, dijkstra_distance, dijkstra_map,
    SearchStats,
};
