//! The road-network modeling graph.

use std::sync::OnceLock;

use senn_geom::{Point, Rect};

use crate::alt::{AltIndex, ROUTE_LANDMARKS};

/// Index of a node in a [`RoadNetwork`].
pub type NodeId = u32;

/// Road classification, mirroring the TIGER/LINE categories the paper uses
/// ("primary highways, secondary and connecting roads, and rural roads"),
/// each with its own maximum driving speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Primary highway (freeway-grade).
    Primary,
    /// Secondary / connecting road (arterial).
    Secondary,
    /// Rural or local road.
    Local,
}

impl RoadClass {
    /// Speed limit in miles per hour. Mobile hosts in road-network mode
    /// "monitor the speed limit on the road they are currently traveling
    /// on and adjust their velocity accordingly" (Section 4.1.2).
    pub fn speed_limit_mph(self) -> f64 {
        match self {
            RoadClass::Primary => 65.0,
            RoadClass::Secondary => 45.0,
            RoadClass::Local => 30.0,
        }
    }

    /// Speed limit in meters per second.
    pub fn speed_limit_mps(self) -> f64 {
        self.speed_limit_mph() * crate::graph::METERS_PER_MILE / 3600.0
    }
}

/// Meters per statute mile; used to convert the paper's mph parameters.
pub const METERS_PER_MILE: f64 = 1609.344;

/// A half-edge: one direction of a road segment, stored with its origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HalfEdge {
    /// Destination node.
    pub to: NodeId,
    /// Length of the segment in working units (meters).
    pub length: f64,
    /// Road classification (determines the speed limit).
    pub class: RoadClass,
}

/// An undirected spatial road network with straight-line segments.
///
/// Edge lengths are at least the Euclidean distance between their
/// endpoints, which gives the *Euclidean lower-bound property* the IER
/// algorithm relies on: `ED(a, b) <= ND(a, b)` for all nodes `a`, `b`.
///
/// ## Layout
///
/// Compressed sparse rows: node `n`'s half-edges are
/// `edges[first[n]..first[n + 1]]`, in the order its edges were added, so
/// every search sees the same neighbour order whichever way the network
/// was built. [`generate_network`](crate::generate_network) fills the
/// arrays in one pass (a stable counting sort of its edge list).
/// [`add_node`](Self::add_node) is O(1); [`add_edge`](Self::add_edge)
/// splices two half-edges into the middle of the array, O(V + E) per
/// call, which suits the small hand-built graphs of tests and fixtures.
/// Either edit drops the route index ([`RoadNetwork::route_index`]).
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    /// `first[n]..first[n + 1]` indexes node `n`'s half-edges; one entry
    /// more than there are nodes.
    first: Vec<u32>,
    edges: Vec<HalfEdge>,
    /// The landmark index trips are planned with, built on first use.
    route_index: OnceLock<AltIndex>,
}

impl Default for RoadNetwork {
    fn default() -> Self {
        RoadNetwork {
            positions: Vec::new(),
            first: vec![0],
            edges: Vec::new(),
            route_index: OnceLock::new(),
        }
    }
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the network in one pass from node positions and an edge list
    /// `(a, b, class)`, each edge as long as the straight line between its
    /// endpoints. Equal, half-edge for half-edge, to [`add_edge`] over the
    /// same list in order.
    ///
    /// [`add_edge`]: Self::add_edge
    pub(crate) fn from_edges(positions: Vec<Point>, list: &[(NodeId, NodeId, RoadClass)]) -> Self {
        let mut first = vec![0u32; positions.len() + 1];
        for &(a, b, _) in list {
            assert!(a != b, "self loops are not road segments");
            first[a as usize + 1] += 1;
            first[b as usize + 1] += 1;
        }
        for n in 1..first.len() {
            first[n] += first[n - 1];
        }
        let placeholder = HalfEdge {
            to: NodeId::MAX,
            length: 0.0,
            class: RoadClass::Local,
        };
        let mut edges = vec![placeholder; 2 * list.len()];
        let mut cursor = first[..positions.len()].to_vec();
        for &(a, b, class) in list {
            let length = positions[a as usize].dist(positions[b as usize]);
            for (from, to) in [(a, b), (b, a)] {
                let slot = &mut cursor[from as usize];
                edges[*slot as usize] = HalfEdge { to, length, class };
                *slot += 1;
            }
        }
        RoadNetwork {
            positions,
            first,
            edges,
            route_index: OnceLock::new(),
        }
    }

    /// The landmark index road trips are planned with: [`ROUTE_LANDMARKS`]
    /// landmarks picked from node 0, built by the first call (on the
    /// calling thread's search scratch) and kept until the network
    /// changes. A world that plans no trip never builds it.
    pub fn route_index(&self) -> &AltIndex {
        self.route_index
            .get_or_init(|| AltIndex::build(self, ROUTE_LANDMARKS))
    }

    /// True once [`RoadNetwork::route_index`] has been built.
    pub fn has_route_index(&self) -> bool {
        self.route_index.get().is_some()
    }

    /// Adds a node at `position`, returning its id.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        assert!(position.is_finite(), "node positions must be finite");
        let id = self.positions.len() as NodeId;
        self.route_index.take();
        self.positions.push(position);
        self.first.push(self.edges.len() as u32);
        id
    }

    /// Adds an undirected edge between `a` and `b` with the given class.
    /// The length is the Euclidean distance between the endpoints.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, class: RoadClass) {
        let length = self.positions[a as usize].dist(self.positions[b as usize]);
        self.add_edge_with_length(a, b, class, length);
    }

    /// Adds an undirected edge with an explicit length (e.g. a curved
    /// segment longer than the straight line). Panics when the length is
    /// below the Euclidean distance, which would break the lower-bound
    /// property.
    pub fn add_edge_with_length(&mut self, a: NodeId, b: NodeId, class: RoadClass, length: f64) {
        assert!(a != b, "self loops are not road segments");
        let euclid = self.positions[a as usize].dist(self.positions[b as usize]);
        assert!(
            length >= euclid - 1e-9,
            "edge length {length} below Euclidean distance {euclid}"
        );
        self.push_half_edge(
            a,
            HalfEdge {
                to: b,
                length,
                class,
            },
        );
        self.push_half_edge(
            b,
            HalfEdge {
                to: a,
                length,
                class,
            },
        );
    }

    /// Appends `edge` to the end of `from`'s half-edges, shifting every
    /// later node's range by one.
    fn push_half_edge(&mut self, from: NodeId, edge: HalfEdge) {
        self.route_index.take();
        let end = from as usize + 1;
        self.edges.insert(self.first[end] as usize, edge);
        for offset in &mut self.first[end..] {
            *offset += 1;
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id as usize]
    }

    /// All node positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Outgoing half-edges of a node.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[HalfEdge] {
        let n = id as usize;
        &self.edges[self.first[n] as usize..self.first[n + 1] as usize]
    }

    /// Bounding rectangle of all nodes.
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_points(self.positions.iter().copied())
    }

    /// Nearest node to `p` by brute force. Prefer a [`crate::NodeLocator`]
    /// for repeated queries.
    pub fn nearest_node_linear(&self, p: Point) -> Option<NodeId> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| p.dist_sq(**a).total_cmp(&p.dist_sq(**b)))
            .map(|(i, _)| i as NodeId)
    }

    /// True when every node can reach every other node (BFS from node 0).
    /// An empty network counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.positions.len()];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = queue.pop_front() {
            for e in self.neighbors(n) {
                if !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    count += 1;
                    queue.push_back(e.to);
                }
            }
        }
        count == self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(3.0, 0.0));
        let c = net.add_node(Point::new(0.0, 4.0));
        net.add_edge(a, b, RoadClass::Local);
        net.add_edge(b, c, RoadClass::Secondary);
        net.add_edge(a, c, RoadClass::Primary);
        net
    }

    #[test]
    fn counts_and_positions() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.position(1), Point::new(3.0, 0.0));
        assert_eq!(net.neighbors(0).len(), 2);
    }

    #[test]
    fn nearest_node_linear_survives_a_nan_point() {
        // Every distance from it is NaN; the comparison used to abort on
        // that (`partial_cmp(..).unwrap()`). Node positions are checked
        // finite on entry, so the point is the only way NaN gets here.
        let net = triangle();
        assert!(net.nearest_node_linear(Point::new(f64::NAN, 1.0)).is_some());
        assert_eq!(net.nearest_node_linear(Point::new(2.9, 0.1)), Some(1));
    }

    #[test]
    fn edge_lengths_are_euclidean_by_default() {
        let net = triangle();
        let e = net.neighbors(1).iter().find(|e| e.to == 2).unwrap();
        assert!((e.length - 5.0).abs() < 1e-12);
    }

    #[test]
    fn curved_edges_accepted_short_edges_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        net.add_edge_with_length(a, b, RoadClass::Local, 1.5); // a bend
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut net2 = RoadNetwork::new();
            let a2 = net2.add_node(Point::new(0.0, 0.0));
            let b2 = net2.add_node(Point::new(1.0, 0.0));
            net2.add_edge_with_length(a2, b2, RoadClass::Local, 0.5);
        }));
        assert!(result.is_err(), "shorter-than-Euclidean edge must panic");
    }

    #[test]
    fn nearest_node_linear() {
        let net = triangle();
        assert_eq!(net.nearest_node_linear(Point::new(0.1, 0.2)), Some(0));
        assert_eq!(net.nearest_node_linear(Point::new(2.9, -0.5)), Some(1));
        assert_eq!(net.nearest_node_linear(Point::new(0.0, 10.0)), Some(2));
        assert_eq!(RoadNetwork::new().nearest_node_linear(Point::ORIGIN), None);
    }

    #[test]
    fn connectivity() {
        let mut net = triangle();
        assert!(net.is_connected());
        net.add_node(Point::new(100.0, 100.0)); // isolated node
        assert!(!net.is_connected());
        assert!(RoadNetwork::new().is_connected());
    }

    /// `add_edge` over `edges` in order, onto `nodes`.
    fn one_by_one(nodes: &[Point], edges: &[(NodeId, NodeId, RoadClass)]) -> RoadNetwork {
        let mut net = RoadNetwork::new();
        for &p in nodes {
            net.add_node(p);
        }
        for &(a, b, class) in edges {
            net.add_edge(a, b, class);
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random multigraphs, a bulk build of a prefix of the edge list
        /// followed by `add_node` / `add_edge` for the rest equals an
        /// edge-by-edge build of the whole list, half-edge for half-edge.
        #[test]
        fn bulk_build_then_add_edge_equals_edge_by_edge(
            points in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..24),
            extra in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..4),
            pairs in prop::collection::vec((0..32u32, 0..32u32, 0..3usize), 0..80),
            split in 0.0..1.0f64,
        ) {
            const CLASSES: [RoadClass; 3] = [RoadClass::Primary, RoadClass::Secondary, RoadClass::Local];
            let to_point = |&(x, y): &(f64, f64)| Point::new(x, y);
            let bulk_nodes: Vec<Point> = points.iter().map(to_point).collect();
            let mut nodes = bulk_nodes.clone();
            nodes.extend(extra.iter().map(to_point));
            let n = nodes.len() as u32;
            let cut = (split * pairs.len() as f64) as usize;
            // The bulk prefix may only use the bulk-built nodes.
            let edge = |(a, b, c): (u32, u32, usize), m: u32| (a % m, b % m, CLASSES[c]);
            let mut edges: Vec<_> = pairs[..cut]
                .iter()
                .map(|&p| edge(p, bulk_nodes.len() as u32))
                .filter(|&(a, b, _)| a != b)
                .collect();
            let bulk_edges = edges.len();
            edges.extend(pairs[cut..].iter().map(|&p| edge(p, n)).filter(|&(a, b, _)| a != b));
            let mut spliced = RoadNetwork::from_edges(bulk_nodes, &edges[..bulk_edges]);
            for &p in &nodes[spliced.node_count()..] {
                spliced.add_node(p);
            }
            for &(a, b, class) in &edges[bulk_edges..] {
                spliced.add_edge(a, b, class);
            }
            let reference = one_by_one(&nodes, &edges);
            prop_assert_eq!(spliced.edge_count(), reference.edge_count());
            for v in 0..n {
                prop_assert_eq!(spliced.position(v), reference.position(v));
                prop_assert_eq!(spliced.neighbors(v), reference.neighbors(v), "node {}", v);
            }
        }
    }

    #[test]
    fn speed_limits_ordered() {
        assert!(RoadClass::Primary.speed_limit_mph() > RoadClass::Secondary.speed_limit_mph());
        assert!(RoadClass::Secondary.speed_limit_mph() > RoadClass::Local.speed_limit_mph());
        // mph→m/s round trip: 30 mph ≈ 13.41 m/s.
        assert!((RoadClass::Local.speed_limit_mps() - 13.4112).abs() < 1e-3);
    }
}
