//! The road-network modeling graph.

use senn_geom::{Point, Rect};

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

/// A half-edge in the adjacency list.
#[derive(Clone, Copy, Debug)]
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
#[derive(Clone, Debug, Default)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    adjacency: Vec<Vec<HalfEdge>>,
    edge_count: usize,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `position`, returning its id.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        assert!(position.is_finite(), "node positions must be finite");
        let id = self.positions.len() as NodeId;
        self.positions.push(position);
        self.adjacency.push(Vec::new());
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
        self.adjacency[a as usize].push(HalfEdge {
            to: b,
            length,
            class,
        });
        self.adjacency[b as usize].push(HalfEdge {
            to: a,
            length,
            class,
        });
        self.edge_count += 1;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
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
        &self.adjacency[id as usize]
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

    #[test]
    fn speed_limits_ordered() {
        assert!(RoadClass::Primary.speed_limit_mph() > RoadClass::Secondary.speed_limit_mph());
        assert!(RoadClass::Secondary.speed_limit_mph() > RoadClass::Local.speed_limit_mph());
        // mph→m/s round trip: 30 mph ≈ 13.41 m/s.
        assert!((RoadClass::Local.speed_limit_mps() - 13.4112).abs() < 1e-3);
    }
}
