//! Brute-force reference answers, written here so that they share no code
//! with the layers they check: a linear-scan kNN and a textbook Dijkstra.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use senn_geom::Point;
use senn_network::{NodeId, RoadNetwork};

/// The `k` points nearest to `query` as `(index, distance)`, nearest first,
/// ties broken by index.
pub fn knn_linear(points: &[Point], query: Point, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, query.dist(*p)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// True when `got` (distances, nearest first) is a correct kNN answer for
/// `query`: the same length and the same distances as the linear scan.
/// Distances, not ids, are compared, so that equidistant points may be
/// reported in either order.
pub fn knn_matches(points: &[Point], query: Point, k: usize, got: &[f64]) -> bool {
    let want = knn_linear(points, query, k);
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|((_, w), g)| (w - g).abs() <= 1e-9 * w.max(1.0))
}

/// Ordered wrapper so that distances can sit in a `BinaryHeap`.
#[derive(PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Shortest edge-length distance from `from` to `to`; `None` when
/// unreachable.
pub fn dijkstra(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    let mut best = vec![f64::INFINITY; net.node_count()];
    let mut heap = BinaryHeap::new();
    best[from as usize] = 0.0;
    heap.push(Reverse((Dist(0.0), from)));
    while let Some(Reverse((Dist(d), node))) = heap.pop() {
        if node == to {
            return Some(d);
        }
        if d > best[node as usize] {
            continue;
        }
        for edge in net.neighbors(node) {
            let next = d + edge.length;
            if next < best[edge.to as usize] {
                best[edge.to as usize] = next;
                heap.push(Reverse((Dist(next), edge.to)));
            }
        }
    }
    None
}

/// True when two network distances agree (both unreachable, or equal up to
/// the rounding of summing the same edges in a different order).
pub fn distances_agree(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => (a - b).abs() <= 1e-6 * a.abs().max(1.0),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_network::RoadClass;

    #[test]
    fn knn_linear_on_a_hand_checked_fixture() {
        // Distances from (0,0): 5, 1, 13, 1 (tie), 2.
        let pts = [
            Point::new(3.0, 4.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 12.0),
            Point::new(0.0, -1.0),
            Point::new(0.0, 2.0),
        ];
        let got = knn_linear(&pts, Point::ORIGIN, 3);
        assert_eq!(got, vec![(1, 1.0), (3, 1.0), (4, 2.0)]);
        assert_eq!(knn_linear(&pts, Point::ORIGIN, 9).len(), 5);
        assert!(knn_matches(&pts, Point::ORIGIN, 3, &[1.0, 1.0, 2.0]));
        assert!(!knn_matches(&pts, Point::ORIGIN, 3, &[1.0, 2.0, 5.0]));
        assert!(!knn_matches(&pts, Point::ORIGIN, 3, &[1.0, 1.0]));
    }

    #[test]
    fn dijkstra_on_a_hand_checked_fixture() {
        // 0 -1- 1 -1- 2 -1- 3, a 10-long shortcut 0-3 that loses, a 2.5-long
        // chord 0-2 that loses to 0-1-2, and an island 4.
        let mut net = RoadNetwork::new();
        for i in 0..5 {
            net.add_node(Point::new(f64::from(i), 0.0));
        }
        for (a, b, len) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (0, 3, 10.0),
            (0, 2, 2.5),
        ] {
            net.add_edge_with_length(a, b, RoadClass::Local, len);
        }
        assert_eq!(dijkstra(&net, 0, 3), Some(3.0));
        assert_eq!(dijkstra(&net, 3, 0), Some(3.0));
        assert_eq!(dijkstra(&net, 0, 2), Some(2.0));
        assert_eq!(dijkstra(&net, 2, 2), Some(0.0));
        assert_eq!(dijkstra(&net, 0, 4), None);
        assert!(distances_agree(Some(3.0), Some(3.0 + 1e-9)));
        assert!(!distances_agree(Some(3.0), Some(3.1)));
        assert!(!distances_agree(Some(3.0), None));
    }
}
