//! Shortest paths on the modeling graph.
//!
//! "The shortest path between two nodes can be computed with Dijkstra's
//! algorithm, which is leveraged as the basis for computing the network
//! distance between any two arbitrary points" (Section 3.4). A\* with the
//! Euclidean heuristic is provided as an extension; the heuristic is
//! admissible because every edge is at least as long as the straight line
//! between its endpoints.
//!
//! ## Allocation-free hot path
//!
//! Route planning runs once per host trip and network kNN runs A\* once
//! per candidate POI, so the naive formulation — a fresh `dist` vector and
//! a fresh binary heap per call — dominates the simulator's allocation
//! profile. All searches here instead run against a [`DijkstraScratch`]:
//! distance/predecessor arrays validated by a *generation stamp* (bumping
//! one counter invalidates the whole array in O(1), no `memset`) plus a
//! reusable heap. The classic-signature entry points keep working and
//! borrow a thread-local scratch; batch engines that manage worker state
//! explicitly use the `*_with` variants.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use senn_geom::Point;

use crate::graph::{NodeId, RoadNetwork};

#[derive(PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) priority: f64,
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .priority
            .partial_cmp(&self.priority)
            .unwrap_or(Ordering::Equal)
    }
}

/// Reusable search state: generation-stamped distance and predecessor
/// arrays plus the priority queue.
///
/// `begin` bumps the generation counter, which logically resets the
/// arrays without touching their bytes; entries whose stamp does not
/// match the current generation read as "unvisited". One scratch serves
/// any number of consecutive searches over networks of any size (arrays
/// grow monotonically to the largest node count seen).
#[derive(Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    prev: Vec<NodeId>,
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapItem>,
}

impl DijkstraScratch {
    /// An empty scratch; arrays are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for a search over `n` nodes.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, NodeId::MAX);
            self.stamp.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: erase stale stamps once every 2^32 runs.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    #[inline]
    pub(crate) fn dist(&self, node: NodeId) -> f64 {
        let i = node as usize;
        if self.stamp[i] == self.generation {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    pub(crate) fn set_dist(&mut self, node: NodeId, d: f64, prev: NodeId) {
        let i = node as usize;
        self.dist[i] = d;
        self.prev[i] = prev;
        self.stamp[i] = self.generation;
    }

    #[inline]
    fn prev(&self, node: NodeId) -> NodeId {
        let i = node as usize;
        if self.stamp[i] == self.generation {
            self.prev[i]
        } else {
            NodeId::MAX
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, priority: f64, dist: f64, node: NodeId) {
        self.heap.push(HeapItem {
            priority,
            dist,
            node,
        });
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<HeapItem> {
        self.heap.pop()
    }
}

thread_local! {
    static SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new());
}

/// Runs `f` with the calling thread's shared search scratch.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut DijkstraScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant use (a caller invoking a classic-signature search
        // while holding the scratch): fall back to a fresh scratch.
        Err(_) => f(&mut DijkstraScratch::new()),
    })
}

/// Network distance between two nodes via Dijkstra with early exit;
/// `None` when `to` is unreachable.
pub fn dijkstra_distance(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    with_thread_scratch(|s| dijkstra_distance_with(net, from, to, s))
}

/// [`dijkstra_distance`] against a caller-managed scratch.
pub fn dijkstra_distance_with(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    scratch: &mut DijkstraScratch,
) -> Option<f64> {
    search(net, from, Some(to), None, scratch)
}

/// Network distance via A\* with the Euclidean heuristic. Identical result
/// to [`dijkstra_distance`], usually with fewer node settlements.
pub fn astar_distance(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    with_thread_scratch(|s| astar_distance_with(net, from, to, s))
}

/// [`astar_distance`] against a caller-managed scratch.
pub fn astar_distance_with(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    scratch: &mut DijkstraScratch,
) -> Option<f64> {
    let goal = net.position(to);
    search(net, from, Some(to), Some(goal), scratch)
}

/// One-to-many Dijkstra: network distance from `from` to every node,
/// `f64::INFINITY` for unreachable nodes. `max_dist` truncates the
/// expansion (distances beyond it stay infinite).
pub fn dijkstra_map(net: &RoadNetwork, from: NodeId, max_dist: Option<f64>) -> Vec<f64> {
    let mut out = Vec::new();
    dijkstra_map_into(net, from, max_dist, &mut out);
    out
}

/// [`dijkstra_map`] writing into a caller-provided vector (cleared
/// first), so repeated calls reuse both the output and the search state.
pub fn dijkstra_map_into(
    net: &RoadNetwork,
    from: NodeId,
    max_dist: Option<f64>,
    out: &mut Vec<f64>,
) {
    with_thread_scratch(|scratch| {
        let n = net.node_count();
        scratch.begin(n);
        scratch.set_dist(from, 0.0, NodeId::MAX);
        scratch.push(0.0, 0.0, from);
        while let Some(HeapItem { dist: d, node, .. }) = scratch.pop() {
            if d > scratch.dist(node) {
                continue;
            }
            if let Some(limit) = max_dist {
                if d > limit {
                    continue;
                }
            }
            for e in net.neighbors(node) {
                let nd = d + e.length;
                if nd < scratch.dist(e.to) {
                    scratch.set_dist(e.to, nd, node);
                    scratch.push(nd, nd, e.to);
                }
            }
        }
        out.clear();
        out.reserve(n);
        out.extend((0..n).map(|i| scratch.dist(i as NodeId)));
    });
}

/// Shortest path between two nodes as a node sequence (inclusive of both
/// endpoints), plus its length; `None` when unreachable.
pub fn shortest_path_nodes(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> Option<(Vec<NodeId>, f64)> {
    with_thread_scratch(|s| {
        let total = search(net, from, Some(to), None, s)?;
        let mut path = Vec::new();
        recover_path(from, to, s, &mut path);
        Some((path, total))
    })
}

/// Shortest path via A\* (Euclidean heuristic) as a node sequence plus its
/// length; `None` when unreachable. Equivalent to
/// [`shortest_path_nodes`] but typically settles fewer nodes.
pub fn astar_path(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<(Vec<NodeId>, f64)> {
    with_thread_scratch(|s| astar_path_with(net, from, to, s))
}

/// [`astar_path`] against a caller-managed scratch.
pub fn astar_path_with(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    scratch: &mut DijkstraScratch,
) -> Option<(Vec<NodeId>, f64)> {
    let mut path = Vec::new();
    let total = astar_path_into(net, from, to, scratch, &mut path)?;
    Some((path, total))
}

/// [`astar_path_with`] writing the node sequence into `path` (cleared
/// first; left empty when unreachable) and returning its length, so a
/// caller that plans route after route reuses one buffer.
pub fn astar_path_into(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    scratch: &mut DijkstraScratch,
    path: &mut Vec<NodeId>,
) -> Option<f64> {
    path.clear();
    let goal = net.position(to);
    let total = search(net, from, Some(to), Some(goal), scratch)?;
    recover_path(from, to, scratch, path);
    Some(total)
}

/// Walks the predecessor chain left by the last search in `scratch`,
/// appending `from ..= to` to the empty `path`.
fn recover_path(from: NodeId, to: NodeId, scratch: &DijkstraScratch, path: &mut Vec<NodeId>) {
    path.push(to);
    let mut cur = to;
    while cur != from {
        cur = scratch.prev(cur);
        path.push(cur);
    }
    path.reverse();
}

/// Core label-setting search. With `heuristic_goal` set it is A\*,
/// otherwise Dijkstra. Returns the distance to `target` when reached;
/// predecessors stay in `scratch` for [`recover_path`].
fn search(
    net: &RoadNetwork,
    from: NodeId,
    target: Option<NodeId>,
    heuristic_goal: Option<Point>,
    scratch: &mut DijkstraScratch,
) -> Option<f64> {
    scratch.begin(net.node_count());
    let h = |node: NodeId| -> f64 { heuristic_goal.map_or(0.0, |g| net.position(node).dist(g)) };
    scratch.set_dist(from, 0.0, NodeId::MAX);
    scratch.push(h(from), 0.0, from);
    while let Some(HeapItem { dist: d, node, .. }) = scratch.pop() {
        if d > scratch.dist(node) {
            continue;
        }
        if Some(node) == target {
            return Some(d);
        }
        for e in net.neighbors(node) {
            let nd = d + e.length;
            if nd < scratch.dist(e.to) {
                scratch.set_dist(e.to, nd, node);
                scratch.push(nd + h(e.to), nd, e.to);
            }
        }
    }
    let t = target?;
    scratch.dist(t).is_finite().then(|| scratch.dist(t))
}

impl RoadNetwork {
    /// Network distance between two arbitrary *points*: each point is
    /// snapped to its nearest node, and the straight legs to/from the
    /// snap nodes are added. Preserves `ED(p, q) <= ND(p, q)` by the
    /// triangle inequality. `None` on an empty or disconnected network.
    pub fn network_distance_points(&self, p: Point, q: Point) -> Option<f64> {
        let a = self.nearest_node_linear(p)?;
        let b = self.nearest_node_linear(q)?;
        let core = dijkstra_distance(self, a, b)?;
        Some(p.dist(self.position(a)) + core + self.position(b).dist(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadClass;

    /// 4x4 grid with unit spacing, plus one diagonal shortcut.
    fn grid() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let mut ids = vec![];
        for y in 0..4 {
            for x in 0..4 {
                ids.push(net.add_node(Point::new(x as f64, y as f64)));
            }
        }
        let at = |x: usize, y: usize| ids[y * 4 + x];
        for y in 0..4 {
            for x in 0..4 {
                if x + 1 < 4 {
                    net.add_edge(at(x, y), at(x + 1, y), RoadClass::Local);
                }
                if y + 1 < 4 {
                    net.add_edge(at(x, y), at(x, y + 1), RoadClass::Local);
                }
            }
        }
        net
    }

    #[test]
    fn dijkstra_on_grid_is_manhattan() {
        let net = grid();
        // (0,0) -> (3,3): manhattan distance 6.
        assert_eq!(dijkstra_distance(&net, 0, 15), Some(6.0));
        assert_eq!(dijkstra_distance(&net, 0, 0), Some(0.0));
        assert_eq!(dijkstra_distance(&net, 5, 6), Some(1.0));
    }

    #[test]
    fn astar_agrees_with_dijkstra() {
        let net = grid();
        for from in 0..16u32 {
            for to in 0..16u32 {
                assert_eq!(
                    dijkstra_distance(&net, from, to),
                    astar_distance(&net, from, to),
                    "mismatch {from}->{to}"
                );
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = grid();
        let island = net.add_node(Point::new(100.0, 100.0));
        assert_eq!(dijkstra_distance(&net, 0, island), None);
        assert_eq!(astar_distance(&net, 0, island), None);
        assert!(shortest_path_nodes(&net, 0, island).is_none());
    }

    #[test]
    fn path_recovery() {
        let net = grid();
        let (path, len) = shortest_path_nodes(&net, 0, 15).unwrap();
        assert_eq!(len, 6.0);
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&15));
        assert_eq!(path.len(), 7);
        // Consecutive nodes are adjacent.
        for w in path.windows(2) {
            assert!(net.neighbors(w[0]).iter().any(|e| e.to == w[1]));
        }
    }

    #[test]
    fn dijkstra_map_full_and_truncated() {
        let net = grid();
        let full = dijkstra_map(&net, 0, None);
        assert_eq!(full[15], 6.0);
        assert_eq!(full[0], 0.0);
        let trunc = dijkstra_map(&net, 0, Some(2.0));
        assert_eq!(trunc[1], 1.0);
        assert!(trunc[15].is_infinite());
    }

    #[test]
    fn euclidean_lower_bound_property() {
        let net = grid();
        for from in 0..16u32 {
            let map = dijkstra_map(&net, from, None);
            for to in 0..16u32 {
                let ed = net.position(from).dist(net.position(to));
                assert!(
                    map[to as usize] >= ed - 1e-12,
                    "ND {} < ED {} for {from}->{to}",
                    map[to as usize],
                    ed
                );
            }
        }
    }

    #[test]
    fn point_distance_respects_lower_bound() {
        let net = grid();
        let p = Point::new(0.2, 0.3);
        let q = Point::new(2.7, 2.9);
        let nd = net.network_distance_points(p, q).unwrap();
        assert!(nd >= p.dist(q) - 1e-12);
    }

    #[test]
    fn scratch_reuse_across_searches_and_networks() {
        let net = grid();
        let mut scratch = DijkstraScratch::new();
        // Interleave A* and Dijkstra on the same scratch; stale state from
        // one search must never leak into the next.
        for from in 0..16u32 {
            for to in 0..16u32 {
                let fresh = dijkstra_distance_with(&net, from, to, &mut DijkstraScratch::new());
                assert_eq!(
                    dijkstra_distance_with(&net, from, to, &mut scratch),
                    fresh,
                    "dijkstra {from}->{to}"
                );
                assert_eq!(
                    astar_distance_with(&net, from, to, &mut scratch),
                    fresh,
                    "astar {from}->{to}"
                );
            }
        }
        // A smaller network after a bigger one: arrays stay oversized but
        // stamps keep results correct.
        let mut tiny = RoadNetwork::new();
        let a = tiny.add_node(Point::new(0.0, 0.0));
        let b = tiny.add_node(Point::new(3.0, 4.0));
        tiny.add_edge(a, b, RoadClass::Local);
        assert_eq!(dijkstra_distance_with(&tiny, a, b, &mut scratch), Some(5.0));
        // And paths recovered from the shared scratch stay valid.
        let (path, len) = astar_path_with(&net, 0, 15, &mut scratch).unwrap();
        assert_eq!(len, 6.0);
        assert_eq!(path.len(), 7);
    }

    #[test]
    fn generation_wraparound_is_safe() {
        let net = grid();
        let mut scratch = DijkstraScratch {
            generation: u32::MAX - 2,
            ..DijkstraScratch::default()
        };
        for _ in 0..6 {
            assert_eq!(dijkstra_distance_with(&net, 0, 15, &mut scratch), Some(6.0));
        }
    }
}
