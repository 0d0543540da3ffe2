//! Shortest paths on the modeling graph.
//!
//! "The shortest path between two nodes can be computed with Dijkstra's
//! algorithm, which is leveraged as the basis for computing the network
//! distance between any two arbitrary points" (Section 3.4). A\* with the
//! Euclidean heuristic is provided as an extension; the heuristic is
//! admissible because every edge is at least as long as the straight line
//! between its endpoints. [`astar_path`] is the reference road-trip
//! routes are tested against; movers plan with ALT ([`crate::alt`]).
//!
//! ## One kernel
//!
//! Every label-setting search of this crate runs one loop: Dijkstra and
//! A\* here, ALT ([`crate::alt`]), INE ([`crate::knn`]) and the effort
//! probes ([`counting_dijkstra`] and its siblings). Only the contraction
//! hierarchy ([`crate::ch`]) searches on its own. Every search ranks by
//! edge length; the kernel is generic over two things: the heuristic
//! that orders the queue, and a visitor that sees each settled node and
//! may stop the search. It counts [`SearchStats`] as it goes.
//!
//! The kernel runs on the calling thread's scratch: one array of 16-byte
//! labels (distance, predecessor, and a *generation stamp* that says
//! whether the other two belong to the current search: bumping one
//! counter invalidates every label in O(1), no `memset`) plus a reused
//! heap. Route planning ([`crate::alt_path_into`]) runs once per host
//! trip, the route index's build runs one search per landmark on the
//! same scratch, and network kNN runs once per candidate POI, so no
//! search allocates. Each question has one public entry, and a node id
//! outside the network is an absent endpoint: the answer is `None`, not
//! a panic.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use senn_geom::Point;

use crate::graph::{NodeId, RoadNetwork};

/// A queue entry: `priority` (the label plus the heuristic) orders the
/// heap, and `dist` is the label the node was pushed with.
#[derive(PartialEq)]
struct HeapItem {
    priority: f64,
    dist: f64,
    node: NodeId,
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

/// Search-effort counters of one label-setting run: how many nodes were
/// settled (popped with their final distance) and how many edges were
/// scanned from settled nodes. Both shrink as the heuristic tightens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled (popped from the queue with their final distance).
    pub settled: u64,
    /// Edges scanned (relaxation attempts) from settled nodes.
    pub relaxed: u64,
}

impl SearchStats {
    /// Accumulates another run's counters (for multi-query totals).
    pub fn add(&mut self, other: SearchStats) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
    }
}

/// One node's search label, 16 bytes: the distance it was reached at,
/// its predecessor, and the generation stamp that says whether the other
/// two belong to the current search.
#[derive(Clone, Copy)]
struct Label {
    dist: f64,
    prev: NodeId,
    stamp: u32,
}

impl Label {
    const UNSEEN: Label = Label {
        dist: f64::INFINITY,
        prev: NodeId::MAX,
        stamp: 0,
    };
}

/// The kernel's reusable state: one generation-stamped label per node
/// plus the priority queue.
///
/// A label whose stamp does not match the current generation reads as
/// "unvisited", so starting a search resets the array without touching
/// its bytes. One scratch serves any number of consecutive searches over
/// networks of any size (the array grows to the largest node count seen).
#[derive(Default)]
pub(crate) struct DijkstraScratch {
    labels: Vec<Label>,
    generation: u32,
    heap: BinaryHeap<HeapItem>,
}

impl DijkstraScratch {
    /// Logically resets the scratch for a search over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.labels.len() < n {
            self.labels.resize(n, Label::UNSEEN);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: erase stale stamps once every 2^32 runs.
            self.labels.iter_mut().for_each(|l| l.stamp = 0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn dist(&self, node: NodeId) -> f64 {
        let label = self.labels[node as usize];
        if label.stamp == self.generation {
            label.dist
        } else {
            f64::INFINITY
        }
    }

    /// The label-setting kernel: settles nodes of `net` outward from
    /// `from` in order of label plus `h`, where an edge adds its length to
    /// the label. `settle(node, label)` sees each settled node before its
    /// edges are relaxed, and stops the search by returning true. A
    /// `from` outside `net` settles nothing.
    #[inline]
    pub(crate) fn search(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        h: impl Fn(NodeId) -> f64,
        mut settle: impl FnMut(NodeId, f64) -> bool,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        let n = net.node_count();
        self.begin(n);
        if from as usize >= n {
            return stats;
        }
        self.set(from, 0.0, NodeId::MAX);
        self.heap.push(HeapItem {
            priority: h(from),
            dist: 0.0,
            node: from,
        });
        while let Some(HeapItem { dist: d, node, .. }) = self.heap.pop() {
            if d > self.dist(node) {
                continue;
            }
            stats.settled += 1;
            if settle(node, d) {
                break;
            }
            for e in net.neighbors(node) {
                stats.relaxed += 1;
                let nd = d + e.length;
                if nd < self.dist(e.to) {
                    self.set(e.to, nd, node);
                    self.heap.push(HeapItem {
                        priority: nd + h(e.to),
                        dist: nd,
                        node: e.to,
                    });
                }
            }
        }
        stats
    }

    #[inline]
    fn set(&mut self, node: NodeId, dist: f64, prev: NodeId) {
        self.labels[node as usize] = Label {
            dist,
            prev,
            stamp: self.generation,
        };
    }

    /// Walks the predecessor chain of the last search back from a settled
    /// `to`, appending `from ..= to` to the empty `path`.
    fn recover_path(&self, from: NodeId, to: NodeId, path: &mut Vec<NodeId>) {
        path.push(to);
        let mut cur = to;
        while cur != from {
            cur = self.labels[cur as usize].prev;
            path.push(cur);
        }
        path.reverse();
    }
}

thread_local! {
    static SCRATCH: RefCell<DijkstraScratch> = RefCell::default();
}

/// Runs `f` with the calling thread's search scratch.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut DijkstraScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant use (a visitor starting a search of its own): fall
        // back to a fresh scratch.
        Err(_) => f(&mut DijkstraScratch::default()),
    })
}

/// Dijkstra's heuristic.
pub(crate) fn zero(_: NodeId) -> f64 {
    0.0
}

/// The A\* heuristic: the straight line from a node to `to`.
pub(crate) fn euclid(net: &RoadNetwork, to: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
    let goal = net.position(to);
    move |v| net.position(v).dist(goal)
}

/// Runs the kernel from `from` until `to` settles, returning the distance
/// (`None` when `to` is unreachable or either endpoint lies outside
/// `net`) and the effort. `guide` builds the heuristic once `to` is known
/// to be a node. With `path` given, a reached route `from ..= to` is
/// appended to it.
pub(crate) fn to_target<H: Fn(NodeId) -> f64>(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    guide: impl FnOnce() -> H,
    path: Option<&mut Vec<NodeId>>,
) -> (Option<f64>, SearchStats) {
    if to as usize >= net.node_count() {
        return (None, SearchStats::default());
    }
    with_thread_scratch(|s| {
        let mut reached = None;
        let stats = s.search(net, from, guide(), |node, d| {
            if node == to {
                reached = Some(d);
            }
            node == to
        });
        if let (Some(_), Some(path)) = (reached, path) {
            s.recover_path(from, to, path);
        }
        (reached, stats)
    })
}

/// Network distance between two nodes via Dijkstra with early exit;
/// `None` when `to` is unreachable or either node lies outside `net`.
pub fn dijkstra_distance(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    counting_dijkstra(net, from, to).0
}

/// Network distance via A\* with the Euclidean heuristic, usually with
/// fewer node settlements than [`dijkstra_distance`]. The result equals
/// Dijkstra's bit for bit where the shortest path is unique (always, up
/// to measure-zero ties, on jittered networks). Where several paths tie,
/// it is the left-to-right fold of whichever tied path A\* settles the
/// target through, which can differ from Dijkstra's in the last bit: the
/// heuristic is exact along a straight run, so it is admissible only up
/// to rounding (pinned by `astar_rounding_differs_from_dijkstra_on_a_tie`).
pub fn astar_distance(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    counting_astar(net, from, to).0
}

/// One-to-many Dijkstra: network distance from `from` to every node,
/// `f64::INFINITY` for unreachable nodes (all of them when `from` lies
/// outside `net`).
pub fn dijkstra_map(net: &RoadNetwork, from: NodeId) -> Vec<f64> {
    with_thread_scratch(|s| {
        s.search(net, from, zero, |_, _| false);
        (0..net.node_count() as NodeId).map(|v| s.dist(v)).collect()
    })
}

/// Shortest path via A\* (Euclidean heuristic) as a node sequence
/// (inclusive of both endpoints) plus its length; `None` when unreachable.
/// The reference the route planner ([`crate::alt_path_into`]) is tested
/// against.
pub fn astar_path(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<(Vec<NodeId>, f64)> {
    let mut path = Vec::new();
    let total = to_target(net, from, to, || euclid(net, to), Some(&mut path)).0?;
    Some((path, total))
}

/// Plain Dijkstra with effort counters (the heuristic-quality baseline).
pub fn counting_dijkstra(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> (Option<f64>, SearchStats) {
    to_target(net, from, to, || zero, None)
}

/// Euclidean-heuristic A\* with effort counters.
pub fn counting_astar(net: &RoadNetwork, from: NodeId, to: NodeId) -> (Option<f64>, SearchStats) {
    to_target(net, from, to, || euclid(net, to), None)
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

    /// 4x4 grid with unit spacing.
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
        assert_eq!(astar_path(&net, 0, island), None);
    }

    #[test]
    fn path_recovery() {
        let net = grid();
        let (path, len) = astar_path(&net, 0, 15).unwrap();
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
    fn dijkstra_map_covers_every_node() {
        let net = grid();
        let full = dijkstra_map(&net, 0);
        assert_eq!(full.len(), 16);
        assert_eq!(full[15], 6.0);
        assert_eq!(full[0], 0.0);
        // A source outside the network reaches nothing.
        assert!(dijkstra_map(&net, 16).iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn euclidean_lower_bound_property() {
        let net = grid();
        for from in 0..16u32 {
            let map = dijkstra_map(&net, from);
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
        // Interleave full maps, Dijkstra and A* on the thread's scratch;
        // stale state from one search must never leak into the next.
        for from in 0..16u32 {
            let map = dijkstra_map(&net, from);
            for to in 0..16u32 {
                let want = Some(map[to as usize]);
                assert_eq!(dijkstra_distance(&net, from, to), want, "{from}->{to}");
                assert_eq!(astar_distance(&net, from, to), want, "{from}->{to}");
            }
        }
        // A smaller network after a bigger one: arrays stay oversized but
        // stamps keep results correct.
        let mut tiny = RoadNetwork::new();
        let a = tiny.add_node(Point::new(0.0, 0.0));
        let b = tiny.add_node(Point::new(3.0, 4.0));
        tiny.add_edge(a, b, RoadClass::Local);
        assert_eq!(dijkstra_distance(&tiny, a, b), Some(5.0));
        assert_eq!(dijkstra_map(&tiny, a), vec![0.0, 5.0]);
        // And paths recovered from the shared scratch stay valid.
        let (path, len) = astar_path(&net, 0, 15).unwrap();
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
            let stats = scratch.search(&net, 0, zero, |node, _| node == 15);
            assert_eq!(scratch.dist(15), 6.0);
            assert_eq!(stats.settled, 16, "the far corner settles last");
        }
    }

    /// On an unjittered city (tie-rich: every grid block has two equal
    /// routes round it) A\* settles trip 31 → 338 through a tied route
    /// whose fold is one ulp above Dijkstra's; ALT matches Dijkstra. Both
    /// lengths are the shortest up to rounding.
    #[test]
    fn astar_rounding_differs_from_dijkstra_on_a_tie() {
        use crate::generator::{generate_network, GeneratorConfig};
        let net = generate_network(&GeneratorConfig {
            jitter: 0.0,
            ..GeneratorConfig::city(3000.0, 5)
        });
        let astar = astar_distance(&net, 31, 338).map(f64::to_bits);
        let dijkstra = dijkstra_distance(&net, 31, 338).map(f64::to_bits);
        assert_eq!(astar, Some(4660204341633358577));
        assert_eq!(dijkstra, Some(4660204341633358576));
        let alt = crate::alt::counting_alt(&net, net.route_index(), 31, 338).0;
        assert_eq!(alt.map(f64::to_bits), dijkstra);
    }

    #[test]
    fn the_kernel_counts_what_it_settles_and_scans() {
        let net = grid();
        // A full expansion settles every node once and scans every
        // half-edge once: 24 undirected edges.
        let stats = with_thread_scratch(|s| s.search(&net, 0, zero, |_, _| false));
        assert_eq!(
            stats,
            SearchStats {
                settled: 16,
                relaxed: 48
            }
        );
        // A visitor that stops at once settles the source and scans nothing.
        let stats = with_thread_scratch(|s| s.search(&net, 0, zero, |_, _| true));
        assert_eq!(
            stats,
            SearchStats {
                settled: 1,
                relaxed: 0
            }
        );
    }
}
