//! ALT: A\* with landmark lower bounds (Goldberg & Harrelson, SODA 2005).
//!
//! The plain Euclidean heuristic is weak on road networks (network
//! distance ≈ L1 on a grid, heuristic = L2). ALT preprocesses
//! shortest-path distances from a few *landmarks* and uses the triangle
//! inequality `d(u, t) >= |d(L, t) - d(L, u)|` as an admissible heuristic
//! that is much tighter. The paper plans routes with plain Dijkstra;
//! here [`alt_path_into`] plans each trip of a road mover over the
//! network's own [`RoadNetwork::route_index`] ([`ROUTE_LANDMARKS`]
//! landmarks, built on first use). On the simulator's city networks it
//! settles about half the nodes Euclidean A\* settles for the same route
//! (EXPERIMENTS.md). SNNN ranks candidates with the CH oracle, not with
//! ALT ([`crate::distance`]).
//!
//! The search itself is the crate's one label-setting kernel
//! ([`crate::shortest_path`]) with the landmark bound as its heuristic.
//!
//! ## The table
//!
//! One node-major array of `f32` rows, a row per node and a column per
//! landmark: 16 bytes a node at four landmarks, and the bound reads two
//! adjacent rows. It is filled in place from the thread's search scratch,
//! one landmark's search at a time. Rounding to `f32` moves each stored
//! distance by at most half an ulp of the largest one, and the difference
//! by at most another half, so every bound subtracts two `f32` ulps of
//! the largest landmark distance and stays admissible. A node a landmark
//! cannot reach stores NaN, which the bound's `max` skips.

use crate::graph::{NodeId, RoadNetwork};
use crate::shortest_path::{to_target, with_thread_scratch, zero, SearchStats};

/// Landmarks of [`RoadNetwork::route_index`], the index every road trip is
/// planned with: a row of four `f32` distances is 16 bytes a node.
pub const ROUTE_LANDMARKS: usize = 4;

/// Preprocessed landmark distances for ALT queries (module docs).
#[derive(Clone, Debug)]
pub struct AltIndex {
    /// `table[v * width + l]`: network distance from landmark `l` to node
    /// `v`, rounded to `f32`; NaN when `l` cannot reach `v`.
    table: Vec<f32>,
    landmarks: Vec<NodeId>,
    /// What every bound subtracts: two `f32` ulps of the largest finite
    /// landmark distance.
    slack: f64,
}

impl AltIndex {
    /// Builds the index with up to `count` landmarks chosen by
    /// farthest-point selection, seeded from node 0 (see
    /// [`AltIndex::build_seeded`]).
    pub fn build(net: &RoadNetwork, count: usize) -> Self {
        Self::build_seeded(net, count, 0)
    }

    /// Builds the index with up to `count` landmarks chosen by
    /// farthest-point selection (the standard "avoid"-like greedy: each
    /// new landmark is the node farthest from all previous ones). The
    /// first landmark is `seed % node_count`, and ties in the greedy pick
    /// are broken toward the lowest node id — the landmark set is a pure
    /// function of `(net, count, seed)`.
    ///
    /// When `count` meets or exceeds the number of distinct nodes
    /// reachable from the seed landmark, selection stops early and the
    /// index simply holds fewer landmarks: no panic, and never a
    /// duplicate landmark (every extra duplicate would cost a full
    /// Dijkstra search while adding zero pruning power).
    pub fn build_seeded(net: &RoadNetwork, count: usize, seed: u64) -> Self {
        assert!(count >= 1, "need at least one landmark");
        let n = net.node_count();
        let width = count.min(n);
        let mut table = vec![f32::NAN; n * width];
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(width);
        if n == 0 {
            return AltIndex {
                table,
                landmarks,
                slack: 0.0,
            };
        }
        let mut min_dist = vec![f64::INFINITY; n];
        let mut chosen = vec![false; n];
        let mut largest = 0.0f64;
        let mut next = (seed % n as u64) as NodeId;
        with_thread_scratch(|s| {
            for l in 0..width {
                chosen[next as usize] = true;
                landmarks.push(next);
                // Every node settles once, with its final distance.
                s.search(net, next, zero, |v, d| {
                    let v = v as usize;
                    table[v * width + l] = d as f32;
                    min_dist[v] = min_dist[v].min(d);
                    largest = largest.max(d);
                    false
                });
                // Farthest not-yet-chosen node reachable from the
                // landmarks so far; strictly-greater comparison breaks
                // ties toward the lowest node id, keeping the set
                // deterministic.
                let mut best: Option<(usize, f64)> = None;
                for (v, &dv) in min_dist.iter().enumerate() {
                    if chosen[v] || !dv.is_finite() {
                        continue;
                    }
                    if best.is_none_or(|(_, bd)| dv > bd) {
                        best = Some((v, dv));
                    }
                }
                match best {
                    Some((v, _)) => next = v as NodeId,
                    // Every reachable node is already a landmark: clamp.
                    None => break,
                }
            }
        });
        let kept = landmarks.len();
        if kept < width {
            // Close the unused columns up, in place: row `v` moves down
            // to `v * kept`, never past a row still to be read.
            for v in 0..n {
                for l in 0..kept {
                    table[v * kept + l] = table[v * width + l];
                }
            }
            table.truncate(n * kept);
        }
        let top = largest as f32;
        let ulp = f32::from_bits(top.to_bits() + 1) - top;
        AltIndex {
            table,
            landmarks,
            slack: 2.0 * f64::from(ulp),
        }
    }

    /// The selected landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Node `v`'s row of landmark distances.
    #[inline]
    fn row(&self, v: NodeId) -> &[f32] {
        let width = self.landmarks.len();
        let start = v as usize * width;
        &self.table[start..start + width]
    }

    /// The bound toward `t` as a heuristic: `v ↦ lower_bound(v, t)`, with
    /// `t`'s row read once.
    #[inline]
    fn toward(&self, t: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        let target = self.row(t);
        move |v| {
            let mut best = 0.0f32;
            for (&a, &b) in self.row(v).iter().zip(target) {
                // NaN (a landmark that reaches only one of the two) is
                // skipped by `max`.
                best = best.max((a - b).abs());
            }
            (f64::from(best) - self.slack).max(0.0)
        }
    }

    /// Admissible lower bound on `d(u, t)` from the triangle inequality
    /// over all landmarks, less the rounding slack (module docs); 0 when
    /// no landmark reaches both nodes.
    #[inline]
    pub fn lower_bound(&self, u: NodeId, t: NodeId) -> f64 {
        self.toward(t)(u)
    }
}

/// ALT-heuristic A\* with effort counters: the distance of
/// [`crate::dijkstra_distance`], usually with far fewer settled nodes.
pub fn counting_alt(
    net: &RoadNetwork,
    index: &AltIndex,
    from: NodeId,
    to: NodeId,
) -> (Option<f64>, SearchStats) {
    to_target(net, from, to, || index.toward(to), None)
}

/// The shortest route `from ..= to` under the ALT heuristic, written into
/// `path` (cleared first; left empty when unreachable), with its length
/// and the search's effort. `index` must have been built over `net`. The
/// planner of every road trip: where the shortest route is unique it is
/// the route [`crate::astar_path`] finds, with fewer settled nodes.
pub fn alt_path_into(
    net: &RoadNetwork,
    index: &AltIndex,
    from: NodeId,
    to: NodeId,
    path: &mut Vec<NodeId>,
) -> (Option<f64>, SearchStats) {
    path.clear();
    to_target(net, from, to, || index.toward(to), Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, GeneratorConfig};
    use crate::graph::RoadClass;
    use crate::shortest_path::{
        astar_distance, astar_path, counting_dijkstra, dijkstra_distance, dijkstra_map,
    };
    use proptest::prelude::*;
    use senn_geom::Point;

    fn net() -> RoadNetwork {
        generate_network(&GeneratorConfig::city(2500.0, 42))
    }

    /// A splitmix64 stream: reproducible test data from a seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `count` trips between distinct nodes at most `radius` apart, the
    /// kind of trip a road mover plans.
    fn trips(net: &RoadNetwork, seed: u64, count: usize, radius: f64) -> Vec<(NodeId, NodeId)> {
        let n = net.node_count() as u64;
        let mut mix = Mix(seed);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (from, to) = ((mix.next() % n) as NodeId, (mix.next() % n) as NodeId);
            if from != to && net.position(from).dist(net.position(to)) <= radius {
                out.push((from, to));
            }
        }
        out
    }

    /// ALT over the route index plans A\*'s route on every trip: the same
    /// nodes, and the same length bit for bit.
    fn assert_routes_equal_astar(net: &RoadNetwork, trips: &[(NodeId, NodeId)]) {
        let index = net.route_index();
        let mut route = Vec::new();
        for &(from, to) in trips {
            let (len, _) = alt_path_into(net, index, from, to, &mut route);
            let want = astar_path(net, from, to);
            let want_len = want.as_ref().map(|(_, l)| l.to_bits());
            assert_eq!(len.map(f64::to_bits), want_len, "{from}->{to}");
            assert_eq!(route, want.map_or(vec![], |(r, _)| r), "{from}->{to}");
        }
    }

    #[test]
    fn alt_routes_equal_astar_routes_on_jittered_cities() {
        for seed in [3, 17, 0x9e37] {
            let net = generate_network(&GeneratorConfig::city(6000.0, seed));
            assert_routes_equal_astar(&net, &trips(&net, seed, 2000, 3000.0));
        }
    }

    /// The `county_road` network's size: a 24 140 m side, ≈23 000 nodes.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "county-size; runs under cargo test --release"
    )]
    fn alt_routes_equal_astar_routes_on_a_county() {
        let net = generate_network(&GeneratorConfig::city(24_140.0, 20_060_402 ^ 0x9e37));
        assert_routes_equal_astar(&net, &trips(&net, 7, 2000, 3000.0));
    }

    /// On an unjittered grid most trips have many shortest routes, and ALT
    /// may take another one than A\*: still a route of adjacent nodes from
    /// `from` to `to`, as long as A\*'s. "As long" is up to rounding: the
    /// tied routes fold different edge sequences, and where their sums
    /// differ in the last bit ALT keeps Dijkstra's, the least, while the
    /// Euclidean heuristic, exact on straight runs, can let A\* settle the
    /// target through a sibling one ulp longer.
    #[test]
    fn alt_routes_on_a_tie_rich_grid_are_shortest() {
        let config = GeneratorConfig {
            jitter: 0.0,
            ..GeneratorConfig::city(3000.0, 5)
        };
        let net = generate_network(&config);
        let index = net.route_index();
        let mut route = Vec::new();
        let mut other_routes = 0;
        for (from, to) in trips(&net, 11, 2000, 3000.0) {
            let (len, _) = alt_path_into(&net, index, from, to, &mut route);
            let (want_route, want) = astar_path(&net, from, to).expect("the grid is connected");
            let len = len.expect("the grid is connected");
            assert_eq!(Some(len), dijkstra_distance(&net, from, to), "{from}->{to}");
            assert!(
                (len - want).abs() <= 1e-9 * want,
                "{from}->{to}: {len} vs {want}"
            );
            assert_eq!((route.first(), route.last()), (Some(&from), Some(&to)));
            let walked = route.windows(2).fold(0.0, |sum, hop| {
                let edge = net.neighbors(hop[0]).iter().find(|e| e.to == hop[1]);
                sum + edge.expect("consecutive route nodes are adjacent").length
            });
            assert_eq!(walked.to_bits(), len.to_bits(), "{from}->{to}");
            other_routes += usize::from(route != want_route);
        }
        assert!(other_routes > 0, "no tie on an unjittered grid");
    }

    #[test]
    fn an_unreachable_route_leaves_the_buffer_empty() {
        let mut net = net();
        let island = net.add_node(Point::new(-100.0, -100.0));
        let mut route = vec![7];
        let (len, _) = alt_path_into(&net, net.route_index(), 0, island, &mut route);
        assert_eq!(len, None);
        assert!(route.is_empty());
    }

    /// The route index is built once and dropped by an edit.
    #[test]
    fn the_route_index_is_built_once_per_network_state() {
        let mut net = net();
        assert!(!net.has_route_index());
        let first: *const AltIndex = net.route_index();
        assert!(std::ptr::eq(first, net.route_index()));
        assert_eq!(net.route_index().landmarks().len(), ROUTE_LANDMARKS);
        assert_eq!(net.route_index().landmarks()[0], 0);
        net.add_node(Point::new(-50.0, -50.0));
        assert!(!net.has_route_index(), "an edit drops the index");
        assert_eq!(
            net.route_index().row(net.node_count() as NodeId - 1).len(),
            4
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The `f32` table's bound never exceeds the `f64` Dijkstra
        /// distance, with no tolerance, on jittered grids up to 140 km
        /// across that also hold a second component and isolated nodes.
        #[test]
        fn the_f32_bound_never_exceeds_the_dijkstra_distance(
            w in 2usize..8,
            h in 2usize..8,
            spacing in 1.0f64..20_000.0,
            seed in any::<u64>(),
            count in 1usize..6,
        ) {
            let mut mix = Mix(seed);
            let mut net = RoadNetwork::new();
            for y in 0..h {
                for x in 0..w {
                    let jx = (mix.unit() - 0.5) * 0.6 * spacing;
                    let jy = (mix.unit() - 0.5) * 0.6 * spacing;
                    net.add_node(Point::new(x as f64 * spacing + jx, y as f64 * spacing + jy));
                }
            }
            let id = |x: usize, y: usize| (y * w + x) as NodeId;
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        net.add_edge(id(x, y), id(x + 1, y), RoadClass::Local);
                    }
                    if y + 1 < h {
                        net.add_edge(id(x, y), id(x, y + 1), RoadClass::Primary);
                    }
                }
            }
            let far = (w.max(h) as f64 + 1.0) * spacing;
            let a = net.add_node(Point::new(far, far));
            let b = net.add_node(Point::new(far + spacing * mix.unit(), far));
            net.add_edge(a, b, RoadClass::Local);
            net.add_node(Point::new(-far, 0.5 * far));
            net.add_node(Point::new(0.0, -far));
            let index = AltIndex::build_seeded(&net, count, seed);
            let n = net.node_count() as NodeId;
            for u in 0..n {
                let exact = dijkstra_map(&net, u);
                for t in 0..n {
                    let lb = index.lower_bound(u, t);
                    prop_assert!(lb >= 0.0, "{u}->{t}: {lb}");
                    let d = exact[t as usize];
                    prop_assert!(d.is_infinite() || lb <= d, "{u}->{t}: bound {lb} > {d}");
                }
            }
        }
    }

    #[test]
    fn landmark_selection_spreads_out() {
        let net = net();
        let idx = AltIndex::build(&net, 4);
        assert_eq!(idx.landmarks().len(), 4);
        // All landmarks distinct.
        let mut ls = idx.landmarks().to_vec();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 4);
    }

    #[test]
    fn oversized_landmark_count_clamps_without_duplicates() {
        // Regression: `count >= node_count` used to re-pick already-chosen
        // landmarks once every reachable node's min-distance was covered.
        let net = net();
        let n = net.node_count();
        for count in [n, n + 1, n * 2] {
            let idx = AltIndex::build(&net, count);
            assert!(idx.landmarks().len() <= n);
            let mut ls = idx.landmarks().to_vec();
            ls.sort_unstable();
            ls.dedup();
            assert_eq!(ls.len(), idx.landmarks().len(), "duplicates at {count}");
        }
        // A tiny connected graph: every node becomes a landmark, exactly once.
        let mut tiny = RoadNetwork::new();
        let a = tiny.add_node(senn_geom::Point::new(0.0, 0.0));
        let b = tiny.add_node(senn_geom::Point::new(10.0, 0.0));
        let c = tiny.add_node(senn_geom::Point::new(0.0, 10.0));
        tiny.add_edge(a, b, crate::graph::RoadClass::Local);
        tiny.add_edge(b, c, crate::graph::RoadClass::Local);
        let idx = AltIndex::build(&tiny, 16);
        let mut ls = idx.landmarks().to_vec();
        ls.sort_unstable();
        assert_eq!(ls, vec![a, b, c]);
    }

    #[test]
    fn landmark_set_is_deterministic_per_seed() {
        let net = net();
        let a = AltIndex::build_seeded(&net, 6, 7);
        let b = AltIndex::build_seeded(&net, 6, 7);
        assert_eq!(a.landmarks(), b.landmarks());
        // The seed picks the first landmark.
        let n = net.node_count() as u64;
        assert_eq!(a.landmarks()[0], (7 % n) as NodeId);
        let c = AltIndex::build_seeded(&net, 6, 8);
        assert_eq!(c.landmarks()[0], (8 % n) as NodeId);
    }

    #[test]
    fn alt_distance_matches_dijkstra() {
        let net = net();
        let idx = AltIndex::build(&net, 4);
        let n = net.node_count() as u32;
        for i in 0..30u32 {
            let from = (i * 37) % n;
            let to = (i * 101 + 13) % n;
            let want = dijkstra_distance(&net, from, to);
            let (got, _) = counting_alt(&net, &idx, from, to);
            match (got, want) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-6, "{from}->{to}"),
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn alt_and_astar_answers_are_bit_identical() {
        // One kernel under two heuristics: on unique shortest paths both
        // fold the same edge lengths left to right.
        let net = net();
        let idx = AltIndex::build(&net, 4);
        let n = net.node_count() as u32;
        for i in 0..30u32 {
            let from = (i * 41) % n;
            let to = (i * 89 + 5) % n;
            let (got, _) = counting_alt(&net, &idx, from, to);
            assert_eq!(
                got.map(f64::to_bits),
                astar_distance(&net, from, to).map(f64::to_bits),
                "{from}->{to}"
            );
        }
    }

    #[test]
    fn alt_settles_fewer_nodes_than_dijkstra() {
        let net = net();
        let idx = AltIndex::build(&net, 6);
        let n = net.node_count() as u32;
        let mut alt_total = SearchStats::default();
        let mut dij_total = SearchStats::default();
        for i in 0..20u32 {
            let from = (i * 53) % n;
            let to = (i * 197 + 7) % n;
            let (d, alt_stats) = counting_alt(&net, &idx, from, to);
            if d.is_some() {
                let (_, dij_stats) = counting_dijkstra(&net, from, to);
                alt_total.add(alt_stats);
                dij_total.add(dij_stats);
            }
        }
        assert!(
            alt_total.settled * 2 < dij_total.settled * 3,
            "ALT should settle clearly fewer nodes ({} vs {})",
            alt_total.settled,
            dij_total.settled
        );
        assert!(alt_total.relaxed < dij_total.relaxed);
    }

    #[test]
    fn lower_bound_is_admissible() {
        let net = net();
        let idx = AltIndex::build(&net, 4);
        let n = net.node_count() as u32;
        for i in 0..50u32 {
            let u = (i * 31) % n;
            let t = (i * 71 + 3) % n;
            if let Some(d) = dijkstra_distance(&net, u, t) {
                assert!(
                    idx.lower_bound(u, t) <= d + 1e-6,
                    "bound {} exceeds true distance {}",
                    idx.lower_bound(u, t),
                    d
                );
            }
        }
    }

    #[test]
    fn empty_and_single_node_networks() {
        let empty = RoadNetwork::new();
        let idx = AltIndex::build(&empty, 2);
        assert!(idx.landmarks().is_empty());
        let mut one = RoadNetwork::new();
        let a = one.add_node(senn_geom::Point::new(1.0, 1.0));
        let idx = AltIndex::build(&one, 2);
        assert_eq!(idx.landmarks().len(), 1, "a single node clamps to itself");
        let (d, _) = counting_alt(&one, &idx, a, a);
        assert_eq!(d, Some(0.0));
    }
}
