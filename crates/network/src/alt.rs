//! ALT: A\* with landmark lower bounds (Goldberg & Harrelson, SODA 2005).
//!
//! Mobile hosts in SNNN compute many network distances on their local
//! modeling graph; the plain Euclidean heuristic is weak on grid networks
//! (network distance ≈ L1, heuristic = L2). ALT preprocesses shortest-path
//! distances from a few *landmarks* and uses the triangle inequality
//! `d(u, t) >= |d(L, t) - d(L, u)|` as an admissible, consistent heuristic
//! that is much tighter on road networks. This is an extension over the
//! paper (which uses plain Dijkstra) and is benchmarked against Dijkstra
//! and Euclidean A\* in the `network_knn` bench.
//!
//! The search itself is the crate's one label-setting kernel
//! ([`crate::shortest_path`]) with the landmark bound as its heuristic:
//! [`counting_alt`] reports its effort, and
//! [`crate::distance::AltDistance`] is the SNNN distance model over it.

use crate::graph::{NodeId, RoadNetwork};
use crate::shortest_path::{dijkstra_map, length, to_target, SearchStats};

/// Preprocessed landmark distances for ALT queries.
#[derive(Clone, Debug)]
pub struct AltIndex {
    /// `dist[l][v]` = network distance from landmark `l` to node `v`.
    dist: Vec<Vec<f64>>,
    landmarks: Vec<NodeId>,
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
    /// Dijkstra map while adding zero pruning power).
    pub fn build_seeded(net: &RoadNetwork, count: usize, seed: u64) -> Self {
        assert!(count >= 1, "need at least one landmark");
        let n = net.node_count();
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(count.min(n));
        let mut dist: Vec<Vec<f64>> = Vec::with_capacity(count.min(n));
        if n == 0 {
            return AltIndex { dist, landmarks };
        }
        let mut min_dist = vec![f64::INFINITY; n];
        let mut chosen = vec![false; n];
        let mut next = (seed % n as u64) as NodeId;
        for _ in 0..count.min(n) {
            chosen[next as usize] = true;
            landmarks.push(next);
            let d = dijkstra_map(net, next);
            for v in 0..n {
                if d[v] < min_dist[v] {
                    min_dist[v] = d[v];
                }
            }
            dist.push(d);
            // Farthest not-yet-chosen node reachable from the landmarks so
            // far; strictly-greater comparison breaks ties toward the
            // lowest node id, keeping the set deterministic.
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
        AltIndex { dist, landmarks }
    }

    /// The selected landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Admissible lower bound on `d(u, t)` from the triangle inequality
    /// over all landmarks. Returns 0 when either node is unreachable from
    /// every landmark.
    #[inline]
    pub fn lower_bound(&self, u: NodeId, t: NodeId) -> f64 {
        let mut best = 0.0f64;
        for d in &self.dist {
            let (du, dt) = (d[u as usize], d[t as usize]);
            if du.is_finite() && dt.is_finite() {
                let b = (dt - du).abs();
                if b > best {
                    best = b;
                }
            }
        }
        best
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
    to_target(net, from, to, length, || |v| index.lower_bound(v, to), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, GeneratorConfig};
    use crate::shortest_path::{astar_distance, counting_dijkstra, dijkstra_distance};

    fn net() -> RoadNetwork {
        generate_network(&GeneratorConfig::city(2500.0, 42))
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
