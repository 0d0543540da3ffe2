//! Network-distance k-nearest-neighbor search: the IER and INE baselines.
//!
//! Papadias et al. (VLDB 2003) proposed both algorithms; the paper extends
//! IER into its sharing-based SNNN (Algorithm 2, implemented in
//! `senn-core`). Here the two standalone server-side baselines:
//!
//! * **IER** (Incremental Euclidean Restriction): pull POIs in ascending
//!   *Euclidean* distance from an R\*-tree, compute each one's network
//!   distance, and stop when the next Euclidean distance exceeds the
//!   current k-th network distance — sound by the Euclidean lower-bound
//!   property.
//! * **INE** (Incremental Network Expansion): a single Dijkstra expansion
//!   from the query's snap node that reports POIs as their nodes settle.

use senn_geom::Point;
use senn_rtree::RStarTree;

use crate::graph::{NodeId, RoadNetwork};
use crate::poi::NetworkPois;
use crate::shortest_path::{astar_distance, with_thread_scratch, zero};

/// A network kNN result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkNeighbor {
    /// Index into the [`NetworkPois`] set.
    pub poi: u32,
    /// Network distance from the query point (legs included).
    pub network_dist: f64,
    /// Euclidean distance from the query point.
    pub euclid_dist: f64,
}

/// IER: incremental Euclidean restriction over an R\*-tree of POI
/// positions (payload = POI index). Returns the `k` network-nearest POIs
/// in ascending network distance.
///
/// ```
/// use senn_geom::Point;
/// use senn_network::{generate_network, GeneratorConfig, NetworkPois, NodeLocator, ier_knn, ine_knn};
/// use senn_rtree::RStarTree;
///
/// let net = generate_network(&GeneratorConfig::city(1500.0, 3));
/// let positions = vec![Point::new(200.0, 200.0), Point::new(1200.0, 900.0)];
/// let pois = NetworkPois::snap(&net, positions.clone());
/// let tree = RStarTree::bulk_load(
///     positions.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect(),
/// );
/// let q = Point::new(300.0, 300.0);
/// let qn = NodeLocator::new(&net).nearest(q).unwrap();
/// let a = ier_knn(&net, &pois, &tree, q, qn, 1);
/// let b = ine_knn(&net, &pois, q, qn, 1);
/// assert_eq!(a[0].poi, b[0].poi);
/// assert!(a[0].network_dist >= a[0].euclid_dist);
/// ```
pub fn ier_knn(
    net: &RoadNetwork,
    pois: &NetworkPois,
    tree: &RStarTree<u32>,
    query: Point,
    query_node: NodeId,
    k: usize,
) -> Vec<NetworkNeighbor> {
    if k == 0 || pois.is_empty() {
        return Vec::new();
    }
    let mut best: Vec<NetworkNeighbor> = Vec::new();
    for nb in tree.nn_iter(query) {
        // Stop when even the Euclidean lower bound exceeds the k-th
        // candidate's network distance.
        if best.len() >= k {
            let kth = best[k - 1].network_dist;
            if nb.dist > kth {
                break;
            }
        }
        let poi = *nb.value;
        let Some(core) = astar_distance(net, query_node, pois.snap_node(poi)) else {
            continue; // unreachable over the network
        };
        let nd = query.dist(net.position(query_node)) + core + pois.snap_leg(poi);
        best.push(NetworkNeighbor {
            poi,
            network_dist: nd,
            euclid_dist: nb.dist,
        });
        best.sort_by(|a, b| a.network_dist.total_cmp(&b.network_dist));
        best.truncate(k);
    }
    best
}

/// INE: a single network expansion from the query's snap node, reporting
/// POIs as their snap nodes settle. Returns the `k` network-nearest POIs
/// in ascending network distance (none when `query_node` lies outside
/// `net`).
pub fn ine_knn(
    net: &RoadNetwork,
    pois: &NetworkPois,
    query: Point,
    query_node: NodeId,
    k: usize,
) -> Vec<NetworkNeighbor> {
    let mut best: Vec<NetworkNeighbor> = Vec::new();
    let Some(origin) = net.positions().get(query_node as usize) else {
        return best;
    };
    if k == 0 || pois.is_empty() {
        return best;
    }
    let leg = query.dist(*origin);
    with_thread_scratch(|s| {
        s.search(net, query_node, zero, |node, d| {
            // Terminate when the frontier can no longer improve the k-th
            // candidate: any POI found later sits at >= leg + d.
            if best.len() >= k && leg + d > best[k - 1].network_dist {
                return true;
            }
            for &poi in pois.at_node(node) {
                let nd = leg + d + pois.snap_leg(poi);
                best.push(NetworkNeighbor {
                    poi,
                    network_dist: nd,
                    euclid_dist: query.dist(pois.position(poi)),
                });
            }
            best.sort_by(|a, b| a.network_dist.total_cmp(&b.network_dist));
            best.truncate(k);
            false
        })
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, GeneratorConfig};
    use crate::locator::NodeLocator;
    use crate::shortest_path::dijkstra_map;

    struct World {
        net: RoadNetwork,
        pois: NetworkPois,
        tree: RStarTree<u32>,
        locator: NodeLocator,
    }

    fn world(seed: u64, poi_count: usize) -> World {
        let net = generate_network(&GeneratorConfig::city(3000.0, seed));
        let mut s = seed.wrapping_mul(31) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<Point> = (0..poi_count)
            .map(|_| Point::new(next() * 3000.0, next() * 3000.0))
            .collect();
        let pois = NetworkPois::snap(&net, positions.clone());
        let tree = RStarTree::bulk_load(
            positions
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, i as u32))
                .collect(),
        );
        let locator = NodeLocator::new(&net);
        World {
            net,
            pois,
            tree,
            locator,
        }
    }

    fn brute_network_knn(w: &World, query: Point, query_node: NodeId, k: usize) -> Vec<(f64, u32)> {
        let map = dijkstra_map(&w.net, query_node);
        let leg = query.dist(w.net.position(query_node));
        let mut all: Vec<(f64, u32)> = (0..w.pois.len() as u32)
            .filter_map(|i| {
                let d = map[w.pois.snap_node(i) as usize];
                d.is_finite().then(|| (leg + d + w.pois.snap_leg(i), i))
            })
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn ier_and_ine_match_brute_force() {
        let w = world(5, 60);
        let queries = [
            Point::new(100.0, 100.0),
            Point::new(1500.0, 1500.0),
            Point::new(2900.0, 400.0),
        ];
        for q in queries {
            let qn = w.locator.nearest(q).unwrap();
            for k in [1usize, 3, 7] {
                let want = brute_network_knn(&w, q, qn, k);
                let ier = ier_knn(&w.net, &w.pois, &w.tree, q, qn, k);
                let ine = ine_knn(&w.net, &w.pois, q, qn, k);
                assert_eq!(ier.len(), want.len());
                assert_eq!(ine.len(), want.len());
                for ((i, n), (wd, _)) in ier.iter().zip(&ine).zip(&want) {
                    assert!(
                        (i.network_dist - wd).abs() < 1e-6,
                        "IER dist {} vs brute {}",
                        i.network_dist,
                        wd
                    );
                    assert!(
                        (n.network_dist - wd).abs() < 1e-6,
                        "INE dist {} vs brute {}",
                        n.network_dist,
                        wd
                    );
                }
            }
        }
    }

    #[test]
    fn results_sorted_ascending() {
        let w = world(9, 40);
        let q = Point::new(800.0, 2000.0);
        let qn = w.locator.nearest(q).unwrap();
        let res = ier_knn(&w.net, &w.pois, &w.tree, q, qn, 10);
        for pair in res.windows(2) {
            assert!(pair[0].network_dist <= pair[1].network_dist);
        }
        // Euclidean never exceeds network distance.
        for r in &res {
            assert!(r.euclid_dist <= r.network_dist + 1e-9);
        }
    }

    #[test]
    fn a_nan_query_point_does_not_abort_the_sorts() {
        // Its snap leg, hence every network distance, is NaN; both sorts
        // used to abort on that (`partial_cmp(..).unwrap()`).
        let w = world(2, 5);
        let qn = w.locator.nearest(Point::new(1000.0, 1000.0)).unwrap();
        let q = Point::new(f64::NAN, 1000.0);
        let ier = ier_knn(&w.net, &w.pois, &w.tree, q, qn, 3);
        let ine = ine_knn(&w.net, &w.pois, q, qn, 3);
        assert!(ier.len() <= 3 && ine.len() == 3);
        assert!(ier.iter().chain(&ine).all(|n| n.network_dist.is_nan()));
    }

    #[test]
    fn k_zero_and_k_beyond_pois() {
        let w = world(2, 5);
        let q = Point::new(1000.0, 1000.0);
        let qn = w.locator.nearest(q).unwrap();
        assert!(ier_knn(&w.net, &w.pois, &w.tree, q, qn, 0).is_empty());
        assert!(ine_knn(&w.net, &w.pois, q, qn, 0).is_empty());
        assert_eq!(ier_knn(&w.net, &w.pois, &w.tree, q, qn, 50).len(), 5);
        assert_eq!(ine_knn(&w.net, &w.pois, q, qn, 50).len(), 5);
    }

    #[test]
    fn empty_poi_set_yields_nothing() {
        let w = world(2, 5);
        let empty = NetworkPois::snap(&w.net, vec![]);
        let q = Point::new(1.0, 1.0);
        let qn = w.locator.nearest(q).unwrap();
        assert!(ine_knn(&w.net, &empty, q, qn, 3).is_empty());
    }
}
