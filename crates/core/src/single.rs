//! `kNN_single`: single-peer NN verification (Section 3.2.1).
//!
//! Peers are processed in ascending order of their cached query location's
//! distance to the querier (Heuristic 3.3); each peer's cached NNs are
//! classified with Lemma 3.2 and folded into the result heap `H`.

use std::borrow::Borrow;

use senn_cache::CacheEntry;
use senn_geom::Point;

use crate::heap::ResultHeap;
use crate::verify::{classify_entry, Certainty};

/// Sorts peer cache entries by the distance of their cached query location
/// to `query` — Heuristic 3.3. Closer cached locations are likelier to
/// yield adjacent POIs, so processing them first fills `H` faster.
///
/// Accepts owned entries or references (`&mut [CacheEntry]`,
/// `&mut [&CacheEntry]`), so callers holding borrowed peer caches can sort
/// without cloning.
pub fn sort_peers_by_query_location<B: Borrow<CacheEntry>>(query: Point, peers: &mut [B]) {
    peers.sort_by(|a, b| {
        query
            .dist_sq(a.borrow().query_location)
            .total_cmp(&query.dist_sq(b.borrow().query_location))
    });
}

/// Runs the single-peer verification of one peer's cache entry against the
/// heap. Returns the number of *new* certain entries contributed.
pub fn knn_single(query: Point, entry: &CacheEntry, heap: &mut ResultHeap) -> usize {
    let mut new_certain = 0;
    for (idx, dist, certainty) in classify_entry(query, entry) {
        let poi = entry.neighbors[idx];
        match certainty {
            Certainty::Certain => {
                let before = heap.certain_count();
                heap.insert_certain(poi, dist);
                if heap.certain_count() > before {
                    new_certain += 1;
                }
            }
            Certainty::Uncertain => heap.insert_uncertain(poi, dist),
        }
    }
    new_certain
}

/// Runs `kNN_single` across all peers (pre-sorted per Heuristic 3.3),
/// stopping early once `k` certain NNs are verified. Returns true when the
/// query was fully answered.
pub fn knn_single_all<B: Borrow<CacheEntry>>(
    query: Point,
    peers: &[B],
    heap: &mut ResultHeap,
) -> bool {
    for entry in peers {
        knn_single(query, entry.borrow(), heap);
        if heap.is_certain_complete() {
            return true;
        }
    }
    heap.is_certain_complete()
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_cache::CachedNn;

    fn entry(loc: Point, pois: &[(u64, f64, f64)]) -> CacheEntry {
        CacheEntry::new(
            loc,
            pois.iter()
                .map(|&(id, x, y)| CachedNn {
                    poi_id: id,
                    position: Point::new(x, y),
                })
                .collect(),
        )
    }

    #[test]
    fn heuristic_sorts_by_cached_location() {
        let q = Point::ORIGIN;
        let mut peers = vec![
            entry(Point::new(10.0, 0.0), &[(1, 10.0, 1.0)]),
            entry(Point::new(1.0, 0.0), &[(2, 1.0, 1.0)]),
            entry(Point::new(5.0, 0.0), &[(3, 5.0, 1.0)]),
        ];
        sort_peers_by_query_location(q, &mut peers);
        let order: Vec<f64> = peers.iter().map(|p| p.query_location.x).collect();
        assert_eq!(order, vec![1.0, 5.0, 10.0]);
    }

    #[test]
    fn heuristic_sort_orders_a_nan_cached_location_last() {
        // A malformed peer must not panic the sort (it did with
        // `partial_cmp(..).unwrap()`); `total_cmp` ranks NaN above every
        // finite distance.
        let mut peers = vec![
            entry(Point::new(f64::NAN, 0.0), &[(1, 1.0, 1.0)]),
            entry(Point::new(4.0, 0.0), &[(2, 4.0, 1.0)]),
            entry(Point::new(2.0, 0.0), &[(3, 2.0, 1.0)]),
        ];
        sort_peers_by_query_location(Point::ORIGIN, &mut peers);
        let ids: Vec<u64> = peers.iter().map(|p| p.neighbors[0].poi_id).collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    #[test]
    fn figure_6_example_two_certain_two_uncertain() {
        // Mirrors Fig. 6 / Table 1: peer P1 close to Q verifies two of its
        // three cached NNs; peer P2 farther away contributes only
        // uncertain candidates.
        let q = Point::new(0.0, 0.0);
        let p1 = entry(
            Point::new(1.0, 0.0),
            &[(11, 1.0, 1.0), (12, 0.0, 2.0), (13, 4.0, 0.0)],
        );
        // P1's radius = dist((1,0),(4,0)) = 3. delta = 1.
        // n11 at dist sqrt(2) from Q: sqrt(2)+1 <= 3 certain.
        // n12 at dist 2: 2+1 <= 3 certain.
        // n13 at dist 4: 4+1 > 3 uncertain.
        let p2 = entry(Point::new(8.0, 0.0), &[(21, 7.0, 0.0), (22, 9.5, 0.0)]);
        // P2's radius = 1.5, delta = 8: nothing verifiable.
        let mut heap = ResultHeap::new(4);
        let done = knn_single_all(q, &[p1, p2], &mut heap);
        assert!(!done);
        assert_eq!(heap.certain_count(), 2);
        assert_eq!(heap.len(), 4);
        let ids: Vec<u64> = heap.entries().iter().map(|e| e.poi.poi_id).collect();
        assert_eq!(ids[0], 11);
        assert_eq!(ids[1], 12);
        assert!(ids[2..].contains(&13));
    }

    #[test]
    fn early_exit_once_complete() {
        let q = Point::ORIGIN;
        let collocated = entry(Point::ORIGIN, &[(1, 1.0, 0.0), (2, 2.0, 0.0)]);
        let far = entry(Point::new(50.0, 0.0), &[(3, 49.0, 0.0)]);
        let mut heap = ResultHeap::new(2);
        assert!(knn_single_all(q, &[collocated, far], &mut heap));
        assert!(heap.is_certain_complete());
        assert!(!heap.contains(3), "never processed the second peer");
    }

    #[test]
    fn counts_only_new_certains() {
        let q = Point::ORIGIN;
        let e = entry(Point::ORIGIN, &[(1, 1.0, 0.0), (2, 2.0, 0.0)]);
        let mut heap = ResultHeap::new(5);
        assert_eq!(knn_single(q, &e, &mut heap), 2);
        // Same entry again: everything is a duplicate.
        assert_eq!(knn_single(q, &e, &mut heap), 0);
    }
}
