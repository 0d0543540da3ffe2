//! Property-based tests (proptest) of the workspace's core invariants.

use mobishare_senn::core::multiple::{knn_multiple, RegionMethod};
use mobishare_senn::core::verify::is_certain;
use mobishare_senn::core::{PeerCacheEntry, ResultHeap};
use mobishare_senn::geom::{Circle, DiskRegion, Point, PolygonRegion, Rect};
use mobishare_senn::rtree::RStarTree;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn pois(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 3.2 soundness: with an honest cache, a certified POI really is
    /// among the top-k NNs of the querier.
    #[test]
    fn lemma_soundness(world in pois(40), p in pt(), q in pt(), k in 1usize..10) {
        let mut by_p: Vec<(f64, usize)> =
            world.iter().enumerate().map(|(i, t)| (p.dist(*t), i)).collect();
        by_p.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cache: Vec<usize> = by_p.iter().take(k).map(|&(_, i)| i).collect();
        let radius = by_p[cache.len() - 1].0;
        let mut by_q: Vec<(f64, usize)> =
            world.iter().enumerate().map(|(i, t)| (q.dist(*t), i)).collect();
        by_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let true_knn: Vec<usize> = by_q.iter().take(k).map(|&(_, i)| i).collect();
        for &c in &cache {
            if is_certain(q, p, radius, world[c]) {
                prop_assert!(true_knn.contains(&c), "false certain");
            }
        }
    }

    /// R*-tree kNN equals a linear scan, for any insertion order.
    #[test]
    fn rtree_knn_equals_scan(world in pois(120), q in pt(), k in 1usize..12) {
        let mut tree = RStarTree::new();
        for (i, p) in world.iter().enumerate() {
            tree.insert(*p, i);
        }
        tree.check_invariants();
        let (got, _) = tree.knn(q, k);
        let mut d: Vec<f64> = world.iter().map(|p| q.dist(*p)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(got.len(), k.min(world.len()));
        for (g, want) in got.iter().zip(&d) {
            prop_assert!((g.dist - want).abs() < 1e-9);
        }
    }

    /// R*-tree range query equals a linear scan.
    #[test]
    fn rtree_range_equals_scan(world in pois(120), a in pt(), b in pt()) {
        let tree = RStarTree::bulk_load(
            world.iter().enumerate().map(|(i, p)| (*p, i)).collect(),
        );
        let rect = Rect::new(a, b);
        let (hits, _) = tree.range_query(rect);
        let expected = world.iter().filter(|p| rect.contains_point(**p)).count();
        prop_assert_eq!(hits.len(), expected);
    }

    /// Insert + remove round-trips keep the tree consistent and complete.
    #[test]
    fn rtree_insert_remove_roundtrip(world in pois(80), removals in prop::collection::vec(0usize..80, 0..40)) {
        let mut tree = RStarTree::new();
        for (i, p) in world.iter().enumerate() {
            tree.insert(*p, i);
        }
        let mut live: Vec<bool> = vec![true; world.len()];
        for r in removals {
            let idx = r % world.len();
            let removed = tree.remove(world[idx], |v| *v == idx);
            prop_assert_eq!(removed.is_some(), live[idx]);
            live[idx] = false;
        }
        tree.check_invariants();
        let alive = live.iter().filter(|x| **x).count();
        prop_assert_eq!(tree.len(), alive);
        for (i, p) in world.iter().enumerate() {
            let (hits, _) = tree.range_query(Rect::from_point(*p));
            prop_assert_eq!(hits.iter().any(|(_, v)| **v == i), live[i]);
        }
    }

    /// The polygonized region never certifies a circle the exact region
    /// refuses (the paper's approximation is conservative).
    #[test]
    fn polygon_region_conservative(
        circles in prop::collection::vec((pt(), 10.0..200.0f64), 1..6),
        cand_center in pt(),
        cand_r in 1.0..150.0f64,
    ) {
        let disks: Vec<Circle> =
            circles.iter().map(|&(c, r)| Circle::new(c, r)).collect();
        let mut poly = PolygonRegion::from_circles(&disks, 24);
        let exact = DiskRegion::from_circles(&disks);
        let cand = Circle::new(cand_center, cand_r);
        if poly.covers_circle(&cand) {
            prop_assert!(exact.covers_circle(&cand));
        }
    }

    /// Exact coverage agrees with dense Monte-Carlo sampling of the disk.
    #[test]
    fn exact_region_matches_sampling(
        circles in prop::collection::vec((pt(), 20.0..200.0f64), 1..5),
        cand_center in pt(),
        cand_r in 1.0..120.0f64,
    ) {
        let disks: Vec<Circle> =
            circles.iter().map(|&(c, r)| Circle::new(c, r)).collect();
        let region = DiskRegion::from_circles(&disks);
        let cand = Circle::new(cand_center, cand_r);
        let covered = region.covers_circle(&cand);
        if covered {
            // Every sample of the candidate disk must be inside some disk.
            for i in 0..48 {
                let th = std::f64::consts::TAU * i as f64 / 48.0;
                for fr in [0.3, 0.7, 0.999] {
                    let p = Point::new(
                        cand.center.x + cand.radius * fr * th.cos(),
                        cand.center.y + cand.radius * fr * th.sin(),
                    );
                    prop_assert!(
                        disks.iter().any(|d| d.center.dist(p) <= d.radius + 1e-6),
                        "covered circle has uncovered sample"
                    );
                }
            }
        }
    }

    /// Heap invariants under arbitrary insertion sequences: certains
    /// precede uncertains, each group ascending, capacity respected, no
    /// duplicate POI ids, certains never displaced by uncertains.
    #[test]
    fn heap_invariants(
        k in 1usize..8,
        ops in prop::collection::vec((0u64..30, 0.0..100.0f64, prop::bool::ANY), 0..60),
    ) {
        let mut heap = ResultHeap::new(k);
        for (id, dist, certain) in ops {
            let poi = mobishare_senn::core::CachedNn {
                poi_id: id,
                position: Point::new(dist, 0.0),
            };
            let certain_before = heap.certain_count();
            if certain {
                heap.insert_certain(poi, dist);
            } else {
                heap.insert_uncertain(poi, dist);
                prop_assert!(heap.certain_count() >= certain_before);
            }
            prop_assert!(heap.len() <= k);
            let entries = heap.entries();
            let c = heap.certain_count();
            prop_assert!(entries[..c].iter().all(|e| e.certain));
            prop_assert!(entries[c..].iter().all(|e| !e.certain));
            for w in entries[..c].windows(2) {
                prop_assert!(w[0].dist <= w[1].dist);
            }
            for w in entries[c..].windows(2) {
                prop_assert!(w[0].dist <= w[1].dist);
            }
            let mut ids: Vec<u64> = entries.iter().map(|e| e.poi.poi_id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), entries.len());
        }
    }

    /// Multi-peer verification never certifies a POI that is not a true
    /// top-k NN, for honest caches.
    #[test]
    fn knn_multiple_soundness(
        world in pois(30),
        q in pt(),
        peer_locs in prop::collection::vec(pt(), 1..4),
        k in 1usize..6,
        cache_k in 1usize..8,
    ) {
        let peers: Vec<PeerCacheEntry> = peer_locs
            .iter()
            .map(|&loc| {
                let mut by_d: Vec<(f64, usize)> =
                    world.iter().enumerate().map(|(i, p)| (loc.dist(*p), i)).collect();
                by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
                PeerCacheEntry::from_sorted(
                    loc,
                    by_d.iter().take(cache_k).map(|&(_, i)| (i as u64, world[i])).collect(),
                )
            })
            .collect();
        let mut heap = ResultHeap::new(k);
        knn_multiple(q, &peers, RegionMethod::Exact, &mut heap);
        let mut by_q: Vec<(f64, u64)> =
            world.iter().enumerate().map(|(i, p)| (q.dist(*p), i as u64)).collect();
        by_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (rank, e) in heap.certain().iter().enumerate() {
            prop_assert!((e.dist - by_q[rank].0).abs() < 1e-9, "rank {} wrong", rank);
        }
    }
}
