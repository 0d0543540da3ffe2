//! Property-based tests (proptest) of the workspace's core invariants.

use mobishare_senn::core::multiple::{knn_multiple, RegionMethod};
use mobishare_senn::core::verify::is_certain;
use mobishare_senn::core::{PeerCacheEntry, ResultHeap};
use mobishare_senn::geom::arcset::ArcSet;
use mobishare_senn::geom::{Circle, DiskRegion, Point, PolygonRegion, Rect, EPS};
use mobishare_senn::rtree::RStarTree;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn pois(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..max)
}

/// `DiskRegion::covers_circle` as a per-circle test (a copy of the body
/// it had before coverage became a radius, and its two helpers, on the
/// public `ArcSet`): every disk the candidate cuts re-derives, from
/// nothing, the arc each other disk covers. `disks` are a region's own, so
/// duplicates and empty disks are already gone.
fn covers_circle_stateless(disks: &[Circle], circle: &Circle) -> bool {
    /// Angular section of `∂disk` strictly inside the open disk `target`.
    fn boundary_inside_open_disk(disk: &Circle, target: &Circle) -> Option<ArcSet> {
        let d = disk.center.dist(target.center);
        let (r, rt) = (disk.radius, target.radius);
        if d >= rt + r {
            return None;
        }
        if d + r < rt {
            return Some(ArcSet::full());
        }
        if d <= f64::EPSILON {
            return None;
        }
        let cos_a = (d * d + r * r - rt * rt) / (2.0 * d * r);
        if cos_a >= 1.0 {
            return None;
        }
        let half = cos_a.clamp(-1.0, 1.0).acos();
        let toward = (target.center - disk.center).angle();
        Some(ArcSet::from_arc(toward, half))
    }

    /// Subtracts from `arc` (angles on `∂di`) what the closed disk `dj`
    /// covers.
    fn subtract_coverage(arc: &mut ArcSet, di: &Circle, dj: &Circle) {
        let d = di.center.dist(dj.center);
        let (ri, rj) = (di.radius, dj.radius);
        if d >= ri + rj {
            return;
        }
        if d + ri <= rj {
            arc.subtract_arc(0.0, std::f64::consts::PI + 1.0);
            return;
        }
        if d + rj <= ri || d <= f64::EPSILON {
            return;
        }
        let cos_b = (d * d + ri * ri - rj * rj) / (2.0 * d * ri);
        if cos_b >= 1.0 {
            return;
        }
        let half = cos_b.clamp(-1.0, 1.0).acos();
        let toward = (dj.center - di.center).angle();
        arc.subtract_arc(toward, half);
    }

    if !disks.iter().any(|d| d.contains_point(circle.center)) {
        return false;
    }
    if circle.radius <= 0.0 {
        return true;
    }
    for (i, di) in disks.iter().enumerate() {
        let Some(mut arc) = boundary_inside_open_disk(di, circle) else {
            continue;
        };
        for (j, dj) in disks.iter().enumerate() {
            if i == j {
                continue;
            }
            subtract_coverage(&mut arc, di, dj);
            if arc.is_empty() {
                break;
            }
        }
        if arc.has_span_longer_than(EPS / di.radius) {
            return false;
        }
    }
    true
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
        let mut exact = DiskRegion::from_circles(&disks);
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
        let mut region = DiskRegion::from_circles(&disks);
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

    /// The exact region's covered radius is where the per-circle test
    /// turns: at each centre the stateless test covers the circle a
    /// micrometre inside the radius and refuses the one a micrometre
    /// outside, and a cap below the radius comes back as is. Disks crowd
    /// one neighbourhood, so boundaries are partly covered, and are built
    /// to collide (each drawn fresh or from the one before it: a
    /// duplicate, nested, externally tangent, empty, concentric). Centres
    /// sit in and around the disks, on a source disk's centre or just
    /// inside its circle among them.
    #[test]
    fn covered_radius_is_where_the_stateless_test_turns(
        draws in prop::collection::vec(
            (0.0..150.0f64, 0.0..150.0f64, 40.0..120.0f64, 0u8..9),
            2..=8usize,
        ),
        asks in prop::collection::vec(
            (0usize..8, -1.2..1.2f64, -1.2..1.2f64, 0u8..4, 0.0..1.0f64),
            3..=6usize,
        ),
    ) {
        let c = |x: f64, y: f64, r: f64| Circle::new(Point::new(x, y), r);
        let mut disks: Vec<Circle> = Vec::new();
        for &(x, y, r, kind) in &draws {
            let prev = disks.last().copied().unwrap_or(c(x, y, r));
            disks.push(match kind {
                0 => prev,
                1 => c(prev.center.x + 0.1 * r, prev.center.y, prev.radius * 0.5),
                2 => c(prev.center.x + prev.radius + r, prev.center.y, r),
                3 => c(x, y, 0.0),
                4 => Circle::new(prev.center, r),
                _ => c(x, y, r),
            });
        }
        let mut region = DiskRegion::from_circles(&disks);
        let reference = region.clone();
        let stateless = |q: Point, r: f64| covers_circle_stateless(reference.disks(), &Circle::new(q, r));
        for &(near, dx, dy, place, cut) in &asks {
            // Around the disks the region kept: a dropped empty disk can
            // sit on another's circle (a tangent chain), where the
            // per-circle test's window collapses below a few micrometres.
            let Some(&near) = reference.disks().get(near % reference.len().max(1)) else {
                break;
            };
            let q = match place {
                0 => near.center,
                // A millimetre inside the circle: a radius the per-circle
                // test still resolves (on the circle itself its window
                // collapses to nothing below a few micrometres).
                1 => Circle::new(near.center, near.radius - 1e-3).point_at(dx),
                _ => Point::new(near.center.x + dx * near.radius, near.center.y + dy * near.radius),
            };
            let radius = region.covered_radius(q, f64::INFINITY);
            if radius == f64::NEG_INFINITY {
                prop_assert!(!stateless(q, 0.0));
                continue;
            }
            prop_assert!(radius.is_finite() && radius >= 0.0, "{}", radius);
            prop_assert!(stateless(q, (radius - 1e-6).max(0.0)), "refused inside {}", radius);
            prop_assert!(!stateless(q, radius + 1e-6), "covered outside {}", radius);
            let cap = cut * 2.0 * radius;
            prop_assert_eq!(region.covered_radius(q, cap), radius.min(cap));
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
