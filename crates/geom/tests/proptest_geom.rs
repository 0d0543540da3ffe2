//! Property tests for the geometry substrate's interval/arc machinery and
//! coverage predicates, checked against naive dense-sampling models.

use proptest::prelude::*;
use senn_geom::arcset::ArcSet;
use senn_geom::interval::IntervalSet;
use senn_geom::{Circle, ConvexPolygon, DiskRegion, Point};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// IntervalSet subtraction behaves like subtracting from a dense grid
    /// of sample points.
    #[test]
    fn interval_subtraction_matches_sampling(
        cuts in prop::collection::vec((0.0..100.0f64, 0.0..30.0f64), 0..12)
    ) {
        let mut set = IntervalSet::single(0.0, 100.0);
        for &(lo, w) in &cuts {
            set.subtract(lo, lo + w);
        }
        // Dense samples: a point survives iff it is in no cut.
        const N: usize = 2000;
        let mut survived = 0usize;
        for i in 0..N {
            let x = 100.0 * (i as f64 + 0.5) / N as f64;
            let cut = cuts.iter().any(|&(lo, w)| x >= lo && x <= lo + w);
            if !cut {
                survived += 1;
            }
            if !cut {
                // The set must contain x.
                prop_assert!(
                    set.spans().iter().any(|&(a, b)| x >= a - 1e-9 && x <= b + 1e-9),
                    "sample {x} missing from spans {:?}",
                    set.spans()
                );
            }
        }
        let sampled_len = 100.0 * survived as f64 / N as f64;
        prop_assert!((set.total_len() - sampled_len).abs() < 0.5, "length mismatch");
    }

    /// Spans stay sorted, disjoint and within the original interval.
    #[test]
    fn interval_invariants(
        cuts in prop::collection::vec((-10.0..110.0f64, 0.0..40.0f64), 0..16)
    ) {
        let mut set = IntervalSet::single(0.0, 100.0);
        for &(lo, w) in &cuts {
            set.subtract(lo, lo + w);
            let spans = set.spans();
            for s in spans {
                prop_assert!(s.0 <= s.1);
                prop_assert!(s.0 >= -1e-9 && s.1 <= 100.0 + 1e-9);
            }
            for w2 in spans.windows(2) {
                prop_assert!(w2[0].1 <= w2[1].0 + 1e-12, "overlapping spans");
            }
        }
    }

    /// ArcSet subtraction matches angular sampling on the circle.
    #[test]
    fn arcset_matches_sampling(
        target in (0.0..std::f64::consts::TAU, 0.05..3.0f64),
        cuts in prop::collection::vec((0.0..std::f64::consts::TAU, 0.0..2.5f64), 0..8)
    ) {
        let mut arc = ArcSet::from_arc(target.0, target.1);
        for &(c, hw) in &cuts {
            arc.subtract_arc(c, hw);
        }
        const N: usize = 1440;
        let tau = std::f64::consts::TAU;
        let ang_diff = |a: f64, b: f64| {
            let d = (a - b).rem_euclid(tau);
            d.min(tau - d)
        };
        let mut survived = 0usize;
        for i in 0..N {
            let th = tau * (i as f64 + 0.5) / N as f64;
            let in_target = ang_diff(th, target.0) <= target.1;
            let cut = cuts.iter().any(|&(c, hw)| ang_diff(th, c) <= hw);
            if in_target && !cut {
                survived += 1;
            }
        }
        let sampled = tau * survived as f64 / N as f64;
        prop_assert!(
            (arc.total_len() - sampled).abs() < 0.05,
            "arc len {} vs sampled {}",
            arc.total_len(),
            sampled
        );
    }

    /// Inscribed polygons never leave their circle, for any phase/size.
    #[test]
    fn inscribed_polygon_inside_disk(
        cx in -50.0..50.0f64,
        cy in -50.0..50.0f64,
        r in 0.1..40.0f64,
        n in 3usize..48,
        phase in 0.0..std::f64::consts::TAU,
    ) {
        let c = Circle::new(Point::new(cx, cy), r);
        let poly = ConvexPolygon::inscribed_in(&c, n, phase);
        for &v in poly.vertices() {
            prop_assert!(c.contains_point(v) || c.center.dist(v) <= r + 1e-9);
        }
        prop_assert!(poly.area() <= c.area() + 1e-9);
        // Edge midpoints are strictly inside for n >= 3.
        for seg in poly.edges() {
            prop_assert!(c.contains_point(seg.at(0.5)));
        }
    }

    /// DiskRegion::covers_point is exactly "inside some disk".
    #[test]
    fn disk_region_point_coverage(
        disks in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64, 1.0..30.0f64), 1..6),
        px in 0.0..100.0f64,
        py in 0.0..100.0f64,
    ) {
        let circles: Vec<Circle> =
            disks.iter().map(|&(x, y, r)| Circle::new(Point::new(x, y), r)).collect();
        let region = DiskRegion::from_circles(&circles);
        let p = Point::new(px, py);
        let want = circles.iter().any(|c| c.contains_point(p));
        prop_assert_eq!(region.covers_point(p), want);
    }
}
