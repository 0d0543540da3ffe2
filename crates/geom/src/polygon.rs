//! Convex polygons and circle polygonization.
//!
//! Section 3.2.2: *"we adopt a polygonization technique that transforms all
//! the certain area circles into polygons to closely approximate the certain
//! area reported by each peer."* We polygonize with **inscribed** regular
//! polygons: an inscribed polygon is a subset of its disk, so the
//! approximate certain region is a subset of the true one and the
//! verification can only *miss* certain objects, never fabricate one
//! (soundness before completeness).

use crate::circle::Circle;
use crate::point::{orient, Point};
use crate::rect::Rect;
use crate::segment::Segment;

/// Vertex count of the paper-fidelity polygonization of certain-area
/// circles (queries run on the circles themselves unless told otherwise).
///
/// 24 vertices keep the inscribed-polygon area within 1.2 % of the disk; the
/// `region_coverage` bench sweeps this parameter as an ablation.
pub const DEFAULT_POLYGONIZATION_VERTICES: usize = 24;

/// A convex polygon with vertices in counter-clockwise order.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

/// Errors from [`ConvexPolygon::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices,
    /// The vertex chain is not convex / counter-clockwise.
    NotConvexCcw,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 vertices"),
            PolygonError::NotConvexCcw => {
                write!(f, "vertices must form a convex counter-clockwise chain")
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl ConvexPolygon {
    /// Builds a polygon from counter-clockwise vertices, validating
    /// convexity.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let n = vertices.len();
        let at = |i: usize| vertices[if i < n { i } else { i - n }];
        for i in 0..n {
            if orient(at(i), at(i + 1), at(i + 2)) <= 0.0 {
                return Err(PolygonError::NotConvexCcw);
            }
        }
        Ok(ConvexPolygon { vertices })
    }

    /// The regular `n`-gon **inscribed** in `circle`, with the first vertex
    /// at angle `phase` (radians).
    ///
    /// Being inscribed, the polygon is a subset of the closed disk, which is
    /// what makes the polygonized certain region a conservative
    /// approximation. Panics if `n < 3`.
    pub fn inscribed_in(circle: &Circle, n: usize, phase: f64) -> Self {
        assert!(n >= 3, "a polygon needs at least 3 vertices");
        let step = std::f64::consts::TAU / n as f64;
        let vertices = (0..n)
            .map(|i| circle.point_at(phase + i as f64 * step))
            .collect();
        // A regular polygon inscribed in a positive-radius circle is convex
        // and CCW by construction; a zero radius collapses to a point, which
        // we still store (all predicates degrade gracefully).
        ConvexPolygon { vertices }
    }

    /// `inscribed_in(circle, n, 0.0)` for every circle, vertex for vertex
    /// bit-equal (`0.0 + x` is `x`, and the products and sums are the
    /// same), paying the `n` sines and cosines once for all of them.
    pub(crate) fn inscribed_in_each(circles: &[Circle], n: usize) -> Vec<Self> {
        assert!(
            n >= 3 || circles.is_empty(),
            "a polygon needs at least 3 vertices"
        );
        let step = std::f64::consts::TAU / n as f64;
        let directions: Vec<(f64, f64)> = (0..n)
            .map(|i| i as f64 * step)
            .map(|theta| (theta.cos(), theta.sin()))
            .collect();
        let vertex = |c: &Circle, (cos, sin): (f64, f64)| {
            Point::new(c.center.x + c.radius * cos, c.center.y + c.radius * sin)
        };
        let inscribed = |c| ConvexPolygon {
            vertices: directions.iter().map(|&d| vertex(c, d)).collect(),
        };
        circles.iter().map(inscribed).collect()
    }

    /// The polygon's vertices, counter-clockwise.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// End points `(v[i], v[i + 1])` of the directed boundary edges, in
    /// vertex order, the last edge closing the chain back to `v[0]`.
    fn edge_ends(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let v = &self.vertices;
        let ends = v.iter().skip(1).chain(v.first());
        v.iter().zip(ends).map(|(&a, &b)| (a, b))
    }

    /// Iterator over the directed boundary edges.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.edge_ends().map(|(a, b)| Segment::new(a, b))
    }

    /// Signed area (positive for CCW polygons).
    pub fn area(&self) -> f64 {
        let mut s = 0.0;
        for (a, b) in self.edge_ends() {
            s += a.cross(b);
        }
        s * 0.5
    }

    /// Axis-aligned bounding box.
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_points(self.vertices.iter().copied())
    }

    /// True when `p` lies inside or on the polygon (within `eps` of the
    /// boundary counts as inside).
    pub fn contains_point(&self, p: Point, eps: f64) -> bool {
        for (a, b) in self.edge_ends() {
            // Normalize the tolerance by the edge length so that `eps` is a
            // distance, not a raw cross-product value.
            let len = a.dist(b).max(f64::MIN_POSITIVE);
            if orient(a, b, p) < -eps * len {
                return false;
            }
        }
        true
    }

    /// Clips the parameter interval of `seg` to the closed polygon,
    /// returning `[t0, t1]` or `None` when the segment misses the polygon.
    ///
    /// Standard Cyrus–Beck clipping against the polygon's half-planes.
    pub fn clip_segment(&self, seg: &Segment) -> Option<(f64, f64)> {
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        let d = seg.b - seg.a;
        for (a, b) in self.edge_ends() {
            let edge = b - a;
            // inside(t) ⇔ cross(edge, p(t) - a) >= 0
            let num = edge.cross(seg.a - a);
            let den = edge.cross(d);
            if den.abs() <= f64::EPSILON {
                if num < 0.0 {
                    return None; // parallel and fully outside this half-plane
                }
                continue;
            }
            let t = -num / den;
            if den > 0.0 {
                // Entering the half-plane as t grows.
                t0 = t0.max(t);
            } else {
                t1 = t1.min(t);
            }
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_polygons() {
        assert_eq!(
            ConvexPolygon::new(vec![Point::ORIGIN, Point::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        // Clockwise square.
        assert_eq!(
            ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 1.0),
                Point::new(1.0, 1.0),
                Point::new(1.0, 0.0),
            ]),
            Err(PolygonError::NotConvexCcw)
        );
        // Non-convex chevron.
        assert_eq!(
            ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(1.0, 0.1),
                Point::new(1.0, 2.0),
            ]),
            Err(PolygonError::NotConvexCcw)
        );
    }

    #[test]
    fn area_and_bbox() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-12);
        let bb = sq.bounding_rect();
        assert_eq!(bb.min, Point::new(0.0, 0.0));
        assert_eq!(bb.max, Point::new(1.0, 1.0));
        assert_eq!(sq.edges().count(), 4);
    }

    #[test]
    fn point_containment() {
        let sq = unit_square();
        assert!(sq.contains_point(Point::new(0.5, 0.5), 1e-12));
        assert!(sq.contains_point(Point::new(0.0, 0.0), 1e-12)); // vertex
        assert!(sq.contains_point(Point::new(0.5, 0.0), 1e-12)); // edge
        assert!(!sq.contains_point(Point::new(1.5, 0.5), 1e-12));
        assert!(!sq.contains_point(Point::new(0.5, -0.001), 1e-12));
    }

    #[test]
    fn inscribed_polygon_is_inside_disk() {
        let c = Circle::new(Point::new(3.0, -2.0), 5.0);
        for n in [3usize, 4, 8, 24, 64] {
            let poly = ConvexPolygon::inscribed_in(&c, n, 0.7);
            assert_eq!(poly.vertices().len(), n);
            for &v in poly.vertices() {
                assert!((c.center.dist(v) - c.radius).abs() < 1e-9);
            }
            // Sample interior points of the polygon: all inside the disk.
            let centroid = poly
                .vertices()
                .iter()
                .fold(Point::ORIGIN, |acc, &v| acc + v)
                / n as f64;
            assert!(c.contains_point(centroid));
            // Area converges to the disk area from below.
            assert!(poly.area() <= c.area() + 1e-9);
        }
        let a24 = ConvexPolygon::inscribed_in(&c, 24, 0.0).area();
        assert!(
            a24 / c.area() > 0.985,
            "24-gon should capture >98.5% of disk area"
        );
    }

    #[test]
    fn shared_direction_table_is_bit_equal_to_inscribed_in() {
        let mut rng = proptest::TestRng::for_test("shared_direction_table");
        for n in [3usize, 24, 96] {
            let mut draw = |scale: f64| (rng.unit_f64() - 0.5) * scale;
            let circles: Vec<Circle> = (0..200)
                .map(|_| Circle::new(Point::new(draw(1e5), draw(1e5)), draw(1e4).abs()))
                .collect();
            let bits = |poly: &ConvexPolygon| -> Vec<(u64, u64)> {
                let v = poly.vertices().iter();
                v.map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            let shared = ConvexPolygon::inscribed_in_each(&circles, n);
            for (circle, poly) in circles.iter().zip(&shared) {
                assert_eq!(
                    bits(poly),
                    bits(&ConvexPolygon::inscribed_in(circle, n, 0.0))
                );
            }
        }
    }

    #[test]
    fn clip_segment_through_square() {
        let sq = unit_square();
        let s = Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5));
        let (t0, t1) = sq.clip_segment(&s).unwrap();
        assert!((s.at(t0).x - 0.0).abs() < 1e-12);
        assert!((s.at(t1).x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_segment_misses() {
        let sq = unit_square();
        let s = Segment::new(Point::new(-1.0, 2.0), Point::new(2.0, 2.0));
        assert!(sq.clip_segment(&s).is_none());
        // Parallel to an edge but outside.
        let s2 = Segment::new(Point::new(0.0, -0.5), Point::new(1.0, -0.5));
        assert!(sq.clip_segment(&s2).is_none());
    }

    #[test]
    fn clip_segment_fully_inside() {
        let sq = unit_square();
        let s = Segment::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8));
        assert_eq!(sq.clip_segment(&s), Some((0.0, 1.0)));
    }

    #[test]
    fn clip_segment_touching_corner() {
        let sq = unit_square();
        // A diagonal through the corner (0,0) only touches at t=0.5 -> a
        // degenerate interval, which clip reports with t0 == t1.
        let s = Segment::new(Point::new(-0.5, 0.5), Point::new(0.5, -0.5));
        match sq.clip_segment(&s) {
            None => {}
            Some((t0, t1)) => assert!((t1 - t0).abs() < 1e-9),
        }
    }
}
