//! Line segments and parametric clipping.

use crate::point::Point;

/// A directed line segment from `a` to `b`, parameterized as
/// `p(t) = a + t (b - a)` with `t` in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Start point (`t = 0`).
    pub a: Point,
    /// End point (`t = 1`).
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// The point at parameter `t` (not clamped).
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Parameter of the point on the *infinite line* closest to `p`.
    ///
    /// Returns `0.0` for a degenerate segment.
    pub fn project(&self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            0.0
        } else {
            (p - self.a).dot(d) / len_sq
        }
    }

    /// Closest point on the segment (clamped to the endpoints) to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        self.at(self.project(p).clamp(0.0, 1.0))
    }

    /// Parameter interval `[t0, t1]` of the segment that lies inside the
    /// *open* disk of `circle` (center `c`, radius `r`), or `None` when the
    /// segment misses the open disk.
    ///
    /// Solves `|p(t) - c|^2 < r^2`, a quadratic in `t`, and intersects the
    /// solution interval with `[0, 1]`.
    pub fn clip_to_open_disk(&self, center: Point, radius: f64) -> Option<(f64, f64)> {
        let d = self.b - self.a;
        let f = self.a - center;
        let aa = d.norm_sq();
        if aa <= f64::EPSILON {
            // Degenerate segment: either the point is inside or not.
            return if f.norm() < radius {
                Some((0.0, 1.0))
            } else {
                None
            };
        }
        let bb = 2.0 * f.dot(d);
        let cc = f.norm_sq() - radius * radius;
        let disc = bb * bb - 4.0 * aa * cc;
        if disc <= 0.0 {
            return None; // tangent (measure zero) or disjoint
        }
        let sq = disc.sqrt();
        let t0 = ((-bb - sq) / (2.0 * aa)).max(0.0);
        let t1 = ((-bb + sq) / (2.0 * aa)).min(1.0);
        if t0 < t1 {
            Some((t0, t1))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_at() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(6.0, 8.0));
        assert_eq!(s.len(), 10.0);
        assert_eq!(s.at(0.5), Point::new(3.0, 4.0));
    }

    #[test]
    fn projection_and_closest_point() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(Point::new(3.0, 5.0)), 0.3);
        // Beyond the endpoint: clamped.
        assert_eq!(
            s.closest_point(Point::new(20.0, 1.0)),
            Point::new(10.0, 0.0)
        );
        assert_eq!(s.closest_point(Point::new(-5.0, 1.0)), Point::new(0.0, 0.0));
    }

    #[test]
    fn degenerate_projection() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.project(Point::new(9.0, 9.0)), 0.0);
        assert_eq!(s.closest_point(Point::new(9.0, 9.0)), Point::new(2.0, 2.0));
    }

    #[test]
    fn disk_clip_through_center() {
        let s = Segment::new(Point::new(-2.0, 0.0), Point::new(2.0, 0.0));
        let (t0, t1) = s.clip_to_open_disk(Point::ORIGIN, 1.0).unwrap();
        assert!((s.at(t0).x + 1.0).abs() < 1e-12);
        assert!((s.at(t1).x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disk_clip_miss_and_tangent() {
        let s = Segment::new(Point::new(-2.0, 2.0), Point::new(2.0, 2.0));
        assert!(s.clip_to_open_disk(Point::ORIGIN, 1.0).is_none()); // above
        let t = Segment::new(Point::new(-2.0, 1.0), Point::new(2.0, 1.0));
        // Tangent line touches only the boundary, not the open disk.
        assert!(t.clip_to_open_disk(Point::ORIGIN, 1.0).is_none());
    }

    #[test]
    fn disk_clip_segment_fully_inside() {
        let s = Segment::new(Point::new(-0.2, 0.0), Point::new(0.2, 0.0));
        let (t0, t1) = s.clip_to_open_disk(Point::ORIGIN, 1.0).unwrap();
        assert_eq!((t0, t1), (0.0, 1.0));
    }

    #[test]
    fn disk_clip_one_endpoint_inside() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(5.0, 0.0));
        let (t0, t1) = s.clip_to_open_disk(Point::ORIGIN, 1.0).unwrap();
        assert_eq!(t0, 0.0);
        assert!((s.at(t1).x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disk_clip_degenerate_segment() {
        let inside = Segment::new(Point::new(0.1, 0.1), Point::new(0.1, 0.1));
        assert_eq!(
            inside.clip_to_open_disk(Point::ORIGIN, 1.0),
            Some((0.0, 1.0))
        );
        let outside = Segment::new(Point::new(5.0, 5.0), Point::new(5.0, 5.0));
        assert_eq!(outside.clip_to_open_disk(Point::ORIGIN, 1.0), None);
    }
}
