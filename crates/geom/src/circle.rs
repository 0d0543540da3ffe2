//! Circles (disks).
//!
//! Two families of circles drive the paper's verification logic:
//!
//! * the *certain-area* disk of a peer `P` — center `P`, radius
//!   `Dist(P, n_k)` to its cached farthest nearest neighbor — inside which
//!   `P`'s cache enumerates **all** points of interest, and
//! * the *candidate* disk of the querier `Q` — center `Q`, radius
//!   `Dist(Q, n_i)` — which must be covered by the certain region for the
//!   candidate `n_i` to be a certain nearest neighbor (Lemma 3.8).

use crate::point::Point;
use crate::rect::Rect;

/// A circle, interpreted as the closed disk it bounds unless noted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. Radii are clamped to be non-negative.
    pub fn new(center: Point, radius: f64) -> Self {
        Circle {
            center,
            radius: radius.max(0.0),
        }
    }

    /// True when `p` lies inside or on the circle.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// True when the closed disk `other` lies entirely inside this closed
    /// disk: `dist(centers) + r_other <= r_self`.
    #[inline]
    pub fn contains_circle(&self, other: &Circle) -> bool {
        self.center.dist(other.center) + other.radius <= self.radius
    }

    /// True when the two closed disks share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Circle) -> bool {
        self.center.dist_sq(other.center)
            <= (self.radius + other.radius) * (self.radius + other.radius)
    }

    /// Axis-aligned bounding box of the disk.
    pub fn bounding_rect(&self) -> Rect {
        Rect::new(
            Point::new(self.center.x - self.radius, self.center.y - self.radius),
            Point::new(self.center.x + self.radius, self.center.y + self.radius),
        )
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// The point on the circle at angle `theta` (radians, measured from the
    /// positive x-axis).
    #[inline]
    pub fn point_at(&self, theta: f64) -> Point {
        Point::new(
            self.center.x + self.radius * theta.cos(),
            self.center.y + self.radius * theta.sin(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_radius_clamps_to_zero() {
        let c = Circle::new(Point::ORIGIN, -3.0);
        assert_eq!(c.radius, 0.0);
        assert!(c.contains_point(Point::ORIGIN));
        assert!(!c.contains_point(Point::new(0.1, 0.0)));
    }

    #[test]
    fn contains_point_boundary_inclusive() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains_point(Point::new(3.0, 1.0)));
        assert!(c.contains_point(Point::new(1.0, 1.0)));
        assert!(!c.contains_point(Point::new(3.1, 1.0)));
    }

    #[test]
    fn circle_in_circle() {
        let big = Circle::new(Point::ORIGIN, 5.0);
        let small = Circle::new(Point::new(2.0, 0.0), 3.0); // internally tangent
        assert!(big.contains_circle(&small));
        let out = Circle::new(Point::new(2.0, 0.0), 3.5);
        assert!(!big.contains_circle(&out));
        // A disk contains itself.
        assert!(big.contains_circle(&big));
    }

    #[test]
    fn intersection_including_tangency() {
        let a = Circle::new(Point::ORIGIN, 1.0);
        let b = Circle::new(Point::new(2.0, 0.0), 1.0); // externally tangent
        assert!(a.intersects(&b));
        let c = Circle::new(Point::new(2.01, 0.0), 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn bounding_rect_is_tight() {
        let c = Circle::new(Point::new(1.0, -1.0), 2.0);
        let bb = c.bounding_rect();
        assert_eq!(bb.min, Point::new(-1.0, -3.0));
        assert_eq!(bb.max, Point::new(3.0, 1.0));
    }

    #[test]
    fn point_at_angles() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        let e = c.point_at(0.0);
        assert!((e.x - 3.0).abs() < 1e-12 && (e.y - 1.0).abs() < 1e-12);
        let n = c.point_at(std::f64::consts::FRAC_PI_2);
        assert!((n.x - 1.0).abs() < 1e-12 && (n.y - 3.0).abs() < 1e-12);
    }
}
