//! Points and elementary vector operations.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or free vector) in the Euclidean plane.
///
/// The paper identifies an object with its position coordinates
/// (footnote 1), so `Point` doubles as the location type for mobile hosts,
/// cached query locations and points of interest.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Horizontal coordinate (meters in the simulator).
    pub x: f64,
    /// Vertical coordinate (meters in the simulator).
    pub y: f64,
}

impl Point {
    /// Origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` — the `Dist(·,·)` of the paper.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean norm when `self` is interpreted as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dist(Point::ORIGIN)
    }

    /// Squared norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other`.
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self + t * (other - self)`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Unit vector in the direction of `self`, or `None` for a (near-)zero
    /// vector.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Angle of the vector in radians, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Returns a positive value when `c` is to the left of the directed line
/// `a -> b`, negative to the right, and (near) zero when collinear.
#[inline]
pub fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(b.dist(a), 5.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn normalized_zero_vector_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let u = Point::new(0.0, 2.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(u, Point::new(0.0, 1.0));
    }

    #[test]
    fn orientation_signs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(orient(a, b, Point::new(0.5, 1.0)) > 0.0);
        assert!(orient(a, b, Point::new(0.5, -1.0)) < 0.0);
        assert_eq!(orient(a, b, Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn angle_quadrants() {
        assert!((Point::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Point::new(0.0, 1.0).angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Point::new(-1.0, 0.0).angle() - std::f64::consts::PI).abs() < 1e-12);
    }
}
