//! Angular interval sets on a circle.
//!
//! Used by the exact disk-union coverage test ([`crate::region::DiskRegion`]):
//! for every disk boundary we track which angular sections are covered by
//! the other disks, working on normalized angles in `[0, 2π)` and splitting
//! wrapping arcs into at most two linear intervals.

use crate::interval::IntervalSet;

const TAU: f64 = std::f64::consts::TAU;

/// A set of angular intervals on `[0, 2π)`.
#[derive(Clone, Debug, Default)]
pub struct ArcSet {
    set: IntervalSet,
}

/// Normalizes an angle into `[0, 2π)`.
pub fn normalize_angle(theta: f64) -> f64 {
    let t = theta.rem_euclid(TAU);
    // rem_euclid can return TAU itself for inputs like -1e-18.
    if t >= TAU {
        0.0
    } else {
        t
    }
}

impl ArcSet {
    /// The empty set of arcs.
    pub fn new() -> Self {
        ArcSet {
            set: IntervalSet::new(),
        }
    }

    /// The full circle.
    pub fn full() -> Self {
        ArcSet {
            set: IntervalSet::single(0.0, TAU),
        }
    }

    /// The arc centered at `center` (radians) extending `half_width` to each
    /// side. A half-width of `π` or more yields the full circle.
    pub fn from_arc(center: f64, half_width: f64) -> Self {
        if half_width <= 0.0 {
            return ArcSet::new();
        }
        if half_width >= std::f64::consts::PI {
            return ArcSet::full();
        }
        let lo = normalize_angle(center - half_width);
        let hi = lo + 2.0 * half_width;
        let mut set = IntervalSet::single(lo, hi.min(TAU));
        if hi > TAU {
            // Wraps past 2π: add the leading piece.
            let wrapped = IntervalSet::single(0.0, hi - TAU);
            for &(a, b) in wrapped.spans() {
                // IntervalSet has no union op; emulate by collecting spans.
                set = merge(set, a, b);
            }
        }
        ArcSet { set }
    }

    /// Removes the arc centered at `center` with the given `half_width`.
    pub fn subtract_arc(&mut self, center: f64, half_width: f64) {
        if half_width <= 0.0 {
            return;
        }
        if half_width >= std::f64::consts::PI {
            self.set = IntervalSet::new();
            return;
        }
        let lo = normalize_angle(center - half_width);
        let hi = lo + 2.0 * half_width;
        self.set.subtract(lo, hi.min(TAU));
        if hi > TAU {
            self.set.subtract(0.0, hi - TAU);
        }
    }

    /// True when nothing remains.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Total angular measure of the remaining arcs (radians).
    pub fn total_len(&self) -> f64 {
        self.set.total_len()
    }

    /// True when some remaining arc is wider than `eps` radians.
    ///
    /// Note: an arc that wraps across 0 is stored as two pieces, so the
    /// check is conservative by at most a factor of two — acceptable for
    /// the refutation tests this type serves.
    pub fn has_span_longer_than(&self, eps: f64) -> bool {
        self.set.has_span_longer_than(eps)
    }

    /// An angle inside the widest remaining arc, if any.
    pub fn witness(&self) -> Option<f64> {
        self.set.longest_span_midpoint()
    }
}

/// Adds `[a, b]` to `set` (helper: `IntervalSet` only supports subtraction,
/// so we rebuild by subtracting the complement from the full range).
fn merge(set: IntervalSet, a: f64, b: f64) -> IntervalSet {
    let mut spans: Vec<(f64, f64)> = set.spans().to_vec();
    spans.push((a, b));
    spans.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut full = IntervalSet::single(0.0, TAU);
    // Subtract the complement of the merged spans.
    let mut cursor = 0.0_f64;
    let mut gaps = Vec::new();
    let mut end = 0.0_f64;
    for (lo, hi) in spans {
        if lo > end {
            gaps.push((cursor.max(end), lo));
        }
        end = end.max(hi);
        cursor = cursor.max(end);
    }
    if end < TAU {
        gaps.push((end, TAU));
    }
    for (lo, hi) in gaps {
        full.subtract(lo, hi);
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn normalize() {
        assert_eq!(normalize_angle(0.0), 0.0);
        assert!((normalize_angle(TAU + 1.0) - 1.0).abs() < 1e-12);
        assert!((normalize_angle(-1.0) - (TAU - 1.0)).abs() < 1e-12);
        assert_eq!(normalize_angle(TAU), 0.0);
    }

    #[test]
    fn merge_survives_a_nan_endpoint() {
        // The sort used to abort on it (`partial_cmp(..).unwrap()`); NaN
        // now sorts last and the finite span is kept.
        let merged = merge(IntervalSet::single(1.0, 2.0), f64::NAN, 0.5);
        assert_eq!(merged.spans(), &[(1.0, 2.0)]);
    }

    #[test]
    fn full_and_empty() {
        assert!((ArcSet::full().total_len() - TAU).abs() < 1e-12);
        assert!(ArcSet::new().is_empty());
        assert!(ArcSet::from_arc(1.0, 0.0).is_empty());
        assert!((ArcSet::from_arc(1.0, 10.0).total_len() - TAU).abs() < 1e-12);
    }

    #[test]
    fn simple_arc() {
        let a = ArcSet::from_arc(1.0, 0.5);
        assert!((a.total_len() - 1.0).abs() < 1e-12);
        assert!(a.has_span_longer_than(0.9));
        assert!(!a.has_span_longer_than(1.1));
    }

    #[test]
    fn wrapping_arc() {
        // Arc centered at 0 with half width 0.5 wraps: [2π-0.5, 2π) ∪ [0, 0.5].
        let a = ArcSet::from_arc(0.0, 0.5);
        assert!((a.total_len() - 1.0).abs() < 1e-12);
        let mut b = ArcSet::full();
        b.subtract_arc(0.0, 0.5);
        assert!((b.total_len() - (TAU - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn subtract_covering_everything() {
        let mut a = ArcSet::from_arc(1.0, 0.5);
        a.subtract_arc(1.0, 0.6);
        assert!(a.is_empty());
    }

    #[test]
    fn subtract_wrapping_from_plain() {
        // Target [1, 2]; subtract a wrapping arc that eats [0, 1.5].
        let mut a = ArcSet::from_arc(1.5, 0.5);
        a.subtract_arc(0.25, 1.25); // covers [2π-1, 2π) ∪ [0, 1.5]
        assert!((a.total_len() - 0.5).abs() < 1e-12);
        let w = a.witness().unwrap();
        assert!(w > 1.5 && w < 2.0);
    }

    #[test]
    fn two_halves_cover_circle() {
        let mut a = ArcSet::full();
        a.subtract_arc(0.0, PI / 2.0 + 0.01);
        a.subtract_arc(PI, PI / 2.0 + 0.01);
        assert!(!a.has_span_longer_than(1e-9));
    }

    #[test]
    fn two_halves_with_gap_leave_slivers() {
        let mut a = ArcSet::full();
        a.subtract_arc(0.0, PI / 2.0 - 0.05);
        a.subtract_arc(PI, PI / 2.0 - 0.05);
        // Two slivers of width 0.1 each remain.
        assert!((a.total_len() - 0.2).abs() < 1e-9);
        assert!(a.has_span_longer_than(0.05));
    }
}
