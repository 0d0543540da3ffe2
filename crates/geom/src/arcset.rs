//! Angular interval sets on a circle.
//!
//! Used by the exact disk-union coverage test ([`crate::region::DiskRegion`]):
//! for every disk boundary we track which angular sections are covered by
//! the other disks, working on normalized angles in `[0, 2π)` and splitting
//! wrapping arcs into at most two linear intervals. Only *measuring* an arc
//! joins the two again (`longer_than`): the piece that starts at 0 and
//! the piece that ends at 2π are one arc through angle 0.

use crate::interval::IntervalSet;

const TAU: f64 = std::f64::consts::TAU;
const PI: f64 = std::f64::consts::PI;

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

/// `[lo, hi]` with `lo` in `[0, 2π)`: the arc `center ± half_width` before
/// it is split at 2π.
fn unwrapped(center: f64, half_width: f64) -> (f64, f64) {
    let lo = normalize_angle(center - half_width);
    (lo, lo + 2.0 * half_width)
}

/// The linear pieces on `[0, 2π]` of the arc `center ± half_width`
/// (`half_width > 0`; `π` or more is the whole circle), ascending — the
/// spans [`ArcSet::from_arc`] holds, without the set.
pub(crate) fn arc_pieces(center: f64, half_width: f64) -> [Option<(f64, f64)>; 2] {
    if half_width >= PI {
        return [Some((0.0, TAU)), None];
    }
    let (lo, hi) = unwrapped(center, half_width);
    if hi > TAU {
        [Some((0.0, hi - TAU)), Some((lo, TAU))]
    } else {
        [Some((lo, hi)), None]
    }
}

/// True when some arc among `pieces` (disjoint, on `[0, 2π]`) is wider than
/// `eps` radians. An arc through angle 0 arrives as two pieces, one from 0
/// and one up to 2π, and is measured whole. Pieces of no positive length
/// (an empty intersection handed in as `hi < lo`) count for nothing.
pub(crate) fn longer_than(pieces: impl Iterator<Item = (f64, f64)>, eps: f64) -> bool {
    let mut through_zero = 0.0;
    for (lo, hi) in pieces {
        let len = hi - lo;
        if len > eps {
            return true;
        }
        if len > 0.0 && (lo == 0.0 || hi == TAU) {
            through_zero += len;
        }
    }
    through_zero > eps
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
        if half_width >= PI {
            return ArcSet::full();
        }
        let (lo, hi) = unwrapped(center, half_width);
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
        for (lo, hi) in arc_pieces(center, half_width).into_iter().flatten() {
            self.set.subtract(lo, hi);
        }
    }

    /// Makes the set the full circle, keeping its allocation.
    pub(crate) fn reset_full(&mut self) {
        self.set.reset(0.0, TAU);
    }

    /// The remaining arcs as linear pieces of `[0, 2π]`, ascending.
    pub(crate) fn spans(&self) -> &[(f64, f64)] {
        self.set.spans()
    }

    /// The remaining arcs, counter-clockwise from `lo` to `hi`: the pieces
    /// from 0 and up to 2π join into one arc, with `hi < lo`.
    pub(crate) fn arcs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut spans = self.spans();
        let mut joined = None;
        if let [(0.0, hi), .., (lo, end)] = *spans {
            if end == TAU {
                joined = Some((lo, hi));
                spans = &spans[1..spans.len() - 1];
            }
        }
        joined.into_iter().chain(spans.iter().copied())
    }

    /// True when nothing remains.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Total angular measure of the remaining arcs (radians).
    pub fn total_len(&self) -> f64 {
        self.set.total_len()
    }

    /// True when some remaining arc is wider than `eps` radians; an arc
    /// across angle 0, stored as two pieces, is measured whole.
    pub fn has_span_longer_than(&self, eps: f64) -> bool {
        longer_than(self.spans().iter().copied(), eps)
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
    }

    #[test]
    fn an_arc_across_angle_zero_is_measured_whole() {
        // What two half-disks leave of a circle: 0.12 rad centred on 0,
        // stored as [0, 0.06] and [2π − 0.06, 2π].
        let mut a = ArcSet::full();
        a.subtract_arc(PI, PI - 0.06);
        assert_eq!(a.spans().len(), 2);
        assert!((a.total_len() - 0.12).abs() < 1e-12);
        // Each stored piece alone is shorter than 0.1; the arc is not.
        assert!(a.has_span_longer_than(0.1));
        assert!(!a.has_span_longer_than(0.13));
        // The same arc centred anywhere else reads the same.
        let mut b = ArcSet::full();
        b.subtract_arc(PI + 1.0, PI - 0.06);
        assert!(b.has_span_longer_than(0.1));
        assert!(!b.has_span_longer_than(0.13));
        // Only the pieces at 0 and at 2π join: [0, 0.03], [3, 3.04] and
        // [2π − 0.03, 2π] hold an arc of 0.06 and one of 0.04.
        let mut c = ArcSet::full();
        c.subtract_arc(1.515, 1.485);
        c.subtract_arc((3.04 + TAU - 0.03) / 2.0, (TAU - 0.03 - 3.04) / 2.0);
        assert_eq!(c.spans().len(), 3, "{:?}", c.spans());
        assert!(c.has_span_longer_than(0.05));
        assert!(!c.has_span_longer_than(0.07));
    }

    #[test]
    fn arc_pieces_are_the_spans_of_from_arc() {
        for &(center, half) in &[(1.0, 0.5), (0.0, 0.5), (6.2, 1.0), (3.0, PI), (0.3, 0.3)] {
            let pieces: Vec<(f64, f64)> = arc_pieces(center, half).into_iter().flatten().collect();
            assert_eq!(
                pieces,
                ArcSet::from_arc(center, half).spans(),
                "{center} ± {half}"
            );
        }
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
