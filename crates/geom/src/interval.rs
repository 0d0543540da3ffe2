//! One-dimensional interval sets on a line parameter.
//!
//! [`crate::region::PolygonRegion`]'s covered radius works per polygon
//! edge: start from the window of the edge within reach of the centre and
//! *subtract* the sub-intervals covered by the other polygons. Whatever
//! survives is exposed boundary of the union, and the nearest piece bounds
//! the radius. [`crate::region::DiskRegion`] does the same per disk on
//! `[0, 2π]`, through [`crate::arcset::ArcSet`].

/// A set of disjoint, sorted, closed intervals `[lo, hi]` on the real line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet {
    /// Invariant: sorted by `lo`, pairwise disjoint, each with `lo <= hi`.
    spans: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// The single interval `[lo, hi]`; empty if `lo > hi`.
    pub fn single(lo: f64, hi: f64) -> Self {
        let mut s = IntervalSet::new();
        s.reset(lo, hi);
        s
    }

    /// Makes the set the single interval `[lo, hi]` (empty if `lo > hi`),
    /// keeping its allocation.
    pub(crate) fn reset(&mut self, lo: f64, hi: f64) {
        self.clear();
        if lo <= hi {
            self.spans.push((lo, hi));
        }
    }

    /// Empties the set, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
    }

    /// True when no interval remains.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total length of the remaining intervals.
    pub fn total_len(&self) -> f64 {
        self.spans.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// The remaining spans, sorted and disjoint.
    pub fn spans(&self) -> &[(f64, f64)] {
        &self.spans
    }

    /// Removes `[lo, hi]` from the set, in place. No-op if `lo > hi`.
    ///
    /// Surviving endpoints are copied, never computed, so an exposed
    /// piece's end is exactly the end of the cut that made it.
    pub fn subtract(&mut self, lo: f64, hi: f64) {
        if lo > hi {
            return;
        }
        // `kept <= read` throughout: only a span split in two (both ends
        // survive) writes more than it reads, and then a slot is inserted.
        let (mut read, mut kept) = (0, 0);
        while read < self.spans.len() {
            let (a, b) = self.spans[read];
            read += 1;
            if b < lo || a > hi {
                self.spans[kept] = (a, b); // untouched
                kept += 1;
                continue;
            }
            if a < lo {
                self.spans[kept] = (a, lo);
                kept += 1;
            }
            if b > hi {
                if kept == read {
                    self.spans.insert(kept, (hi, b));
                    read += 1;
                } else {
                    self.spans[kept] = (hi, b);
                }
                kept += 1;
            }
        }
        self.spans.truncate(kept);
    }

    /// [`IntervalSet::subtract`] into a fresh vector: the reference the
    /// in-place edit is tested against.
    #[cfg(test)]
    pub(crate) fn subtract_by_rebuild(&mut self, lo: f64, hi: f64) {
        if lo > hi || self.spans.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.spans.len() + 1);
        for &(a, b) in &self.spans {
            if b < lo || a > hi {
                out.push((a, b));
                continue;
            }
            if a < lo {
                out.push((a, lo));
            }
            if b > hi {
                out.push((hi, b));
            }
        }
        self.spans = out;
    }

    /// True when some remaining interval is longer than `eps`.
    pub fn has_span_longer_than(&self, eps: f64) -> bool {
        self.spans.iter().any(|(lo, hi)| hi - lo > eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_degenerate_and_inverted() {
        assert_eq!(IntervalSet::single(1.0, 1.0).total_len(), 0.0);
        assert!(!IntervalSet::single(1.0, 1.0).is_empty());
        assert!(IntervalSet::single(2.0, 1.0).is_empty());
    }

    #[test]
    fn subtract_middle_splits() {
        let mut s = IntervalSet::single(0.0, 10.0);
        s.subtract(3.0, 7.0);
        assert_eq!(s.spans(), &[(0.0, 3.0), (7.0, 10.0)]);
        assert!((s.total_len() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn subtract_ends() {
        let mut s = IntervalSet::single(0.0, 10.0);
        s.subtract(-5.0, 2.0);
        s.subtract(8.0, 15.0);
        assert_eq!(s.spans(), &[(2.0, 8.0)]);
    }

    #[test]
    fn subtract_everything() {
        let mut s = IntervalSet::single(0.0, 10.0);
        s.subtract(-1.0, 11.0);
        assert!(s.is_empty());
        assert!(!s.has_span_longer_than(0.0));
    }

    #[test]
    fn subtract_disjoint_is_noop() {
        let mut s = IntervalSet::single(0.0, 1.0);
        s.subtract(2.0, 3.0);
        assert_eq!(s.spans(), &[(0.0, 1.0)]);
    }

    #[test]
    fn repeated_subtractions_accumulate() {
        let mut s = IntervalSet::single(0.0, 1.0);
        for i in 0..10 {
            let lo = i as f64 * 0.1;
            s.subtract(lo, lo + 0.05);
        }
        assert!((s.total_len() - 0.5).abs() < 1e-9);
        assert_eq!(s.spans().len(), 10);
        assert!(s.has_span_longer_than(0.04));
        assert!(!s.has_span_longer_than(0.06));
    }

    #[test]
    fn in_place_subtract_equals_rebuild() {
        // Cuts drawn from a small lattice, so endpoints touch, coincide
        // and degenerate (`lo == hi`) all the time.
        let mut rng = proptest::TestRng::for_test("in_place_subtract");
        for _ in 0..2000 {
            let mut in_place = IntervalSet::single(0.0, 1.0);
            let mut rebuilt = in_place.clone();
            for _ in 0..rng.below(12) {
                let lo = rng.below(17) as f64 / 16.0;
                let hi = match rng.below(4) {
                    0 => lo,
                    1 => rng.below(17) as f64 / 16.0, // may be inverted: a no-op
                    _ => lo + rng.unit_f64() * 0.3,
                };
                in_place.subtract(lo, hi);
                rebuilt.subtract_by_rebuild(lo, hi);
                let bits = |s: &IntervalSet| -> Vec<(u64, u64)> {
                    s.spans()
                        .iter()
                        .map(|&(a, b)| (a.to_bits(), b.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&in_place), bits(&rebuilt), "after [{lo}, {hi}]");
            }
        }
    }
}
