//! Certain-region representations and circle-coverage tests.
//!
//! Lemma 3.8: with peers `P_1..P_j`, the certain region is
//! `R_c = P_1-area ∪ ... ∪ P_j-area` (each area the peer's outermost-NN
//! disk), and a candidate `n_i` is a certain NN of `Q` iff the circle
//! centered at `Q` through `n_i` is fully covered by `R_c`.
//!
//! Two interchangeable implementations:
//!
//! * [`PolygonRegion`] — the paper's polygonization approach. Disks become
//!   inscribed regular polygons (a conservative under-approximation) and
//!   coverage is answered against their union: a disk `D` is covered by a
//!   union `U` of convex polygons iff `center(D) ∈ U` and no point of `∂U`
//!   lies in the open disk `int(D)`. `∂U` is exactly the sub-segments of
//!   polygon edges not covered by any *other* polygon, which we compute
//!   with 1-D interval subtraction per edge — the same boundary pieces a
//!   MapOverlay pass would produce, without maintaining a DCEL.
//! * [`DiskRegion`] — an exact test on the original disks via the arc
//!   arrangement: the circles the lemma is stated on, and the region
//!   queries run against.
//!
//! Soundness direction: both tests only return `true` when the closed
//! candidate disk really is covered (`PolygonRegion` additionally
//! under-approximates each disk, so it can answer `false` for circles the
//! true region covers — the paper's approximation has the same property).
//!
//! ## The overlay is kept, edge by edge
//!
//! The paper overlays once and then tests every candidate against the
//! one merged region. So does [`PolygonRegion`], lazily: the first time a
//! candidate disk cuts an edge `e`, the edge's exposed spans `X_e = [0, 1]
//! − ∪ T_j` (`T_j` the clip of `e` to every other polygon) are computed
//! and kept; a candidate that cuts `e` along `[c0, c1]` then only asks
//! whether a piece of `X_e ∩ [c0, c1]` is longer than the tolerance. A
//! walk's candidates share the centre and grow outwards, so most edges a
//! test cuts were filled by the test before it.
//!
//! Keeping `X_e` changes no answer, whatever the candidates and whatever
//! order they come in. Subtracting `T_j` from a span only *copies*
//! endpoints (a survivor of `(a, b)` is `(a, lo)` or `(hi, b)`) and
//! decides what survives by comparing them, so the positive-length pieces
//! of `[c0, c1] − ∪ T_j` and of `([0, 1] − ∪ T_j) ∩ [c0, c1]` are pairs of
//! the same floats — induct over `j`: clipping a span to `[c0, c1]` and
//! subtracting `T_j` commute up to zero-length spans, which no later step
//! can grow. `X_e` depends on nothing but the region, so an edge filled by
//! one candidate reads the same to the next.
//!
//! ## So is the arrangement, disk by disk
//!
//! [`DiskRegion`] keeps the same thing on circles: the first time a
//! candidate's open disk reaches `∂D_i`, the arcs of `∂D_i` no other disk
//! covers, `X_i = [0, 2π] − ∪ A_j`, are computed and kept, and a candidate
//! whose disk holds the window `W` of `∂D_i` asks whether an arc of
//! `X_i ∩ W` is wider than the tolerance. An arc is at most two linear
//! pieces of `[0, 2π]` (it is split where it passes 2π), so `W − ∪ A_j` is
//! the same interval subtraction as above on each piece of `W`, one `A_j`
//! piece at a time, and the endpoint-copy argument carries over piece by
//! piece: `W − ∪ A_j` and `X_i ∩ W` have the same positive-length pieces,
//! as pairs of the same floats. Both are then measured by the one rule of
//! [`crate::arcset`] — the piece from 0 and the piece up to 2π are one arc
//! — and a piece starts at 0 (ends at 2π) in the one exactly when it does
//! in the other, those endpoints being copies too.

use crate::arcset::{arc_pieces, longer_than, ArcSet};
use crate::circle::Circle;
use crate::interval::IntervalSet;
use crate::point::Point;
use crate::polygon::ConvexPolygon;
use crate::rect::Rect;
use crate::EPS;

/// Relative tolerance used when deduplicating source disks.
const DEDUP_EPS: f64 = 1e-12;

/// The certain region as a union of convex polygons (the paper's
/// polygonized `R_c`).
///
/// ```
/// use senn_geom::{Circle, Point, PolygonRegion};
///
/// // Two overlapping peer disks; a candidate circle needing both.
/// let mut region = PolygonRegion::from_circles(
///     &[
///         Circle::new(Point::new(0.0, 0.0), 1.0),
///         Circle::new(Point::new(1.0, 0.0), 1.0),
///     ],
///     32,
/// );
/// assert!(region.covers_circle(&Circle::new(Point::new(0.5, 0.0), 0.6)));
/// assert!(!region.covers_circle(&Circle::new(Point::new(0.5, 0.0), 0.95)));
/// ```
#[derive(Clone, Debug)]
pub struct PolygonRegion {
    polygons: Vec<ConvexPolygon>,
    bounds: Vec<Rect>,
    /// The union boundary as far as coverage tests have asked for it
    /// (module docs): per polygon edge, polygon by polygon, the exposed
    /// spans of its parameter interval. Sized by the first coverage test.
    boundary: KeptSpans,
    scratch: IntervalSet,
}

/// Span lists kept per slot — a polygon edge, a disk — each computed the
/// first time a coverage test reaches its slot (module docs).
#[derive(Clone, Debug, Default)]
struct KeptSpans {
    /// Per slot: its range of `spans`, or [`KeptSpans::UNFILLED`].
    slots: Vec<(u32, u32)>,
    spans: Vec<(f64, f64)>,
}

impl KeptSpans {
    const UNFILLED: (u32, u32) = (u32::MAX, u32::MAX);

    fn with_slots(slots: usize) -> Self {
        KeptSpans {
            slots: vec![Self::UNFILLED; slots],
            spans: Vec::new(),
        }
    }

    /// The spans kept for `slot`: what `fill` computes, the first time.
    fn get_or_fill<'a>(
        &'a mut self,
        slot: usize,
        fill: impl FnOnce() -> &'a [(f64, f64)],
    ) -> &'a [(f64, f64)] {
        if self.slots[slot] == Self::UNFILLED {
            let start = self.spans.len() as u32;
            self.spans.extend_from_slice(fill());
            self.slots[slot] = (start, self.spans.len() as u32);
        }
        let (start, end) = self.slots[slot];
        &self.spans[start as usize..end as usize]
    }
}

/// The exposed spans of edge `seg` of polygon `owner`: `[0, 1]` minus the
/// clip of `seg` to every other polygon, left in `exposed`.
fn exposed_spans(
    polygons: &[ConvexPolygon],
    owner: usize,
    seg: &crate::segment::Segment,
    exposed: &mut IntervalSet,
) {
    exposed.reset(0.0, 1.0);
    for (j, other) in polygons.iter().enumerate() {
        if j == owner {
            continue;
        }
        if let Some((t0, t1)) = other.clip_segment(seg) {
            exposed.subtract(t0, t1);
            if exposed.is_empty() {
                break;
            }
        }
    }
}

impl PolygonRegion {
    /// Builds the region by polygonizing `circles` with inscribed regular
    /// `vertices`-gons. Duplicate circles and circles that bound nothing
    /// (zero or non-finite radius, non-finite centre) are dropped.
    pub fn from_circles(circles: &[Circle], vertices: usize) -> Self {
        let disks = source_disks(circles);
        Self::from_polygons(ConvexPolygon::inscribed_in_each(&disks, vertices))
    }

    /// Builds the region from pre-built convex polygons.
    pub fn from_polygons(polygons: Vec<ConvexPolygon>) -> Self {
        let bounds = polygons.iter().map(|p| p.bounding_rect()).collect();
        PolygonRegion {
            polygons,
            bounds,
            boundary: KeptSpans::default(),
            scratch: IntervalSet::new(),
        }
    }

    /// Number of polygons forming the region.
    pub fn len(&self) -> usize {
        self.polygons.len()
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.polygons.is_empty()
    }

    /// The polygons forming the region.
    pub fn polygons(&self) -> &[ConvexPolygon] {
        &self.polygons
    }

    /// True when `p` lies in the union.
    pub fn covers_point(&self, p: Point) -> bool {
        self.polygons
            .iter()
            .zip(&self.bounds)
            .any(|(poly, bb)| bb.contains_point(p) && poly.contains_point(p, EPS))
    }

    /// The exposed boundary of the union: the sub-segments of polygon
    /// edges not covered by any other polygon, each oriented as its source
    /// edge (counter-clockwise around the union). This is exactly the
    /// boundary a MapOverlay merge would output, as a segment soup.
    pub fn union_boundary(&self) -> Vec<crate::segment::Segment> {
        let mut out = Vec::new();
        for (i, poly) in self.polygons.iter().enumerate() {
            for seg in poly.edges() {
                let seg_len = seg.len();
                if seg_len <= EPS {
                    continue;
                }
                let mut exposed = IntervalSet::single(0.0, 1.0);
                for (j, other) in self.polygons.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let Some((t0, t1)) = other.clip_segment(&seg) else {
                        continue;
                    };
                    if j < i {
                        // Lower-indexed polygon wins boundary-shared
                        // pieces: subtract the whole covered interval.
                        exposed.subtract(t0, t1);
                    } else {
                        // Keep sub-intervals where the segment runs along
                        // j's boundary (collinear shared edges) so each
                        // shared piece is emitted exactly once.
                        let mut covered = IntervalSet::single(t0, t1);
                        for (s0, s1) in collinear_overlaps(&seg, other) {
                            covered.subtract(s0, s1);
                        }
                        for &(c0, c1) in covered.spans() {
                            exposed.subtract(c0, c1);
                        }
                    }
                    if exposed.is_empty() {
                        break;
                    }
                }
                for &(t0, t1) in exposed.spans() {
                    if (t1 - t0) * seg_len > EPS {
                        out.push(crate::segment::Segment::new(seg.at(t0), seg.at(t1)));
                    }
                }
            }
        }
        out
    }

    /// Area of the union, via Green's theorem over the oriented exposed
    /// boundary (`½ Σ (a × b)` over the boundary segments). Exact up to
    /// floating point for any arrangement of the member polygons —
    /// overlapping, nested or disjoint.
    pub fn union_area(&self) -> f64 {
        self.union_boundary()
            .iter()
            .map(|s| s.a.cross(s.b))
            .sum::<f64>()
            * 0.5
    }

    /// True when the closed disk bounded by `circle` is fully covered by the
    /// union (Lemma 3.8's test, on the polygonized region). Fills in the
    /// kept union boundary along the edges the disk cuts (module docs).
    pub fn covers_circle(&mut self, circle: &Circle) -> bool {
        if !self.covers_point(circle.center) {
            return false;
        }
        if circle.radius <= 0.0 {
            return true;
        }
        let PolygonRegion {
            polygons,
            bounds,
            boundary,
            scratch,
        } = self;
        if boundary.slots.is_empty() {
            *boundary = KeptSpans::with_slots(polygons.iter().map(|p| p.vertices().len()).sum());
        }
        let target_bb = circle.bounding_rect();
        let mut first_edge = 0;
        for (i, poly) in polygons.iter().enumerate() {
            let edges = first_edge..;
            first_edge += poly.vertices().len();
            if !bounds[i].intersects(target_bb) {
                continue;
            }
            for (seg, edge) in poly.edges().zip(edges) {
                // Part of this edge inside the open candidate disk.
                let Some((c0, c1)) = seg.clip_to_open_disk(circle.center, circle.radius) else {
                    continue;
                };
                let seg_len = seg.len();
                if seg_len <= EPS {
                    continue;
                }
                // An exposed piece longer than EPS (as a distance) is union
                // boundary strictly inside the disk: not covered.
                let eps = EPS / seg_len;
                let exposed = boundary.get_or_fill(edge, || {
                    exposed_spans(polygons, i, &seg, scratch);
                    scratch.spans()
                });
                if exposed.iter().any(|&(a, b)| b.min(c1) - a.max(c0) > eps) {
                    return false;
                }
            }
        }
        true
    }
}

/// The certain region as an exact union of disks.
#[derive(Clone, Debug)]
pub struct DiskRegion {
    disks: Vec<Circle>,
    /// The arrangement as far as coverage tests have asked for it (module
    /// docs): per disk, the arcs of its boundary no other disk covers.
    exposed: KeptSpans,
    scratch: ArcSet,
}

impl DiskRegion {
    /// Builds the region. Duplicate disks are dropped (they would mutually
    /// erase each other's boundary in the arrangement walk), and so are
    /// disks that bound nothing: zero or non-finite radius, non-finite
    /// centre.
    pub fn from_circles(circles: &[Circle]) -> Self {
        let disks = source_disks(circles);
        DiskRegion {
            exposed: KeptSpans::with_slots(disks.len()),
            disks,
            scratch: ArcSet::new(),
        }
    }

    /// Number of disks forming the region.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// The disks forming the region.
    pub fn disks(&self) -> &[Circle] {
        &self.disks
    }

    /// True when `p` lies in the union.
    pub fn covers_point(&self, p: Point) -> bool {
        self.disks.iter().any(|d| d.contains_point(p))
    }

    /// Exact test: is the closed disk bounded by `circle` covered by the
    /// union of the region's disks? (Lemma 3.8's test, on the circles it
    /// is stated on.)
    ///
    /// A closed disk `D` is covered by the closed union `U` iff
    /// `center(D) ∈ U` and `∂U ∩ int(D) = ∅`. Every point of `∂U` lies on
    /// some disk boundary and is covered by no other disk, so per disk the
    /// arc of its boundary inside `int(D)` is met with the arcs no other
    /// disk covers; any piece wider than the tolerance refutes coverage.
    /// Fills in the kept arrangement along the disks `D` reaches (module
    /// docs).
    pub fn covers_circle(&mut self, circle: &Circle) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        let covered = self.covers_circle_in(circle, &mut scratch);
        self.scratch = scratch;
        covered
    }

    /// [`Self::covers_circle`] with the caller's scratch for the arcs a
    /// fill computes, so a caller that builds many regions keeps one
    /// scratch for all of them. The scratch carries nothing from one call
    /// to the next.
    pub fn covers_circle_in(&mut self, circle: &Circle, scratch: &mut ArcSet) -> bool {
        if !self.covers_point(circle.center) {
            return false;
        }
        if circle.radius <= 0.0 {
            return true;
        }
        let DiskRegion { disks, exposed, .. } = self;
        for (i, di) in disks.iter().enumerate() {
            let Some((toward, half)) = boundary_inside_open_disk(di, circle) else {
                continue;
            };
            let exposed = exposed.get_or_fill(i, || {
                exposed_arcs(disks, i, scratch);
                scratch.spans()
            });
            let inside = arc_pieces(toward, half)
                .into_iter()
                .flatten()
                .flat_map(|(w0, w1)| exposed.iter().map(move |&(a, b)| (a.max(w0), b.min(w1))));
            if longer_than(inside, EPS / di.radius) {
                return false;
            }
        }
        true
    }
}

/// The arcs of `∂disks[owner]` that no other disk covers, left in `arcs`.
fn exposed_arcs(disks: &[Circle], owner: usize, arcs: &mut ArcSet) {
    arcs.reset_full();
    for (j, dj) in disks.iter().enumerate() {
        if j == owner {
            continue;
        }
        subtract_coverage(arcs, &disks[owner], dj);
        if arcs.is_empty() {
            break;
        }
    }
}

/// Angular section of `∂disk` lying strictly inside the open disk bounded by
/// `target`, as the direction of its midpoint and its half-width (`π`: all
/// of `∂disk`), or `None` when there is none (tangency counts as none).
fn boundary_inside_open_disk(disk: &Circle, target: &Circle) -> Option<(f64, f64)> {
    let d = disk.center.dist(target.center);
    let (r, rt) = (disk.radius, target.radius);
    if d >= rt + r {
        return None; // fully outside (or externally tangent)
    }
    if d + r < rt {
        return Some((0.0, std::f64::consts::PI)); // ∂disk entirely inside int(target)
    }
    if d <= f64::EPSILON {
        // Concentric and not strictly inside: boundary touches/exceeds.
        return None;
    }
    // Law of cosines on the triangle (disk.center, target.center, x) for a
    // boundary point x of `disk` at angle alpha from the center line.
    let cos_a = (d * d + r * r - rt * rt) / (2.0 * d * r);
    if cos_a >= 1.0 {
        return None;
    }
    let half = cos_a.clamp(-1.0, 1.0).acos();
    Some(((target.center - disk.center).angle(), half))
}

/// Subtracts from `arc` (angles on `∂di`) the section covered by the closed
/// disk `dj`.
fn subtract_coverage(arc: &mut ArcSet, di: &Circle, dj: &Circle) {
    let d = di.center.dist(dj.center);
    let (ri, rj) = (di.radius, dj.radius);
    if d >= ri + rj {
        return; // disjoint: covers nothing of ∂di
    }
    if d + ri <= rj {
        // di (hence its boundary) entirely inside dj.
        arc.subtract_arc(0.0, std::f64::consts::PI + 1.0);
        return;
    }
    if d + rj <= ri || d <= f64::EPSILON {
        return; // dj strictly inside di: touches ∂di nowhere
    }
    let cos_b = (d * d + ri * ri - rj * rj) / (2.0 * d * ri);
    if cos_b >= 1.0 {
        return;
    }
    let half = cos_b.clamp(-1.0, 1.0).acos();
    let toward = (dj.center - di.center).angle();
    arc.subtract_arc(toward, half);
}

/// Parameter intervals of `seg` that lie along (collinear with) some edge
/// of `poly`.
fn collinear_overlaps(seg: &crate::segment::Segment, poly: &ConvexPolygon) -> Vec<(f64, f64)> {
    use crate::point::orient;
    let mut out = Vec::new();
    let len = seg.len().max(f64::MIN_POSITIVE);
    for e in poly.edges() {
        let elen = e.len().max(f64::MIN_POSITIVE);
        // Collinear iff both endpoints of `seg` sit on e's carrier line.
        let d0 = orient(e.a, e.b, seg.a).abs() / elen;
        let d1 = orient(e.a, e.b, seg.b).abs() / elen;
        if d0 > EPS || d1 > EPS {
            continue;
        }
        let ta = seg.project(e.a);
        let tb = seg.project(e.b);
        let (lo, hi) = if ta <= tb { (ta, tb) } else { (tb, ta) };
        let (lo, hi) = (lo.max(0.0), hi.min(1.0));
        if hi - lo > EPS / len {
            out.push((lo, hi));
        }
    }
    out
}

/// The disks a region is built from: `circles` without those that bound
/// nothing (zero, NaN or infinite radius, non-finite centre) and without
/// those equal (within [`DEDUP_EPS`], relative to magnitude) to an earlier
/// one.
fn source_disks(circles: &[Circle]) -> Vec<Circle> {
    let mut out: Vec<Circle> = Vec::with_capacity(circles.len());
    'outer: for &c in circles {
        if !(c.radius > 0.0 && c.radius.is_finite() && c.center.is_finite()) {
            continue;
        }
        for &prev in &out {
            let scale = (prev.radius + c.radius).max(1.0);
            if prev.center.dist(c.center) <= DEDUP_EPS * scale
                && (prev.radius - c.radius).abs() <= DEDUP_EPS * scale
            {
                continue 'outer;
            }
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    // ---------- DiskRegion (exact) ----------

    #[test]
    fn disk_single_contains_smaller() {
        let mut region = DiskRegion::from_circles(&[c(0.0, 0.0, 2.0)]);
        assert!(region.covers_circle(&c(0.5, 0.0, 1.0)));
        assert!(!region.covers_circle(&c(0.5, 0.0, 1.6)));
        // Internally tangent counts as covered (closed containment).
        assert!(region.covers_circle(&c(1.0, 0.0, 1.0)));
    }

    #[test]
    fn disk_empty_region_covers_nothing() {
        let mut region = DiskRegion::from_circles(&[]);
        assert!(!region.covers_circle(&c(0.0, 0.0, 0.0)));
        assert!(!region.covers_point(Point::ORIGIN));
    }

    #[test]
    fn disk_two_overlapping_cover_bridge_circle() {
        // Two unit disks overlapping; a circle straddling the lens. The
        // union boundary nearest to (0.5, 0) is the lens vertex at distance
        // sqrt(3)/2 ≈ 0.866, so radius 0.6 needs *both* disks.
        let mut region = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0), c(1.0, 0.0, 1.0)]);
        assert!(region.covers_circle(&c(0.5, 0.0, 0.6)));
        // Neither single disk covers it (0.5 + 0.6 > 1):
        let mut single = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0)]);
        assert!(!single.covers_circle(&c(0.5, 0.0, 0.6)));
        // Too large: pokes out above/below the lens region.
        assert!(!region.covers_circle(&c(0.5, 0.0, 0.95)));
    }

    #[test]
    fn disk_union_with_hole_is_detected() {
        // Four unit disks around the origin leaving a tiny central hole.
        let r = 1.0;
        let off = 1.05; // centers at distance 1.05 → hole at origin
        let mut region = DiskRegion::from_circles(&[
            c(off, 0.0, r),
            c(-off, 0.0, r),
            c(0.0, off, r),
            c(0.0, -off, r),
        ]);
        // Origin is not covered at all.
        assert!(!region.covers_point(Point::ORIGIN));
        // A circle centered inside one disk but spanning the hole: rejected.
        assert!(!region.covers_circle(&c(0.4, 0.0, 0.45)));
    }

    #[test]
    fn disk_ring_of_disks_covers_inner_circle() {
        // Six unit disks on a radius-1 hexagon fully cover a central disk.
        let mut disks = vec![];
        for i in 0..6 {
            let th = std::f64::consts::TAU * i as f64 / 6.0;
            disks.push(c(th.cos(), th.sin(), 1.0));
        }
        let mut region = DiskRegion::from_circles(&disks);
        assert!(region.covers_circle(&c(0.0, 0.0, 0.5)));
        assert!(!region.covers_circle(&c(0.0, 0.0, 1.9)));
    }

    #[test]
    fn disk_duplicates_do_not_fake_coverage() {
        let mut region = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0), c(0.0, 0.0, 1.0)]);
        assert_eq!(region.len(), 1);
        assert!(!region.covers_circle(&c(0.0, 0.0, 1.5)));
    }

    #[test]
    fn disk_zero_radius_candidate() {
        let mut region = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0)]);
        assert!(region.covers_circle(&c(0.5, 0.0, 0.0)));
        assert!(!region.covers_circle(&c(5.0, 0.0, 0.0)));
    }

    /// `∂A` (radius `r`) exposed only along `1.5 · EPS` of length centred
    /// on angle `at`: two disks centred a quarter turn either side of `at`
    /// cover it up to `0.75 · EPS` short of there, a third covers the far
    /// side.
    fn almost_covered_circle(r: f64, at: f64) -> Vec<Circle> {
        let a = c(0.0, 0.0, r);
        let gap = 0.75 * EPS / r;
        let side = |turn: f64| {
            let center = a.point_at(at + turn);
            Circle::new(center, center.dist(a.point_at(at + turn.signum() * gap)))
        };
        let quarter = std::f64::consts::FRAC_PI_2;
        let far = Circle::new(a.point_at(at + std::f64::consts::PI), r);
        vec![a, side(quarter), side(-quarter), far]
    }

    #[test]
    fn disk_exposed_arc_across_angle_zero_is_measured_whole() {
        let r = 1e-3;
        // A candidate a hair wider than A takes in all of ∂A and, of the
        // other boundaries, only pieces a tenth of the tolerance long.
        let candidate = c(0.0, 0.0, r + 1e-10);
        for at in [0.0, 1.0] {
            let disks = almost_covered_circle(r, at);
            let mut exposed = ArcSet::new();
            exposed_arcs(&disks, 0, &mut exposed);
            let len = exposed.total_len() * r;
            assert!(len > 1.4 * EPS && len < 1.6 * EPS, "exposed {len}");
            // Centred on angle 0 the arc is held as two pieces, each
            // under the tolerance on its own.
            let pieces = exposed.spans();
            assert_eq!(pieces.len(), if at == 0.0 { 2 } else { 1 }, "{pieces:?}");
            assert_eq!(pieces.iter().all(|(lo, hi)| (hi - lo) * r < EPS), at == 0.0);
            let mut region = DiskRegion::from_circles(&disks);
            assert!(!region.covers_circle(&candidate), "gap at {at} accepted");
        }
    }

    #[test]
    fn non_finite_circles_certify_nothing() {
        let bad = [
            Circle {
                center: Point::new(f64::NAN, 0.0),
                radius: 1.0,
            },
            Circle {
                center: Point::new(0.0, f64::INFINITY),
                radius: 1.0,
            },
            Circle {
                center: Point::ORIGIN,
                radius: f64::NAN,
            },
            Circle {
                center: Point::ORIGIN,
                radius: f64::INFINITY,
            },
            Circle::new(Point::ORIGIN, f64::NAN),
            Circle::new(Point::ORIGIN, f64::NEG_INFINITY),
        ];
        let candidates = [c(0.0, 0.0, 0.0), c(0.0, 0.0, 0.5), c(0.2, 0.1, 3.0)];
        for &circle in &bad {
            let mut alone = DiskRegion::from_circles(&[circle]);
            assert!(alone.is_empty(), "{circle:?} kept");
            let mut polygons = PolygonRegion::from_circles(&[circle], 24);
            assert!(polygons.is_empty(), "{circle:?} kept");
            // Beside an honest disk it neither adds coverage nor erases
            // the honest disk's boundary.
            let mut beside = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0), circle]);
            let mut honest = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0)]);
            for cand in &candidates {
                assert!(!alone.covers_circle(cand), "{circle:?} certified {cand:?}");
                assert!(
                    !polygons.covers_circle(cand),
                    "{circle:?} certified {cand:?}"
                );
                assert_eq!(beside.covers_circle(cand), honest.covers_circle(cand));
            }
        }
    }

    // ---------- PolygonRegion (paper's polygonization) ----------

    #[test]
    fn polygon_region_is_conservative_subset_of_disk_region() {
        // Whatever the polygon region accepts, the exact region must accept.
        let circles = [c(0.0, 0.0, 1.0), c(1.2, 0.3, 0.8), c(-0.4, 0.9, 0.7)];
        let mut poly = PolygonRegion::from_circles(&circles, 24);
        let mut exact = DiskRegion::from_circles(&circles);
        let candidates = [
            c(0.0, 0.0, 0.5),
            c(0.5, 0.2, 0.6),
            c(1.0, 0.3, 0.7),
            c(0.3, 0.3, 1.0),
            c(-0.2, 0.5, 0.4),
            c(2.0, 2.0, 0.1),
        ];
        for cand in candidates {
            if poly.covers_circle(&cand) {
                assert!(
                    exact.covers_circle(&cand),
                    "polygon region accepted {cand:?} but exact region refuses"
                );
            }
        }
    }

    #[test]
    fn polygon_two_overlapping_cover_bridge_circle() {
        let mut region = PolygonRegion::from_circles(&[c(0.0, 0.0, 1.0), c(1.0, 0.0, 1.0)], 32);
        assert!(region.covers_circle(&c(0.5, 0.0, 0.6)));
        let mut single = PolygonRegion::from_circles(&[c(0.0, 0.0, 1.0)], 32);
        assert!(!single.covers_circle(&c(0.5, 0.0, 0.6)));
        assert!(!region.covers_circle(&c(0.5, 0.0, 0.95)));
    }

    #[test]
    fn polygon_region_rejects_uncovered_center() {
        let mut region = PolygonRegion::from_circles(&[c(0.0, 0.0, 1.0)], 16);
        assert!(!region.covers_circle(&c(3.0, 0.0, 0.1)));
    }

    #[test]
    fn polygon_more_vertices_accept_more() {
        // A candidate near the limit: the coarse polygonization rejects it,
        // the fine one accepts it, and the exact test accepts it.
        let circles = [c(0.0, 0.0, 1.0)];
        let cand = c(0.0, 0.0, 0.97);
        let mut coarse = PolygonRegion::from_circles(&circles, 6);
        let mut fine = PolygonRegion::from_circles(&circles, 96);
        let mut exact = DiskRegion::from_circles(&circles);
        assert!(exact.covers_circle(&cand));
        assert!(
            !coarse.covers_circle(&cand),
            "hexagon under-approximates too much"
        );
        assert!(fine.covers_circle(&cand));
    }

    #[test]
    fn polygon_duplicates_do_not_fake_coverage() {
        let mut region = PolygonRegion::from_circles(&[c(0.0, 0.0, 1.0), c(0.0, 0.0, 1.0)], 24);
        assert_eq!(region.len(), 1);
        assert!(!region.covers_circle(&c(0.0, 0.0, 1.5)));
    }

    #[test]
    fn polygon_empty_region() {
        let mut region = PolygonRegion::from_circles(&[c(0.0, 0.0, 0.0)], 24);
        assert!(region.is_empty());
        assert!(!region.covers_circle(&c(0.0, 0.0, 0.0)));
    }

    #[test]
    fn union_area_disjoint_is_sum() {
        let squares = vec![
            ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ])
            .unwrap(),
            ConvexPolygon::new(vec![
                Point::new(5.0, 0.0),
                Point::new(7.0, 0.0),
                Point::new(7.0, 2.0),
                Point::new(5.0, 2.0),
            ])
            .unwrap(),
        ];
        let region = PolygonRegion::from_polygons(squares);
        assert!((region.union_area() - 5.0).abs() < 1e-9);
        assert_eq!(region.union_boundary().len(), 8);
    }

    #[test]
    fn union_area_overlap_matches_inclusion_exclusion() {
        // Two unit squares overlapping in a 0.5x1 strip: union = 1.5.
        let a = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let b = ConvexPolygon::new(vec![
            Point::new(0.5, 0.0),
            Point::new(1.5, 0.0),
            Point::new(1.5, 1.0),
            Point::new(0.5, 1.0),
        ])
        .unwrap();
        let region = PolygonRegion::from_polygons(vec![a, b]);
        assert!(
            (region.union_area() - 1.5).abs() < 1e-9,
            "got {}",
            region.union_area()
        );
    }

    #[test]
    fn union_area_nested_is_outer() {
        let outer = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        let inner = ConvexPolygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 2.0),
        ])
        .unwrap();
        let region = PolygonRegion::from_polygons(vec![outer, inner]);
        assert!((region.union_area() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn union_area_of_polygonized_disks_approaches_disk_area() {
        // Two far-apart disks: union area ≈ sum of disk areas, scaled by
        // the inscribed-polygon factor.
        let circles = [c(0.0, 0.0, 1.0), c(10.0, 0.0, 2.0)];
        let region = PolygonRegion::from_circles(&circles, 64);
        let expected: f64 = circles.iter().map(|d| d.area()).sum();
        let got = region.union_area();
        assert!(
            (got - expected).abs() / expected < 0.01,
            "union {got} vs disks {expected}"
        );
    }

    // ---------- the kept union boundary ----------

    /// [`PolygonRegion::covers_circle`] deriving every exposed piece from
    /// nothing: the reference the kept boundary is tested against.
    fn covers_circle_stateless(region: &PolygonRegion, circle: &Circle) -> bool {
        if !region.covers_point(circle.center) {
            return false;
        }
        if circle.radius <= 0.0 {
            return true;
        }
        let target_bb = circle.bounding_rect();
        for (i, poly) in region.polygons.iter().enumerate() {
            if !region.bounds[i].intersects(target_bb) {
                continue;
            }
            for seg in poly.edges() {
                let Some((c0, c1)) = seg.clip_to_open_disk(circle.center, circle.radius) else {
                    continue;
                };
                let seg_len = seg.len();
                if seg_len <= EPS {
                    continue;
                }
                let mut exposed = IntervalSet::single(c0, c1);
                for (j, other) in region.polygons.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    if let Some((t0, t1)) = other.clip_segment(&seg) {
                        exposed.subtract_by_rebuild(t0, t1);
                        if exposed.is_empty() {
                            break;
                        }
                    }
                }
                if exposed.has_span_longer_than(EPS / seg_len) {
                    return false;
                }
            }
        }
        true
    }

    /// Source disks built to collide: each is drawn fresh or derived from
    /// the one before it as a duplicate, a nested disk, a tangent disk, a
    /// zero-radius disk or a disk sharing its centre.
    fn colliding_disks(draws: &[(f64, f64, f64, u8)]) -> Vec<Circle> {
        let mut disks: Vec<Circle> = Vec::new();
        for &(x, y, r, kind) in draws {
            let prev = disks.last().copied().unwrap_or(c(x, y, r));
            disks.push(match kind {
                0 => prev,
                1 => c(prev.center.x + 0.1 * r, prev.center.y, prev.radius * 0.5),
                2 => c(prev.center.x + prev.radius + r, prev.center.y, r),
                3 => c(x, y, 0.0),
                4 => c(prev.center.x, prev.center.y, r),
                _ => c(x, y, r),
            });
        }
        disks
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Whatever was asked before, in whatever order, the kept boundary
        /// answers what deriving every exposed piece from nothing answers.
        #[test]
        fn memoised_coverage_equals_stateless(
            draws in proptest::prop::collection::vec(
                (0.0..6.0f64, 0.0..6.0f64, 1.0..4.0f64, 0u8..9),
                1..=8usize,
            ),
            vertices in proptest::prop_oneof![
                proptest::Just(3usize),
                proptest::Just(8usize),
                proptest::Just(24usize),
            ],
            walks in proptest::prop::collection::vec(
                (0usize..8, -1.0..1.0f64, -1.0..1.0f64, 0.05..1.5f64, 0.05..1.0f64),
                6..=9usize,
            ),
        ) {
            let disks = colliding_disks(&draws);
            // Centres in and around the disks; per centre, radii ascending,
            // then descending, then repeated.
            let mut candidates = Vec::new();
            for &(near, dx, dy, r, grow) in &walks {
                let near = disks[near % disks.len()];
                let (x, y) = (near.center.x + dx * near.radius, near.center.y + dy * near.radius);
                let radii = [r, r + grow, r + 2.0 * grow];
                let asked = radii.iter().chain(radii.iter().rev()).chain(&radii[1..2]);
                candidates.extend(asked.map(|&radius| c(x, y, radius)));
            }
            let reference = PolygonRegion::from_circles(&disks, vertices);
            let expected: Vec<bool> =
                candidates.iter().map(|cand| covers_circle_stateless(&reference, cand)).collect();

            let mut forward = reference.clone();
            let got: Vec<bool> = candidates.iter().map(|cand| forward.covers_circle(cand)).collect();
            proptest::prop_assert_eq!(&got, &expected);

            let mut backward = reference.clone();
            let mut got: Vec<bool> =
                candidates.iter().rev().map(|cand| backward.covers_circle(cand)).collect();
            got.reverse();
            proptest::prop_assert_eq!(&got, &expected);
        }
    }

    // ---------- randomized agreement check ----------

    #[test]
    fn monte_carlo_agreement() {
        // Deterministic pseudo-random scenario sweep: the polygon test must
        // never accept a candidate whose disk has a sample point outside
        // every source disk.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let circles: Vec<Circle> = (0..4)
                .map(|_| c(next() * 4.0 - 2.0, next() * 4.0 - 2.0, 0.3 + next()))
                .collect();
            let mut region = PolygonRegion::from_circles(&circles, 24);
            let mut exact = DiskRegion::from_circles(&circles);
            let cand = c(next() * 4.0 - 2.0, next() * 4.0 - 2.0, 0.2 + next());
            let accepted = region.covers_circle(&cand);
            let accepted_exact = exact.covers_circle(&cand);
            if accepted {
                assert!(accepted_exact, "polygon accepted, exact refused: {cand:?}");
            }
            if accepted_exact {
                // Sample the candidate disk; every sample must be in a disk.
                for i in 0..64 {
                    let th = std::f64::consts::TAU * i as f64 / 64.0;
                    for fr in [0.0, 0.5, 0.999] {
                        let p = Point::new(
                            cand.center.x + cand.radius * fr * th.cos(),
                            cand.center.y + cand.radius * fr * th.sin(),
                        );
                        assert!(
                            circles.iter().any(|d| d.center.dist(p) <= d.radius + 1e-9),
                            "exact accepted but sample point {p:?} uncovered"
                        );
                    }
                }
            }
        }
    }
}
