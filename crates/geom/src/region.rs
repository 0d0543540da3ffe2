//! Certain-region representations and their covered radius.
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
//!   lies in the open disk `int(D)`. `∂U` is the sub-segments of polygon
//!   edges not covered by any *other* polygon; the covered radius finds
//!   the ones it needs by 1-D interval subtraction over each edge's window
//!   within reach of the centre, so no merged boundary (the paper's
//!   MapOverlay output) is ever built.
//! * [`DiskRegion`] — an exact test on the original disks via the arc
//!   arrangement: the circles the lemma is stated on, and the region
//!   queries run against.
//!
//! Soundness direction: both tests only return `true` when the closed
//! candidate disk really is covered (`PolygonRegion` additionally
//! under-approximates each disk, so it can answer `false` for circles the
//! true region covers — the paper's approximation has the same property).
//!
//! ## One radius per centre
//!
//! Every candidate of a verification walk is centred on the querier `q`,
//! so the walk asks one question: how far from `q` does the union's
//! exposed boundary begin? `covered_radius(q, cap)` answers it. The disk
//! of radius `d` around `q` is covered iff `d` is at most that radius,
//! and `covers_circle` is this comparison with `cap` the circle's radius.
//!
//! The sliver tolerance is the one the per-circle test had: a circle is
//! refused only when exposed boundary longer than [`EPS`] lies strictly
//! inside it. So the radius an exposed piece (an edge span, or an arc of
//! a disk no other disk covers) contributes is the smallest `d` whose open
//! disk holds a sub-piece [`EPS`] long: the distance from `q` to the
//! farther end of the sub-piece nearest `q` — centred on the foot of `q`
//! when that fits inside the piece, else flush with the piece's nearer
//! end. Distance along an edge, or along a circle from the point nearest
//! `q`, only grows away from the foot, so no other sub-piece does better.
//!
//! The boundary is searched nearest first: a circle (an edge) is never
//! nearer to `q` than `|dist(q, c) − r|` (the segment's distance to `q`),
//! and the search stops at the first whose bound reaches the radius found
//! so far or `cap`. Of each boundary it reaches, only the window nearer
//! than that radius is subtracted, against the disks (polygons) that reach
//! the window; a margin of `10⁻⁶` relative keeps the window's own ends
//! beyond the radius, so they never lower it. Nothing is kept between
//! calls.

use std::cmp::Ordering;

use crate::arcset::ArcSet;
use crate::circle::Circle;
use crate::interval::IntervalSet;
use crate::point::Point;
use crate::polygon::ConvexPolygon;
use crate::rect::Rect;
use crate::segment::Segment;
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
    /// Scratch of [`PolygonRegion::covered_radius`]: the edges by their
    /// distance to the centre, and one edge's exposed spans.
    near: Vec<(f64, Segment, u32)>,
    exposed: IntervalSet,
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
            near: Vec::new(),
            exposed: IntervalSet::new(),
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

    /// True when the closed disk bounded by `circle` is fully covered by the
    /// union (Lemma 3.8's test, on the polygonized region): its radius is
    /// within [`Self::covered_radius`] of its centre.
    pub fn covers_circle(&mut self, circle: &Circle) -> bool {
        circle.radius <= self.covered_radius(circle.center, circle.radius)
    }

    /// `min(R, cap)` for `R` the distance from `q` to the union's exposed
    /// boundary, with the sliver tolerance of the module docs; `-∞` when
    /// `q` is outside the union. A disk of radius `d ≤ cap` around `q` is
    /// covered iff `d` is at most the result. Edges are taken nearest
    /// first, and of each only the part nearer to `q` than the radius
    /// found so far is subtracted against the polygons that reach it.
    pub fn covered_radius(&mut self, q: Point, cap: f64) -> f64 {
        if !self.covers_point(q) {
            return f64::NEG_INFINITY;
        }
        let PolygonRegion {
            polygons,
            bounds,
            near,
            exposed,
        } = self;
        near.clear();
        for (i, poly) in polygons.iter().enumerate() {
            let edges = poly.edges().filter(|seg| seg.len() > EPS);
            near.extend(edges.map(|seg| (seg.closest_point(q).dist(q), seg, i as u32)));
        }
        near.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut radius = cap;
        for &(bound, seg, owner) in near.iter() {
            if bound.partial_cmp(&radius) != Some(Ordering::Less) {
                break;
            }
            // The part of the edge within reach, minus every other
            // polygon that reaches it (module docs).
            let reach = radius + 1e-6 * (1.0 + radius);
            let Some((c0, c1)) = seg.clip_to_open_disk(q, reach) else {
                continue;
            };
            exposed.reset(c0, c1);
            let within = Rect::new(seg.at(c0), seg.at(c1));
            for (j, other) in polygons.iter().enumerate() {
                if exposed.is_empty() {
                    break;
                }
                if j != owner as usize && bounds[j].intersects(within) {
                    if let Some((t0, t1)) = other.clip_segment(&seg) {
                        exposed.subtract(t0, t1);
                    }
                }
            }
            let eps = EPS / seg.len();
            let foot = seg.project(q);
            for &(a, b) in exposed.spans() {
                if b - a > eps {
                    let s = (foot - 0.5 * eps).max(a).min(b - eps);
                    radius = radius.min(q.dist(seg.at(s)).max(q.dist(seg.at(s + eps))));
                }
            }
        }
        radius
    }
}

/// The certain region as an exact union of disks.
#[derive(Clone, Debug)]
pub struct DiskRegion {
    disks: Vec<Circle>,
    /// Scratch of [`DiskRegion::covered_radius`]: the disks by how near
    /// their circles come to the centre, and one circle's exposed arcs.
    near: Vec<(f64, u32)>,
    exposed: ArcSet,
}

impl DiskRegion {
    /// Builds the region. Duplicate disks are dropped (they would mutually
    /// erase each other's boundary in the arrangement walk), and so are
    /// disks that bound nothing: zero or non-finite radius, non-finite
    /// centre.
    pub fn from_circles(circles: &[Circle]) -> Self {
        DiskRegion {
            disks: source_disks(circles),
            near: Vec::new(),
            exposed: ArcSet::new(),
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
    /// is stated on): its radius is within [`Self::covered_radius`] of its
    /// centre.
    pub fn covers_circle(&mut self, circle: &Circle) -> bool {
        circle.radius <= self.covered_radius(circle.center, circle.radius)
    }

    /// `min(R, cap)` for `R` the distance from `q` to the union's exposed
    /// boundary, with the sliver tolerance of the module docs; `-∞` when
    /// `q` is outside the union. A disk of radius `d ≤ cap` around `q` is
    /// covered iff `d` is at most the result.
    ///
    /// A closed disk `D` is covered by the closed union `U` iff
    /// `center(D) ∈ U` and `∂U ∩ int(D) = ∅`. Every point of `∂U` lies on
    /// some disk's circle and in no other disk, so per circle the arcs no
    /// other disk covers are the candidates. Circles are taken nearest
    /// first, and of each only the part nearer to `q` than the radius
    /// found so far is subtracted against the disks that reach it.
    pub fn covered_radius(&mut self, q: Point, cap: f64) -> f64 {
        if !self.covers_point(q) {
            return f64::NEG_INFINITY;
        }
        let DiskRegion {
            disks,
            near,
            exposed,
        } = self;
        near.clear();
        let bound = |d: &Circle| (q.dist(d.center) - d.radius).abs();
        near.extend(disks.iter().zip(0..).map(|(d, i)| (bound(d), i)));
        near.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut radius = cap;
        for &(bound, i) in near.iter() {
            if bound.partial_cmp(&radius) != Some(Ordering::Less) {
                break;
            }
            let reach = radius + 1e-6 * (1.0 + radius);
            exposed_arcs(disks, i as usize, q, reach, exposed);
            let disk = &disks[i as usize];
            for arc in exposed.arcs() {
                radius = radius.min(arc_radius(disk, q, arc));
            }
        }
        radius
    }
}

/// The radius exposed arc `(lo, hi)` of `∂disk` (angles, counter-clockwise;
/// `hi < lo` for an arc through 0) contributes at centre `q` (module
/// docs): `∞` when the arc is no longer than the tolerance.
fn arc_radius(disk: &Circle, q: Point, (lo, hi): (f64, f64)) -> f64 {
    use std::f64::consts::{PI, TAU};
    let eps = EPS / disk.radius;
    let width = if hi < lo {
        (hi - lo).rem_euclid(TAU)
    } else {
        hi - lo
    };
    if width <= eps {
        return f64::INFINITY;
    }
    // Angles on ∂disk, measured from the point nearest q.
    let foot = (q - disk.center).angle();
    let off = |theta: f64| {
        let x = (theta - foot).rem_euclid(TAU);
        x.min(TAU - x)
    };
    // The widest angle from the foot on the sub-arc [s, s + eps].
    let reach = |s: f64| {
        if (foot + PI - s).rem_euclid(TAU) <= eps {
            PI
        } else {
            off(s).max(off(s + eps))
        }
    };
    let at = (foot - lo).rem_euclid(TAU);
    let alpha = if width >= TAU || (0.5 * eps <= at && at <= width - 0.5 * eps) {
        0.5 * eps
    } else {
        reach(lo).min(reach(hi - eps))
    };
    // Law of cosines, in the form that stays accurate near the foot.
    let (delta, r) = (q.dist(disk.center), disk.radius);
    let half = (0.5 * alpha).sin();
    ((delta - r) * (delta - r) + 4.0 * delta * r * half * half).sqrt()
}

/// The arcs of `∂disks[owner]` closer to `q` than `reach` that no other
/// disk covers, left in `arcs`. Disks `reach` or farther from `q` cover
/// none of them and are passed over.
fn exposed_arcs(disks: &[Circle], owner: usize, q: Point, reach: f64, arcs: &mut ArcSet) {
    use std::f64::consts::PI;
    let di = &disks[owner];
    let (delta, r) = (q.dist(di.center), di.radius);
    arcs.reset_full();
    if delta + r >= reach {
        // Only the window of ∂di nearer than `reach`: what remains once
        // the arc opposite it is taken out.
        let cos_a = (delta * delta + r * r - reach * reach) / (2.0 * delta * r);
        if delta <= f64::EPSILON || cos_a >= 1.0 {
            arcs.subtract_arc(0.0, PI + 1.0);
            return;
        }
        let half = cos_a.clamp(-1.0, 1.0).acos();
        arcs.subtract_arc((q - di.center).angle() + PI, PI - half);
    }
    for (j, dj) in disks.iter().enumerate() {
        if j == owner || q.dist(dj.center) >= reach + dj.radius {
            continue;
        }
        subtract_coverage(arcs, di, dj);
        if arcs.is_empty() {
            break;
        }
    }
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
            exposed_arcs(&disks, 0, Point::ORIGIN, f64::INFINITY, &mut exposed);
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

    // ---------- the covered radius ----------

    /// [`PolygonRegion::covers_circle`] as a per-edge test, deriving every
    /// exposed piece inside the circle from nothing: the reference the
    /// covered radius is tested against.
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

    #[test]
    fn covered_radius_of_a_lens() {
        // Two unit disks overlapping: from (0.5, 0) the union's boundary
        // begins at the lens vertices, sqrt(3)/2 away.
        let mut region = DiskRegion::from_circles(&[c(0.0, 0.0, 1.0), c(1.0, 0.0, 1.0)]);
        let radius = region.covered_radius(Point::new(0.5, 0.0), f64::INFINITY);
        assert!((radius - 0.75f64.sqrt()).abs() < 1e-9, "{radius}");
        // Capped below that, the cap comes back; outside, -∞.
        assert_eq!(region.covered_radius(Point::new(0.5, 0.0), 0.5), 0.5);
        assert_eq!(
            region.covered_radius(Point::new(5.0, 0.0), f64::INFINITY),
            f64::NEG_INFINITY
        );
        // A single disk: the distance to its circle.
        let mut single = DiskRegion::from_circles(&[c(0.0, 0.0, 2.0)]);
        assert_eq!(
            single.covered_radius(Point::new(0.5, 0.0), f64::INFINITY),
            1.5
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// The covered radius is where the per-edge test turns: it covers
        /// the circle a micrometre inside the radius and refuses the one a
        /// micrometre outside; a cap below the radius comes back as is.
        #[test]
        fn covered_radius_is_where_the_stateless_test_turns(
            draws in proptest::prop::collection::vec(
                (0.0..6.0f64, 0.0..6.0f64, 1.0..4.0f64, 0u8..9),
                1..=8usize,
            ),
            vertices in proptest::prop_oneof![
                proptest::Just(3usize),
                proptest::Just(8usize),
                proptest::Just(24usize),
            ],
            centres in proptest::prop::collection::vec(
                (0usize..8, -1.0..1.0f64, -1.0..1.0f64, 0.0..1.0f64),
                6..=9usize,
            ),
        ) {
            let disks = colliding_disks(&draws);
            let mut region = PolygonRegion::from_circles(&disks, vertices);
            for &(near, dx, dy, cut) in &centres {
                let near = disks[near % disks.len()];
                let q = Point::new(near.center.x + dx * near.radius, near.center.y + dy * near.radius);
                let radius = region.covered_radius(q, f64::INFINITY);
                let at = |r: f64| covers_circle_stateless(&region, &Circle::new(q, r));
                if radius == f64::NEG_INFINITY {
                    proptest::prop_assert!(!at(0.0));
                    continue;
                }
                proptest::prop_assert!(radius.is_finite() && radius >= 0.0, "{}", radius);
                proptest::prop_assert!(at((radius - 1e-6).max(0.0)), "refused inside {}", radius);
                proptest::prop_assert!(!at(radius + 1e-6), "covered outside {}", radius);
                let cap = cut * 2.0 * radius;
                proptest::prop_assert_eq!(region.covered_radius(q, cap), radius.min(cap));
            }
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
