//! The verification lemmas (Section 3.2.1).
//!
//! With `δ = Dist(Q, P)` and `r = Dist(P, n_k)` (the peer's cached farthest
//! nearest neighbor):
//!
//! * **Lemma 3.2** — if `Dist(Q, n_i) + δ <= r` then `n_i` is one of the
//!   top-k nearest neighbors of `Q` (a *certain* NN). Geometrically, the
//!   circle around `Q` through `n_i` lies inside the peer's certain-area
//!   disk, inside which the peer's cache enumerates every POI.
//! * **Lemma 3.1** — otherwise nothing is guaranteed: an *uncertain area*
//!   remains where an unknown closer POI may hide.
//! * **Lemma 3.7** — certain NNs verified against a peer receive *exact
//!   ranks*: sorted by distance to `Q`, the i-th verified object is the
//!   i-th nearest neighbor of `Q`.

use senn_cache::CacheEntry;
use senn_geom::Point;

/// Lemma 3.2: can `poi` be verified as a certain nearest neighbor of
/// `query` using a peer whose cached query ran at `peer_location` and whose
/// farthest cached NN lies at `peer_radius`?
#[inline]
pub fn is_certain(query: Point, peer_location: Point, peer_radius: f64, poi: Point) -> bool {
    let delta = query.dist(peer_location);
    query.dist(poi) + delta <= peer_radius
}

/// Lemma 3.2 as a radius: the largest `d` with `d + delta <= radius` in
/// floating point, so a candidate at distance `d'` passes the test against
/// a peer `delta` away with certain-area `radius` iff `d' <= d`. `-∞` when
/// no distance passes.
pub(crate) fn certified_radius(delta: f64, radius: f64) -> f64 {
    if radius == f64::INFINITY && !delta.is_nan() {
        return f64::INFINITY;
    }
    let guess = radius - delta;
    if !guess.is_finite() {
        return f64::NEG_INFINITY;
    }
    // `d + delta` rounds, monotonically in `d`: gallop from the guess, in
    // the order of the floats, to one that passes and one that fails (-∞
    // passes, +∞ fails), then bisect to the last that passes.
    let key = |x: f64| (x.to_bits() as i64) ^ ((x.to_bits() as i64 >> 63) & i64::MAX);
    let float = |k: i64| f64::from_bits((k ^ ((k >> 63) & i64::MAX)) as u64);
    let passes = |k: i64| float(k) + delta <= radius;
    let (floor, ceil) = (key(f64::NEG_INFINITY), key(f64::INFINITY));
    let (mut lo, mut hi, mut step) = (key(guess), key(guess), 1i64);
    while !passes(lo) {
        (hi, lo) = (lo, lo.saturating_sub(step).max(floor));
        step = step.saturating_mul(2);
    }
    while passes(hi) {
        (lo, hi) = (hi, hi.saturating_add(step).min(ceil));
        step = step.saturating_mul(2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    float(lo)
}

/// The verification outcome for one candidate POI from one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certainty {
    /// Guaranteed a top-k NN of the querier (Lemma 3.2).
    Certain,
    /// Not verifiable from this peer alone (Lemma 3.1).
    Uncertain,
}

/// Classifies every neighbor of a peer's cache entry against `query`,
/// yielding `(index, distance to query, certainty)` per cached NN.
pub fn classify_entry(
    query: Point,
    entry: &CacheEntry,
) -> impl Iterator<Item = (usize, f64, Certainty)> + '_ {
    let delta = query.dist(entry.query_location);
    let radius = entry.farthest_distance();
    entry.neighbors.iter().enumerate().map(move |(i, nn)| {
        let d = query.dist(nn.position);
        let c = if d + delta <= radius {
            Certainty::Certain
        } else {
            Certainty::Uncertain
        };
        (i, d, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_cache::CachedNn;

    fn entry(loc: Point, pois: &[(u64, f64, f64)]) -> CacheEntry {
        CacheEntry::new(
            loc,
            pois.iter()
                .map(|&(id, x, y)| CachedNn {
                    poi_id: id,
                    position: Point::new(x, y),
                })
                .collect(),
        )
    }

    #[test]
    fn lemma_3_2_basic() {
        // Peer at origin cached NNs out to distance 10. Querier at (2, 0).
        let peer = Point::ORIGIN;
        let q = Point::new(2.0, 0.0);
        // POI at (3,0): dist to q = 1, delta = 2, 1 + 2 <= 10 → certain.
        assert!(is_certain(q, peer, 10.0, Point::new(3.0, 0.0)));
        // POI at (9,0): dist 7 + 2 = 9 <= 10 → certain (boundary-ish).
        assert!(is_certain(q, peer, 10.0, Point::new(9.0, 0.0)));
        // POI at (11,0): dist 9 + 2 = 11 > 10 → uncertain.
        assert!(!is_certain(q, peer, 10.0, Point::new(11.0, 0.0)));
    }

    #[test]
    fn paper_figure_4_example() {
        // Figure 4: Dist(Q,n2) + delta <= Dist(P1,n3) makes n2 certain.
        let p1 = Point::new(0.0, 0.0);
        let q = Point::new(1.0, 0.0);
        let n2 = Point::new(1.5, 1.0);
        let n3 = Point::new(0.0, 4.0); // farthest cached NN of P1
        let radius = p1.dist(n3);
        assert!(q.dist(n2) + q.dist(p1) <= radius);
        assert!(is_certain(q, p1, radius, n2));
    }

    #[test]
    fn collocated_querier_verifies_everything_cached() {
        // delta = 0: every cached NN except the farthest boundary one is
        // certain; the farthest itself sits exactly at the radius and is
        // certain too (<=).
        let e = entry(
            Point::ORIGIN,
            &[(1, 1.0, 0.0), (2, 0.0, 2.0), (3, 3.0, 0.0)],
        );
        let classes: Vec<_> = classify_entry(Point::ORIGIN, &e).collect();
        assert!(classes.iter().all(|&(_, _, c)| c == Certainty::Certain));
        // Distances are to the querier, ascending because entry is sorted.
        assert_eq!(classes[0].1, 1.0);
        assert_eq!(classes[2].1, 3.0);
    }

    #[test]
    fn far_querier_gets_nothing() {
        let e = entry(Point::ORIGIN, &[(1, 1.0, 0.0), (2, 0.0, 2.0)]);
        let mut classes = classify_entry(Point::new(100.0, 0.0), &e);
        assert!(classes.all(|(_, _, c)| c == Certainty::Uncertain));
    }

    #[test]
    fn empty_entry_classifies_empty() {
        let e = entry(Point::ORIGIN, &[]);
        assert_eq!(classify_entry(Point::new(1.0, 1.0), &e).count(), 0);
    }

    #[test]
    fn certified_radius_is_the_last_distance_that_passes() {
        let mut s = 0x5eed_4ad1u64 | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..20_000 {
            let scale = [1e-3, 1.0, 150.0, 4e4][i % 4];
            let (delta, radius) = (next() * scale, next() * scale);
            let d = certified_radius(delta, radius);
            if d == f64::NEG_INFINITY {
                continue;
            }
            assert!(d + delta <= radius, "{d} + {delta} > {radius}");
            assert!(
                d.next_up() + delta > radius,
                "{delta} {radius}: {d} is not the last"
            );
        }
        assert_eq!(certified_radius(f64::NAN, 1.0), f64::NEG_INFINITY);
        assert_eq!(certified_radius(1.0, f64::NAN), f64::NEG_INFINITY);
        assert_eq!(certified_radius(f64::INFINITY, 1.0), f64::NEG_INFINITY);
        assert_eq!(certified_radius(1.0, f64::INFINITY), f64::INFINITY);
        // The slack of one rounding, from a distance of zero.
        let d = certified_radius(2.0, 2.0);
        assert!(d > 0.0 && d + 2.0 == 2.0 && d.next_up() + 2.0 > 2.0, "{d}");
    }

    #[test]
    fn lemma_3_2_soundness_randomized() {
        // Property: for arbitrary POI sets, a POI passing Lemma 3.2 (w.r.t.
        // an honest peer cache of the k nearest POIs to P) really is among
        // the top-k NNs of Q, where k = cache size.
        let mut s = 0xabcdef12345u64 | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let pois: Vec<Point> = (0..30)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect();
            let p = Point::new(next() * 100.0, next() * 100.0);
            let q = Point::new(next() * 100.0, next() * 100.0);
            let k = 1 + (next() * 8.0) as usize;
            // Honest cache: k nearest POIs to P.
            let mut by_p: Vec<(f64, usize)> = pois
                .iter()
                .enumerate()
                .map(|(i, t)| (p.dist(*t), i))
                .collect();
            by_p.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let cache: Vec<usize> = by_p.iter().take(k).map(|&(_, i)| i).collect();
            let radius = by_p[k.min(by_p.len()) - 1].0;
            // True kNN of Q.
            let mut by_q: Vec<(f64, usize)> = pois
                .iter()
                .enumerate()
                .map(|(i, t)| (q.dist(*t), i))
                .collect();
            by_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let true_knn: Vec<usize> = by_q.iter().take(k).map(|&(_, i)| i).collect();
            for &c in &cache {
                if is_certain(q, p, radius, pois[c]) {
                    assert!(
                        true_knn.contains(&c),
                        "Lemma 3.2 certified a non-NN (poi {c}, k {k})"
                    );
                }
            }
        }
    }
}
