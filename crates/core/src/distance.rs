//! The distance-model seam between SENN and SNNN.
//!
//! SENN's verification lemmas are intrinsically Euclidean — they reason
//! about circles around cached query locations — so the four pipeline
//! stages always rank candidates by Euclidean distance. What varies
//! between Algorithm 1 and Algorithm 2 is the *target metric* the caller
//! actually wants answers under: SENN wants the Euclidean ranking itself,
//! SNNN wants network distances and uses the Euclidean ranking only as a
//! lower-bounding expansion order (IER). [`DistanceModel`] abstracts that
//! target metric: plugging in [`Euclidean`] makes the SNNN driver collapse
//! to plain SENN, plugging in a road-network model (see
//! `senn_network::NetworkDistance`) yields Algorithm 2.

use senn_geom::Point;

/// A target distance metric for the staged query pipeline.
///
/// Implementations take `&mut self` so they can own reusable search
/// scratch (e.g. a Dijkstra state between A\* calls).
///
/// # Contract
///
/// The model must dominate the Euclidean distance:
/// `distance(query, p) >= query.dist(p)` whenever it returns `Some` —
/// the Euclidean lower-bound property (`ED <= ND`) that makes IER's
/// incremental expansion sound. Every physical road network satisfies it.
pub trait DistanceModel {
    /// Distance from `query` to a POI at `p` under the model's metric, or
    /// `None` when `p` is unreachable (treated as infinitely far).
    fn distance(&mut self, query: Point, p: Point) -> Option<f64>;
}

/// The identity model: the target metric *is* the Euclidean distance.
///
/// Under this model the SNNN driver degenerates to SENN — the first
/// Euclidean round is already the answer and the range round confirms
/// the bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct Euclidean;

impl DistanceModel for Euclidean {
    fn distance(&mut self, query: Point, p: Point) -> Option<f64> {
        Some(query.dist(p))
    }
}

/// A cheap admissible lower bound on a [`DistanceModel`]'s metric.
///
/// SNNN expansion consults the oracle before paying for an exact model
/// evaluation: when the bound already exceeds the current k-th network
/// distance the candidate cannot enter the result set, so the exact call
/// is skipped (see `SnnnExpansion::offer_pruned`).
///
/// # Contract
///
/// `lower_bound(query, p) <= model.distance(query, p)` for every
/// reachable `p` under the model the oracle is paired with. An oracle
/// may be arbitrarily loose — [`NeverPrune`] returns `-inf` and disables
/// pruning entirely — but must never overestimate, or pruning would drop
/// true neighbors.
pub trait LowerBoundOracle {
    /// A lower bound on the paired model's `distance(query, p)`.
    /// Unreachable `p` may return any finite value (the exact evaluation,
    /// if reached, still reports unreachability).
    fn lower_bound(&mut self, query: Point, p: Point) -> f64;
}

/// The free-flow Euclidean bound: admissible for every [`DistanceModel`]
/// by the trait's `ED <= ND` contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct EuclideanBound;

impl LowerBoundOracle for EuclideanBound {
    fn lower_bound(&mut self, query: Point, p: Point) -> f64 {
        query.dist(p)
    }
}

/// The vacuous oracle: `-inf` bounds never exceed anything, so pruned
/// expansion degenerates to the unpruned path (every candidate is
/// evaluated exactly). Useful as the experimental control.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverPrune;

impl LowerBoundOracle for NeverPrune {
    fn lower_bound(&mut self, _query: Point, _p: Point) -> f64 {
        f64::NEG_INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_the_identity_model() {
        let mut m = Euclidean;
        let q = Point::new(1.0, 2.0);
        let p = Point::new(4.0, 6.0);
        assert_eq!(m.distance(q, p), Some(5.0));
        assert_eq!(m.distance(q, q), Some(0.0));
    }

    #[test]
    fn euclidean_bound_is_tight_for_the_euclidean_model() {
        let mut m = Euclidean;
        let mut b = EuclideanBound;
        let q = Point::new(1.0, 2.0);
        for p in [Point::new(4.0, 6.0), Point::new(-3.0, 0.5), q] {
            let exact = m.distance(q, p).unwrap();
            let lb = b.lower_bound(q, p);
            assert!(lb <= exact);
            assert_eq!(lb, exact, "for Euclidean the free-flow bound is exact");
        }
    }

    #[test]
    fn never_prune_bounds_below_everything() {
        let mut b = NeverPrune;
        let q = Point::new(0.0, 0.0);
        assert_eq!(b.lower_bound(q, q), f64::NEG_INFINITY);
        assert!(b.lower_bound(q, Point::new(9.0, 9.0)) < 0.0);
    }
}
