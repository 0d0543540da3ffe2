//! The road-network implementations of `senn-core`'s distance-model seam.
//!
//! Every model here shares one convention, written once in [`Anchored`]:
//! anchor the query point to its nearest modeling-graph node, ask a
//! node-to-node [`RoadCore`] for the exact distance between snap nodes,
//! and add the straight-line legs to/from them (the same convention the
//! IER/INE kNN baselines use). The public names are aliases that pick the
//! core:
//!
//! * [`NetworkDistance`] — A\* with the Euclidean heuristic (the
//!   reference model).
//! * [`ChDistance`] / [`ChBound`] — the contraction-hierarchy oracle of a
//!   prebuilt [`ChIndex`]: the same exact distances (bit for bit where
//!   the shortest path is unique), answered from hub labels instead of a
//!   full graph search; the anchor's label is scattered once and every
//!   candidate reads only its own.
//!
//! Plugged into `senn_core::snnn_query_pruned_with`, these models turn the generic
//! IER driver into Algorithm 2 proper; the Euclidean lower-bound property
//! the driver relies on holds because every edge of the modeling graph is
//! at least as long as the straight line between its endpoints.

use senn_core::{DistanceModel, LowerBoundOracle};
use senn_geom::Point;

use crate::ch::{ChIndex, ChScratch};
use crate::graph::{NodeId, RoadNetwork};
use crate::locator::NodeLocator;
use crate::shortest_path::astar_distance;

/// The node-to-node part of a road model: the exact distance of the
/// length metric between two nodes, everything a model knows beyond the
/// snap-leg convention [`Anchored`] owns.
pub trait RoadCore {
    /// The shortest-path length between two nodes of `net`, or `None`
    /// when no path exists.
    fn core(&mut self, net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64>;
}

/// A road model anchored at a query point: the network, the snap locator,
/// the node the query snapped to, and the [`RoadCore`] that answers
/// between snap nodes. The A\* core searches on the thread's scratch; the
/// CH core owns its query scratch, which [`Anchored::rebase`] keeps
/// across queries.
pub struct Anchored<'a, C> {
    net: &'a RoadNetwork,
    locator: &'a NodeLocator,
    query_node: NodeId,
    core: C,
}

impl<'a, C> Anchored<'a, C> {
    /// Anchors `core` at the network node nearest to `query`; `None` when
    /// the network has no nodes. Every alias's `new` goes through here.
    fn at(net: &'a RoadNetwork, locator: &'a NodeLocator, query: Point, core: C) -> Option<Self> {
        Some(Anchored {
            net,
            locator,
            query_node: locator.nearest(query)?,
            core,
        })
    }

    /// The node the query point is anchored to.
    pub fn query_node(&self) -> NodeId {
        self.query_node
    }

    /// Re-anchors for a new query point, keeping the core — the reuse
    /// hook for batch drivers issuing many SNNN queries. Returns false
    /// (leaving the anchor unchanged) when the locator finds no node.
    pub fn rebase(&mut self, query: Point) -> bool {
        match self.locator.nearest(query) {
            Some(n) => {
                self.query_node = n;
                true
            }
            None => false,
        }
    }
}

impl<C: RoadCore> Anchored<'_, C> {
    /// `|query → snap(query)| + core(snap(query), pn) + |pn → p|` for a
    /// candidate `p` already snapped to `pn`.
    fn snapped(&mut self, query: Point, p: Point, pn: NodeId) -> Option<f64> {
        let core = self.core.core(self.net, self.query_node, pn)?;
        Some(query.dist(self.net.position(self.query_node)) + core + self.net.position(pn).dist(p))
    }
}

impl<C: RoadCore> DistanceModel for Anchored<'_, C> {
    /// The snap-leg sum around the exact core, or `None` when `p` cannot
    /// be snapped or no path exists.
    fn distance(&mut self, query: Point, p: Point) -> Option<f64> {
        let pn = self.locator.nearest(p)?;
        self.snapped(query, p, pn)
    }
}

/// A\* with the Euclidean heuristic.
#[derive(Default)]
pub struct AStar;

impl RoadCore for AStar {
    fn core(&mut self, net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
        astar_distance(net, from, to)
    }
}

/// A [`DistanceModel`] over a road network: A\* from the anchored query
/// node.
pub type NetworkDistance<'a> = Anchored<'a, AStar>;

impl<'a> NetworkDistance<'a> {
    /// Anchors the model at the network node nearest to `query`. Returns
    /// `None` when the network has no nodes.
    pub fn new(net: &'a RoadNetwork, locator: &'a NodeLocator, query: Point) -> Option<Self> {
        Self::at(net, locator, query, AStar)
    }
}

/// The distance query of a prebuilt contraction hierarchy ([`ChIndex`])
/// over an owned, reused [`ChScratch`]: every query from one anchor node
/// scatters that node's label once (the one-to-many query of
/// [`crate::ch`]).
pub struct ChQuery<'a> {
    index: &'a ChIndex,
    scratch: ChScratch,
}

impl RoadCore for ChQuery<'_> {
    fn core(&mut self, _net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
        self.index.distance_with(from, to, &mut self.scratch)
    }
}

/// A [`DistanceModel`] backed by a contraction hierarchy: the same exact
/// distances as [`NetworkDistance`], answered in near-constant time. The
/// CH query unpacks shortcuts and folds the original edge sequence
/// left-to-right, so on a unique shortest path it reproduces Dijkstra's
/// result bit for bit (and A\*'s, which holds there too). Where several
/// shortest paths tie, the fold of another tied path may differ in the
/// last bit: see [`astar_distance`].
pub type ChDistance<'a> = Anchored<'a, ChQuery<'a>>;

/// A [`LowerBoundOracle`] from a contraction hierarchy — the same type as
/// [`ChDistance`]: the CH core is *exact* for the length metric, so its
/// bound is the tightest admissible one the seam can express. It equals
/// [`ChDistance`]'s value bit for bit, and lower-bounds
/// [`NetworkDistance`] exactly where the shortest path is unique (on tied
/// paths, up to the last bit).
pub type ChBound<'a> = ChDistance<'a>;

/// The bound is the larger of two admissible estimates: the free-flow
/// Euclidean distance `|q → p|` (the [`DistanceModel`] contract's
/// `ED <= ND`) and the snap-leg sum around the CH core.
///
/// Degenerate placements stay sound without any clamping: when the query
/// point coincides with a candidate (or sits exactly on a snap node of
/// its own candidate segment) both estimates collapse to the exact snap
/// legs — the core bounds `(n, n)` by 0, never negative — so the bound is
/// `0` when the exact distance is `0` and never exceeds it
/// (regression-tested by the degenerate-placement proptest in
/// `tests/metric_equivalence.rs`). When `p` cannot be snapped the oracle
/// falls back to the Euclidean estimate alone; when the core finds no
/// path it returns `f64::INFINITY` — sound, because the exact models
/// return `None` for the same pair, so the candidate could never pass a
/// replacement test anyway.
impl LowerBoundOracle for ChDistance<'_> {
    fn lower_bound(&mut self, query: Point, p: Point) -> f64 {
        let euclid = query.dist(p);
        let Some(pn) = self.locator.nearest(p) else {
            return euclid;
        };
        let Some(snapped) = self.snapped(query, p, pn) else {
            return f64::INFINITY;
        };
        debug_assert!(snapped >= 0.0, "core distances are never negative");
        euclid.max(snapped)
    }
}

impl<'a> ChDistance<'a> {
    /// Anchors the model (or oracle) at the network node nearest to
    /// `query`. Returns `None` when the network has no nodes.
    pub fn new(
        net: &'a RoadNetwork,
        locator: &'a NodeLocator,
        index: &'a ChIndex,
        query: Point,
    ) -> Option<Self> {
        Self::with_scratch(net, locator, index, query, ChScratch::new())
    }

    /// [`ChDistance::new`] over a scratch kept from an earlier model (see
    /// [`ChDistance::into_scratch`]), so a driver that makes a model per
    /// pass does not regrow its buffers every pass.
    pub fn with_scratch(
        net: &'a RoadNetwork,
        locator: &'a NodeLocator,
        index: &'a ChIndex,
        query: Point,
        scratch: ChScratch,
    ) -> Option<Self> {
        Self::at(net, locator, query, ChQuery { index, scratch })
    }

    /// Gives the model's query scratch back for the next pass.
    pub fn into_scratch(self) -> ChScratch {
        self.core.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, GeneratorConfig};
    use crate::shortest_path::astar_distance;

    #[test]
    fn matches_the_manual_astar_convention() {
        let net = generate_network(&GeneratorConfig::city(2000.0, 3));
        let locator = NodeLocator::new(&net);
        let q = Point::new(700.0, 900.0);
        let mut model = NetworkDistance::new(&net, &locator, q).unwrap();
        let qn = model.query_node();
        for p in [
            Point::new(100.0, 100.0),
            Point::new(1900.0, 1500.0),
            Point::new(1000.0, 1000.0),
        ] {
            let pn = locator.nearest(p).unwrap();
            let want = astar_distance(&net, qn, pn)
                .map(|core| q.dist(net.position(qn)) + core + net.position(pn).dist(p));
            assert_eq!(model.distance(q, p), want);
        }
    }

    #[test]
    fn dominates_euclidean() {
        let net = generate_network(&GeneratorConfig::city(1500.0, 9));
        let locator = NodeLocator::new(&net);
        let q = Point::new(750.0, 750.0);
        let mut model = NetworkDistance::new(&net, &locator, q).unwrap();
        for i in 0..20 {
            let p = Point::new(75.0 * i as f64, 1500.0 - 70.0 * i as f64);
            if let Some(nd) = model.distance(q, p) {
                assert!(nd >= q.dist(p) - 1e-9, "ED lower bound violated at {p:?}");
            }
        }
    }

    #[test]
    fn ch_model_matches_astar_model() {
        let net = generate_network(&GeneratorConfig::city(2000.0, 8));
        let locator = NodeLocator::new(&net);
        let index = ChIndex::build_seeded(&net, 8);
        let q = Point::new(400.0, 1600.0);
        let mut astar = NetworkDistance::new(&net, &locator, q).unwrap();
        let mut ch = ChDistance::new(&net, &locator, &index, q).unwrap();
        assert_eq!(astar.query_node(), ch.query_node());
        for i in 0..25 {
            let p = Point::new(80.0 * i as f64, 70.0 * i as f64);
            match (astar.distance(q, p), ch.distance(q, p)) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "at {p:?}: {a} vs {b}"),
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn ch_bound_is_admissible_and_tighter_than_alt() {
        let net = generate_network(&GeneratorConfig::city(2000.0, 8));
        let locator = NodeLocator::new(&net);
        let alt_index = crate::alt::AltIndex::build(&net, 5);
        let ch_index = ChIndex::build_seeded(&net, 8);
        let q = Point::new(400.0, 1600.0);
        let mut ch_bound = ChBound::new(&net, &locator, &ch_index, q).unwrap();
        let mut astar = NetworkDistance::new(&net, &locator, q).unwrap();
        let mut ch = ChDistance::new(&net, &locator, &ch_index, q).unwrap();
        let qn = astar.query_node();
        for i in 0..25 {
            let p = Point::new(80.0 * i as f64, 70.0 * i as f64);
            let lb = ch_bound.lower_bound(q, p);
            assert!(lb >= q.dist(p) - 1e-9, "never looser than Euclidean");
            // The landmark triangle bound over the same snap legs.
            let pn = locator.nearest(p).unwrap();
            let landmark =
                q.dist(net.position(qn)) + alt_index.lower_bound(qn, pn) + net.position(pn).dist(p);
            assert!(
                lb >= landmark - 1e-9,
                "the exact core can never be looser than a landmark bound"
            );
            for exact in [astar.distance(q, p), ch.distance(q, p)]
                .into_iter()
                .flatten()
            {
                assert!(lb <= exact + 1e-9, "bound {lb} overshot exact {exact}");
            }
            // Against its own paired model, the bound is the exact value.
            if let Some(exact) = ch.distance(q, p) {
                assert_eq!(lb.to_bits(), exact.to_bits(), "at {p:?}");
            }
        }
    }

    #[test]
    fn ch_bound_is_zero_on_its_own_snap_node() {
        let net = generate_network(&GeneratorConfig::city(1500.0, 5));
        let locator = NodeLocator::new(&net);
        let index = ChIndex::build(&net);
        let q = net.position(locator.nearest(Point::new(700.0, 700.0)).unwrap());
        let mut bound = ChBound::new(&net, &locator, &index, q).unwrap();
        assert_eq!(bound.lower_bound(q, q), 0.0);
        let mut model = ChDistance::new(&net, &locator, &index, q).unwrap();
        assert_eq!(model.distance(q, q), Some(0.0));
    }

    /// Under the CH metric a candidate the bound does not prune costs one
    /// CH query, not two. The simulator pairs the CH model with the
    /// free-flow bound, which asks the hierarchy nothing; every CH query
    /// is then one of `begin`'s k or one unpruned candidate's, and the
    /// answers equal the unpruned expansion's.
    #[test]
    fn an_unpruned_ch_candidate_costs_one_ch_query() {
        use senn_core::{
            snnn_query_pruned_with, EuclideanBound, NeverPrune, PeerCacheEntry, QueryContext,
            RTreeServer, SennEngine, SnnnConfig,
        };
        let net = generate_network(&GeneratorConfig::city(3000.0, 12));
        let locator = NodeLocator::new(&net);
        let index = ChIndex::build_seeded(&net, 4);
        let pois: Vec<(u64, Point)> = (0..300u32)
            .map(|i| {
                let raw = Point::new(f64::from(i * 613 % 3000), f64::from(i * 1709 % 3000));
                (u64::from(i), raw)
            })
            .collect();
        let server = RTreeServer::new(pois);
        let engine = SennEngine::default();
        let k = 4;
        let mut unpruned = 0;
        for i in 0..24u32 {
            let q = Point::new(f64::from(i * 457 % 3000), f64::from(i * 811 % 3000));
            let mut model = ChDistance::new(&net, &locator, &index, q).unwrap();
            let out = snnn_query_pruned_with::<PeerCacheEntry, _, _>(
                &engine,
                q,
                k,
                &[],
                &server,
                &mut model,
                &mut EuclideanBound,
                SnnnConfig::default(),
                &mut QueryContext::default(),
            );
            let (lb_evals, saved) = (out.trace.lb_evals, out.trace.model_evals_saved);
            let queries = model.core.scratch.queries;
            assert_eq!(queries, k as u64 + lb_evals - saved, "query {i}");
            unpruned += lb_evals - saved;
            let mut plain = ChDistance::new(&net, &locator, &index, q).unwrap();
            let want = snnn_query_pruned_with::<PeerCacheEntry, _, _>(
                &engine,
                q,
                k,
                &[],
                &server,
                &mut plain,
                &mut NeverPrune,
                SnnnConfig::default(),
                &mut QueryContext::new(),
            );
            let ids = |o: &senn_core::SnnnOutcome| -> Vec<(u64, u64)> {
                o.results
                    .iter()
                    .map(|r| (r.poi.poi_id, r.network_dist.to_bits()))
                    .collect()
            };
            assert_eq!(ids(&out), ids(&want), "query {i}");
            // Without a bound every candidate pays its query.
            assert_eq!(plain.core.scratch.queries, k as u64 + lb_evals);
        }
        assert!(unpruned > 0, "no candidate got past the bound");
    }

    #[test]
    fn rebase_moves_the_anchor() {
        let net = generate_network(&GeneratorConfig::city(1500.0, 5));
        let locator = NodeLocator::new(&net);
        let a = Point::new(100.0, 100.0);
        let b = Point::new(1400.0, 1300.0);
        let mut model = NetworkDistance::new(&net, &locator, a).unwrap();
        let from_a = model.distance(a, b);
        assert!(model.rebase(b));
        assert_eq!(model.query_node(), locator.nearest(b).unwrap());
        let near_b = model.distance(b, b).unwrap();
        // Anchored at b, the distance to b itself is just the two snap
        // legs — far smaller than the cross-map path.
        assert!(near_b <= from_a.unwrap());
    }
}
