//! Algorithm 2: the Sharing-based Network distance Nearest Neighbor
//! (SNNN) query (Section 3.4).
//!
//! SNNN extends IER (Incremental Euclidean Restriction): run SENN for the
//! `k` Euclidean NNs, compute their target-metric distances with the
//! [`DistanceModel`], and rank every further POI within Euclidean distance
//! `d_k`, the current k-th target distance — sound because `ED <= ND`
//! (the Euclidean lower-bound property of the [`DistanceModel`] contract).
//!
//! The paper pulls those POIs one Euclidean NN per round. `d_k` only
//! falls, so they are exactly the POIs within `d_k` of the first ranking,
//! and one **range round** fetches them: a read of the initial round's
//! [`Certificate`] (what the peers proved, [`crate::pipeline`]) offering
//! its certified rows nearest first, then — only when the certificate
//! cannot vouch for the whole disk of radius `d_k` — one server request
//! for the rest (EINN bounds: the certified rows' reach below, `d_k`
//! above). A server-resolved initial round reads the certificate of its
//! answer ([`Certificate::from_answer`]): the `k` POIs certified, no disk
//! held, so its request starts at the `k`-th Euclidean distance `D_k`.
//! The candidates, their order, the `d_k` updates and the stop test are
//! the incremental loop's, so the answer is too
//! (`tests/expansion_pruning.rs` holds that loop as the reference). The
//! [`crate::distance::Euclidean`] model collapses the driver to plain
//! SENN.
//!
//! [`snnn_query_pruned_with`] runs it all on a caller-owned
//! [`QueryContext`]; [`crate::distance::NeverPrune`] is the oracle that
//! prunes nothing:
//!
//! ```
//! use senn_core::{
//!     snnn_query_pruned_with, Euclidean, NeverPrune, PeerCacheEntry, QueryContext, RTreeServer,
//!     SennEngine, SnnnConfig,
//! };
//! use senn_geom::Point;
//!
//! let server = RTreeServer::new((0..5).map(|i| (i, Point::new(i as f64, 0.0))));
//! let mut ctx = QueryContext::new();
//! let out = snnn_query_pruned_with::<PeerCacheEntry, _, _>(
//!     &SennEngine::default(),
//!     Point::new(2.2, 0.0),
//!     2,
//!     &[],
//!     &server,
//!     &mut Euclidean,
//!     &mut NeverPrune,
//!     SnnnConfig::default(),
//!     &mut ctx,
//! );
//! assert_eq!(out.results[0].poi.poi_id, 2);
//! ```

use std::borrow::Borrow;
use std::time::Instant;

use senn_cache::{CacheEntry, CachedNn};
use senn_geom::Point;
use senn_rtree::SearchBounds;

use crate::distance::{DistanceModel, LowerBoundOracle};
use crate::pipeline::{residual_request, Certificate, QueryContext};
use crate::senn::{SennEngine, SennOutcome};
use crate::server::ServerResponse;
use crate::service::{ReplyStatus, ServerRequest, SpatialService};
use crate::trace::{QueryTrace, Resolution, Stage};
use crate::transport::RequestId;

/// Configuration of the SNNN search.
#[derive(Clone, Copy, Debug)]
pub struct SnnnConfig {
    /// Safety cap on the candidates ranked beyond the first `k` Euclidean
    /// NNs, and on the range request (whose radius is infinite while a POI
    /// of the first ranking is unreachable). A cap that ends the expansion
    /// unconfirmed sets [`QueryTrace::cap_hit`]: the results may be inexact.
    pub max_expansion: usize,
}

impl Default for SnnnConfig {
    fn default() -> Self {
        SnnnConfig { max_expansion: 256 }
    }
}

/// One SNNN result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnnnNeighbor {
    /// The POI.
    pub poi: CachedNn,
    /// Network (target-metric) distance from the query point.
    pub network_dist: f64,
    /// Euclidean distance from the query point.
    pub euclid_dist: f64,
}

/// The outcome of an SNNN query.
#[derive(Clone, Debug)]
pub struct SnnnOutcome {
    /// The `k` network-nearest POIs, ascending by network distance.
    pub results: Vec<SnnnNeighbor>,
    /// The unified trace of the SENN round and the range round, with the
    /// expansion's [`QueryTrace::cap_hit`] flag and pruning counters.
    pub trace: QueryTrace,
}

impl SnnnOutcome {
    /// Rounds performed: the SENN round, plus the range round if one ran.
    pub fn senn_calls(&self) -> usize {
        self.trace.senn_rounds()
    }
}

/// The ranking/termination state machine of one SNNN expansion, shared
/// by [`snnn_query_pruned_with`] and batch drivers (the simulator's
/// network mode) that serve the range request through their own channel.
///
/// Protocol: [`SnnnExpansion::begin`]; while [`SnnnExpansion::needs_round`],
/// [`SnnnExpansion::read_range`] on the initial round's [`Certificate`];
/// if that leaves the range open, [`SnnnExpansion::complete_range`] with
/// the reply to [`SnnnExpansion::range_request`] (or
/// [`SnnnExpansion::abort`]).
#[derive(Clone, Debug)]
pub struct SnnnExpansion {
    query: Point,
    k: usize,
    max_expansion: usize,
    results: Vec<SnnnNeighbor>,
    /// Entries of the Euclidean ranking offered so far, the first `k`
    /// included.
    offered: usize,
    /// True once no further candidate can change the results.
    finished: bool,
    /// True when the distance bound confirmed the answer (not a cap/abort).
    confirmed: bool,
    lb_evals: u64,
    model_evals_saved: u64,
}

impl SnnnExpansion {
    /// Ranks the initial Euclidean `k`-NN round under the target metric;
    /// at most `max_expansion` further candidates may follow. With fewer
    /// than `k` POIs in the world the expansion is already finished and
    /// confirmed; with a zero cap, finished unconfirmed.
    pub fn begin<M: DistanceModel>(
        query: Point,
        k: usize,
        initial: &[crate::heap::HeapEntry],
        max_expansion: usize,
        model: &mut M,
    ) -> Self {
        let mut results: Vec<SnnnNeighbor> = initial
            .iter()
            .map(|e| SnnnNeighbor {
                poi: e.poi,
                network_dist: model
                    .distance(query, e.poi.position)
                    .unwrap_or(f64::INFINITY),
                euclid_dist: e.dist,
            })
            .collect();
        results.sort_by(|a, b| a.network_dist.total_cmp(&b.network_dist));
        let exhausted = results.len() < k;
        SnnnExpansion {
            query,
            k,
            max_expansion,
            results,
            offered: 0,
            finished: exhausted || max_expansion == 0,
            confirmed: exhausted,
            lb_evals: 0,
            model_evals_saved: 0,
        }
    }

    /// Lower-bound oracle consultations performed so far. Identical
    /// across oracles — the candidate sequence never depends on the
    /// oracle, only on the (oracle-invariant) result set.
    pub fn lb_evals(&self) -> u64 {
        self.lb_evals
    }

    /// Exact model evaluations the oracle's bounds made unnecessary.
    pub fn model_evals_saved(&self) -> u64 {
        self.model_evals_saved
    }

    /// True while a further candidate could still change the answer.
    pub fn needs_round(&self) -> bool {
        !self.finished
    }

    /// The current k-th network distance `d_k`: the range's radius.
    fn radius(&self) -> f64 {
        self.results[self.k - 1].network_dist
    }

    /// Offers the next entry of the world's Euclidean ranking, nearest
    /// first (the first `k` are the initial round's, passed over). An entry
    /// beyond `d_k` finishes the expansion confirmed; any other is a
    /// candidate, and the `max_expansion`-th one ends it unconfirmed.
    ///
    /// A candidate whose lower bound reaches `d_k` skips the exact model
    /// (`nd >= lb` could never pass `nd < d_k`), so pruned and unpruned
    /// ([`NeverPrune`]) expansion differ only in their counters (proven in
    /// `tests/expansion_pruning.rs`).
    fn offer_pruned<M: DistanceModel, O: LowerBoundOracle>(
        &mut self,
        poi: CachedNn,
        dist: f64,
        model: &mut M,
        oracle: &mut O,
    ) {
        if self.finished {
            return;
        }
        self.offered += 1;
        if self.offered <= self.k {
            return;
        }
        let s_bound = self.radius();
        if dist > s_bound {
            // The Euclidean lower bound exceeds the k-th target distance.
            self.settle();
            return;
        }
        self.finished = self.offered - self.k >= self.max_expansion;
        // A POI already ranked (a tie the initial round ordered
        // differently) is not a candidate again.
        if self.results.iter().any(|r| r.poi.poi_id == poi.poi_id) {
            return;
        }
        self.lb_evals += 1;
        if oracle.lower_bound(self.query, poi.position) >= s_bound {
            self.model_evals_saved += 1;
            return;
        }
        let nd = model
            .distance(self.query, poi.position)
            .unwrap_or(f64::INFINITY);
        if nd < s_bound {
            self.results[self.k - 1] = SnnnNeighbor {
                poi,
                network_dist: nd,
                euclid_dist: dist,
            };
            self.results
                .sort_by(|a, b| a.network_dist.total_cmp(&b.network_dist));
        }
    }

    /// Ends the expansion confirmed — no POI left unoffered lies within
    /// `d_k` — unless it has already ended.
    fn settle(&mut self) {
        self.confirmed |= !self.finished;
        self.finished = true;
    }

    /// The range round's read of `cert`, what the initial round's peers
    /// (or server) proved: offers the rows it certifies while the
    /// expansion needs them, and settles the round if the certificate
    /// holds every POI within `d_k`. Records a [`Stage::MultiVerify`]
    /// stage in `trace`, and the round as [`Resolution::MultiPeer`] when
    /// the peers vouched for the whole range (else
    /// [`Resolution::Unresolved`]). Returns false when the rest of the
    /// range must come from the server.
    pub fn read_range<M: DistanceModel, O: LowerBoundOracle>(
        &mut self,
        cert: &mut Certificate,
        trace: &mut QueryTrace,
        model: &mut M,
        oracle: &mut O,
    ) -> bool {
        let started = Instant::now();
        let mut row = 0;
        while !self.finished {
            let Some(c) = cert.certain_row(row) else {
                if cert.holds_disk(self.radius()) {
                    self.settle();
                }
                break;
            };
            self.offer_pruned(c.poi, c.dist, model, oracle);
            row += 1;
        }
        trace.record_stage(Stage::MultiVerify, started.elapsed().as_nanos() as u64);
        trace.resolutions.push(if self.finished {
            Resolution::MultiPeer
        } else {
            Resolution::Unresolved
        });
        self.finished
    }

    /// The server request of a range [`SnnnExpansion::read_range`] left
    /// open on `cert`: the residual request of a `k + max_expansion` query
    /// whose certain prefix is the certificate's certified rows, bounded
    /// by their reach below and `d_k` above.
    pub fn range_request(&self, id: impl Into<RequestId>, cert: &Certificate) -> ServerRequest {
        let certified = cert.certified();
        let radius = self.radius();
        let bounds = SearchBounds {
            upper: (radius < f64::INFINITY).then_some(radius),
            lower: certified.last().map(|c| c.dist),
        };
        let count = self.k.saturating_add(self.max_expansion);
        let dists = certified.iter().map(|c| c.dist);
        residual_request(dists, id, self.query, count, bounds, 0)
    }

    /// Completes the range round with the `response` to
    /// [`SnnnExpansion::range_request`], recording the server stage in
    /// `trace`: offers the POIs `cert` had not certified and settles the
    /// expansion (the response holds the whole range, or enough of it to
    /// reach the cap).
    pub fn complete_range<M: DistanceModel, O: LowerBoundOracle>(
        &mut self,
        cert: &Certificate,
        trace: &mut QueryTrace,
        response: ServerResponse,
        model: &mut M,
        oracle: &mut O,
    ) {
        let started = Instant::now();
        for &(poi, dist) in &response.pois {
            if cert.certified().iter().all(|c| c.poi.poi_id != poi.poi_id) {
                self.offer_pruned(poi, dist, model, oracle);
            }
        }
        self.settle();
        trace.record_server(response.node_accesses, started.elapsed().as_nanos() as u64);
    }

    /// Ends the expansion unconfirmed ([`SnnnExpansion::cap_hit`] stays
    /// true): for drivers whose range request failed.
    pub fn abort(&mut self) {
        self.finished = true;
    }

    /// True when the expansion ended (or would end, if the driver stops
    /// here) without the distance bound confirming the answer.
    pub fn cap_hit(&self) -> bool {
        !self.confirmed
    }

    /// The current ranking, ascending by target-metric distance.
    pub fn results(&self) -> &[SnnnNeighbor] {
        &self.results
    }

    /// Consumes the expansion into its final ranking.
    pub fn into_results(self) -> Vec<SnnnNeighbor> {
        self.results
    }
}

/// Runs Algorithm 2 with bound-driven pruning against a caller-owned
/// [`QueryContext`] (reused across queries, it keeps every buffer): the
/// SENN round, then one range round on its certificate — the walk's in
/// `ctx`, or a server-resolved round's answer — with at most one server
/// request: unanswered, it leaves the ranking unconfirmed.
///
/// `model` supplies the target metric; it must respect the Euclidean
/// lower-bound property (see [`DistanceModel`]). `oracle` must lower-bound
/// `model` (see [`LowerBoundOracle`]); candidates whose bound already
/// exceeds the current k-th network distance are never evaluated exactly.
/// The outcome's trace carries the pruning counters
/// ([`QueryTrace::lb_evals`] / [`QueryTrace::model_evals_saved`]).
#[allow(clippy::too_many_arguments)]
pub fn snnn_query_pruned_with<B: Borrow<CacheEntry>, M: DistanceModel, O: LowerBoundOracle>(
    engine: &SennEngine,
    query: Point,
    k: usize,
    peers: &[B],
    server: &dyn SpatialService,
    model: &mut M,
    oracle: &mut O,
    config: SnnnConfig,
    ctx: &mut QueryContext,
) -> SnnnOutcome {
    let SennOutcome {
        results, mut trace, ..
    } = engine.query_with(query, k, peers, server, ctx);
    let mut expansion = SnnnExpansion::begin(query, k, &results, config.max_expansion, model);
    if expansion.needs_round() {
        let mut answered;
        let cert = if trace.resolution() == Resolution::Server {
            answered = Certificate::from_answer(query, &results);
            &mut answered
        } else {
            &mut ctx.cert
        };
        if !expansion.read_range(cert, &mut trace, model, oracle) {
            let request = expansion.range_request(0u64, cert);
            let reply = server.serve(&request);
            match reply.filter(|r| r.status == ReplyStatus::Ok) {
                Some(r) => expansion.complete_range(cert, &mut trace, r.response, model, oracle),
                None => expansion.abort(),
            }
        }
    }
    trace.cap_hit = expansion.cap_hit();
    trace.lb_evals = expansion.lb_evals();
    trace.model_evals_saved = expansion.model_evals_saved();
    SnnnOutcome {
        results: expansion.into_results(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, NeverPrune};
    use crate::senn::SennConfig;
    use crate::server::RTreeServer;

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Manhattan distance is a valid target metric: it dominates the
    /// Euclidean distance and models a dense grid of streets.
    struct Manhattan;
    impl DistanceModel for Manhattan {
        fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
            Some((p.x - q.x).abs() + (p.y - q.y).abs())
        }
    }

    /// Algorithm 2 on a fresh context, every candidate evaluated exactly.
    fn snnn<M: DistanceModel>(
        engine: &SennEngine,
        query: Point,
        k: usize,
        peers: &[CacheEntry],
        server: &dyn SpatialService,
        model: &mut M,
        config: SnnnConfig,
    ) -> SnnnOutcome {
        let (oracle, ctx) = (&mut NeverPrune, &mut QueryContext::new());
        snnn_query_pruned_with(engine, query, k, peers, server, model, oracle, config, ctx)
    }

    fn brute_network_knn(pois: &[Point], q: Point, k: usize) -> Vec<(f64, usize)> {
        let mut nd = Manhattan;
        let mut v: Vec<(f64, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, p)| (nd.distance(q, *p).unwrap(), i))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn snnn_matches_brute_force_manhattan() {
        let mut rng = Rng(0x5151 | 1);
        for trial in 0..30 {
            let n = 15 + (rng.next() * 80.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let q = Point::new(rng.next() * 100.0, rng.next() * 100.0);
            let k = 1 + (rng.next() * 6.0) as usize;
            let engine = SennEngine::default();
            let out = snnn(
                &engine,
                q,
                k,
                &[],
                &server,
                &mut Manhattan,
                SnnnConfig::default(),
            );
            let want = brute_network_knn(&pois, q, k);
            assert_eq!(out.results.len(), k.min(n), "trial {trial}");
            assert!(!out.trace.cap_hit, "trial {trial}: expansion truncated");
            for (r, (wd, _)) in out.results.iter().zip(&want) {
                assert!(
                    (r.network_dist - wd).abs() < 1e-9,
                    "trial {trial}: got {} want {}",
                    r.network_dist,
                    wd
                );
            }
        }
    }

    /// The candidates Algorithm 2's incremental loop offers: round `i` a
    /// whole SENN query at `k + i` on a fresh context, its `(k + i)`-th entry
    /// offered to the same state machine — the oracle of the range round's
    /// candidate stream.
    #[allow(clippy::too_many_arguments)]
    fn fresh_per_round_reference<M: DistanceModel, O: LowerBoundOracle>(
        engine: &SennEngine,
        query: Point,
        k: usize,
        peers: &[CacheEntry],
        server: &dyn SpatialService,
        model: &mut M,
        oracle: &mut O,
        config: SnnnConfig,
    ) -> SnnnExpansion {
        let initial = engine.query_with(query, k, peers, server, &mut QueryContext::new());
        let mut expansion =
            SnnnExpansion::begin(query, k, &initial.results, config.max_expansion, model);
        for e in &initial.results {
            expansion.offer_pruned(e.poi, e.dist, model, oracle);
        }
        for kk in k + 1.. {
            if !expansion.needs_round() {
                break;
            }
            match engine
                .query_with(query, kk, peers, server, &mut QueryContext::new())
                .results
                .get(kk - 1)
            {
                Some(e) => expansion.offer_pruned(e.poi, e.dist, model, oracle),
                None => expansion.settle(),
            }
        }
        expansion
    }

    #[test]
    fn shared_walk_equals_fresh_rounds() {
        // Peers of every quality around the query, so range rounds settle
        // on the walk or go to the server, under both a tight and the
        // default cap and with over-fetching on and off.
        let mut rng = Rng(0x5a1ed | 1);
        let mut peer_settled = 0;
        for trial in 0..120 {
            let n = 15 + (rng.next() * 80.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let q = Point::new(20.0 + rng.next() * 60.0, 20.0 + rng.next() * 60.0);
            let k = 1 + (rng.next() * 5.0) as usize;
            let peers: Vec<CacheEntry> = (0..(rng.next() * 6.0) as usize)
                .map(|_| {
                    let loc = Point::new(
                        q.x + (rng.next() - 0.5) * 12.0,
                        q.y + (rng.next() - 0.5) * 12.0,
                    );
                    let mut by_d: Vec<(f64, usize)> = pois
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (loc.dist(*p), i))
                        .collect();
                    by_d.sort_by(|a, b| a.0.total_cmp(&b.0));
                    by_d.truncate((rng.next() * 25.0) as usize);
                    CacheEntry::from_sorted(
                        loc,
                        by_d.iter().map(|&(_, i)| (i as u64, pois[i])).collect(),
                    )
                })
                .collect();
            let engine = SennEngine::new(SennConfig {
                server_fetch: (trial % 3) * 6,
                ..Default::default()
            });
            let config = SnnnConfig {
                max_expansion: if trial % 4 == 0 { 2 } else { 256 },
            };
            let got = snnn_query_pruned_with(
                &engine,
                q,
                k,
                &peers,
                &server,
                &mut Manhattan,
                &mut crate::distance::EuclideanBound,
                config,
                &mut QueryContext::new(),
            );
            let want = fresh_per_round_reference(
                &engine,
                q,
                k,
                &peers,
                &server,
                &mut Manhattan,
                &mut crate::distance::EuclideanBound,
                config,
            );
            assert_eq!(got.results, want.results(), "trial {trial}");
            assert_eq!(got.trace.cap_hit, want.cap_hit(), "trial {trial}");
            assert_eq!(got.trace.lb_evals, want.lb_evals(), "trial {trial}");
            // One walk, one range round, at most one request beyond the
            // SENN round's.
            let t = &got.trace;
            assert!(
                t.stage_calls[0] == 1 && t.senn_rounds() <= 2,
                "trial {trial}"
            );
            assert!(t.stage_calls[Stage::ServerResidual.index()] <= 2);
            peer_settled += (t.resolutions.get(1) == Some(&Resolution::MultiPeer)) as usize;
        }
        assert!(
            peer_settled > 20,
            "the worlds must settle range rounds on the walk ({peer_settled})"
        );
    }

    /// A service that logs every request it answers with its reply.
    struct Recording<'a> {
        inner: &'a RTreeServer,
        log: std::cell::RefCell<Vec<(ServerRequest, crate::service::ServerReply)>>,
    }

    impl SpatialService for Recording<'_> {
        fn serve(&self, request: &ServerRequest) -> Option<crate::service::ServerReply> {
            let reply = self.inner.serve(request)?;
            self.log.borrow_mut().push((*request, reply.clone()));
            Some(reply)
        }

        fn poi_count(&self) -> usize {
            self.inner.poi_count()
        }
    }

    #[test]
    fn a_server_resolved_range_starts_at_the_kth_distance() {
        // With no peers the Euclidean round goes to the server, and the
        // range round reads its answer: the `k` POIs are known, no disk is
        // held, and the range request's lower bound is `D_k`, the answer's
        // k-th distance — the reply re-reports no POI nearer than that.
        let mut rng = Rng(0xd_4a11 | 1);
        for trial in 0..40 {
            let n = 15 + (rng.next() * 80.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let q = Point::new(rng.next() * 100.0, rng.next() * 100.0);
            let k = 2 + (rng.next() * 5.0) as usize;
            let recording = Recording {
                inner: &server,
                log: Default::default(),
            };
            let out = snnn(
                &SennEngine::default(),
                q,
                k,
                &[],
                &recording,
                &mut Manhattan,
                SnnnConfig::default(),
            );
            let want = brute_network_knn(&pois, q, k);
            for (r, (wd, _)) in out.results.iter().zip(&want) {
                assert!((r.network_dist - wd).abs() < 1e-9, "trial {trial}");
            }
            assert_eq!(
                out.trace.resolutions,
                [Resolution::Server, Resolution::Server],
                "trial {trial}"
            );
            let log = recording.log.into_inner();
            let d_k = log[0].1.response.pois[k - 1].1;
            let (range, reply) = &log[1];
            assert_eq!(range.bounds.lower, Some(d_k), "trial {trial}");
            assert!(
                reply
                    .response
                    .pois
                    .iter()
                    .all(|&(_, d)| d >= d_k - senn_geom::EPS),
                "trial {trial}: the reply re-reports the answer"
            );
        }
    }

    #[test]
    fn range_settles_on_a_disk_the_peers_hold() {
        // A peer at the query holds the POIs 1 and 2 m away, so its certain
        // disk has radius 2 — exactly d_1, the first POI's road distance.
        // The walk runs out of rows inside that disk, and no POI the peer
        // lacks can lie within it: the range settles without the server.
        let pois = [
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(50.0, 0.0),
        ];
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let peer = CacheEntry::from_sorted(Point::ORIGIN, vec![(0, pois[0]), (1, pois[1])]);
        struct Detour;
        impl DistanceModel for Detour {
            fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
                Some(q.dist(p) * if p.x == 1.0 { 2.0 } else { 1.25 })
            }
        }
        let out = snnn(
            &SennEngine::default(),
            Point::ORIGIN,
            1,
            std::slice::from_ref(&peer),
            &server,
            &mut Detour,
            SnnnConfig::default(),
        );
        assert_eq!(out.results[0].poi.poi_id, 0);
        assert_eq!(
            out.trace.resolutions,
            [Resolution::SinglePeer, Resolution::MultiPeer]
        );
        assert!(!out.trace.server_contacted && !out.trace.cap_hit);
        assert_eq!(out.trace.lb_evals, 1, "the POI 2 m away was a candidate");
    }

    #[test]
    fn euclidean_model_degenerates_to_senn() {
        // With ND == ED the first SENN call is already the answer and one
        // expansion call suffices to confirm the bound.
        let pois: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(10.0, 0.0);
        let engine = SennEngine::default();
        let out = snnn(
            &engine,
            q,
            3,
            &[],
            &server,
            &mut Euclidean,
            SnnnConfig::default(),
        );
        let mut dists: Vec<f64> = pois.iter().map(|p| q.dist(*p)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (r, want) in out.results.iter().zip(&dists) {
            assert!((r.network_dist - want).abs() < 1e-9);
        }
        // The SENN answer under the same engine agrees rank by rank.
        let senn = engine.query_with::<CacheEntry>(q, 3, &[], &server, &mut QueryContext::new());
        for (s, r) in senn.results.iter().zip(&out.results) {
            assert_eq!(s.poi.poi_id, r.poi.poi_id);
        }
        assert!(out.senn_calls() >= 2);
        assert!(!out.trace.cap_hit);
    }

    #[test]
    fn unreachable_pois_rank_last() {
        let pois = [
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::ORIGIN;
        // POI 0 is unreachable over the "network".
        struct Holey;
        impl DistanceModel for Holey {
            fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
                if p == Point::new(1.0, 0.0) {
                    None
                } else {
                    Some(q.dist(p) * 1.5)
                }
            }
        }
        let engine = SennEngine::default();
        let out = snnn(
            &engine,
            q,
            2,
            &[],
            &server,
            &mut Holey,
            SnnnConfig::default(),
        );
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.results[0].poi.poi_id, 1);
        assert_eq!(out.results[1].poi.poi_id, 2);
    }

    #[test]
    fn nan_model_distances_do_not_panic() {
        // A model that answers NaN for one POI must not panic either sort
        // of the expansion: NaN ranks after every finite distance, and as
        // the k-th distance it wins no comparison, so the expansion runs
        // the world dry without replacing it.
        let pois = [
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(4.0, 0.0),
        ];
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        struct Broken;
        impl DistanceModel for Broken {
            fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
                Some(if p.x == 1.0 {
                    f64::NAN
                } else {
                    q.dist(p) * 1.5
                })
            }
        }
        let out = snnn(
            &SennEngine::default(),
            Point::ORIGIN,
            2,
            &[],
            &server,
            &mut Broken,
            SnnnConfig::default(),
        );
        let ids: Vec<u64> = out.results.iter().map(|r| r.poi.poi_id).collect();
        assert_eq!(ids, vec![1, 0]);
        assert!(out.results[1].network_dist.is_nan());
    }

    #[test]
    fn fewer_pois_than_k() {
        let pois = [Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::ORIGIN;
        let engine = SennEngine::default();
        let out = snnn(
            &engine,
            q,
            5,
            &[],
            &server,
            &mut Manhattan,
            SnnnConfig::default(),
        );
        assert_eq!(out.results.len(), 2);
        assert!(!out.trace.cap_hit, "no expansion ran, nothing truncated");
    }

    #[test]
    fn expansion_cap_is_flagged() {
        // A tight cap ends the expansion before the bound is confirmed —
        // the trace must say so (the satellite bugfix: silent truncation).
        let mut rng = Rng(0xcab | 1);
        let pois: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
            .collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(50.0, 50.0);
        let engine = SennEngine::default();
        // An adversarial metric that inflates distances heavily keeps the
        // search bound far out, so a 1-step cap must truncate.
        struct Inflated;
        impl DistanceModel for Inflated {
            fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
                Some(q.dist(p) * 50.0 + 1000.0)
            }
        }
        let capped = snnn(
            &engine,
            q,
            3,
            &[],
            &server,
            &mut Inflated,
            SnnnConfig { max_expansion: 1 },
        );
        assert!(capped.trace.cap_hit, "1-step cap must be reported");
        let uncapped = snnn(
            &engine,
            q,
            3,
            &[],
            &server,
            &mut Inflated,
            SnnnConfig::default(),
        );
        assert!(!uncapped.trace.cap_hit);
    }

    #[test]
    fn peers_reduce_server_traffic_for_snnn() {
        // A collocated peer with a large cache answers the Euclidean parts
        // without the server.
        let mut rng = Rng(0x999 | 1);
        let pois: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.next() * 40.0, rng.next() * 40.0))
            .collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(20.0, 20.0);
        // Honest peer cache: 30 nearest POIs of a point right next to q.
        let loc = Point::new(20.1, 20.0);
        let mut by_d: Vec<(f64, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, p)| (loc.dist(*p), i))
            .collect();
        by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let peer = CacheEntry::from_sorted(
            loc,
            by_d.iter()
                .take(30)
                .map(|&(_, i)| (i as u64, pois[i]))
                .collect(),
        );
        let engine = SennEngine::new(SennConfig::default());
        let out = snnn(
            &engine,
            q,
            3,
            std::slice::from_ref(&peer),
            &server,
            &mut Manhattan,
            SnnnConfig::default(),
        );
        let want = brute_network_knn(&pois, q, 3);
        for (r, (wd, _)) in out.results.iter().zip(&want) {
            assert!((r.network_dist - wd).abs() < 1e-9);
        }
        assert!(
            out.trace
                .resolutions
                .iter()
                .any(|r| *r != Resolution::Server),
            "at least some SENN calls should be peer-resolved"
        );
    }
}
