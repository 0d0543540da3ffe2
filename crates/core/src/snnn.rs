//! Algorithm 2: the Sharing-based Network distance Nearest Neighbor
//! (SNNN) query (Section 3.4).
//!
//! SNNN extends IER (Incremental Euclidean Restriction): run SENN for the
//! `k` Euclidean NNs, compute their target-metric distances with the
//! [`DistanceModel`], and keep pulling the next Euclidean NN (peers first,
//! then server) while its Euclidean distance is within the current k-th
//! target distance — sound because `ED <= ND` (the Euclidean lower-bound
//! property, part of the [`DistanceModel`] contract).
//!
//! The expansion loop is a generic driver over any [`DistanceModel`]:
//! `senn_network::NetworkDistance` wraps A\*/Dijkstra for the road-network
//! metric, while the degenerate [`crate::distance::Euclidean`] model makes
//! the driver collapse to plain SENN. The peer side of every round is a
//! read of **one** verification walk ([`crate::pipeline`]): the peers are
//! probed and their cached POIs classified once per query, the round
//! asking `k + i` NNs only verifies the candidates no earlier round
//! reached, and all rounds fold into one [`QueryTrace`].

use std::borrow::Borrow;

use senn_cache::{CacheEntry, CachedNn};
use senn_geom::Point;

use crate::distance::{DistanceModel, LowerBoundOracle, NeverPrune};
use crate::pipeline::QueryContext;
use crate::senn::SennEngine;
use crate::service::SpatialService;
use crate::trace::QueryTrace;

/// Configuration of the SNNN search.
#[derive(Clone, Copy, Debug)]
pub struct SnnnConfig {
    /// Safety cap on the number of extra Euclidean NNs pulled beyond `k`.
    /// When the cap ends the expansion before the distance bound confirms
    /// the answer, the outcome's trace carries
    /// [`QueryTrace::cap_hit`] — the results may be inexact.
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
    /// The unified trace of every SENN round: per-round resolutions,
    /// total server accesses, stage timings and the expansion
    /// [`QueryTrace::cap_hit`] flag.
    pub trace: QueryTrace,
}

impl SnnnOutcome {
    /// Number of SENN invocations performed (1 + expansions).
    pub fn senn_calls(&self) -> usize {
        self.trace.senn_rounds()
    }
}

/// The ranking/termination state machine of one SNNN expansion,
/// factored out of [`snnn_query_pruned_with`] so batch drivers (the
/// simulator's network mode) that serve each Euclidean round through
/// their own channel — deferred residual batches, retry policies — share
/// the exact expansion logic with the library driver instead of
/// re-implementing it.
///
/// Protocol: [`SnnnExpansion::begin`] with the initial `k`-NN round, then
/// while [`SnnnExpansion::needs_round`] run a SENN round asking
/// [`SnnnExpansion::next_k`] Euclidean NNs (a further
/// `SennEngine::read_walk` of the query's one walk) and
/// [`SnnnExpansion::offer_pruned`] its results. The driver decides the
/// round budget; when it stops while [`SnnnExpansion::cap_hit`] is true,
/// the answer is unconfirmed and the outcome's trace must say so.
#[derive(Clone, Debug)]
pub struct SnnnExpansion {
    query: Point,
    k: usize,
    results: Vec<SnnnNeighbor>,
    /// Euclidean rounds offered so far (round `i` asks `k + i` NNs).
    rounds: usize,
    /// True once no further round can change the results.
    finished: bool,
    /// True when the distance bound (or POI exhaustion) confirmed the
    /// answer — the opposite of a cap/abort truncation.
    confirmed: bool,
    /// Lower-bound oracle consultations performed so far.
    lb_evals: u64,
    /// Exact model evaluations skipped because the lower bound already
    /// exceeded the k-th network distance.
    model_evals_saved: u64,
    /// When enabled ([`SnnnExpansion::record_skips`]), every skipped
    /// candidate as `(poi_id, lower_bound)` — the conformance suite
    /// audits that each bound genuinely exceeded the final k-th distance.
    skip_log: Option<Vec<(u64, f64)>>,
}

impl SnnnExpansion {
    /// Ranks the initial Euclidean `k`-NN round under the target metric.
    /// When the world holds fewer than `k` POIs the expansion is already
    /// finished (and confirmed: there is nothing left to pull).
    pub fn begin<M: DistanceModel>(
        query: Point,
        k: usize,
        initial: &[crate::heap::HeapEntry],
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
            results,
            rounds: 0,
            finished: exhausted,
            confirmed: exhausted,
            lb_evals: 0,
            model_evals_saved: 0,
            skip_log: None,
        }
    }

    /// Enables the skip audit log consumed by the conformance suite.
    pub fn record_skips(&mut self) {
        self.skip_log = Some(Vec::new());
    }

    /// The audited skips as `(poi_id, lower_bound)` pairs (empty unless
    /// [`SnnnExpansion::record_skips`] was enabled before the rounds ran).
    pub fn skipped(&self) -> &[(u64, f64)] {
        self.skip_log.as_deref().unwrap_or(&[])
    }

    /// Lower-bound oracle consultations performed so far. Identical
    /// across oracles for the same query stream — the candidate sequence
    /// never depends on the oracle, only on the (oracle-invariant)
    /// result set.
    pub fn lb_evals(&self) -> u64 {
        self.lb_evals
    }

    /// Exact model evaluations the oracle's bounds made unnecessary.
    pub fn model_evals_saved(&self) -> u64 {
        self.model_evals_saved
    }

    /// True while another Euclidean round could still change the answer.
    pub fn needs_round(&self) -> bool {
        !self.finished
    }

    /// The `k'` the next Euclidean round must ask for.
    pub fn next_k(&self) -> usize {
        self.k + self.rounds + 1
    }

    /// Offers the results of the round that asked [`SnnnExpansion::next_k`]
    /// NNs: either the round's last NN confirms the distance bound (or the
    /// world ran out of POIs) and the expansion finishes, or the new
    /// candidate is ranked into the result set.
    ///
    /// Pruning is bound-driven: before paying for an exact model
    /// evaluation the candidate's lower bound is consulted, and when
    /// `lb >= s_bound` (the current k-th network distance) the evaluation
    /// is skipped — the exact distance `nd` satisfies
    /// `nd >= lb >= s_bound`, so the replacement test `nd < s_bound` could
    /// never pass. Skipping therefore changes no result, no round count
    /// and no termination decision: pruned and unpruned expansion (the
    /// vacuous [`NeverPrune`] oracle, under which every candidate is
    /// evaluated exactly) are observationally identical except for the
    /// [`SnnnExpansion::lb_evals`] / [`SnnnExpansion::model_evals_saved`]
    /// counters (proven in `tests/expansion_pruning.rs`).
    pub fn offer_pruned<M: DistanceModel, O: LowerBoundOracle>(
        &mut self,
        round_results: &[crate::heap::HeapEntry],
        model: &mut M,
        oracle: &mut O,
    ) {
        if self.finished {
            return;
        }
        self.rounds += 1;
        let target = self.k + self.rounds;
        let s_bound = self.results[self.k - 1].network_dist;
        if round_results.len() < target {
            // The world has no more POIs.
            self.finished = true;
            self.confirmed = true;
            return;
        }
        let next = round_results[target - 1];
        if next.dist > s_bound {
            // The Euclidean lower bound exceeds the k-th target distance.
            self.finished = true;
            self.confirmed = true;
            return;
        }
        if self.results.iter().any(|r| r.poi.poi_id == next.poi.poi_id) {
            return; // already ranked (ties can reorder across calls)
        }
        self.lb_evals += 1;
        let lb = oracle.lower_bound(self.query, next.poi.position);
        if lb >= s_bound {
            // The bound alone rules the candidate out of the top k.
            self.model_evals_saved += 1;
            if let Some(log) = &mut self.skip_log {
                log.push((next.poi.poi_id, lb));
            }
            return;
        }
        let nd = model
            .distance(self.query, next.poi.position)
            .unwrap_or(f64::INFINITY);
        if nd < s_bound {
            self.results[self.k - 1] = SnnnNeighbor {
                poi: next.poi,
                network_dist: nd,
                euclid_dist: next.dist,
            };
            self.results
                .sort_by(|a, b| a.network_dist.total_cmp(&b.network_dist));
        }
    }

    /// Ends the expansion without confirmation — for drivers whose round
    /// channel failed (e.g. a residual request that exhausted every
    /// attempt). [`SnnnExpansion::cap_hit`] stays true: the answer is the
    /// best ranking seen, but it is unconfirmed.
    pub fn abort(&mut self) {
        self.finished = true;
    }

    /// True when the expansion ended (or would end, if the driver stops
    /// here) without the distance bound confirming the answer.
    pub fn cap_hit(&self) -> bool {
        !self.confirmed
    }

    /// Euclidean rounds offered so far.
    pub fn rounds(&self) -> usize {
        self.rounds
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

/// Runs Algorithm 2 with a fresh [`QueryContext`] and no lower-bound
/// oracle: every candidate is evaluated exactly. The no-frills form of
/// [`snnn_query_pruned_with`].
pub fn snnn_query<B: Borrow<CacheEntry>, M: DistanceModel>(
    engine: &SennEngine,
    query: Point,
    k: usize,
    peers: &[B],
    server: &dyn SpatialService,
    model: &mut M,
    config: SnnnConfig,
) -> SnnnOutcome {
    snnn_query_pruned_with(
        engine,
        query,
        k,
        peers,
        server,
        model,
        &mut NeverPrune,
        config,
        &mut QueryContext::new(),
    )
}

/// Runs Algorithm 2 with bound-driven pruning against a caller-owned
/// [`QueryContext`] (the allocation-reusing batch entry point).
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
    let mut trace = QueryTrace::new();

    // Step 1: the k Euclidean NNs via SENN, ranked by the target metric.
    let initial = engine.query_with(query, k, peers, server, ctx);
    trace.absorb(&initial.trace);
    let mut expansion = SnnnExpansion::begin(query, k, &initial.results, model);

    if !expansion.needs_round() {
        // Fewer than k POIs exist at all: done, no expansion to truncate.
        return SnnnOutcome {
            results: expansion.into_results(),
            trace,
        };
    }

    // Step 2: incremental Euclidean expansion until the next Euclidean NN
    // falls beyond the target-distance search bound — each round a further
    // read of the walk step 1 left in `ctx`. Unless the state machine
    // confirms that bound, the cap truncated the search.
    while expansion.needs_round() && expansion.rounds() < config.max_expansion {
        let expanded = engine.resume_with(expansion.next_k(), server, ctx);
        trace.absorb(&expanded.trace);
        expansion.offer_pruned(&expanded.results, model, oracle);
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
    use crate::distance::Euclidean;
    use crate::senn::{Resolution, SennConfig};
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
            let out = snnn_query::<CacheEntry, _>(
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

    /// Algorithm 2 as it ran before rounds shared a walk: every round a
    /// whole fresh `SennEngine::query_with` at a larger `k`. Kept as the
    /// oracle of [`snnn_query_pruned_with`].
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
    ) -> SnnnOutcome {
        let mut trace = QueryTrace::new();
        let initial = engine.query(query, k, peers, server);
        trace.absorb(&initial.trace);
        let mut expansion = SnnnExpansion::begin(query, k, &initial.results, model);
        while expansion.needs_round() && expansion.rounds() < config.max_expansion {
            let round = engine.query(query, expansion.next_k(), peers, server);
            trace.absorb(&round.trace);
            expansion.offer_pruned(&round.results, model, oracle);
        }
        trace.cap_hit = expansion.cap_hit();
        trace.lb_evals = expansion.lb_evals();
        trace.model_evals_saved = expansion.model_evals_saved();
        SnnnOutcome {
            results: expansion.into_results(),
            trace,
        }
    }

    #[test]
    fn shared_walk_equals_fresh_rounds() {
        // Peers of every quality around the query, so rounds end single-
        // peer, multi-peer and at the server, under both a tight and the
        // default round budget and with over-fetching on and off.
        let mut rng = Rng(0x5a1ed | 1);
        let mut peer_rounds = 0;
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
            assert_eq!(got.results, want.results, "trial {trial}");
            // Everything but the stage clocks: a resumed round re-runs no
            // peer stage, so it books none.
            let mut booked = want.trace.clone();
            booked.stage_nanos = got.trace.stage_nanos;
            booked.stage_calls = got.trace.stage_calls;
            assert_eq!(got.trace, booked, "trial {trial}");
            assert!(got.trace.stage_calls[0] == 1 && want.trace.stage_calls[0] >= 1);
            peer_rounds += got.trace.resolutions[1..]
                .iter()
                .filter(|r| **r != Resolution::Server)
                .count();
        }
        assert!(
            peer_rounds > 50,
            "the worlds must resume peer-resolved rounds"
        );
    }

    #[test]
    fn euclidean_model_degenerates_to_senn() {
        // With ND == ED the first SENN call is already the answer and one
        // expansion call suffices to confirm the bound.
        let pois: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(10.0, 0.0);
        let engine = SennEngine::default();
        let out = snnn_query::<CacheEntry, _>(
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
        let senn = engine.query::<CacheEntry>(q, 3, &[], &server);
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
        let out = snnn_query::<CacheEntry, _>(
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
        let out = snnn_query::<CacheEntry, _>(
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
        let out = snnn_query::<CacheEntry, _>(
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
        let capped = snnn_query::<CacheEntry, _>(
            &engine,
            q,
            3,
            &[],
            &server,
            &mut Inflated,
            SnnnConfig { max_expansion: 1 },
        );
        assert!(capped.trace.cap_hit, "1-step cap must be reported");
        let uncapped = snnn_query::<CacheEntry, _>(
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
        let out = snnn_query(
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
