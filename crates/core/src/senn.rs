//! Algorithm 1: the Sharing-based Euclidean distance Nearest Neighbor
//! (SENN) query, as a driver over the staged pipeline (see
//! [`crate::pipeline`]):
//!
//! ```text
//! PeerProbe       query peers in range, sort by cached-location distance
//! SingleVerify    kNN_single over each peer                     (§3.2.1)
//! MultiVerify     kNN_multiple over the merged certain region   (§3.2.2)
//!                 (if H full and uncertain acceptable: return)
//! ServerResidual  residual server query with the pruning bounds (§3.3)
//! ```
//!
//! The peer stages are one verification walk held by a caller-owned
//! [`QueryContext`]: [`SennEngine::query_peers_only_with`] runs the
//! stage functions of [`crate::pipeline`] on it in order, then extends
//! the cacheable set; [`SennEngine::query_with`] adds the server stage.
//! What the walk proved stays in the context's
//! [`Certificate`](crate::pipeline::Certificate), which an SNNN
//! expansion's range round reads (`SnnnExpansion::read_range`).

use std::borrow::Borrow;
use std::time::Instant;

use senn_cache::CacheEntry;
use senn_geom::Point;
use senn_rtree::SearchBounds;

use crate::bounds::bounds_from_heap;
use crate::heap::{HeapEntry, HeapState};
use crate::multiple::RegionMethod;
use crate::pipeline::{
    merge_residual, multi_verify, peer_probe, residual_request, single_verify, QueryContext,
};
use crate::server::ServerResponse;
use crate::service::{ReplyStatus, ServerRequest, SpatialService};
use crate::trace::{QueryTrace, Stage};

pub use crate::trace::Resolution;

/// Configuration of the SENN engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct SennConfig {
    /// Certain-region representation for `kNN_multiple`.
    pub region_method: RegionMethod,
    /// Accept a full heap of (possibly) uncertain answers instead of
    /// contacting the server (Algorithm 1, line 15). The paper's simulation
    /// requires exact answers, so the default is `false`.
    pub accept_uncertain: bool,
    /// When the server must be contacted, fetch at least this many NNs —
    /// the paper's cache policy 2 ("query for as many NN as the cache
    /// capacity allows"). `0` fetches exactly what the query needs.
    pub server_fetch: usize,
}

/// The outcome of a SENN query.
#[derive(Clone, Debug)]
pub struct SennOutcome {
    /// Final answer: up to `k` entries, certain entries first, each group
    /// ascending by distance. After a server round-trip every entry is
    /// certain.
    pub results: Vec<HeapEntry>,
    /// Additional certain NNs beyond `k` obtained from an over-fetching
    /// server query (available for caching), ascending by distance.
    pub extra_certain: Vec<HeapEntry>,
    /// The pruning bounds that were (or would have been) forwarded.
    pub bounds: SearchBounds,
    /// State of the result heap `H` after the peer phases (Section 3.3) —
    /// `None` when the peer phases fully answered the query.
    pub heap_state: Option<HeapState>,
    /// Attribution, server accounting and stage timings of the query.
    pub trace: QueryTrace,
}

impl SennOutcome {
    /// How the query was resolved.
    pub fn resolution(&self) -> Resolution {
        self.trace.resolution()
    }

    /// R\*-tree node accesses of the server search, when one happened.
    pub fn server_accesses(&self) -> Option<u64> {
        self.trace
            .server_contacted
            .then_some(self.trace.server_accesses)
    }

    /// The certain prefix of the results.
    pub fn certain(&self) -> &[HeapEntry] {
        let n = self.results.iter().take_while(|e| e.certain).count();
        &self.results[..n]
    }

    /// Every certain entry including over-fetched extras — what the host
    /// should store in its cache.
    pub fn cacheable(&self) -> Vec<HeapEntry> {
        self.certain()
            .iter()
            .copied()
            .chain(self.extra_certain.iter().copied())
            .collect()
    }
}

/// The SENN query engine (stateless; configuration only).
///
/// ```
/// use senn_core::{PeerCacheEntry, QueryContext, RTreeServer, Resolution, SennEngine};
/// use senn_geom::Point;
///
/// let server = RTreeServer::new(vec![
///     (0, Point::new(10.0, 0.0)),
///     (1, Point::new(40.0, 0.0)),
///     (2, Point::new(90.0, 0.0)),
/// ]);
/// // A peer that cached all three POIs from (30, 0).
/// let peer = PeerCacheEntry::from_sorted(
///     Point::new(30.0, 0.0),
///     vec![(1, Point::new(40.0, 0.0)), (0, Point::new(10.0, 0.0)), (2, Point::new(90.0, 0.0))],
/// );
/// let engine = SennEngine::default();
/// // One context per worker, reused across its queries.
/// let mut ctx = QueryContext::new();
/// let out = engine.query_with(Point::new(35.0, 0.0), 2, &[peer], &server, &mut ctx);
/// assert_eq!(out.resolution(), Resolution::SinglePeer);
/// assert_eq!(out.results[0].poi.poi_id, 1);
/// assert!(out.server_accesses().is_none());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SennEngine {
    config: SennConfig,
}

impl SennEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: SennConfig) -> Self {
        SennEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SennConfig {
        &self.config
    }

    /// Runs the peer stages of Algorithm 1 against a caller-owned
    /// [`QueryContext`] (reused across queries, it keeps every buffer):
    /// [`peer_probe`], [`single_verify`] and — when there are probed peers
    /// and single-peer verification fell short — [`multi_verify`], each
    /// under its stage timer; then optionally accept an uncertain full
    /// heap. Returns [`Resolution::Unresolved`] when the server would be
    /// needed.
    ///
    /// A peer-resolved, fully certain answer also carries the certain NNs
    /// beyond `k` worth caching, up to the configured `server_fetch`
    /// (cache capacity). The extension serves the *next* query's cache,
    /// not this query's answer, and runs outside the four timed stages.
    ///
    /// Generic over the peer representation: pass `&[CacheEntry]` or
    /// `&[&CacheEntry]` — the latter lets batch drivers hand over borrowed
    /// cache snapshots without cloning an entry per query.
    pub fn query_peers_only_with<B: Borrow<CacheEntry>>(
        &self,
        query: Point,
        k: usize,
        peers: &[B],
        ctx: &mut QueryContext,
    ) -> SennOutcome {
        let method = self.config.region_method;
        ctx.begin(k);
        // The cache extension and an SNNN range round read `R_c` too, also
        // on walks where MultiVerify never runs.
        ctx.cert.method = method;
        let started = Instant::now();
        peer_probe(ctx, query, peers);
        ctx.trace
            .record_stage(Stage::PeerProbe, started.elapsed().as_nanos() as u64);
        let started = Instant::now();
        let single = single_verify(ctx, query, peers);
        ctx.trace
            .record_stage(Stage::SingleVerify, started.elapsed().as_nanos() as u64);
        let resolution = if single {
            Resolution::SinglePeer
        } else {
            let multi = !ctx.order.is_empty() && {
                let started = Instant::now();
                let done = multi_verify(ctx, query, peers, method);
                ctx.trace
                    .record_stage(Stage::MultiVerify, started.elapsed().as_nanos() as u64);
                done
            };
            if multi {
                Resolution::MultiPeer
            } else if ctx.heap.is_full() && self.config.accept_uncertain {
                Resolution::AcceptedUncertain
            } else {
                Resolution::Unresolved
            }
        };
        ctx.trace.resolutions.push(resolution);
        let unresolved = resolution == Resolution::Unresolved;
        let results = ctx.heap.entries().to_vec();
        // Only a fully-certain result set is a known prefix of the true
        // ranking; accepted-uncertain answers cannot be extended.
        let extra_certain = if !unresolved && results.iter().all(|e| e.certain) {
            let limit = self.config.server_fetch.saturating_sub(results.len());
            ctx.cert.extend(&results, limit)
        } else {
            Vec::new()
        };
        SennOutcome {
            results,
            extra_certain,
            bounds: bounds_from_heap(&ctx.heap),
            heap_state: unresolved.then(|| ctx.heap.state()),
            trace: std::mem::take(&mut ctx.trace),
        }
    }

    /// Runs the full Algorithm 1 against `server` on a caller-owned
    /// [`QueryContext`]: the peer stages ([`Self::query_peers_only_with`]),
    /// then — when they leave the query [`Resolution::Unresolved`] — the
    /// server stage as one request through the service seam, i.e.
    /// exactly the [`Self::residual_request`] → `serve` →
    /// [`Self::complete_residual`] path the simulator's residuals take,
    /// with the round-trip inside the [`Stage::ServerResidual`] timing.
    pub fn query_with<B: Borrow<CacheEntry>>(
        &self,
        query: Point,
        k: usize,
        peers: &[B],
        server: &dyn SpatialService,
        ctx: &mut QueryContext,
    ) -> SennOutcome {
        let outcome = self.query_peers_only_with(query, k, peers, ctx);
        if outcome.resolution() != Resolution::Unresolved {
            return outcome;
        }
        let started = Instant::now();
        let request = self.residual_request(0u64, query, k, &outcome);
        // A lost or non-Ok reply (fault wrappers without a retry layer)
        // degrades to the empty response and the merge keeps whatever the
        // peers verified.
        let response = server
            .serve(&request)
            .filter(|r| r.status == ReplyStatus::Ok)
            .map(|r| r.response)
            .unwrap_or_default();
        Self::merge_response(k, outcome, response, started)
    }

    /// Builds the [`ServerRequest`] that would complete an
    /// [`Resolution::Unresolved`] outcome of [`Self::query_peers_only_with`] —
    /// the deferred half of the server stage. Batch drivers build one
    /// request per unresolved query, submit each through the retry client
    /// ([`crate::transport::AsyncClient`]), and finish each query with
    /// [`Self::complete_residual`].
    pub fn residual_request(
        &self,
        id: impl Into<crate::transport::RequestId>,
        query: Point,
        k: usize,
        outcome: &SennOutcome,
    ) -> ServerRequest {
        residual_request(
            outcome.certain().iter().map(|e| e.dist),
            id,
            query,
            k,
            outcome.bounds,
            self.config.server_fetch,
        )
    }

    /// Completes a deferred [`Resolution::Unresolved`] outcome with the
    /// service response for its [`Self::residual_request`]. Equivalent —
    /// result for result, trace for trace — to having called
    /// [`Self::query_with`] directly (stage timing then covers only the merge;
    /// the service round-trip is the driver's to account).
    pub fn complete_residual(
        &self,
        k: usize,
        outcome: SennOutcome,
        response: ServerResponse,
    ) -> SennOutcome {
        Self::merge_response(k, outcome, response, Instant::now())
    }

    /// The one server-stage completion: merges `response` into the
    /// unresolved peers-only `outcome` and books the stage as running
    /// since `started`.
    fn merge_response(
        k: usize,
        mut outcome: SennOutcome,
        response: ServerResponse,
        started: Instant,
    ) -> SennOutcome {
        debug_assert_eq!(
            outcome.trace.resolutions.last(),
            Some(&Resolution::Unresolved),
            "the server stage completes an unresolved peers-only outcome"
        );
        let node_accesses = response.node_accesses;
        let certain = outcome.certain().len();
        let mut verified = std::mem::take(&mut outcome.results);
        verified.truncate(certain);
        let residual = merge_residual(verified, k, response);
        outcome.results = residual.results;
        outcome.extra_certain = residual.extra_certain;
        outcome
            .trace
            .record_server(node_accesses, started.elapsed().as_nanos() as u64);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Certificate;
    use crate::server::RTreeServer;
    use senn_cache::CachedNn;

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Builds an honest peer cache: the `cache_k` true NNs of `loc`.
    fn honest_peer(loc: Point, pois: &[Point], cache_k: usize) -> CacheEntry {
        let mut by_d: Vec<(f64, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, p)| (loc.dist(*p), i))
            .collect();
        by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        CacheEntry::from_sorted(
            loc,
            by_d.iter()
                .take(cache_k)
                .map(|&(_, i)| (i as u64, pois[i]))
                .collect(),
        )
    }

    fn true_knn(pois: &[Point], q: Point, k: usize) -> Vec<(f64, usize)> {
        let mut by_d: Vec<(f64, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, p)| (q.dist(*p), i))
            .collect();
        by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        by_d.truncate(k);
        by_d
    }

    /// What the differential tests compare of an outcome.
    type Answer = (
        Vec<HeapEntry>,
        Vec<HeapEntry>,
        SearchBounds,
        Option<HeapState>,
        Vec<Resolution>,
    );

    fn answer(o: &SennOutcome) -> Answer {
        (
            o.results.clone(),
            o.extra_certain.clone(),
            o.bounds,
            o.heap_state,
            o.trace.resolutions.clone(),
        )
    }

    /// The textbook, heap-driven peer phases restarted from nothing — the
    /// oracle of the walk: `kNN_single` peer by peer with early stop,
    /// `kNN_multiple` over the merged region, then a *second* pass that
    /// rebuilds the region and the candidates (from the peers in their
    /// original order) to extend the certain set up to `server_fetch`.
    fn staged_reference(
        config: SennConfig,
        query: Point,
        k: usize,
        peers: &[CacheEntry],
    ) -> Answer {
        use crate::multiple::{collect_candidates, knn_multiple, CertainRegion};
        use crate::single::{knn_single_all, sort_peers_by_query_location};

        let mut probed: Vec<&CacheEntry> = peers.iter().filter(|p| !p.is_empty()).collect();
        sort_peers_by_query_location(query, &mut probed);
        let mut heap = crate::heap::ResultHeap::new(k);
        let single = knn_single_all(query, &probed, &mut heap);
        if !single {
            knn_multiple(query, &probed, config.region_method, &mut heap);
        }
        let resolution = if single {
            Resolution::SinglePeer
        } else if heap.is_certain_complete() {
            Resolution::MultiPeer
        } else if heap.is_full() && config.accept_uncertain {
            Resolution::AcceptedUncertain
        } else {
            Resolution::Unresolved
        };
        let results = heap.entries().to_vec();
        let mut extra = Vec::new();
        let limit = config.server_fetch.saturating_sub(results.len());
        if resolution != Resolution::Unresolved && results.iter().all(|e| e.certain) {
            let mut region = CertainRegion::build(peers, config.region_method);
            let mut candidates = Vec::new();
            collect_candidates(
                query,
                peers.iter(),
                &mut candidates,
                &mut crate::multiple::PoiIndex::default(),
            );
            candidates.retain(|c| results.iter().all(|e| e.poi.poi_id != c.poi.poi_id));
            for c in candidates.iter().take_while(|c| {
                peers.iter().any(|p| {
                    crate::verify::is_certain(
                        query,
                        p.query_location,
                        p.farthest_distance(),
                        c.poi.position,
                    )
                }) || (!region.is_empty() && region.covers_candidate(query, c.dist))
            }) {
                if extra.len() < limit {
                    extra.push(HeapEntry {
                        poi: c.poi,
                        dist: c.dist,
                        certain: true,
                    });
                }
            }
        }
        (
            results,
            extra,
            bounds_from_heap(&heap),
            (resolution == Resolution::Unresolved).then(|| heap.state()),
            vec![resolution],
        )
    }

    /// A random world for the differential tests: honest peers, stale
    /// peers whose caches have *gaps* (POIs dropped from inside their own
    /// disk — early-stopping single-peer verification then disagrees with
    /// "the first k of the sorted candidates"), empty caches, and POI ids
    /// shared across peers. In one world out of five a stale peer also
    /// reports POIs at *moved* positions; the flag says so, because there
    /// the heap-driven stages keep a different occurrence of a POI in each
    /// of their passes and are no oracle.
    fn walk_world(rng: &mut Rng) -> (Point, Vec<CacheEntry>, bool) {
        let n = 20 + (rng.next() * 80.0) as usize;
        let pois: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
            .collect();
        let q = Point::new(20.0 + rng.next() * 60.0, 20.0 + rng.next() * 60.0);
        let moved = rng.next() < 0.2;
        let peers = (0..(rng.next() * 7.0) as usize)
            .map(|_| {
                let reach = if rng.next() < 0.5 { 8.0 } else { 40.0 };
                let loc = Point::new(
                    q.x + (rng.next() - 0.5) * reach,
                    q.y + (rng.next() - 0.5) * reach,
                );
                let mut peer = honest_peer(loc, &pois, (rng.next() * 14.0) as usize);
                if rng.next() < 0.4 {
                    peer.neighbors.retain(|_| rng.next() < 0.7);
                    if moved {
                        for nn in &mut peer.neighbors {
                            nn.position.x += rng.next() - 0.5;
                        }
                    }
                }
                peer
            })
            .collect();
        (q, peers, !moved)
    }

    #[test]
    fn the_walk_answers_as_the_heap_driven_stages() {
        // Queries at k..=k+Δ on one reused context, each equal to the
        // textbook stages restarted from nothing.
        const DELTA: usize = 4;
        let mut rng = Rng(0x7e5a11ed | 1);
        let mut ctx = QueryContext::new();
        let (mut multi, mut unresolved, mut extended) = (0, 0, 0);
        for trial in 0..400 {
            let (q, peers, consistent) = walk_world(&mut rng);
            let k = 1 + (rng.next() * 6.0) as usize;
            let engine = SennEngine::new(SennConfig {
                region_method: if trial % 2 == 0 {
                    RegionMethod::Polygonized { vertices: 24 }
                } else {
                    RegionMethod::Exact
                },
                accept_uncertain: trial % 5 == 0,
                server_fetch: (trial % 3) * k,
            });
            for kk in k..=k + DELTA {
                let out = engine.query_peers_only_with(q, kk, &peers, &mut ctx);
                if consistent {
                    assert_eq!(
                        answer(&out),
                        staged_reference(*engine.config(), q, kk, &peers),
                        "trial {trial} k {kk}: walk vs heap-driven stages"
                    );
                }
                assert!(ctx.cert.radius_computations <= 1, "trial {trial} k {kk}");
                multi += (out.resolution() == Resolution::MultiPeer) as usize;
                unresolved += (out.resolution() == Resolution::Unresolved) as usize;
                extended += !out.extra_certain.is_empty() as usize;
            }
        }
        // The worlds reach every branch the walk has.
        assert!(multi > 20 && unresolved > 200 && extended > 100);
    }

    #[test]
    fn a_taken_certificate_answers_as_the_walk_did() {
        // A worker context runs a query and its certificate is taken: the
        // certificate certifies the rows and holds the disks the context's
        // did before the take, with at most one radius computation between
        // the two, and the worker's next query equals a fresh context's.
        let mut rng = Rng(0x4a4d_0fe2 | 1);
        let mut worker = QueryContext::new();
        let mut fresh_ctx = QueryContext::new();
        let (mut held, mut multi_row) = (0, 0);
        for trial in 0..300 {
            let (q, peers, _) = walk_world(&mut rng);
            let k = 1 + (rng.next() * 6.0) as usize;
            let engine = SennEngine::new(SennConfig {
                region_method: if trial % 2 == 0 {
                    RegionMethod::Polygonized { vertices: 24 }
                } else {
                    RegionMethod::Exact
                },
                accept_uncertain: trial % 5 == 0,
                server_fetch: (trial % 3) * k,
            });
            let first = engine.query_peers_only_with(q, k, &peers, &mut worker);
            let fresh = engine.query_peers_only_with(q, k, &peers, &mut fresh_ctx);
            assert_eq!(answer(&first), answer(&fresh), "trial {trial}");
            let farthest = worker.cert.farthest();
            let radii: Vec<f64> = (0..=8)
                .map(|step| farthest * step as f64 / 8.0)
                .filter(|r| r.is_finite())
                .collect();
            let read = |cert: &mut Certificate| {
                let rows: Vec<(u64, u64)> = (0..)
                    .map_while(|row| cert.certain_row(row))
                    .map(|c| (c.poi.poi_id, c.dist.to_bits()))
                    .collect();
                let disks: Vec<bool> = radii.iter().map(|&r| cert.holds_disk(r)).collect();
                (rows, disks)
            };
            let before = read(&mut worker.cert);
            let mut cert = worker.take_certificate();
            assert_eq!(read(&mut cert), before, "trial {trial}");
            assert!(cert.radius_computations <= 1, "trial {trial}");
            held += before.1.iter().filter(|&&h| h).count();
            multi_row += (before.0.len() > first.results.len()) as usize;
        }
        assert!(held > 200 && multi_row > 50, "{held} disks, {multi_row}");
    }

    #[test]
    fn a_walk_builds_one_region_and_computes_one_radius() {
        // A query — MultiVerify and the cache extension included — then
        // the range round's question at distances up to the farthest row:
        // `R_c` is built and its radius computed at most once, and every
        // answer is the per-distance Lemma 3.2 / 3.8 test's.
        let mut rng = Rng(0x0ad1_05ed | 1);
        let mut walk = QueryContext::new();
        let mut computed = 0;
        for trial in 0..400 {
            let (q, peers, _) = walk_world(&mut rng);
            let k = 1 + (rng.next() * 6.0) as usize;
            let method = if trial % 2 == 0 {
                RegionMethod::Polygonized { vertices: 24 }
            } else {
                RegionMethod::Exact
            };
            let engine = SennEngine::new(SennConfig {
                region_method: method,
                accept_uncertain: false,
                server_fetch: (trial % 3) * k,
            });
            engine.query_peers_only_with(q, k, &peers, &mut walk);
            let farthest = walk.cert.farthest();
            let probed: Vec<&CacheEntry> = walk.order.iter().map(|&i| &peers[i as usize]).collect();
            let mut region = crate::multiple::CertainRegion::build(&probed, method);
            let radii = (0..=8).map(|step| farthest * step as f64 / 8.0);
            for radius in radii.filter(|r| r.is_finite()) {
                let single = probed
                    .iter()
                    .any(|p| radius + q.dist(p.query_location) <= p.farthest_distance());
                let covered = !region.is_empty() && region.covers_candidate(q, radius);
                let held = walk.cert.holds_disk(radius);
                assert_eq!(held, single || covered, "trial {trial} radius {radius}");
            }
            assert!(walk.cert.radius_computations <= 1, "trial {trial}");
            computed += walk.cert.radius_computations;
        }
        assert!(computed > 150, "the walks reach R_c ({computed})");
    }

    #[test]
    fn collocated_peer_answers_without_server() {
        let pois = vec![
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(9.0, 0.0),
        ];
        let peer = honest_peer(Point::new(0.1, 0.0), &pois, 3);
        let engine = SennEngine::default();
        let out = engine.query_peers_only_with(
            Point::new(0.0, 0.0),
            2,
            std::slice::from_ref(&peer),
            &mut QueryContext::new(),
        );
        assert_eq!(out.resolution(), Resolution::SinglePeer);
        assert_eq!(out.certain().len(), 2);
        assert_eq!(out.certain()[0].poi.poi_id, 0);
        assert_eq!(out.certain()[1].poi.poi_id, 1);
    }

    #[test]
    fn no_peers_falls_through_to_server() {
        let pois: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64, (i % 7) as f64))
            .collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let engine = SennEngine::default();
        let q = Point::new(20.2, 3.3);
        let out = engine.query_with::<CacheEntry>(q, 5, &[], &server, &mut QueryContext::new());
        assert_eq!(out.resolution(), Resolution::Server);
        assert!(out.bounds.is_none());
        assert!(out.server_accesses().unwrap() > 0);
        let want = true_knn(&pois, q, 5);
        assert_eq!(out.results.len(), 5);
        for (r, (wd, wi)) in out.results.iter().zip(&want) {
            assert_eq!(r.poi.poi_id, *wi as u64);
            assert!((r.dist - wd).abs() < 1e-9);
            assert!(r.certain);
        }
    }

    #[test]
    fn partial_verification_uses_bounds_and_completes() {
        // One peer verifies a couple of NNs; the server fills the rest.
        let mut rng = Rng(0x1234 | 1);
        let pois: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
            .collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(50.0, 50.0);
        let peer = honest_peer(Point::new(50.5, 50.2), &pois, 4);
        let engine = SennEngine::default();
        let out = engine.query_with(
            q,
            8,
            std::slice::from_ref(&peer),
            &server,
            &mut QueryContext::new(),
        );
        assert_eq!(out.resolution(), Resolution::Server);
        assert!(
            out.bounds.lower.is_some(),
            "peer verification should yield a lower bound"
        );
        let want = true_knn(&pois, q, 8);
        assert_eq!(out.results.len(), 8);
        for (r, (wd, wi)) in out.results.iter().zip(&want) {
            assert_eq!(r.poi.poi_id, *wi as u64, "rank mismatch");
            assert!((r.dist - wd).abs() < 1e-9);
        }
    }

    #[test]
    fn accept_uncertain_short_circuits() {
        let pois = vec![Point::new(5.0, 0.0), Point::new(6.0, 0.0)];
        // A far peer: candidates are uncertain but fill the heap.
        let peer = honest_peer(Point::new(30.0, 0.0), &pois, 2);
        let engine = SennEngine::new(SennConfig {
            accept_uncertain: true,
            ..Default::default()
        });
        let out = engine.query_peers_only_with(
            Point::ORIGIN,
            2,
            std::slice::from_ref(&peer),
            &mut QueryContext::new(),
        );
        assert_eq!(out.resolution(), Resolution::AcceptedUncertain);
        assert_eq!(out.results.len(), 2);
        assert!(out.results.iter().all(|e| !e.certain));
        assert_eq!(out.certain().len(), 0);
    }

    #[test]
    fn server_overfetch_yields_cacheable_extras() {
        let mut rng = Rng(0x77 | 1);
        let pois: Vec<Point> = (0..100)
            .map(|_| Point::new(rng.next() * 50.0, rng.next() * 50.0))
            .collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let engine = SennEngine::new(SennConfig {
            server_fetch: 10,
            ..Default::default()
        });
        let q = Point::new(25.0, 25.0);
        let out = engine.query_with::<CacheEntry>(q, 3, &[], &server, &mut QueryContext::new());
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.extra_certain.len(), 7);
        assert_eq!(out.cacheable().len(), 10);
        let want = true_knn(&pois, q, 10);
        for (c, (wd, _)) in out.cacheable().iter().zip(&want) {
            assert!((c.dist - wd).abs() < 1e-9);
        }
    }

    #[test]
    fn oracle_randomized_worlds() {
        // End-to-end soundness and completeness: with arbitrary honest
        // peers, the final answer always equals the true kNN set.
        let mut rng = Rng(0xabcdef | 1);
        for trial in 0..60 {
            let n = 20 + (rng.next() * 100.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let q = Point::new(rng.next() * 100.0, rng.next() * 100.0);
            let k = 1 + (rng.next() * 9.0) as usize;
            let peer_count = (rng.next() * 5.0) as usize;
            let peers: Vec<CacheEntry> = (0..peer_count)
                .map(|_| {
                    let loc = Point::new(
                        q.x + rng.next() * 40.0 - 20.0,
                        q.y + rng.next() * 40.0 - 20.0,
                    );
                    honest_peer(loc, &pois, 1 + (rng.next() * 9.0) as usize)
                })
                .collect();
            let engine = SennEngine::default();
            let out = engine.query_with(q, k, &peers, &server, &mut QueryContext::new());
            let want = true_knn(&pois, q, k);
            assert_eq!(out.results.len(), k.min(n), "trial {trial}");
            for (r, (wd, _)) in out.results.iter().zip(&want) {
                assert!(
                    (r.dist - wd).abs() < 1e-9,
                    "trial {trial}: got dist {} want {} (resolution {:?})",
                    r.dist,
                    wd,
                    out.resolution()
                );
            }
            // Certain entries really are certain.
            for (i, r) in out.results.iter().enumerate() {
                if r.certain {
                    assert!(
                        (r.dist - want[i].0).abs() < 1e-9,
                        "trial {trial} certain rank {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn context_reuse_is_hygienic_across_randomized_worlds() {
        // Property (satellite): running query B in a context that already
        // ran query A equals running B in a fresh context — no scratch
        // state leaks across a batch.
        let mut rng = Rng(0xfeed5eed | 1);
        let mut shared = QueryContext::new();
        for trial in 0..80 {
            let n = 10 + (rng.next() * 60.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let engine = SennEngine::new(SennConfig {
                accept_uncertain: trial % 3 == 0,
                server_fetch: (trial % 4) * 3,
                ..Default::default()
            });
            let q = Point::new(rng.next() * 100.0, rng.next() * 100.0);
            let k = 1 + (rng.next() * 7.0) as usize;
            let peers: Vec<CacheEntry> = (0..(rng.next() * 4.0) as usize)
                .map(|_| {
                    let loc = Point::new(
                        q.x + rng.next() * 30.0 - 15.0,
                        q.y + rng.next() * 30.0 - 15.0,
                    );
                    honest_peer(loc, &pois, 1 + (rng.next() * 8.0) as usize)
                })
                .collect();
            let shared_out = engine.query_with(q, k, &peers, &server, &mut shared);
            let fresh_out = engine.query_with(q, k, &peers, &server, &mut QueryContext::new());
            assert_eq!(shared_out.results, fresh_out.results, "trial {trial}");
            assert_eq!(
                shared_out.extra_certain, fresh_out.extra_certain,
                "trial {trial}"
            );
            assert_eq!(shared_out.bounds, fresh_out.bounds, "trial {trial}");
            assert_eq!(shared_out.heap_state, fresh_out.heap_state, "trial {trial}");
            assert_eq!(
                shared_out.trace.resolutions, fresh_out.trace.resolutions,
                "trial {trial}"
            );
            assert_eq!(
                shared_out.trace.server_accesses, fresh_out.trace.server_accesses,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn deferred_residual_matches_direct_query() {
        // The batch driver's split path — peers-only, build the wire
        // request, answer it, complete — must equal the one-shot query()
        // outcome for outcome, across randomized worlds.
        let mut rng = Rng(0xdefe44ed | 1);
        for trial in 0..60 {
            let n = 15 + (rng.next() * 80.0) as usize;
            let pois: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.next() * 100.0, rng.next() * 100.0))
                .collect();
            let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
            let engine = SennEngine::new(SennConfig {
                server_fetch: (trial % 3) * 4,
                ..Default::default()
            });
            let q = Point::new(rng.next() * 100.0, rng.next() * 100.0);
            let k = 1 + (rng.next() * 7.0) as usize;
            let peers: Vec<CacheEntry> = (0..(rng.next() * 4.0) as usize)
                .map(|_| {
                    let loc = Point::new(
                        q.x + rng.next() * 30.0 - 15.0,
                        q.y + rng.next() * 30.0 - 15.0,
                    );
                    honest_peer(loc, &pois, 1 + (rng.next() * 8.0) as usize)
                })
                .collect();
            let direct = engine.query_with(q, k, &peers, &server, &mut QueryContext::new());

            let peers_only = engine.query_peers_only_with(q, k, &peers, &mut QueryContext::new());
            let deferred = if peers_only.resolution() == Resolution::Unresolved {
                let req = engine.residual_request(trial as u64, q, k, &peers_only);
                let resp = server.knn_one(req.query, req.count, req.bounds);
                engine.complete_residual(k, peers_only, resp)
            } else {
                peers_only
            };
            assert_eq!(deferred.results, direct.results, "trial {trial}");
            assert_eq!(
                deferred.extra_certain, direct.extra_certain,
                "trial {trial}"
            );
            assert_eq!(deferred.bounds, direct.bounds, "trial {trial}");
            assert_eq!(deferred.heap_state, direct.heap_state, "trial {trial}");
            assert_eq!(
                deferred.trace.resolutions, direct.trace.resolutions,
                "trial {trial}"
            );
            assert_eq!(
                deferred.trace.server_accesses, direct.trace.server_accesses,
                "trial {trial}"
            );
            assert_eq!(
                deferred.trace.server_contacted, direct.trace.server_contacted,
                "trial {trial}"
            );
            assert_eq!(
                deferred.trace.stage_calls, direct.trace.stage_calls,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn peers_with_empty_caches_are_ignored() {
        let empty = CacheEntry::new(Point::ORIGIN, vec![]);
        let engine = SennEngine::default();
        let out = engine.query_peers_only_with(
            Point::new(1.0, 1.0),
            2,
            std::slice::from_ref(&empty),
            &mut QueryContext::new(),
        );
        assert_eq!(out.resolution(), Resolution::Unresolved);
        assert!(out.results.is_empty());
    }

    #[test]
    fn duplicate_pois_across_peers_dedupe() {
        let pois = vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let p1 = honest_peer(Point::new(0.2, 0.0), &pois, 3);
        let p2 = honest_peer(Point::new(0.3, 0.1), &pois, 3);
        let engine = SennEngine::default();
        let out =
            engine.query_peers_only_with(Point::ORIGIN, 3, &[p1, p2], &mut QueryContext::new());
        let mut ids: Vec<u64> = out.results.iter().map(|e| e.poi.poi_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.results.len(), "no POI appears twice");
    }

    #[test]
    fn multi_peer_resolution_reported() {
        // Fig. 7-style: only the merged region verifies the full set.
        let q = Point::new(0.0, 0.0);
        let cand = (100u64, 0.0, 0.8);
        let mk = |loc: Point, extra: &[(u64, f64, f64)]| {
            let mut v = vec![CachedNn {
                poi_id: cand.0,
                position: Point::new(cand.1, cand.2),
            }];
            v.extend(extra.iter().map(|&(id, x, y)| CachedNn {
                poi_id: id,
                position: Point::new(x, y),
            }));
            CacheEntry::new(loc, v)
        };
        let p3 = mk(
            Point::new(-0.7, 0.0),
            &[(101, -1.0, -0.9), (102, -2.05, 0.0)],
        );
        let p4 = mk(Point::new(0.7, 0.0), &[(103, 1.0, -0.9), (104, 2.05, 0.0)]);
        let engine = SennEngine::default();
        let out = engine.query_peers_only_with(q, 1, &[p3, p4], &mut QueryContext::new());
        assert_eq!(out.resolution(), Resolution::MultiPeer);
        assert_eq!(out.certain()[0].poi.poi_id, 100);
    }

    #[test]
    fn stage_timings_cover_the_stages_that_ran() {
        let pois: Vec<Point> = (0..30).map(|i| Point::new(i as f64, 0.0)).collect();
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let engine = SennEngine::default();
        // Server-bound query: probe + single ran, server residual ran.
        let out = engine.query_with::<CacheEntry>(
            Point::new(5.5, 3.0),
            3,
            &[],
            &server,
            &mut QueryContext::new(),
        );
        assert_eq!(out.trace.stage_calls[0], 1, "peer probe runs once");
        assert_eq!(out.trace.stage_calls[1], 1, "single verify runs once");
        assert_eq!(out.trace.stage_calls[2], 0, "no peers: multi skipped");
        assert_eq!(out.trace.stage_calls[3], 1, "server residual ran");
        // Peer-resolved query: no server stage.
        let peer = honest_peer(Point::new(5.0, 0.1), &pois, 6);
        let out = engine.query_with(
            Point::new(5.2, 0.0),
            2,
            std::slice::from_ref(&peer),
            &server,
            &mut QueryContext::new(),
        );
        assert_eq!(out.resolution(), Resolution::SinglePeer);
        assert_eq!(out.trace.stage_calls[3], 0, "peer-resolved: no server");
    }
}
