//! The staged query pipeline: the four stage functions of Algorithm 1,
//! the verification walk they share ([`QueryContext`]) and what the walk
//! proved ([`Certificate`]).
//!
//! [`crate::SennEngine`] runs the stages in order on one context, each
//! under its stage timer:
//!
//! ```text
//! PeerProbe ──► SingleVerify ──► MultiVerify ──► ServerResidual
//!  (§3.1,         (§3.2.1,         (§3.2.2,        (§3.3, EINN
//!   Heur. 3.3)     Lemma 3.2)       Lemma 3.8)      bounds)
//! ```
//!
//! ## The walk and its certificate
//!
//! [`QueryContext::begin`] starts a walk at `k`. [`peer_probe`] orders the
//! peers; [`single_verify`] classifies every cached POI of the probed
//! peers into the certificate's **candidate table** — one row per POI,
//! ascending by distance, with the first probed peer that certifies it
//! (Lemma 3.2) — and reads `H` at `k` from it, stopping where
//! `kNN_single` would; [`multi_verify`], when that fell short, certifies
//! the rows within `R_c`'s reach. Every test is centred on the query, so
//! the certified rows are a prefix of the table, decided by two radii:
//! `r_single`, the largest distance some probed circle certifies (per
//! circle the last float its `d + Dist(Q, P) <= r` passes), and `r_cov`,
//! how far from the query `R_c`'s exposed boundary begins (Lemma 3.8,
//! [`CertainRegion::covered_radius`], capped at the farthest row and
//! computed the first time a reader asks beyond `r_single`). MultiVerify
//! reads the rows within `r_cov`, the cache extension and an SNNN range
//! round those within `max(r_single, r_cov)`; `R_c` is built and its
//! radius computed at most once per walk.
//!
//! ## Ownership rules
//!
//! * A context may be reused across queries, engines, `k`s and peer sets:
//!   [`QueryContext::begin`] starts a new walk, and nothing observable
//!   leaks from one walk into the next (property-tested).
//! * Stage functions borrow the context mutably and communicate only
//!   through it and their return values — no hidden state.
//! * The context never borrows peer data: once [`single_verify`] has built
//!   the table the walk is self-contained, which keeps the context
//!   `'static` and storable in worker structs.
//! * The certificate can leave the context
//!   ([`QueryContext::take_certificate`]): it answers for its rows and
//!   disks as the context would have (property-tested), and the context's
//!   next walk grows a new one. The rest — heap, probe order, ranks,
//!   trace and the POI index the table is built with — stays.

use std::borrow::Borrow;
use std::mem::take;

use senn_cache::CacheEntry;
use senn_geom::{Circle, Point};
use senn_rtree::SearchBounds;

use crate::heap::{HeapEntry, ResultHeap};
use crate::multiple::{
    collect_candidates, collect_circles, Candidate, CertainRegion, PoiIndex, RegionMethod,
};
use crate::server::ServerResponse;
use crate::service::ServerRequest;
use crate::trace::QueryTrace;
use crate::transport::RequestId;
use crate::verify::certified_radius;

/// What one query's peers proved about the POIs around its query point
/// (Lemmas 3.2 and 3.8): the candidate table, the peers' circles, the two
/// radii and `R_c`, built under the walk's region method. An SNNN
/// expansion reads nothing else of the walk.
#[derive(Debug)]
pub struct Certificate {
    query: Point,
    /// The method `R_c` is built under.
    pub(crate) method: RegionMethod,
    /// The candidate table, ascending by distance; `certified_by` indexes
    /// the probe order.
    table: Vec<Candidate>,
    /// Certain-area circles of the probed peers, in probe order.
    circles: Vec<Circle>,
    /// Lemma 3.2 as a radius: a row is certified by some probed circle
    /// iff its distance is at most this (`-∞` with no circle; the last
    /// row's distance in a server-resolved round's certificate).
    r_single: f64,
    /// `R_c`, built with `r_cov`.
    region: Option<CertainRegion>,
    /// Lemma 3.8 as a radius: `R_c`'s covered radius around the query,
    /// computed up to `cov_cap` (both `-∞` before the first computation).
    r_cov: f64,
    cov_cap: f64,
    /// `r_cov` computations of the walk (`R_c` is built with the first).
    #[cfg(test)]
    pub(crate) radius_computations: usize,
}

impl Default for Certificate {
    fn default() -> Self {
        Certificate {
            query: Point::ORIGIN,
            method: RegionMethod::default(),
            table: Vec::new(),
            circles: Vec::new(),
            r_single: f64::NEG_INFINITY,
            region: None,
            r_cov: f64::NEG_INFINITY,
            cov_cap: f64::NEG_INFINITY,
            #[cfg(test)]
            radius_computations: 0,
        }
    }
}

impl Certificate {
    /// The certificate of a server-resolved round: its rows are the
    /// round's certain answer, ascending by distance, all certain. It has
    /// no circle, so it holds no disk: the server vouched for the `k`
    /// nearest POIs, not for every POI within the `k`-th distance.
    pub fn from_answer(query: Point, answer: &[HeapEntry]) -> Self {
        let row = |e: &HeapEntry| Candidate {
            dist: e.dist,
            poi: e.poi,
            certified_by: Candidate::UNCERTIFIED,
        };
        Certificate {
            query,
            table: answer.iter().map(row).collect(),
            r_single: answer.last().map_or(f64::NEG_INFINITY, |e| e.dist),
            ..Certificate::default()
        }
    }

    /// Empties the certificate for a new walk, keeping its buffers.
    fn restart(&mut self) {
        self.table.clear();
        self.circles.clear();
        let (table, circles) = (take(&mut self.table), take(&mut self.circles));
        *self = Certificate {
            table,
            circles,
            ..Certificate::default()
        };
    }

    /// Distance of the farthest row (NaN distances aside; `-∞` with none).
    pub(crate) fn farthest(&self) -> f64 {
        let mut dists = self.table.iter().rev().map(|c| c.dist);
        dists.find(|d| !d.is_nan()).unwrap_or(f64::NEG_INFINITY)
    }

    /// `r_cov`, good for deciding a row at `dist`: the first call builds
    /// `R_c` and computes its covered radius up to the farthest row (or
    /// `dist`, beyond it); a later call computes again only for a `dist`
    /// beyond a cap the radius reached.
    fn r_cov(&mut self, dist: f64) -> f64 {
        if self.r_cov == self.cov_cap && dist > self.cov_cap {
            let cap = dist.max(self.farthest());
            let region = self
                .region
                .get_or_insert_with(|| CertainRegion::from_circles(&self.circles, self.method));
            #[cfg(test)]
            {
                self.radius_computations += 1;
            }
            self.r_cov = region.covered_radius(self.query, cap);
            self.cov_cap = cap;
        }
        self.r_cov
    }

    /// True when a row at `dist` is certain: within `r_single`, or — asked
    /// only then — within `r_cov`.
    fn certifies(&mut self, dist: f64) -> bool {
        dist <= self.r_single || dist <= self.r_cov(dist)
    }

    /// Table row `row` if it is certain (Lemma 3.2 through some probed
    /// circle, or Lemma 3.8); the certain rows are a prefix of the table.
    pub(crate) fn certain_row(&mut self, row: usize) -> Option<Candidate> {
        let c = *self.table.get(row)?;
        self.certifies(c.dist).then_some(c)
    }

    /// The certain NNs beyond `results` worth caching, at most `limit` of
    /// them, ascending by distance: the paper's client caches "as many NN
    /// as its cache capacity allows", and the certain set is a
    /// downward-closed prefix of the true ranking, so the extension takes
    /// the table's certain rows. `R_c` is consulted only when a row beyond
    /// `r_single` is needed.
    pub(crate) fn extend(&mut self, results: &[HeapEntry], limit: usize) -> Vec<HeapEntry> {
        let entry = |c: Candidate| HeapEntry {
            poi: c.poi,
            dist: c.dist,
            certain: true,
        };
        (0..)
            .map_while(|row| self.certain_row(row))
            .filter(|c| results.iter().all(|e| e.poi.poi_id != c.poi.poi_id))
            .take(limit)
            .map(entry)
            .collect()
    }

    /// The certain rows, ascending by distance, as far as the readers so
    /// far have needed `R_c`: every row within `max(r_single, r_cov)`.
    pub(crate) fn certified(&self) -> &[Candidate] {
        let reach = self.r_single.max(self.r_cov);
        &self.table[..self.table.partition_point(|c| c.dist <= reach)]
    }

    /// True when the certificate holds every POI within `radius`: a row
    /// there would be certain (one peer's Lemma 3.2, or Lemma 3.8), so
    /// every row there is. Never without a circle, and never for an
    /// infinite or NaN radius.
    pub(crate) fn holds_disk(&mut self, radius: f64) -> bool {
        radius < f64::INFINITY && !self.circles.is_empty() && self.certifies(radius)
    }
}

/// One verification walk — all state of a query's peer stages — in
/// reusable buffers. Create once per worker, reuse for every query (see
/// the module docs).
#[derive(Debug)]
pub struct QueryContext {
    /// The result heap `H` (Table 1) of the walk, at its `k`.
    pub(crate) heap: ResultHeap,
    /// Indices of the non-empty peers, sorted by cached-query-location
    /// distance (Heuristic 3.3) after [`peer_probe`].
    pub(crate) order: Vec<u32>,
    /// The trace of the walk, taken by the engine when the walk finishes.
    pub(crate) trace: QueryTrace,
    /// What the walk proved.
    pub(crate) cert: Certificate,
    /// Scratch of the table build.
    index: PoiIndex,
    /// `certified_by` of every certified row, ascending: entry `k - 1` is
    /// the last peer single-peer verification visits before it holds `k`
    /// certain NNs.
    ranks: Vec<u32>,
}

impl Default for QueryContext {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryContext {
    /// A fresh context (buffers are sized on first use).
    pub fn new() -> Self {
        QueryContext {
            heap: ResultHeap::new(1),
            order: Vec::new(),
            trace: QueryTrace::new(),
            cert: Certificate::default(),
            index: PoiIndex::default(),
            ranks: Vec::new(),
        }
    }

    /// Moves the certificate of the walk in progress out of the context;
    /// the context's next walk starts a new one.
    pub fn take_certificate(&mut self) -> Certificate {
        take(&mut self.cert)
    }

    /// Starts a new walk at `k`: re-arms every buffer.
    pub fn begin(&mut self, k: usize) {
        self.order.clear();
        self.trace.reset();
        self.ranks.clear();
        self.cert.restart();
        self.heap.reset(k);
    }
}

/// **Stage 0 — PeerProbe**: filters out peers with empty caches and sorts
/// the rest by the distance of their cached query location to the querier
/// (Heuristic 3.3: closer cached locations are likelier to yield adjacent
/// POIs, so processing them first fills `H` faster). The resulting order
/// lives in `ctx.order`; the stable sort makes the order — and therefore
/// every downstream stage — deterministic.
pub fn peer_probe<B: Borrow<CacheEntry>>(ctx: &mut QueryContext, query: Point, peers: &[B]) {
    ctx.order.extend(
        peers
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let entry: &CacheEntry = (*p).borrow();
                !entry.is_empty()
            })
            .map(|(i, _)| i as u32),
    );
    ctx.order.sort_by(|&a, &b| {
        query
            .dist_sq(peers[a as usize].borrow().query_location)
            .total_cmp(&query.dist_sq(peers[b as usize].borrow().query_location))
    });
}

/// **Stage 1 — SingleVerify**: classifies every cached POI of the probed
/// peers with Lemma 3.2 into the walk's candidate table and computes
/// `r_single`, then reads `H` at the context's `k`: what visiting the
/// peers in probe order, stopping at the first one that brings `k`
/// certain NNs, leaves in it. Returns true when the query is fully
/// answered.
pub fn single_verify<B: Borrow<CacheEntry>>(
    ctx: &mut QueryContext,
    query: Point,
    peers: &[B],
) -> bool {
    let QueryContext {
        heap,
        order,
        cert,
        index,
        ranks,
        ..
    } = ctx;
    cert.query = query;
    let probed = || order.iter().map(|&i| peers[i as usize].borrow());
    collect_circles(probed(), &mut cert.circles);
    collect_candidates(query, probed(), &mut cert.table, index);
    ranks.clear();
    ranks.extend(
        cert.table
            .iter()
            .map(|c| c.certified_by)
            .filter(|&by| by != Candidate::UNCERTIFIED),
    );
    ranks.sort_unstable();
    cert.r_single = cert
        .circles
        .iter()
        .map(|p| certified_radius(query.dist(p.center), p.radius))
        .fold(f64::NEG_INFINITY, f64::max);

    let k = heap.k();
    let table = &cert.table;
    if let Some(&last) = ranks.get(k - 1) {
        let visited = table.iter().filter(|c| c.certified_by <= last);
        for c in visited.take(k) {
            heap.push(c.poi, c.dist, true);
        }
        return true;
    }
    // Every probed peer was visited: all certified rows, then the nearest
    // of the rest as uncertain fill.
    let certified = |c: &&Candidate| c.certified_by != Candidate::UNCERTIFIED;
    for c in table.iter().filter(certified) {
        heap.push(c.poi, c.dist, true);
    }
    let room = k - ranks.len();
    for c in table.iter().filter(|c| !certified(c)).take(room) {
        heap.push(c.poi, c.dist, false);
    }
    false
}

/// **Stage 2 — MultiVerify** (after [`single_verify`] fell short): merges
/// the certain areas of all probed peers into the certain region `R_c`,
/// built under `method`, and certifies the table's candidates within its
/// covered radius around the query (Lemma 3.8), ascending by distance,
/// until `H` holds `k` certain NNs (true) or they run out (false). The
/// walk holds what it needs of `query` and `peers` since
/// [`single_verify`].
pub fn multi_verify<B: Borrow<CacheEntry>>(
    ctx: &mut QueryContext,
    query: Point,
    peers: &[B],
    method: RegionMethod,
) -> bool {
    let _ = (query, peers);
    let QueryContext { heap, cert, .. } = ctx;
    cert.method = method;
    let r_cov = cert.r_cov(cert.farthest());
    for c in cert.table.iter().take_while(|c| c.dist <= r_cov) {
        heap.insert_certain(c.poi, c.dist);
        if heap.is_certain_complete() {
            return true;
        }
    }
    false
}

/// What **Stage 3 — ServerResidual** produced.
pub struct ServerResidual {
    /// The complete certain answer: peer-verified certains below the lower
    /// bound merged with the authoritative server response, ascending by
    /// distance, truncated to `k`.
    pub results: Vec<HeapEntry>,
    /// Over-fetched certain NNs beyond `k` (cache refill material).
    pub extra_certain: Vec<HeapEntry>,
    /// R\*-tree node accesses of the server search.
    pub node_accesses: u64,
}

/// Builds the wire request of **Stage 3 — ServerResidual** from the
/// distances of the certain prefix the peer stages verified, without
/// contacting any service.
///
/// With a lower bound `lb` the server will skip POIs strictly inside the
/// verified circle — exactly the certain entries below `lb` — so the
/// request only asks for the residual `k - strictly_below`. `server_fetch`
/// over-fetches for the cache-refill policy; because the branch-expanding
/// upper bound only bounds the *k-th* NN, over-fetching forwards the lower
/// bound alone. `full_count` carries `count + strictly_below` so a degraded
/// unpruned retry ([`ServerRequest::unpruned`]) is self-contained.
///
/// Splitting the build from [`merge_residual`] is what lets batch drivers
/// hand each residual request to the transport and merge its reply when
/// it completes.
pub fn residual_request(
    certain: impl IntoIterator<Item = f64>,
    id: impl Into<RequestId>,
    query: Point,
    k: usize,
    bounds: SearchBounds,
    server_fetch: usize,
) -> ServerRequest {
    let strictly_below = match bounds.lower {
        Some(lb) => certain
            .into_iter()
            .filter(|&d| d < lb - senn_geom::EPS)
            .count(),
        None => 0,
    };
    let need = k - strictly_below.min(k);
    let fetch = need.max(server_fetch);
    let wire_bounds = if fetch > need {
        SearchBounds {
            upper: None,
            lower: bounds.lower,
        }
    } else {
        bounds
    };
    ServerRequest {
        id: id.into(),
        query,
        count: fetch,
        bounds: wire_bounds,
        full_count: fetch + strictly_below,
    }
}

/// Merges a service response with the peer-verified certain prefix — the
/// completion half of **Stage 3 — ServerResidual**.
///
/// Re-reported boundary POIs (and, after a degraded unpruned retry, the
/// whole verified prefix) are deduplicated by POI id; the merge sorts
/// ascending by distance and splits everything beyond `k` into
/// `extra_certain` for the cache-refill policy. `certain` is consumed: the
/// answer grows in the peers-only outcome's own allocation.
pub fn merge_residual(
    certain: Vec<HeapEntry>,
    k: usize,
    response: ServerResponse,
) -> ServerResidual {
    let mut merged = certain;
    for (poi, dist) in response.pois {
        if merged.iter().any(|e| e.poi.poi_id == poi.poi_id) {
            continue;
        }
        merged.push(HeapEntry {
            poi,
            dist,
            certain: true,
        });
    }
    merged.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    let extra_certain = if merged.len() > k {
        merged.split_off(k)
    } else {
        Vec::new()
    };
    ServerResidual {
        results: merged,
        extra_certain,
        node_accesses: response.node_accesses,
    }
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
    fn peer_probe_filters_and_sorts() {
        let mut ctx = QueryContext::new();
        ctx.begin(2);
        let peers = vec![
            entry(Point::new(10.0, 0.0), &[(1, 10.0, 1.0)]),
            entry(Point::new(3.0, 0.0), &[]), // empty: dropped
            entry(Point::new(1.0, 0.0), &[(2, 1.0, 1.0)]),
            entry(Point::new(5.0, 0.0), &[(3, 5.0, 1.0)]),
        ];
        peer_probe(&mut ctx, Point::ORIGIN, &peers);
        assert_eq!(ctx.order, vec![2, 3, 0]);
    }

    #[test]
    fn peer_probe_survives_a_nan_cached_location() {
        // A malformed peer must not panic the sort; it orders last
        // (`total_cmp` puts NaN above every finite distance).
        let mut ctx = QueryContext::new();
        ctx.begin(2);
        let peers = vec![
            entry(Point::new(f64::NAN, 0.0), &[(1, 1.0, 1.0)]),
            entry(Point::new(4.0, 0.0), &[(2, 4.0, 1.0)]),
            entry(Point::new(2.0, 0.0), &[(3, 2.0, 1.0)]),
        ];
        peer_probe(&mut ctx, Point::ORIGIN, &peers);
        assert_eq!(ctx.order, vec![2, 1, 0]);
    }

    #[test]
    fn merge_residual_survives_a_nan_response_distance() {
        let poi = |id| CachedNn {
            poi_id: id,
            position: Point::ORIGIN,
        };
        let certain = vec![HeapEntry {
            poi: poi(1),
            dist: 1.0,
            certain: true,
        }];
        let response = ServerResponse {
            pois: vec![(poi(2), f64::NAN), (poi(3), 0.5)],
            node_accesses: 4,
        };
        let merged = merge_residual(certain, 2, response);
        let ids = |v: &[HeapEntry]| v.iter().map(|e| e.poi.poi_id).collect::<Vec<_>>();
        assert_eq!(ids(&merged.results), vec![3, 1]);
        assert_eq!(ids(&merged.extra_certain), vec![2], "NaN sorts last");
        assert_eq!(merged.node_accesses, 4);
    }

    #[test]
    fn single_verify_stops_early() {
        let mut ctx = QueryContext::new();
        ctx.begin(2);
        let peers = vec![
            entry(Point::ORIGIN, &[(1, 1.0, 0.0), (2, 2.0, 0.0)]),
            entry(Point::new(50.0, 0.0), &[(3, 49.0, 0.0)]),
        ];
        peer_probe(&mut ctx, Point::ORIGIN, &peers);
        assert!(single_verify(&mut ctx, Point::ORIGIN, &peers));
        assert!(!ctx.heap.contains(3), "second peer never processed");
    }

    #[test]
    fn multi_verify_requires_probed_peers() {
        for method in [
            RegionMethod::Exact,
            RegionMethod::Polygonized { vertices: 24 },
        ] {
            let mut ctx = QueryContext::new();
            ctx.begin(1);
            let peers: Vec<CacheEntry> = Vec::new();
            peer_probe(&mut ctx, Point::ORIGIN, &peers);
            assert!(!multi_verify(&mut ctx, Point::ORIGIN, &peers, method));
            assert!(ctx.heap.is_empty());
        }
    }

    #[test]
    fn context_reuse_resets_all_buffers() {
        let mut ctx = QueryContext::new();
        ctx.begin(3);
        let peers = vec![entry(Point::ORIGIN, &[(1, 1.0, 0.0), (2, 2.0, 0.0)])];
        peer_probe(&mut ctx, Point::ORIGIN, &peers);
        single_verify(&mut ctx, Point::ORIGIN, &peers);
        assert!(!ctx.heap.is_empty());
        assert!(!ctx.order.is_empty());
        ctx.begin(5);
        assert!(ctx.heap.is_empty());
        assert_eq!(ctx.heap.k(), 5);
        assert!(ctx.order.is_empty());
        assert_eq!(ctx.trace, QueryTrace::new());
    }
}
