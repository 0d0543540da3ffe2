//! The staged query pipeline and its reusable [`QueryContext`].
//!
//! Algorithm 1 decomposes into four explicit stages, run in order by the
//! [`crate::SennEngine`] driver:
//!
//! ```text
//! PeerProbe ──► SingleVerify ──► MultiVerify ──► ServerResidual
//!  (§3.1,         (§3.2.1,         (§3.2.2,        (§3.3, EINN
//!   Heur. 3.3)     Lemma 3.2)       Lemma 3.8)      bounds)
//! ```
//!
//! Each stage is an ordinary function over a [`QueryContext`], so it can
//! be exercised (and timed) in isolation. The context owns *all* per-query
//! scratch — the result heap `H`, the sorted peer-order buffer, and the
//! region/candidate buffers of the multi-peer stage — so batch drivers
//! (`senn-par` workers, the simulator) allocate one context per thread and
//! reuse it across every query instead of allocating per query.
//!
//! ## Ownership rules
//!
//! * A context may be reused across queries, engines, `k`s and peer sets:
//!   [`QueryContext::begin`] re-arms every buffer, and nothing observable
//!   leaks from one query into the next (property-tested).
//! * Stage functions borrow the context mutably and communicate only
//!   through it (heap, order) and their return values — no hidden state.
//! * The context never borrows peer data: peers are addressed through
//!   `u32` indices into the caller's slice, which keeps the context
//!   `'static` and storable in worker structs.

use std::borrow::Borrow;
use std::collections::HashSet;

use senn_cache::{CacheEntry, CachedNn};
use senn_geom::{Circle, Point};
use senn_rtree::SearchBounds;

use crate::heap::{HeapEntry, ResultHeap};
use crate::multiple::{
    collect_candidates, collect_circles, verify_candidates, CertainRegion, RegionMethod,
};
use crate::server::ServerResponse;
use crate::service::ServerRequest;
use crate::single::knn_single;
use crate::trace::QueryTrace;
use crate::transport::RequestId;

/// Reusable scratch of the multi-peer verification stage (and the cache
/// extension walk): candidate list, dedup set and certain-area circles.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    /// `(distance, poi)` candidates, ascending by distance after
    /// collection.
    pub candidates: Vec<(f64, CachedNn)>,
    /// POI-id dedup set for candidate collection.
    pub seen: HashSet<u64>,
    /// Certain-area circles feeding the region build.
    pub circles: Vec<Circle>,
}

/// All per-query scratch of the staged pipeline. Create once per worker,
/// reuse for every query (see the module docs for the ownership rules).
#[derive(Debug)]
pub struct QueryContext {
    /// The result heap `H` (Table 1), re-armed by [`Self::begin`].
    pub heap: ResultHeap,
    /// Indices of the non-empty peers, sorted by cached-query-location
    /// distance (Heuristic 3.3) after [`peer_probe`].
    pub order: Vec<u32>,
    /// Buffers of the multi-peer stage and the cache-extension walk.
    pub verify: VerifyScratch,
    /// The trace of the query in flight, taken by the driver on finish.
    pub trace: QueryTrace,
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
            verify: VerifyScratch::default(),
            trace: QueryTrace::new(),
        }
    }

    /// Re-arms every buffer for a new query with the given `k`.
    pub fn begin(&mut self, k: usize) {
        self.heap.reset(k);
        self.order.clear();
        self.trace.reset();
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

/// **Stage 1 — SingleVerify**: runs `kNN_single` (Lemma 3.2) over the
/// probed peers in order, folding certain and uncertain candidates into
/// `H` and stopping early once `k` certain NNs are verified. Returns true
/// when the query is fully answered.
pub fn single_verify<B: Borrow<CacheEntry>>(
    ctx: &mut QueryContext,
    query: Point,
    peers: &[B],
) -> bool {
    for &i in &ctx.order {
        knn_single(query, peers[i as usize].borrow(), &mut ctx.heap);
        if ctx.heap.is_certain_complete() {
            return true;
        }
    }
    ctx.heap.is_certain_complete()
}

/// **Stage 2 — MultiVerify**: merges the certain areas of all probed peers
/// into the certain region `R_c` and verifies the deduplicated candidates
/// against it (Lemma 3.8), walking ascending by distance until the first
/// failure. Returns true when the query is fully answered.
pub fn multi_verify<B: Borrow<CacheEntry>>(
    ctx: &mut QueryContext,
    query: Point,
    peers: &[B],
    method: RegionMethod,
) -> bool {
    if ctx.order.is_empty() {
        return false;
    }
    let scratch = &mut ctx.verify;
    collect_circles(
        ctx.order.iter().map(|&i| peers[i as usize].borrow()),
        &mut scratch.circles,
    );
    let region = CertainRegion::from_circles(&scratch.circles, method);
    if region.is_empty() {
        return false;
    }
    scratch.seen.clear();
    collect_candidates(
        query,
        ctx.order.iter().map(|&i| peers[i as usize].borrow()),
        &mut scratch.candidates,
        &mut scratch.seen,
    );
    verify_candidates(query, &region, &scratch.candidates, &mut ctx.heap);
    ctx.heap.is_certain_complete()
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
/// certain prefix the peer stages verified, without contacting any
/// service.
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
/// collect one interval's residual requests and submit them as a single
/// [`SpatialService::submit`](crate::service::SpatialService::submit)
/// batch.
pub fn residual_request(
    certain: &[HeapEntry],
    id: impl Into<RequestId>,
    query: Point,
    k: usize,
    bounds: SearchBounds,
    server_fetch: usize,
) -> ServerRequest {
    let strictly_below = match bounds.lower {
        Some(lb) => certain
            .iter()
            .filter(|e| e.dist < lb - senn_geom::EPS)
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
/// `extra_certain` for the cache-refill policy.
pub fn merge_residual(certain: &[HeapEntry], k: usize, response: ServerResponse) -> ServerResidual {
    let mut merged: Vec<HeapEntry> = certain.to_vec();
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
        let certain = [HeapEntry {
            poi: poi(1),
            dist: 1.0,
            certain: true,
        }];
        let response = ServerResponse {
            pois: vec![(poi(2), f64::NAN), (poi(3), 0.5)],
            node_accesses: 4,
        };
        let merged = merge_residual(&certain, 2, response);
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
        let mut ctx = QueryContext::new();
        ctx.begin(1);
        let peers: Vec<CacheEntry> = Vec::new();
        peer_probe(&mut ctx, Point::ORIGIN, &peers);
        assert!(!multi_verify(
            &mut ctx,
            Point::ORIGIN,
            &peers,
            RegionMethod::default()
        ));
        assert!(ctx.heap.is_empty());
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
