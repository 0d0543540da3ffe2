//! The spatial-service API: the request/reply message pair and the
//! [`SpatialService`] trait whose unit of work is **one** residual query.
//!
//! ## One request at a time
//!
//! Every query the peer caches cannot verify falls through to the remote
//! spatial database (EINN over the R\*-tree, §3.3/§4.4) as one request,
//! and every caller sends exactly one: the transport dispatches each
//! request from its lane on its own, and a direct query's residual and
//! an SNNN expansion's range request are single trips too. The seam
//! therefore answers one request:
//!
//! ```text
//! client                         service
//!   │  serve(&ServerRequest) ─►  (home shard, foreign shards)
//!   │  ◄─ Option<ServerReply>    (merge, per-shard accounting)
//! ```
//!
//! [`SpatialService::serve`] returns the reply, echoing the request's
//! [`RequestId`], or `None` when the reply was lost. The provided
//! [`SpatialService::submit`] serves a slice of requests in turn, a lost
//! reply becoming [`ReplyStatus::Dropped`]. Callers that need retry or
//! overlap semantics use the client in [`crate::transport`]
//! ([`crate::transport::AsyncClient`]).
//!
//! ## Robustness
//!
//! Real services drop, delay and *refuse* requests. A reply therefore
//! carries a [`ReplyStatus`]: transient failures (`Dropped`/`TimedOut`)
//! are retried by the client layer with exponential virtual backoff and an
//! unpruned degraded fallback, while `Shed` — the transport's admission
//! edge refusing work under overload — is terminal. All waiting is
//! *virtual* (accounted in [`RequestOutcome::waited_ms`], never slept), so
//! retry schedules stay deterministic and simulation-speed.

use senn_geom::Point;
use senn_rtree::SearchBounds;

pub use crate::server::ServerResponse;
pub use crate::transport::RequestId;

/// One residual kNN query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerRequest {
    /// Client-chosen correlation id, echoed verbatim in the reply and the
    /// key of every keyed schedule (fault fates, transport service times).
    pub id: RequestId,
    /// The query location.
    pub query: Point,
    /// POIs to return under `bounds`, ascending by distance.
    pub count: usize,
    /// Branch-expanding pruning bounds (§3.3). Under a lower bound the
    /// service omits POIs strictly inside the verified circle and
    /// re-reports the boundary POI (the client dedupes it).
    pub bounds: SearchBounds,
    /// POIs that would be needed if `bounds` were dropped — `count` plus
    /// the certain prefix the lower bound lets the service skip. The
    /// degraded (unpruned) retry of the client layer asks for this many so
    /// its answer is complete without any client-held state.
    pub full_count: usize,
}

impl ServerRequest {
    /// A plain unpruned request (no bounds, `count == full_count`).
    pub fn plain(id: impl Into<RequestId>, query: Point, count: usize) -> Self {
        ServerRequest {
            id: id.into(),
            query,
            count,
            bounds: SearchBounds::NONE,
            full_count: count,
        }
    }

    /// The degraded form of this request: same query, bounds dropped,
    /// `full_count` POIs requested.
    pub fn unpruned(&self) -> Self {
        ServerRequest {
            id: self.id,
            query: self.query,
            count: self.full_count.max(self.count),
            bounds: SearchBounds::NONE,
            full_count: self.full_count.max(self.count),
        }
    }
}

/// How the service disposed of one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The search ran; `response` is authoritative.
    #[default]
    Ok,
    /// The service (or network) dropped the request; no answer.
    Dropped,
    /// The service answered too late; the reply was discarded.
    TimedOut,
    /// The transport's admission control refused the request under
    /// overload before it reached any backend. Terminal for the retry
    /// ladder: retrying against a shedding edge tightens the overload.
    Shed,
}

/// The service's answer to one [`ServerRequest`].
#[derive(Clone, Debug, Default)]
pub struct ServerReply {
    /// Echo of [`ServerRequest::id`].
    pub id: RequestId,
    /// Disposition; `response` is meaningful only for [`ReplyStatus::Ok`].
    pub status: ReplyStatus,
    /// The search result (empty unless `status` is `Ok`).
    pub response: ServerResponse,
    /// Service-side latency in milliseconds (simulated by fault-injecting
    /// wrappers; `0` for in-process backends).
    pub latency_ms: f64,
}

impl ServerReply {
    /// A successful in-process reply.
    pub fn ok(id: impl Into<RequestId>, response: ServerResponse) -> Self {
        ServerReply {
            id: id.into(),
            status: ReplyStatus::Ok,
            response,
            latency_ms: 0.0,
        }
    }

    /// The reply of a request that produced no answer: refused at the
    /// admission edge, or lost by the backend.
    pub(crate) fn failed(id: RequestId, status: ReplyStatus) -> Self {
        ServerReply {
            id,
            status,
            response: Default::default(),
            latency_ms: 0.0,
        }
    }
}

/// A remote spatial database answering kNN queries one at a time.
///
/// A reply echoes its request's `id`. In-process backends
/// ([`crate::RTreeServer`], the sharded service in `senn-server`) always
/// reply [`ReplyStatus::Ok`]; fault-injecting wrappers may drop or time
/// out individual requests, and the async transport may shed them.
pub trait SpatialService {
    /// Answers one residual query; `None` is a lost reply.
    fn serve(&self, request: &ServerRequest) -> Option<ServerReply>;

    /// Total number of POIs the service indexes.
    fn poi_count(&self) -> usize;

    /// Serves each request of `batch` in turn: one reply per request, in
    /// request order, a lost reply as [`ReplyStatus::Dropped`].
    fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
        batch
            .iter()
            .map(|r| {
                self.serve(r)
                    .unwrap_or_else(|| ServerReply::failed(r.id, ReplyStatus::Dropped))
            })
            .collect()
    }
}

impl<S: SpatialService + ?Sized> SpatialService for &S {
    fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
        (**self).serve(request)
    }

    fn poi_count(&self) -> usize {
        (**self).poi_count()
    }
}

/// What the retry ladder delivered for one request.
#[derive(Clone, Debug, Default)]
pub struct RequestOutcome {
    /// The answer (empty when `failed`).
    pub response: ServerResponse,
    /// Re-submissions after the first attempt (degraded attempt included).
    pub retries: u32,
    /// Attempts that ended in [`ReplyStatus::TimedOut`].
    pub timeouts: u32,
    /// Attempts that ended in [`ReplyStatus::Dropped`].
    pub drops: u32,
    /// Attempts refused by admission control ([`ReplyStatus::Shed`]) —
    /// terminal, so this is 0 or 1 per outcome.
    pub shed: u32,
    /// True when the answer came from the degraded (unpruned) fallback.
    pub degraded: bool,
    /// True when every attempt failed; `response` is empty and the caller
    /// must fall back to whatever it verified locally.
    pub failed: bool,
    /// Virtual wall time spent waiting: service latencies of every attempt
    /// plus the exponential backoff between rounds.
    pub waited_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RTreeServer;
    use crate::transport::{submit_with_retry, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn server() -> RTreeServer {
        RTreeServer::new((0..40).map(|i| (i as u64, Point::new(i as f64, 0.0))))
    }

    /// A service that fails each request's first `fail_first` attempts.
    struct Flaky {
        inner: RTreeServer,
        fail_first: u32,
        calls: AtomicU64,
        drop_instead: bool,
    }

    impl SpatialService for Flaky {
        fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call < self.fail_first as u64 {
                return Some(ServerReply {
                    id: request.id,
                    status: if self.drop_instead {
                        ReplyStatus::Dropped
                    } else {
                        ReplyStatus::TimedOut
                    },
                    response: ServerResponse::default(),
                    latency_ms: 7.0,
                });
            }
            self.inner.serve(request)
        }

        fn poi_count(&self) -> usize {
            self.inner.poi_count()
        }
    }

    /// A backend that loses every reply.
    struct Lost;

    impl SpatialService for Lost {
        fn serve(&self, _request: &ServerRequest) -> Option<ServerReply> {
            None
        }

        fn poi_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn serve_answers_one_request_and_submit_serves_each_in_turn() {
        let srv = server();
        let req = ServerRequest::plain(0u64, Point::new(10.2, 0.0), 3);
        let reply = srv
            .serve(&req)
            .expect("an in-process backend always replies");
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.id, req.id);
        assert_eq!(reply.response.pois.len(), 3);
        assert_eq!(reply.response.pois[0].0.poi_id, 10);
        // A lost reply comes back from `submit` as a drop of its own id.
        let reqs = [req, ServerRequest::plain(5u64, Point::ORIGIN, 1)];
        let lost = Lost.submit(&reqs);
        assert_eq!(lost.len(), 2);
        for (r, reply) in reqs.iter().zip(&lost) {
            assert_eq!((reply.id, reply.status), (r.id, ReplyStatus::Dropped));
            assert!(reply.response.pois.is_empty());
        }
    }

    #[test]
    fn infallible_service_needs_no_retry() {
        let srv = server();
        let reqs = [
            ServerRequest::plain(0u64, Point::new(3.4, 0.0), 2),
            ServerRequest::plain(1u64, Point::new(20.0, 0.0), 1),
        ];
        let outs = submit_with_retry(&srv, &reqs, &RetryPolicy::default());
        assert_eq!(outs.len(), 2);
        for out in &outs {
            assert_eq!(out.retries, 0);
            assert!(!out.failed && !out.degraded);
        }
        assert_eq!(outs[0].response.pois[0].0.poi_id, 3);
        assert_eq!(outs[1].response.pois[0].0.poi_id, 20);
    }

    #[test]
    fn retries_then_succeeds_with_attributed_timeouts() {
        let svc = Flaky {
            inner: server(),
            fail_first: 2,
            calls: AtomicU64::new(0),
            drop_instead: false,
        };
        let reqs = [ServerRequest::plain(9u64, Point::new(5.1, 0.0), 2)];
        let outs = submit_with_retry(&svc, &reqs, &RetryPolicy::default());
        assert_eq!(outs[0].retries, 2);
        assert_eq!(outs[0].timeouts, 2);
        assert_eq!(outs[0].drops, 0);
        assert!(!outs[0].failed && !outs[0].degraded);
        assert_eq!(outs[0].response.pois[0].0.poi_id, 5);
        // Virtual wait: two 7 ms latencies for the failures, one 0 ms
        // success, plus 50 + 100 backoff.
        assert!((outs[0].waited_ms - (7.0 + 50.0 + 7.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn degrades_to_unpruned_after_exhausted_attempts() {
        // Fails all 3 pruned attempts; the 4th (degraded) succeeds.
        let svc = Flaky {
            inner: server(),
            fail_first: 3,
            calls: AtomicU64::new(0),
            drop_instead: true,
        };
        let req = ServerRequest {
            id: RequestId::new(0),
            query: Point::new(4.2, 0.0),
            count: 1,
            bounds: SearchBounds {
                upper: None,
                lower: Some(1.0),
            },
            full_count: 3,
        };
        let outs = submit_with_retry(&svc, &[req], &RetryPolicy::default());
        assert!(outs[0].degraded);
        assert!(!outs[0].failed);
        assert_eq!(outs[0].drops, 3);
        assert_eq!(outs[0].retries, 3, "two pruned retries plus the fallback");
        // Unpruned fallback asked for full_count POIs without bounds.
        assert_eq!(outs[0].response.pois.len(), 3);
        assert_eq!(outs[0].response.pois[0].0.poi_id, 4);
    }

    #[test]
    fn total_failure_is_reported_not_panicked() {
        let svc = Flaky {
            inner: server(),
            fail_first: u32::MAX,
            calls: AtomicU64::new(0),
            drop_instead: false,
        };
        let reqs = [ServerRequest::plain(0u64, Point::ORIGIN, 2)];
        let outs = submit_with_retry(&svc, &reqs, &RetryPolicy::default());
        assert!(outs[0].failed);
        assert!(outs[0].response.pois.is_empty());
        assert_eq!(outs[0].timeouts, 4, "3 pruned + 1 degraded attempt");
    }

    #[test]
    fn shed_replies_are_terminal_for_the_blocking_ladder() {
        // A service that sheds every request: the ladder must not retry.
        struct Shedder;
        impl SpatialService for Shedder {
            fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
                Some(ServerReply::failed(request.id, ReplyStatus::Shed))
            }
            fn poi_count(&self) -> usize {
                0
            }
        }
        let reqs = [ServerRequest::plain(4u64, Point::ORIGIN, 2)];
        let outs = submit_with_retry(&Shedder, &reqs, &RetryPolicy::default());
        assert!(outs[0].failed);
        assert_eq!(outs[0].shed, 1);
        assert_eq!(outs[0].retries, 0, "shed is terminal, not retried");
        assert_eq!(outs[0].timeouts, 0);
    }

    #[test]
    fn unpruned_form_is_self_contained() {
        let req = ServerRequest {
            id: RequestId::new(3),
            query: Point::ORIGIN,
            count: 2,
            bounds: SearchBounds {
                upper: Some(9.0),
                lower: Some(4.0),
            },
            full_count: 6,
        };
        let u = req.unpruned();
        assert!(u.bounds.is_none());
        assert_eq!(u.count, 6);
        assert_eq!(u.id.raw(), 3);
    }
}
