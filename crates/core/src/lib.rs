#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # senn-core
//!
//! The paper's primary contribution: **sharing-based nearest-neighbor
//! queries** (Section 3). A mobile host `Q` first tries to answer its kNN
//! query from the cached results of peers in radio range, *locally
//! verifying* which candidate POIs are guaranteed (certain) answers, and
//! only contacts the remote spatial database for whatever remains — carrying
//! pruning bounds that shrink the server-side R\*-tree search.
//!
//! Components, mapped to the paper:
//!
//! | Module | Paper |
//! |---|---|
//! | [`verify`] | Lemmas 3.1–3.7: single-peer certainty and rank rules |
//! | [`heap`] | the result heap `H` (Table 1) and its six states (§3.3) |
//! | [`single`] | `kNN_single` — single-peer verification (§3.2.1) |
//! | [`multiple`] | `kNN_multiple` — multi-peer certain region `R_c` (§3.2.2, Lemma 3.8) |
//! | [`bounds`] | branch-expanding upper/lower bounds (§3.3) |
//! | [`pipeline`] | the four stage functions (PeerProbe → SingleVerify → MultiVerify → ServerResidual), the walk they share and its certificate |
//! | [`distance`] | the [`DistanceModel`] target-metric seam (Euclidean here, network in `senn-network`) |
//! | [`trace`] | the unified [`QueryTrace`] outcome (attribution + accounting + stage timings) |
//! | [`senn`] | Algorithm 1 — the SENN driver over the staged kernel |
//! | [`snnn`] | Algorithm 2 — the SNNN/IER driver, generic over [`DistanceModel`] (§3.4) |
//! | [`service`] | the one-request request/reply service API |
//! | [`transport`] | the event-driven async transport (virtual clock, admission control) and the retry/degradation client |
//! | [`server`] | the R\*-tree reference backend of the service seam (§4.4) |
//!
//! The crate is pure logic: peers are passed in as [`PeerCacheEntry`]
//! values, the database as a [`SpatialService`] implementation; the
//! simulator (`senn-sim`) wires both to real moving hosts, and the
//! `senn-server` crate provides a sharded, fault-injectable backend.

pub mod bounds;
pub mod distance;
pub mod heap;
pub mod multiple;
pub mod pipeline;
pub mod senn;
pub mod server;
pub mod service;
pub mod single;
pub mod snnn;
pub mod splitmix;
pub mod trace;
pub mod transport;
pub mod verify;

pub use distance::{DistanceModel, Euclidean, EuclideanBound, LowerBoundOracle, NeverPrune};
pub use heap::{HeapEntry, HeapState, ResultHeap};
pub use pipeline::{Certificate, QueryContext};
pub use senn::{SennConfig, SennEngine, SennOutcome};
pub use senn_cache::{CacheEntry as PeerCacheEntry, CachedNn};
pub use senn_rtree::SearchBounds;
pub use server::{RTreeServer, ServerResponse};
pub use service::{ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService};
pub use snnn::{snnn_query_pruned_with, SnnnConfig, SnnnExpansion, SnnnNeighbor, SnnnOutcome};
pub use trace::{QueryTrace, Resolution, Stage, STAGE_COUNT, STAGE_NAMES};
pub use transport::{
    submit_with_retry, AsyncClient, RequestId, RetryPolicy, Ticket, Transport, TransportPolicy,
    TransportStats,
};

/// One-stop imports for typical users of the crate: the engines, the
/// service seam and the message/outcome types they exchange.
///
/// ```
/// use senn_core::prelude::*;
///
/// let server = RTreeServer::new((0..5).map(|i| (i, senn_geom::Point::new(i as f64, 0.0))));
/// let mut ctx = QueryContext::new();
/// let out = SennEngine::default().query_with::<PeerCacheEntry>(
///     senn_geom::Point::new(2.2, 0.0),
///     2,
///     &[],
///     &server,
///     &mut ctx,
/// );
/// assert_eq!(out.results[0].poi.poi_id, 2);
/// ```
pub mod prelude {
    pub use crate::distance::{
        DistanceModel, Euclidean, EuclideanBound, LowerBoundOracle, NeverPrune,
    };
    pub use crate::heap::{HeapEntry, HeapState};
    pub use crate::pipeline::QueryContext;
    pub use crate::senn::{SennConfig, SennEngine, SennOutcome};
    pub use crate::server::{RTreeServer, ServerResponse};
    pub use crate::service::{
        ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService,
    };
    pub use crate::snnn::{snnn_query_pruned_with, SnnnConfig, SnnnNeighbor, SnnnOutcome};
    pub use crate::trace::{QueryTrace, Resolution};
    pub use crate::transport::{
        AsyncClient, RequestId, RetryPolicy, Ticket, Transport, TransportPolicy, TransportStats,
    };
    pub use senn_cache::{CacheEntry as PeerCacheEntry, CachedNn};
    pub use senn_rtree::SearchBounds;
}
