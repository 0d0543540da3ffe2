#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # senn-server
//!
//! Backends for the one-request [`SpatialService`] seam of `senn-core`
//! (§3.3/§4.4 of the paper: the remote spatial database serving residual
//! queries; the ROADMAP's "sharded/async server" open item):
//!
//! * [`ShardedService`] — the POI set strip-partitioned across N
//!   R\*-tree shards, each request's per-shard candidate lists merged
//!   under global bound tightening. Returns answers identical to the
//!   single-tree [`senn_core::RTreeServer`] (golden-tested), with
//!   per-shard counters for observability.
//! * [`FaultyService`] — a seeded fault-injection decorator (latency,
//!   timeout and drop schedules) for exercising the client-side
//!   retry/backoff/degradation layer deterministically.

pub mod fault;
pub mod sharded;

pub use fault::{FaultConfig, FaultyService};
pub use sharded::{ServiceMetrics, ShardMetrics, ShardedService};

// Re-exported so backend users need only this crate plus the prelude.
pub use senn_core::service::SpatialService;
