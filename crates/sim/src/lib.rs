#![warn(missing_docs)]
//! # senn-sim
//!
//! The full mobile peer-to-peer spatial-query simulator of Section 4:
//! mobile-host module (movement + query launching + caching) and server
//! module (R\*-tree with INN/EINN and page-access accounting), driven by
//! the paper's parameter sets (Tables 3 and 4), reporting the SQRR and PAR
//! metrics, with one experiment driver per figure.
//!
//! ```
//! use senn_sim::{ParamSet, SimConfig, SimParams, Simulator};
//!
//! let mut params = SimParams::two_by_two(ParamSet::Riverside);
//! params.t_execution_hours = 0.02; // 72 simulated seconds
//! let mut sim = Simulator::new(SimConfig::new(params, 42));
//! let metrics = sim.run();
//! assert_eq!(
//!     metrics.queries,
//!     metrics.single_peer + metrics.multi_peer + metrics.server + metrics.accepted_uncertain
//! );
//! ```

mod cache_step;
mod calendar;
mod comms;
pub mod experiments;
pub mod grid;
pub mod metrics;
mod movement;
pub mod params;
mod query_step;
pub mod report;
pub mod simulator;
mod store;
mod transport_step;

pub use experiments::{ExpOptions, MixPoint, MixSeries, ModeComparison, PageAccessPoint};
pub use grid::HostGrid;
pub use metrics::{KStats, LatencyModel, Metrics};
pub use params::{ParamSet, SimParams};
pub use simulator::{
    Answer, BatchStats, CachePolicy, KChoice, MovementMode, NetworkModelKind, RknnHost,
    RoadRanking, SimConfig, SimConfigBuilder, SimConfigError, Simulator,
};

// Service-seam knobs a simulation config can carry, re-exported so callers
// configuring faults, retries or the overlapped transport need only this
// crate.
pub use senn_core::transport::{RetryPolicy, TransportPolicy, TransportStats};
pub use senn_server::{FaultConfig, ServiceMetrics, ShardMetrics};
