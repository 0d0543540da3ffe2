#![warn(missing_docs)]
//! # mobishare-senn
//!
//! A complete Rust reproduction of *"Location-based Spatial Queries with
//! Data Sharing in Mobile Environments"* (Wei-Shinn Ku, Roger Zimmermann,
//! Chi-Ngai Wan — ICDE 2006 / USC TR 843).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geom`] — 2-D geometry: points, MBRs with MINDIST/MAXDIST, circles,
//!   polygonization, certain-region coverage tests.
//! * [`rtree`] — an R\*-tree with incremental best-first NN (INN) and the
//!   paper's pruning-bound-extended variant (EINN).
//! * [`network`] — spatial road networks, Dijkstra/A\*, the synthetic
//!   TIGER-style generator, and the IER/INE network-kNN baselines.
//! * [`mobility`] — random-waypoint and road-constrained movement models.
//! * [`cache`] — mobile-host NN result caches.
//! * [`core`] — the paper's contribution: verification lemmas, the result
//!   heap `H`, `kNN_single` / `kNN_multiple`, SENN and SNNN.
//! * [`sim`] — the full mobile P2P simulator with the paper's parameter
//!   sets and per-figure experiments.
//!
//! ## Quickstart
//!
//! ```
//! use mobishare_senn::geom::Point;
//! use mobishare_senn::core::{PeerCacheEntry, QueryContext, SennConfig, SennEngine};
//!
//! // Points of interest (gas stations).
//! let pois = vec![Point::new(1.0, 0.0), Point::new(4.0, 0.0), Point::new(9.0, 0.0)];
//!
//! // A peer at (0.5, 0) previously ran a 2NN query and cached the result.
//! let peer = PeerCacheEntry::from_sorted(
//!     Point::new(0.5, 0.0),
//!     vec![(0, Point::new(1.0, 0.0)), (1, Point::new(4.0, 0.0))],
//! );
//!
//! // A querier right next to the peer verifies its own 1NN from the cache.
//! let engine = SennEngine::new(SennConfig::default());
//! let mut ctx = QueryContext::new();
//! let outcome = engine.query_peers_only_with(Point::new(0.6, 0.0), 1, &[peer], &mut ctx);
//! let verified = outcome.certain();
//! assert_eq!(verified.len(), 1);
//! assert_eq!(verified[0].poi.position, Point::new(1.0, 0.0));
//! # let _ = pois;
//! ```

pub use senn_cache as cache;
pub use senn_core as core;
pub use senn_geom as geom;
pub use senn_mobility as mobility;
pub use senn_network as network;
pub use senn_rtree as rtree;
pub use senn_sim as sim;
