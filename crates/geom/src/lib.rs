#![warn(missing_docs)]
//! # senn-geom
//!
//! Two-dimensional geometry substrate for the `mobishare-senn` workspace, a
//! reproduction of *"Location-based Spatial Queries with Data Sharing in
//! Mobile Environments"* (Ku, Zimmermann & Wan, ICDE 2006).
//!
//! The paper's verification machinery is built on a handful of geometric
//! primitives and predicates:
//!
//! * [`Point`] — locations of mobile hosts and points of interest.
//! * [`Rect`] — minimum bounding rectangles with the `MINDIST` / `MAXDIST`
//!   metrics used by the R\*-tree (`senn-rtree`) and by the paper's EINN
//!   pruning rules (Section 3.3).
//! * [`Circle`] — peer *certain-area* disks and candidate verification
//!   circles (Lemmas 3.1–3.8).
//! * [`ConvexPolygon`] — inscribed polygonizations of certain-area circles
//!   (the paper's polygonization step, Section 3.2.2).
//! * [`DiskRegion`] — the merged certain region `R_c` as the union of the
//!   peers' disks themselves, with an *exact* covered radius over the arc
//!   arrangement: how far from a centre the union's exposed boundary
//!   begins, the one number a verification walk needs. The region queries
//!   run against.
//! * [`PolygonRegion`] — `R_c` as the paper builds it. The paper merges
//!   polygons with the MapOverlay algorithm; we answer the only query the
//!   verification needs (`how far around this centre is the region
//!   covered?`) by subtracting, from each polygon edge's window within
//!   reach of the centre, the other polygons that cover it. No merged
//!   boundary is built. See `DESIGN.md` §2 for the substitution argument.
//!   It certifies a subset of what [`DiskRegion`] does and is kept as the
//!   paper-fidelity arm of the ablation.
//!
//! All coordinates are `f64`. The crate is `no_std`-agnostic in spirit but
//! uses `std` floats throughout; predicates take an explicit epsilon where
//! robustness matters.

pub mod arcset;
pub mod circle;
pub mod interval;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod region;
pub mod segment;

pub use circle::Circle;
pub use point::Point;
pub use polygon::ConvexPolygon;
pub use rect::Rect;
pub use region::{DiskRegion, PolygonRegion};
pub use segment::Segment;

/// Default tolerance used by geometric predicates in this workspace.
///
/// Simulation areas are a few tens of miles (tens of thousands of meters),
/// so `1e-9` in working units is far below any physically meaningful
/// distance while staying well above `f64` noise for the magnitudes used.
pub const EPS: f64 = 1e-9;
