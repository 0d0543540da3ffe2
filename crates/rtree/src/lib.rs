#![warn(missing_docs)]
//! # senn-rtree
//!
//! An R\*-tree spatial index (Beckmann et al., SIGMOD 1990) built from
//! scratch for the `mobishare-senn` workspace, together with the two
//! nearest-neighbor searches the paper's server module runs:
//!
//! * **INN** — the incremental best-first nearest-neighbor algorithm of
//!   Hjaltason & Samet (*Distance Browsing in Spatial Databases*, TODS
//!   1999): a priority queue ordered by `MINDIST` yields neighbors in
//!   ascending distance, visiting only the minimally necessary nodes.
//! * **EINN** — the paper's extension (Section 3.3): the same search
//!   augmented with the *branch-expanding upper bound* (distance of the
//!   last entry of a full result heap `H`) and *lower bound* (`D_ct`, the
//!   distance of the last certain entry). The lower bound enables
//!   *downward pruning* via `MAXDIST`: an MBR totally covered by the
//!   already-verified circle `C_r` holds only known POIs and is never
//!   expanded; the upper bound enables *upward pruning* of MBRs that
//!   cannot contribute to the result.
//!
//! Node accesses (index and data nodes) are counted per search — the paper
//! reports them as the *page access rate* (PAR) metric, Figure 17.
//!
//! The tree indexes points (the paper indexes POI locations) with an
//! arbitrary payload per point. The default branching factor is 30, the
//! value the paper uses for both index and leaf nodes.

pub mod bulk;
pub mod nn;
pub mod stats;
pub mod tree;

pub use nn::{Neighbor, NnIter, SearchBounds};
pub use stats::TreeStats;
pub use tree::{RStarTree, TreeConfig};
