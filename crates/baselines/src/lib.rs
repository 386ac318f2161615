//! Automated (non-interactive) nearest-neighbor baselines.
//!
//! The paper compares its interactive system against fully automated
//! methods; this crate implements them:
//!
//! * [`knn`] — the exact full-dimensional k-NN scan under any Minkowski
//!   metric (the "L2 full dimensional method" of Table 2). With `N ≤ 5000`
//!   and `d ≤ 34`, a linear scan is exact and fast; the paper's argument is
//!   about *meaningfulness*, not index speed, so no approximate index is
//!   needed (or wanted) here.
//! * [`classifier`] — k-NN classification on top of any neighbor function
//!   (used for the Table 2 accuracy comparison).
//! * [`projected_nn`] — the automated *projected nearest neighbor* method of
//!   Hinneburg, Aggarwal & Keim (VLDB 2000), the paper's reference \[15\]:
//!   a single optimal discriminating projection is derived from the query
//!   neighborhood, and neighbors are ranked inside it — no human in the
//!   loop. The paper's §1 positions the interactive method as the
//!   multi-projection generalization of exactly this.
//! * [`distinctiveness`] — distinctiveness-sensitive ranking in the spirit
//!   of Katayama & Satoh (ICDE 2001), reference \[19\]: neighbors are
//!   re-scored by how much they stand out from their own local
//!   neighborhood.
//! * [`vafile`] — the VA-file of Weber, Schek & Blott (VLDB 1998),
//!   reference \[27\]: the canonical exact high-dimensional NN *index*.
//!   It returns the same answer as the linear scan, faster — underlining
//!   the paper's point that indexing speed does not buy meaningfulness.

pub mod classifier;
pub mod distinctiveness;
pub mod knn;
pub mod projected_nn;
pub mod vafile;

pub use classifier::knn_classify;
pub use distinctiveness::distinctiveness_knn;
pub use hinn_par::Parallelism;
pub use knn::{knn_indices, knn_indices_by, knn_indices_in_subspace, knn_indices_with, Metric};
pub use projected_nn::{projected_knn, ProjectedNnConfig};
pub use vafile::{VaFile, VaQueryStats};
