//! Workload generation and dataset handling for `hinn`.
//!
//! The paper's empirical section (§4) uses three families of data:
//!
//! 1. **Synthetic projected-cluster data** ("Case 1" / "Case 2", §4.1):
//!    `N = 5000` points in `d = 20` dimensions with 6-dimensional projected
//!    clusters embedded, generated "with the same parameters used in \[4\]"
//!    (Aggarwal & Yu, SIGMOD 2000). [`projected`] re-implements that
//!    generator, in both axis-parallel and arbitrarily-oriented flavors.
//! 2. **Uniformly distributed data** (§4.2) as the canonical *meaningless*
//!    high-dimensional workload — [`uniform`].
//! 3. **UCI `ionosphere` and `segmentation`** (§4.3). This environment has
//!    no network access, so [`uci`] ships statistically-matched synthetic
//!    re-creations (same `N`, `d`, class structure; class signal carried by
//!    low-dimensional subspaces and diluted by noisy dimensions — the same
//!    mechanism that makes full-dimensional L2 underperform in the paper).
//!    The substitution is documented in `DESIGN.md`.
//!
//! [`dataset`] defines the common [`Dataset`] container, and [`csv`]
//! persists datasets as plain CSV for external inspection.

pub mod csv;
pub mod dataset;
pub mod epoch;
pub mod projected;
pub mod row_chunks;
pub mod scaling;
pub mod uci;
pub mod uci_load;
pub mod uniform;

pub use dataset::Dataset;
pub use epoch::{DatasetHandle, EpochError, EpochSnapshot};
pub use projected::{generate_projected_clusters, ProjectedClusterSpec};
pub use row_chunks::RowChunks;
pub use scaling::FeatureScaler;
pub use uci::{simulated_ionosphere, simulated_segmentation};
pub use uci_load::{load_ionosphere, load_segmentation};
pub use uniform::{gaussian_blob, uniform_hypercube};
