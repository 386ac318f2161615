//! Dense linear algebra for the `hinn` workspace.
//!
//! This crate implements, from scratch, exactly the numerical machinery the
//! paper's system needs:
//!
//! * dense vectors and small row-major matrices ([`Matrix`]),
//! * sample statistics — mean vectors, covariance matrices, per-direction
//!   variances ([`stats`]),
//! * a cyclic-Jacobi symmetric eigensolver ([`eigen`]) used to obtain the
//!   principal components of a query cluster (Fig. 4 of the paper),
//! * orthonormal subspaces with projection and orthogonal-complement
//!   operations ([`subspace`]) used to keep the `d/2` projections of a major
//!   iteration mutually orthogonal (§2 of the paper),
//! * Minkowski distances, including the fractional metrics discussed in the
//!   paper's related work ([`vector::lp_dist`]),
//! * explicitly vectorized batch kernels over columnar point storage
//!   ([`simd`]), bit-identical to the scalar spec functions on every f64
//!   path (scalar / AVX2 / AVX-512 backends, `HINN_SIMD` to pin one).
//!
//! Dimensionalities in the target workloads are small (`d ≤ 64`), so a
//! straightforward `O(d^3)` Jacobi sweep is both simple and plenty fast; no
//! external BLAS/LAPACK is used.

pub mod eigen;
pub mod error;
pub mod matrix;
pub mod simd;
pub mod stats;
pub mod subspace;
pub mod vector;

pub use eigen::{jacobi_eigen, try_jacobi_eigen, EigenOutcome, SymEigen};
pub use error::LinalgError;
pub use hinn_par::Parallelism;
pub use matrix::Matrix;
pub use simd::{active_backend, Backend};
pub use stats::{
    covariance_matrix, covariance_matrix_with, mean_vector, mean_vector_with, variance_along,
};
pub use subspace::Subspace;
