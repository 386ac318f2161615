//! Deterministic HNSW candidate generation (ROADMAP item 1).
//!
//! The paper's interactive loop needs nearest-neighbor *candidates* per
//! view, and both existing generators — the VA-file filter and the linear
//! kNN scan — are O(N) per query. This crate adds the standard sublinear
//! answer: a hierarchical navigable small world graph (Malkov & Yashunin,
//! TPAMI 2020), built once per dataset epoch and shared by every session
//! pinned to it; the epoch's successors extend it rather than rebuild
//! (`hinn-core` keeps it in the epoch snapshot's artifact store).
//!
//! # Determinism contract
//!
//! Everything the graph does is a pure function of `(points, params)`:
//!
//! * per-point levels are derived by hashing `params.seed` with the point
//!   id (splitmix64), not by drawing from a shared RNG stream, so they do
//!   not depend on insertion interleaving;
//! * insertion runs strictly in point-id order;
//! * every comparison of `(distance, id)` pairs uses `f64::total_cmp`
//!   with the point id as the tie-break, so equal distances order
//!   identically on every platform and every run.
//!
//! Fixed seed ⇒ identical graph ⇒ identical candidate lists — across
//! repeat builds, across processes, and trivially across thread budgets
//! (build and search are sequential; the surrounding pipeline's
//! parallelism never touches the graph walk). `tests/index_equivalence.rs`
//! pins this contract end to end.
//!
//! Approximation is the price of sublinearity: unlike the VA-file, the
//! graph can miss true neighbors. `tests/index_recall.rs` and the
//! `index_bench` binary measure recall@k against the exact linear
//! baseline via [`recall`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod hnsw;
pub mod recall;

pub use hnsw::{Hnsw, HnswParams, HnswStats};
