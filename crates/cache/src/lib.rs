//! Shared-artifact caching and amortized batch serving.
//!
//! The ROADMAP's "heavy traffic from millions of users" north star asks
//! the engine to stop recomputing dataset-global work for every query of
//! a batch: the whole-data statistics the `λᵢ/γᵢ` grading divides by, the
//! VA-file structure of the baseline filter, and the KDE grids of views
//! the session has already rendered. This crate is the infrastructure for
//! that amortization, shared by `hinn-core`, `hinn-kde`, and
//! `hinn-baselines`:
//!
//! - [`Fingerprint`]/[`Fnv128`]: 128-bit content fingerprints over the
//!   exact bit patterns of the inputs. Every cache in the workspace is
//!   **content-addressed** — a key is a fingerprint of everything the
//!   cached value depends on, so invalidation is structural (a changed
//!   input is a different key) and a hit can only ever return the exact
//!   bits a recomputation would produce.
//! - [`LruCache`]: a capacity-bounded, least-recently-used map from
//!   fingerprints to [`Arc`](std::sync::Arc)-shared values. Capacity 0
//!   disables it (every lookup computes; nothing is stored, no metrics
//!   are emitted), which is how the engine's "cache off" configuration is
//!   implemented. Hits, misses, and evictions are reported through
//!   `hinn-obs` as `cache.hit` / `cache.miss` / `cache.evict`.
//! - [`pool`]: thread-local reuse of `Vec<f64>` scratch buffers for the
//!   KDE hot loop (`p × p` partial grids and kernel row/column scratch).
//! - [`DatasetArtifacts`]/[`ArtifactStore`]: a per-dataset store of
//!   derived artifacts (the VA-file, the HNSW graph), computed once and
//!   shared via `Arc`
//!   across all queries of a batch and across repeated sessions on the
//!   same dataset (a bounded process-global registry keyed by the dataset
//!   fingerprint).
//!
//! # Determinism
//!
//! The workspace invariant — warm and cold runs are bit-identical for
//! every thread budget — holds because every cached value is the output
//! of a pure deterministic function and its key fingerprints *all* of
//! that function's inputs (full `f64` bit patterns, never rounded). A hit
//! therefore returns exactly what the miss path would have computed; the
//! only thing scheduling can change is *which* entries are resident, and
//! residency is unobservable in results. No cache in this crate ever
//! stores an algebraic shortcut (e.g. a variance reconstructed from a
//! covariance quadratic form): floating-point non-associativity would
//! make such a value differ in final bits from the scan it replaces.

pub mod artifacts;
pub mod fingerprint;
pub mod lru;
pub mod policy;
pub mod pool;

pub use artifacts::{ArtifactStore, DatasetArtifacts};
pub use fingerprint::{Fingerprint, Fnv128};
pub use lru::LruCache;
pub use policy::CachePolicy;
pub use pool::PooledF64;

/// Serializes unit tests that emit or assert on the process-global
/// telemetry sink (`hinn_obs::install` is global, so a concurrently
/// running cache operation in another test would pollute the counters).
#[cfg(test)]
pub(crate) mod testlock {
    use std::sync::{Mutex, MutexGuard};
    static LOCK: Mutex<()> = Mutex::new(());
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
