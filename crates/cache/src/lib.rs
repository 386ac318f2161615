//! Shared dataset artifacts, content fingerprints and buffer pools.
//!
//! This crate holds what `hinn-data`, `hinn-core`, `hinn-kde`,
//! `hinn-index` and `hinn-serve` share so that work is not repeated
//! across queries:
//!
//! - [`Fingerprint`]/[`Fnv128`]: 128-bit content fingerprints over the
//!   exact bit patterns of the inputs. A key is a fingerprint of
//!   everything the keyed value depends on, so invalidation is structural
//!   (a changed input is a different key).
//! - [`LruCache`]: a capacity-bounded, least-recently-used map from
//!   fingerprints to [`Arc`](std::sync::Arc)-shared values. The serving
//!   layer's warm tier of suspended-session snapshots is one. Hits,
//!   misses, and evictions are reported through `hinn-obs` as
//!   `cache.hit` / `cache.miss` / `cache.evict`.
//! - [`pool`]: thread-local reuse of `Vec<f64>` scratch buffers for the
//!   KDE hot loop (`p × p` partial grids and kernel row/column scratch)
//!   and the per-chunk scratch of the projection scan and the view
//!   coordinates in `hinn-core`.
//! - [`ArtifactStore`]: a type-erased, insert-once store of derived
//!   artifacts (the VA-file, the HNSW graph). Each epoch snapshot of a
//!   dataset handle owns one, so an index is built once per epoch, shared
//!   via `Arc` by every session pinned to it, and freed with the last
//!   snapshot that holds it. There is no process-global registry.
//!
//! The interactive session itself keeps no shared cache. The engine
//! replays a major iteration's views when the next major runs on the same
//! candidate set, and the projection search shares its first halving
//! round across support restarts; both reuses live where they happen, in
//! `hinn-core`.
//!
//! # Determinism
//!
//! Every cached value is the output of a pure deterministic function of
//! inputs its key pins down: an [`LruCache`] key fingerprints *all* of
//! them (full `f64` bit patterns, never rounded), and an
//! [`ArtifactStore`] key names the parameters while its owner fixes the
//! rows. A hit therefore returns exactly what the miss path would have
//! computed; the only thing scheduling can change is *which* entries are
//! resident, and residency is unobservable in results.

pub mod artifacts;
pub mod fingerprint;
pub mod lru;
pub mod pool;

pub use artifacts::ArtifactStore;
pub use fingerprint::{Fingerprint, Fnv128};
pub use lru::LruCache;
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
