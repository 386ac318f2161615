//! The recall harness: measure any [`CandidateSource`] against the exact
//! linear baseline (ISSUE 6's first-class test deliverable).
//!
//! The metric itself ([`hinn::index::recall::recall_at_k`]) lives in
//! `hinn-index` so the `index_bench` binary shares the exact same
//! definition; this module adds what only tests need — seeded dataset
//! fixtures and the source-vs-baseline sweep.

use hinn::core::{CandidateSource, DatasetHandle, EpochSnapshot, Parallelism};
use hinn::index::recall::recall_at_k;
use std::sync::Arc;

/// Deterministic xorshift64 uniform generator in `[0, 1)` (the
/// harness-wide generator, same as `parallel_equivalence.rs`).
pub fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Uniform point cloud over `[-50, 50]^d` — the worst case for any
/// locality-exploiting index (no cluster structure to navigate).
pub fn uniform_cloud(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut unif = xorshift(seed);
    (0..n)
        .map(|_| (0..d).map(|_| unif() * 100.0 - 50.0).collect())
        .collect()
}

/// Gaussian-mixture cloud: `n_clusters` centers uniform in `[-50, 50]^d`,
/// each point a unit-σ Gaussian (Box–Muller) around a round-robin center
/// scaled by `sigma` — the clustered regime the paper's workloads model.
pub fn gaussian_mixture(
    n: usize,
    d: usize,
    n_clusters: usize,
    sigma: f64,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut unif = xorshift(seed);
    let centers: Vec<Vec<f64>> = (0..n_clusters)
        .map(|_| (0..d).map(|_| unif() * 100.0 - 50.0).collect())
        .collect();
    let mut gauss = move || {
        // Box–Muller; u1 ∈ (0, 1] to keep the log finite.
        let u1 = 1.0 - unif();
        let u2 = unif();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    (0..n)
        .map(|i| {
            let c = &centers[i % n_clusters];
            (0..d).map(|j| c[j] + sigma * gauss()).collect()
        })
        .collect()
}

/// The current snapshot of a handle over `points`: what a source reads.
pub fn snapshot(points: &[Vec<f64>]) -> Arc<EpochSnapshot> {
    DatasetHandle::new(points)
        .expect("finite fixture")
        .snapshot()
}

/// The exact Euclidean top-`k` baseline (closest first) every approximate
/// source is measured against.
pub fn exact_top_k(snap: &EpochSnapshot, query: &[f64], k: usize) -> Vec<usize> {
    CandidateSource::Full.top_k(Parallelism::serial(), snap, query, k)
}

/// Mean recall@k of `source` against the exact baseline over the queries
/// at `query_ids` (each queried by its own point — the paper's
/// query-by-example setting). The fixture gets one handle, so an index
/// source builds its index once for all the queries.
pub fn mean_recall(
    source: &CandidateSource,
    points: &[Vec<f64>],
    query_ids: &[usize],
    k: usize,
) -> f64 {
    assert!(!query_ids.is_empty(), "recall needs at least one query");
    let par = Parallelism::serial();
    let snap = snapshot(points);
    let sum: f64 = query_ids
        .iter()
        .map(|&qi| {
            let exact = exact_top_k(&snap, &points[qi], k);
            let approx = source.top_k(par, &snap, &points[qi], k);
            recall_at_k(&exact, &approx, k)
        })
        .sum();
    sum / query_ids.len() as f64
}

/// Evenly spread query ids over the dataset.
pub fn spread_queries(n: usize, n_queries: usize) -> Vec<usize> {
    let step = (n / n_queries.max(1)).max(1);
    (0..n).step_by(step).take(n_queries).collect()
}
