//! Recall of the HNSW candidate source (ISSUE 6 satellite 2).
//!
//! The sublinear graph earns its keep only if it finds what the exact
//! baseline finds: recall@10 ≥ 0.9 on the seeded fixtures — Gaussian
//! mixtures (the clustered regime the paper's workloads model) and
//! uniform clouds (the worst case, no structure to navigate) at N=10k,
//! d ∈ {16, 64}. The exact sources double as harness self-checks (their
//! recall is 1.0 by construction), and a proptest sweep pins the
//! poisoned-point policy: a NaN-bitmap point never appears in any answer.

mod common;

use common::recall::{
    exact_top_k, gaussian_mixture, mean_recall, snapshot, spread_queries, uniform_cloud, xorshift,
};
use hinn::core::CandidateSource;
use hinn::index::recall::recall_at_k;
use hinn::index::{Hnsw, HnswParams};

/// Queries per fixture: enough to average out per-query variance while
/// keeping the debug-profile tier-1 run fast.
const N_QUERIES: usize = 25;
const N: usize = 10_000;
const K: usize = 10;

/// Lighter build than the default (the tier-1 suite runs this in the
/// debug profile); the wider search list keeps recall comfortably above
/// the floor.
fn params() -> HnswParams {
    HnswParams::default()
        .with_m(12)
        .with_ef_construction(60)
        .with_ef_search(200)
}

fn assert_recall_at_least(points: Vec<Vec<f64>>, floor: f64, label: &str) {
    let queries = spread_queries(points.len(), N_QUERIES);
    let source = CandidateSource::Hnsw {
        params: params(),
        budget: K,
    };
    let recall = mean_recall(&source, &points, &queries, K);
    assert!(
        recall >= floor,
        "{label}: HNSW recall@{K} = {recall:.3} < {floor}"
    );
}

#[test]
fn recall_gaussian_mixture_d16() {
    assert_recall_at_least(
        gaussian_mixture(N, 16, 8, 4.0, 0xA5EED01),
        0.9,
        "gaussian d=16",
    );
}

#[test]
fn recall_gaussian_mixture_d64() {
    assert_recall_at_least(
        gaussian_mixture(N, 64, 8, 4.0, 0xA5EED02),
        0.9,
        "gaussian d=64",
    );
}

#[test]
fn recall_uniform_d16() {
    assert_recall_at_least(uniform_cloud(N, 16, 0xA5EED03), 0.9, "uniform d=16");
}

#[test]
fn recall_uniform_d64() {
    assert_recall_at_least(uniform_cloud(N, 64, 0xA5EED04), 0.9, "uniform d=64");
}

/// Recall under deletes: a quarter of a uniform cloud tombstoned and the
/// graph walked with the tombstones as its filter, as the epoch seed
/// walks it, against the exact top-k over the alive points.
#[test]
fn recall_uniform_d16_with_a_quarter_tombstoned() {
    let points = uniform_cloud(N, 16, 0xA5EED06);
    let mut unif = xorshift(0xDE1E7E);
    let dead: Vec<bool> = (0..N).map(|_| unif() < 0.25).collect();
    let alive = |id: usize| !dead[id];
    let graph = Hnsw::build(&points, params());
    let snap = snapshot(&points);
    let queries = spread_queries(N, N_QUERIES);
    let sum: f64 = queries
        .iter()
        .map(|&qi| {
            let q = &points[qi];
            let exact: Vec<usize> = exact_top_k(&snap, q, N)
                .into_iter()
                .filter(|&id| alive(id))
                .take(K)
                .collect();
            let approx = graph.knn_with_ef_where(q, K, params().ef_search, alive);
            assert_eq!(approx.len(), K, "query {qi}");
            assert!(approx.iter().all(|&id| alive(id)), "query {qi}: {approx:?}");
            recall_at_k(&exact, &approx, K)
        })
        .sum();
    let recall = sum / queries.len() as f64;
    assert!(
        recall >= 0.9,
        "25% tombstoned: HNSW recall@{K} = {recall:.3} < 0.9"
    );
}

/// Harness self-check: the exact sources score a perfect 1.0 — if this
/// ever fails, the harness (not an index) is broken.
#[test]
fn exact_sources_score_perfect_recall() {
    let points = gaussian_mixture(2_000, 16, 4, 4.0, 0xA5EED05);
    let queries = spread_queries(points.len(), 10);
    for source in [
        CandidateSource::Linear { budget: K },
        CandidateSource::VaFile { bits: 4, budget: K },
    ] {
        let recall = mean_recall(&source, &points, &queries, K);
        assert_eq!(recall, 1.0, "{source:?} is exact by construction");
    }
}

mod poisoned {
    //! PR-3 poisoned-point policy, extended to the graph: points carrying
    //! a NaN coordinate are never linked and never returned, under
    //! arbitrary NaN placements.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn hnsw_never_returns_a_poisoned_point(
            seed in 0..u64::MAX,
            n_poisoned in 1..40usize,
            k in 1..30usize,
        ) {
            let n = 300;
            let d = 6;
            let mut points = uniform_cloud(n, d, seed | 1);
            // Deterministic scatter of NaN coordinates from the seed.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as usize
            };
            let mut poisoned_ids = Vec::new();
            for _ in 0..n_poisoned {
                let i = next() % n;
                let j = next() % d;
                points[i][j] = f64::NAN;
                poisoned_ids.push(i);
            }
            let graph = Hnsw::build(&points, HnswParams::default());
            for qi in [0, n / 2, n - 1] {
                if points[qi].iter().any(|v| v.is_nan()) {
                    continue;
                }
                let got = graph.knn(&points[qi], k);
                for id in &got {
                    prop_assert!(
                        !points[*id].iter().any(|v| v.is_nan()),
                        "poisoned point {id} returned for query {qi}"
                    );
                }
                // Healthy points remain findable around the poison.
                prop_assert!(!got.is_empty());
            }
        }
    }
}
