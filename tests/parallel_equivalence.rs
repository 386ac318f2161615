//! Bit-exact equivalence of the parallel hot paths with their serial
//! counterparts.
//!
//! The `hinn-par` layer promises more than "statistically the same": every
//! `_with(par, ...)` entry point must produce **bit-identical** `f64`
//! output for every thread budget, because chunk boundaries are a function
//! of the input length alone and partial results fold in chunk order. These
//! tests pin that promise at the integration level — whole grids, whole
//! covariance matrices, whole k-NN answers, and complete interactive
//! sessions — across thread budgets {1, 2, 3, 7} including budgets that do
//! not divide the input size evenly.
//!
//! All inputs are sized above `hinn::par::SERIAL_CUTOFF` so worker threads
//! really spawn (below the cutoff the parallel path runs inline and the
//! test would be vacuous).

use hinn::baselines::{knn_indices, knn_indices_with, Metric, VaFile};
use hinn::core::{DatasetHandle, InteractiveSearch, Parallelism, SearchConfig, SearchOutcome};
use hinn::kde::{estimate_grid, estimate_grid_with, Bandwidth2D, GridSpec};
use hinn::linalg::{covariance_matrix, covariance_matrix_with};
use hinn::par::SERIAL_CUTOFF;
use hinn::user::{HeuristicUser, ScriptedUser, UserModel, UserResponse};

/// Thread budgets under test: one worker, even split, odd splits.
const BUDGETS: [usize; 4] = [1, 2, 3, 7];

/// Deterministic xorshift point cloud, `n` points in `d` dimensions.
fn cloud(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..d).map(|_| unif() * 100.0 - 50.0).collect())
        .collect()
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn kde_grid_is_bit_identical_across_budgets() {
    let pts2d: Vec<[f64; 2]> = cloud(SERIAL_CUTOFF + 611, 2, 0xA11CE)
        .into_iter()
        .map(|p| [p[0], p[1]])
        .collect();
    let spec = GridSpec::covering(&pts2d, &[], 0.05, 64);
    let bw = Bandwidth2D::silverman(&pts2d);
    let serial = estimate_grid(&pts2d, bw, spec);
    for t in BUDGETS {
        let par = estimate_grid_with(Parallelism::fixed(t), &pts2d, bw, spec);
        assert_eq!(
            bits_of(serial.values()),
            bits_of(par.values()),
            "KDE grid differs from serial at {t} threads"
        );
    }
}

#[test]
fn covariance_matrix_is_bit_identical_across_budgets() {
    let pts = cloud(SERIAL_CUTOFF + 237, 9, 0xB0B);
    let serial = covariance_matrix(&pts);
    for t in BUDGETS {
        let par = covariance_matrix_with(Parallelism::fixed(t), &pts);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(
                    serial[(i, j)].to_bits(),
                    par[(i, j)].to_bits(),
                    "covariance ({i},{j}) differs from serial at {t} threads"
                );
            }
        }
    }
}

#[test]
fn knn_indices_match_serial_across_budgets() {
    let pts = cloud(SERIAL_CUTOFF + 101, 6, 0xCAFE);
    let query = pts[17].clone();
    for metric in [Metric::L1, Metric::L2, Metric::LInf] {
        for k in [1, 10, 64] {
            let serial = knn_indices(&pts, &query, k, metric);
            for t in BUDGETS {
                let par = knn_indices_with(Parallelism::fixed(t), &pts, &query, k, metric);
                assert_eq!(
                    serial, par,
                    "knn (k={k}, {metric:?}) differs from serial at {t} threads"
                );
            }
        }
    }
}

#[test]
fn vafile_knn_matches_serial_across_budgets() {
    let pts = cloud(SERIAL_CUTOFF + 55, 8, 0xF11E);
    let query = pts[2026].clone();
    let index = VaFile::build(pts.len(), |i| &pts[i], 4);
    for k in [1, 12, 40] {
        let (serial_ids, serial_stats) = index.knn(&query, k);
        for t in BUDGETS {
            let (par_ids, par_stats) = index.knn_with(Parallelism::fixed(t), &query, k);
            assert_eq!(
                serial_ids, par_ids,
                "VA-file neighbors (k={k}) differ from serial at {t} threads"
            );
            assert_eq!(
                serial_stats, par_stats,
                "VA-file refine counts (k={k}) differ from serial at {t} threads"
            );
        }
    }
}

/// Run a complete interactive session under the given budget.
fn session(par: Parallelism, points: &[Vec<f64>], user: &mut dyn UserModel) -> SearchOutcome {
    let config = SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        ..SearchConfig::default()
            .with_support(25)
            .with_parallelism(par)
    };
    InteractiveSearch::new(config)
        .run_with(
            &DatasetHandle::new(points).expect("dataset"),
            &points[0],
            user,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome()
}

fn assert_outcomes_bit_identical(a: &SearchOutcome, b: &SearchOutcome, label: &str) {
    assert_eq!(a.neighbors, b.neighbors, "{label}: neighbor sets differ");
    assert_eq!(a.majors_run, b.majors_run, "{label}: majors_run differs");
    assert_eq!(
        bits_of(&a.probabilities),
        bits_of(&b.probabilities),
        "{label}: probabilities not bit-identical"
    );
    for (ma, mb) in a.transcript.majors.iter().zip(&b.transcript.majors) {
        assert_eq!(ma.n_points_before, mb.n_points_before, "{label}");
        assert_eq!(ma.n_points_after, mb.n_points_after, "{label}");
        for (ra, rb) in ma.minors.iter().zip(&mb.minors) {
            assert_eq!(ra.n_picked, rb.n_picked, "{label}: n_picked differs");
            assert_eq!(
                ra.query_peak_ratio.to_bits(),
                rb.query_peak_ratio.to_bits(),
                "{label}: query_peak_ratio not bit-identical"
            );
        }
    }
}

/// The full Fig. 2 loop with a scripted user: the response script is fixed,
/// so any divergence must come from the numeric pipeline (projection → KDE
/// grid → density-connected pick).
#[test]
fn scripted_session_is_bit_identical_across_budgets() {
    let points = cloud(SERIAL_CUTOFF + 130, 6, 0xD00D);
    let script = || {
        ScriptedUser::new([
            UserResponse::Threshold(1e-7),
            UserResponse::Discard,
            UserResponse::Threshold(5e-7),
        ])
        .with_fallback(UserResponse::Threshold(1e-7))
    };
    let mut u = script();
    let serial = session(Parallelism::serial(), &points, &mut u);
    for t in BUDGETS {
        let mut u = script();
        let par = session(Parallelism::fixed(t), &points, &mut u);
        assert_outcomes_bit_identical(&serial, &par, &format!("scripted, {t} threads"));
    }
}

/// The heuristic user reacts to the *values* of each visual profile, so
/// this session diverges at the first non-identical bit anywhere in the
/// loop — the strongest end-to-end determinism check we have.
#[test]
fn heuristic_session_is_bit_identical_across_budgets() {
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let mut u = HeuristicUser::default();
    let serial = session(Parallelism::serial(), &points, &mut u);
    for t in BUDGETS {
        let mut u = HeuristicUser::default();
        let par = session(Parallelism::fixed(t), &points, &mut u);
        assert_outcomes_bit_identical(&serial, &par, &format!("heuristic, {t} threads"));
    }
}

mod properties {
    //! Property-test form of the bit-identity claim: *arbitrary* data,
    //! *arbitrary* sizes straddling chunk boundaries, *arbitrary* thread
    //! counts — serial and parallel must still agree to the last bit.

    use super::*;
    use proptest::prelude::*;

    /// Reshape a flat coordinate vector into `d`-dimensional points.
    fn reshape(flat: &[f64], d: usize) -> Vec<Vec<f64>> {
        flat.chunks_exact(d).map(|c| c.to_vec()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn covariance_bit_identity(
            flat in proptest::collection::vec(
                -100.0..100.0f64,
                5 * SERIAL_CUTOFF..5 * SERIAL_CUTOFF + 900,
            ),
            threads in 2..9usize,
        ) {
            let pts = reshape(&flat, 5);
            let serial = covariance_matrix(&pts);
            let par = covariance_matrix_with(Parallelism::fixed(threads), &pts);
            for i in 0..5 {
                for j in 0..5 {
                    prop_assert_eq!(serial[(i, j)].to_bits(), par[(i, j)].to_bits());
                }
            }
        }

        #[test]
        fn kde_grid_bit_identity(
            flat in proptest::collection::vec(
                -50.0..50.0f64,
                2 * SERIAL_CUTOFF..2 * SERIAL_CUTOFF + 700,
            ),
            threads in 2..9usize,
        ) {
            let pts: Vec<[f64; 2]> = flat.chunks_exact(2).map(|c| [c[0], c[1]]).collect();
            let spec = GridSpec::covering(&pts, &[], 0.1, 33);
            let bw = Bandwidth2D::silverman(&pts);
            let serial = estimate_grid(&pts, bw, spec);
            let par = estimate_grid_with(Parallelism::fixed(threads), &pts, bw, spec);
            prop_assert_eq!(bits_of(serial.values()), bits_of(par.values()));
        }

        #[test]
        fn knn_bit_identity(
            flat in proptest::collection::vec(
                -100.0..100.0f64,
                4 * SERIAL_CUTOFF..4 * SERIAL_CUTOFF + 800,
            ),
            threads in 2..9usize,
            k in 1..60usize,
        ) {
            let pts = reshape(&flat, 4);
            let query = pts[0].clone();
            let serial = knn_indices(&pts, &query, k, Metric::L2);
            let par = knn_indices_with(Parallelism::fixed(threads), &pts, &query, k, Metric::L2);
            prop_assert_eq!(serial, par);
        }
    }
}
