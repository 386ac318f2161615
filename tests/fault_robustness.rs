//! Robustness sweep over pathological geometry — no fault plans, just
//! hostile data. The contract under test:
//!
//! 1. `InteractiveSearch::run_with` is *panic-free*: every input either
//!    completes or returns a typed [`HinnError`].
//! 2. Whatever it does is deterministic across thread budgets: the
//!    outcome (bits of every probability) or the error is identical for
//!    1 and 4 threads.
//!
//! The pathologies named by the failure model: constant dimensions,
//! all-duplicate point sets, fewer points than the support, fewer points
//! than dimensions, and near-singular (collinear) clusters.

use hinn::core::{
    DatasetHandle, HinnError, InteractiveSearch, Parallelism, ProjectionMode, SearchConfig,
    SearchOutcome,
};
use hinn::user::{ScriptedUser, UserResponse};
use proptest::prelude::*;
use std::time::Duration;

fn unif(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministically build one of the five named pathologies.
fn pathological_points(kind: usize, d: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    match kind % 5 {
        // Constant dimensions: the odd axes carry no information at all.
        0 => (0..n)
            .map(|_| {
                (0..d)
                    .map(|j| {
                        if j % 2 == 1 {
                            3.25
                        } else {
                            unif(&mut state) * 10.0
                        }
                    })
                    .collect()
            })
            .collect(),
        // All-duplicate points: zero spread in every direction.
        1 => {
            let p: Vec<f64> = (0..d).map(|_| unif(&mut state) * 10.0).collect();
            vec![p; n]
        }
        // Fewer points than the support (the caller's support is ≥ 8).
        2 => (0..3)
            .map(|_| (0..d).map(|_| unif(&mut state) * 10.0).collect())
            .collect(),
        // Fewer points than dimensions: covariance rank-deficient by
        // construction.
        3 => {
            let d = d.max(4);
            (0..d - 1)
                .map(|_| (0..d).map(|_| unif(&mut state) * 10.0).collect())
                .collect()
        }
        // Near-singular cluster: collinear up to ~1e-9 jitter.
        _ => {
            let dir: Vec<f64> = (0..d).map(|_| unif(&mut state) * 2.0 - 1.0).collect();
            (0..n)
                .map(|_| {
                    let t = unif(&mut state) * 100.0;
                    dir.iter()
                        .map(|v| t * v + (unif(&mut state) - 0.5) * 1e-9)
                        .collect()
                })
                .collect()
        }
    }
}

fn responses(seed: u64, len: usize) -> Vec<UserResponse> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            if unif(&mut state) < 0.4 {
                UserResponse::Discard
            } else {
                UserResponse::Threshold(unif(&mut state) * 10.0 + 1e-6)
            }
        })
        .collect()
}

fn try_session(
    points: &[Vec<f64>],
    query: &[f64],
    mode: ProjectionMode,
    support: usize,
    threads: usize,
    rsp: &[UserResponse],
) -> Result<SearchOutcome, HinnError> {
    let config = SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        grid_n: 16,
        projection_mode: mode,
        ..SearchConfig::default()
            .with_support(support)
            .with_parallelism(Parallelism::fixed(threads))
    };
    let mut user = ScriptedUser::new(rsp.to_vec());
    InteractiveSearch::try_new(config)?
        .run_with(
            &DatasetHandle::new(points).expect("dataset"),
            query,
            &mut user,
            hinn::core::RunOptions::default(),
        )
        .map(hinn::core::RunOutput::into_outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn try_run_is_panic_free_and_budget_deterministic(
        kind in 0usize..5,
        d in 2usize..8,
        n in 4usize..40,
        seed in 1u64..1_000_000,
        support in 8usize..25,
        mode_axis in proptest::bool::ANY,
        qidx in 0usize..64,
    ) {
        let points = pathological_points(kind, d, n, seed);
        let query = points[qidx % points.len()].clone();
        let mode = if mode_axis {
            ProjectionMode::AxisParallel
        } else {
            ProjectionMode::Arbitrary
        };
        let rsp = responses(seed, 24);

        // Contract 1: no panic — reaching the match below proves it for
        // this input; a typed error is an acceptable outcome.
        let narrow = try_session(&points, &query, mode, support, 1, &rsp);
        let wide = try_session(&points, &query, mode, support, 4, &rsp);

        // Contract 2: bit-level determinism across thread budgets.
        match (narrow, wide) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.neighbors, &b.neighbors);
                prop_assert_eq!(a.majors_run, b.majors_run);
                for (pa, pb) in a.probabilities.iter().zip(&b.probabilities) {
                    prop_assert_eq!(pa.to_bits(), pb.to_bits());
                }
                prop_assert_eq!(
                    a.degradations().len(),
                    b.degradations().len(),
                    "the ladder itself must be deterministic"
                );
                // Structural sanity on the pathological outcome.
                prop_assert_eq!(a.probabilities.len(), points.len());
                for p in &a.probabilities {
                    prop_assert!((0.0..=1.0).contains(p), "P out of range: {}", p);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "budgets disagree on success: 1 thread → {:?}, 4 threads → {:?}",
                a.map(|o| o.neighbors.len()),
                b.map(|o| o.neighbors.len())
            ),
        }
    }
}

#[test]
fn expired_wall_clock_deadline_is_a_typed_error() {
    // A real (un-faulted) deadline: a 1 ns budget has always expired by
    // the first minor-iteration checkpoint.
    let points = pathological_points(0, 6, 60, 7);
    let query = points[0].clone();
    let config = SearchConfig::default()
        .with_support(10)
        .with_deadline(Duration::from_nanos(1));
    let mut user = ScriptedUser::new(responses(7, 12));
    let err = InteractiveSearch::try_new(config)
        .expect("valid config")
        .run_with(
            &DatasetHandle::new(&points).expect("dataset"),
            &query,
            &mut user,
            hinn::core::RunOptions::default(),
        )
        .map(hinn::core::RunOutput::into_outcome)
        .expect_err("a 1 ns deadline cannot be met");
    match err {
        HinnError::Deadline {
            phase,
            elapsed,
            budget,
        } => {
            assert_eq!(phase, "search.minor");
            assert!(elapsed > budget);
            assert_eq!(budget, Duration::from_nanos(1));
        }
        other => panic!("expected Deadline, got {other:?}"),
    }
}
