//! Behavioral tests of the search loop beyond the happy path: weight
//! handling, termination, and degenerate inputs.

use hinn_core::{DatasetHandle, EpochError, InteractiveSearch, ProjectionMode, SearchConfig};
use hinn_user::{HeuristicUser, ScriptedUser, UserResponse};

/// 6-D data with a 25-point cluster tight in dims 0..3 around 50 and 75
/// uniform background points; returns (points, members).
fn planted() -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut state = 0x12345678ABCDEFu64;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = Vec::new();
    for _ in 0..25 {
        let mut p: Vec<f64> = (0..6).map(|_| unif() * 100.0).collect();
        for coord in p.iter_mut().take(3) {
            *coord = 50.0 + (unif() - 0.5) * 2.0;
        }
        pts.push(p);
    }
    for _ in 0..75 {
        pts.push((0..6).map(|_| unif() * 100.0).collect());
    }
    (pts, (0..25).collect())
}

#[test]
fn weights_change_the_probabilities() {
    // A cluster tight in *all* dimensions: every view of a major iteration
    // shows it, so every view is accepted and the per-view weights matter.
    let mut state = 0xFEEDFACEu64;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for _ in 0..25 {
        pts.push((0..6).map(|_| 50.0 + (unif() - 0.5) * 2.0).collect());
    }
    for _ in 0..75 {
        pts.push((0..6).map(|_| unif() * 100.0).collect());
    }
    let query = vec![50.0, 50.0, 50.0, 50.0, 50.0, 50.0];
    let base = SearchConfig {
        max_major_iterations: 1,
        min_major_iterations: 1,
        ..SearchConfig::default()
            .with_support(10)
            .with_mode(ProjectionMode::AxisParallel)
    };

    let run = |weights: Vec<f64>| {
        let config = SearchConfig {
            projection_weights: weights,
            ..base.clone()
        };
        let mut user = HeuristicUser::default();
        InteractiveSearch::new(config)
            .run_with(
                &hinn_data::DatasetHandle::new(&pts).expect("epoch handle"),
                &query,
                &mut user,
                hinn_core::RunOptions::default(),
            )
            .expect("interactive session")
            .into_outcome()
            .probabilities
    };
    let uniform = run(Vec::new());
    // Down-weight every view after the first.
    let skewed = run(vec![1.0, 0.1, 0.1]);
    assert_ne!(
        uniform, skewed,
        "weights must influence the meaningfulness probabilities"
    );
}

#[test]
fn termination_stops_at_min_major_when_ranking_is_stable() {
    let (pts, _) = planted();
    let query = vec![50.0; 6];
    // A user whose picks never change: same threshold forever.
    let config = SearchConfig {
        min_major_iterations: 2,
        max_major_iterations: 6,
        overlap_threshold: 0.5,
        ..SearchConfig::default()
            .with_support(10)
            .with_mode(ProjectionMode::AxisParallel)
    };
    let mut user = HeuristicUser::default();
    let outcome = InteractiveSearch::new(config)
        .run_with(
            &hinn_data::DatasetHandle::new(&pts).expect("epoch handle"),
            &query,
            &mut user,
            hinn_core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    assert!(
        outcome.majors_run < 6,
        "a stable session must terminate early, ran {}",
        outcome.majors_run
    );
    assert!(outcome.majors_run >= 2, "min_major_iterations respected");
}

#[test]
fn max_major_is_a_hard_cap_when_overlap_never_stabilizes() {
    let (pts, _) = planted();
    let query = vec![50.0; 6];
    let config = SearchConfig {
        min_major_iterations: 1,
        max_major_iterations: 3,
        overlap_threshold: 1.1_f64.min(1.0), // always-unreachable overlap
        ..SearchConfig::default().with_support(10)
    };
    // overlap_threshold 1.0 is reachable when rankings are identical, so
    // force churn with a user that alternates picks.
    let responses = (0..100).map(|i| {
        if i % 2 == 0 {
            UserResponse::Discard
        } else {
            UserResponse::Threshold(1e-9)
        }
    });
    let mut user = ScriptedUser::new(responses);
    let outcome = InteractiveSearch::new(config)
        .run_with(
            &hinn_data::DatasetHandle::new(&pts).expect("epoch handle"),
            &query,
            &mut user,
            hinn_core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    assert!(outcome.majors_run <= 3);
}

#[test]
fn two_dimensional_data_runs_a_single_minor_iteration() {
    let pts: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 7) as f64, (i / 7) as f64])
        .collect();
    let config = SearchConfig {
        max_major_iterations: 1,
        min_major_iterations: 1,
        ..SearchConfig::default().with_support(5)
    };
    let mut user = HeuristicUser::default();
    let outcome = InteractiveSearch::new(config)
        .run_with(
            &hinn_data::DatasetHandle::new(&pts).expect("epoch handle"),
            &[3.0, 3.0],
            &mut user,
            hinn_core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    assert_eq!(
        outcome.transcript.majors[0].minors.len(),
        1,
        "d=2 → one view"
    );
}

#[test]
fn duplicate_points_are_handled() {
    // 40 identical points + 10 others: degenerate covariance everywhere.
    let mut pts = vec![vec![5.0, 5.0, 5.0, 5.0]; 40];
    for i in 0..10 {
        pts.push(vec![i as f64, 100.0 - i as f64, 2.0 * i as f64, 50.0]);
    }
    let config = SearchConfig {
        max_major_iterations: 1,
        min_major_iterations: 1,
        ..SearchConfig::default().with_support(5)
    };
    let mut user = HeuristicUser::default();
    // Must not panic; NaN-free probabilities.
    let outcome = InteractiveSearch::new(config)
        .run_with(
            &hinn_data::DatasetHandle::new(&pts).expect("epoch handle"),
            &[5.0; 4],
            &mut user,
            hinn_core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    assert!(outcome.probabilities.iter().all(|p| p.is_finite()));
}

#[test]
fn odd_dimensionality_gets_floor_of_d_over_2_views() {
    let (pts, _) = planted();
    // Truncate to 5 dims (odd).
    let pts5: Vec<Vec<f64>> = pts.iter().map(|p| p[..5].to_vec()).collect();
    let config = SearchConfig {
        max_major_iterations: 1,
        min_major_iterations: 1,
        ..SearchConfig::default().with_support(8)
    };
    let mut user = HeuristicUser::default();
    let outcome = InteractiveSearch::new(config)
        .run_with(
            &hinn_data::DatasetHandle::new(&pts5).expect("epoch handle"),
            &[50.0; 5],
            &mut user,
            hinn_core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    // d = 5 → floor(5/2) = 2 views.
    assert_eq!(outcome.transcript.majors[0].minors.len(), 2);
}

#[test]
fn nan_data_is_refused_where_it_enters() {
    // Rows are checked once, when they enter the handle: a session never
    // sees a non-finite coordinate.
    let err = DatasetHandle::new(&[vec![0.0, 1.0], vec![f64::NAN, 2.0]]).expect_err("NaN row");
    assert_eq!(err, EpochError::NonFinite { row: 1 });
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn ragged_data_is_refused_where_it_enters() {
    let handle = DatasetHandle::new(&[vec![0.0, 1.0]]).expect("clean row");
    let err = handle.append(&[vec![1.0]]).expect_err("ragged row");
    assert_eq!(
        err,
        EpochError::DimMismatch {
            expected: 2,
            got: 1,
            row: 0
        }
    );
    assert_eq!(
        handle.len(),
        1,
        "a refused batch leaves the handle unchanged"
    );
}
