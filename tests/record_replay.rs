//! Integration test: a recorded interactive session replays to the exact
//! same outcome — the audit/regression feature of `hinn::user::recording`.
//!
//! Also pins that replaying a recorded session on a fresh engine yields
//! the same outcome and a byte-identical re-recorded session file.

use hinn::core::{DatasetHandle, InteractiveSearch, ProjectionMode, SearchConfig};
use hinn::data::projected::{generate_projected_clusters_detailed, ProjectedClusterSpec};
use hinn::user::{session_from_string, session_to_string, HeuristicUser, RecordingUser};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn recorded_session_replays_identically() {
    let spec = ProjectedClusterSpec {
        n_points: 600,
        dim: 8,
        n_clusters: 2,
        cluster_dim: 4,
        ..ProjectedClusterSpec::small_test()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let (data, _truth) = generate_projected_clusters_detailed(&spec, &mut rng);
    let query = data.points[data.cluster_members(0)[0]].clone();
    let config = SearchConfig::default()
        .with_support(15)
        .with_mode(ProjectionMode::AxisParallel);

    // Live session with a recorder around the simulated human.
    let mut recorder = RecordingUser::new(HeuristicUser::default());
    let live = InteractiveSearch::new(config.clone())
        .run_with(
            &DatasetHandle::new(&data.points).expect("dataset"),
            &query,
            &mut recorder,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    let (_, log) = recorder.into_parts();
    assert_eq!(log.len(), live.transcript.total_views());

    // Serialize → parse → replay.
    let text = session_to_string(&log);
    let mut replay = session_from_string(&text).expect("parse recorded session");
    let replayed = InteractiveSearch::new(config)
        .run_with(
            &DatasetHandle::new(&data.points).expect("dataset"),
            &query,
            &mut replay,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();

    assert_eq!(replayed.neighbors, live.neighbors);
    assert_eq!(replayed.probabilities, live.probabilities);
    assert_eq!(replayed.majors_run, live.majors_run);
    assert_eq!(
        replayed.diagnosis.is_meaningful(),
        live.diagnosis.is_meaningful()
    );
    // Per-view picks agree too.
    for (a, b) in live
        .transcript
        .iter_minors()
        .zip(replayed.transcript.iter_minors())
    {
        assert_eq!(a.n_picked, b.n_picked);
        assert_eq!(a.response, b.response);
    }
}

#[test]
fn replay_on_a_fresh_engine_is_byte_stable() {
    let spec = ProjectedClusterSpec {
        n_points: 600,
        dim: 8,
        n_clusters: 2,
        cluster_dim: 4,
        ..ProjectedClusterSpec::small_test()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let (data, _truth) = generate_projected_clusters_detailed(&spec, &mut rng);
    let query = data.points[data.cluster_members(0)[0]].clone();
    let config = SearchConfig::default()
        .with_support(15)
        .with_mode(ProjectionMode::AxisParallel);

    // Record a live session.
    let engine = InteractiveSearch::new(config.clone());
    let mut recorder = RecordingUser::new(HeuristicUser::default());
    let live = engine
        .run_with(
            &DatasetHandle::new(&data.points).expect("dataset"),
            &query,
            &mut recorder,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    let (_, log) = recorder.into_parts();
    let text = session_to_string(&log);

    // Replay the recorded session on a *fresh* engine, re-recording as we
    // go. The replay must neither change the outcome nor perturb a single
    // byte of the audit trail.
    let replay = session_from_string(&text).expect("parse recorded session");
    let served = InteractiveSearch::new(config);
    let mut re_recorder = RecordingUser::new(replay);
    let replayed = served
        .run_with(
            &DatasetHandle::new(&data.points).expect("dataset"),
            &query,
            &mut re_recorder,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome();
    let (_, re_log) = re_recorder.into_parts();

    assert_eq!(replayed.neighbors, live.neighbors);
    assert_eq!(
        live.probabilities
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        replayed
            .probabilities
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        "probabilities not bit-identical on replay"
    );
    assert_eq!(replayed.majors_run, live.majors_run);
    assert_eq!(
        session_to_string(&re_log),
        text,
        "re-recorded session file must be byte-identical"
    );
}
