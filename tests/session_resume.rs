//! Suspend/resume equivalence: a session that is snapshotted to text and
//! restored — at *every* suspension point, onto different thread budgets —
//! finishes with a byte-identical transcript and outcome to the session
//! that was never interrupted.
//!
//! This is the serving layer's core correctness claim: eviction to the
//! warm tier and transparent restore are invisible to results. The engine
//! makes it checkable because the snapshot carries *all* loop state and
//! the pending view is a pure function of that state.
//!
//! It is also the check that a replayed major equals a recomputed one.
//! An uninterrupted session replays the views of a major that dropped no
//! point; a resumed engine has no record of earlier views and recomputes
//! every one of them.
//!
//! An index-seeded session ranks from its candidates alone. A fresh engine
//! takes them from the seed; a resumed one rebuilds them from the snapshot
//! (the alive ids and every id with probability mass), so the seeded
//! sources are resumed at every view too.

use hinn::core::{
    CandidateSource, DatasetHandle, Parallelism, SearchConfig, SearchOutcome, SessionEngine,
    SessionSnapshot, Step,
};
use hinn::par::SERIAL_CUTOFF;
use hinn::user::{HeuristicUser, ScriptedUser, UserModel, UserResponse};

/// Deterministic xorshift point cloud sized so worker threads really
/// spawn (above `SERIAL_CUTOFF` the parallel paths stop running inline).
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

fn config(par: Parallelism) -> SearchConfig {
    SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        ..SearchConfig::default()
            .with_support(25)
            .with_parallelism(par)
    }
}

/// Render everything response-visible about a transcript, bit-exactly
/// (`{:?}` on an f64 prints its shortest round-trip form, so equal text
/// means equal bits).
fn transcript_text(o: &SearchOutcome) -> String {
    let mut out = String::new();
    for (mi, major) in o.transcript.majors.iter().enumerate() {
        out.push_str(&format!(
            "major {mi}: {} -> {} overlap {:?}\n",
            major.n_points_before, major.n_points_after, major.overlap_with_previous
        ));
        for r in &major.minors {
            out.push_str(&format!(
                "  minor {}.{} response {:?} picked {} qpr {:?} ratios {:?}\n",
                r.major, r.minor, r.response, r.n_picked, r.query_peak_ratio, r.variance_ratios
            ));
        }
    }
    out.push_str(&format!(
        "neighbors {:?}\nprobabilities {:?}\nmajors_run {}\n",
        o.neighbors, o.probabilities, o.majors_run
    ));
    out
}

/// Run a session to completion with no interruption.
fn uninterrupted(
    data: &DatasetHandle,
    query: &[f64],
    cfg: SearchConfig,
    user: &mut dyn UserModel,
) -> SearchOutcome {
    let (mut engine, mut step) = SessionEngine::start(cfg, data, query).expect("start");
    loop {
        match step {
            Step::Done(outcome) => return *outcome,
            Step::NeedResponse(req) => {
                let r = user.respond(req.profile(), req.context());
                step = engine.submit(r).expect("submit");
            }
        }
    }
}

/// Run the same session, but at every suspension point serialize the
/// engine to text, drop it, and resume from the parsed text under
/// `resume_cfg` — exercising snapshot/restore at every view and proving
/// the thread budget is a resume-time free choice.
fn interrupted_at_every_view(
    data: &DatasetHandle,
    query: &[f64],
    start_cfg: SearchConfig,
    resume_cfg: SearchConfig,
    user: &mut dyn UserModel,
) -> (SearchOutcome, usize) {
    let (mut engine, mut step) = SessionEngine::start(start_cfg, data, query).expect("start");
    let mut resumes = 0;
    loop {
        match step {
            Step::Done(outcome) => return (*outcome, resumes),
            Step::NeedResponse(req) => {
                // Suspend: serialize, destroy the engine, round-trip the
                // text, restore on a different budget.
                let text = engine.snapshot().expect("snapshot").to_string();
                drop(engine);
                let snap = SessionSnapshot::from_text(text).expect("parse snapshot");
                let restored =
                    SessionEngine::resume(resume_cfg.clone(), data, &snap).expect("resume");
                engine = restored.0;
                resumes += 1;
                // The recomputed pending view must be the very view we
                // were answering.
                let again = match &restored.1 {
                    Step::NeedResponse(r) => r,
                    Step::Done(_) => panic!("resume finished a suspended session"),
                };
                assert_eq!(req.context().major, again.context().major);
                assert_eq!(req.context().minor, again.context().minor);
                assert_eq!(req.context().original_ids, again.context().original_ids);
                let r = user.respond(again.profile(), again.context());
                step = engine.submit(r).expect("submit");
            }
        }
    }
}

/// Does the session contain a major that dropped no point followed by
/// another major (which then replays the first one's views)?
fn has_replayed_major(o: &SearchOutcome) -> bool {
    o.transcript
        .majors
        .windows(2)
        .any(|w| w[0].n_points_after == w[0].n_points_before)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn resume_at_every_view_is_byte_identical_across_budgets() {
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let data = DatasetHandle::new(&points).expect("dataset");
    let reference = uninterrupted(
        &data,
        &query,
        config(Parallelism::fixed(1)),
        &mut HeuristicUser::default(),
    );
    let want = transcript_text(&reference);
    for (start_t, resume_t) in [(1, 4), (4, 1), (4, 4)] {
        let (outcome, resumes) = interrupted_at_every_view(
            &data,
            &query,
            config(Parallelism::fixed(start_t)),
            config(Parallelism::fixed(resume_t)),
            &mut HeuristicUser::default(),
        );
        assert!(resumes > 0, "the session never suspended");
        assert_eq!(
            transcript_text(&outcome),
            want,
            "transcript diverged (start {start_t} threads, resume {resume_t} threads, \
             {resumes} resumes)"
        );
        assert_eq!(
            bits(&reference.probabilities),
            bits(&outcome.probabilities),
            "probabilities not bit-identical (start {start_t}, resume {resume_t})"
        );
        assert_eq!(reference.neighbors, outcome.neighbors);
    }
}

/// Replay equals recompute. Two users make the first major drop no point:
/// one keeps every point (the survivors are the alive set), one discards
/// every view (fewer than two survivors, so the alive set stays). The
/// uninterrupted session replays the second major; the session resumed at
/// every view recomputes it. Both must agree bit for bit.
#[test]
fn replayed_majors_equal_recomputed_ones() {
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let data = DatasetHandle::new(&points).expect("dataset");
    let users = [
        ("keep all", UserResponse::Threshold(0.0)),
        ("discard all", UserResponse::Discard),
    ];
    for (label, response) in users {
        let make_user = || ScriptedUser::new([]).with_fallback(response.clone());
        for threads in [1, 4] {
            let par = Parallelism::fixed(threads);
            let replayed = uninterrupted(&data, &query, config(par), &mut make_user());
            assert!(
                has_replayed_major(&replayed),
                "{label}, {threads} threads: no major repeats its predecessor's candidates"
            );
            let (recomputed, resumes) = interrupted_at_every_view(
                &data,
                &query,
                config(par),
                config(par),
                &mut make_user(),
            );
            assert!(resumes > 0, "the session never suspended");
            assert_eq!(
                transcript_text(&recomputed),
                transcript_text(&replayed),
                "{label}, {threads} threads: replayed views differ from recomputed ones"
            );
            assert_eq!(
                bits(&recomputed.probabilities),
                bits(&replayed.probabilities)
            );
            assert_eq!(
                format!("{:?}", recomputed.transcript.degradations.events),
                format!("{:?}", replayed.transcript.degradations.events),
                "{label}, {threads} threads: degradation logs differ"
            );
        }
    }
}

/// HNSW- and linear-seeded sessions, resumed at every view across thread
/// budgets, match the uninterrupted session byte for byte. The users
/// cover both ways a ranking reads its candidates: a heuristic one gives
/// mass to some of them, and one that discards every view leaves all at
/// +0.0, so every ranking reads the ids nearest the query.
#[test]
fn seeded_sessions_resume_at_every_view_byte_identically() {
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let data = DatasetHandle::new(&points).expect("dataset");
    for source in [
        CandidateSource::hnsw(300),
        CandidateSource::Linear { budget: 300 },
    ] {
        // Four majors: a later one drops ids that earlier ones gave mass,
        // and a resumed engine must still rank them.
        let cfg = |threads| SearchConfig {
            max_major_iterations: 4,
            min_major_iterations: 4,
            ..config(Parallelism::fixed(threads)).with_candidate_source(source.clone())
        };
        let users: [fn() -> Box<dyn UserModel>; 2] = [
            || Box::new(HeuristicUser::default()),
            || Box::new(ScriptedUser::new([]).with_fallback(UserResponse::Discard)),
        ];
        for make_user in users {
            let reference = uninterrupted(&data, &query, cfg(1), make_user().as_mut());
            assert_eq!(
                reference.transcript.majors[0].n_points_before, 300,
                "{source:?}: the session did not run on its seed"
            );
            let (outcome, resumes) =
                interrupted_at_every_view(&data, &query, cfg(1), cfg(4), make_user().as_mut());
            assert!(resumes > 0, "the session never suspended");
            assert_eq!(
                transcript_text(&outcome),
                transcript_text(&reference),
                "{source:?}: the resumed transcript diverged"
            );
            assert_eq!(bits(&outcome.probabilities), bits(&reference.probabilities));
            assert_eq!(
                format!("{:?}", outcome.diagnosis),
                format!("{:?}", reference.diagnosis)
            );
        }
    }
}

#[test]
fn snapshots_of_identical_sessions_are_identical_text() {
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let snap = |threads: usize| {
        let (mut engine, mut step) = SessionEngine::start(
            config(Parallelism::fixed(threads)),
            &DatasetHandle::new(&points).expect("dataset"),
            &query,
        )
        .expect("start");
        let mut user = HeuristicUser::default();
        // Advance three views in, then serialize.
        for _ in 0..3 {
            let req = match &step {
                Step::NeedResponse(req) => req.clone(),
                Step::Done(_) => panic!("session too short for the fixture"),
            };
            let r = user.respond(req.profile(), req.context());
            step = engine.submit(r).expect("submit");
        }
        engine.snapshot().expect("snapshot").to_string()
    };
    // Same session, different thread budgets: the serialized state is the
    // same text, byte for byte (parallelism is excluded from the config
    // fingerprint precisely because it cannot affect state).
    assert_eq!(snap(1), snap(4));
}
