//! Streaming-epoch determinism: the contract that makes incremental
//! ingest/delete safe to serve from.
//!
//! Two claims, each at the integration level (facade API, real search
//! sessions, thread budgets {1, 4}):
//!
//! 1. **chunking invariance** — a dataset grown row-by-row and the same
//!    dataset ingested in one batch are the *same epoch*: identical
//!    chained fingerprint, identical epoch counter, and bit-identical
//!    search outcomes (probabilities compared via `f64::to_bits`,
//!    telemetry counter maps included);
//! 2. **typed consistency** — a session snapshot carries its pinned
//!    epoch through text serialization, so resuming against moved data
//!    is the typed `HinnError::EpochMismatch` (never a silent answer
//!    from the wrong dataset), while resuming on the pinned snapshot or
//!    explicitly rebasing both work.

use hinn::core::{
    CandidateSource, DatasetHandle, HinnError, InteractiveSearch, Parallelism, RunOptions,
    SearchConfig, SearchOutcome, SessionEngine, SessionSnapshot, Step,
};
use hinn::par::SERIAL_CUTOFF;
use hinn::user::{HeuristicUser, ScriptedUser, UserModel, UserResponse};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

/// Held for the whole of each test. The telemetry recorder is
/// process-global: while a traced session runs, every session in the
/// process emits into its report, so an untraced session in a concurrent
/// test would add its counters to the traced ones compared below.
static SESSIONS: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    SESSIONS.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Bit-exact outcome summary: neighbor ids, probability bits, majors.
fn bits(o: &SearchOutcome) -> (Vec<usize>, Vec<u64>, usize) {
    (
        o.neighbors.clone(),
        o.probabilities.iter().map(|p| p.to_bits()).collect(),
        o.majors_run,
    )
}

/// Grow one handle in one `append` + one `delete`, the other in drips of
/// uneven chunk sizes — then check they are indistinguishable: same
/// fingerprint, same epoch counter, and bit-identical traced sessions.
#[test]
fn chunked_and_batched_ingest_replay_bit_identically() {
    let _sessions = exclusive();
    let base = cloud(SERIAL_CUTOFF + 60, 6, 0xE90C);
    let extra = cloud(48, 6, 0xA11CE);
    let doomed: Vec<usize> = (0..20).chain([40, 41, 55]).collect();
    let query = base[30].clone();

    let all: Vec<Vec<f64>> = base.iter().chain(extra.iter()).cloned().collect();
    let batched = DatasetHandle::new(&all).expect("batched handle");
    batched.delete(&doomed).expect("batched delete");

    let chunked = DatasetHandle::empty(6).expect("empty handle");
    for chunk in base.chunks(7) {
        chunked.append(chunk).expect("chunked append");
    }
    for chunk in extra.chunks(13) {
        chunked.append(chunk).expect("chunked append");
    }
    for id in &doomed {
        chunked.delete(&[*id]).expect("chunked delete");
    }

    // Same epoch in every observable way: the chain hashes row-ops, not
    // batch boundaries.
    let (sb, sc) = (batched.snapshot(), chunked.snapshot());
    assert_eq!(
        sb.fingerprint(),
        sc.fingerprint(),
        "fingerprint chain diverged"
    );
    assert_eq!(sb.epoch(), sc.epoch(), "epoch counters diverged");
    assert_eq!(sb.len(), sc.len());

    for budget in [1usize, 4] {
        let run = |data: &DatasetHandle| {
            let mut user = HeuristicUser::default();
            InteractiveSearch::new(config(Parallelism::fixed(budget)))
                .run_with(data, &query, &mut user, RunOptions::traced())
                .expect("interactive session")
        };
        let a = run(&batched);
        let b = run(&chunked);
        let (ta, tb) = (
            a.telemetry.clone().expect("traced"),
            b.telemetry.clone().expect("traced"),
        );
        assert_eq!(
            bits(&a.into_outcome()),
            bits(&b.into_outcome()),
            "outcomes diverged at {budget} threads"
        );
        assert_eq!(
            ta.counters, tb.counters,
            "telemetry counters diverged at {budget} threads"
        );
    }
}

/// The typed consistency rule survives text serialization: snapshot a
/// session, move the dataset, and the resume refusal names both epochs;
/// the pinned snapshot still resumes bit-identically, and an explicit
/// rebase carries the session onto the new epoch.
#[test]
fn epoch_mismatch_round_trips_through_session_snapshot() {
    let _sessions = exclusive();
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let handle = DatasetHandle::new(&points).expect("handle");
    let pinned = handle.snapshot();

    let cfg = || config(Parallelism::fixed(1));
    let (mut engine, mut step) = SessionEngine::start(cfg(), &handle, &query).expect("start");
    let mut user = HeuristicUser::default();
    // Answer one view so the snapshot has real loop state.
    if let Step::NeedResponse(req) = step {
        let r = user.respond(req.profile(), req.context());
        step = engine.submit(r).expect("submit");
    }
    assert!(
        matches!(step, Step::NeedResponse(_)),
        "fixture session too short"
    );
    let text = engine.snapshot().expect("snapshot").to_string();
    drop(engine);
    let snap = SessionSnapshot::from_text(text).expect("parse snapshot");

    // Move the dataset under the suspended session.
    handle.append(&cloud(10, 6, 0xD00D)).expect("append");
    let moved = handle.snapshot();

    let refusal = SessionEngine::resume(cfg(), &handle, &snap).map(|_| ());
    match refusal.expect_err("resume against a moved dataset must refuse") {
        HinnError::EpochMismatch { pinned: p, offered } => {
            assert_eq!(p, pinned.epoch());
            assert_eq!(offered, moved.epoch());
        }
        other => panic!("wrong refusal: {other}"),
    }

    // The pinned epoch still resumes, and runs to completion.
    let (mut engine, mut step) =
        SessionEngine::resume_at(cfg(), pinned.clone(), &snap).expect("resume_at pinned");
    assert_eq!(engine.dataset_epoch().0, pinned.epoch());
    loop {
        match step {
            Step::Done(outcome) => {
                assert!(!outcome.neighbors.is_empty());
                break;
            }
            Step::NeedResponse(req) => {
                let r = user.respond(req.profile(), req.context());
                step = engine.submit(r).expect("submit");
            }
        }
    }

    // Opting into the move is explicit — and lands on the new epoch.
    let (engine, step) =
        SessionEngine::resume_rebased(cfg(), pinned, moved.clone(), &snap).expect("rebase");
    assert_eq!(engine.dataset_epoch().0, moved.epoch());
    assert!(matches!(step, Step::NeedResponse(_)));
}

/// Drive `engine` to completion, snapshotting it and resuming the text on
/// `snap` before every response when `resume` is set.
fn finish(
    mut engine: SessionEngine,
    mut step: Step,
    snap: &Arc<hinn::data::EpochSnapshot>,
    cfg: &SearchConfig,
    resume: bool,
    user: &mut dyn UserModel,
) -> SearchOutcome {
    loop {
        match step {
            Step::Done(outcome) => return *outcome,
            Step::NeedResponse(req) => {
                let (engine_now, req) = if resume {
                    let text = engine.snapshot().expect("snapshot").to_string();
                    let parsed = SessionSnapshot::from_text(text).expect("parse snapshot");
                    let (resumed, again) =
                        SessionEngine::resume_at(cfg.clone(), snap.clone(), &parsed)
                            .expect("resume on the rebased epoch");
                    (resumed, again.view().expect("resumed at a view").clone())
                } else {
                    (engine, req)
                };
                engine = engine_now;
                let r = user.respond(req.profile(), req.context());
                step = engine.submit(r).expect("submit");
            }
        }
    }
}

/// A seeded session rebased onto a moved epoch (rows appended near the
/// query, candidates deleted) and then resumed at every view finishes
/// byte-identically to the rebased session left alone. The rebase and
/// every resume rebuild the ids the session ranks from; the appended rows
/// join with zero mass, so a user who discards every view gets them back
/// from the ids nearest the query over the new epoch.
#[test]
fn a_rebased_seeded_session_resumes_at_every_view_byte_identically() {
    let _sessions = exclusive();
    let points = cloud(SERIAL_CUTOFF + 42, 6, 0x5EED);
    let query = points[0].clone();
    let cfg = config(Parallelism::fixed(1))
        .with_candidate_source(CandidateSource::Linear { budget: 200 });
    let users: [fn() -> Box<dyn UserModel>; 2] = [
        || Box::new(HeuristicUser::default()),
        || Box::new(ScriptedUser::new([]).with_fallback(UserResponse::Discard)),
    ];
    for (u, make_user) in users.into_iter().enumerate() {
        let handle = DatasetHandle::new(&points).expect("handle");
        let pinned = handle.snapshot();
        let (mut engine, mut step) =
            SessionEngine::start(cfg.clone(), &handle, &query).expect("start");
        let mut user = make_user();
        // Answer the first major's views, so the snapshot carries mass.
        for _ in 0..3 {
            let req = step.view().expect("fixture session too short").clone();
            step = engine
                .submit(user.respond(req.profile(), req.context()))
                .expect("submit");
        }
        let snap = SessionSnapshot::from_text(engine.snapshot().expect("snapshot").to_string())
            .expect("parse snapshot");
        drop(engine);

        // Rows at the query join; the session's three nearest candidates
        // and two far ones leave.
        let near: Vec<Vec<f64>> = (1..=3)
            .map(|k| query.iter().map(|v| v + 1e-3 * k as f64).collect())
            .collect();
        let first_new = pinned.appended_len();
        handle.append(&near).expect("append");
        let mut by_dist: Vec<usize> = (0..points.len()).collect();
        by_dist.sort_by(|&a, &b| {
            let d = |i: usize| -> f64 {
                points[i]
                    .iter()
                    .zip(&query)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum()
            };
            d(a).total_cmp(&d(b)).then(a.cmp(&b))
        });
        handle
            .delete(&[
                by_dist[1],
                by_dist[2],
                by_dist[3],
                by_dist[150],
                by_dist[199],
            ])
            .expect("delete");
        let onto = handle.snapshot();

        let rebase = || {
            SessionEngine::resume_rebased(cfg.clone(), pinned.clone(), onto.clone(), &snap)
                .expect("rebase")
        };
        let (engine, step) = rebase();
        let alone = finish(engine, step, &onto, &cfg, false, make_user().as_mut());
        let (engine, step) = rebase();
        let resumed = finish(engine, step, &onto, &cfg, true, make_user().as_mut());
        assert_eq!(
            bits(&alone),
            bits(&resumed),
            "user {u}: resumes changed the outcome"
        );
        assert_eq!(
            format!("{:?}", alone.diagnosis),
            format!("{:?}", resumed.diagnosis)
        );
        if u == 1 {
            let joined: Vec<usize> = (first_new..first_new + near.len())
                .map(|gid| onto.dense_index_of(gid).expect("appended row is alive"))
                .collect();
            assert!(
                joined.iter().all(|id| alone.neighbors.contains(id)),
                "the appended rows at the query are missing from {:?}",
                alone.neighbors
            );
        }
    }
}
