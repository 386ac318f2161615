//! An epoch's HNSW graph grows out of its predecessor's, however many
//! datasets the process serves at once.
//!
//! Each `DatasetHandle` keeps the graphs of its own epochs, so a seed on a
//! new epoch inserts only the appended rows (`index.extend`) instead of
//! building the graph again (`index.build`), no matter how many other
//! handles seeded in between. The test counts those spans; it does not
//! time them.
//!
//! The recorder is process-global, so this binary holds this one test and
//! nothing else writes to it while it counts.

use hinn::core::{CandidateSource, DatasetHandle, EpochSnapshot, Parallelism};
use hinn::obs::{SessionRecorder, TelemetryReport};
use std::sync::Arc;

const HANDLES: usize = 16;
const ROUNDS: usize = 4;
const ROWS: usize = 100;
const DIM: usize = 6;
const BUDGET: usize = 20;

/// Deterministic xorshift point cloud, `n` points in `DIM` dimensions.
fn cloud(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..DIM).map(|_| unif() * 100.0 - 50.0).collect())
        .collect()
}

/// `(index.build, index.extend)` spans recorded so far.
fn graph_work(recorder: &SessionRecorder) -> (u64, u64) {
    let report: TelemetryReport = recorder.report();
    let count = |name: &str| report.find_span(name).map_or(0, |s| s.count);
    (count("index.build"), count("index.extend"))
}

#[test]
fn interleaved_handles_extend_every_epoch_after_the_first() {
    let recorder = Arc::new(SessionRecorder::new());
    let _installed = hinn::obs::install(recorder.clone());
    let src = CandidateSource::hnsw(BUDGET);
    let par = Parallelism::serial();
    let seed = |snap: &EpochSnapshot, query: &[f64]| {
        let ids = src.top_k(par, snap, query, BUDGET);
        assert_eq!(ids.len(), BUDGET);
    };

    // Round-robin appends: every handle's next epoch is seeded after all
    // the other handles have seeded theirs.
    let handles: Vec<DatasetHandle> = (0..HANDLES)
        .map(|_| DatasetHandle::empty(DIM).expect("dim"))
        .collect();
    let mut first_epochs = Vec::new();
    for round in 0..ROUNDS {
        for (h, handle) in handles.iter().enumerate() {
            let rows = cloud(ROWS, (h * ROUNDS + round) as u64 + 1);
            let snap = handle.append(&rows).expect("clean rows");
            seed(&snap, &rows[0]);
            if round == 0 {
                first_epochs.push(snap);
            }
        }
    }
    let (builds, extends) = graph_work(&recorder);
    assert_eq!(builds, HANDLES as u64, "one cold build per handle");
    assert_eq!(
        extends,
        (HANDLES * (ROUNDS - 1)) as u64,
        "every later epoch extends its predecessor's graph"
    );

    // A pinned epoch keeps the graph it was seeded with: seeding it again
    // (a warm-tier restore, say) builds nothing.
    for (snap, h) in first_epochs.iter().zip(0..) {
        seed(snap, &cloud(1, h * ROUNDS as u64 + 1)[0]);
    }
    assert_eq!(
        graph_work(&recorder),
        (builds, extends),
        "a pinned epoch rebuilt"
    );

    // An older epoch first seeded after its handle has grown past it
    // cannot extend the longer graph: it builds its own, once. (The newer
    // epoch has no graph to extend either, so it builds too.)
    let handle = DatasetHandle::new(&cloud(ROWS, 0xA11)).expect("clean rows");
    let older = handle.snapshot();
    let newer = handle.append(&cloud(ROWS, 0xA12)).expect("clean rows");
    seed(&newer, &cloud(1, 0xA12)[0]);
    seed(&older, &cloud(1, 0xA11)[0]);
    seed(&older, &cloud(1, 0xA11)[0]);
    assert_eq!(graph_work(&recorder), (builds + 2, extends));
}
