//! Serving-layer soak: hundreds of interleaved sessions squeezed through
//! a small hot tier.
//!
//! 512 sessions are opened and driven in a deterministically-random
//! interleaving with at most 64 concurrently open, while the manager is
//! allowed only 24 resident engines — so sessions constantly bounce
//! between the hot and warm tiers. The test asserts the serving layer's
//! three promises:
//!
//! 1. **bounded residency** — the hot tier never exceeds its cap and the
//!    warm tier never exceeds its LRU capacity, at every step;
//! 2. **transparent restore** — sessions complete through arbitrary
//!    evict/resume cycles, and sessions asking the same query finish with
//!    bit-identical outcomes no matter how they were interleaved;
//! 3. **typed loss** — when the warm tier is too small, losing a session
//!    is a `SessionEvicted` error at its next submit, never a panic or a
//!    wrong answer.
//!
//! The thread budget comes from `HINN_THREADS` (the CI matrix runs 1
//! and 4). Set `HINN_OBS_EXPORT_SOAK=/path/to.json` to export the soak's
//! full telemetry report (the CI `serve` job uploads it as an artifact).

use hinn::obs::SessionRecorder;
use hinn::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Held for the whole of each test. The telemetry recorder is
/// process-global: while the soak's recorder is installed, every session
/// in the process emits into its report, so the sessions of a concurrent
/// test would add to the `session.*` counters the soak asserts.
static SESSIONS: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    SESSIONS.lock().unwrap_or_else(|e| e.into_inner())
}

const TOTAL_SESSIONS: usize = 512;
const WINDOW: usize = 64;
const MAX_RESIDENT: usize = 24;
const DISTINCT_QUERIES: usize = 8;

/// Deterministic xorshift stream driving the interleaving choices.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 8-D planted cluster plus background noise.
fn planted() -> Vec<Vec<f64>> {
    let mut rng = XorShift(0xDA3E39CB94B95BDB);
    let unif = |rng: &mut XorShift| (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let d = 8;
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for _ in 0..30 {
        pts.push(
            (0..d)
                .map(|_| 50.0 + (unif(&mut rng) - 0.5) * 2.0)
                .collect(),
        );
    }
    for _ in 0..170 {
        pts.push((0..d).map(|_| unif(&mut rng) * 100.0).collect());
    }
    pts
}

fn search_config() -> SearchConfig {
    SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        ..SearchConfig::default().with_support(20)
    }
}

/// Queries cycled across sessions: near-cluster points perturbed per
/// query index, so the soak exercises distinct-but-related sessions.
fn queries(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..DISTINCT_QUERIES)
        .map(|i| {
            let mut q = points[i].clone();
            for x in &mut q {
                *x += i as f64 * 0.125;
            }
            q
        })
        .collect()
}

/// One in-flight session: its manager id, its simulated human, which
/// query it asks, and the view it is currently looking at.
struct Live {
    id: SessionId,
    user: HeuristicUser,
    query_idx: usize,
    view: hinn::serve::ViewRequest,
}

/// A bit-exact summary of an outcome, for cross-session comparison.
fn outcome_bits(o: &SearchOutcome) -> (Vec<usize>, Vec<u64>, usize) {
    (
        o.neighbors.clone(),
        o.probabilities.iter().map(|p| p.to_bits()).collect(),
        o.majors_run,
    )
}

#[test]
fn soak_512_interleaved_sessions_through_a_tiny_hot_tier() {
    let _sessions = exclusive();
    let recorder = Arc::new(SessionRecorder::new());
    let _guard = hinn::obs::install(recorder.clone());

    let points = Arc::new(planted());
    let qs = queries(&points);
    let config = ServeConfig::new(search_config())
        .with_max_resident(MAX_RESIDENT)
        .with_warm_capacity(TOTAL_SESSIONS)
        .with_max_sessions(WINDOW);
    let data = DatasetHandle::new(&points).expect("dataset");
    let manager = SessionManager::new(config, data).expect("manager");

    let mut rng = XorShift(0x5EED_CAFE_F00D);
    let mut live: Vec<Live> = Vec::new();
    let mut opened = 0usize;
    let mut finished = 0usize;
    let mut outcomes: HashMap<usize, (Vec<usize>, Vec<u64>, usize)> = HashMap::new();

    while finished < TOTAL_SESSIONS {
        // Interleave: usually step a random live session; top up the
        // window when below it (always when empty).
        let can_open = opened < TOTAL_SESSIONS && live.len() < WINDOW;
        let open_now = can_open && (live.is_empty() || rng.below(4) == 0);
        if open_now {
            let query_idx = opened % DISTINCT_QUERIES;
            let (id, step) = manager.open(&qs[query_idx]).expect("open");
            opened += 1;
            match step {
                Step::NeedResponse(view) => live.push(Live {
                    id,
                    user: HeuristicUser::default(),
                    query_idx,
                    view,
                }),
                Step::Done(_) => panic!("the planted workload never finishes in zero views"),
            }
        } else {
            let slot = rng.below(live.len());
            // Occasionally force-suspend a *different* random session, so
            // explicit disconnects mix with LRU pressure.
            if live.len() > 1 && rng.below(16) == 0 {
                let other = &live[rng.below(live.len())];
                manager.suspend(other.id).expect("suspend");
            }
            let s = &mut live[slot];
            let response = s.user.respond(s.view.profile(), s.view.context());
            match manager.submit(s.id, response).expect("submit") {
                Step::NeedResponse(view) => s.view = view,
                Step::Done(outcome) => {
                    let bits = outcome_bits(&outcome);
                    match outcomes.get(&s.query_idx) {
                        None => {
                            outcomes.insert(s.query_idx, bits);
                        }
                        Some(want) => assert_eq!(
                            want, &bits,
                            "same query, different outcome (query {}) — interleaving or \
                             evict/resume leaked into results",
                            s.query_idx
                        ),
                    }
                    live.swap_remove(slot);
                    finished += 1;
                }
            }
        }
        // Bounded residency, at every single step.
        assert!(
            manager.hot_len() <= MAX_RESIDENT,
            "hot tier exceeded its cap: {}",
            manager.hot_len()
        );
        assert!(
            manager.warm_len() <= TOTAL_SESSIONS,
            "warm tier exceeded its capacity"
        );
        assert!(manager.live_sessions() <= WINDOW, "admission bound broken");
    }

    assert_eq!(opened, TOTAL_SESSIONS);
    assert_eq!(finished, TOTAL_SESSIONS);
    assert_eq!(manager.live_sessions(), 0, "every session left the table");
    assert_eq!(
        outcomes.len(),
        DISTINCT_QUERIES,
        "every query produced an outcome"
    );

    let report = recorder.report();
    assert_eq!(report.counter("session.opened"), TOTAL_SESSIONS as u64);
    assert_eq!(report.counter("session.finished"), TOTAL_SESSIONS as u64);
    assert!(
        report.counter("session.evicted") > 0,
        "the soak never exercised eviction — hot cap too generous?"
    );
    assert!(
        report.counter("session.resumed") > 0,
        "the soak never exercised warm restore"
    );
    assert_eq!(
        report.counter("session.dropped"),
        0,
        "no session may be lost when the warm tier fits everyone"
    );

    // Latency percentiles (ISSUE 7): every submit and every snapshot
    // serialize/restore feeds the quantile sketch, so the soak report
    // carries a full tail-latency story, ordered p50 ≤ p90 ≤ p99 ≤ max.
    for name in [
        "session.submit_ms",
        "snapshot.serialize_ms",
        "snapshot.restore_ms",
    ] {
        let hist = report
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("histogram {name:?} missing from the soak report"));
        assert!(hist.count > 0, "{name}: no observations");
        let (p50, p90, p99) = (hist.p50(), hist.p90(), hist.p99());
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= hist.max,
            "{name}: percentiles out of order (p50 {p50}, p90 {p90}, p99 {p99}, max {})",
            hist.max
        );
    }
    assert_eq!(
        Some(report.histograms["session.submit_ms"].count),
        report.find_span("session.step").map(|s| s.count),
        "every submit span must have fed the latency sketch"
    );

    if let Some(path) = std::env::var_os("HINN_OBS_EXPORT_SOAK") {
        std::fs::write(&path, report.to_json()).expect("write HINN_OBS_EXPORT_SOAK JSON");
    }
}

/// With a warm tier far too small for the load, sessions *are* lost — but
/// each loss is a typed, latched `SessionEvicted` error, and the sessions
/// that survive still finish correctly.
#[test]
fn warm_overflow_loses_sessions_loudly_not_wrongly() {
    let _sessions = exclusive();
    let points = Arc::new(planted());
    let qs = queries(&points);
    let config = ServeConfig::new(search_config())
        .with_max_resident(2)
        .with_warm_capacity(4)
        .with_max_sessions(64);
    let data = DatasetHandle::new(&points).expect("dataset");
    let manager = SessionManager::new(config, data).expect("manager");

    // Open 32 sessions up front: 2 stay hot, 4 warm, 26 silently fall off
    // the warm LRU (to be discovered lazily).
    let mut sessions: Vec<(SessionId, HeuristicUser, usize)> = (0..32)
        .map(|i| {
            let query_idx = i % DISTINCT_QUERIES;
            let (id, _step) = manager.open(&qs[query_idx]).expect("open");
            (id, HeuristicUser::default(), query_idx)
        })
        .collect();
    assert!(manager.hot_len() <= 2);
    assert!(manager.warm_len() <= 4);

    let mut completed = 0usize;
    let mut evicted = 0usize;
    let mut reference: HashMap<usize, (Vec<usize>, Vec<u64>, usize)> = HashMap::new();
    // Drive the survivors round-robin; the rest must fail loudly.
    while let Some((id, mut user, query_idx)) = sessions.pop() {
        let view = match manager.pending_view(id) {
            Ok(view) => view,
            Err(ServeError::SessionEvicted(e)) => {
                assert_eq!(e, id);
                // Latched: the next probe reports the same loss.
                match manager.submit(id, UserResponse::Discard) {
                    Err(ServeError::SessionEvicted(e2)) => assert_eq!(e2, id),
                    other => panic!("eviction not latched: {other:?}"),
                }
                evicted += 1;
                continue;
            }
            Err(e) => panic!("unexpected serve error: {e}"),
        };
        let mut step = Step::NeedResponse(view);
        let outcome = loop {
            match step {
                Step::Done(outcome) => break *outcome,
                Step::NeedResponse(req) => {
                    let r = user.respond(req.profile(), req.context());
                    step = manager.submit(id, r).expect("driving a hot session");
                }
            }
        };
        let bits = outcome_bits(&outcome);
        match reference.get(&query_idx) {
            None => {
                reference.insert(query_idx, bits);
            }
            Some(want) => assert_eq!(want, &bits, "survivor outcome diverged"),
        }
        completed += 1;
    }
    assert_eq!(completed + evicted, 32, "every session was accounted for");
    assert!(evicted > 0, "the overflow fixture lost nobody");
    assert!(completed >= 6, "hot + warm sessions must all survive");
}
