//! Damaged snapshots resume to a typed error or a finished session.
//!
//! A real snapshot — one completed major, one answered view in flight,
//! degradation events and the `x-epoch` pin — has each of its tokens
//! replaced in turn by the values most likely to break an unchecked
//! index or size: 0, 1, n−1, n, n+1, 10⁶, `-` and `u64::MAX`. Each
//! result is resumed and, if that succeeds, driven to completion. No case
//! may panic.

use hinn_core::{DatasetHandle, SearchConfig, SessionEngine, SessionSnapshot, Step};
use hinn_user::{HeuristicUser, UserModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// 24 xorshift points in 4-D whose last coordinate is constant, so the
/// projection search records zero-variance degradations.
fn data() -> DatasetHandle {
    let mut state = 0x5EED_C0DEu64;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|_| {
            let mut row: Vec<f64> = (0..3).map(|_| unif() * 20.0 - 10.0).collect();
            row.push(7.0);
            row
        })
        .collect();
    DatasetHandle::new(&rows).expect("dataset")
}

fn config() -> SearchConfig {
    SearchConfig {
        max_major_iterations: 3,
        min_major_iterations: 3,
        ..SearchConfig::default().with_support(6)
    }
}

/// The session suspended at its second major's second view.
fn real_snapshot(data: &DatasetHandle) -> SessionSnapshot {
    let query = [1.0, -2.0, 0.5, 7.0];
    let (mut engine, mut step) = SessionEngine::start(config(), data, &query).expect("start");
    let mut user = HeuristicUser::default();
    loop {
        match step {
            Step::Done(_) => panic!("the session finished before major 1, minor 1"),
            Step::NeedResponse(req) => {
                if (req.context().major, req.context().minor) == (1, 1) {
                    return engine.snapshot().expect("snapshot");
                }
                let r = user.respond(req.profile(), req.context());
                step = engine.submit(r).expect("submit");
            }
        }
    }
}

#[derive(Debug, PartialEq)]
enum End {
    Refused,
    Finished,
}

/// Resume `text` and drive it to completion.
fn resume_and_finish(data: &DatasetHandle, text: String) -> End {
    let Ok(snap) = SessionSnapshot::from_text(text) else {
        return End::Refused;
    };
    let Ok((mut engine, mut step)) = SessionEngine::resume(config(), data, &snap) else {
        return End::Refused;
    };
    let mut user = HeuristicUser::default();
    loop {
        match step {
            Step::Done(_) => return End::Finished,
            Step::NeedResponse(req) => {
                let r = user.respond(req.profile(), req.context());
                match engine.submit(r) {
                    Ok(next) => step = next,
                    Err(_) => return End::Refused,
                }
            }
        }
    }
}

#[test]
fn every_token_substitution_ends_typed() {
    let data = data();
    let snap = real_snapshot(&data);
    let text = snap.as_str();
    assert!(text.contains("\nx-epoch "), "{text}");
    assert!(text.contains("\ndegradation "), "{text}");
    assert!(text.contains("\nbegin-major-record\n"), "{text}");
    assert_eq!(resume_and_finish(&data, text.to_string()), End::Finished);

    let n = data.snapshot().len();
    let substitutes = [
        "0".to_string(),
        "1".to_string(),
        (n - 1).to_string(),
        n.to_string(),
        (n + 1).to_string(),
        "1000000".to_string(),
        "-".to_string(),
        u64::MAX.to_string(),
    ];
    let lines: Vec<&str> = text.lines().collect();
    let (mut refused, mut finished, mut panicked) = (0usize, 0usize, Vec::new());
    for (li, line) in lines.iter().enumerate() {
        let tokens: Vec<&str> = line.split(' ').collect();
        for ti in 0..tokens.len() {
            for sub in &substitutes {
                let mut edited = tokens.clone();
                edited[ti] = sub;
                let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                damaged[li] = edited.join(" ");
                let damaged = damaged.join("\n") + "\n";
                match catch_unwind(AssertUnwindSafe(|| resume_and_finish(&data, damaged))) {
                    Ok(End::Refused) => refused += 1,
                    Ok(End::Finished) => finished += 1,
                    Err(_) => panicked.push(format!("line {} token {ti} -> {sub}", li + 1)),
                }
            }
        }
    }
    assert!(panicked.is_empty(), "panicked: {panicked:#?}");
    // Both ends are reached: the damage is neither all fatal nor all
    // ignored.
    assert!(
        refused > 0 && finished > 0,
        "{refused} refused, {finished} finished"
    );
}
