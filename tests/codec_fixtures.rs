//! The three text formats of one interactive session, pinned byte for
//! byte: the session snapshot (`hinn-session-state v1`), the response
//! recording (`hinn-session v1`) and the wire protocol's request and
//! reply payloads (`hinn-session v1` envelopes).
//!
//! Every fixture under `tests/golden/codec/` is a canonical render. The
//! table below checks, per format, that today's writer reproduces the
//! fixture exactly and that the reader parses it back to the value it
//! was rendered from. A second table pins how each reader treats inputs
//! that are not canonical renders (extension lines before the header,
//! indented headers and body lines, leading blank lines).

use hinn::core::{DatasetHandle, SearchConfig, SessionEngine, SessionSnapshot, Step};
use hinn::kde::polygon::HalfPlane;
use hinn::kde::VisualProfile;
use hinn::net::proto::{
    parse_reply, parse_request, render_reply, render_request, DoneSummary, EpochSummary, ErrorKind,
    Reply, Request, StatsSummary, ViewSummary, WireError,
};
use hinn::user::{session_from_string, session_to_string, UserModel, UserResponse, ViewContext};

const SNAPSHOT: &str = include_str!("golden/codec/snapshot.txt");
const RECORDING: &str = include_str!("golden/codec/recording.txt");
const REQUESTS: &str = include_str!("golden/codec/requests.txt");
const REPLIES: &str = include_str!("golden/codec/replies.txt");

// ---------------------------------------------------------------------------
// The values the fixtures were rendered from
// ---------------------------------------------------------------------------

/// 48 xorshift points in 6-D whose last coordinate is constant, so every
/// projection search drops a zero-variance direction and the snapshot
/// carries degradation events.
fn snapshot_data() -> DatasetHandle {
    let mut state = 0x5EED_C0DEu64;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<Vec<f64>> = (0..48)
        .map(|_| {
            let mut row: Vec<f64> = (0..5).map(|_| unif() * 20.0 - 10.0).collect();
            row.push(7.0);
            row
        })
        .collect();
    DatasetHandle::new(&rows).expect("dataset")
}

fn snapshot_config() -> SearchConfig {
    SearchConfig {
        max_major_iterations: 3,
        min_major_iterations: 3,
        ..SearchConfig::default().with_support(8)
    }
}

fn snapshot_query() -> Vec<f64> {
    vec![1.0, -2.0, 0.5, 3.0, -1.5, 7.0]
}

/// Places the separator at half the density at the query.
struct HalfQueryUser;

impl UserModel for HalfQueryUser {
    fn respond(&mut self, profile: &VisualProfile, _ctx: &ViewContext) -> UserResponse {
        UserResponse::Threshold(profile.query_density() * 0.5)
    }

    fn name(&self) -> &str {
        "half-query"
    }
}

/// Drive the fixture session with a half-query user and snapshot it at
/// the second view of the second major: one completed major, one answered
/// minor in flight, degradations from earlier views, and the `x-epoch`
/// pin every engine snapshot carries.
fn live_snapshot(data: &DatasetHandle) -> SessionSnapshot {
    let (mut engine, mut step) =
        SessionEngine::start(snapshot_config(), data, &snapshot_query()).expect("start");
    let mut user = HalfQueryUser;
    loop {
        match step {
            Step::Done(_) => panic!("the fixture session finished before major 1, minor 1"),
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

fn recording_log() -> Vec<UserResponse> {
    vec![
        UserResponse::Threshold(0.1 + 0.2),
        UserResponse::Discard,
        UserResponse::Polygon(vec![
            HalfPlane::new(1.0, -2.5, 3.25),
            HalfPlane::new(0.0, 1.0, -7.0),
        ]),
        UserResponse::Threshold(1e-300),
    ]
}

/// One request per verb.
fn requests() -> Vec<Request> {
    vec![
        Request::Open {
            tenant: "alice".to_string(),
            query: vec![50.0, -0.125, 1e-300, f64::MIN_POSITIVE],
        },
        Request::Submit {
            session: 7,
            major: 1,
            minor: 2,
            response: UserResponse::Polygon(vec![
                HalfPlane::new(1.0, 0.0, -3.5),
                HalfPlane::new(0.0, 1.0, 2.0),
            ]),
        },
        Request::View { session: 42 },
        Request::Suspend { session: 42 },
        Request::Close { session: 42 },
        Request::Retire { session: 42 },
        Request::Ingest {
            tenant: "bob".to_string(),
            rows: vec![vec![1.0, -0.125, 1e-300], vec![4.0, 5.0, 0.1 + 0.2]],
        },
        Request::Delete {
            tenant: "bob".to_string(),
            ids: vec![0, 7, 199],
        },
        Request::Epoch,
        Request::Rebase { session: 42 },
        Request::Stats,
        Request::Ping,
    ]
}

/// One reply per verb.
fn replies() -> Vec<Reply> {
    vec![
        Reply::View(ViewSummary {
            session: 9,
            major: 0,
            minor: 1,
            alive: 187,
            total: 200,
            shed: 2,
            query_density: 0.123_456_789_012_345_6,
            max_density: 0.999_999_999_999_999_9,
            epoch: Some(207),
        }),
        Reply::Done(DoneSummary {
            session: 9,
            majors: 2,
            support: 20,
            degraded: 1,
            neighbors: vec![3, 5, 9],
            probabilities: vec![0.5, 0.25, 1e-17],
        }),
        Reply::Suspended { session: 1 },
        Reply::Closed { session: 1 },
        Reply::Retired { session: 1 },
        Reply::Epoch(EpochSummary {
            epoch: 207,
            fingerprint: 0x00ab_cdef_0123_4567_89ab_cdef_0123_4567,
        }),
        Reply::Stats(StatsSummary {
            live: 3,
            hot: 2,
            warm: 1,
            shed: 0,
        }),
        Reply::Pong,
        Reply::Error(WireError {
            kind: ErrorKind::EpochMismatch,
            retry_after_ms: Some(25),
            epoch: Some(212),
            message: "session pinned epoch 200; dataset is at 212".to_string(),
        }),
    ]
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Split concatenated wire payloads at each header line.
fn payloads(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.split_inclusive('\n') {
        if line == "hinn-session v1\n" || out.is_empty() {
            out.push(String::new());
        }
        if let Some(last) = out.last_mut() {
            last.push_str(line);
        }
    }
    out
}

/// Replay every response a recording holds.
fn replayed(text: &str) -> std::io::Result<Vec<UserResponse>> {
    let mut user = session_from_string(text)?;
    let profile = VisualProfile::build(vec![[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0], 5, 1.0);
    let ctx = ViewContext {
        major: 0,
        minor: 0,
        original_ids: vec![0, 1],
        total_n: 2,
    };
    let mut out = Vec::new();
    while user.remaining() > 0 {
        out.push(user.respond(&profile, &ctx));
    }
    Ok(out)
}

/// `"accepted"`, or `"refused <Variant>"` for a typed refusal.
fn outcome<T, E: std::fmt::Debug>(r: Result<T, E>) -> String {
    match r {
        Ok(_) => "accepted".to_string(),
        Err(e) => {
            let debug = format!("{e:?}");
            let variant: String = debug
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            format!("refused {variant}").trim_end().to_string()
        }
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

#[test]
fn fixtures_render_byte_identically_and_parse_back() {
    let data = snapshot_data();
    let live = live_snapshot(&data);
    let rendered_requests: String = requests()
        .iter()
        .map(|r| String::from_utf8(render_request(r)).expect("utf-8"))
        .collect();
    let rendered_replies: String = replies()
        .iter()
        .map(|r| String::from_utf8(render_reply(r)).expect("utf-8"))
        .collect();
    let renders: [(&str, String, &str); 4] = [
        ("snapshot.txt", live.to_string(), SNAPSHOT),
        (
            "recording.txt",
            session_to_string(&recording_log()),
            RECORDING,
        ),
        ("requests.txt", rendered_requests, REQUESTS),
        ("replies.txt", rendered_replies, REPLIES),
    ];
    for (name, rendered, fixture) in &renders {
        assert_eq!(rendered, fixture, "{name}: render differs from the fixture");
    }

    // Snapshot: the fixture resumes and snapshots back to the same bytes.
    let snap = SessionSnapshot::from_text(SNAPSHOT).expect("snapshot header");
    let (engine, step) = SessionEngine::resume(snapshot_config(), &data, &snap).expect("resume");
    match step {
        Step::NeedResponse(req) => assert_eq!((req.context().major, req.context().minor), (1, 1)),
        Step::Done(_) => panic!("resume finished a suspended session"),
    }
    assert_eq!(engine.snapshot().expect("re-snapshot").as_str(), SNAPSHOT);
    assert!(
        SNAPSHOT.contains("\nx-epoch "),
        "fixture lacks the epoch pin"
    );
    assert!(
        SNAPSHOT.contains("\ndegradation "),
        "fixture lacks a degradation"
    );
    assert!(
        SNAPSHOT.contains("\nbegin-major-record\n"),
        "fixture lacks a completed major"
    );

    // Recording: the fixture replays the log it was rendered from.
    assert_eq!(replayed(RECORDING).expect("recording"), recording_log());

    // Wire: each payload parses to the value it was rendered from.
    let reqs = payloads(REQUESTS);
    assert_eq!(reqs.len(), requests().len());
    for (payload, want) in reqs.iter().zip(requests()) {
        assert_eq!(parse_request(payload.as_bytes()), Ok(want), "{payload:?}");
    }
    let reps = payloads(REPLIES);
    assert_eq!(reps.len(), replies().len());
    for (payload, want) in reps.iter().zip(replies()) {
        assert_eq!(parse_reply(payload.as_bytes()), Ok(want), "{payload:?}");
    }
}

/// Inputs that are not canonical renders, and how each reader treats them.
#[test]
fn non_canonical_inputs_are_pinned() {
    let cases: Vec<(&str, String, &str)> = vec![
        // An `x-` extension line before the header.
        (
            "wire: x- line before the header",
            outcome(parse_request(b"x-trace 1\nhinn-session v1\nping\n")),
            "accepted",
        ),
        (
            "recording: x- line before the header",
            outcome(replayed("x-note 1\nhinn-session v1\ndiscard\n")),
            // Refused before the three readers shared one line codec.
            "accepted",
        ),
        (
            "snapshot: x- line before the header",
            outcome(SessionSnapshot::from_text(format!("x-note 1\n{SNAPSHOT}"))),
            // Refused before the shared line codec.
            "accepted",
        ),
        // An indented header.
        (
            "recording: indented header",
            outcome(replayed("  hinn-session v1\ndiscard\n")),
            "accepted",
        ),
        (
            "wire: indented header",
            outcome(parse_request(b"  hinn-session v1\nping\n")),
            // Refused (BadHeader) before the shared line codec.
            "accepted",
        ),
        (
            "snapshot: indented header",
            outcome(SessionSnapshot::from_text(format!("  {SNAPSHOT}"))),
            "accepted",
        ),
        // Indented body lines.
        (
            "wire: indented submit body",
            outcome(parse_request(
                b"hinn-session v1\nsubmit session=1 major=0 minor=0\n  threshold 0.5\n",
            )),
            "accepted",
        ),
        (
            "wire: indented row line",
            outcome(parse_request(
                b"hinn-session v1\ningest tenant=a\n  row 1.0,2.0\n",
            )),
            // Refused (BadBody) before the shared line codec.
            "accepted",
        ),
        // A leading blank line.
        (
            "snapshot: leading blank line",
            outcome(SessionSnapshot::from_text(format!("\n{SNAPSHOT}"))),
            // Refused before the shared line codec.
            "accepted",
        ),
        (
            "recording: leading blank line",
            outcome(replayed("\nhinn-session v1\ndiscard\n")),
            "accepted",
        ),
        (
            "wire: leading blank line",
            outcome(parse_request(b"\nhinn-session v1\nping\n")),
            "accepted",
        ),
    ];
    let mut wrong = Vec::new();
    for (name, got, want) in &cases {
        if got != want {
            wrong.push(format!("{name}: got {got:?}, pinned {want:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));

    // What is accepted reads as the canonical form does.
    let data = snapshot_data();
    for text in [
        format!("x-note 1\n{SNAPSHOT}"),
        format!("  {SNAPSHOT}"),
        format!("\n{SNAPSHOT}"),
    ] {
        let snap = SessionSnapshot::from_text(text).expect("header");
        let (engine, _) = SessionEngine::resume(snapshot_config(), &data, &snap).expect("resume");
        assert_eq!(engine.snapshot().expect("re-snapshot").as_str(), SNAPSHOT);
    }
    for text in [
        "x-note 1\nhinn-session v1\ndiscard\n",
        "  hinn-session v1\ndiscard\n",
        "\nhinn-session v1\ndiscard\n",
    ] {
        assert_eq!(
            replayed(text).expect("recording"),
            vec![UserResponse::Discard]
        );
    }
    for payload in [
        &b"x-trace 1\nhinn-session v1\nping\n"[..],
        b"  hinn-session v1\nping\n",
        b"\nhinn-session v1\nping\n",
    ] {
        assert_eq!(parse_request(payload), Ok(Request::Ping));
    }
    assert_eq!(
        parse_request(b"hinn-session v1\ningest tenant=a\n  row 1.0,2.0\n"),
        Ok(Request::Ingest {
            tenant: "a".to_string(),
            rows: vec![vec![1.0, 2.0]],
        })
    );
    assert_eq!(
        parse_request(b"hinn-session v1\nsubmit session=1 major=0 minor=0\n  threshold 0.5\n"),
        Ok(Request::Submit {
            session: 1,
            major: 0,
            minor: 0,
            response: UserResponse::Threshold(0.5),
        })
    );
}
