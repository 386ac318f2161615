//! Property-based robustness of the `hinn-session v1` wire parser.
//!
//! The contract under test: parsing is *total* — for any byte sequence,
//! [`parse_request`] / [`parse_reply`] return either a correct value or a
//! typed [`ParseError`]; they never panic (a panic fails the proptest
//! outright) and never silently accept a structurally damaged message
//! (duplicated keys are the canonical smuggling vector and must always be
//! refused). Payload *integrity* against truncation and bit rot is the
//! framing layer's checksum's job; here we additionally pin that even
//! when such damage reaches the text parser it stays typed and
//! self-consistent.

use hinn_net::proto::{
    parse_reply, parse_request, render_reply, render_request, DoneSummary, EpochSummary, ErrorKind,
    ParseError, Reply, Request, ViewSummary, WireError,
};
use hinn_user::UserResponse;
use proptest::prelude::*;

/// Lowercase-ascii tenant names (the stub proptest has no regex-string
/// strategy).
fn tenant_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..26, 1..9).prop_map(|v| {
        v.into_iter()
            .map(|c| (b'a' + c as u8) as char)
            .collect::<String>()
    })
}

/// Printable-ascii free text, often starting with `x-` or with spaces
/// and often ending in spaces — the shapes a line envelope alters.
fn printable(max: usize) -> impl Strategy<Value = String> {
    (
        0usize..5,
        proptest::collection::vec(0u32..95, 0..max),
        0usize..3,
    )
        .prop_map(|(prefix, v, suffix)| {
            let body: String = v.into_iter().map(|c| (0x20 + c as u8) as char).collect();
            let prefix = ["", "", "x-", " ", "  x-"][prefix];
            format!("{prefix}{body}{}", " ".repeat(suffix))
        })
}

/// `Option<u64>` epochs — the stub proptest has no `option::of`, so a
/// two-valued discriminant picks the arm.
fn optional_epoch() -> impl Strategy<Value = Option<u64>> {
    (0u32..2, 0u64..1_000_000).prop_map(|(some, epoch)| (some == 1).then_some(epoch))
}

fn arbitrary_request() -> impl Strategy<Value = Request> {
    let open = (
        tenant_name(),
        proptest::collection::vec(-1.0e9..1.0e9f64, 1..12),
    )
        .prop_map(|(tenant, query)| Request::Open { tenant, query });
    let submit = (
        0u64..1_000_000,
        0usize..20,
        0usize..20,
        prop_oneof![
            Just(UserResponse::Discard),
            (1.0e-12..1.0e6f64).prop_map(UserResponse::Threshold),
        ],
    )
        .prop_map(|(session, major, minor, response)| Request::Submit {
            session,
            major,
            minor,
            response,
        });
    let ingest = (
        tenant_name(),
        proptest::collection::vec(proptest::collection::vec(-1.0e9..1.0e9f64, 1..8), 1..5),
    )
        .prop_map(|(tenant, rows)| Request::Ingest { tenant, rows });
    let delete = (
        tenant_name(),
        proptest::collection::vec(0usize..100_000, 1..8),
    )
        .prop_map(|(tenant, ids)| Request::Delete { tenant, ids });
    let id = 0u64..1_000_000;
    prop_oneof![
        open,
        submit,
        ingest,
        delete,
        id.clone().prop_map(|session| Request::View { session }),
        id.clone().prop_map(|session| Request::Suspend { session }),
        id.clone().prop_map(|session| Request::Close { session }),
        id.clone().prop_map(|session| Request::Retire { session }),
        id.prop_map(|session| Request::Rebase { session }),
        Just(Request::Stats),
        Just(Request::Ping),
        Just(Request::Epoch),
    ]
}

fn arbitrary_reply() -> impl Strategy<Value = Reply> {
    let view = (
        0u64..1_000_000,
        0usize..10,
        0usize..10,
        0usize..100_000,
        0usize..100_000,
        (
            (0u32..4, -1.0e6..1.0e6f64, -1.0e6..1.0e6f64),
            optional_epoch(),
        ),
    )
        .prop_map(
            |(session, major, minor, alive, total, ((shed, qd, md), epoch))| {
                Reply::View(ViewSummary {
                    session,
                    major,
                    minor,
                    alive,
                    total,
                    shed: shed as u8,
                    query_density: qd,
                    max_density: md,
                    epoch,
                })
            },
        );
    let done = (
        0u64..1_000_000,
        1usize..10,
        1usize..100,
        0usize..5,
        proptest::collection::vec((0usize..100_000, 0.0..1.0f64), 0..20),
    )
        .prop_map(|(session, majors, support, degraded, pairs)| {
            let (neighbors, probabilities) = pairs.into_iter().unzip();
            Reply::Done(DoneSummary {
                session,
                majors,
                support,
                degraded,
                neighbors,
                probabilities,
            })
        });
    let err = (0u64..1000, optional_epoch(), printable(40)).prop_map(|(ms, epoch, message)| {
        Reply::Error(WireError {
            kind: ErrorKind::Overloaded,
            retry_after_ms: Some(ms),
            epoch,
            message,
        })
    });
    let epoch = (0u64..1_000_000, proptest::collection::vec(0u32..256, 16)).prop_map(
        |(epoch, fp_bytes)| {
            let fingerprint = fp_bytes
                .into_iter()
                .fold(0u128, |acc, b| (acc << 8) | u128::from(b as u8));
            Reply::Epoch(EpochSummary { epoch, fingerprint })
        },
    );
    prop_oneof![
        view,
        done,
        err,
        epoch,
        (0u64..1000).prop_map(|session| Reply::Suspended { session }),
        (0u64..1000).prop_map(|session| Reply::Closed { session }),
        Just(Reply::Pong),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical round trip: bit-exact on every float.
    #[test]
    fn requests_round_trip(req in arbitrary_request()) {
        let bytes = render_request(&req);
        prop_assert_eq!(parse_request(&bytes).unwrap(), req);
    }

    #[test]
    fn replies_round_trip(reply in arbitrary_reply()) {
        let bytes = render_reply(&reply);
        prop_assert_eq!(parse_reply(&bytes).unwrap(), reply);
    }

    /// Truncation at every byte offset: the parser is total — a typed
    /// error or a self-consistent value, never a panic.
    #[test]
    fn truncated_requests_never_panic(req in arbitrary_request(), frac in 0.0..1.0f64) {
        let bytes = render_request(&req);
        let cut = ((bytes.len() as f64) * frac) as usize;
        match parse_request(&bytes[..cut]) {
            Err(_) => {} // typed refusal
            Ok(r) => {
                // A truncation that still parses (e.g. a shortened float)
                // must at least be a self-consistent message — rendering
                // and re-parsing it is the identity.
                let again = render_request(&r);
                prop_assert_eq!(parse_request(&again).unwrap(), r);
            }
        }
    }

    #[test]
    fn truncated_replies_never_panic(reply in arbitrary_reply(), frac in 0.0..1.0f64) {
        let bytes = render_reply(&reply);
        let cut = ((bytes.len() as f64) * frac) as usize;
        match parse_reply(&bytes[..cut]) {
            Err(_) => {}
            Ok(r) => {
                let again = render_reply(&r);
                prop_assert_eq!(parse_reply(&again).unwrap(), r);
            }
        }
    }

    /// A flipped bit anywhere: typed error or a value — never a panic —
    /// and a flip inside the header line is always refused.
    #[test]
    fn byte_flips_never_panic(
        req in arbitrary_request(),
        pos_frac in 0.0..1.0f64,
        bit in 0usize..8,
    ) {
        let mut bytes = render_request(&req);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = parse_request(&bytes); // totality is the assertion
        // "hinn-session v1" occupies bytes 0..15; any flip there changes
        // the header and must be refused with a typed error.
        if pos < 15 {
            prop_assert!(
                matches!(
                    parse_request(&bytes),
                    Err(ParseError::BadHeader(_)
                        | ParseError::UnsupportedVersion(_)
                        | ParseError::NotText
                        | ParseError::Empty
                        | ParseError::MissingBody(_))
                ),
                "header flip at byte {} was accepted", pos
            );
        }
    }

    /// Duplicating any `key=value` token is always the typed
    /// `DuplicateKey` refusal.
    #[test]
    fn duplicated_keys_are_always_refused(req in arbitrary_request()) {
        let bytes = render_request(&req);
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // lines[1] is the verb line; stats/ping have no fields to dup.
        let tokens: Vec<String> =
            lines[1].split_whitespace().map(String::from).collect();
        if tokens.len() >= 2 {
            let dup = tokens[1].clone();
            lines[1] = format!("{} {}", lines[1], dup);
            let damaged = lines.join("\n");
            let key = dup.split('=').next().unwrap().to_string();
            prop_assert_eq!(
                parse_request(damaged.as_bytes()),
                Err(ParseError::DuplicateKey(key))
            );
        }
    }

    /// Forward tolerance of the `epoch=` field: a pre-epoch peer that
    /// omits it from a `view` or `err` line yields the same reply with
    /// `epoch: None` — never a refusal, never a silent default.
    #[test]
    fn missing_epoch_field_parses_to_none(reply in arbitrary_reply()) {
        // Only view/err carry an optional epoch; other replies skip the case.
        let case = match &reply {
            Reply::View(view) => view.epoch.map(|epoch| {
                let mut bare = view.clone();
                bare.epoch = None;
                (epoch, Reply::View(bare))
            }),
            Reply::Error(err) => err.epoch.map(|epoch| {
                let mut bare = err.clone();
                bare.epoch = None;
                (epoch, Reply::Error(bare))
            }),
            _ => None,
        };
        if let Some((epoch, stripped)) = case {
            let text = String::from_utf8(render_reply(&reply)).unwrap();
            let token = format!(" epoch={epoch}");
            prop_assert!(text.contains(&token), "epoch field missing from render");
            let damaged = text.replacen(&token, "", 1);
            prop_assert_eq!(parse_reply(damaged.as_bytes()).unwrap(), stripped);
        }
    }

    /// Arbitrary garbage bytes: totality, nothing more.
    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u32..256, 0..200)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let _ = parse_request(&bytes);
        let _ = parse_reply(&bytes);
    }
}
