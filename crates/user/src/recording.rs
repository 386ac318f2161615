//! Session recording and replay.
//!
//! A real interactive session (a human at a [`crate::TerminalUser`]) is
//! expensive; being able to *replay* one — for regression tests, audits, or
//! sharing "here is what I looked at and chose" — is the natural companion
//! feature. [`RecordingUser`] wraps any user model and logs every response;
//! the log serializes to a simple line format and loads back into a
//! [`ScriptedUser`] that reproduces the session exactly (the search loop is
//! deterministic given the same data and responses).
//!
//! ## Wire format (`hinn-session v1`)
//!
//! A serialized session is line-oriented text: a [`SESSION_WIRE_HEADER`]
//! line, then one response per line. It follows the envelope rule of
//! [`crate::line`], the codec it shares with the wire protocol and the
//! session snapshot: readers are *forward tolerant* within the major
//! version, skipping blank and `x-` extension lines anywhere and unknown
//! trailing `key=value` fields on a response line, so a v1 reader replays
//! sessions written by a later v1.x writer that annotates responses.
//! Files with no header at all (recordings from before the format was
//! versioned) are accepted unchanged; a header with any other major
//! version is refused.

use crate::line::{self, ErrorKind, Float, Lines};
use crate::{ScriptedUser, UserModel, UserResponse, ViewContext};
use hinn_kde::polygon::HalfPlane;
use hinn_kde::VisualProfile;
use std::io;

/// First line of a serialized session (see the module docs).
pub const SESSION_WIRE_HEADER: &str = "hinn-session v1";

/// Wraps a user model and records every response it gives.
pub struct RecordingUser<U> {
    inner: U,
    log: Vec<UserResponse>,
    name: String,
}

impl<U: UserModel> RecordingUser<U> {
    /// Wrap `inner`.
    pub fn new(inner: U) -> Self {
        let name = format!("recording({})", inner.name());
        Self {
            inner,
            log: Vec::new(),
            name,
        }
    }

    /// The responses recorded so far.
    pub fn log(&self) -> &[UserResponse] {
        &self.log
    }

    /// Consume the recorder, returning the inner user and the full log.
    pub fn into_parts(self) -> (U, Vec<UserResponse>) {
        (self.inner, self.log)
    }
}

impl<U: UserModel> UserModel for RecordingUser<U> {
    fn respond(&mut self, profile: &VisualProfile, ctx: &ViewContext) -> UserResponse {
        let r = self.inner.respond(profile, ctx);
        self.log.push(r.clone());
        r
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Serialize one response as a single line.
///
/// Format: `discard` | `threshold <tau>` | `polygon a,b,c;a,b,c;…`, every
/// number in its shortest round-trip form ([`line::Float`]).
pub fn response_to_line(r: &UserResponse) -> String {
    match r {
        UserResponse::Discard => "discard".to_string(),
        UserResponse::Threshold(tau) => format!("threshold {}", Float(*tau)),
        UserResponse::Polygon(lines) => {
            let parts: Vec<String> = lines
                .iter()
                .map(|l| format!("{},{},{}", Float(l.a), Float(l.b), Float(l.c)))
                .collect();
            format!("polygon {}", parts.join(";"))
        }
    }
}

/// Parse one line written by [`response_to_line`].
///
/// Forward tolerance: trailing whitespace-separated `key=value` fields
/// (which no v1 writer emits, but a later v1.x writer may) are ignored.
///
/// # Errors
/// `InvalidData` on any malformed line.
pub fn response_from_line(text: &str) -> io::Result<UserResponse> {
    parse_response(text.trim()).map_err(invalid)
}

fn parse_response(text: &str) -> Result<UserResponse, String> {
    let (verb, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let payload = line::payload(rest);
    match verb {
        "discard" if payload.is_empty() => Ok(UserResponse::Discard),
        "threshold" => {
            let tau: f64 = line::num(payload).map_err(|e| format!("bad threshold: {e}"))?;
            if !tau.is_finite() {
                return Err(format!("non-finite threshold {tau}"));
            }
            Ok(UserResponse::Threshold(tau))
        }
        "polygon" => line::groups::<3>(payload)
            .map(|group| {
                let [a, b, c] = group?;
                let [a, b, c]: [f64; 3] = [line::num(a)?, line::num(b)?, line::num(c)?];
                // The test `HalfPlane::new` asserts, so a NaN `a` or `b`
                // is refused here rather than panicking there.
                if a.abs() + b.abs() > 1e-12 {
                    Ok(HalfPlane::new(a, b, c))
                } else {
                    Err(format!("degenerate polygon line {a},{b},{c}"))
                }
            })
            .collect::<Result<_, String>>()
            .map(UserResponse::Polygon)
            .map_err(|e| format!("bad polygon: {e}")),
        _ => Err(format!("unrecognized response line {text:?}")),
    }
}

/// Serialize a whole session log: the [`SESSION_WIRE_HEADER`], then one
/// response per line.
pub fn session_to_string(log: &[UserResponse]) -> String {
    let mut out = String::from(SESSION_WIRE_HEADER);
    out.push('\n');
    for r in log {
        out.push_str(&response_to_line(r));
        out.push('\n');
    }
    out
}

/// Parse a session log into a replaying [`ScriptedUser`]. Headerless
/// (pre-versioning) recordings are accepted; blank and `x-` extension
/// lines are skipped (see the module docs).
///
/// # Errors
/// `InvalidData` on any malformed line or unsupported format version.
pub fn session_from_string(content: &str) -> io::Result<ScriptedUser> {
    parse_session(content)
        .map(ScriptedUser::new)
        .map_err(invalid)
}

fn parse_session(content: &str) -> Result<Vec<UserResponse>, line::Error> {
    let mut lines = Lines::new(content);
    let mut after_header = lines.clone();
    match after_header.header(SESSION_WIRE_HEADER) {
        Ok(()) => lines = after_header,
        // No header: a legacy recording, all responses.
        Err(e) if matches!(e.kind, ErrorKind::Empty | ErrorKind::BadHeader(_)) => {}
        Err(e) => return Err(e),
    }
    lines
        .map(|l| parse_response(l.text()).map_err(|e| l.bad("response", e)))
        .collect()
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeuristicUser;

    #[test]
    fn line_roundtrip_all_variants() {
        let cases = [
            UserResponse::Discard,
            UserResponse::Threshold(0.012345678901234),
            UserResponse::Polygon(vec![
                HalfPlane::new(1.0, -2.5, 3.25),
                HalfPlane::new(0.0, 1.0, -7.0),
            ]),
        ];
        for r in cases {
            let line = response_to_line(&r);
            let back = response_from_line(&line).unwrap();
            assert_eq!(back, r, "roundtrip failed for {line:?}");
        }
    }

    #[test]
    fn threshold_roundtrips_exactly() {
        // `{:?}` prints the shortest f64 representation that round-trips.
        let tau = 0.1 + 0.2; // classic non-representable sum
        let line = response_to_line(&UserResponse::Threshold(tau));
        match response_from_line(&line).unwrap() {
            UserResponse::Threshold(t) => assert_eq!(t, tau),
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "thresh 0.5",
            "threshold banana",
            "threshold inf",
            "polygon 1,2",
            "polygon 0,0,1",
            "polygon NaN,1,0",
            "polygon 1,0,0;0,NaN,1",
            "polygon a,b,c",
            "",
        ] {
            assert!(response_from_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn recorder_logs_everything() {
        let profile = VisualProfile::build(
            (0..30).map(|i| [(i % 6) as f64, (i / 6) as f64]).collect(),
            [2.0, 2.0],
            12,
            0.5,
        );
        let ctx = ViewContext {
            major: 0,
            minor: 0,
            original_ids: (0..30).collect(),
            total_n: 30,
        };
        let mut rec = RecordingUser::new(HeuristicUser::default());
        let r1 = rec.respond(&profile, &ctx);
        let r2 = rec.respond(&profile, &ctx);
        assert_eq!(rec.log().len(), 2);
        assert_eq!(rec.log()[0], r1);
        assert_eq!(rec.log()[1], r2);
        assert!(rec.name().starts_with("recording("));
    }

    #[test]
    fn session_text_is_versioned() {
        let text = session_to_string(&[UserResponse::Discard]);
        assert_eq!(text, "hinn-session v1\ndiscard\n");
        assert!(session_from_string(&text).is_ok());
    }

    #[test]
    fn headerless_legacy_recordings_still_parse() {
        let mut replay = session_from_string("threshold 0.5\ndiscard\n").unwrap();
        let profile = VisualProfile::build(vec![[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0], 5, 1.0);
        let ctx = ViewContext {
            major: 0,
            minor: 0,
            original_ids: vec![0, 1],
            total_n: 2,
        };
        assert_eq!(replay.respond(&profile, &ctx), UserResponse::Threshold(0.5));
        assert_eq!(replay.respond(&profile, &ctx), UserResponse::Discard);
    }

    #[test]
    fn future_major_versions_are_refused() {
        let err = session_from_string("hinn-session v2\ndiscard\n").unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    #[test]
    fn unknown_extensions_are_tolerated() {
        // A v1.x writer that annotates sessions: extension lines and
        // trailing key=value fields must not break replay.
        let text = "hinn-session v1\n\
                    x-recorded-by hinn 9.9\n\
                    threshold 0.25 note=weak-cluster\n\
                    x-view-wall-ms 1200\n\
                    discard reason=noise\n";
        let mut user = session_from_string(text).unwrap();
        assert_eq!(user.remaining(), 2);
        let profile = VisualProfile::build(vec![[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0], 5, 1.0);
        let ctx = ViewContext {
            major: 0,
            minor: 0,
            original_ids: vec![0, 1],
            total_n: 2,
        };
        assert_eq!(
            replayed(&mut user, &profile, &ctx),
            UserResponse::Threshold(0.25)
        );
        assert_eq!(replayed(&mut user, &profile, &ctx), UserResponse::Discard);
    }

    fn replayed(
        user: &mut ScriptedUser,
        profile: &VisualProfile,
        ctx: &ViewContext,
    ) -> UserResponse {
        user.respond(profile, ctx)
    }

    #[test]
    fn session_roundtrip_to_scripted_user() {
        let log = vec![
            UserResponse::Threshold(0.5),
            UserResponse::Discard,
            UserResponse::Polygon(vec![HalfPlane::new(1.0, 0.0, -1.0)]),
        ];
        let text = session_to_string(&log);
        let mut replay = session_from_string(&text).unwrap();
        let profile = VisualProfile::build(vec![[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0], 5, 1.0);
        let ctx = ViewContext {
            major: 0,
            minor: 0,
            original_ids: vec![0, 1],
            total_n: 2,
        };
        for want in &log {
            assert_eq!(&replay.respond(&profile, &ctx), want);
        }
    }
}
