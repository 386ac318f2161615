//! The `hinn-session v1` message layer: typed requests and replies as
//! line-oriented text inside one frame.
//!
//! Every frame payload is UTF-8 text in the same versioned envelope the
//! session logs use (`hinn-user`'s recording format): the
//! [`hinn_user::recording::SESSION_WIRE_HEADER`] line, then a verb line,
//! then optional body lines. Submit bodies are literally the recording
//! format's response lines (`discard` | `threshold τ` | `polygon …`), so
//! a recorded session replays over the wire byte-for-byte.
//!
//! ```text
//! hinn-session v1
//! open tenant=alice query=50.0,50.0,49.5
//!
//! hinn-session v1
//! submit session=7 major=0 minor=1
//! threshold 0.25
//!
//! hinn-session v1
//! ok done session=7 majors=2 support=20 degraded=0
//! neighbors 3,5,9
//! probabilities 0.5,0.25,0.125
//! ```
//!
//! Payloads are read with [`hinn_user::line`], the codec the recording and
//! the session snapshot share, so the envelope rule is theirs: blank and
//! `x-` extension lines are skipped anywhere, leading whitespace is
//! ignored on headers, verbs and body lines, and unknown `key=value`
//! fields on a verb line are ignored, but a *duplicated* key — the
//! classic smuggling vector — is always refused, and a different major
//! version is refused outright. Parsing is *total*: every malformed input
//! is a typed [`ParseError`], never a panic and never a silent acceptance
//! (`proto_proptests.rs` hammers truncations, duplicated keys, and byte
//! flips).
//!
//! An `err` reply's message is free text on its own body line, kept as
//! written. A message that line would not carry back — one starting with
//! `x-` or ending in whitespace — rides quoted at the end of the `err`
//! line instead (`err kind=parse " x-forwarded refusal"`), so every
//! message round-trips once its newlines are flattened to spaces.
//!
//! All floats are rendered with `{:?}` (shortest round-trip form), so a
//! reply parsed back yields bit-identical values — the property the
//! wire-vs-in-process soak pins.

use hinn_user::line::{self, Fields, Float, Hex128, Line, Lines, COMMAS};
use hinn_user::recording::{response_from_line, response_to_line, SESSION_WIRE_HEADER};
use hinn_user::UserResponse;
use std::fmt;
use std::fmt::Write as _;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session for `query` on behalf of `tenant`.
    Open {
        /// Tenant name (fairness/quota accounting key).
        tenant: String,
        /// The query point.
        query: Vec<f64>,
    },
    /// Submit the response to the pending view at `(major, minor)` — the
    /// cursor makes delivery at-most-once (see
    /// `SessionManager::submit_at`).
    Submit {
        /// Session id.
        session: u64,
        /// Major cursor of the view being answered.
        major: usize,
        /// Minor cursor of the view being answered.
        minor: usize,
        /// The user's response.
        response: UserResponse,
    },
    /// Re-fetch the pending view (or the retained outcome) — the resync
    /// step after a torn reply or reconnect.
    View {
        /// Session id.
        session: u64,
    },
    /// Suspend the session to the warm tier (client going away politely).
    Suspend {
        /// Session id.
        session: u64,
    },
    /// Close the session, dropping all its state.
    Close {
        /// Session id.
        session: u64,
    },
    /// Administratively retire the session (tombstone + `session.retired`).
    Retire {
        /// Session id.
        session: u64,
    },
    /// Append rows to the served dataset, advancing its epoch. Open
    /// sessions keep answering from the epoch they pinned at open.
    Ingest {
        /// Tenant name (accounting / audit key).
        tenant: String,
        /// The rows to append, one body line each.
        rows: Vec<Vec<f64>>,
    },
    /// Tombstone rows by global id, advancing the dataset epoch.
    Delete {
        /// Tenant name (accounting / audit key).
        tenant: String,
        /// Global row ids to tombstone.
        ids: Vec<usize>,
    },
    /// Query the dataset's current epoch.
    Epoch,
    /// Explicitly carry a session onto the dataset's current epoch (the
    /// opt-in escape from `epoch_mismatch`; see
    /// `SessionManager::rebase`).
    Rebase {
        /// Session id.
        session: u64,
    },
    /// Server load snapshot.
    Stats,
    /// Liveness probe.
    Ping,
}

/// The pending-view summary a client renders between submits.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewSummary {
    /// Session id.
    pub session: u64,
    /// Major cursor of the pending view.
    pub major: usize,
    /// Minor cursor of the pending view.
    pub minor: usize,
    /// Points still alive in the session.
    pub alive: usize,
    /// Points in the data set.
    pub total: usize,
    /// Overload-shedding level the session was opened under (0 = none).
    pub shed: u8,
    /// KDE density at the query's grid cell (bit-exact over the wire).
    pub query_density: f64,
    /// Maximum grid density (bit-exact over the wire).
    pub max_density: f64,
    /// The dataset epoch the session is pinned to, when the server speaks
    /// epochs. `None` from pre-epoch servers (the field is absent on the
    /// wire) — optional for forward tolerance in both directions.
    pub epoch: Option<u64>,
}

/// The dataset-epoch summary: the reply to `epoch`, `ingest`, and
/// `delete`.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSummary {
    /// Epoch number (cumulative row operations).
    pub epoch: u64,
    /// The epoch's chained fingerprint (raw 128-bit value; rendered as
    /// zero-padded hex on the wire).
    pub fingerprint: u128,
}

/// The final outcome summary, bit-exact against the in-process
/// `SearchOutcome` fields it mirrors.
#[derive(Clone, Debug, PartialEq)]
pub struct DoneSummary {
    /// Session id.
    pub session: u64,
    /// Major iterations the session ran.
    pub majors: usize,
    /// Effective support of the answer.
    pub support: usize,
    /// Degradation-ladder rungs the session took (including load-shed).
    pub degraded: usize,
    /// Neighbor ids, best first.
    pub neighbors: Vec<usize>,
    /// Per-neighbor probabilities, aligned with `neighbors`.
    pub probabilities: Vec<f64>,
}

/// Server load snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSummary {
    /// Open (hot + warm) sessions.
    pub live: usize,
    /// Resident hot engines.
    pub hot: usize,
    /// Warm snapshots.
    pub warm: usize,
    /// Shed level new opens would currently be admitted under.
    pub shed: u8,
}

/// Error kinds a server can put on the wire. Mirrors `ServeError` plus
/// the wire-only kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Load shed / accept queue full / fairness deferral: retry later.
    Overloaded,
    /// Per-tenant quota exhausted.
    QuotaExceeded,
    /// Unknown session id.
    UnknownSession,
    /// Session lost to the warm tier.
    SessionEvicted,
    /// Session already delivered its outcome (and it is no longer
    /// retained).
    SessionFinished,
    /// The session is pinned to a dataset epoch the server no longer
    /// offers for implicit resume; `rebase` is the opt-in escape.
    EpochMismatch,
    /// Engine failure (deadline, invalid input, …).
    Engine,
    /// The request did not parse.
    Parse,
    /// The request frame was damaged.
    Frame,
    /// The server is draining; no new work.
    Draining,
    /// Anything else.
    Internal,
}

impl ErrorKind {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Overloaded => "overloaded",
            Self::QuotaExceeded => "quota",
            Self::UnknownSession => "unknown_session",
            Self::SessionEvicted => "evicted",
            Self::SessionFinished => "finished",
            Self::EpochMismatch => "epoch_mismatch",
            Self::Engine => "engine",
            Self::Parse => "parse",
            Self::Frame => "frame",
            Self::Draining => "draining",
            Self::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "overloaded" => Self::Overloaded,
            "quota" => Self::QuotaExceeded,
            "unknown_session" => Self::UnknownSession,
            "evicted" => Self::SessionEvicted,
            "finished" => Self::SessionFinished,
            "epoch_mismatch" => Self::EpochMismatch,
            "engine" => Self::Engine,
            "parse" => Self::Parse,
            "frame" => Self::Frame,
            "draining" => Self::Draining,
            "internal" => Self::Internal,
            _ => return None,
        })
    }
}

/// A typed error reply.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// Deterministic backoff hint, for the retryable kinds.
    pub retry_after_ms: Option<u64>,
    /// The dataset's current epoch at refusal time, when the server
    /// speaks epochs — lets an `epoch_mismatch` client decide whether to
    /// `rebase` without another round trip. Optional on the wire.
    pub epoch: Option<u64>,
    /// Human-readable detail (its own line, so it may contain spaces).
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms}ms)")?;
        }
        Ok(())
    }
}

/// One server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The pending view to respond to.
    View(ViewSummary),
    /// The session's outcome.
    Done(DoneSummary),
    /// Suspended to the warm tier.
    Suspended {
        /// Session id.
        session: u64,
    },
    /// Closed; all state dropped.
    Closed {
        /// Session id.
        session: u64,
    },
    /// Retired; tombstoned and counted.
    Retired {
        /// Session id.
        session: u64,
    },
    /// The dataset epoch (answer to `epoch`, `ingest`, and `delete`).
    Epoch(EpochSummary),
    /// Load snapshot.
    Stats(StatsSummary),
    /// Liveness answer.
    Pong,
    /// Typed refusal.
    Error(WireError),
}

/// Every way a `hinn-session v1` message can fail to parse. Total and
/// typed: no input panics, nothing malformed is silently accepted.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// The payload is not UTF-8 text.
    NotText,
    /// The payload has no content lines at all.
    Empty,
    /// The first line is not a `hinn-session` header.
    BadHeader(String),
    /// The header names a major version this parser does not speak.
    UnsupportedVersion(String),
    /// The verb token is not one this protocol defines.
    UnknownVerb(String),
    /// A required `key=value` field is absent.
    MissingField {
        /// The verb whose field is missing.
        verb: String,
        /// The missing key.
        key: String,
    },
    /// A field's value does not parse.
    BadField {
        /// The offending key.
        key: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The same key appeared twice on one line — refused even for keys
    /// this parser ignores, because duplicated keys are how conflicting
    /// interpretations smuggle through forward-tolerant parsers.
    DuplicateKey(String),
    /// A verb that needs a body line (submit's response, done's vectors)
    /// did not get one.
    MissingBody(String),
    /// A body line (response / neighbors / probabilities) is malformed.
    BadBody(String),
    /// A non-extension line appeared where the message should have ended.
    TrailingContent(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotText => write!(f, "payload is not UTF-8 text"),
            Self::Empty => write!(f, "empty message"),
            Self::BadHeader(l) => write!(f, "bad header line {l:?}"),
            Self::UnsupportedVersion(l) => write!(f, "unsupported protocol version {l:?}"),
            Self::UnknownVerb(v) => write!(f, "unknown verb {v:?}"),
            Self::MissingField { verb, key } => {
                write!(f, "verb {verb:?} is missing its {key}= field")
            }
            Self::BadField { key, detail } => write!(f, "bad {key}= field: {detail}"),
            Self::DuplicateKey(k) => write!(f, "duplicated key {k:?}"),
            Self::MissingBody(what) => write!(f, "missing body line: {what}"),
            Self::BadBody(detail) => write!(f, "bad body line: {detail}"),
            Self::TrailingContent(l) => write!(f, "trailing content {l:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<line::Error> for ParseError {
    fn from(e: line::Error) -> Self {
        use line::ErrorKind as E;
        match e.kind {
            E::Empty => Self::Empty,
            E::BadHeader(l) => Self::BadHeader(l),
            E::UnsupportedVersion(l) => Self::UnsupportedVersion(l),
            E::MissingLine(what) => Self::MissingBody(what),
            E::UnexpectedLine(key, l) => {
                Self::BadBody(format!("expected a `{key} …` line, got {l:?}"))
            }
            E::TrailingContent(l) => Self::TrailingContent(l),
            E::DuplicateKey(k) => Self::DuplicateKey(k),
            E::MissingField(verb, key) => Self::MissingField { verb, key },
            E::BadValue(key, detail) => Self::BadField { key, detail },
        }
    }
}

/// Open a payload: check the header and return the verb line, with the
/// body lines still to read.
fn head(payload: &[u8]) -> Result<(Line<'_>, Lines<'_>), ParseError> {
    let text = std::str::from_utf8(payload).map_err(|_| ParseError::NotText)?;
    let mut lines = Lines::new(text);
    lines.header(SESSION_WIRE_HEADER)?;
    let verb_line = lines
        .next()
        .ok_or_else(|| ParseError::MissingBody("verb line".to_string()))?;
    Ok((verb_line, lines))
}

/// A non-empty `tenant=` field.
fn tenant(fields: &Fields<'_>) -> Result<String, line::Error> {
    fields.require("tenant", |t| match t {
        "" => Err("must be non-empty".to_string()),
        t => Ok(t.to_string()),
    })
}

fn floats(v: &str) -> Result<Vec<f64>, String> {
    COMMAS.parse(v, line::num)
}

fn indices(v: &str) -> Result<Vec<usize>, String> {
    COMMAS.parse(v, line::num)
}

/// Parse one request payload.
///
/// # Errors
/// A typed [`ParseError`] for every malformed input; see the enum.
pub fn parse_request(payload: &[u8]) -> Result<Request, ParseError> {
    let (verb_line, mut body) = head(payload)?;
    let verb = verb_line.text().split_whitespace().next().unwrap_or("");
    let fields = verb_line.fields(1)?;
    let session = |fields: &Fields| fields.require("session", line::num);
    match verb {
        "open" => {
            body.end()?;
            let tenant = tenant(&fields)?;
            let query = fields.require("query", floats)?;
            if query.is_empty() {
                return Err(verb_line.bad("query", "must be non-empty").into());
            }
            if let Some(x) = query.iter().find(|x| !x.is_finite()) {
                let detail = format!("non-finite coordinate {x:?}");
                return Err(verb_line.bad("query", detail).into());
            }
            Ok(Request::Open { tenant, query })
        }
        "submit" => {
            let session = session(&fields)?;
            let major = fields.require("major", line::num)?;
            let minor = fields.require("minor", line::num)?;
            let line = body
                .next()
                .ok_or_else(|| ParseError::MissingBody("submit response line".to_string()))?;
            let response =
                response_from_line(line.text()).map_err(|e| ParseError::BadBody(e.to_string()))?;
            body.end()?;
            Ok(Request::Submit {
                session,
                major,
                minor,
                response,
            })
        }
        "view" | "suspend" | "close" | "retire" | "rebase" => {
            body.end()?;
            let session = session(&fields)?;
            Ok(match verb {
                "view" => Request::View { session },
                "suspend" => Request::Suspend { session },
                "close" => Request::Close { session },
                "retire" => Request::Retire { session },
                _ => Request::Rebase { session },
            })
        }
        "ingest" => {
            let tenant = tenant(&fields)?;
            let mut rows = Vec::new();
            for line in body {
                let values = line.rest("row")?;
                let row = floats(values).map_err(|e| line.bad("row", e))?;
                if row.is_empty() {
                    return Err(ParseError::BadBody("empty row".to_string()));
                }
                if let Some(x) = row.iter().find(|x| !x.is_finite()) {
                    return Err(ParseError::BadBody(format!("non-finite coordinate {x:?}")));
                }
                rows.push(row);
            }
            if rows.is_empty() {
                return Err(ParseError::MissingBody("ingest row lines".to_string()));
            }
            Ok(Request::Ingest { tenant, rows })
        }
        "delete" => {
            body.end()?;
            let tenant = tenant(&fields)?;
            let ids = fields.require("ids", indices)?;
            if ids.is_empty() {
                return Err(verb_line.bad("ids", "must be non-empty").into());
            }
            Ok(Request::Delete { tenant, ids })
        }
        "epoch" => {
            body.end()?;
            Ok(Request::Epoch)
        }
        "stats" => {
            body.end()?;
            Ok(Request::Stats)
        }
        "ping" => {
            body.end()?;
            Ok(Request::Ping)
        }
        other => Err(ParseError::UnknownVerb(other.to_string())),
    }
}

/// Render one request payload (canonical form; [`parse_request`] inverts
/// it exactly).
pub fn render_request(req: &Request) -> Vec<u8> {
    let mut out = String::from(SESSION_WIRE_HEADER);
    out.push('\n');
    match req {
        Request::Open { tenant, query } => {
            let query = COMMAS.join(query, |x| Float(*x));
            let _ = writeln!(out, "open tenant={tenant} query={query}");
        }
        Request::Submit {
            session,
            major,
            minor,
            response,
        } => {
            let _ = writeln!(out, "submit session={session} major={major} minor={minor}");
            let _ = writeln!(out, "{}", response_to_line(response));
        }
        Request::View { session } => {
            let _ = writeln!(out, "view session={session}");
        }
        Request::Suspend { session } => {
            let _ = writeln!(out, "suspend session={session}");
        }
        Request::Close { session } => {
            let _ = writeln!(out, "close session={session}");
        }
        Request::Retire { session } => {
            let _ = writeln!(out, "retire session={session}");
        }
        Request::Ingest { tenant, rows } => {
            let _ = writeln!(out, "ingest tenant={tenant}");
            for row in rows {
                let _ = writeln!(out, "row {}", COMMAS.join(row, |x| Float(*x)));
            }
        }
        Request::Delete { tenant, ids } => {
            let ids = COMMAS.join(ids, usize::clone);
            let _ = writeln!(out, "delete tenant={tenant} ids={ids}");
        }
        Request::Epoch => out.push_str("epoch\n"),
        Request::Rebase { session } => {
            let _ = writeln!(out, "rebase session={session}");
        }
        Request::Stats => out.push_str("stats\n"),
        Request::Ping => out.push_str("ping\n"),
    }
    out.into_bytes()
}

/// Does `message` need quoting? On its own body line, a message starting
/// with `x-` is an extension line and trailing whitespace is trimmed; such
/// a message rides at the end of the `err` line instead, after a lone `"`
/// and up to a closing `"`. The lone `"` is never a `key=value` field, so
/// no `err` line that parses as plain fields reads as a quoted one.
fn needs_quotes(message: &str) -> bool {
    line::is_extension(message) || message.ends_with(char::is_whitespace)
}

/// Split an `err` line into its fields and its quoted message.
fn unquote(text: &str) -> Option<(&str, &str)> {
    let (head, quoted) = text.split_once(" \" ")?;
    Some((head, quoted.strip_suffix('"')?))
}

/// An `err` reply whose fields are `head`'s tokens after the verb, and
/// whose message is `quoted` or else the next free-text body line.
fn parse_error(
    no: usize,
    head: &str,
    quoted: Option<&str>,
    mut body: Lines<'_>,
) -> Result<Reply, ParseError> {
    let fields = Fields::parse(no, "err", head.split_whitespace().skip(1))?;
    let kind = fields.require("kind", |k| {
        ErrorKind::from_str(k).ok_or_else(|| format!("unknown error kind {k:?}"))
    })?;
    let retry_after_ms = fields.get("retry_after_ms", line::num)?;
    let epoch = fields.get("epoch", line::num)?;
    let message = quoted
        .or_else(|| body.next_text().map(|l| l.raw))
        .unwrap_or_default()
        .to_string();
    body.end()?;
    Ok(Reply::Error(WireError {
        kind,
        retry_after_ms,
        epoch,
        message,
    }))
}

/// Parse one reply payload.
///
/// # Errors
/// A typed [`ParseError`] for every malformed input.
pub fn parse_reply(payload: &[u8]) -> Result<Reply, ParseError> {
    let (verb_line, mut body) = head(payload)?;
    let mut tokens = verb_line.text().split_whitespace();
    match tokens.next().unwrap_or("") {
        "err" => {
            // A quoted message is read only when the whole reply parses
            // with it; otherwise the line reads as plain fields, which
            // refuse its lone `"`.
            if let Some((head, message)) = unquote(verb_line.text()) {
                if let Ok(reply) = parse_error(verb_line.no, head, Some(message), body.clone()) {
                    return Ok(reply);
                }
            }
            parse_error(verb_line.no, verb_line.text(), None, body)
        }
        "ok" => {
            let what = tokens
                .next()
                .ok_or_else(|| ParseError::MissingBody("ok sub-verb".to_string()))?;
            let fields = verb_line.fields(2)?;
            let session = |fields: &Fields| fields.require("session", line::num);
            match what {
                "view" => {
                    body.end()?;
                    Ok(Reply::View(ViewSummary {
                        session: session(&fields)?,
                        major: fields.require("major", line::num)?,
                        minor: fields.require("minor", line::num)?,
                        alive: fields.require("alive", line::num)?,
                        total: fields.require("total", line::num)?,
                        shed: fields.require("shed", line::num)?,
                        query_density: fields.require("query_density", line::num)?,
                        max_density: fields.require("max_density", line::num)?,
                        // Absent from pre-epoch servers: optional, never
                        // required — forward tolerance both ways.
                        epoch: fields.get("epoch", line::num)?,
                    }))
                }
                "epoch" => {
                    body.end()?;
                    let fingerprint = fields.require("fp", line::hex128)?;
                    Ok(Reply::Epoch(EpochSummary {
                        epoch: fields.require("epoch", line::num)?,
                        fingerprint,
                    }))
                }
                "done" => {
                    // A body line `key list`; an empty list is a bare `key`.
                    let mut list = |key: &str| {
                        body.next()
                            .and_then(|l| Some((l, l.keyed(key)?)))
                            .ok_or_else(|| ParseError::MissingBody(format!("{key} line")))
                    };
                    let (neighbors_line, neighbors) = list("neighbors")?;
                    let (probs_line, probabilities) = list("probabilities")?;
                    body.end()?;
                    let neighbors =
                        indices(neighbors).map_err(|e| neighbors_line.bad("neighbors", e))?;
                    let probabilities =
                        floats(probabilities).map_err(|e| probs_line.bad("probabilities", e))?;
                    if neighbors.len() != probabilities.len() {
                        return Err(ParseError::BadBody(format!(
                            "{} neighbors but {} probabilities",
                            neighbors.len(),
                            probabilities.len()
                        )));
                    }
                    Ok(Reply::Done(DoneSummary {
                        session: session(&fields)?,
                        majors: fields.require("majors", line::num)?,
                        support: fields.require("support", line::num)?,
                        degraded: fields.require("degraded", line::num)?,
                        neighbors,
                        probabilities,
                    }))
                }
                "suspended" | "closed" | "retired" => {
                    body.end()?;
                    let session = session(&fields)?;
                    Ok(match what {
                        "suspended" => Reply::Suspended { session },
                        "closed" => Reply::Closed { session },
                        _ => Reply::Retired { session },
                    })
                }
                "stats" => {
                    body.end()?;
                    Ok(Reply::Stats(StatsSummary {
                        live: fields.require("live", line::num)?,
                        hot: fields.require("hot", line::num)?,
                        warm: fields.require("warm", line::num)?,
                        shed: fields.require("shed", line::num)?,
                    }))
                }
                "pong" => {
                    body.end()?;
                    Ok(Reply::Pong)
                }
                other => Err(ParseError::UnknownVerb(format!("ok {other}"))),
            }
        }
        other => Err(ParseError::UnknownVerb(other.to_string())),
    }
}

/// Render one reply payload (canonical form; [`parse_reply`] inverts it
/// exactly, bit-for-bit on every float).
pub fn render_reply(reply: &Reply) -> Vec<u8> {
    let mut out = String::from(SESSION_WIRE_HEADER);
    out.push('\n');
    match reply {
        Reply::View(v) => {
            let _ = write!(
                out,
                "ok view session={} major={} minor={} alive={} total={} shed={} \
                 query_density={} max_density={}",
                v.session,
                v.major,
                v.minor,
                v.alive,
                v.total,
                v.shed,
                Float(v.query_density),
                Float(v.max_density)
            );
            if let Some(epoch) = v.epoch {
                let _ = write!(out, " epoch={epoch}");
            }
            out.push('\n');
        }
        Reply::Done(d) => {
            let _ = writeln!(
                out,
                "ok done session={} majors={} support={} degraded={}",
                d.session, d.majors, d.support, d.degraded
            );
            let _ = writeln!(out, "neighbors {}", COMMAS.join(&d.neighbors, usize::clone));
            let probabilities = COMMAS.join(&d.probabilities, |x| Float(*x));
            let _ = writeln!(out, "probabilities {probabilities}");
        }
        Reply::Suspended { session } => {
            let _ = writeln!(out, "ok suspended session={session}");
        }
        Reply::Closed { session } => {
            let _ = writeln!(out, "ok closed session={session}");
        }
        Reply::Retired { session } => {
            let _ = writeln!(out, "ok retired session={session}");
        }
        Reply::Epoch(e) => {
            let _ = writeln!(
                out,
                "ok epoch epoch={} fp={}",
                e.epoch,
                Hex128(e.fingerprint)
            );
        }
        Reply::Stats(s) => {
            let _ = writeln!(
                out,
                "ok stats live={} hot={} warm={} shed={}",
                s.live, s.hot, s.warm, s.shed
            );
        }
        Reply::Pong => out.push_str("ok pong\n"),
        Reply::Error(e) => {
            let _ = write!(out, "err kind={}", e.kind.as_str());
            if let Some(ms) = e.retry_after_ms {
                let _ = write!(out, " retry_after_ms={ms}");
            }
            if let Some(epoch) = e.epoch {
                let _ = write!(out, " epoch={epoch}");
            }
            // The message is free text: newlines inside it would smuggle
            // lines, so they are flattened. It gets its own line, so it
            // may contain spaces — unless the envelope would alter it
            // there; then it rides quoted at the end of the `err` line.
            let message = e.message.replace(['\n', '\r'], " ");
            if needs_quotes(&message) {
                let _ = write!(out, " \" {message}\"");
            }
            out.push('\n');
            if !message.is_empty() && !needs_quotes(&message) {
                let _ = writeln!(out, "{message}");
            }
        }
    }
    out.into_bytes()
}

/// Convenience: an error reply.
pub fn error_reply(
    kind: ErrorKind,
    retry_after_ms: Option<u64>,
    message: impl Into<String>,
) -> Reply {
    Reply::Error(WireError {
        kind,
        retry_after_ms,
        epoch: None,
        message: message.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = render_request(&req);
        assert_eq!(parse_request(&bytes).expect("parse"), req);
    }

    fn round_trip_reply(reply: Reply) {
        let bytes = render_reply(&reply);
        assert_eq!(parse_reply(&bytes).expect("parse"), reply);
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        round_trip_request(Request::Open {
            tenant: "alice".to_string(),
            query: vec![50.0, -0.125, 1e-300, f64::MIN_POSITIVE],
        });
        round_trip_request(Request::Submit {
            session: 7,
            major: 1,
            minor: 3,
            response: UserResponse::Threshold(0.257_843_123),
        });
        round_trip_request(Request::Submit {
            session: 7,
            major: 0,
            minor: 0,
            response: UserResponse::Discard,
        });
        round_trip_request(Request::View { session: 42 });
        round_trip_request(Request::Suspend { session: 42 });
        round_trip_request(Request::Close { session: 42 });
        round_trip_request(Request::Retire { session: 42 });
        round_trip_request(Request::Ingest {
            tenant: "alice".to_string(),
            rows: vec![vec![1.0, -0.125, 1e-300], vec![4.0, 5.0, 6.0]],
        });
        round_trip_request(Request::Delete {
            tenant: "alice".to_string(),
            ids: vec![0, 7, 199],
        });
        round_trip_request(Request::Epoch);
        round_trip_request(Request::Rebase { session: 42 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Ping);
    }

    #[test]
    fn replies_round_trip_bit_exactly() {
        round_trip_reply(Reply::View(ViewSummary {
            session: 9,
            major: 0,
            minor: 1,
            alive: 187,
            total: 200,
            shed: 2,
            query_density: 0.123_456_789_012_345_6,
            max_density: 0.999_999_999_999_999_9,
            epoch: Some(207),
        }));
        round_trip_reply(Reply::View(ViewSummary {
            session: 9,
            major: 0,
            minor: 1,
            alive: 187,
            total: 200,
            shed: 0,
            query_density: 0.5,
            max_density: 1.0,
            epoch: None,
        }));
        round_trip_reply(Reply::Epoch(EpochSummary {
            epoch: 207,
            fingerprint: 0x00ab_cdef_0123_4567_89ab_cdef_0123_4567,
        }));
        round_trip_reply(Reply::Done(DoneSummary {
            session: 9,
            majors: 2,
            support: 20,
            degraded: 1,
            neighbors: vec![3, 5, 9],
            probabilities: vec![0.5, 0.25, 1e-17],
        }));
        // Empty lists render as bare `neighbors` / `probabilities` lines
        // once the envelope trims trailing whitespace — still invertible.
        round_trip_reply(Reply::Done(DoneSummary {
            session: 9,
            majors: 2,
            support: 20,
            degraded: 0,
            neighbors: Vec::new(),
            probabilities: Vec::new(),
        }));
        round_trip_reply(Reply::Suspended { session: 1 });
        round_trip_reply(Reply::Closed { session: 1 });
        round_trip_reply(Reply::Retired { session: 1 });
        round_trip_reply(Reply::Stats(StatsSummary {
            live: 3,
            hot: 2,
            warm: 1,
            shed: 0,
        }));
        round_trip_reply(Reply::Pong);
        round_trip_reply(Reply::Error(WireError {
            kind: ErrorKind::Overloaded,
            retry_after_ms: Some(25),
            epoch: None,
            message: "admission denied: 8 open sessions (max 8)".to_string(),
        }));
        round_trip_reply(Reply::Error(WireError {
            kind: ErrorKind::EpochMismatch,
            retry_after_ms: None,
            epoch: Some(212),
            message: "session pinned epoch 200; dataset is at 212".to_string(),
        }));
        round_trip_reply(Reply::Error(WireError {
            kind: ErrorKind::Parse,
            retry_after_ms: None,
            epoch: None,
            message: String::new(),
        }));
    }

    #[test]
    fn error_messages_round_trip_as_written() {
        let reply = |message: &str| {
            Reply::Error(WireError {
                kind: ErrorKind::Parse,
                retry_after_ms: None,
                epoch: None,
                message: message.to_string(),
            })
        };
        for message in [
            "x-forwarded refusal",
            "   ",
            "trailing space ",
            " leading space",
            "  x-indented",
            "x-a=b %25 \" \"quoted\" = ",
            "\"",
            "",
        ] {
            round_trip_reply(reply(message));
        }
        // A message the envelope keeps as written renders as before, on
        // its own line; the others ride quoted on the `err` line.
        let text = |message| String::from_utf8(render_reply(&reply(message))).unwrap();
        assert_eq!(
            text("no such session"),
            "hinn-session v1\nerr kind=parse\nno such session\n"
        );
        assert_eq!(
            text("x-forwarded a=b "),
            "hinn-session v1\nerr kind=parse \" x-forwarded a=b \"\n"
        );
        // Anything else reads as plain fields, as it always has.
        assert!(matches!(
            parse_reply(b"hinn-session v1\nerr kind=parse \" unclosed\n"),
            Err(ParseError::BadField { .. })
        ));
        assert!(matches!(
            parse_reply(b"hinn-session v1\nerr kind=parse \" x\"\nboom\n"),
            Err(ParseError::BadField { .. })
        ));
        assert_eq!(
            parse_reply(b"hinn-session v1\nerr kind=parse \"a=b\"\nboom\n"),
            Ok(Reply::Error(WireError {
                kind: ErrorKind::Parse,
                retry_after_ms: None,
                epoch: None,
                message: "boom".to_string(),
            }))
        );
    }

    #[test]
    fn epoch_fields_are_optional_and_ingest_bodies_are_strict() {
        // A pre-epoch `ok view` line (no epoch=) still parses: None.
        let old = b"hinn-session v1\nok view session=1 major=0 minor=1 alive=5 total=9 shed=0 \
                    query_density=0.5 max_density=1.0\n";
        let Reply::View(v) = parse_reply(old).expect("old view") else {
            panic!("not a view");
        };
        assert_eq!(v.epoch, None);
        // A mangled epoch= is a typed refusal, not a silent None.
        let bad = b"hinn-session v1\nok view session=1 major=0 minor=1 alive=5 total=9 shed=0 \
                    query_density=0.5 max_density=1.0 epoch=xyz\n";
        assert!(matches!(parse_reply(bad), Err(ParseError::BadField { .. })));
        // Same on err replies.
        let Reply::Error(e) =
            parse_reply(b"hinn-session v1\nerr kind=engine\nboom\n").expect("old err")
        else {
            panic!("not an error");
        };
        assert_eq!(e.epoch, None);
        // Ingest refuses empty batches, non-`row` body lines, and
        // non-finite coordinates.
        assert!(matches!(
            parse_request(b"hinn-session v1\ningest tenant=a\n"),
            Err(ParseError::MissingBody(_))
        ));
        assert!(matches!(
            parse_request(b"hinn-session v1\ningest tenant=a\nnot-a-row 1,2\n"),
            Err(ParseError::BadBody(_))
        ));
        assert!(matches!(
            parse_request(b"hinn-session v1\ningest tenant=a\nrow 1.0,NaN\n"),
            Err(ParseError::BadBody(_))
        ));
        // Delete refuses empty id lists; epoch fingerprints must be hex.
        assert!(matches!(
            parse_request(b"hinn-session v1\ndelete tenant=a ids=\n"),
            Err(ParseError::BadField { .. })
        ));
        assert!(matches!(
            parse_reply(b"hinn-session v1\nok epoch epoch=5 fp=zz\n"),
            Err(ParseError::BadField { .. })
        ));
    }

    #[test]
    fn duplicated_keys_are_refused_even_unknown_ones() {
        let payload = b"hinn-session v1\nview session=1 session=2\n";
        assert_eq!(
            parse_request(payload),
            Err(ParseError::DuplicateKey("session".to_string()))
        );
        // Unknown keys are ignored individually but still refused in
        // duplicate — no conflicting-interpretation smuggling.
        let payload = b"hinn-session v1\nview session=1 zzz=a zzz=b\n";
        assert_eq!(
            parse_request(payload),
            Err(ParseError::DuplicateKey("zzz".to_string()))
        );
    }

    #[test]
    fn forward_tolerance_skips_x_lines_and_unknown_fields() {
        let payload =
            b"x-trace id=99\nhinn-session v1\nview session=5 x_new_field=yes\nx-footer done\n";
        assert_eq!(parse_request(payload), Ok(Request::View { session: 5 }));
    }

    #[test]
    fn version_and_header_refusals_are_typed() {
        assert_eq!(
            parse_request(b"hinn-session v2\nping\n"),
            Err(ParseError::UnsupportedVersion(
                "hinn-session v2".to_string()
            ))
        );
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert_eq!(parse_request(b""), Err(ParseError::Empty));
        assert_eq!(parse_request(&[0xFF, 0xFE, 0x00]), Err(ParseError::NotText));
        assert!(matches!(
            parse_request(b"hinn-session v1\nexplode session=1\n"),
            Err(ParseError::UnknownVerb(_))
        ));
        assert!(matches!(
            parse_request(b"hinn-session v1\nopen tenant=a query=1,2\ntrailing junk\n"),
            Err(ParseError::TrailingContent(_))
        ));
    }

    #[test]
    fn submit_embeds_the_recording_format() {
        let payload =
            b"hinn-session v1\nsubmit session=3 major=0 minor=2\npolygon 1.0,0.0,-3.5;0.0,1.0,2.0\n";
        let req = parse_request(payload).expect("parse");
        let Request::Submit { response, .. } = req else {
            panic!("not a submit");
        };
        assert!(matches!(response, UserResponse::Polygon(ref l) if l.len() == 2));
        // A malformed response line is a typed body error.
        assert!(matches!(
            parse_request(b"hinn-session v1\nsubmit session=3 major=0 minor=0\npolygon nope\n"),
            Err(ParseError::BadBody(_))
        ));
        // A NaN half-plane is refused, not a panic.
        assert!(matches!(
            parse_request(b"hinn-session v1\nsubmit session=3 major=0 minor=0\npolygon NaN,1,0\n"),
            Err(ParseError::BadBody(_))
        ));
        // A missing response line too.
        assert!(matches!(
            parse_request(b"hinn-session v1\nsubmit session=3 major=0 minor=0\n"),
            Err(ParseError::MissingBody(_))
        ));
    }

    #[test]
    fn non_finite_query_coordinates_are_refused() {
        for bad in ["NaN", "inf", "-inf"] {
            let payload = format!("hinn-session v1\nopen tenant=a query=1.0,{bad}\n");
            assert!(
                matches!(
                    parse_request(payload.as_bytes()),
                    Err(ParseError::BadField { .. })
                ),
                "{bad} slipped through"
            );
        }
    }
}
