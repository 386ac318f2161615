//! Serialized session state: suspend a [`crate::SessionEngine`] to text,
//! resume it in another thread or process.
//!
//! The format is deliberately line-oriented and versioned
//! (`hinn-session-state v1` header), like the session-log format of
//! `hinn::user::recording`: greppable in a bug report, diffable in a
//! regression, no serde dependency. Every `f64` is written as its exact
//! 16-hex-digit bit pattern, so a restored engine is *bit-identical* to
//! the suspended one — the suspend/resume equivalence suite
//! (`tests/session_resume.rs`) holds the whole pipeline to that.
//!
//! The text is read with [`hinn_user::line`], the codec the recording and
//! the wire protocol share: blank lines and unknown `x-` extension lines
//! are skipped anywhere, giving future versions room to add fields
//! without breaking older readers. The epoch pin rides one such line
//! (`x-epoch`), which the parser watches for in the same pass.
//!
//! What is **not** serialized:
//! - the data set (the caller re-supplies it; a content fingerprint guards
//!   against resuming over the wrong one),
//! - the configuration (re-supplied too, guarded by a fingerprint of the
//!   loop-relevant knobs; thread budget and deadline may legitimately
//!   differ across suspend and resume),
//! - the pending view (recomputed on resume — it is a pure function of
//!   serialized state, so the transcript comes out identical),
//! - recorded profiles (`SearchConfig::record_profiles` sessions refuse to
//!   snapshot; profiles are multi-megabyte render artifacts, not state).

use crate::degrade::{DegradationEvent, DegradationKind};
use crate::transcript::{MajorRecord, MinorPhases, MinorRecord};
use hinn_cache::Fingerprint;
use hinn_linalg::Subspace;
use hinn_user::line::{self, Hex128, Hex64, Lines, ListFormat, SPACED};
use hinn_user::recording::{response_from_line, response_to_line};
use std::fmt::Write as _;

/// Format tag of the one and only snapshot version so far.
pub const SNAPSHOT_HEADER: &str = "hinn-session-state v1";

/// The extension line that pins an epoch session's dataset epoch.
const EPOCH_PIN: &str = "x-epoch";

/// A suspended session, serialized. Obtain one from
/// [`crate::SessionEngine::snapshot`]; turn it back into an engine with
/// [`crate::SessionEngine::resume`] (or the `SessionManager`'s warm tier,
/// which does this under the hood).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot(String);

impl SessionSnapshot {
    /// Wrap already-serialized text (e.g. read back from disk).
    ///
    /// Only the header is validated here; full validation happens on
    /// resume, against the data set and configuration being resumed with.
    pub fn from_text(text: impl Into<String>) -> Result<Self, String> {
        let text = text.into();
        Lines::new(&text)
            .header(SNAPSHOT_HEADER)
            .map_err(snapshot_err)?;
        Ok(Self(text))
    }

    /// The serialized form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SessionSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The engine state that crosses the serialization boundary — a plain
/// mirror of `SessionEngine`'s loop state, built and consumed in
/// `engine.rs`.
pub(crate) struct EngineState {
    pub n: usize,
    pub d: usize,
    pub config_fp: Fingerprint,
    pub query: Vec<f64>,
    pub dataset_fp: Option<Fingerprint>,
    /// Epoch pin of a session opened over an
    /// [`hinn_data::EpochSnapshot`]: the epoch counter and the chained
    /// content fingerprint. Serialized as an `x-epoch` extension line so
    /// pre-epoch readers skip it; `None` only in snapshots written before
    /// epochs existed.
    pub epoch: Option<(u64, Fingerprint)>,
    pub spent_ns: u64,
    pub major: usize,
    pub minor: usize,
    pub majors_run: usize,
    pub stopped: bool,
    pub alive: Vec<usize>,
    pub p_sum: Vec<f64>,
    pub prev_top: Option<Vec<usize>>,
    /// In-flight major iteration: counts, remaining subspace, partial record.
    pub counts_v: Vec<f64>,
    pub counts_picks: Vec<(usize, f64)>,
    pub ec: Subspace,
    pub major_n_before: usize,
    pub major_minors: Vec<MinorRecord>,
    /// Completed major iterations.
    pub transcript_majors: Vec<MajorRecord>,
    pub degradations: Vec<DegradationEvent>,
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn escape(detail: &str) -> String {
    detail.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len());
    let mut chars = detail.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The value, or `-` when it is absent.
fn dash(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn hexes(vs: &[f64]) -> String {
    SPACED.join(vs, |v| Hex64(*v))
}

fn render_subspace(out: &mut String, key: &str, ambient: usize, rows: &[Vec<f64>]) {
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let _ = writeln!(out, "{key} {ambient} {} {}", rows.len(), hexes(&flat));
}

fn render_minor(out: &mut String, rec: &MinorRecord) {
    let projection = &rec.projection;
    out.push_str("begin-minor\n");
    let _ = writeln!(out, "at {} {}", rec.major, rec.minor);
    render_subspace(
        out,
        "projection",
        projection.ambient_dim(),
        projection.basis(),
    );
    let _ = writeln!(out, "variance-ratios {}", hexes(&rec.variance_ratios));
    let _ = writeln!(out, "response {}", response_to_line(&rec.response));
    let _ = writeln!(out, "n-picked {}", rec.n_picked);
    let _ = writeln!(out, "qpr {}", Hex64(rec.query_peak_ratio));
    let phases = rec.phases.as_ref();
    let phases = phases.map(|p| format!("{} {} {}", p.projection_ns, p.profile_ns, p.select_ns));
    let _ = writeln!(out, "phases {}", dash(phases));
    out.push_str("end-minor\n");
}

pub(crate) fn render(state: &EngineState) -> SessionSnapshot {
    let mut out = String::new();
    let _ = writeln!(out, "{SNAPSHOT_HEADER}");
    let _ = writeln!(out, "n {}\nd {}", state.n, state.d);
    let _ = writeln!(out, "config-fp {}", Hex128(state.config_fp.0));
    let _ = writeln!(out, "query {}", hexes(&state.query));
    let _ = writeln!(
        out,
        "dataset-fp {}",
        dash(state.dataset_fp.map(|fp| Hex128(fp.0)))
    );
    // Epoch pin rides as an `x-` extension line: pre-epoch readers skip
    // it (forward tolerance), epoch-aware readers watch for it.
    if let Some((epoch, fp)) = state.epoch {
        let _ = writeln!(out, "{EPOCH_PIN} {epoch} {}", Hex128(fp.0));
    }
    let _ = writeln!(out, "spent-ns {}", state.spent_ns);
    let _ = writeln!(
        out,
        "cursor {} {} {}",
        state.major, state.minor, state.majors_run
    );
    let _ = writeln!(out, "stopped {}", u8::from(state.stopped));
    let _ = writeln!(out, "alive {}", SPACED.join(&state.alive, usize::clone));
    let _ = writeln!(out, "p-sum {}", hexes(&state.p_sum));
    let prev_top = state.prev_top.as_ref();
    let _ = writeln!(
        out,
        "prev-top {}",
        dash(prev_top.map(|t| SPACED.join(t, usize::clone)))
    );
    out.push_str("begin-major\n");
    let _ = writeln!(out, "counts-v {}", hexes(&state.counts_v));
    let picks =
        ListFormat(';', "-").join(&state.counts_picks, |(n, w)| format!("{n},{}", Hex64(*w)));
    let _ = writeln!(out, "counts-picks {picks}");
    render_subspace(&mut out, "ec", state.ec.ambient_dim(), state.ec.basis());
    let _ = writeln!(out, "major-n-before {}", state.major_n_before);
    for rec in &state.major_minors {
        render_minor(&mut out, rec);
    }
    out.push_str("end-major\n");
    for major_rec in &state.transcript_majors {
        out.push_str("begin-major-record\n");
        let _ = writeln!(out, "n-before {}", major_rec.n_points_before);
        let _ = writeln!(out, "n-after {}", major_rec.n_points_after);
        let _ = writeln!(
            out,
            "overlap {}",
            dash(major_rec.overlap_with_previous.map(Hex64))
        );
        for rec in &major_rec.minors {
            render_minor(&mut out, rec);
        }
        out.push_str("end-major-record\n");
    }
    for event in &state.degradations {
        let (kind, detail) = (event.kind.as_str(), escape(&event.detail));
        let (major, minor) = (dash(event.major), dash(event.minor));
        let _ = writeln!(out, "degradation {kind} {major} {minor} {detail}");
    }
    SessionSnapshot(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A `-` placeholder for an absent value, else `parse(s)`.
fn opt<T>(s: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<Option<T>, String> {
    match s {
        "-" => Ok(None),
        _ => parse(s).map(Some),
    }
}

fn hex_values(s: &str) -> Result<Vec<f64>, String> {
    SPACED.parse(s, line::hex64)
}

fn indices(s: &str) -> Result<Vec<usize>, String> {
    SPACED.parse(s, line::num)
}

fn fingerprint(s: &str) -> Result<Option<Fingerprint>, String> {
    opt(s, |s| line::hex128(s).map(Fingerprint))
}

/// `ambient rows values…`: a subspace's shape and its row-major basis.
fn parse_subspace(rest: &str) -> Result<Subspace, String> {
    let mut parts = rest.splitn(3, ' ');
    let ambient: usize = line::num(parts.next().unwrap_or(""))?;
    let nrows: usize = line::num(parts.next().unwrap_or(""))?;
    let flat = hex_values(parts.next().unwrap_or("-").trim())?;
    if Some(flat.len()) != ambient.checked_mul(nrows) {
        return Err(format!(
            "expected {nrows}x{ambient} values, found {}",
            flat.len()
        ));
    }
    let rows = flat.chunks(ambient.max(1)).map(<[f64]>::to_vec).collect();
    Subspace::try_from_orthonormal_rows(ambient, rows)
        .ok_or_else(|| "subspace rows are not orthonormal".to_string())
}

fn parse_minor(lines: &mut Lines<'_>) -> Result<MinorRecord, line::Error> {
    lines.expect("begin-minor")?;
    let [major, minor] = lines.value("at", |s| line::tuple(s, line::num))?;
    let projection = lines.value("projection", parse_subspace)?;
    let variance_ratios = lines.value("variance-ratios", hex_values)?;
    let response = lines.value("response", |s| {
        response_from_line(s).map_err(|e| e.to_string())
    })?;
    let n_picked = lines.value("n-picked", line::num)?;
    let query_peak_ratio = lines.value("qpr", line::hex64)?;
    let phases = lines.value("phases", |s| {
        opt(s, |s| {
            let [projection_ns, profile_ns, select_ns] = line::tuple(s, line::num)?;
            Ok(MinorPhases {
                projection_ns,
                profile_ns,
                select_ns,
            })
        })
    })?;
    lines.expect("end-minor")?;
    Ok(MinorRecord {
        major,
        minor,
        projection,
        variance_ratios,
        response,
        n_picked,
        query_peak_ratio,
        profile: None,
        phases,
    })
}

/// Every minor record of a section: `begin-minor` … `end-minor` blocks.
fn parse_minors(lines: &mut Lines<'_>) -> Result<Vec<MinorRecord>, line::Error> {
    let mut minors = Vec::new();
    while lines.peek().is_some_and(|l| l.text() == "begin-minor") {
        minors.push(parse_minor(lines)?);
    }
    Ok(minors)
}

fn parse_degradation_kind(s: &str) -> Result<DegradationKind, String> {
    for kind in [
        DegradationKind::EigenFallback,
        DegradationKind::DegenerateCovariance,
        DegradationKind::DroppedZeroVariance,
        DegradationKind::BandwidthFloored,
        DegradationKind::SkippedMinorView,
        DegradationKind::DegradedRetry,
        DegradationKind::StarvedSeed,
    ] {
        if kind.as_str() == s {
            return Ok(kind);
        }
    }
    Err(format!("unknown degradation kind {s:?}"))
}

/// `kind major minor detail`, with `-` for an unplaced event.
fn parse_degradation(rest: &str) -> Result<DegradationEvent, String> {
    let mut parts = rest.splitn(4, ' ');
    let kind = parse_degradation_kind(parts.next().unwrap_or(""))?;
    let major = opt(parts.next().unwrap_or(""), line::num)?;
    let minor = opt(parts.next().unwrap_or(""), line::num)?;
    let detail = unescape(parts.next().unwrap_or(""));
    Ok(DegradationEvent {
        major,
        minor,
        kind,
        detail,
    })
}

/// `counter fingerprint`, the payload of the [`EPOCH_PIN`] line.
fn epoch_pin(rest: &str) -> Result<(u64, Fingerprint), String> {
    let mut parts = rest.split_whitespace();
    let counter = line::num(parts.next().unwrap_or(""))?;
    let fp = fingerprint(parts.next().unwrap_or("-"))?
        .ok_or_else(|| "missing fingerprint".to_string())?;
    Ok((counter, fp))
}

/// The one mapping of a codec error to the snapshot's error text.
fn snapshot_err(e: line::Error) -> String {
    format!("snapshot {e}")
}

pub(crate) fn parse(snapshot: &SessionSnapshot) -> Result<EngineState, String> {
    parse_lines(Lines::new(snapshot.as_str()).watch(EPOCH_PIN)).map_err(snapshot_err)
}

fn parse_lines(mut lines: Lines<'_>) -> Result<EngineState, line::Error> {
    lines.header(SNAPSHOT_HEADER)?;
    let n = lines.value("n", line::num)?;
    let d = lines.value("d", line::num)?;
    let config_fp = lines.value("config-fp", |s| {
        fingerprint(s)?.ok_or_else(|| "config-fp must be present".to_string())
    })?;
    let query = lines.value("query", hex_values)?;
    let dataset_fp = lines.value("dataset-fp", fingerprint)?;
    let spent_ns = lines.value("spent-ns", line::num)?;
    let [major, minor, majors_run] = lines.value("cursor", |s| line::tuple(s, line::num))?;
    let stopped = lines.value("stopped", |s| match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad stopped flag {other:?}")),
    })?;
    let alive = lines.value("alive", indices)?;
    let p_sum = lines.value("p-sum", hex_values)?;
    let prev_top = lines.value("prev-top", |s| opt(s, indices))?;
    lines.expect("begin-major")?;
    let counts_v = lines.value("counts-v", hex_values)?;
    let counts_picks = lines.value("counts-picks", |s| {
        Ok(opt(s, |s| {
            line::groups::<2>(s)
                .map(|pair| {
                    let [n, w] = pair?;
                    Ok((line::num(n)?, line::hex64(w)?))
                })
                .collect::<Result<Vec<_>, String>>()
        })?
        .unwrap_or_default())
    })?;
    let ec = lines.value("ec", parse_subspace)?;
    let major_n_before = lines.value("major-n-before", line::num)?;
    let major_minors = parse_minors(&mut lines)?;
    lines.expect("end-major")?;
    let mut transcript_majors = Vec::new();
    while lines
        .peek()
        .is_some_and(|l| l.text() == "begin-major-record")
    {
        lines.expect("begin-major-record")?;
        let n_points_before = lines.value("n-before", line::num)?;
        let n_points_after = lines.value("n-after", line::num)?;
        let overlap_with_previous = lines.value("overlap", |s| opt(s, line::hex64))?;
        let minors = parse_minors(&mut lines)?;
        lines.expect("end-major-record")?;
        transcript_majors.push(MajorRecord {
            minors,
            n_points_before,
            n_points_after,
            overlap_with_previous,
        });
    }
    let mut degradations = Vec::new();
    while lines.peek().is_some() {
        degradations.push(lines.value("degradation", parse_degradation)?);
    }
    // Every line has been read, so the watched pin has been seen if it is
    // there. A malformed pin is an error — an epoch-aware writer never
    // emits one, so damage must not silently downgrade the pin to
    // "legacy snapshot".
    let epoch = lines
        .watched()
        .map(|pin| {
            let rest = pin.keyed(EPOCH_PIN).unwrap_or("");
            epoch_pin(rest).map_err(|e| pin.bad(EPOCH_PIN, e))
        })
        .transpose()?;
    Ok(EngineState {
        n,
        d,
        config_fp,
        query,
        dataset_fp,
        epoch,
        spent_ns,
        major,
        minor,
        majors_run,
        stopped,
        alive,
        p_sum,
        prev_top,
        counts_v,
        counts_picks,
        ec,
        major_n_before,
        major_minors,
        transcript_majors,
        degradations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinn_user::UserResponse;

    fn sample_state() -> EngineState {
        EngineState {
            n: 4,
            d: 3,
            config_fp: Fingerprint(0xDEADBEEF),
            query: vec![1.0, -2.5, 0.1 + 0.2],
            dataset_fp: Some(Fingerprint(0x1234_5678_9ABC)),
            epoch: Some((7, Fingerprint(0xFEED_F00D))),
            spent_ns: 12_345,
            major: 1,
            minor: 1,
            majors_run: 1,
            stopped: false,
            alive: vec![0, 2, 3],
            p_sum: vec![0.25, 0.0, 1.0 / 3.0, 0.75],
            prev_top: Some(vec![3, 0]),
            counts_v: vec![1.0, 0.0, 2.0, 0.0],
            counts_picks: vec![(2, 1.0), (0, 0.5)],
            ec: Subspace::from_vectors(3, &[vec![0.0, 0.0, 1.0]]),
            major_n_before: 3,
            major_minors: vec![MinorRecord {
                major: 1,
                minor: 0,
                projection: Subspace::from_vectors(3, &[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]),
                variance_ratios: vec![0.9, 0.1],
                response: UserResponse::Threshold(0.4),
                n_picked: 2,
                query_peak_ratio: 0.875,
                profile: None,
                phases: None,
            }],
            transcript_majors: vec![MajorRecord {
                minors: vec![MinorRecord {
                    major: 0,
                    minor: 0,
                    projection: Subspace::full(3),
                    variance_ratios: vec![],
                    response: UserResponse::Discard,
                    n_picked: 0,
                    query_peak_ratio: 0.0,
                    profile: None,
                    phases: Some(MinorPhases {
                        projection_ns: 10,
                        profile_ns: 20,
                        select_ns: 30,
                    }),
                }],
                n_points_before: 4,
                n_points_after: 3,
                overlap_with_previous: None,
            }],
            degradations: vec![DegradationEvent {
                major: Some(0),
                minor: Some(0),
                kind: DegradationKind::BandwidthFloored,
                detail: "zero spread\nsecond line \\ with escapes".to_string(),
            }],
        }
    }

    #[test]
    fn render_parse_roundtrip_is_bit_exact() {
        let state = sample_state();
        let snap = render(&state);
        assert!(snap.as_str().starts_with(SNAPSHOT_HEADER));
        let back = parse(&snap).expect("parse rendered snapshot");
        assert_eq!(back.n, state.n);
        assert_eq!(back.d, state.d);
        assert_eq!(back.config_fp, state.config_fp);
        assert_eq!(back.dataset_fp, state.dataset_fp);
        assert_eq!(back.epoch, state.epoch);
        assert_eq!(back.spent_ns, state.spent_ns);
        assert_eq!(
            (back.major, back.minor, back.majors_run),
            (state.major, state.minor, state.majors_run)
        );
        assert_eq!(back.alive, state.alive);
        assert_eq!(back.prev_top, state.prev_top);
        for (a, b) in back.query.iter().zip(&state.query) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.p_sum.iter().zip(&state.p_sum) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.counts_v.iter().zip(&state.counts_v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.counts_picks, state.counts_picks);
        assert_eq!(back.ec, state.ec);
        assert_eq!(back.major_minors.len(), 1);
        let m = &back.major_minors[0];
        assert_eq!(m.projection, state.major_minors[0].projection);
        assert_eq!(m.response, state.major_minors[0].response);
        assert_eq!(
            m.query_peak_ratio.to_bits(),
            state.major_minors[0].query_peak_ratio.to_bits()
        );
        assert_eq!(back.transcript_majors.len(), 1);
        assert_eq!(
            back.transcript_majors[0].minors[0].phases,
            state.transcript_majors[0].minors[0].phases
        );
        assert_eq!(back.degradations.len(), 1);
        assert_eq!(back.degradations[0].detail, state.degradations[0].detail);
        assert_eq!(back.degradations[0].kind, DegradationKind::BandwidthFloored);
    }

    #[test]
    fn unknown_extension_lines_are_skipped() {
        let state = sample_state();
        let snap = render(&state);
        // A future version adds per-section extension lines; v1 readers
        // must skip them.
        let extended: String = snap
            .as_str()
            .lines()
            .flat_map(|l| [l.to_string(), "x-future-field 42".to_string()])
            .collect::<Vec<_>>()
            .join("\n");
        let snap2 = SessionSnapshot::from_text(extended).expect("header still first");
        let back = parse(&snap2).expect("tolerant parse");
        assert_eq!(back.alive, state.alive);
        assert_eq!(back.transcript_majors.len(), 1);
    }

    #[test]
    fn epoch_pin_rides_an_extension_line() {
        let state = sample_state();
        let snap = render(&state);
        // The pin is carried on an `x-` line, so a pre-epoch reader (which
        // skips all of them) still parses the snapshot.
        assert!(
            snap.as_str().lines().any(|l| l.starts_with("x-epoch 7 ")),
            "{snap}"
        );
        // A legacy snapshot (no x-epoch line) parses to an unpinned state.
        let legacy: String = snap
            .as_str()
            .lines()
            .filter(|l| !l.starts_with("x-epoch"))
            .collect::<Vec<_>>()
            .join("\n");
        let back = parse(&SessionSnapshot::from_text(legacy).expect("header")).expect("parse");
        assert_eq!(back.epoch, None);
        // A mangled pin is a parse error, never a silent downgrade.
        let mangled: String = snap
            .as_str()
            .lines()
            .map(|l| {
                if l.starts_with("x-epoch") {
                    "x-epoch 7 zz".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse(&SessionSnapshot::from_text(mangled).expect("header"))
            .map(|_| ())
            .expect_err("bad fingerprint hex");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn header_is_required() {
        assert!(SessionSnapshot::from_text("").is_err());
        assert!(SessionSnapshot::from_text("hinn-session v1\nthreshold 0.5").is_err());
        let err = parse(&SessionSnapshot("hinn-session-state v0\nn 3".to_string()))
            .err()
            .expect("bad version");
        assert!(err.contains("unsupported"));
    }

    #[test]
    fn corrupted_subspace_is_rejected() {
        let state = sample_state();
        let snap = render(&state);
        // Corrupt one basis value inside the `ec` subspace line: the
        // orthonormality check must catch it.
        let bad: String = snap
            .as_str()
            .lines()
            .map(|l| {
                if l.starts_with("ec ") {
                    l.replace(&Hex64(1.0).to_string(), &Hex64(5.0).to_string())
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let snap2 = SessionSnapshot::from_text(bad).expect("header intact");
        let err = parse(&snap2).err().expect("non-orthonormal ec");
        assert!(err.contains("orthonormal"), "{err}");
    }
}
