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
//! Unknown lines prefixed `x-` are skipped by the parser, giving future
//! versions room to add fields without breaking older readers.
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
use hinn_user::recording::{response_from_line, response_to_line};

/// Format tag of the one and only snapshot version so far.
pub const SNAPSHOT_HEADER: &str = "hinn-session-state v1";

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
        match text.lines().next() {
            Some(first) if first.trim() == SNAPSHOT_HEADER => Ok(Self(text)),
            Some(first) => Err(format!(
                "not a session snapshot: expected {SNAPSHOT_HEADER:?} header, found {first:?}"
            )),
            None => Err("not a session snapshot: empty text".to_string()),
        }
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

fn hex64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_list(vs: &[f64]) -> String {
    if vs.is_empty() {
        return "-".to_string();
    }
    vs.iter().map(|v| hex64(*v)).collect::<Vec<_>>().join(" ")
}

fn usize_list(vs: &[usize]) -> String {
    if vs.is_empty() {
        return "-".to_string();
    }
    vs.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

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

fn render_subspace(out: &mut String, key: &str, ambient: usize, rows: &[Vec<f64>]) {
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    out.push_str(&format!(
        "{key} {ambient} {} {}\n",
        rows.len(),
        hex_list(&flat)
    ));
}

fn render_minor(out: &mut String, rec: &MinorRecord) {
    out.push_str("begin-minor\n");
    out.push_str(&format!("at {} {}\n", rec.major, rec.minor));
    render_subspace(
        out,
        "projection",
        rec.projection.ambient_dim(),
        rec.projection.basis(),
    );
    out.push_str(&format!(
        "variance-ratios {}\n",
        hex_list(&rec.variance_ratios)
    ));
    out.push_str(&format!("response {}\n", response_to_line(&rec.response)));
    out.push_str(&format!("n-picked {}\n", rec.n_picked));
    out.push_str(&format!("qpr {}\n", hex64(rec.query_peak_ratio)));
    match &rec.phases {
        Some(p) => out.push_str(&format!(
            "phases {} {} {}\n",
            p.projection_ns, p.profile_ns, p.select_ns
        )),
        None => out.push_str("phases -\n"),
    }
    out.push_str("end-minor\n");
}

pub(crate) fn render(state: &EngineState) -> SessionSnapshot {
    let mut out = String::new();
    out.push_str(SNAPSHOT_HEADER);
    out.push('\n');
    out.push_str(&format!("n {}\n", state.n));
    out.push_str(&format!("d {}\n", state.d));
    out.push_str(&format!("config-fp {:032x}\n", state.config_fp.0));
    out.push_str(&format!("query {}\n", hex_list(&state.query)));
    match state.dataset_fp {
        Some(fp) => out.push_str(&format!("dataset-fp {:032x}\n", fp.0)),
        None => out.push_str("dataset-fp -\n"),
    }
    // Epoch pin rides as an `x-` extension line: pre-epoch readers skip
    // it (forward tolerance), epoch-aware resume pre-scans for it.
    if let Some((epoch, fp)) = state.epoch {
        out.push_str(&format!("x-epoch {epoch} {:032x}\n", fp.0));
    }
    out.push_str(&format!("spent-ns {}\n", state.spent_ns));
    out.push_str(&format!(
        "cursor {} {} {}\n",
        state.major, state.minor, state.majors_run
    ));
    out.push_str(&format!("stopped {}\n", u8::from(state.stopped)));
    out.push_str(&format!("alive {}\n", usize_list(&state.alive)));
    out.push_str(&format!("p-sum {}\n", hex_list(&state.p_sum)));
    match &state.prev_top {
        Some(top) => out.push_str(&format!("prev-top {}\n", usize_list(top))),
        None => out.push_str("prev-top -\n"),
    }
    out.push_str("begin-major\n");
    out.push_str(&format!("counts-v {}\n", hex_list(&state.counts_v)));
    if state.counts_picks.is_empty() {
        out.push_str("counts-picks -\n");
    } else {
        let picks: Vec<String> = state
            .counts_picks
            .iter()
            .map(|(n, w)| format!("{n},{}", hex64(*w)))
            .collect();
        out.push_str(&format!("counts-picks {}\n", picks.join(";")));
    }
    render_subspace(&mut out, "ec", state.ec.ambient_dim(), state.ec.basis());
    out.push_str(&format!("major-n-before {}\n", state.major_n_before));
    for rec in &state.major_minors {
        render_minor(&mut out, rec);
    }
    out.push_str("end-major\n");
    for major_rec in &state.transcript_majors {
        out.push_str("begin-major-record\n");
        out.push_str(&format!("n-before {}\n", major_rec.n_points_before));
        out.push_str(&format!("n-after {}\n", major_rec.n_points_after));
        match major_rec.overlap_with_previous {
            Some(o) => out.push_str(&format!("overlap {}\n", hex64(o))),
            None => out.push_str("overlap -\n"),
        }
        for rec in &major_rec.minors {
            render_minor(&mut out, rec);
        }
        out.push_str("end-major-record\n");
    }
    for event in &state.degradations {
        let major = event
            .major
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_string());
        let minor = event
            .minor
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "degradation {} {major} {minor} {}\n",
            event.kind.as_str(),
            escape(&event.detail)
        ));
    }
    SessionSnapshot(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Lines<'a> {
    iter: std::iter::Peekable<std::str::Lines<'a>>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines().peekable(),
            line_no: 0,
        }
    }

    /// Next meaningful line: skips blanks and `x-`-prefixed extension
    /// lines (the unknown-field tolerance of the format).
    fn next_content(&mut self) -> Option<&'a str> {
        loop {
            let line = self.iter.next()?;
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with("x-") {
                continue;
            }
            return Some(trimmed);
        }
    }

    fn peek_content(&mut self) -> Option<&'a str> {
        loop {
            let line = *self.iter.peek()?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with("x-") {
                self.iter.next();
                self.line_no += 1;
                continue;
            }
            return Some(trimmed);
        }
    }

    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("snapshot line {}: {msg}", self.line_no)
    }

    /// Consume a line that must start with `key ` (or equal `key`),
    /// returning the rest.
    fn expect(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self
            .next_content()
            .ok_or_else(|| self.err(format!("unexpected end of snapshot, expected {key:?}")))?;
        if line == key {
            return Ok("");
        }
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::trim)
            .ok_or_else(|| self.err(format!("expected {key:?}, found {line:?}")))
    }
}

fn parse_f64_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 hex {s:?}: {e}"))
}

fn parse_hex_list(s: &str) -> Result<Vec<f64>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split_whitespace().map(parse_f64_hex).collect()
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split_whitespace().map(parse_usize).collect()
}

fn parse_fingerprint(s: &str) -> Result<Option<Fingerprint>, String> {
    if s == "-" {
        return Ok(None);
    }
    u128::from_str_radix(s, 16)
        .map(|v| Some(Fingerprint(v)))
        .map_err(|e| format!("bad fingerprint {s:?}: {e}"))
}

fn parse_subspace(rest: &str) -> Result<(usize, Vec<Vec<f64>>), String> {
    let mut parts = rest.splitn(3, ' ');
    let ambient = parse_usize(parts.next().unwrap_or(""))?;
    let nrows = parse_usize(parts.next().unwrap_or(""))?;
    let flat = parse_hex_list(parts.next().unwrap_or("-").trim())?;
    if flat.len() != ambient * nrows {
        return Err(format!(
            "subspace: expected {nrows}x{ambient} values, found {}",
            flat.len()
        ));
    }
    let rows = flat.chunks(ambient.max(1)).map(<[f64]>::to_vec).collect();
    Ok((ambient, rows))
}

fn rebuild_subspace(ambient: usize, rows: Vec<Vec<f64>>) -> Result<Subspace, String> {
    Subspace::try_from_orthonormal_rows(ambient, rows)
        .ok_or_else(|| "subspace rows are not orthonormal".to_string())
}

fn parse_minor(lines: &mut Lines<'_>) -> Result<MinorRecord, String> {
    lines.expect("begin-minor")?;
    let at = lines.expect("at")?;
    let mut at_parts = at.split_whitespace();
    let major = parse_usize(at_parts.next().unwrap_or(""))?;
    let minor = parse_usize(at_parts.next().unwrap_or(""))?;
    let (ambient, rows) = parse_subspace(lines.expect("projection")?)?;
    let projection = rebuild_subspace(ambient, rows)?;
    let variance_ratios = parse_hex_list(lines.expect("variance-ratios")?)?;
    let response = response_from_line(lines.expect("response")?)
        .map_err(|e| format!("bad response line: {e}"))?;
    let n_picked = parse_usize(lines.expect("n-picked")?)?;
    let query_peak_ratio = parse_f64_hex(lines.expect("qpr")?)?;
    let phases_rest = lines.expect("phases")?;
    let phases = if phases_rest == "-" {
        None
    } else {
        let mut ns = phases_rest.split_whitespace();
        Some(MinorPhases {
            projection_ns: parse_u64(ns.next().unwrap_or(""))?,
            profile_ns: parse_u64(ns.next().unwrap_or(""))?,
            select_ns: parse_u64(ns.next().unwrap_or(""))?,
        })
    };
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

fn parse_opt_usize(s: &str) -> Result<Option<usize>, String> {
    if s == "-" {
        return Ok(None);
    }
    parse_usize(s).map(Some)
}

/// Pre-scan for the `x-epoch` extension line. The main parser skips every
/// `x-` line by design (forward tolerance), so the epoch pin is recovered
/// from the raw text: `x-epoch <counter> <fingerprint hex>`. A malformed
/// line is an error — an epoch-aware writer never emits one, so damage
/// must not silently downgrade the pin to "legacy snapshot".
fn parse_epoch_pin(text: &str) -> Result<Option<(u64, Fingerprint)>, String> {
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("x-epoch ") else {
            continue;
        };
        let mut parts = rest.split_whitespace();
        let counter = parse_u64(parts.next().unwrap_or(""))?;
        let fp = parse_fingerprint(parts.next().unwrap_or("-"))?
            .ok_or_else(|| "x-epoch: missing fingerprint".to_string())?;
        return Ok(Some((counter, fp)));
    }
    Ok(None)
}

pub(crate) fn parse(snapshot: &SessionSnapshot) -> Result<EngineState, String> {
    let epoch = parse_epoch_pin(snapshot.as_str())?;
    let mut lines = Lines::new(snapshot.as_str());
    let header = lines
        .next_content()
        .ok_or_else(|| "empty snapshot".to_string())?;
    if header != SNAPSHOT_HEADER {
        return Err(format!(
            "unsupported snapshot header {header:?} (expected {SNAPSHOT_HEADER:?})"
        ));
    }
    let n = parse_usize(lines.expect("n")?)?;
    let d = parse_usize(lines.expect("d")?)?;
    let config_fp = parse_fingerprint(lines.expect("config-fp")?)?
        .ok_or_else(|| "config-fp must be present".to_string())?;
    let query = parse_hex_list(lines.expect("query")?)?;
    let dataset_fp = parse_fingerprint(lines.expect("dataset-fp")?)?;
    let spent_ns = parse_u64(lines.expect("spent-ns")?)?;
    let cursor = lines.expect("cursor")?;
    let mut cursor_parts = cursor.split_whitespace();
    let major = parse_usize(cursor_parts.next().unwrap_or(""))?;
    let minor = parse_usize(cursor_parts.next().unwrap_or(""))?;
    let majors_run = parse_usize(cursor_parts.next().unwrap_or(""))?;
    let stopped = match lines.expect("stopped")? {
        "0" => false,
        "1" => true,
        other => return Err(lines.err(format!("bad stopped flag {other:?}"))),
    };
    let alive = parse_usize_list(lines.expect("alive")?)?;
    let p_sum = parse_hex_list(lines.expect("p-sum")?)?;
    let prev_top = match lines.expect("prev-top")? {
        "-" => None,
        rest => Some(parse_usize_list(rest)?),
    };
    lines.expect("begin-major")?;
    let counts_v = parse_hex_list(lines.expect("counts-v")?)?;
    let picks_rest = lines.expect("counts-picks")?;
    let counts_picks = if picks_rest == "-" {
        Vec::new()
    } else {
        picks_rest
            .split(';')
            .map(|pair| {
                let (n_s, w_s) = pair
                    .split_once(',')
                    .ok_or_else(|| format!("bad picks pair {pair:?}"))?;
                Ok((parse_usize(n_s)?, parse_f64_hex(w_s)?))
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    let (ec_ambient, ec_rows) = parse_subspace(lines.expect("ec")?)?;
    let ec = rebuild_subspace(ec_ambient, ec_rows)?;
    let major_n_before = parse_usize(lines.expect("major-n-before")?)?;
    let mut major_minors = Vec::new();
    while lines.peek_content() == Some("begin-minor") {
        major_minors.push(parse_minor(&mut lines)?);
    }
    lines.expect("end-major")?;
    let mut transcript_majors = Vec::new();
    while lines.peek_content() == Some("begin-major-record") {
        lines.expect("begin-major-record")?;
        let n_points_before = parse_usize(lines.expect("n-before")?)?;
        let n_points_after = parse_usize(lines.expect("n-after")?)?;
        let overlap_with_previous = match lines.expect("overlap")? {
            "-" => None,
            rest => Some(parse_f64_hex(rest)?),
        };
        let mut minors = Vec::new();
        while lines.peek_content() == Some("begin-minor") {
            minors.push(parse_minor(&mut lines)?);
        }
        lines.expect("end-major-record")?;
        transcript_majors.push(MajorRecord {
            minors,
            n_points_before,
            n_points_after,
            overlap_with_previous,
        });
    }
    let mut degradations = Vec::new();
    while let Some(line) = lines.next_content() {
        let Some(rest) = line.strip_prefix("degradation ") else {
            return Err(lines.err(format!("unexpected trailing line {line:?}")));
        };
        let mut parts = rest.splitn(4, ' ');
        let kind = parse_degradation_kind(parts.next().unwrap_or(""))?;
        let ev_major = parse_opt_usize(parts.next().unwrap_or(""))?;
        let ev_minor = parse_opt_usize(parts.next().unwrap_or(""))?;
        let detail = unescape(parts.next().unwrap_or(""));
        degradations.push(DegradationEvent {
            major: ev_major,
            minor: ev_minor,
            kind,
            detail,
        });
    }
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
                    l.replace(&hex64(1.0), &hex64(5.0))
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
