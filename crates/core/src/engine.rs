//! The sans-io session engine: the interactive loop of Fig. 2 as an
//! explicit state machine.
//!
//! [`crate::InteractiveSearch::run_with`] drives the paper's protocol
//! through a *blocking callback*: the engine calls
//! `user.respond(...)` and waits. That shape cannot serve a real frontend —
//! a web UI or RPC handler must own the event loop, hold thousands of
//! half-finished sessions, and answer each user on *their* schedule. The
//! [`SessionEngine`] inverts the control flow:
//!
//! ```text
//!   start ──► Step::NeedResponse(view) ──► caller shows the view
//!     ▲                                        │
//!     │                                        ▼
//!   submit(UserResponse) ◄──────────── user picks a separator
//!     │
//!     ├─► Step::NeedResponse(next view)   (loop)
//!     └─► Step::Done(SearchOutcome)
//! ```
//!
//! Between `NeedResponse` and the next `submit` the engine is *suspended*:
//! it holds no locks, runs no threads, reads no clocks, and can be moved
//! across threads, [snapshotted](SessionEngine::snapshot) to a text blob,
//! and [resumed](SessionEngine::resume) in another process. The engine
//! never blocks and never calls the user — those are the two invariants
//! everything in `hinn-serve` is built on.
//!
//! # Equivalence to the callback loop
//!
//! The engine's state transitions are a line-for-line restructuring of the
//! original callback loop; `run_with` is now a thin driver over it,
//! so the golden-session, parallel-equivalence, and obs-invariance suites
//! all pin the engine to the callback-era outputs bit for bit.
//!
//! # Replayed majors
//!
//! A major iteration that drops no point (Fig. 2) leaves the next major
//! the same candidate set. Every input of its views then repeats — alive
//! set, query, the chain of search subspaces `E_c`, support, mode and grid
//! settings — so the next major replays the recorded views instead of
//! recomputing them, absorbing each view's degradation events again. A
//! resumed engine has no record of the views before its snapshot and
//! recomputes them.
//!
//! # Cost of a seeded session
//!
//! An index-seeded session's candidate set starts as its `budget` ids, and
//! the engine keeps that seed as its *touched set*: the only ids whose
//! probability mass can become nonzero. A resumed engine rebuilds it as
//! its alive ids plus every id with mass. Each major's stability check and
//! the final ranking work on three blocks (`rank_touched`), and the
//! diagnosis scans their concatenation (`sorted_probabilities`), so the
//! tie-break distances, the selections and the sorts are O(budget). The
//! one O(N) scan lists the ids nearest the query over the whole epoch; it
//! runs at most once per session, when fewer than `s` candidates have
//! positive probability. What stays O(N) is the dense `p_sum`, each
//! major's preference counts, [`SearchOutcome::probabilities`], the
//! diagnosis's filled +0.0 run and the snapshot text.
//!
//! # Deadlines
//!
//! A configured [`crate::SearchConfig::deadline`] bounds the session's
//! *compute* time, accumulated across `start`/`submit` segments (and
//! preserved through snapshot/resume). Time the user spends thinking while
//! the engine is suspended is free — the natural semantics for a served
//! session. Checks happen cooperatively at minor-iteration boundaries, as
//! before.

use crate::config::{BandwidthMode, SearchConfig};
use crate::counts::PreferenceCounts;
use crate::degrade::{DegradationEvent, DegradationKind, DegradationLog};
use crate::diagnosis::SearchDiagnosis;
use crate::error::HinnError;
use crate::meaning::iteration_probabilities;
use crate::projection::{
    chunk_of, column_views, gather_columns, try_find_query_centered_projection_cols,
    ProjectionResult,
};
use crate::search::SearchOutcome;
use crate::snapshot::{self, EngineState, SessionSnapshot};
use crate::transcript::{MajorRecord, MinorPhases, MinorRecord, Transcript};
use hinn_cache::{Fingerprint, Fnv128};
use hinn_data::{DatasetHandle, EpochSnapshot};
use hinn_kde::{ProfileNotes, VisualProfile};
use hinn_linalg::Subspace;
use hinn_metrics::drop::DropConfig;
use hinn_user::{UserResponse, ViewContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the engine asks of its caller next.
#[derive(Clone, Debug)]
pub enum Step {
    /// A view is ready; show it to the user and [`SessionEngine::submit`]
    /// their response.
    NeedResponse(ViewRequest),
    /// The session finished; the engine is spent.
    Done(Box<SearchOutcome>),
}

impl Step {
    /// The pending view of a `NeedResponse` step.
    pub fn view(&self) -> Option<&ViewRequest> {
        match self {
            Self::NeedResponse(v) => Some(v),
            Self::Done(_) => None,
        }
    }

    /// Is the session finished?
    pub fn is_done(&self) -> bool {
        matches!(self, Self::Done(_))
    }

    /// Consume a `Done` step into its outcome.
    pub fn into_outcome(self) -> Option<SearchOutcome> {
        match self {
            Self::NeedResponse(_) => None,
            Self::Done(o) => Some(*o),
        }
    }
}

/// One view awaiting the user's separator: the rendered density profile
/// plus the iteration context (which rows map to which original points).
#[derive(Clone, Debug)]
pub struct ViewRequest {
    profile: Arc<(VisualProfile, ProfileNotes)>,
    context: ViewContext,
}

impl ViewRequest {
    /// The visual density profile to show.
    pub fn profile(&self) -> &VisualProfile {
        &self.profile.0
    }

    /// Iteration context of the view.
    pub fn context(&self) -> &ViewContext {
        &self.context
    }
}

/// One computed view of a major iteration: the projection search's result
/// with its degradation events, and the rendered profile (`None` when the
/// profile failed and the view was skipped; failures are recomputed, never
/// replayed).
#[derive(Clone)]
struct MajorView {
    proj: Arc<(ProjectionResult, Vec<DegradationEvent>)>,
    profile: Option<Arc<(VisualProfile, ProfileNotes)>>,
}

/// In-flight state of one major iteration.
struct MajorCtx {
    /// The alive points as columns, gathered once per major: column `j`
    /// is `alive_cols[j·n .. (j+1)·n]`, `n` the alive count.
    alive_cols: Vec<f64>,
    /// The views computed this major, by minor index.
    views: Vec<MajorView>,
    counts: PreferenceCounts,
    ec: Subspace,
    major_rec: MajorRecord,
    /// Index of the next minor iteration to compute (or of the pending
    /// view while suspended).
    minor: usize,
}

/// A computed view waiting for its response.
struct PendingView {
    request: ViewRequest,
    proj: Arc<(ProjectionResult, Vec<DegradationEvent>)>,
    /// Projection/profile wall times, present iff a recorder was installed
    /// when the view was computed. `t_profile` anchors `select_ns`, which
    /// therefore includes the user's think time — exactly the callback
    /// loop's semantics.
    projection_ns: u64,
    profile_ns: u64,
    t_profile: Option<Instant>,
    /// Degradation-log length just before this view's own events were
    /// recorded. Snapshots serialize only events before this mark:
    /// resume recomputes the pending view and re-emits its events, so
    /// serializing them too would duplicate them on every evict/restore
    /// cycle.
    degr_mark: usize,
}

enum EngineStatus {
    Active,
    Finished,
    Failed,
}

/// The interactive search loop with the user inverted out of it (see
/// module docs).
pub struct SessionEngine {
    config: SearchConfig,
    drop_config: DropConfig,
    /// The epoch snapshot pinned at open. Its `(epoch, fingerprint)` pair
    /// travels through snapshots (`x-epoch`) and enforces the typed
    /// consistency rule: resuming against any other epoch is
    /// [`HinnError::EpochMismatch`]. Point id `i` is its alive row
    /// `snap.alive_row(i)`.
    snap: Arc<EpochSnapshot>,
    query: Vec<f64>,
    // Derived once at start.
    n: usize,
    d: usize,
    s_eff: usize,
    n_minors: usize,
    /// Compute time accumulated across segments (tracked only when a
    /// deadline is configured; the default path stays clock-free).
    pub(crate) spent: Duration,
    // Session-loop state (the snapshot surface).
    pub(crate) alive: Vec<usize>,
    pub(crate) p_sum: Vec<f64>,
    pub(crate) transcript: Transcript,
    pub(crate) majors_run: usize,
    pub(crate) prev_top: Option<Vec<usize>>,
    /// Index of the current (or next) major iteration.
    pub(crate) major: usize,
    /// Termination-by-stability latch.
    pub(crate) stopped: bool,
    /// Every id whose `p_sum` can be nonzero, ascending: the seed, or on
    /// a resumed engine its alive ids and every id with mass. `None` while
    /// that is still the alive set, until a major drops a point.
    touched: Option<Vec<usize>>,
    /// Squared full-space distance to the query of each touched id, the
    /// ranking's tie-break. Filled at the first ranking, never at open.
    touched_dist_sq: Option<Vec<f64>>,
    /// The ids nearest the query over the whole epoch, with their squared
    /// distances: where a ranking reads its +0.0 block. Built at most once.
    nearest: Option<Vec<(f64, usize)>>,
    /// The previous major's views when it dropped no point: minor `k` of
    /// the current major repeats view `k` (see the module docs).
    replay: Vec<MajorView>,
    /// That major's alive columns, handed on with its views: the next
    /// major runs on the same candidate set.
    replay_cols: Option<Vec<f64>>,
    cur: Option<MajorCtx>,
    pending: Option<PendingView>,
    status: EngineStatus,
}

impl SessionEngine {
    /// Start a session over `data`, pinning its current epoch. Returns the
    /// engine together with its first [`Step`].
    ///
    /// The session runs against the pinned [`EpochSnapshot`] for its whole
    /// life: concurrent `append`/`delete` on the handle never perturb it,
    /// and resuming one of its snapshots against a moved handle is a typed
    /// [`HinnError::EpochMismatch`] (see [`SessionEngine::resume`]).
    pub fn start(
        config: SearchConfig,
        data: &DatasetHandle,
        query: &[f64],
    ) -> Result<(Self, Step), HinnError> {
        Self::start_at(config, data.snapshot(), query)
    }

    /// [`SessionEngine::start`] pinned to an explicit epoch snapshot
    /// (e.g. one retained before further ingestion).
    pub fn start_at(
        config: SearchConfig,
        snap: Arc<EpochSnapshot>,
        query: &[f64],
    ) -> Result<(Self, Step), HinnError> {
        config.try_validate()?;
        SessionEngine::start_inner(config, DropConfig::default(), snap, query)
    }

    pub(crate) fn start_inner(
        config: SearchConfig,
        drop_config: DropConfig,
        snap: Arc<EpochSnapshot>,
        query: &[f64],
    ) -> Result<(Self, Step), HinnError> {
        // Pre-drive work runs under its own `search.session` segment (the
        // guard closes before `drive` opens the next one, so the root path
        // merges rather than nesting): seeding can dominate session time
        // for the indexed sources, and the flight recorder's coverage
        // contract wants it under a named child span.
        let session_span = hinn_obs::span!("search.session");
        let seed_span = hinn_obs::span!("search.seed");
        let (n, d) = (snap.len(), snap.dim());
        validate_inputs(n, d, query)?;
        let s_eff = config.effective_support(d).min(n);
        let n_minors = config.effective_minors(d);
        if hinn_obs::enabled() {
            hinn_obs::gauge("search.points", n as f64);
            hinn_obs::gauge("search.dims", d as f64);
            hinn_obs::gauge("search.threads", config.parallelism.threads() as f64);
        }
        // Seed the candidate set: the full id range under the default
        // source (bit-for-bit the pre-candidate-source behavior), else the
        // source's top-`budget` ids. Runs before the first view so the
        // whole session — ranking, pruning, termination — operates on the
        // seeded subset. An approximate source that under-delivers is
        // replaced by the exact linear seed and leaves a starved-seed rung
        // in the log. The HNSW source reuses the snapshot's append-only
        // graph lineage and filters tombstones.
        let (alive, seed_event) =
            config
                .candidates
                .seed_alive(config.parallelism, &snap, query, s_eff);
        drop(seed_span);
        drop(session_span);
        let mut engine = SessionEngine {
            config,
            drop_config,
            snap,
            query: query.to_vec(),
            n,
            d,
            s_eff,
            n_minors,
            spent: Duration::ZERO,
            alive,
            p_sum: vec![0.0; n],
            transcript: Transcript::default(),
            majors_run: 0,
            prev_top: None,
            major: 0,
            stopped: false,
            touched: None,
            touched_dist_sq: None,
            nearest: None,
            replay: Vec::new(),
            replay_cols: None,
            cur: None,
            pending: None,
            status: EngineStatus::Active,
        };
        if let Some(event) = seed_event {
            engine.transcript.degradations.push(event);
        }
        let step = engine.drive(None)?;
        Ok((engine, step))
    }

    /// Override the steep-drop detector configuration (before any
    /// response has been submitted).
    pub fn with_drop_config(mut self, drop_config: DropConfig) -> Self {
        self.drop_config = drop_config;
        self
    }

    /// Submit the user's response to the pending view and run the engine
    /// forward to the next suspension point (or completion).
    ///
    /// # Errors
    /// [`HinnError::InvalidInput`] when no view is pending (the session
    /// already finished or failed); [`HinnError::Deadline`] when the
    /// compute budget expires; any projection-pipeline error the
    /// degradation ladder could not absorb. After an error the engine is
    /// spent: further submits report `InvalidInput`.
    pub fn submit(&mut self, response: UserResponse) -> Result<Step, HinnError> {
        if !matches!(self.status, EngineStatus::Active) || self.pending.is_none() {
            return Err(HinnError::InvalidInput {
                phase: "engine.submit",
                message: "SessionEngine: no view awaiting a response".into(),
            });
        }
        self.drive(Some(response))
    }

    /// The view currently awaiting a response (`None` once the session
    /// finished or failed).
    pub fn pending_view(&self) -> Option<&ViewRequest> {
        self.pending.as_ref().map(|p| &p.request)
    }

    /// Is the engine still suspended, waiting for a response?
    pub fn is_suspended(&self) -> bool {
        self.pending.is_some()
    }

    /// `(major, minor)` cursor of the pending view (or of the next view
    /// to compute).
    pub fn cursor(&self) -> (usize, usize) {
        (self.major, self.cur.as_ref().map_or(0, |c| c.minor))
    }

    /// Major iterations completed so far.
    pub fn majors_run(&self) -> usize {
        self.majors_run
    }

    /// Candidate points still alive.
    pub fn alive_len(&self) -> usize {
        self.alive.len()
    }

    /// Degradation-ladder rungs the session has taken so far. On
    /// completion the log moves into [`SearchOutcome`]; after a terminal
    /// error it stays here — which is exactly when a postmortem reader
    /// (the serve layer's flight recorder) needs it.
    pub fn degradations(&self) -> &crate::degrade::DegradationLog {
        &self.transcript.degradations
    }

    /// Compute time consumed so far (tracked only when a deadline is
    /// configured; [`Duration::ZERO`] otherwise).
    pub fn spent_compute(&self) -> Duration {
        self.spent
    }

    /// The session's configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The `(epoch counter, chained fingerprint)` this session pinned at
    /// open.
    pub fn dataset_epoch(&self) -> (u64, Fingerprint) {
        (self.snap.epoch(), self.snap.fingerprint())
    }

    /// Serialize the suspended session to a [`SessionSnapshot`] (see
    /// [`crate::snapshot`] for the format and what it guarantees). The
    /// pending view is *not* serialized — resume recomputes it, and
    /// determinism makes the recomputation bit-identical.
    ///
    /// # Errors
    /// [`HinnError::InvalidInput`] when the engine is not suspended (there
    /// is nothing between-views to capture) or when
    /// [`SearchConfig::record_profiles`] is set (recorded profiles are
    /// multi-megabyte render artifacts the text format refuses to carry).
    pub fn snapshot(&self) -> Result<SessionSnapshot, HinnError> {
        let snapshot_err = |message: String| HinnError::InvalidInput {
            phase: "session.snapshot",
            message,
        };
        if self.config.record_profiles {
            return Err(snapshot_err(
                "SessionEngine::snapshot: record_profiles sessions cannot be snapshotted"
                    .to_string(),
            ));
        }
        let (cur, pending) = match (&self.cur, &self.pending) {
            (Some(cur), Some(pending)) => (cur, pending),
            _ => {
                return Err(snapshot_err(
                    "SessionEngine::snapshot: engine is not suspended at a view".to_string(),
                ))
            }
        };
        let state = EngineState {
            n: self.n,
            d: self.d,
            config_fp: config_fingerprint(&self.config),
            query: self.query.clone(),
            dataset_fp: Some(self.snap.fingerprint()),
            epoch: Some(self.dataset_epoch()),
            spent_ns: self.spent.as_nanos() as u64,
            major: self.major,
            minor: cur.minor,
            majors_run: self.majors_run,
            stopped: self.stopped,
            alive: self.alive.clone(),
            p_sum: self.p_sum.clone(),
            prev_top: self.prev_top.clone(),
            counts_v: cur.counts.counts().to_vec(),
            counts_picks: cur.counts.views().to_vec(),
            ec: cur.ec.clone(),
            major_n_before: cur.major_rec.n_points_before,
            major_minors: cur.major_rec.minors.clone(),
            transcript_majors: self.transcript.majors.clone(),
            // Only events from *before* the pending view: resume recomputes
            // that view bit-identically, re-emitting its events, so carrying
            // them in the snapshot would duplicate them on every restore.
            degradations: self.transcript.degradations.events[..pending.degr_mark].to_vec(),
        };
        Ok(snapshot::render(&state))
    }

    /// Resume a snapshotted session against `data`'s *current* epoch.
    /// Returns the engine re-suspended at the same view it was snapshotted
    /// at (recomputed, bit-identically).
    ///
    /// The typed consistency rule: if the handle has moved past the epoch
    /// the session pinned at open — any `append` or `delete` since — this
    /// is [`HinnError::EpochMismatch`], never a silent resume against
    /// moved data. Callers either resume onto the pinned snapshot they
    /// retained ([`SessionEngine::resume_at`]) or opt into an explicit
    /// remap with [`SessionEngine::resume_rebased`].
    ///
    /// `config` must match the loop-relevant knobs of the session that was
    /// snapshotted (guarded by a fingerprint); thread budget and deadline
    /// may differ — neither changes results.
    pub fn resume(
        config: SearchConfig,
        data: &DatasetHandle,
        snapshot: &SessionSnapshot,
    ) -> Result<(Self, Step), HinnError> {
        Self::resume_at(config, data.snapshot(), snapshot)
    }

    /// [`SessionEngine::resume`] against an explicit epoch snapshot —
    /// normally the one the session pinned at open.
    pub fn resume_at(
        config: SearchConfig,
        snap: Arc<EpochSnapshot>,
        snapshot: &SessionSnapshot,
    ) -> Result<(Self, Step), HinnError> {
        config.try_validate()?;
        let state = snapshot::parse(snapshot).map_err(resume_err)?;
        SessionEngine::from_state(config, snap, state)
    }

    /// Explicitly rebase a snapshotted epoch session onto a *newer* epoch
    /// of the same handle — the opt-in escape hatch from
    /// [`HinnError::EpochMismatch`].
    ///
    /// `from` must be the epoch the session pinned at open (fingerprint
    /// checked); `onto` must be a later snapshot of the same handle's
    /// lineage. The session's per-point state is remapped by *global* row
    /// id: rows deleted since the pin drop out of the alive set,
    /// probability mass, and preference counts; rows appended since join
    /// with zero mass (they compete from the next major iteration on).
    /// The rebase is therefore *not* bit-identical to having run on
    /// `onto` from the start — it is an explicit, documented
    /// approximation, which is why it never happens implicitly.
    ///
    /// # Errors
    /// [`HinnError::EpochMismatch`] when `from` is not the pinned epoch;
    /// [`HinnError::InvalidInput`] when the snapshot carries no epoch pin,
    /// the shapes are incompatible, or fewer than two of the session's
    /// alive points survive on `onto`.
    pub fn resume_rebased(
        config: SearchConfig,
        from: Arc<EpochSnapshot>,
        onto: Arc<EpochSnapshot>,
        snapshot: &SessionSnapshot,
    ) -> Result<(Self, Step), HinnError> {
        let rebase_err = |message: String| HinnError::InvalidInput {
            phase: "session.rebase",
            message: format!("SessionEngine::resume_rebased: {message}"),
        };
        config.try_validate()?;
        let state = snapshot::parse(snapshot).map_err(&rebase_err)?;
        let Some((pinned_num, pinned_fp)) = state.epoch else {
            return Err(rebase_err(
                "snapshot carries no epoch pin; only epoch sessions can be rebased".into(),
            ));
        };
        if pinned_fp != from.fingerprint() {
            return Err(HinnError::EpochMismatch {
                pinned: pinned_num,
                offered: from.epoch(),
            });
        }
        if onto.dim() != from.dim() {
            return Err(rebase_err(format!(
                "target epoch dimensionality {} differs from the pinned epoch's {}",
                onto.dim(),
                from.dim()
            )));
        }
        if onto.appended_len() < from.appended_len() {
            return Err(rebase_err(
                "target epoch is not a descendant of the pinned epoch \
                 (fewer rows were ever appended)"
                    .into(),
            ));
        }
        // Remap dense indices through global row ids: pinned-dense →
        // global → target-dense. `dense_index_of` is `None` exactly for
        // rows deleted since the pin.
        let from_ids = from.alive_ids();
        let remap = |dense: usize| -> Option<usize> {
            from_ids
                .get(dense)
                .and_then(|&gid| onto.dense_index_of(gid))
        };
        let alive: Vec<usize> = state.alive.iter().filter_map(|&i| remap(i)).collect();
        if alive.len() < 2 {
            return Err(rebase_err(
                "fewer than two of the session's alive points survive on the target epoch".into(),
            ));
        }
        let n_new = onto.len();
        let mut p_sum = vec![0.0; n_new];
        let mut counts_v = vec![0.0; n_new];
        for (old_dense, (&p, &c)) in state.p_sum.iter().zip(&state.counts_v).enumerate() {
            if let Some(new_dense) = remap(old_dense) {
                p_sum[new_dense] = p;
                counts_v[new_dense] = c;
            }
        }
        // A previous top set whose every row was deleted leaves nothing to
        // judge stability against: it reads as no previous major, as the
        // snapshot text writes an empty list.
        let prev_top = state
            .prev_top
            .as_ref()
            .map(|top| top.iter().filter_map(|&i| remap(i)).collect::<Vec<_>>())
            .filter(|top| !top.is_empty());
        let rebased = EngineState {
            n: n_new,
            dataset_fp: Some(onto.fingerprint()),
            epoch: Some((onto.epoch(), onto.fingerprint())),
            alive,
            p_sum,
            prev_top,
            counts_v,
            ..state
        };
        SessionEngine::from_state(config, onto, rebased)
    }

    /// Rebuild a suspended engine from its parsed state, validated against
    /// `snap` and `config`, and recompute its pending view.
    fn from_state(
        config: SearchConfig,
        snap: Arc<EpochSnapshot>,
        state: EngineState,
    ) -> Result<(Self, Step), HinnError> {
        let (n, d) = (snap.len(), snap.dim());
        validate_inputs(n, d, &state.query)?;
        // Epoch consistency is checked before shape: a handle that moved
        // past the pinned epoch usually changes n as well, and the typed
        // refusal must win over a bare shape error. Legacy snapshots carry
        // no pin and fall through to the shape and content checks.
        if let Some((pinned, pinned_fp)) = state.epoch {
            if pinned_fp != snap.fingerprint() {
                return Err(HinnError::EpochMismatch {
                    pinned,
                    offered: snap.epoch(),
                });
            }
        }
        if n != state.n || d != state.d {
            return Err(resume_err(format!(
                "data set shape {n}x{d} does not match snapshot {}x{}",
                state.n, state.d
            )));
        }
        if config_fingerprint(&config) != state.config_fp {
            return Err(resume_err(
                "configuration differs from the snapshotted session's".to_string(),
            ));
        }
        // Old snapshots may carry `dataset-fp -`: nothing to check then.
        if let Some(then) = state.dataset_fp {
            if snap.fingerprint() != then {
                return Err(resume_err(
                    "data set content differs from the snapshotted session's".to_string(),
                ));
            }
        }
        let s_eff = config.effective_support(d).min(n);
        let n_minors = config.effective_minors(d);
        if state.alive.len() < 2 || state.alive.iter().any(|&i| i >= n) {
            return Err(resume_err("alive set is out of range".to_string()));
        }
        if state.p_sum.len() != n || state.counts_v.len() != n {
            return Err(resume_err(
                "per-point vectors have the wrong length".to_string(),
            ));
        }
        // A session has run at most as many majors as its cursor has
        // passed; a larger count would overflow at the next major.
        if state.minor >= n_minors
            || state.major >= config.max_major_iterations
            || state.majors_run > state.major
            || state.ec.ambient_dim() != d
        {
            return Err(resume_err(
                "cursor is outside the session's bounds".to_string(),
            ));
        }
        let alive_cols = gather_columns(d, state.alive.iter().map(|&i| snap.alive_row(i)));
        let touched = touched_ids(&state.alive, &state.p_sum);
        let spent_at_snapshot = Duration::from_nanos(state.spent_ns);
        let mut engine = SessionEngine {
            config,
            drop_config: DropConfig::default(),
            snap,
            query: state.query,
            n,
            d,
            s_eff,
            n_minors,
            spent: spent_at_snapshot,
            alive: state.alive,
            p_sum: state.p_sum,
            transcript: Transcript {
                majors: state.transcript_majors,
                degradations: DegradationLog {
                    events: state.degradations,
                },
            },
            majors_run: state.majors_run,
            prev_top: state.prev_top,
            major: state.major,
            stopped: state.stopped,
            touched: Some(touched),
            touched_dist_sq: None,
            nearest: None,
            replay: Vec::new(),
            replay_cols: None,
            cur: Some(MajorCtx {
                alive_cols,
                views: Vec::new(),
                counts: PreferenceCounts::from_parts(state.counts_v, state.counts_picks),
                ec: state.ec,
                major_rec: MajorRecord {
                    minors: state.major_minors,
                    n_points_before: state.major_n_before,
                    ..MajorRecord::default()
                },
                minor: state.minor,
            }),
            pending: None,
            status: EngineStatus::Active,
        };
        // Recompute the view that was pending at suspension time: a pure
        // function of the restored state, so it comes out bit-identical.
        let step = engine.drive(None)?;
        // The recomputation re-does work the original session already paid
        // for (the view's compute was metered before the snapshot), so it
        // must not be charged again: a session bounced between residency
        // tiers would otherwise burn its deadline budget on eviction
        // pressure alone, without any user-visible progress.
        engine.spent = spent_at_snapshot;
        Ok((engine, step))
    }

    /// One driver segment: apply a response if one was submitted, then run
    /// until the next suspension point, completion, or error. All compute
    /// of the session happens inside these segments.
    fn drive(&mut self, response: Option<UserResponse>) -> Result<Step, HinnError> {
        let _session_span = hinn_obs::span!("search.session");
        // The segment clock exists only when a deadline is configured: the
        // default path stays clock-free outside instrumentation, which the
        // obs-invariance suite relies on.
        let seg_start = self.config.deadline.map(|_| Instant::now());
        let out = self.drive_inner(response, seg_start);
        if let Some(t0) = seg_start {
            self.spent += t0.elapsed();
        }
        match &out {
            Ok(Step::Done(_)) => self.status = EngineStatus::Finished,
            Ok(Step::NeedResponse(_)) => {}
            Err(_) => self.status = EngineStatus::Failed,
        }
        out
    }

    fn drive_inner(
        &mut self,
        response: Option<UserResponse>,
        seg_start: Option<Instant>,
    ) -> Result<Step, HinnError> {
        if let Some(r) = response {
            // The apply half of the suspended minor iteration runs under
            // the same span path as its compute half, so density
            // connection (`kde.connect`) keeps its place in the span tree.
            let _major_span = hinn_obs::span!("search.major");
            let _minor_span = hinn_obs::span!("search.minor");
            self.apply_response(r);
        }
        loop {
            if self.cur.is_some() {
                let _major_span = hinn_obs::span!("search.major");
                if let Some(request) = self.compute_minors(seg_start)? {
                    return Ok(Step::NeedResponse(request));
                }
                // Minor loop exhausted: close out the major iteration
                // (still inside the major span — `meaning.update` nests
                // under it, as in the callback loop).
                self.finish_major();
            } else if self.stopped
                || self.major >= self.config.max_major_iterations
                || self.alive.len() < 2
            {
                // Final ranking and diagnosis get their own child span so
                // the session root stays fully accounted for in the
                // flight-recorder timeline.
                let _finish_span = hinn_obs::span!("search.finish");
                return Ok(Step::Done(Box::new(self.finish_session())));
            } else {
                self.begin_major();
            }
        }
    }

    /// Set up the next major iteration (Fig. 2's outer loop head).
    fn begin_major(&mut self) {
        let _major_span = hinn_obs::span!("search.major");
        // Candidate-set size entering this major iteration.
        hinn_obs::observe("search.candidates", self.alive.len() as f64);
        let alive_cols = match self.replay_cols.take() {
            Some(cols) => cols,
            None => {
                #[cfg(test)]
                tests::count_gather();
                gather_columns(self.d, self.alive.iter().map(|&i| self.snap.alive_row(i)))
            }
        };
        self.cur = Some(MajorCtx {
            alive_cols,
            views: Vec::new(),
            counts: PreferenceCounts::new(self.n),
            ec: Subspace::full(self.d),
            major_rec: MajorRecord {
                n_points_before: self.alive.len(),
                ..MajorRecord::default()
            },
            minor: 0,
        });
    }

    /// Run minor iterations of the current major until one suspends
    /// (`Some(view)`) or the minor loop is exhausted (`None`).
    fn compute_minors(
        &mut self,
        seg_start: Option<Instant>,
    ) -> Result<Option<ViewRequest>, HinnError> {
        loop {
            {
                let cur = match &self.cur {
                    Some(c) => c,
                    None => return Ok(None),
                };
                if cur.minor >= self.n_minors || cur.ec.dim() < 2 {
                    return Ok(None);
                }
            }
            // Deterministic fault point: a forced in-session panic, for
            // proving that the batch boundary contains it.
            if hinn_fault::point("search.panic") {
                panic!("forced in-session panic (fault point search.panic)");
            }
            // Cooperative deadline check at the view boundary — the
            // overshoot is at most one view's work. The fault point is
            // consulted first so forced expiry fires deterministically
            // regardless of machine speed.
            if let Some(budget) = self.config.deadline {
                let elapsed = self.spent + seg_start.map(|t| t.elapsed()).unwrap_or_default();
                if hinn_fault::point("search.deadline") || elapsed > budget {
                    return Err(HinnError::Deadline {
                        phase: "search.minor",
                        elapsed,
                        budget,
                    });
                }
            }
            let _minor_span = hinn_obs::span!("search.minor");
            if let Some(request) = self.compute_view()? {
                return Ok(Some(request));
            }
            // View skipped (SkippedMinorView rung): the minor index was
            // consumed; try the next one in the remaining subspace.
        }
    }

    /// Compute one view (Figs. 3–5). Returns the suspension request, or
    /// `None` when the view was skipped via the degradation ladder.
    fn compute_view(&mut self) -> Result<Option<ViewRequest>, HinnError> {
        let par = self.config.parallelism;
        let cur = match self.cur.as_mut() {
            Some(c) => c,
            None => return Ok(None),
        };
        let minor = cur.minor;
        let major = self.major;
        let n_alive = self.alive.len();
        let cols = column_views(&cur.alive_cols, n_alive, self.d);
        // Phase wall-clocks for the transcript; only read while a recorder
        // is installed so the disabled path stays free of clock calls (and
        // the invariance tests compare fields that exist on both paths).
        let timing = hinn_obs::enabled();
        let t_start = timing.then(Instant::now);
        // The whole Fig. 3 projection search with its degradation events,
        // replayed when the previous major ran on this candidate set (the
        // events are absorbed again, so the transcript is the recomputed
        // one). Errors end the session, so they are never replayed.
        let replayed = self.replay.get(minor).cloned();
        let proj_pair = match &replayed {
            Some(view) => view.proj.clone(),
            None => Arc::new(try_find_query_centered_projection_cols(
                par,
                &cols,
                &self.query,
                &cur.ec,
                self.s_eff,
                self.config.projection_mode,
            )?),
        };
        let proj = &proj_pair.0;
        let degr_mark = self.transcript.degradations.len();
        self.transcript
            .degradations
            .absorb(proj_pair.1.clone(), major, minor);
        let t_proj = timing.then(Instant::now);
        // Projected 2-D coordinates plus the grid KDE; a replayed view
        // skips both the O(n·d) projection and the O(n·p²) estimation.
        let build_profile = || {
            // The view's first two coordinates, `dot_cols` over each chunk
            // of the alive columns: bit-identical to `project(p)[0..2]`.
            let basis = proj.projection.basis();
            let mut pts2d: Vec<[f64; 2]> = vec![[0.0; 2]; n_alive];
            hinn_par::fill_chunks(par, &mut pts2d, |start, slice| {
                let len = slice.len();
                let chunk = chunk_of(&cols, start, len);
                let mut x = hinn_cache::PooledF64::take_zeroed(len);
                let mut y = hinn_cache::PooledF64::take_zeroed(len);
                hinn_linalg::simd::dot_cols(&chunk, &basis[0], &mut x);
                hinn_linalg::simd::dot_cols(&chunk, &basis[1], &mut y);
                for (off, slot) in slice.iter_mut().enumerate() {
                    *slot = [x[off], y[off]];
                }
            });
            let qc = proj.projection.project(&self.query);
            match self.config.bandwidth_mode {
                BandwidthMode::Fixed => VisualProfile::try_build_with(
                    par,
                    pts2d,
                    [qc[0], qc[1]],
                    self.config.grid_n,
                    self.config.bandwidth_scale,
                ),
                BandwidthMode::Adaptive { alpha } => VisualProfile::try_build_adaptive_with(
                    par,
                    pts2d,
                    [qc[0], qc[1]],
                    self.config.grid_n,
                    self.config.bandwidth_scale,
                    alpha,
                ),
            }
        };
        let built = match replayed.and_then(|view| view.profile) {
            Some(profile) => Ok(profile),
            None => build_profile().map(Arc::new),
        };
        // A resumed engine starts mid-major with no record of the views
        // before its snapshot: it records nothing until the next major.
        if cur.views.len() == minor {
            cur.views.push(MajorView {
                proj: proj_pair.clone(),
                profile: built.as_ref().ok().cloned(),
            });
        }
        let profile_pair = match built {
            Ok(p) => p,
            Err(e) => {
                // An unusable view is skipped, not fatal: record the skip
                // and continue the session in the remaining subspace
                // (ladder rung: SkippedMinorView).
                self.transcript.degradations.push(DegradationEvent {
                    major: Some(major),
                    minor: Some(minor),
                    kind: DegradationKind::SkippedMinorView,
                    detail: format!("visual profile unavailable ({e}); view skipped"),
                });
                cur.ec = proj.remainder.clone();
                cur.minor += 1;
                return Ok(None);
            }
        };
        if profile_pair.1.bandwidth_floored {
            self.transcript.degradations.push(DegradationEvent {
                major: Some(major),
                minor: Some(minor),
                kind: DegradationKind::BandwidthFloored,
                detail: "zero-spread projection; KDE bandwidth floored".into(),
            });
        }
        let t_profile = timing.then(Instant::now);
        let context = ViewContext {
            major,
            minor,
            original_ids: self.alive.clone(),
            total_n: self.n,
        };
        let (projection_ns, profile_ns) = match (t_start, t_proj, t_profile) {
            (Some(a), Some(b), Some(c)) => ((b - a).as_nanos() as u64, (c - b).as_nanos() as u64),
            _ => (0, 0),
        };
        let request = ViewRequest {
            profile: profile_pair.clone(),
            context,
        };
        self.pending = Some(PendingView {
            request: request.clone(),
            proj: proj_pair,
            projection_ns,
            profile_ns,
            t_profile,
            degr_mark,
        });
        Ok(Some(request))
    }

    /// Fold the user's response into the session (Figs. 6–7): selection,
    /// preference counts, transcript record, subspace advance.
    fn apply_response(&mut self, response: UserResponse) {
        let pending = match self.pending.take() {
            Some(p) => p,
            None => return,
        };
        let cur = match self.cur.as_mut() {
            Some(c) => c,
            None => return,
        };
        let profile = &pending.request.profile.0;
        let minor = pending.request.context.minor;
        let major = pending.request.context.major;
        let picked_rows: Vec<usize> = match &response {
            UserResponse::Threshold(tau) => profile.select(*tau, self.config.corner_rule),
            UserResponse::Polygon(lines) => profile.select_polygon(lines),
            UserResponse::Discard => Vec::new(),
        };
        let w = self.config.weight(minor);
        if picked_rows.is_empty() {
            cur.counts.record_discard(w);
        } else {
            let picked_ids: Vec<usize> = picked_rows.iter().map(|&r| self.alive[r]).collect();
            cur.counts.record_view(&picked_ids, w);
        }
        let query_peak_ratio = if profile.max_density() > 0.0 {
            profile.query_density() / profile.max_density()
        } else {
            0.0
        };
        let phases = pending.t_profile.map(|c| MinorPhases {
            projection_ns: pending.projection_ns,
            profile_ns: pending.profile_ns,
            select_ns: c.elapsed().as_nanos() as u64,
        });
        if let Some(p) = &phases {
            hinn_obs::observe("search.picked", picked_rows.len() as f64);
            hinn_obs::observe("search.minor_ms", p.total_ns() as f64 / 1e6);
        }
        cur.major_rec.minors.push(MinorRecord {
            major,
            minor,
            projection: pending.proj.0.projection.clone(),
            variance_ratios: pending.proj.0.variance_ratios.clone(),
            response,
            n_picked: picked_rows.len(),
            query_peak_ratio,
            profile: if self.config.record_profiles {
                Some(profile.clone())
            } else {
                None
            },
            phases,
        });
        cur.ec = pending.proj.0.remainder.clone();
        cur.minor += 1;
    }

    /// Close out the current major iteration (Figs. 2 & 8): probabilities,
    /// stability check, survivor filter.
    fn finish_major(&mut self) {
        let mut cur = match self.cur.take() {
            Some(c) => c,
            None => return,
        };
        // Fig. 8: convert counts to per-iteration probabilities.
        let probs = iteration_probabilities(&cur.counts, &self.alive);
        for (k, &id) in self.alive.iter().enumerate() {
            self.p_sum[id] += probs[k];
        }
        self.majors_run += 1;

        // Termination check on the stability of the top-s set, ranked
        // from the touched ids' probabilities alone.
        let m = self.majors_run as f64;
        let p: Vec<f64> = self.touched().iter().map(|&i| self.p_sum[i] / m).collect();
        let top = self.rank(&p);
        let overlap = self.prev_top.as_ref().map(|prev| {
            let prev_set: std::collections::HashSet<usize> = prev.iter().copied().collect();
            top.iter().filter(|i| prev_set.contains(i)).count() as f64 / self.s_eff.max(1) as f64
        });
        cur.major_rec.overlap_with_previous = overlap;

        // Fig. 2: drop points never picked this iteration. A major that
        // drops none hands its views to the next one to replay.
        let survivors = cur.counts.survivors(&self.alive);
        if survivors.len() >= 2 && survivors != self.alive {
            let seed = std::mem::replace(&mut self.alive, survivors);
            self.touched.get_or_insert(seed);
            self.replay = Vec::new();
            self.replay_cols = None;
        } else {
            self.replay = cur.views;
            self.replay_cols = Some(cur.alive_cols);
        }
        cur.major_rec.n_points_after = self.alive.len();
        self.transcript.majors.push(cur.major_rec);
        self.prev_top = Some(top);

        let stable = overlap
            .map(|o| o >= self.config.overlap_threshold)
            .unwrap_or(false);
        if self.majors_run >= self.config.min_major_iterations && stable {
            self.stopped = true;
        }
        self.major += 1;
    }

    /// The ids whose `p_sum` can be nonzero: the `touched` field, or the
    /// alive set while that is `None`.
    fn touched(&self) -> &[usize] {
        self.touched.as_deref().unwrap_or(&self.alive)
    }

    /// The top-`s` ids of the whole epoch, given `p[k]`, the probability
    /// of touched id `k` ([`rank_touched`]). Computes the touched ids'
    /// tie-break distances on first use.
    fn rank(&mut self, p: &[f64]) -> Vec<usize> {
        let (snap, query) = (&self.snap, &self.query);
        let touched = self.touched.as_deref().unwrap_or(&self.alive);
        let dist_sq: &[f64] = self.touched_dist_sq.get_or_insert_with(|| {
            touched
                .iter()
                .map(|&i| query_dist_sq(snap, i, query))
                .collect()
        });
        // The one whole-epoch scan, run only when the +0.0 block is read.
        // A touched id's distance is already known; `touched` is
        // ascending, so it is walked in step with the ids.
        let scan = |len| {
            let mut known = touched.iter().zip(dist_sq).peekable();
            let all = (0..snap.len())
                .map(|i| match known.next_if(|&(&id, _)| id == i) {
                    Some((_, &d)) => (d, i),
                    None => (query_dist_sq(snap, i, query), i),
                })
                .collect();
            nearest_first(all, len)
        };
        rank_touched(touched, p, dist_sq, self.s_eff, &mut self.nearest, scan)
    }

    /// Final probabilities, ranking and diagnosis (§4.1–4.2).
    fn finish_session(&mut self) -> SearchOutcome {
        // No major follows: drop the columns a last keep-all major handed on.
        self.replay_cols = None;
        let probabilities: Vec<f64> = if self.majors_run > 0 {
            self.p_sum
                .iter()
                .map(|p| p / self.majors_run as f64)
                .collect()
        } else {
            std::mem::take(&mut self.p_sum)
        };
        let p: Vec<f64> = self.touched().iter().map(|&i| probabilities[i]).collect();
        let neighbors = self.rank(&p);
        let transcript = std::mem::take(&mut self.transcript);
        let diagnosis = SearchDiagnosis::derive_sorted(
            &sorted_probabilities(self.n, &p),
            &transcript,
            &self.drop_config,
        );
        SearchOutcome {
            neighbors,
            probabilities,
            transcript,
            diagnosis,
            majors_run: self.majors_run,
            effective_support: self.s_eff,
        }
    }
}

fn resume_err(message: String) -> HinnError {
    HinnError::InvalidInput {
        phase: "session.resume",
        message: format!("SessionEngine::resume: {message}"),
    }
}

/// Input validation shared by every entry point. The rows themselves were checked when they entered the handle
/// ([`DatasetHandle::append`]), so only the shape and the query are left.
fn validate_inputs(n: usize, d: usize, query: &[f64]) -> Result<(), HinnError> {
    let invalid = |message: String| {
        Err(HinnError::InvalidInput {
            phase: "search.validate",
            message,
        })
    };
    if n == 0 {
        return invalid("InteractiveSearch: empty data set".into());
    }
    if d < 2 {
        return invalid("InteractiveSearch: need at least 2 dimensions".into());
    }
    if query.len() != d {
        return invalid(format!(
            "InteractiveSearch: query dimensionality {} does not match data dimensionality {d}",
            query.len()
        ));
    }
    if !query.iter().all(|v| v.is_finite()) {
        return invalid("InteractiveSearch: query contains non-finite coordinates".into());
    }
    Ok(())
}

/// Fingerprint of the loop-relevant configuration knobs — the ones that
/// change what a session computes, used to guard snapshot resume. Thread
/// budget and deadline are deliberately excluded: results are invariant to
/// both, so a session may be resumed under a different budget or remaining
/// time allowance.
fn config_fingerprint(config: &SearchConfig) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write_usize(config.support);
    h.write_usize(config.grid_n);
    h.write_f64(config.bandwidth_scale);
    h.write_str(&format!("{:?}", config.bandwidth_mode));
    h.write_str(&format!("{:?}", config.projection_mode));
    h.write_str(&format!("{:?}", config.corner_rule));
    h.write_f64(config.overlap_threshold);
    h.write_usize(config.min_major_iterations);
    h.write_usize(config.max_major_iterations);
    h.write_f64s(&config.projection_weights);
    h.write_u8(u8::from(config.record_profiles));
    // The minors cap changes how many views each major runs, so capped
    // (load-shed) sessions resume only under the same cap.
    h.write_str(&format!("{:?}", config.max_minors));
    // The candidate source changes which points a session ever considers;
    // its `Debug` form is exact (integer fields only).
    h.write_str(&format!("{:?}", config.candidates));
    h.finish()
}

/// Squared full-space distance from row `id` to the query: the
/// ranking's tie-break.
fn query_dist_sq(snap: &EpochSnapshot, id: usize, query: &[f64]) -> f64 {
    #[cfg(test)]
    tests::tally(tests::Work::QueryDist { id });
    hinn_linalg::vector::dist_sq(snap.alive_row(id), query)
}

/// The ids a resumed session may give a probability other than +0.0,
/// ascending: its alive ids and every id whose `p_sum` is not +0.0.
fn touched_ids(alive: &[usize], p_sum: &[f64]) -> Vec<usize> {
    let mut touched = alive.to_vec();
    touched.extend((0..p_sum.len()).filter(|&i| p_sum[i].to_bits() != 0));
    touched.sort_unstable();
    touched.dedup();
    touched
}

/// The first `k` of `items` under the total order `cmp`, in order:
/// selects them, then sorts only those.
pub(crate) fn first_k_sorted<T>(
    mut items: Vec<T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
    items
}

/// The top `k` of `candidates` (indices into `probabilities` and
/// `dist_sq`) by probability descending, breaking ties by squared
/// full-space distance to the query ascending, then index. The comparator
/// is a total order (`total_cmp`, and no two indices tie), so selecting
/// the top `k` and sorting only those returns exactly the first `k` of
/// the full sort. Probabilities and squared distances are non-negative,
/// so `total_cmp` coincides with the partial order while staying total on
/// poisoned (NaN) values.
pub(crate) fn rank_neighbors(
    candidates: Vec<usize>,
    probabilities: &[f64],
    dist_sq: &[f64],
    k: usize,
) -> Vec<usize> {
    #[cfg(test)]
    tests::tally(tests::Work::Select {
        candidates: candidates.len(),
    });
    first_k_sorted(candidates, k, |&a, &b| {
        probabilities[b]
            .total_cmp(&probabilities[a])
            .then(dist_sq[a].total_cmp(&dist_sq[b]))
            .then(a.cmp(&b))
    })
}

/// The indices `k` of `p` with `p[k]` on `side` of +0.0 under `total_cmp`.
fn block(p: &[f64], side: std::cmp::Ordering) -> Vec<usize> {
    (0..p.len())
        .filter(|&k| p[k].total_cmp(&0.0) == side)
        .collect()
}

/// The top `k` ids of an epoch ranked as [`rank_neighbors`] ranks all of
/// them, from the ids that can carry a probability other than +0.0.
/// `touched` is ascending, and `p[j]` and `dist_sq[j]` are the probability
/// and squared query distance of `touched[j]`; every other id has
/// probability +0.0. The order falls into three blocks:
///
/// 1. touched ids above +0.0, ranked by [`rank_neighbors`];
/// 2. the ids at +0.0 — touched or not — by `(dist_sq, id)`, selected
///    from the `k + |touched|` ids nearest the query over the whole
///    epoch, which `scan(len)` lists with their distances, in any order.
///    The list is built into `nearest` only when block 1 holds fewer
///    than `k` ids, and kept: at most `|touched|` of its ids fall in the
///    other blocks, so it always holds enough of block 2;
/// 3. touched ids below +0.0 (−0.0, negative values, negative NaN), ranked
///    by [`rank_neighbors`]. Real probabilities never land here; the block
///    keeps the ranking exact for every input.
///
/// An ascending `touched` maps index order onto id order, so the blocks'
/// last tie-break is the dense ranking's.
pub(crate) fn rank_touched(
    touched: &[usize],
    p: &[f64],
    dist_sq: &[f64],
    k: usize,
    nearest: &mut Option<Vec<(f64, usize)>>,
    scan: impl FnOnce(usize) -> Vec<(f64, usize)>,
) -> Vec<usize> {
    use std::cmp::Ordering;
    let above = block(p, Ordering::Greater);
    #[cfg(test)]
    tests::tally(tests::Work::Ranking {
        touched: touched.len(),
        above: above.len(),
        support: k,
    });
    let mut top: Vec<usize> = rank_neighbors(above, p, dist_sq, k)
        .into_iter()
        .map(|j| touched[j])
        .collect();
    if top.len() < k {
        let list = nearest.get_or_insert_with(|| scan(k + touched.len()));
        // Ascending, because `touched` is.
        let elsewhere: Vec<usize> = (0..p.len())
            .filter(|&j| p[j].to_bits() != 0)
            .map(|j| touched[j])
            .collect();
        let zero: Vec<(f64, usize)> = list
            .iter()
            .copied()
            .filter(|(_, id)| elsewhere.binary_search(id).is_err())
            .collect();
        let need = k - top.len();
        top.extend(
            first_k_sorted(zero, need, by_dist)
                .into_iter()
                .map(|(_, id)| id),
        );
    }
    if top.len() < k {
        let need = k - top.len();
        let below = rank_neighbors(block(p, Ordering::Less), p, dist_sq, need);
        top.extend(below.into_iter().map(|j| touched[j]));
    }
    top
}

/// The order of `(dist_sq, id)` pairs: nearest first, then lower id.
fn by_dist(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The first `len` of every id's `(dist_sq, id)` pair under [`by_dist`],
/// in no particular order: the nearest list of [`rank_touched`].
fn nearest_first(mut all: Vec<(f64, usize)>, len: usize) -> Vec<(f64, usize)> {
    #[cfg(test)]
    tests::tally(tests::Work::NearestScan { len });
    if len < all.len() {
        all.select_nth_unstable_by(len - 1, by_dist);
        all.truncate(len);
    }
    all
}

/// Every id's probability, sorted descending by `total_cmp`, from the
/// touched ids' probabilities `p` and `n`, the epoch's id count: the
/// three blocks of [`rank_touched`] concatenated. Only the touched values
/// off +0.0 are sorted; the rest are +0.0.
pub(crate) fn sorted_probabilities(n: usize, p: &[f64]) -> Vec<f64> {
    use std::cmp::Ordering;
    let sorted_block = |side: Ordering| {
        let mut values: Vec<f64> = block(p, side).into_iter().map(|j| p[j]).collect();
        #[cfg(test)]
        tests::tally(tests::Work::DiagnosisSort {
            values: values.len(),
        });
        values.sort_unstable_by(|a, b| b.total_cmp(a));
        values
    };
    let (above, below) = (
        sorted_block(Ordering::Greater),
        sorted_block(Ordering::Less),
    );
    let mut sorted = above;
    sorted.resize(n - below.len(), 0.0);
    sorted.extend(below);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProjectionMode;
    use hinn_data::EpochError;
    use hinn_user::{HeuristicUser, UserModel};
    use proptest::prelude::*;

    /// The sort-based ranking [`rank_neighbors`] replaced, kept as its
    /// spec: sort every id, recomputing both query distances inside the
    /// comparator on each probability tie, and keep the first `k`.
    fn rank_neighbors_reference(
        probabilities: &[f64],
        points: &[Vec<f64>],
        query: &[f64],
        k: usize,
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..probabilities.len()).collect();
        order.sort_by(|&a, &b| {
            probabilities[b]
                .total_cmp(&probabilities[a])
                .then_with(|| {
                    let da = hinn_linalg::vector::dist_sq(&points[a], query);
                    let db = hinn_linalg::vector::dist_sq(&points[b], query);
                    da.total_cmp(&db)
                })
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order
    }

    /// The probabilities a case draws from: zeros of both signs, ties,
    /// NaN of both signs and a negative value.
    const MASSES: [f64; 10] = [
        0.0,
        -0.0,
        0.25,
        0.5,
        0.75,
        1.0,
        f64::NAN,
        -f64::NAN,
        -0.25,
        0.0,
    ];

    /// Points on a coarse integer lattice (so duplicates are common),
    /// probabilities from a handful of masses (so ties are common), the
    /// touched ids (every id, or a random subset; the others get +0.0), a
    /// query, and a `k` that straddles 0 and `n`.
    #[allow(clippy::type_complexity)]
    fn ranking_case(
    ) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<usize>, Vec<f64>, usize)> {
        (1..400usize).prop_flat_map(|n| {
            (
                proptest::collection::vec(proptest::collection::vec(0..3u32, 3..=3), n..=n),
                proptest::collection::vec(0..MASSES.len(), n..=n),
                proptest::collection::vec(0..4u32, n..=n),
                0..4u32,
                proptest::collection::vec(0..3u32, 3..=3),
                0..n + 3,
            )
                .prop_map(|(pts, mass, touch, all, q, k)| {
                    let lattice = |v: Vec<u32>| v.into_iter().map(f64::from).collect::<Vec<f64>>();
                    let touched: Vec<usize> = (0..pts.len())
                        .filter(|&i| all == 0 || touch[i] != 0)
                        .collect();
                    let mut probs = vec![0.0; pts.len()];
                    for &i in &touched {
                        probs[i] = MASSES[mass[i]];
                    }
                    let points = pts.into_iter().map(lattice).collect();
                    (points, probs, touched, lattice(q), k)
                })
        })
    }

    /// Every id's `(dist_sq, id)` pair, the nearest list's input.
    fn pairs(dist_sq: &[f64]) -> Vec<(f64, usize)> {
        dist_sq.iter().copied().zip(0..).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn selection_ranking_equals_the_full_sort(
            (points, probs, touched, query, k) in ranking_case()
        ) {
            let dist_sq: Vec<f64> = points
                .iter()
                .map(|p| hinn_linalg::vector::dist_sq(p, &query))
                .collect();
            let dense = rank_neighbors((0..probs.len()).collect(), &probs, &dist_sq, k);
            prop_assert_eq!(&dense, &rank_neighbors_reference(&probs, &points, &query, k));
            // The block ranking reads the touched ids and the nearest list.
            let p: Vec<f64> = touched.iter().map(|&i| probs[i]).collect();
            let d: Vec<f64> = touched.iter().map(|&i| dist_sq[i]).collect();
            let scan = |len| nearest_first(pairs(&dist_sq), len);
            prop_assert_eq!(rank_touched(&touched, &p, &d, k, &mut None, scan), dense);
        }

        #[test]
        fn block_diagnosis_equals_the_dense_sort(
            (_points, probs, touched, _query, _k) in ranking_case()
        ) {
            let mut dense = probs.clone();
            dense.sort_by(|a, b| b.total_cmp(a));
            let p: Vec<f64> = touched.iter().map(|&i| probs[i]).collect();
            let blocks = sorted_probabilities(probs.len(), &p);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&blocks), bits(&dense));
            let cfg = DropConfig::default();
            prop_assert_eq!(
                hinn_metrics::drop::detect_steep_drop_sorted(&blocks, &cfg),
                hinn_metrics::drop::detect_steep_drop(&probs, &cfg)
            );
        }
    }

    /// A unit of ranking or diagnosis work.
    #[derive(Clone, Debug, PartialEq)]
    pub(super) enum Work {
        /// One [`rank_touched`] call: the touched ids, how many rank above
        /// +0.0, and the support asked for.
        Ranking {
            touched: usize,
            above: usize,
            support: usize,
        },
        /// One [`rank_neighbors`] selection over `candidates` ids.
        Select { candidates: usize },
        /// One whole-epoch nearest scan, keeping `len` ids.
        NearestScan { len: usize },
        /// One sort of `values` probabilities for the diagnosis.
        DiagnosisSort { values: usize },
        /// One query distance computed for the ranking, of row `id`.
        QueryDist { id: usize },
    }

    thread_local! {
        static TALLY: std::cell::RefCell<Vec<Work>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Record one unit of ranking or diagnosis work on this thread.
    pub(super) fn tally(work: Work) {
        TALLY.with(|t| t.borrow_mut().push(work));
    }

    /// The ranking and diagnosis work `run` did on this thread, in order.
    fn counted<T>(run: impl FnOnce() -> T) -> (T, Vec<Work>) {
        TALLY.with(|t| t.borrow_mut().clear());
        let out = run();
        (out, TALLY.with(|t| t.take()))
    }

    thread_local! {
        static GATHERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Record one gather of the alive columns on this thread.
    pub(super) fn count_gather() {
        GATHERS.with(|g| g.set(g.get() + 1));
    }

    /// The alive-column gathers `run` made on this thread.
    fn gathers<T>(run: impl FnOnce() -> T) -> (T, usize) {
        GATHERS.with(|g| g.set(0));
        let out = run();
        (out, GATHERS.with(std::cell::Cell::get))
    }

    /// Keeps every point: the separator at zero density.
    struct KeepAll;

    impl UserModel for KeepAll {
        fn respond(&mut self, _: &VisualProfile, _: &ViewContext) -> UserResponse {
            UserResponse::Threshold(0.0)
        }

        fn name(&self) -> &str {
            "keep-all"
        }
    }

    #[test]
    fn replayed_majors_reuse_the_alive_columns() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let cfg = SearchConfig {
            min_major_iterations: 4,
            max_major_iterations: 4,
            ..config()
        };
        let (outcome, n) = gathers(|| {
            let (engine, step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
            drive_to_done(engine, step, &mut KeepAll)
        });
        let majors = &outcome.transcript.majors;
        assert_eq!(majors.len(), 4);
        assert!(majors.iter().all(|m| m.n_points_after == m.n_points_before));
        assert_eq!(n, 1, "a keep-all session gathers once");
        // In general: once per major whose predecessor dropped a point.
        let (outcome, n) = gathers(|| {
            let (engine, step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
            drive_to_done(engine, step, &mut HeuristicUser::default())
        });
        let majors = &outcome.transcript.majors;
        let replayed = majors
            .windows(2)
            .filter(|w| w[0].n_points_after == w[0].n_points_before)
            .count();
        assert_eq!(n, majors.len() - replayed);
    }

    fn planted() -> (Vec<Vec<f64>>, Vec<f64>) {
        planted_sized(30, 170)
    }

    /// `cluster` points tight in dims (0, 1, 2) around the query, then
    /// `background` uniform ones, in 8-D.
    fn planted_sized(cluster: usize, background: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = 0xDA3E39CB94B95BDBu64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for _ in 0..cluster {
            let mut p: Vec<f64> = (0..8).map(|_| unif() * 100.0).collect();
            for coord in p.iter_mut().take(3) {
                *coord = 50.0 + (unif() - 0.5) * 3.0;
            }
            pts.push(p);
        }
        for _ in 0..background {
            pts.push((0..8).map(|_| unif() * 100.0).collect());
        }
        (pts, vec![50.0; 8])
    }

    /// A `Linear { budget: 400 }` session over N rows and over the same
    /// rows followed by N far-away ones ranks the same ids with the same
    /// probabilities and the same work: ranking and diagnosis read the
    /// 400 candidates, and the one whole-epoch scan runs at most once,
    /// only when fewer than `s` candidates rank above +0.0.
    #[test]
    fn ranking_a_seeded_session_costs_its_budget_not_the_epoch() {
        let (pts, q) = planted_sized(60, 940);
        let n = pts.len();
        let mut doubled = pts.clone();
        doubled.extend(
            pts.iter()
                .map(|p| p.iter().map(|v| v + 1e4).collect::<Vec<f64>>()),
        );
        let cfg = config().with_candidate_source(crate::CandidateSource::Linear { budget: 400 });
        for label in ["heuristic", "discard-all"] {
            let user = || -> Box<dyn UserModel> {
                match label {
                    "heuristic" => Box::new(HeuristicUser::default()),
                    _ => Box::new(
                        hinn_user::ScriptedUser::new([]).with_fallback(UserResponse::Discard),
                    ),
                }
            };
            let run = |rows: &[Vec<f64>]| {
                let dh = handle(rows);
                counted(|| {
                    let (engine, step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
                    drive_to_done(engine, step, user().as_mut())
                })
            };
            let ((small, work), (big, big_work)) = (run(&pts), run(&doubled));
            let ((work, dists), (big_work, big_dists)) = (split_dists(work), split_dists(big_work));
            assert_dense_exact(&small, &pts, &q);
            assert_dense_exact(&big, &doubled, &q);
            assert_eq!(small.neighbors, big.neighbors, "{label}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&small.probabilities), bits(&big.probabilities[..n]));
            assert!(big.probabilities[n..].iter().all(|p| p.to_bits() == 0));
            assert_eq!(
                work, big_work,
                "{label}: the work depends on the epoch's size"
            );

            let rankings: Vec<(usize, usize, usize)> = work
                .iter()
                .filter_map(|w| match *w {
                    Work::Ranking {
                        touched,
                        above,
                        support,
                    } => Some((touched, above, support)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                rankings.len(),
                small.majors_run + 1,
                "{label}: a ranking per major and the finish"
            );
            assert!(
                rankings.iter().all(|&(touched, ..)| touched == 400),
                "{label}"
            );
            for w in &work {
                if let Work::Select { candidates } | Work::DiagnosisSort { values: candidates } = *w
                {
                    assert!(candidates <= 400, "{label}: {w:?}");
                }
            }
            // The scan follows the first ranking short of `s` positives,
            // and no other.
            let scans: Vec<usize> = (0..work.len())
                .filter(|&i| matches!(work[i], Work::NearestScan { .. }))
                .collect();
            let short = work.iter().position(
                |w| matches!(*w, Work::Ranking { above, support, .. } if above < support),
            );
            match short {
                None => assert!(scans.is_empty(), "{label}: {work:?}"),
                Some(at) => {
                    assert_eq!(scans.len(), 1, "{label}: {work:?}");
                    // Only block 1's selection runs in between.
                    assert_eq!(scans[0], at + 2, "{label}: {work:?}");
                    assert_eq!(work[scans[0]], Work::NearestScan { len: 30 + 400 });
                }
            }
            // The candidates' distances are computed once, for the first
            // ranking, and the scan computes only the other rows'.
            for (ids, rows) in [(&dists, n), (&big_dists, 2 * n)] {
                let scanned = if scans.is_empty() { 0 } else { rows - 400 };
                assert_eq!(ids.len(), 400 + scanned, "{label}");
                let mut distinct = ids.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(
                    distinct.len(),
                    ids.len(),
                    "{label}: a distance computed twice"
                );
            }
            if label == "discard-all" {
                assert!(rankings.len() >= 3 && rankings.iter().all(|&(_, above, _)| above == 0));
            }
        }
    }

    /// A `Full` session touches every id, so its one scan takes every
    /// distance from the ranking's: each row's query distance is computed
    /// once.
    #[test]
    fn a_full_session_computes_each_query_distance_once() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let mut user = hinn_user::ScriptedUser::new([]).with_fallback(UserResponse::Discard);
        let (outcome, work) = counted(|| {
            let (engine, step) = SessionEngine::start(config(), &dh, &q).expect("start");
            drive_to_done(engine, step, &mut user)
        });
        assert_dense_exact(&outcome, &pts, &q);
        let (work, mut ids) = split_dists(work);
        assert!(
            work.iter().any(|w| matches!(w, Work::NearestScan { .. })),
            "{work:?}"
        );
        ids.sort_unstable();
        assert_eq!(ids, (0..pts.len()).collect::<Vec<_>>());
    }

    /// `work` without its query distances, and the rows those were
    /// computed for, in order.
    fn split_dists(work: Vec<Work>) -> (Vec<Work>, Vec<usize>) {
        let mut ids = Vec::new();
        let rest = work
            .into_iter()
            .filter(|w| match *w {
                Work::QueryDist { id } => {
                    ids.push(id);
                    false
                }
                _ => true,
            })
            .collect();
        (rest, ids)
    }

    fn config() -> SearchConfig {
        SearchConfig::default()
            .with_support(30)
            .with_mode(ProjectionMode::AxisParallel)
    }

    fn handle(pts: &[Vec<f64>]) -> DatasetHandle {
        DatasetHandle::new(pts).expect("epoch handle")
    }

    /// Drive an engine to completion with a user model (the inverted
    /// control flow done by hand).
    fn drive_to_done(
        mut engine: SessionEngine,
        mut step: Step,
        user: &mut dyn UserModel,
    ) -> SearchOutcome {
        loop {
            match step {
                Step::Done(outcome) => return *outcome,
                Step::NeedResponse(req) => {
                    let r = user.respond(req.profile(), req.context());
                    step = engine.submit(r).expect("engine.submit");
                }
            }
        }
    }

    /// Require `outcome`'s ranking and diagnosis to be the dense ones over
    /// every id of `pts`.
    fn assert_dense_exact(outcome: &SearchOutcome, pts: &[Vec<f64>], q: &[f64]) {
        let p = &outcome.probabilities;
        let dist_sq: Vec<f64> = pts
            .iter()
            .map(|x| hinn_linalg::vector::dist_sq(x, q))
            .collect();
        let dense = rank_neighbors(
            (0..p.len()).collect(),
            p,
            &dist_sq,
            outcome.effective_support,
        );
        assert_eq!(outcome.neighbors, dense);
        let mut sorted = p.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let diagnosis =
            SearchDiagnosis::derive_sorted(&sorted, &outcome.transcript, &DropConfig::default());
        assert_eq!(outcome.diagnosis, diagnosis);
    }

    /// A resumed engine ranks every id with mass, also one outside its
    /// alive set and its seed: it rebuilds its touched ids from the
    /// snapshot.
    #[test]
    fn a_resumed_engine_ranks_mass_outside_its_alive_set() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let cfg = config().with_candidate_source(crate::CandidateSource::Linear { budget: 100 });
        let mut user = HeuristicUser::default();
        let (mut engine, mut step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
        while engine.majors_run() == 0 {
            let req = step.view().expect("a second major").clone();
            step = engine
                .submit(user.respond(req.profile(), req.context()))
                .expect("submit");
        }
        let mut state = snapshot::parse(&engine.snapshot().expect("snapshot")).expect("parse");
        let far = (0..pts.len())
            .max_by(|&a, &b| {
                let d = |i: usize| hinn_linalg::vector::dist_sq(&pts[i], &q);
                d(a).total_cmp(&d(b))
            })
            .expect("points");
        assert!(!state.alive.contains(&far), "the farthest point was seeded");
        state.p_sum[far] = 5.0;
        let tampered = snapshot::render(&state);
        let (resumed, step) = SessionEngine::resume(cfg, &dh, &tampered).expect("resume");
        let outcome = drive_to_done(resumed, step, &mut user);
        assert_eq!(outcome.neighbors[0], far);
        assert_dense_exact(&outcome, &pts, &q);
    }

    #[test]
    fn engine_matches_callback_loop_bit_for_bit() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let mut user = HeuristicUser::default();
        let callback = crate::InteractiveSearch::new(config())
            .run_with(&dh, &q, &mut user, crate::search::RunOptions::default())
            .expect("callback loop")
            .outcome;
        let (engine, step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let outcome = drive_to_done(engine, step, &mut HeuristicUser::default());
        assert_eq!(outcome.neighbors, callback.neighbors);
        assert_eq!(outcome.majors_run, callback.majors_run);
        for (a, b) in outcome.probabilities.iter().zip(&callback.probabilities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn submit_after_done_is_a_typed_error() {
        let (pts, q) = planted();
        let (mut engine, step) = SessionEngine::start(config(), &handle(&pts), &q).expect("start");
        let mut step = step;
        loop {
            match step {
                Step::Done(_) => break,
                Step::NeedResponse(req) => {
                    let r = HeuristicUser::default().respond(req.profile(), req.context());
                    step = engine.submit(r).expect("submit");
                }
            }
        }
        assert!(!engine.is_suspended());
        let err = engine
            .submit(UserResponse::Discard)
            .expect_err("spent engine");
        assert!(err.is_invalid_input());
    }

    #[test]
    fn start_validates_inputs_like_the_legacy_loop() {
        let empty = DatasetHandle::empty(2).expect("empty handle");
        let err = SessionEngine::start(SearchConfig::default(), &empty, &[0.0, 0.0])
            .err()
            .expect("empty data");
        assert!(err.to_string().contains("empty data set"));
        // Ragged and non-finite rows never reach an engine: the handle
        // refuses them at append time.
        assert!(matches!(
            DatasetHandle::new(&[vec![0.0, 0.0], vec![1.0, 1.0, 2.0]]),
            Err(EpochError::DimMismatch { row: 1, .. })
        ));
        assert!(matches!(
            DatasetHandle::new(&[vec![0.0, 0.0], vec![f64::NAN, 1.0]]),
            Err(EpochError::NonFinite { row: 1 })
        ));
        let flat = DatasetHandle::new(&[vec![0.0], vec![1.0]]).expect("1-d handle");
        let err = SessionEngine::start(SearchConfig::default(), &flat, &[0.0])
            .err()
            .expect("one dimension");
        assert!(err.to_string().contains("at least 2 dimensions"));
        let (pts, _) = planted();
        let dh = handle(&pts);
        let err = SessionEngine::start(config(), &dh, &[0.0; 3])
            .err()
            .expect("short query");
        assert!(err.to_string().contains("query dimensionality 3"));
        let err = SessionEngine::start(config(), &dh, &[f64::NAN; 8])
            .err()
            .expect("NaN query");
        assert!(err.to_string().contains("query contains non-finite"));
    }

    #[test]
    fn pending_view_and_cursor_expose_the_suspension() {
        let (pts, q) = planted();
        let (engine, step) = SessionEngine::start(config(), &handle(&pts), &q).expect("start");
        let view = step.view().expect("first view");
        assert_eq!(view.context().major, 0);
        assert_eq!(view.context().minor, 0);
        assert_eq!(view.context().total_n, pts.len());
        assert!(engine.is_suspended());
        assert_eq!(engine.cursor(), (0, 0));
        assert_eq!(engine.alive_len(), pts.len());
        assert_eq!(engine.majors_run(), 0);
        let from_engine = engine.pending_view().expect("pending");
        assert_eq!(from_engine.context().minor, view.context().minor);
    }

    #[test]
    fn snapshot_resume_midway_is_bit_identical() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        // Uninterrupted reference run.
        let (engine, step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let reference = drive_to_done(engine, step, &mut HeuristicUser::default());

        // Same session, suspended after 3 responses, serialized, resumed
        // in a fresh engine, finished.
        let mut user = HeuristicUser::default();
        let (mut engine, mut step) = SessionEngine::start(config(), &dh, &q).expect("start");
        for _ in 0..3 {
            let req = step.view().expect("view available").clone();
            let r = user.respond(req.profile(), req.context());
            step = engine.submit(r).expect("submit");
        }
        let snap = engine.snapshot().expect("suspended engine snapshots");
        drop(engine);
        let (resumed, step2) = SessionEngine::resume(config(), &dh, &snap).expect("resume");
        // The recomputed pending view matches where we left off.
        assert_eq!(
            step2.view().expect("resumed at a view").context().minor,
            step.view().expect("original pending view").context().minor
        );
        let outcome = drive_to_done(resumed, step2, &mut user);
        assert_eq!(outcome.neighbors, reference.neighbors);
        assert_eq!(outcome.majors_run, reference.majors_run);
        for (a, b) in outcome.probabilities.iter().zip(&reference.probabilities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_resume_does_not_duplicate_degradation_events() {
        // Planted data plus one constant coordinate: with axis-parallel
        // candidates the zero-variance axis is dropped — and recorded —
        // on every single view, unlike the healthy planted fixture.
        let (mut pts, mut q) = planted();
        for p in pts.iter_mut() {
            p.push(7.5);
        }
        q.push(7.5);
        let cfg = SearchConfig {
            max_major_iterations: 2,
            min_major_iterations: 1,
            ..config()
        };
        let dh = handle(&pts);
        let (engine, step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
        let reference = drive_to_done(engine, step, &mut HeuristicUser::default());
        assert!(
            !reference.transcript.degradations.is_empty(),
            "fixture must exercise the degradation ladder"
        );

        // The same session, snapshotted and resumed at *every* suspension
        // point — each cycle recomputes the pending view, which re-emits
        // that view's degradation events; they must not also come back in
        // via the snapshot.
        let mut user = HeuristicUser::default();
        let (mut engine, mut step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
        while let Step::NeedResponse(req) = step {
            let snap = engine.snapshot().expect("snapshot");
            let (resumed, _) = SessionEngine::resume(cfg.clone(), &dh, &snap).expect("resume");
            engine = resumed;
            let r = user.respond(req.profile(), req.context());
            step = engine.submit(r).expect("submit");
        }
        let outcome = step.into_outcome().expect("done");
        let (a, b) = (
            &reference.transcript.degradations.events,
            &outcome.transcript.degradations.events,
        );
        assert_eq!(
            a.len(),
            b.len(),
            "degradation events duplicated across snapshot/resume"
        );
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!((x.major, x.minor), (y.major, y.minor));
            assert_eq!(x.detail, y.detail);
        }
        for (x, y) in outcome.probabilities.iter().zip(&reference.probabilities) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn resume_does_not_recharge_the_restored_views_compute() {
        let (pts, q) = planted();
        let cfg = SearchConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..config()
        };
        let dh = handle(&pts);
        let (mut engine, step) = SessionEngine::start(cfg.clone(), &dh, &q).expect("start");
        let mut user = HeuristicUser::default();
        let req = step.view().expect("view").clone();
        let r = user.respond(req.profile(), req.context());
        engine.submit(r).expect("submit");
        let spent = engine.spent_compute();
        assert!(spent > Duration::ZERO, "deadline sessions meter compute");
        // Bounce the session through snapshot/resume repeatedly: the spent
        // figure must stay exactly what the snapshot recorded, or eviction
        // pressure alone could drain a served session's budget.
        let mut snap = engine.snapshot().expect("snapshot");
        for _ in 0..3 {
            let (resumed, _step) = SessionEngine::resume(cfg.clone(), &dh, &snap).expect("resume");
            assert_eq!(
                resumed.spent_compute(),
                spent,
                "restore recomputation was charged against the deadline"
            );
            snap = resumed.snapshot().expect("re-snapshot");
        }
    }

    #[test]
    fn resume_rejects_mismatched_config_and_data() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let (engine, _step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let snap = engine.snapshot().expect("snapshot");
        // Different loop-relevant knob → fingerprint mismatch.
        let err = SessionEngine::resume(config().with_support(31), &dh, &snap)
            .err()
            .expect("different support");
        assert!(err.to_string().contains("configuration differs"), "{err}");
        // A handle with different content is a different epoch chain: the
        // typed epoch refusal fires before any content or shape check.
        let mut other = pts.clone();
        other[0][0] += 1.0;
        let err = SessionEngine::resume(config(), &handle(&other), &snap)
            .err()
            .expect("different data");
        assert!(matches!(err, HinnError::EpochMismatch { .. }), "{err}");
        // A snapshot whose point count was tampered with passes the epoch
        // check and hits the shape check.
        let tampered = edit_snapshot(&snap, |l| {
            if l.starts_with("n ") {
                format!("n {}", pts.len() - 1)
            } else {
                l.to_string()
            }
        });
        let err = SessionEngine::resume(config(), &dh, &tampered)
            .err()
            .expect("tampered n");
        assert!(err.to_string().contains("shape"), "{err}");
    }

    /// Rewrite a snapshot line by line.
    fn edit_snapshot(snap: &SessionSnapshot, edit: impl Fn(&str) -> String) -> SessionSnapshot {
        let text: Vec<String> = snap.as_str().lines().map(edit).collect();
        SessionSnapshot::from_text(text.join("\n") + "\n").expect("header kept")
    }

    /// A snapshot as written before epochs existed: no `x-epoch` line.
    fn legacy(snap: &SessionSnapshot) -> SessionSnapshot {
        let text: String = snap
            .as_str()
            .lines()
            .filter(|l| !l.starts_with("x-epoch"))
            .map(|l| format!("{l}\n"))
            .collect();
        SessionSnapshot::from_text(text).expect("header kept")
    }

    #[test]
    fn legacy_snapshots_resume_under_the_content_check() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let mut user = HeuristicUser::default();
        let (mut engine, step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let req = step.view().expect("view").clone();
        engine
            .submit(user.respond(req.profile(), req.context()))
            .expect("submit");
        let snap = legacy(&engine.snapshot().expect("snapshot"));
        // Without an epoch pin the snapshot still parses and resumes over
        // the same content, and the resumed session is pinned again.
        let (resumed, _step) = SessionEngine::resume(config(), &dh, &snap).expect("legacy resume");
        assert_eq!(resumed.dataset_epoch(), engine.dataset_epoch());
        assert!(resumed
            .snapshot()
            .expect("re-snapshot")
            .as_str()
            .lines()
            .any(|l| l.starts_with("x-epoch")));
        // Over other content of the same shape only the content
        // fingerprint tells the two apart.
        let mut other = pts.clone();
        other[0][0] += 1.0;
        let err = SessionEngine::resume(config(), &handle(&other), &snap)
            .err()
            .expect("different content");
        assert!(err.to_string().contains("content differs"), "{err}");
        // Over a different shape the shape check fires first.
        let err = SessionEngine::resume(config(), &handle(&pts[..100]), &snap)
            .err()
            .expect("different shape");
        assert!(err.to_string().contains("shape"), "{err}");
    }

    #[test]
    fn snapshot_requires_a_suspended_engine() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let (mut engine, mut step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let mut user = HeuristicUser::default();
        while let Step::NeedResponse(req) = step {
            let r = user.respond(req.profile(), req.context());
            step = engine.submit(r).expect("submit");
        }
        let err = engine.snapshot().expect_err("finished engine");
        assert!(err.to_string().contains("not suspended"), "{err}");
        // record_profiles sessions refuse to snapshot.
        let cfg = SearchConfig {
            record_profiles: true,
            ..config()
        };
        let (engine, _step) = SessionEngine::start(cfg, &dh, &q).expect("start");
        let err = engine.snapshot().expect_err("record_profiles");
        assert!(err.to_string().contains("record_profiles"), "{err}");
    }

    #[test]
    fn engine_is_static_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let (pts, q) = planted();
        let (engine, step) =
            SessionEngine::start_at(config(), handle(&pts).snapshot(), &q).expect("start");
        assert_send(&engine);
        // Move the suspended engine to another thread and finish there.
        let worker = std::thread::spawn(move || {
            let mut user = HeuristicUser::default();
            drive_to_done(engine, step, &mut user).majors_run
        });
        assert!(worker.join().expect("thread") >= 1);
    }

    #[test]
    fn epoch_pin_is_visible() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let (engine, _step) = SessionEngine::start(config(), &dh, &q).expect("start");
        assert_eq!(
            engine.dataset_epoch(),
            (dh.epoch(), dh.snapshot().fingerprint())
        );
    }

    #[test]
    fn resume_after_ingest_is_a_typed_epoch_mismatch() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let pinned_snap = dh.snapshot();
        let (engine, _step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let snap = engine.snapshot().expect("snapshot");
        drop(engine);
        // The handle moves on while the session is suspended.
        dh.append(&[vec![1.0; 8], vec![2.0; 8]]).expect("append");
        let err = SessionEngine::resume(config(), &dh, &snap)
            .err()
            .expect("moved epoch");
        match err {
            HinnError::EpochMismatch { pinned, offered } => {
                assert_eq!(pinned, pinned_snap.epoch());
                assert_eq!(offered, dh.epoch());
            }
            other => panic!("expected EpochMismatch, got {other}"),
        }
        // The retained pinned snapshot still resumes — the refusal is
        // about the handle having moved, not about resumability.
        let (resumed, _step) =
            SessionEngine::resume_at(config(), pinned_snap, &snap).expect("resume at pin");
        assert!(resumed.is_suspended());
    }

    #[test]
    fn explicit_rebase_carries_a_session_onto_a_newer_epoch() {
        let (pts, q) = planted();
        let dh = handle(&pts);
        let from = dh.snapshot();
        let (mut engine, mut step) = SessionEngine::start(config(), &dh, &q).expect("start");
        let mut user = HeuristicUser::default();
        for _ in 0..3 {
            let req = step.view().expect("view").clone();
            let r = user.respond(req.profile(), req.context());
            step = engine.submit(r).expect("submit");
        }
        let snap = engine.snapshot().expect("snapshot");
        drop(engine);
        // Stream in new rows and delete a handful of background rows.
        dh.append(&[vec![60.0; 8], vec![40.0; 8]]).expect("append");
        dh.delete(&[100, 101, 102]).expect("delete");
        let onto = dh.snapshot();

        // Implicit resume refuses; the explicit rebase carries the
        // session over and finishes on the new epoch.
        assert!(matches!(
            SessionEngine::resume(config(), &dh, &snap),
            Err(HinnError::EpochMismatch { .. })
        ));
        let (rebased, step) =
            SessionEngine::resume_rebased(config(), from.clone(), onto.clone(), &snap)
                .expect("rebase");
        assert_eq!(rebased.dataset_epoch(), (onto.epoch(), onto.fingerprint()));
        let outcome = drive_to_done(rebased, step, &mut user);
        assert!(!outcome.neighbors.is_empty());
        assert!(outcome.neighbors.iter().all(|&i| i < onto.len()));

        // Rebasing from the wrong pinned epoch is itself the typed error.
        assert!(matches!(
            SessionEngine::resume_rebased(config(), onto, from, &snap),
            Err(HinnError::EpochMismatch { .. })
        ));
    }
}
