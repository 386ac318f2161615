//! The session table: admission, two-tier residency, lazy eviction.

use crate::postmortem::{EventRing, Postmortem, SessionEvent};
use hinn_cache::{Fingerprint, LruCache};
use hinn_core::{
    DatasetHandle, DegradationKind, EpochSnapshot, HinnError, SearchConfig, SessionEngine,
    SessionSnapshot, Step,
};
use hinn_user::UserResponse;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Opaque handle to one open session. Ids are assigned sequentially and
/// never reused within a manager's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id (stable, useful for logging).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from a [`raw`](Self::raw) id that crossed a
    /// process boundary (the wire protocol ships ids as integers). An id
    /// that was never assigned simply names no session: every manager
    /// call returns [`ServeError::UnknownSession`] for it.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The warm-tier key for this session.
    fn key(self) -> Fingerprint {
        Fingerprint(self.0 as u128)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Serving-layer configuration. `search` configures every session's
/// engine; the rest bounds the manager itself.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The per-session search configuration.
    pub search: SearchConfig,
    /// Maximum *hot* (fully resident) engines. Opening or resuming past
    /// this bound evicts the least-recently-used hot session to the warm
    /// tier. Must be at least 1.
    pub max_resident: usize,
    /// Capacity of the warm snapshot LRU. A session whose snapshot falls
    /// off this tier is lost ([`ServeError::SessionEvicted`] at its next
    /// submit). Capacity 0 disables the warm tier entirely: every hot
    /// eviction loses the session.
    pub warm_capacity: usize,
    /// Maximum concurrently *open* (hot + warm) sessions; further opens
    /// are refused with [`ServeError::AdmissionDenied`].
    pub max_sessions: usize,
    /// Per-session compute budget. The engine meters compute segments
    /// only — wall-clock time a session spends suspended (user think
    /// time, warm-tier residence) is free, and so is the view
    /// recomputation a warm-tier restore performs (the original
    /// computation was already charged before the snapshot, so eviction
    /// pressure cannot drain a session's budget). Expiry surfaces as
    /// [`ServeError::Engine`] wrapping [`HinnError::Deadline`].
    pub session_deadline: Option<Duration>,
}

impl ServeConfig {
    /// Serving defaults around `search`: 64 hot engines, 4096 warm
    /// snapshots, 8192 open sessions, no deadline.
    pub fn new(search: SearchConfig) -> Self {
        Self {
            search,
            max_resident: 64,
            warm_capacity: 4096,
            max_sessions: 8192,
            session_deadline: None,
        }
    }

    /// Bound the hot tier.
    pub fn with_max_resident(mut self, n: usize) -> Self {
        self.max_resident = n;
        self
    }

    /// Bound the warm tier.
    pub fn with_warm_capacity(mut self, n: usize) -> Self {
        self.warm_capacity = n;
        self
    }

    /// Bound admission.
    pub fn with_max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n;
        self
    }

    /// Give every session a compute budget.
    pub fn with_session_deadline(mut self, d: Duration) -> Self {
        self.session_deadline = Some(d);
        self
    }
}

/// Everything that can go wrong at the serving layer, strictly separated
/// from engine errors (which pass through as [`ServeError::Engine`]).
#[derive(Debug)]
pub enum ServeError {
    /// The manager is at `max_sessions`; retry after some session closes.
    AdmissionDenied {
        /// Sessions currently open.
        live: usize,
        /// The configured bound.
        max: usize,
    },
    /// No session with this id was ever opened (or it was closed).
    UnknownSession(SessionId),
    /// The session's snapshot fell off the warm tier; its state is gone.
    SessionEvicted(SessionId),
    /// The session already produced its outcome (or failed terminally).
    SessionFinished(SessionId),
    /// The engine failed (deadline, degradation-ladder exhaustion, …).
    /// The session is spent.
    Engine(HinnError),
    /// The serving layer is shedding load: the request was refused before
    /// any state changed. Retry after the hinted backoff.
    Overloaded {
        /// Deterministic backoff hint for the client.
        retry_after_ms: u64,
        /// Which ladder refused (admission, fairness, quota, drain, …).
        reason: String,
    },
    /// A guarded submit named a `(major, minor)` cursor that is not the
    /// session's pending view — the response was already applied (e.g. a
    /// retry after a torn reply) or the caller is out of sync. Nothing was
    /// applied; the payload carries the *actual* pending cursor so the
    /// caller can resynchronize.
    CursorMismatch {
        /// The session whose cursor disagreed.
        session: SessionId,
        /// Major iteration of the actual pending view.
        major: usize,
        /// Minor iteration of the actual pending view.
        minor: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AdmissionDenied { live, max } => {
                write!(f, "admission denied: {live} open sessions (max {max})")
            }
            Self::UnknownSession(id) => write!(f, "unknown {id}"),
            Self::SessionEvicted(id) => {
                write!(f, "{id} was evicted from the warm tier; its state is gone")
            }
            Self::SessionFinished(id) => write!(f, "{id} already finished"),
            Self::Engine(e) => write!(f, "engine error: {e}"),
            Self::Overloaded {
                retry_after_ms,
                reason,
            } => {
                write!(f, "overloaded ({reason}); retry after {retry_after_ms}ms")
            }
            Self::CursorMismatch {
                session,
                major,
                minor,
            } => write!(
                f,
                "{session}: submit cursor mismatch; pending view is ({major}, {minor})"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HinnError> for ServeError {
    fn from(e: HinnError) -> Self {
        Self::Engine(e)
    }
}

/// Where a session's state lives right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lifecycle {
    /// Resident engine in the hot tier.
    Hot,
    /// Serialized snapshot in the warm tier (or already aged out of it —
    /// discovered lazily at the next submit).
    Warm,
    /// Outcome delivered (or the engine failed); tombstone.
    Finished,
    /// Warm-tier loss discovered; tombstone.
    Evicted,
}

/// A resident engine. The per-session mutex serializes submits to one
/// session while letting other sessions compute concurrently.
struct HotSlot {
    engine: SessionEngine,
    /// Degradation-log events already mirrored into the session's black
    /// box — `submit` diffs against this to find rungs the last compute
    /// segment took. Reset to the restored engine's log length on a
    /// warm-tier restore (a restore bit-identically replays rungs the
    /// ring already recorded before the suspend).
    degr_seen: usize,
}

/// A checked-out hot slot. While the lease is alive the session is
/// *pinned*: eviction passes skip it entirely. Without the pin there is a
/// window between [`SessionManager::checkout`] releasing the manager lock
/// and the caller locking the slot in which `evict_one` could `try_lock`
/// the idle slot, snapshot its *pre-response* state to the warm tier, and
/// drop it from the hot map — the submit would then advance an orphaned
/// engine whose progress is never persisted, and the next submit would
/// replay the stale snapshot.
struct SlotLease<'m> {
    manager: &'m SessionManager,
    id: u64,
    slot: Arc<Mutex<HotSlot>>,
}

impl SlotLease<'_> {
    fn lock(&self) -> MutexGuard<'_, HotSlot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for SlotLease<'_> {
    fn drop(&mut self) {
        let mut inner = self.manager.lock();
        if let Some(n) = inner.pinned.get_mut(&self.id) {
            *n -= 1;
            if *n == 0 {
                inner.pinned.remove(&self.id);
            }
        }
    }
}

/// Manager maps, all behind one short-hold mutex. Engine compute never
/// runs under this lock except the eviction/restore snapshot work, which
/// is small compared to a view computation.
struct Inner {
    next_id: u64,
    tick: u64,
    hot: HashMap<u64, Arc<Mutex<HotSlot>>>,
    /// Recency of hot sessions (manager-lock-protected so eviction never
    /// has to lock a slot just to read its age).
    last_used: HashMap<u64, u64>,
    lifecycle: HashMap<u64, Lifecycle>,
    /// Sessions with a live [`SlotLease`] (value = lease count), which
    /// eviction must skip. A plain `try_lock` probe is not enough: a
    /// checked-out slot is unlocked until its caller gets around to
    /// locking it.
    pinned: HashMap<u64, usize>,
    /// Per-session black box: the bounded ring of recent lifecycle
    /// events a postmortem freezes. Keyed by raw id so it survives
    /// hot/warm bounces; dropped when the session retires or closes.
    black_box: HashMap<u64, EventRing>,
    /// Per-session [`SearchConfig`] overrides for sessions opened with
    /// [`SessionManager::open_with`] (the overload-shedding ladder opens
    /// degraded sessions this way). A warm-tier restore must resume under
    /// the *same* configuration the session was opened with — the snapshot
    /// fingerprint refuses anything else — so the override is kept for the
    /// session's whole life and dropped when it retires or closes.
    overrides: HashMap<u64, SearchConfig>,
    /// The dataset epoch each live session pinned at open. A warm-tier
    /// restore resumes against *this* snapshot — never the handle's
    /// current one — so concurrent ingestion can't turn a routine restore
    /// into an [`HinnError::EpochMismatch`]. Dropped when the session
    /// retires or closes; replaced by an explicit
    /// [`SessionManager::rebase`].
    epochs: HashMap<u64, Arc<EpochSnapshot>>,
}

impl Inner {
    fn live(&self) -> usize {
        self.lifecycle
            .values()
            .filter(|s| matches!(s, Lifecycle::Hot | Lifecycle::Warm))
            .count()
    }
}

/// A bounded table of suspended interactive-search sessions over one
/// shared data set (see the crate docs for the tiering model).
///
/// All methods take `&self`; the manager is `Send + Sync` and meant to be
/// shared across serving threads. Submits to *different* sessions compute
/// concurrently; submits to the same session serialize.
pub struct SessionManager {
    config: ServeConfig,
    /// The served dataset. Epoch-versioned: [`ingest`](Self::ingest) and
    /// [`delete`](Self::delete) advance it in place while every open
    /// session keeps computing against the epoch it pinned at open.
    data: DatasetHandle,
    warm: LruCache<SessionSnapshot>,
    inner: Mutex<Inner>,
    /// Frozen incident records, drained by [`take_postmortems`].
    ///
    /// [`take_postmortems`]: SessionManager::take_postmortems
    incidents: Mutex<Vec<Postmortem>>,
}

impl SessionManager {
    /// A manager serving sessions over the epoch-versioned dataset
    /// behind `data`. The manager takes ownership of the handle; feed it
    /// new rows through [`ingest`](Self::ingest) and
    /// [`delete`](Self::delete), which open sessions observe only at
    /// their next open (or an explicit [`rebase`](Self::rebase)).
    ///
    /// # Errors
    /// [`HinnError::InvalidInput`] when the search configuration is
    /// invalid or sets `record_profiles` (profile-recording sessions
    /// cannot be snapshotted, so they cannot be evicted — refuse up front
    /// rather than fail at the first eviction), or when `max_resident`
    /// is 0.
    pub fn new(config: ServeConfig, data: DatasetHandle) -> Result<Self, HinnError> {
        config.search.try_validate()?;
        let invalid = |message: &str| HinnError::InvalidInput {
            phase: "serve.config",
            message: message.to_string(),
        };
        if config.search.record_profiles {
            return Err(invalid(
                "SessionManager: record_profiles sessions cannot be evicted (snapshots refuse \
                 multi-megabyte profile artifacts); serve them with InteractiveSearch instead",
            ));
        }
        if config.max_resident == 0 {
            return Err(invalid("SessionManager: max_resident must be at least 1"));
        }
        let warm = LruCache::new(config.warm_capacity);
        Ok(Self {
            config,
            data,
            warm,
            inner: Mutex::new(Inner {
                next_id: 1,
                tick: 0,
                hot: HashMap::new(),
                last_used: HashMap::new(),
                lifecycle: HashMap::new(),
                pinned: HashMap::new(),
                black_box: HashMap::new(),
                overrides: HashMap::new(),
                epochs: HashMap::new(),
            }),
            incidents: Mutex::new(Vec::new()),
        })
    }

    /// The served dataset handle — the door to epoch-aware callers that
    /// want to pin snapshots themselves (e.g. to batch-verify against the
    /// exact epoch a session answered from).
    pub fn dataset(&self) -> &DatasetHandle {
        &self.data
    }

    /// The dataset's current epoch: `(epoch number, chained fingerprint)`.
    pub fn current_epoch(&self) -> (u64, Fingerprint) {
        let snap = self.data.snapshot();
        (snap.epoch(), snap.fingerprint())
    }

    /// The epoch session `id` pinned at open (or at its last
    /// [`rebase`](Self::rebase)) — what its answers are relative to.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` has no live pin (never
    /// opened, closed, or already finished).
    pub fn session_epoch(&self, id: SessionId) -> Result<(u64, Fingerprint), ServeError> {
        self.lock()
            .epochs
            .get(&id.0)
            .map(|snap| (snap.epoch(), snap.fingerprint()))
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Append `rows` to the served dataset, producing a new epoch that
    /// only *future* opens observe: every live session keeps computing
    /// against the epoch it pinned. Returns the new epoch's
    /// `(number, fingerprint)`.
    ///
    /// # Errors
    /// [`ServeError::Engine`] wrapping [`HinnError::InvalidInput`] when a
    /// row is ragged or non-finite (the dataset is unchanged).
    pub fn ingest(&self, rows: &[Vec<f64>]) -> Result<(u64, Fingerprint), ServeError> {
        let _span = hinn_obs::span("serve.ingest");
        let snap = self.data.append(rows).map_err(|e| {
            ServeError::Engine(HinnError::InvalidInput {
                phase: "serve.ingest",
                message: format!("SessionManager::ingest: {e}"),
            })
        })?;
        hinn_obs::counter("serve.ingested_rows", rows.len() as u64);
        Ok((snap.epoch(), snap.fingerprint()))
    }

    /// Tombstone the rows with global ids `ids`, producing a new epoch
    /// (same pinning rules as [`ingest`](Self::ingest)). Already-deleted
    /// ids are skipped. Returns the new epoch's `(number, fingerprint)`.
    ///
    /// # Errors
    /// [`ServeError::Engine`] wrapping [`HinnError::InvalidInput`] when an
    /// id was never appended (the dataset is unchanged).
    pub fn delete(&self, ids: &[usize]) -> Result<(u64, Fingerprint), ServeError> {
        let _span = hinn_obs::span("serve.delete");
        let snap = self.data.delete(ids).map_err(|e| {
            ServeError::Engine(HinnError::InvalidInput {
                phase: "serve.delete",
                message: format!("SessionManager::delete: {e}"),
            })
        })?;
        hinn_obs::counter("serve.deleted_rows", ids.len() as u64);
        Ok((snap.epoch(), snap.fingerprint()))
    }

    /// Explicitly carry session `id` onto the dataset's *current* epoch:
    /// suspend-point state is remapped by global row id (rows deleted
    /// since the session's pin drop out; rows appended since join with
    /// zero preference mass), the session is re-pinned, and its next
    /// pending view — recomputed on the new epoch — is returned. A no-op
    /// returning the pending view when the session is already current.
    ///
    /// This is the serving face of
    /// [`SessionEngine::resume_rebased`]: it never happens implicitly —
    /// a session's answers stay relative to one epoch unless an operator
    /// asks for the remap.
    ///
    /// # Errors
    /// The usual residency errors ([`ServeError::UnknownSession`] /
    /// [`SessionEvicted`](ServeError::SessionEvicted) /
    /// [`SessionFinished`](ServeError::SessionFinished));
    /// [`ServeError::Engine`] when the engine refuses the remap (e.g.
    /// fewer than two of the session's alive points survive). On engine
    /// refusal the session keeps its old pin and state, untouched.
    pub fn rebase(&self, id: SessionId) -> Result<Step, ServeError> {
        let _span = hinn_obs::span("session.rebase");
        let lease = self.checkout(id)?;
        let mut guard = lease.lock();
        let onto = self.data.snapshot();
        let from = self
            .lock()
            .epochs
            .get(&id.0)
            .cloned()
            .ok_or(ServeError::UnknownSession(id))?;
        if from.fingerprint() == onto.fingerprint() {
            return match guard.engine.pending_view() {
                Some(view) => Ok(Step::NeedResponse(view.clone())),
                None => Err(ServeError::SessionFinished(id)),
            };
        }
        let snap = guard.engine.snapshot().map_err(ServeError::Engine)?;
        let mut search = {
            let inner = self.lock();
            inner
                .overrides
                .get(&id.0)
                .cloned()
                .unwrap_or_else(|| self.config.search.clone())
        };
        if self.config.session_deadline.is_some() {
            search.deadline = self.config.session_deadline;
        }
        let (engine, step) =
            SessionEngine::resume_rebased(search, from.clone(), onto.clone(), &snap)
                .map_err(ServeError::Engine)?;
        guard.degr_seen = engine.degradations().len();
        guard.engine = engine;
        hinn_obs::counter("session.rebased", 1);
        self.record(
            id,
            SessionEvent::Rebased {
                from_epoch: from.epoch(),
                onto_epoch: onto.epoch(),
            },
        );
        self.lock().epochs.insert(id.0, onto);
        Ok(step)
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resident hot engines right now.
    pub fn hot_len(&self) -> usize {
        self.lock().hot.len()
    }

    /// Snapshots resident in the warm tier right now.
    pub fn warm_len(&self) -> usize {
        self.warm.len()
    }

    /// Open (hot + warm) sessions right now.
    pub fn live_sessions(&self) -> usize {
        self.lock().live()
    }

    /// Open a new session for `query`. Returns the session's id and its
    /// first [`Step`] — almost always `NeedResponse` carrying the first
    /// view; degenerate data can finish immediately, in which case the
    /// session is already closed.
    ///
    /// # Errors
    /// [`ServeError::AdmissionDenied`] at the session bound;
    /// [`ServeError::Engine`] when the engine rejects the input.
    pub fn open(&self, query: &[f64]) -> Result<(SessionId, Step), ServeError> {
        self.open_inner(query, None)
    }

    /// [`open`](Self::open) with a per-session [`SearchConfig`] override —
    /// how the serving front-end opens *degraded* sessions when its
    /// overload-shedding ladder is active (coarser KDE grid, fewer minor
    /// iterations) without touching the manager-wide configuration. The
    /// override is remembered for the session's lifetime so warm-tier
    /// restores resume under the exact configuration the snapshot was
    /// taken with.
    ///
    /// # Errors
    /// Everything [`open`](Self::open) reports, plus
    /// [`ServeError::Engine`] when `search` is invalid or sets
    /// `record_profiles` (unsnapshottable sessions are refused up front,
    /// same as at construction).
    pub fn open_with(
        &self,
        query: &[f64],
        search: SearchConfig,
    ) -> Result<(SessionId, Step), ServeError> {
        search.try_validate()?;
        if search.record_profiles {
            return Err(ServeError::Engine(HinnError::InvalidInput {
                phase: "serve.config",
                message: "SessionManager: record_profiles sessions cannot be evicted".to_string(),
            }));
        }
        self.open_inner(query, Some(search))
    }

    fn open_inner(
        &self,
        query: &[f64],
        override_search: Option<SearchConfig>,
    ) -> Result<(SessionId, Step), ServeError> {
        let _span = hinn_obs::span("session.open");
        {
            let inner = self.lock();
            let live = inner.live();
            if live >= self.config.max_sessions {
                hinn_obs::counter("session.denied", 1);
                return Err(ServeError::AdmissionDenied {
                    live,
                    max: self.config.max_sessions,
                });
            }
        }
        // The first compute segment runs outside the manager lock — other
        // sessions keep serving. Concurrent opens can transiently overshoot
        // admission by the number of in-flight opens; the recheck at
        // insertion keeps the *open-session* bound exact.
        let mut search = override_search
            .clone()
            .unwrap_or_else(|| self.config.search.clone());
        if self.config.session_deadline.is_some() {
            search.deadline = self.config.session_deadline;
        }
        // Pin the dataset epoch *before* the first compute: everything
        // this session ever reports is relative to this snapshot, however
        // much the handle moves underneath it.
        let pinned = self.data.snapshot();
        let (engine, step) = SessionEngine::start_at(search, pinned.clone(), query)?;
        // Mirror open-time degradation rungs (StarvedSeed's linear-scan
        // fallback fires during the seed) into the black box before the
        // engine moves into its slot.
        let degr_seen = engine.degradations().len();
        let mut ring = EventRing::default();
        ring.push(SessionEvent::Opened {
            n_points: pinned.len(),
            dims: pinned.dim(),
        });
        let mut starved = false;
        for e in engine.degradations().iter() {
            starved |= e.kind == DegradationKind::StarvedSeed;
            ring.push(SessionEvent::Degradation {
                major: e.major,
                minor: e.minor,
                kind: e.kind.as_str().to_string(),
                detail: e.detail.clone(),
            });
        }
        let mut inner = self.lock();
        let live = inner.live();
        if live >= self.config.max_sessions {
            hinn_obs::counter("session.denied", 1);
            return Err(ServeError::AdmissionDenied {
                live,
                max: self.config.max_sessions,
            });
        }
        let id = SessionId(inner.next_id);
        inner.next_id += 1;
        hinn_obs::counter("session.opened", 1);
        if starved {
            // A starved seed is a meaningfulness hazard, not an error: the
            // session continues on the linear-scan fallback, but the
            // incident is dumped so an operator can audit which answers
            // rest on it.
            self.dump(&ring, id, "starved seed at open");
        }
        if step.is_done() {
            inner.lifecycle.insert(id.0, Lifecycle::Finished);
            hinn_obs::counter("session.finished", 1);
            return Ok((id, step));
        }
        inner.black_box.insert(id.0, ring);
        inner.epochs.insert(id.0, pinned);
        if let Some(over) = override_search {
            inner.overrides.insert(id.0, over);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.lifecycle.insert(id.0, Lifecycle::Hot);
        inner.last_used.insert(id.0, tick);
        inner
            .hot
            .insert(id.0, Arc::new(Mutex::new(HotSlot { engine, degr_seen })));
        self.enforce_hot_cap(&mut inner);
        self.publish_gauges(&inner);
        Ok((id, step))
    }

    /// Submit `response` to session `id`'s pending view and run its
    /// engine to the next suspension point (or to completion, after which
    /// the session is closed and further submits report
    /// [`ServeError::SessionFinished`]). A warm session is transparently
    /// restored first — `session.resumed` counts how often.
    pub fn submit(&self, id: SessionId, response: UserResponse) -> Result<Step, ServeError> {
        self.submit_inner(id, None, response)
    }

    /// [`submit`](Self::submit) guarded by the `(major, minor)` cursor of
    /// the view the caller is responding to — the at-most-once guard a
    /// networked front-end needs. A client that re-sends a submit after a
    /// torn reply cannot advance the engine twice: if the pending view's
    /// cursor differs from `expected`, nothing is applied and
    /// [`ServeError::CursorMismatch`] reports the actual cursor so the
    /// caller can resynchronize (view cursors advance strictly, so a
    /// mismatch means the earlier delivery already landed).
    pub fn submit_at(
        &self,
        id: SessionId,
        expected: (usize, usize),
        response: UserResponse,
    ) -> Result<Step, ServeError> {
        self.submit_inner(id, Some(expected), response)
    }

    fn submit_inner(
        &self,
        id: SessionId,
        expected: Option<(usize, usize)>,
        response: UserResponse,
    ) -> Result<Step, ServeError> {
        let _span = hinn_obs::span("session.step");
        let lease = self.checkout(id)?;
        // Engine compute runs under the per-session lock only; the lease
        // keeps eviction away from this session until the new state is
        // safely in the slot (or the session is retired).
        let mut guard = lease.lock();
        if let Some(view) = guard.engine.pending_view() {
            let (major, minor) = (view.context().major, view.context().minor);
            if let Some(want) = expected {
                if want != (major, minor) {
                    return Err(ServeError::CursorMismatch {
                        session: id,
                        major,
                        minor,
                    });
                }
            }
            self.record(id, SessionEvent::Submitted { major, minor });
        }
        let timed = hinn_obs::enabled().then(Instant::now);
        // Contain in-engine panics: freeze the black box and retire the
        // session before re-raising, so one poisoned session cannot take
        // its incident history down with it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            guard.engine.submit(response)
        }));
        if let Some(start) = timed {
            hinn_obs::observe("session.submit_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        let result = match result {
            Ok(r) => r,
            Err(payload) => {
                drop(guard);
                let error = panic_text(payload.as_ref());
                self.record(id, SessionEvent::Failed { error });
                self.dump_by_id(id, "panic during submit");
                self.tombstone(id, Lifecycle::Finished);
                std::panic::resume_unwind(payload);
            }
        };
        // Mirror degradation-ladder rungs this compute segment took; a
        // degraded-but-alive session dumps too, because "quietly degraded"
        // is the failure mode the paper warns about.
        let total = guard.engine.degradations().len();
        if total > guard.degr_seen {
            let new_events: Vec<SessionEvent> = guard.engine.degradations().events
                [guard.degr_seen..]
                .iter()
                .map(|e| SessionEvent::Degradation {
                    major: e.major,
                    minor: e.minor,
                    kind: e.kind.as_str().to_string(),
                    detail: e.detail.clone(),
                })
                .collect();
            guard.degr_seen = total;
            let mut inner = self.lock();
            if let Some(ring) = inner.black_box.get_mut(&id.0) {
                for event in new_events {
                    ring.push(event);
                }
                let ring = ring.clone();
                drop(inner);
                self.dump(&ring, id, "degradation ladder");
            }
        }
        match result {
            Ok(step) => {
                if step.is_done() {
                    drop(guard);
                    self.tombstone(id, Lifecycle::Finished);
                    hinn_obs::counter("session.finished", 1);
                }
                Ok(step)
            }
            Err(e) => {
                drop(guard);
                self.record(
                    id,
                    SessionEvent::Failed {
                        error: e.to_string(),
                    },
                );
                self.dump_by_id(id, &format!("engine error: {e}"));
                self.tombstone(id, Lifecycle::Finished);
                Err(ServeError::Engine(e))
            }
        }
    }

    /// The suspended view of session `id`, restoring it from the warm
    /// tier if needed — what a serving frontend re-renders when a user
    /// reconnects.
    pub fn pending_view(&self, id: SessionId) -> Result<hinn_core::ViewRequest, ServeError> {
        let lease = self.checkout(id)?;
        let guard = lease.lock();
        match guard.engine.pending_view() {
            Some(view) => Ok(view.clone()),
            // Unreachable in practice: hot engines are suspended by
            // construction. Report rather than panic.
            None => Err(ServeError::SessionFinished(id)),
        }
    }

    /// Force session `id` out of the hot tier into the warm tier (a
    /// serving frontend would call this on disconnect). No-op when the
    /// session is already warm.
    pub fn suspend(&self, id: SessionId) -> Result<(), ServeError> {
        let mut inner = self.lock();
        match inner.lifecycle.get(&id.0) {
            None => Err(ServeError::UnknownSession(id)),
            Some(Lifecycle::Finished) => Err(ServeError::SessionFinished(id)),
            Some(Lifecycle::Evicted) => Err(ServeError::SessionEvicted(id)),
            Some(Lifecycle::Warm) => Ok(()),
            Some(Lifecycle::Hot) => {
                self.evict_one(&mut inner, id.0);
                self.publish_gauges(&inner);
                Ok(())
            }
        }
    }

    /// Suspend every idle hot session to the warm tier — the graceful-
    /// drain flush: a shutting-down server calls this after its workers
    /// stop so every live session leaves a resumable snapshot behind.
    /// Sessions with a submit in flight (pinned or slot-locked) are
    /// skipped; their owning thread suspends or retires them. Returns how
    /// many sessions were flushed.
    pub fn suspend_all(&self) -> usize {
        let mut inner = self.lock();
        let mut ids: Vec<u64> = inner.hot.keys().copied().collect();
        ids.sort_unstable();
        let mut flushed = 0;
        for sid in ids {
            if self.evict_one(&mut inner, sid) {
                flushed += 1;
            }
        }
        self.publish_gauges(&inner);
        flushed
    }

    /// Record a connection-level incident against session `id`: push a
    /// `Failed` event into its black box and freeze it into a
    /// [`Postmortem`] (stderr + [`take_postmortems`](Self::take_postmortems)).
    /// The session itself is left alone — a client that disconnected
    /// mid-submit can reconnect and resume; only the *incident* is
    /// durable.
    pub fn report_incident(&self, id: SessionId, reason: &str) {
        self.record(
            id,
            SessionEvent::Failed {
                error: reason.to_string(),
            },
        );
        self.dump_by_id(id, reason);
    }

    /// Record that session `id` was opened under overload-shedding level
    /// `level` (an [`open_with`](Self::open_with) degradation): a
    /// `load_shed` rung in the session's black box, frozen into a
    /// [`Postmortem`] like every other degradation — "quietly degraded"
    /// answers must stay auditable.
    pub fn note_load_shed(&self, id: SessionId, level: u8, detail: &str) {
        self.record(
            id,
            SessionEvent::Degradation {
                major: None,
                minor: None,
                kind: "load_shed".to_string(),
                detail: format!("L{level}: {detail}"),
            },
        );
        self.dump_by_id(id, "load shed at open");
    }

    /// Close session `id`, dropping whatever state it still has. Closing
    /// an unknown id is an error; closing a finished or evicted session
    /// just clears the tombstone.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        let mut inner = self.lock();
        if inner.lifecycle.remove(&id.0).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        inner.hot.remove(&id.0);
        inner.last_used.remove(&id.0);
        inner.black_box.remove(&id.0);
        inner.pinned.remove(&id.0);
        inner.overrides.remove(&id.0);
        inner.epochs.remove(&id.0);
        self.warm.remove(id.key());
        self.publish_gauges(&inner);
        Ok(())
    }

    /// Locate `id`'s engine, restoring it from the warm tier if needed.
    /// The returned lease pins the session against eviction; it is claimed
    /// under the same manager-lock critical section that reads the hot
    /// map, so there is no window for `evict_one` to snapshot a slot its
    /// caller is about to mutate.
    fn checkout(&self, id: SessionId) -> Result<SlotLease<'_>, ServeError> {
        let mut inner = self.lock();
        match inner.lifecycle.get(&id.0) {
            None => return Err(ServeError::UnknownSession(id)),
            Some(Lifecycle::Finished) => return Err(ServeError::SessionFinished(id)),
            Some(Lifecycle::Evicted) => return Err(ServeError::SessionEvicted(id)),
            Some(Lifecycle::Hot) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.last_used.insert(id.0, tick);
                if let Some(slot) = inner.hot.get(&id.0) {
                    let slot = slot.clone();
                    return Ok(self.pin(&mut inner, id.0, slot));
                }
                // Lifecycle said Hot but the slot is gone — a close raced
                // us. Treat as unknown.
                return Err(ServeError::UnknownSession(id));
            }
            Some(Lifecycle::Warm) => {}
        }
        // Warm → hot. `remove` is the atomic claim: concurrent submits to
        // the same warm session cannot both restore it (we hold the
        // manager lock throughout; the restore recomputes exactly one
        // pending view, which is small next to a full view computation).
        let snap = match self.warm.remove(id.key()) {
            Some(snap) => snap,
            None => {
                // The snapshot aged out of the LRU: the lazy discovery of
                // an earlier capacity overflow.
                inner.lifecycle.insert(id.0, Lifecycle::Evicted);
                hinn_obs::counter("session.dropped", 1);
                self.publish_gauges(&inner);
                return Err(ServeError::SessionEvicted(id));
            }
        };
        // Resume under the session's own configuration: an `open_with`
        // override (e.g. a load-shed session's coarser grid) must follow
        // the session through the warm tier, or the snapshot's config
        // fingerprint would refuse the restore.
        let mut search = inner
            .overrides
            .get(&id.0)
            .cloned()
            .unwrap_or_else(|| self.config.search.clone());
        if self.config.session_deadline.is_some() {
            search.deadline = self.config.session_deadline;
        }
        // Resume against the epoch the session *pinned*, not the handle's
        // current one: ingestion between suspend and restore must never
        // shift a session's answers (and would otherwise surface as an
        // EpochMismatch on a routine warm-tier bounce). The fallback to
        // the current snapshot only covers a pin lost to a racing close —
        // the engine's own epoch check still refuses a wrong dataset.
        let pinned = inner
            .epochs
            .get(&id.0)
            .cloned()
            .unwrap_or_else(|| self.data.snapshot());
        let timed = hinn_obs::enabled().then(Instant::now);
        let resumed = SessionEngine::resume_at(search, pinned, &snap);
        if let Some(start) = timed {
            hinn_obs::observe("snapshot.restore_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        let (engine, _step) = resumed.map_err(|e| {
            // The snapshot came from this manager, so a resume failure is
            // an engine-level problem (e.g. deadline during the restore
            // segment). The session is spent either way.
            inner.lifecycle.insert(id.0, Lifecycle::Finished);
            if let Some(ring) = inner.black_box.get_mut(&id.0) {
                ring.push(SessionEvent::Failed {
                    error: e.to_string(),
                });
                let ring = ring.clone();
                self.dump(&ring, id, &format!("restore failed: {e}"));
            }
            ServeError::Engine(e)
        })?;
        hinn_obs::counter("session.resumed", 1);
        if let Some(ring) = inner.black_box.get_mut(&id.0) {
            ring.push(SessionEvent::Restored);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.lifecycle.insert(id.0, Lifecycle::Hot);
        inner.last_used.insert(id.0, tick);
        // The restored engine replayed its degradation log (bit-identical
        // restore); the ring already holds those rungs, so only events
        // past this length are new.
        let degr_seen = engine.degradations().len();
        let slot = Arc::new(Mutex::new(HotSlot { engine, degr_seen }));
        inner.hot.insert(id.0, slot.clone());
        // Pin before enforcing the cap: the session we just restored must
        // not be the one the cap enforcement pushes straight back out.
        let lease = self.pin(&mut inner, id.0, slot);
        self.enforce_hot_cap(&mut inner);
        self.publish_gauges(&inner);
        Ok(lease)
    }

    /// Claim a lease on `sid` (caller holds the manager lock).
    fn pin<'m>(&'m self, inner: &mut Inner, sid: u64, slot: Arc<Mutex<HotSlot>>) -> SlotLease<'m> {
        *inner.pinned.entry(sid).or_insert(0) += 1;
        SlotLease {
            manager: self,
            id: sid,
            slot,
        }
    }

    /// Evict least-recently-used hot sessions until the hot tier fits
    /// `max_resident`. Sessions with a submit in flight (slot locked) and
    /// engines that just finished are skipped — their owning thread
    /// retires them.
    fn enforce_hot_cap(&self, inner: &mut Inner) {
        while inner.hot.len() > self.config.max_resident {
            let mut order: Vec<(u64, u64)> = inner
                .hot
                .keys()
                .map(|&sid| (inner.last_used.get(&sid).copied().unwrap_or(0), sid))
                .collect();
            order.sort_unstable();
            let before = inner.hot.len();
            for (_, sid) in order {
                if self.evict_one(inner, sid) {
                    break;
                }
            }
            if inner.hot.len() == before {
                // Every candidate is busy; the cap is transiently
                // exceeded and the next mutation re-runs enforcement.
                break;
            }
        }
    }

    /// Snapshot one hot session into the warm tier. Returns `false` when
    /// the slot is checked out, busy, or not suspendable right now.
    fn evict_one(&self, inner: &mut Inner, sid: u64) -> bool {
        if inner.pinned.contains_key(&sid) {
            // A checkout is in flight: its slot may be mutated the moment
            // we release the manager lock, so any snapshot taken here
            // could persist pre-response state. Skip it.
            return false;
        }
        let Some(slot) = inner.hot.get(&sid) else {
            return false;
        };
        let Ok(guard) = slot.try_lock() else {
            return false;
        };
        let timed = hinn_obs::enabled().then(Instant::now);
        let snap = guard.engine.snapshot();
        if let Some(start) = timed {
            hinn_obs::observe("snapshot.serialize_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        let Ok(snap) = snap else {
            return false;
        };
        drop(guard);
        self.warm.insert(Fingerprint(sid as u128), snap);
        inner.hot.remove(&sid);
        inner.last_used.remove(&sid);
        inner.lifecycle.insert(sid, Lifecycle::Warm);
        if let Some(ring) = inner.black_box.get_mut(&sid) {
            ring.push(SessionEvent::Suspended);
        }
        hinn_obs::counter("session.evicted", 1);
        true
    }

    /// Drop a session's residency and tombstone it. The warm tier is
    /// purged too: a tombstoned session must not leave a resurrectable
    /// snapshot occupying warm-LRU capacity until an explicit `close`,
    /// and any stale lease pin is cleared so the dead id cannot linger in
    /// the pin table (a lease that is still alive no-ops on drop when its
    /// entry is gone).
    fn tombstone(&self, id: SessionId, state: Lifecycle) {
        let mut inner = self.lock();
        inner.hot.remove(&id.0);
        inner.last_used.remove(&id.0);
        inner.black_box.remove(&id.0);
        inner.pinned.remove(&id.0);
        inner.overrides.remove(&id.0);
        inner.epochs.remove(&id.0);
        self.warm.remove(id.key());
        inner.lifecycle.insert(id.0, state);
        self.publish_gauges(&inner);
    }

    /// Administratively retire session `id`: drop whatever state it holds
    /// (hot engine, warm snapshot, black box, any stale lease pin) and
    /// tombstone it as finished, counting `session.retired`. Works on any
    /// live session — including one that was never checked out — and is
    /// idempotent on tombstones (no recount, but stale pins are still
    /// cleared).
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` was never opened or was
    /// closed.
    pub fn retire(&self, id: SessionId) -> Result<(), ServeError> {
        {
            let mut inner = self.lock();
            match inner.lifecycle.get(&id.0) {
                None => return Err(ServeError::UnknownSession(id)),
                Some(Lifecycle::Finished | Lifecycle::Evicted) => {
                    inner.pinned.remove(&id.0);
                    return Ok(());
                }
                Some(Lifecycle::Hot | Lifecycle::Warm) => {}
            }
        }
        self.tombstone(id, Lifecycle::Finished);
        hinn_obs::counter("session.retired", 1);
        Ok(())
    }

    /// Record `event` into session `id`'s black box, if it still has one.
    fn record(&self, id: SessionId, event: SessionEvent) {
        let mut inner = self.lock();
        if let Some(ring) = inner.black_box.get_mut(&id.0) {
            ring.push(event);
        }
    }

    /// Freeze `ring` into a [`Postmortem`]: count it, keep it for
    /// [`take_postmortems`](Self::take_postmortems), and print the
    /// one-line JSON to stderr for operators tailing logs.
    fn dump(&self, ring: &EventRing, id: SessionId, reason: &str) {
        let pm = ring.freeze(id.raw(), reason);
        hinn_obs::counter("session.postmortem", 1);
        eprintln!("hinn-serve postmortem: {}", pm.to_json());
        self.incidents
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(pm);
    }

    /// [`dump`](Self::dump) whatever the black box currently holds for
    /// `id` (an empty ring if the session never had one).
    fn dump_by_id(&self, id: SessionId, reason: &str) {
        let ring = self
            .lock()
            .black_box
            .get(&id.0)
            .cloned()
            .unwrap_or_default();
        self.dump(&ring, id, reason);
    }

    /// Drain the incident store: every [`Postmortem`] dumped since the
    /// last call (or since construction), oldest first. Incident tooling
    /// polls this; each postmortem was also printed to stderr as one-line
    /// JSON at dump time.
    pub fn take_postmortems(&self) -> Vec<Postmortem> {
        std::mem::take(&mut *self.incidents.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn publish_gauges(&self, inner: &Inner) {
        if hinn_obs::enabled() {
            hinn_obs::gauge("session.hot", inner.hot.len() as f64);
            hinn_obs::gauge("session.warm", self.warm.len() as f64);
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // No partial mutation spans an unwind point; recover poisoning.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Live lease pins (test-only: the pin table must never outlive the
    /// sessions it guards).
    #[cfg(test)]
    fn pinned_len(&self) -> usize {
        self.lock().pinned.len()
    }
}

/// Render a caught panic payload as text for the black box.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinn_core::SearchOutcome;
    use hinn_user::{HeuristicUser, UserModel};

    /// 8-D planted cluster, same construction as the engine's fixture.
    fn planted() -> Vec<Vec<f64>> {
        let mut state = 0xDA3E39CB94B95BDBu64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let d = 8;
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for _ in 0..30 {
            pts.push((0..d).map(|_| 50.0 + (unif() - 0.5) * 2.0).collect());
        }
        for _ in 0..170 {
            pts.push((0..d).map(|_| unif() * 100.0).collect());
        }
        pts
    }

    /// A fresh epoch handle over the planted fixture. Handles over the
    /// same rows share an epoch fingerprint, so separately-built
    /// reference managers stay comparable.
    fn handle() -> DatasetHandle {
        DatasetHandle::new(&planted()).expect("epoch handle")
    }

    fn config() -> ServeConfig {
        ServeConfig::new(SearchConfig {
            max_major_iterations: 2,
            min_major_iterations: 1,
            ..SearchConfig::default().with_support(20)
        })
    }

    fn drive_to_done(m: &SessionManager, id: SessionId, mut step: Step) -> SearchOutcome {
        let mut user = HeuristicUser::default();
        loop {
            match step {
                Step::Done(outcome) => return *outcome,
                Step::NeedResponse(req) => {
                    let r = user.respond(req.profile(), req.context());
                    step = m.submit(id, r).expect("submit");
                }
            }
        }
    }

    #[test]
    fn one_session_end_to_end() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, step) = m.open(&q).expect("open");
        assert_eq!(m.live_sessions(), 1);
        let outcome = drive_to_done(&m, id, step);
        assert!(!outcome.neighbors.is_empty());
        assert_eq!(m.live_sessions(), 0, "finished session left the table");
        let err = m.submit(id, UserResponse::Discard).expect_err("spent");
        assert!(
            matches!(err, ServeError::SessionFinished(e) if e == id),
            "{err}"
        );
    }

    #[test]
    fn hot_cap_evicts_to_warm_and_resumes_transparently() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config().with_max_resident(2), handle()).expect("manager");
        let (a, _) = m.open(&q).expect("a");
        let (b, _) = m.open(&q).expect("b");
        let (c, _) = m.open(&q).expect("c");
        // Opening c pushed the LRU session (a) to the warm tier.
        assert_eq!(m.hot_len(), 2);
        assert_eq!(m.warm_len(), 1);
        assert_eq!(m.live_sessions(), 3);
        // Submitting to a restores it — and evicts the then-LRU b.
        let step = m.submit(a, UserResponse::Discard).expect("restore a");
        assert!(!step.is_done());
        assert_eq!(m.hot_len(), 2);
        assert_eq!(m.warm_len(), 1);
        let _ = (b, c);
    }

    #[test]
    fn warm_overflow_is_reported_as_eviction() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(
            config().with_max_resident(1).with_warm_capacity(1),
            handle(),
        )
        .expect("manager");
        let (a, _) = m.open(&q).expect("a");
        let (b, _) = m.open(&q).expect("b"); // a → warm
        let (_c, _) = m.open(&q).expect("c"); // b → warm, a's snapshot dropped
        let err = m.submit(a, UserResponse::Discard).expect_err("a is gone");
        assert!(
            matches!(err, ServeError::SessionEvicted(e) if e == a),
            "{err}"
        );
        // The loss is latched: a second submit reports the same thing.
        let err = m.submit(a, UserResponse::Discard).expect_err("latched");
        assert!(
            matches!(err, ServeError::SessionEvicted(e) if e == a),
            "{err}"
        );
        // b is still restorable.
        assert!(m.submit(b, UserResponse::Discard).is_ok());
    }

    #[test]
    fn admission_control_refuses_past_the_bound() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config().with_max_sessions(2), handle()).expect("manager");
        let (a, _) = m.open(&q).expect("a");
        let _ = m.open(&q).expect("b");
        let err = m.open(&q).expect_err("denied");
        assert!(
            matches!(err, ServeError::AdmissionDenied { live: 2, max: 2 }),
            "{err}"
        );
        // Closing a session frees a slot.
        m.close(a).expect("close");
        assert!(m.open(&q).is_ok());
    }

    #[test]
    fn unknown_and_closed_sessions_are_typed_errors() {
        let m = SessionManager::new(config(), handle()).expect("manager");
        let ghost = SessionId(99);
        assert!(matches!(
            m.submit(ghost, UserResponse::Discard).expect_err("ghost"),
            ServeError::UnknownSession(_)
        ));
        assert!(matches!(
            m.close(ghost).expect_err("ghost close"),
            ServeError::UnknownSession(_)
        ));
        let (id, _) = m.open(&[50.0; 8]).expect("open");
        m.close(id).expect("close");
        assert!(matches!(
            m.submit(id, UserResponse::Discard).expect_err("closed"),
            ServeError::UnknownSession(_)
        ));
    }

    #[test]
    fn record_profiles_and_zero_residency_are_refused_up_front() {
        let bad = ServeConfig::new(SearchConfig {
            record_profiles: true,
            ..SearchConfig::default()
        });
        let err = SessionManager::new(bad, handle()).err().expect("refused");
        assert!(err.to_string().contains("record_profiles"), "{err}");
        let err = SessionManager::new(config().with_max_resident(0), handle())
            .err()
            .expect("refused");
        assert!(err.to_string().contains("max_resident"), "{err}");
    }

    #[test]
    fn suspend_then_pending_view_round_trips() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, step) = m.open(&q).expect("open");
        let before = step.view().expect("first view").clone();
        m.suspend(id).expect("suspend");
        assert_eq!(m.hot_len(), 0);
        assert_eq!(m.warm_len(), 1);
        // Reconnect: the restored pending view is the same view.
        let after = m.pending_view(id).expect("pending");
        assert_eq!(before.context().major, after.context().major);
        assert_eq!(before.context().minor, after.context().minor);
        assert_eq!(before.context().original_ids, after.context().original_ids);
        let (bp, ap) = (before.profile(), after.profile());
        assert_eq!(
            bp.query_density().to_bits(),
            ap.query_density().to_bits(),
            "restored view is bit-identical"
        );
        assert_eq!(bp.max_density().to_bits(), ap.max_density().to_bits());
        // Suspending a warm session is a no-op.
        m.suspend(id).expect("idempotent");
    }

    #[test]
    fn concurrent_submits_survive_eviction_churn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = vec![50.0; 8];
        // Serial reference outcome (all sessions share the same query).
        let reference = {
            let m = SessionManager::new(config(), handle()).expect("manager");
            let (id, step) = m.open(&q).expect("open");
            drive_to_done(&m, id, step)
        };
        // 8 worker sessions over a 2-slot hot tier while a churn thread
        // hammers suspend(), aiming for the window between checkout and
        // the slot lock: a submit landing on an engine the evictor just
        // snapshotted would lose the response and replay stale state.
        let m = Arc::new(
            SessionManager::new(config().with_max_resident(2), handle()).expect("manager"),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for raw in 1..=8u64 {
                        let _ = m.suspend(SessionId(raw));
                    }
                    std::thread::yield_now();
                }
            })
        };
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                let q = q.clone();
                std::thread::spawn(move || {
                    let (id, step) = m.open(&q).expect("open");
                    drive_to_done(&m, id, step)
                })
            })
            .collect();
        for w in workers {
            let outcome = w.join().expect("worker");
            assert_eq!(outcome.neighbors, reference.neighbors);
            for (a, b) in outcome.probabilities.iter().zip(&reference.probabilities) {
                assert_eq!(a.to_bits(), b.to_bits(), "a submit was lost to eviction");
            }
        }
        stop.store(true, Ordering::Relaxed);
        churn.join().expect("churn");
        assert_eq!(m.live_sessions(), 0, "all sessions finished");
        assert_eq!(m.warm_len(), 0, "retired sessions left warm snapshots");
    }

    #[test]
    fn retire_never_checked_out_counts_and_leaves_no_pin() {
        let recorder = Arc::new(hinn_obs::SessionRecorder::new());
        let _guard = hinn_obs::install(recorder.clone());
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, step) = m.open(&q).expect("open");
        assert!(!step.is_done());
        // The session was never checked out (no submit, no pending_view):
        // retiring it must still count and fully clear its state.
        m.retire(id).expect("retire");
        assert_eq!(recorder.report().counter("session.retired"), 1);
        assert_eq!(m.live_sessions(), 0);
        assert_eq!(m.hot_len(), 0);
        assert_eq!(m.warm_len(), 0, "no resurrectable snapshot left behind");
        assert_eq!(m.pinned_len(), 0, "no stale lease pin on the tombstone");
        let err = m.submit(id, UserResponse::Discard).expect_err("tombstone");
        assert!(matches!(err, ServeError::SessionFinished(e) if e == id));
        // Idempotent on the tombstone: no recount.
        m.retire(id).expect("idempotent");
        assert_eq!(recorder.report().counter("session.retired"), 1);
        // Unknown ids stay typed errors.
        assert!(matches!(
            m.retire(SessionId(999)).expect_err("ghost"),
            ServeError::UnknownSession(_)
        ));
    }

    #[test]
    fn retire_during_inflight_submit_leaves_no_stale_pin() {
        let q = vec![50.0; 8];
        let m = Arc::new(SessionManager::new(config(), handle()).expect("manager"));
        let (id, _) = m.open(&q).expect("open");
        // Race retire against a submit that holds the slot lease: whoever
        // loses, the pin table must end empty (a tombstone pinned by a
        // stale lease would wedge eviction accounting forever).
        let worker = {
            let m = m.clone();
            std::thread::spawn(move || {
                let _ = m.submit(id, UserResponse::Discard);
            })
        };
        let _ = m.retire(id);
        worker.join().expect("submit thread");
        let _ = m.retire(id);
        assert_eq!(m.pinned_len(), 0, "stale lease pin survived retirement");
        assert_eq!(m.live_sessions(), 0);
    }

    #[test]
    fn open_with_override_survives_the_warm_tier() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        // A degraded session: coarser grid, single minor per major — the
        // shed ladder's configuration, distinct from the manager's base.
        let degraded = SearchConfig {
            grid_n: 16,
            ..config().search.clone().with_max_minors(1)
        };
        let (id, step) = m.open_with(&q, degraded.clone()).expect("open_with");
        assert!(!step.is_done());
        m.suspend(id).expect("suspend");
        // Without the per-session override the restore would run under the
        // base config and the snapshot fingerprint would refuse it.
        let step = m.submit(id, UserResponse::Discard).expect("restore");
        let _ = step;
        // The degraded session runs 1 minor per major: its first view after
        // one submit is already major 1.
        let view = m.pending_view(id).expect("pending");
        assert_eq!(
            view.context().major,
            1,
            "max_minors=1 skipped to next major"
        );
        // Reference: the same degraded config run in-process must agree.
        let m2 = SessionManager::new(ServeConfig::new(degraded), handle()).expect("manager2");
        let (id2, _) = m2.open(&q).expect("open");
        let _ = m2.submit(id2, UserResponse::Discard).expect("submit");
        let v2 = m2.pending_view(id2).expect("pending");
        assert_eq!(
            view.profile().query_density().to_bits(),
            v2.profile().query_density().to_bits(),
            "override session is bit-identical to a base session of that config"
        );
        // Invalid overrides are refused up front, typed.
        let bad = SearchConfig {
            grid_n: 2,
            ..SearchConfig::default()
        };
        assert!(matches!(
            m.open_with(&q, bad).expect_err("invalid override"),
            ServeError::Engine(HinnError::InvalidInput { .. })
        ));
        let recording = SearchConfig::default().recording_profiles();
        assert!(m.open_with(&q, recording).is_err());
    }

    #[test]
    fn submit_at_guards_against_duplicate_delivery() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, step) = m.open(&q).expect("open");
        let view = step.view().expect("first view");
        let cursor = (view.context().major, view.context().minor);
        // First delivery applies.
        let step = m
            .submit_at(id, cursor, UserResponse::Discard)
            .expect("first delivery");
        assert!(!step.is_done());
        // A retry of the *same* cursor (duplicate delivery after a torn
        // reply) is refused with the actual cursor, and nothing advances.
        let err = m
            .submit_at(id, cursor, UserResponse::Discard)
            .expect_err("duplicate");
        let ServeError::CursorMismatch {
            session,
            major,
            minor,
        } = err
        else {
            panic!("expected CursorMismatch, got {err}");
        };
        assert_eq!(session, id);
        let pending = m.pending_view(id).expect("pending");
        assert_eq!((major, minor), {
            let c = pending.context();
            (c.major, c.minor)
        });
        assert_ne!((major, minor), cursor, "cursor advanced exactly once");
        // Submitting at the *actual* cursor proceeds.
        assert!(m
            .submit_at(id, (major, minor), UserResponse::Discard)
            .is_ok());
    }

    #[test]
    fn suspend_all_flushes_every_idle_hot_session() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (a, _) = m.open(&q).expect("a");
        let (b, _) = m.open(&q).expect("b");
        assert_eq!(m.hot_len(), 2);
        assert_eq!(m.suspend_all(), 2);
        assert_eq!(m.hot_len(), 0);
        assert_eq!(m.warm_len(), 2);
        // Both sessions resume transparently afterwards.
        assert!(m.pending_view(a).is_ok());
        assert!(m.pending_view(b).is_ok());
    }

    #[test]
    fn report_incident_freezes_a_postmortem_without_killing_the_session() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, _) = m.open(&q).expect("open");
        m.report_incident(id, "client disconnected mid-submit");
        let pms = m.take_postmortems();
        assert_eq!(pms.len(), 1);
        assert!(pms[0].reason.contains("disconnected"), "{}", pms[0].reason);
        assert!(matches!(
            pms[0].events.last(),
            Some(SessionEvent::Failed { error }) if error.contains("disconnected")
        ));
        // The session survived the incident.
        assert!(m.submit(id, UserResponse::Discard).is_ok());
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<SessionManager>();
    }

    #[test]
    fn deadline_failure_dumps_a_postmortem() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(
            config().with_session_deadline(Duration::from_secs(3600)),
            handle(),
        )
        .expect("manager");
        let (id, step) = m.open(&q).expect("open");
        assert!(!step.is_done());
        assert!(
            m.take_postmortems().is_empty(),
            "healthy open dumps nothing"
        );
        let plan = Arc::new(
            hinn_fault::FaultPlan::new().with("search.deadline", hinn_fault::FaultMode::Always),
        );
        let err = {
            let _g = hinn_fault::install_local(plan);
            m.submit(id, UserResponse::Discard).expect_err("deadline")
        };
        assert!(
            matches!(err, ServeError::Engine(HinnError::Deadline { .. })),
            "{err}"
        );
        let pms = m.take_postmortems();
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert_eq!(pm.session, id.raw());
        assert!(pm.reason.contains("deadline"), "{}", pm.reason);
        assert!(matches!(
            pm.events.first(),
            Some(SessionEvent::Opened { .. })
        ));
        assert!(pm
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::Submitted { .. })));
        assert!(matches!(
            pm.events.last(),
            Some(SessionEvent::Failed { .. })
        ));
        let json = pm.to_json();
        assert!(json.contains("\"type\":\"failed\""), "{json}");
        // Drained: a second take sees nothing.
        assert!(m.take_postmortems().is_empty());
        assert_eq!(m.live_sessions(), 0, "failed session left the table");
    }

    #[test]
    fn panic_during_submit_dumps_and_retires() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, _) = m.open(&q).expect("open");
        let plan = Arc::new(
            hinn_fault::FaultPlan::new().with("search.panic", hinn_fault::FaultMode::Once),
        );
        let caught = {
            let _g = hinn_fault::install_local(plan);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = m.submit(id, UserResponse::Discard);
            }))
        };
        assert!(caught.is_err(), "panic propagates to the caller");
        let pms = m.take_postmortems();
        assert_eq!(pms.len(), 1);
        assert!(pms[0].reason.contains("panic"), "{}", pms[0].reason);
        assert!(
            matches!(pms[0].events.last(), Some(SessionEvent::Failed { error }) if error.contains("search.panic")),
            "black box records the panic text"
        );
        // The poisoned session is retired, not wedged.
        let err = m.submit(id, UserResponse::Discard).expect_err("spent");
        assert!(matches!(err, ServeError::SessionFinished(_)), "{err}");
        assert_eq!(m.live_sessions(), 0);
    }

    #[test]
    fn ingest_and_delete_advance_the_epoch_but_not_open_sessions() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (e0, fp0) = m.current_epoch();
        assert_eq!(e0, 200, "one row-op per planted row");
        let (id, _) = m.open(&q).expect("open");
        assert_eq!(m.session_epoch(id).expect("pin"), (e0, fp0));
        // Ingest moves the handle; the open session's pin stays put.
        let (e1, fp1) = m.ingest(&[vec![1.0; 8], vec![2.0; 8]]).expect("ingest");
        assert_eq!(e1, e0 + 2);
        assert_ne!(fp1, fp0);
        assert_eq!(m.current_epoch(), (e1, fp1));
        assert_eq!(m.session_epoch(id).expect("pin"), (e0, fp0));
        // The key regression: a warm-tier bounce after ingestion restores
        // against the *pinned* epoch instead of tripping EpochMismatch.
        m.suspend(id).expect("suspend");
        let step = m.submit(id, UserResponse::Discard).expect("restore");
        assert!(!step.is_done());
        assert_eq!(m.session_epoch(id).expect("pin"), (e0, fp0));
        // Deletes advance the chain too, and a new session pins the
        // moved epoch (fewer alive rows, same dimensionality).
        let (e2, _) = m.delete(&[150, 151]).expect("delete");
        assert_eq!(e2, e1 + 2);
        let (id2, _) = m.open(&q).expect("open on new epoch");
        assert_eq!(m.session_epoch(id2).expect("pin").0, e2);
        // Invalid batches are typed refusals that leave the epoch alone.
        let err = m.ingest(&[vec![f64::NAN; 8]]).expect_err("non-finite");
        assert!(
            matches!(&err, ServeError::Engine(HinnError::InvalidInput { phase, .. })
                if *phase == "serve.ingest"),
            "{err}"
        );
        let err = m.delete(&[9999]).expect_err("unknown id");
        assert!(
            matches!(&err, ServeError::Engine(HinnError::InvalidInput { phase, .. })
                if *phase == "serve.delete"),
            "{err}"
        );
        assert_eq!(m.current_epoch().0, e2, "failed ops moved the epoch");
        // Finished/closed sessions drop their pin.
        m.close(id).expect("close");
        assert!(matches!(
            m.session_epoch(id).expect_err("pin gone"),
            ServeError::UnknownSession(_)
        ));
    }

    #[test]
    fn rebase_carries_a_session_onto_the_current_epoch() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(config(), handle()).expect("manager");
        let (id, _) = m.open(&q).expect("open");
        let (e0, fp0) = m.session_epoch(id).expect("pin");
        // Rebasing a current session is a no-op handing back the view.
        let step = m.rebase(id).expect("no-op rebase");
        assert!(!step.is_done());
        assert_eq!(m.session_epoch(id).expect("pin"), (e0, fp0));
        // Move the dataset: new noise rows, two noise deletions.
        m.ingest(&[vec![90.0; 8], vec![10.0; 8]]).expect("ingest");
        let (e1, fp1) = m.delete(&[180, 181]).expect("delete");
        let step = m.rebase(id).expect("rebase");
        assert!(!step.is_done());
        assert_eq!(m.session_epoch(id).expect("pin"), (e1, fp1));
        // The rebased session keeps serving: warm bounce + run to done.
        m.suspend(id).expect("suspend");
        let view = m.pending_view(id).expect("restored on the new pin");
        let step = Step::NeedResponse(view);
        let outcome = drive_to_done(&m, id, step);
        assert!(!outcome.neighbors.is_empty());
        // The black box recorded the remap.
        let (id2, _) = m.open(&q).expect("open");
        m.ingest(&[vec![3.0; 8]]).expect("ingest");
        m.rebase(id2).expect("rebase");
        m.report_incident(id2, "inspect ring");
        let pms = m.take_postmortems();
        assert!(
            pms[0].events.iter().any(|e| matches!(
                e,
                SessionEvent::Rebased { from_epoch, onto_epoch }
                    if *onto_epoch == from_epoch + 1
            )),
            "rebase event missing from the ring"
        );
    }

    #[test]
    fn postmortem_records_tier_moves() {
        let q = vec![50.0; 8];
        let m = SessionManager::new(
            config().with_session_deadline(Duration::from_secs(3600)),
            handle(),
        )
        .expect("manager");
        let (id, _) = m.open(&q).expect("open");
        m.suspend(id).expect("suspend");
        // This submit transparently restores the warm session.
        let step = m.submit(id, UserResponse::Discard).expect("restore");
        assert!(!step.is_done());
        // The next one fails on the forced deadline, freezing the ring.
        let plan = Arc::new(
            hinn_fault::FaultPlan::new().with("search.deadline", hinn_fault::FaultMode::Always),
        );
        {
            let _g = hinn_fault::install_local(plan);
            let _ = m.submit(id, UserResponse::Discard);
        }
        let pms = m.take_postmortems();
        assert_eq!(pms.len(), 1);
        let kinds: Vec<&SessionEvent> = pms[0].events.iter().collect();
        assert!(kinds.iter().any(|e| matches!(e, SessionEvent::Suspended)));
        assert!(kinds.iter().any(|e| matches!(e, SessionEvent::Restored)));
    }
}
