//! The TCP front-end: accept loop, per-connection deadlines, admission →
//! backpressure, shedding, and graceful drain.
//!
//! One thread accepts; each connection gets a worker thread (connections
//! are *bounded*, so the thread count is too — a refused connection gets
//! a typed `overloaded` reply, not a silent queue). Workers run a strict
//! read-dispatch-reply loop over [`crate::frame`] frames; every failure
//! mode maps to a typed reply, a typed close, or a recorded incident:
//!
//! | wire event                      | outcome                                             |
//! |---------------------------------|-----------------------------------------------------|
//! | clean close on a boundary       | worker exits, sessions stay live (warm tier)        |
//! | corrupt frame (checksum)        | `err kind=frame`, connection stays open             |
//! | oversized frame                 | `err kind=frame`, connection closed (misaligned)    |
//! | torn inbound frame              | incident postmortem, connection closed              |
//! | idle past the read deadline     | `net.idle_closed`, connection closed                |
//! | stall mid-frame past deadline   | incident postmortem, `net.stalled_read`, closed     |
//! | unparseable payload             | `err kind=parse` with the typed detail              |
//! | disconnect mid-submit (fault)   | incident + suspend; outcome retained for refetch    |
//!
//! Submits are guarded by the `(major, minor)` cursor
//! (`SessionManager::submit_at`), so at-least-once delivery from a
//! retrying client becomes at-most-once application; a duplicate submit
//! gets the *current* pending view back (resync), and a `Done` outcome is
//! retained in a bounded FIFO so a client that lost the reply can refetch
//! it with `view`.
//!
//! Opens pass three gates in order: the shedding ladder
//! ([`crate::shed`], which degrades before refusing), the per-tenant
//! governor ([`crate::fairness`]), and the manager's own admission bound.
//! Refusals are typed `overloaded` / `quota` replies with deterministic
//! retry hints — backpressure on the wire, not dropped connections.
//!
//! [`ServerHandle::shutdown`] drains gracefully: stop accepting, unblock
//! every worker's read, let in-flight requests complete, flush all hot
//! sessions to warm snapshots (`suspend_all`), and emit the accumulated
//! postmortems to stderr.

use crate::fairness::{AdmitError, TenantGovernor};
use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{
    error_reply, parse_request, render_reply, DoneSummary, EpochSummary, ErrorKind, ParseError,
    Reply, Request, StatsSummary, ViewSummary, WireError,
};
use crate::shed::{degrade, ShedLevel, ShedPolicy};
use hinn_core::{DatasetHandle, HinnError};
use hinn_serve::{ServeConfig, ServeError, SessionId, SessionManager, Step, ViewRequest};
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of the TCP front-end around a [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// The session-manager configuration behind the listener.
    pub serve: ServeConfig,
    /// Address to bind (`127.0.0.1:0` by default: loopback, ephemeral
    /// port — read the actual address off the handle).
    pub addr: String,
    /// Maximum concurrent connections; the accept loop refuses past this
    /// with a typed `overloaded` reply (bounded worker threads).
    pub max_connections: usize,
    /// Per-frame payload bound.
    pub max_frame: usize,
    /// Per-read deadline. An idle connection is closed at this deadline;
    /// a read stalling *mid-frame* is recorded as a peer incident.
    pub read_timeout: Duration,
    /// Per-write deadline.
    pub write_timeout: Duration,
    /// Open sessions one tenant may hold.
    pub tenant_quota: usize,
    /// The overload-shedding ladder.
    pub shed: ShedPolicy,
    /// `Done` outcomes retained for refetch after a lost reply.
    pub retain_outcomes: usize,
    /// Base retry hint for refusals, milliseconds.
    pub retry_after_ms: u64,
}

impl NetServerConfig {
    /// Defaults around `serve`: loopback ephemeral port, 64 connections,
    /// 1 MiB frames, 5 s read / 5 s write deadlines, tenant quota 32,
    /// default shed ladder, 256 retained outcomes, 25 ms retry hint.
    pub fn new(serve: ServeConfig) -> Self {
        Self {
            serve,
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            tenant_quota: 32,
            shed: ShedPolicy::default(),
            retain_outcomes: 256,
            retry_after_ms: 25,
        }
    }

    /// Bound concurrent connections.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Set both socket deadlines.
    pub fn with_deadlines(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Bound per-tenant open sessions.
    pub fn with_tenant_quota(mut self, n: usize) -> Self {
        self.tenant_quota = n.max(1);
        self
    }

    /// Replace the shedding ladder.
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Bound the retained-outcome FIFO.
    pub fn with_retained_outcomes(mut self, n: usize) -> Self {
        self.retain_outcomes = n;
        self
    }
}

/// What a graceful drain accomplished.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Hot sessions flushed to warm snapshots.
    pub flushed: usize,
    /// Postmortems emitted to stderr during the drain.
    pub postmortems: usize,
}

/// Retained `Done` summaries: bounded FIFO keyed by session id.
struct OutcomeStore {
    map: HashMap<u64, DoneSummary>,
    order: VecDeque<u64>,
    cap: usize,
}

impl OutcomeStore {
    fn insert(&mut self, done: DoneSummary) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(done.session, done.clone()).is_none() {
            self.order.push_back(done.session);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, session: u64) -> Option<DoneSummary> {
        self.map.get(&session).cloned()
    }

    fn remove(&mut self, session: u64) {
        if self.map.remove(&session).is_some() {
            self.order.retain(|&s| s != session);
        }
    }
}

/// State shared by the accept loop, every worker, and the handle.
struct Shared {
    manager: SessionManager,
    governor: TenantGovernor,
    config: NetServerConfig,
    stop: AtomicBool,
    conns: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Worker stream clones, so shutdown can unblock their reads.
    streams: Mutex<Vec<TcpStream>>,
    outcomes: Mutex<OutcomeStore>,
    /// session → tenant, for releasing the governor reservation when the
    /// session ends (done, closed, retired, evicted, failed).
    tenants: Mutex<HashMap<u64, String>>,
    /// session → shed level it was opened under (advertised on views).
    shed_of: Mutex<HashMap<u64, u8>>,
}

impl Shared {
    fn release_session(&self, session: u64) {
        let tenant = self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session);
        if let Some(tenant) = tenant {
            self.governor.release(&tenant);
        }
        self.shed_of
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session);
    }

    fn shed_level_of(&self, session: u64) -> u8 {
        self.shed_of
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&session)
            .copied()
            .unwrap_or(0)
    }

    fn current_level(&self) -> ShedLevel {
        self.config
            .shed
            .level_for(self.manager.live_sessions(), self.config.serve.max_sessions)
    }
}

/// The front-end constructor. [`NetServer::bind`] returns a running
/// [`ServerHandle`].
pub struct NetServer;

impl NetServer {
    /// Bind the listener over the epoch-versioned dataset behind `data`,
    /// start the accept loop, and return the handle. The wire's `ingest`
    /// / `delete` / `epoch` / `rebase` verbs operate on this handle; open
    /// sessions answer from the epoch they pinned at open.
    ///
    /// # Errors
    /// [`HinnError`] when the serve configuration is invalid; the bind
    /// failure is wrapped the same way (`phase: "net.bind"`).
    pub fn bind(config: NetServerConfig, data: DatasetHandle) -> Result<ServerHandle, HinnError> {
        let manager = SessionManager::new(config.serve.clone(), data)?;
        let listener = TcpListener::bind(&config.addr).map_err(|e| HinnError::InvalidInput {
            phase: "net.bind",
            message: format!("cannot bind {}: {e}", config.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| HinnError::InvalidInput {
            phase: "net.bind",
            message: format!("no local addr: {e}"),
        })?;
        let governor = TenantGovernor::new(
            config.serve.max_sessions,
            config.tenant_quota,
            // Fairness from the same occupancy the shed ladder first
            // reacts at: scarcity and degradation begin together.
            ((config.serve.max_sessions as f64) * config.shed.l1_at.min(1.0)) as usize,
        );
        let retain = config.retain_outcomes;
        let shared = Arc::new(Shared {
            manager,
            governor,
            config,
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            streams: Mutex::new(Vec::new()),
            outcomes: Mutex::new(OutcomeStore {
                map: HashMap::new(),
                order: VecDeque::new(),
                cap: retain,
            }),
            tenants: Mutex::new(HashMap::new()),
            shed_of: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hinn-net-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(|e| HinnError::InvalidInput {
                phase: "net.bind",
                message: format!("cannot spawn accept thread: {e}"),
            })?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running front-end. Dropping the handle without
/// [`shutdown`](Self::shutdown) leaves the threads running detached;
/// call `shutdown` for the graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager behind the listener (tests inspect tiers and
    /// postmortems through this).
    pub fn manager(&self) -> &SessionManager {
        &self.shared.manager
    }

    /// The shed level a new open would currently be admitted under.
    pub fn current_shed_level(&self) -> ShedLevel {
        self.shared.current_level()
    }

    /// Graceful drain: stop accepting, unblock and join every worker
    /// (in-flight requests complete — a worker only exits between
    /// frames), flush all hot sessions to warm snapshots, and emit the
    /// accumulated postmortems to stderr as one-line JSON.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Unblock every worker's pending read; writes still complete.
        for stream in self
            .shared
            .streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let workers = std::mem::take(
            &mut *self
                .shared
                .workers
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for w in workers {
            let _ = w.join();
        }
        let flushed = self.shared.manager.suspend_all();
        hinn_obs::counter("net.drain.suspended", flushed as u64);
        let postmortems = self.shared.manager.take_postmortems();
        for p in &postmortems {
            eprintln!("{}", p.to_json());
        }
        DrainReport {
            flushed,
            postmortems: postmortems.len(),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if shared.conns.load(Ordering::SeqCst) >= shared.config.max_connections {
            // Bounded accept: typed refusal, not a silent queue.
            hinn_obs::counter("net.conn.refused", 1);
            refuse_connection(shared, stream);
            continue;
        }
        hinn_obs::counter("net.conn.accepted", 1);
        shared.conns.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared
                .streams
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(clone);
        }
        let worker_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hinn-net-worker".to_string())
            .spawn(move || {
                worker(&worker_shared, stream);
                worker_shared.conns.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => shared
                .workers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle),
            Err(_) => {
                // Spawn failure: undo the slot; the stream was moved into
                // the failed closure and is gone, which the client sees as
                // a transport error — a typed outcome on its side.
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn refuse_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let reply = error_reply(
        ErrorKind::Overloaded,
        Some(shared.config.retry_after_ms),
        format!(
            "connection limit reached ({} connections)",
            shared.config.max_connections
        ),
    );
    let _ = write_frame(&mut stream, &render_reply(&reply), shared.config.max_frame);
}

/// What the worker does after sending (or deliberately not sending) the
/// reply for one request.
enum After {
    /// Keep serving this connection.
    Continue,
    /// Close it (misaligned stream, injected disconnect, drain).
    Close,
    /// Close *without* replying (the injected mid-submit disconnect).
    CloseSilently,
}

fn worker(shared: &Arc<Shared>, mut stream: TcpStream) {
    let peer = stream.peer_addr().ok();
    serve_connection(shared, &mut stream);
    // The accept loop registered a clone of this stream so a drain can
    // unblock the read; dropping only our copy would leave the socket
    // half-open (the peer never sees the close) and the registry growing
    // without bound. Shut the socket down for real and deregister.
    let _ = stream.shutdown(Shutdown::Both);
    if let Some(peer) = peer {
        shared
            .streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| s.peer_addr().ok() != Some(peer));
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut last_session: Option<u64> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // The `net.stall` fault turns this read into a deadline expiry —
        // the deterministic stand-in for a peer that stops sending
        // mid-frame.
        let read = if hinn_fault::point("net.stall") {
            Err(FrameError::TimedOut { started: true })
        } else {
            read_frame(stream, shared.config.max_frame)
        };
        let payload = match read {
            Ok(p) => p,
            Err(FrameError::Closed) => return,
            Err(FrameError::TimedOut { started: false }) => {
                hinn_obs::counter("net.idle_closed", 1);
                return;
            }
            Err(FrameError::TimedOut { started: true }) => {
                hinn_obs::counter("net.stalled_read", 1);
                if let Some(id) = last_session {
                    shared.manager.report_incident(
                        SessionId::from_raw(id),
                        "read stalled mid-frame past the socket deadline",
                    );
                }
                return;
            }
            Err(FrameError::Truncated { .. }) => {
                hinn_obs::counter("net.torn_frame", 1);
                if let Some(id) = last_session {
                    shared
                        .manager
                        .report_incident(SessionId::from_raw(id), "inbound frame torn mid-stream");
                }
                return;
            }
            Err(e @ FrameError::Corrupt { .. }) => {
                // The payload was fully consumed, so the stream is still
                // frame-aligned: refuse this message, keep the connection.
                hinn_obs::counter("net.frame_error", 1);
                let reply = error_reply(ErrorKind::Frame, None, e.to_string());
                if send(shared, stream, &reply).is_err() {
                    return;
                }
                continue;
            }
            Err(e @ FrameError::Oversized { .. }) => {
                // The oversized payload was never consumed: the stream is
                // misaligned and must close after the typed refusal.
                hinn_obs::counter("net.frame_error", 1);
                let reply = error_reply(ErrorKind::Frame, None, e.to_string());
                let _ = send(shared, stream, &reply);
                return;
            }
            Err(_) => return,
        };
        hinn_obs::counter("net.req", 1);
        let (reply, after) = match parse_request(&payload) {
            Ok(req) => {
                if let Some(id) = req_session(&req) {
                    last_session = Some(id);
                }
                dispatch(shared, req)
            }
            Err(e) => {
                hinn_obs::counter("net.parse_error", 1);
                (parse_error_reply(&e), After::Continue)
            }
        };
        match after {
            After::CloseSilently => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            After::Continue | After::Close => {
                if send(shared, stream, &reply).is_err() {
                    return;
                }
                if matches!(after, After::Close) {
                    return;
                }
            }
        }
    }
}

fn send(shared: &Arc<Shared>, stream: &mut TcpStream, reply: &Reply) -> Result<(), FrameError> {
    write_frame(stream, &render_reply(reply), shared.config.max_frame)
}

fn req_session(req: &Request) -> Option<u64> {
    match req {
        Request::Submit { session, .. }
        | Request::View { session }
        | Request::Suspend { session }
        | Request::Close { session }
        | Request::Retire { session }
        | Request::Rebase { session } => Some(*session),
        Request::Open { .. }
        | Request::Ingest { .. }
        | Request::Delete { .. }
        | Request::Epoch
        | Request::Stats
        | Request::Ping => None,
    }
}

fn parse_error_reply(e: &ParseError) -> Reply {
    error_reply(ErrorKind::Parse, None, e.to_string())
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> (Reply, After) {
    match req {
        Request::Ping => (Reply::Pong, After::Continue),
        Request::Stats => (stats(shared), After::Continue),
        Request::Open { tenant, query } => open(shared, &tenant, &query),
        Request::Submit {
            session,
            major,
            minor,
            response,
        } => submit(shared, session, (major, minor), response),
        Request::View { session } => (view(shared, session), After::Continue),
        Request::Suspend { session } => (suspend(shared, session), After::Continue),
        Request::Close { session } => (close(shared, session), After::Continue),
        Request::Retire { session } => (retire(shared, session), After::Continue),
        Request::Ingest { rows, .. } => (ingest(shared, &rows), After::Continue),
        Request::Delete { ids, .. } => (delete(shared, &ids), After::Continue),
        Request::Epoch => (epoch(shared), After::Continue),
        Request::Rebase { session } => (rebase(shared, session), After::Continue),
    }
}

fn stats(shared: &Arc<Shared>) -> Reply {
    Reply::Stats(StatsSummary {
        live: shared.manager.live_sessions(),
        hot: shared.manager.hot_len(),
        warm: shared.manager.warm_len(),
        shed: shared.current_level().as_u8(),
    })
}

fn view_summary(shared: &Arc<Shared>, session: u64, request: &ViewRequest) -> ViewSummary {
    let ctx = request.context();
    let profile = request.profile();
    ViewSummary {
        session,
        major: ctx.major,
        minor: ctx.minor,
        alive: ctx.original_ids.len(),
        total: ctx.total_n,
        shed: shared.shed_level_of(session),
        query_density: profile.query_density(),
        max_density: profile.max_density(),
        // Every view advertises the epoch the session's answers are
        // relative to — a live session's pin, not the handle's current.
        epoch: shared
            .manager
            .session_epoch(SessionId::from_raw(session))
            .ok()
            .map(|(num, _)| num),
    }
}

/// Wrap a finished step: retain the outcome for refetch, release the
/// tenant reservation, build the reply.
fn finish(shared: &Arc<Shared>, session: u64, outcome: &hinn_serve::SearchOutcome) -> Reply {
    let done = DoneSummary {
        session,
        majors: outcome.majors_run,
        support: outcome.effective_support,
        degraded: outcome.degradations().len(),
        neighbors: outcome.neighbors.clone(),
        probabilities: outcome
            .neighbors
            .iter()
            .map(|&i| outcome.probabilities[i])
            .collect(),
    };
    shared
        .outcomes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(done.clone());
    shared.release_session(session);
    Reply::Done(done)
}

fn open(shared: &Arc<Shared>, tenant: &str, query: &[f64]) -> (Reply, After) {
    if shared.stop.load(Ordering::SeqCst) {
        return (
            error_reply(ErrorKind::Draining, None, "server is draining"),
            After::Close,
        );
    }
    let level = shared.current_level();
    if level == ShedLevel::Refuse {
        hinn_obs::counter("net.refused.overload", 1);
        return (
            error_reply(
                ErrorKind::Overloaded,
                Some(shared.config.retry_after_ms),
                format!(
                    "shed ladder refused at {}/{} open sessions",
                    shared.manager.live_sessions(),
                    shared.config.serve.max_sessions
                ),
            ),
            After::Continue,
        );
    }
    if let Err(e) = shared.governor.try_admit(tenant) {
        return (governor_refusal(shared, tenant, &e), After::Continue);
    }
    let opened = if level.is_degraded() {
        shared
            .manager
            .open_with(query, degrade(&shared.config.serve.search, level))
    } else {
        shared.manager.open(query)
    };
    let (id, step) = match opened {
        Ok(ok) => ok,
        Err(e) => {
            shared.governor.release(tenant);
            return (serve_error_reply(shared, None, &e), After::Continue);
        }
    };
    let raw = id.raw();
    shared
        .tenants
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(raw, tenant.to_string());
    if level.is_degraded() {
        match level {
            ShedLevel::L1 => hinn_obs::counter("net.shed.l1", 1),
            ShedLevel::L2 => hinn_obs::counter("net.shed.l2", 1),
            ShedLevel::L3 => hinn_obs::counter("net.shed.l3", 1),
            ShedLevel::L0 | ShedLevel::Refuse => {}
        }
        shared
            .shed_of
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(raw, level.as_u8());
        shared
            .manager
            .note_load_shed(id, level.as_u8(), "opened degraded by the net shed ladder");
    }
    match step {
        Step::NeedResponse(request) => (
            Reply::View(view_summary(shared, raw, &request)),
            After::Continue,
        ),
        Step::Done(outcome) => (finish(shared, raw, &outcome), After::Continue),
    }
}

fn governor_refusal(shared: &Arc<Shared>, tenant: &str, e: &AdmitError) -> Reply {
    let hint = shared.config.retry_after_ms;
    match e {
        AdmitError::QuotaExceeded { held, quota } => {
            hinn_obs::counter("net.refused.quota", 1);
            error_reply(
                ErrorKind::QuotaExceeded,
                Some(hint),
                format!("tenant {tenant} holds {held} of {quota} sessions"),
            )
        }
        AdmitError::Full { live, max } => {
            hinn_obs::counter("net.refused.overload", 1);
            error_reply(
                ErrorKind::Overloaded,
                Some(hint),
                format!("{live} open sessions (max {max})"),
            )
        }
        AdmitError::Deferred { held, min_held } => {
            hinn_obs::counter("net.refused.fairness", 1);
            error_reply(
                ErrorKind::Overloaded,
                Some(hint),
                format!(
                    "fairness deferral: tenant {tenant} holds {held}, another active tenant \
                     holds {min_held}"
                ),
            )
        }
    }
}

fn submit(
    shared: &Arc<Shared>,
    session: u64,
    cursor: (usize, usize),
    response: hinn_serve::UserResponse,
) -> (Reply, After) {
    let id = SessionId::from_raw(session);
    match shared.manager.submit_at(id, cursor, response) {
        Ok(step) => {
            let (reply, done) = match step {
                Step::NeedResponse(request) => {
                    (Reply::View(view_summary(shared, session, &request)), false)
                }
                Step::Done(outcome) => (finish(shared, session, &outcome), true),
            };
            // The `net.disconnect` fault fires *after* the compute and
            // *before* the reply: the canonical mid-submit disconnect. The
            // response was applied exactly once (cursor guard); the
            // outcome, if any, is already retained for refetch; a live
            // session is flushed to the warm tier so nothing is lost.
            if hinn_fault::point("net.disconnect") {
                hinn_obs::counter("net.disconnect_mid_submit", 1);
                shared
                    .manager
                    .report_incident(id, "client disconnected mid-submit (injected)");
                if !done {
                    let _ = shared.manager.suspend(id);
                }
                return (reply, After::CloseSilently);
            }
            (reply, After::Continue)
        }
        Err(ServeError::CursorMismatch { .. }) => {
            // Duplicate or out-of-sync delivery: nothing was applied.
            // Resync the client by replying with the *current* pending
            // view instead of an error.
            (view(shared, session), After::Continue)
        }
        Err(e) => (
            serve_error_reply(shared, Some(session), &e),
            After::Continue,
        ),
    }
}

fn view(shared: &Arc<Shared>, session: u64) -> Reply {
    let id = SessionId::from_raw(session);
    match shared.manager.pending_view(id) {
        Ok(request) => Reply::View(view_summary(shared, session, &request)),
        Err(e @ ServeError::SessionFinished(_)) => {
            // A finished session with a retained outcome answers `view`
            // with the outcome again — the refetch path after a lost
            // `done` reply.
            let retained = shared
                .outcomes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(session);
            match retained {
                Some(done) => Reply::Done(done),
                None => serve_error_reply(shared, Some(session), &e),
            }
        }
        Err(e) => serve_error_reply(shared, Some(session), &e),
    }
}

fn suspend(shared: &Arc<Shared>, session: u64) -> Reply {
    match shared.manager.suspend(SessionId::from_raw(session)) {
        Ok(()) => Reply::Suspended { session },
        Err(e) => serve_error_reply(shared, Some(session), &e),
    }
}

fn close(shared: &Arc<Shared>, session: u64) -> Reply {
    match shared.manager.close(SessionId::from_raw(session)) {
        Ok(()) => {
            shared.release_session(session);
            shared
                .outcomes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(session);
            Reply::Closed { session }
        }
        Err(e) => serve_error_reply(shared, Some(session), &e),
    }
}

fn retire(shared: &Arc<Shared>, session: u64) -> Reply {
    match shared.manager.retire(SessionId::from_raw(session)) {
        Ok(()) => {
            shared.release_session(session);
            Reply::Retired { session }
        }
        Err(e) => serve_error_reply(shared, Some(session), &e),
    }
}

fn ingest(shared: &Arc<Shared>, rows: &[Vec<f64>]) -> Reply {
    match shared.manager.ingest(rows) {
        Ok((epoch, fp)) => Reply::Epoch(EpochSummary {
            epoch,
            fingerprint: fp.0,
        }),
        Err(e) => serve_error_reply(shared, None, &e),
    }
}

fn delete(shared: &Arc<Shared>, ids: &[usize]) -> Reply {
    match shared.manager.delete(ids) {
        Ok((epoch, fp)) => Reply::Epoch(EpochSummary {
            epoch,
            fingerprint: fp.0,
        }),
        Err(e) => serve_error_reply(shared, None, &e),
    }
}

fn epoch(shared: &Arc<Shared>) -> Reply {
    let (epoch, fp) = shared.manager.current_epoch();
    Reply::Epoch(EpochSummary {
        epoch,
        fingerprint: fp.0,
    })
}

fn rebase(shared: &Arc<Shared>, session: u64) -> Reply {
    let id = SessionId::from_raw(session);
    match shared.manager.rebase(id) {
        Ok(Step::NeedResponse(request)) => Reply::View(view_summary(shared, session, &request)),
        Ok(Step::Done(outcome)) => finish(shared, session, &outcome),
        Err(e) => serve_error_reply(shared, Some(session), &e),
    }
}

/// Map a [`ServeError`] to its typed wire reply, releasing the tenant
/// reservation when the error means the session is gone for good.
fn serve_error_reply(shared: &Arc<Shared>, session: Option<u64>, e: &ServeError) -> Reply {
    let hint = shared.config.retry_after_ms;
    let (kind, retry) = match e {
        ServeError::AdmissionDenied { .. } => (ErrorKind::Overloaded, Some(hint)),
        ServeError::Overloaded { retry_after_ms, .. } => {
            (ErrorKind::Overloaded, Some(*retry_after_ms))
        }
        ServeError::UnknownSession(_) => (ErrorKind::UnknownSession, None),
        ServeError::SessionEvicted(_) => (ErrorKind::SessionEvicted, None),
        ServeError::SessionFinished(_) => (ErrorKind::SessionFinished, None),
        ServeError::Engine(HinnError::EpochMismatch { .. }) => (ErrorKind::EpochMismatch, None),
        ServeError::Engine(_) => (ErrorKind::Engine, None),
        ServeError::CursorMismatch { .. } => (ErrorKind::Internal, None),
    };
    // Evicted and engine-failed sessions are spent: free their tenant
    // slot so the refusals self-heal. An epoch mismatch is the exception:
    // the session's state is intact (nothing was applied) and `rebase`
    // is its documented way forward.
    let mismatch = matches!(kind, ErrorKind::EpochMismatch);
    if !mismatch
        && matches!(
            e,
            ServeError::SessionEvicted(_) | ServeError::Engine(_) | ServeError::SessionFinished(_)
        )
    {
        if let Some(session) = session {
            shared.release_session(session);
        }
    }
    // Every refusal is stamped with the dataset's current epoch, so an
    // epoch-aware client can reason about staleness without another
    // round trip.
    Reply::Error(WireError {
        kind,
        retry_after_ms: retry,
        epoch: Some(shared.manager.current_epoch().0),
        message: e.to_string(),
    })
}
