//! The three workloads: set-up, the closed-loop measuring window, the
//! correctness checks and the freshness probes.

use crate::inputs::Inputs;
use crate::report::quantile;
use crate::session::{self, ms_since, Outcome, Trip};
use crate::speed::Reference;
use hinn::core::{CandidateSource, DatasetHandle, Parallelism, SearchConfig};
use hinn::net::{NetClient, NetServer, NetServerConfig, Reply, Request, ServerHandle};
use hinn::obs::{span, SessionRecorder, TelemetryReport};
use hinn::serve::{ServeConfig, SessionManager};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Thread budget of every workload (see the README for why).
pub const THREADS: usize = 1;

/// Socket deadlines: far above any view, so a deadline is a real failure.
const DEADLINE: Duration = Duration::from_secs(60);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-scan sessions in process: core, kde and linalg do the work.
    ScanCase2,
    /// HNSW-seeded sessions over loopback, two clients, 32 hot queries.
    WireHnswHot,
    /// Delete, ingest, then one fresh session per round, one client.
    IngestStream,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [Self::ScanCase2, Self::WireHnswHot, Self::IngestStream];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::ScanCase2 => "scan_case2",
            Self::WireHnswHot => "wire_hnsw_hot",
            Self::IngestStream => "ingest_stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn over_wire(self) -> bool {
        self != Self::ScanCase2
    }
}

/// How long the measuring window runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Wall-clock seconds (the benchmark proper).
    Seconds(f64),
    /// A fixed number of sessions (smoke runs, whose work counters must
    /// repeat exactly).
    Sessions(usize),
}

/// Everything one run is parameterised by.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Rows in the initial dataset.
    pub n: usize,
    /// Closed-loop client count.
    pub clients: usize,
    /// Size of the repeated query set (`None`: distinct queries).
    pub hot: Option<usize>,
    /// Rows per ingest (Δ), in stream rounds and freshness probes.
    pub delta: usize,
    /// Oldest streamed rows deleted per stream round.
    pub deletes: usize,
    /// Stream rows generated up front.
    pub stream_rows: usize,
    /// Measuring window.
    pub budget: Budget,
    /// Ingest-then-open probes after the window (non-stream workloads).
    pub fresh_probes: usize,
    /// Sessions folded into the outcome digest; every run completes them.
    pub digest_sessions: usize,
    /// Wire sessions replayed in process and compared bit for bit.
    pub replay_sessions: usize,
}

impl Plan {
    /// The benchmark size of `workload`.
    pub fn full(workload: Workload, seed: u64, seconds: f64) -> Self {
        let (n, clients, hot) = match workload {
            Workload::ScanCase2 => (10_000, 1, None),
            Workload::WireHnswHot => (20_000, 2, Some(32)),
            Workload::IngestStream => (20_000, 1, None),
        };
        Self {
            workload,
            seed,
            n,
            clients,
            hot,
            delta: 16,
            deletes: 4,
            stream_rows: 8192,
            budget: Budget::Seconds(seconds),
            fresh_probes: 64,
            digest_sessions: 8,
            replay_sessions: 4,
        }
    }

    /// A small size for the benchmark's own tests: same code paths, a
    /// fixed session count instead of a time window.
    pub fn smoke(workload: Workload, seed: u64) -> Self {
        Self {
            n: if workload.over_wire() { 2_000 } else { 1_500 },
            hot: workload.over_wire().then_some(4),
            stream_rows: 256,
            budget: Budget::Sessions(4),
            fresh_probes: 2,
            digest_sessions: 4,
            replay_sessions: 2,
            ..Self::full(workload, seed, 0.0)
        }
    }

    /// The session search configuration.
    pub fn search(&self) -> SearchConfig {
        let candidates = if self.workload.over_wire() {
            CandidateSource::hnsw(400)
        } else {
            CandidateSource::Full
        };
        SearchConfig::default()
            .with_parallelism(Parallelism::fixed(THREADS))
            .with_candidate_source(candidates)
    }

    /// Generate this plan's inputs.
    pub fn inputs(&self) -> Inputs {
        Inputs::generate(self.n, self.stream_rows, self.hot, self.seed)
    }
}

/// The program under test, set up.
pub enum Served {
    /// A manager driven in process.
    InProc(Box<SessionManager>),
    /// A TCP front-end on loopback.
    Wire(ServerHandle),
}

impl Served {
    fn manager(&self) -> &SessionManager {
        match self {
            Served::InProc(m) => m,
            Served::Wire(s) => s.manager(),
        }
    }

    fn client(&self) -> NetClient {
        match self {
            Served::Wire(s) => NetClient::new(s.addr()).with_deadlines(DEADLINE, DEADLINE),
            Served::InProc(_) => unreachable!("in-process workloads have no wire client"),
        }
    }

    /// Stop the server (if any) and wait for its threads.
    pub fn shutdown(self) {
        if let Served::Wire(s) = self {
            s.shutdown();
        }
    }
}

/// A finished set-up and what it cost.
pub struct Setup {
    /// The program, ready for the first timed operation.
    pub served: Served,
    /// `DatasetHandle::new` through the end of warm-up, seconds.
    pub total_s: f64,
    /// `DatasetHandle::new` alone, seconds.
    pub handle_new_s: f64,
    /// Median reference time around the set-up, milliseconds.
    pub reference_ms: f64,
}

/// Reference runs before and after a set-up.
const SETUP_REFERENCES: usize = 16;

/// The program's own set-up calls: dataset handle, manager or server, and
/// one warm-up session (which builds the HNSW graph where there is one),
/// bracketed by runs of `reference`.
pub fn setup(plan: &Plan, inputs: &Inputs, reference: &Reference) -> Result<Setup, String> {
    let mut reference_ms = reference.sample(SETUP_REFERENCES);
    let t0 = Instant::now();
    let handle = {
        let _s = span("bench.handle_new");
        DatasetHandle::new(&inputs.base).map_err(|e| format!("DatasetHandle::new: {e}"))?
    };
    let handle_new_s = t0.elapsed().as_secs_f64();
    let serve = ServeConfig::new(plan.search());
    let served = if plan.workload.over_wire() {
        let _s = span("bench.bind");
        let config = NetServerConfig::new(serve).with_deadlines(DEADLINE, DEADLINE);
        Served::Wire(NetServer::bind(config, handle).map_err(|e| format!("bind: {e}"))?)
    } else {
        let _s = span("bench.manager_new");
        let mgr = SessionManager::new(serve, handle).map_err(|e| format!("manager: {e}"))?;
        Served::InProc(Box::new(mgr))
    };
    {
        let _s = span("bench.warmup");
        match &served {
            Served::InProc(m) => session::run_inproc(m, &inputs.warmup),
            Served::Wire(_) => session::run_wire(&mut served.client(), &inputs.warmup),
        }
        .map_err(|e| format!("warm-up: {e}"))?;
    }
    let total_s = t0.elapsed().as_secs_f64();
    reference_ms.extend(reference.sample(SETUP_REFERENCES));
    Ok(Setup {
        served,
        total_s,
        handle_new_s,
        reference_ms: quantile(&reference_ms, 0.5),
    })
}

/// One completed unit of closed-loop work: a session, plus the delete and
/// ingest that precede it in a stream round.
#[derive(Clone, Debug)]
pub struct Record {
    /// Session index (fixes the query and the digest order).
    pub index: usize,
    /// Window phase the record ran in.
    pub phase: usize,
    /// The session.
    pub trip: Trip,
    /// Start of the ingest to the first view at the new epoch.
    pub fresh_ms: Option<f64>,
    /// Ingest round trip.
    pub ingest_ms: Option<f64>,
    /// Delete round trip.
    pub delete_ms: Option<f64>,
    /// Mean of the reference runs just before and just after the round,
    /// milliseconds (set by the window loop).
    pub reference_ms: f64,
}

impl Record {
    /// Operations the record attempted.
    pub fn ops(&self) -> usize {
        self.trip.calls()
            + usize::from(self.ingest_ms.is_some())
            + usize::from(self.delete_ms.is_some())
    }
}

/// One closed-loop client.
trait Client: Send {
    fn round(&mut self, k: usize) -> Result<Record, String>;
}

struct InProcClient<'a> {
    mgr: &'a SessionManager,
    inputs: &'a Inputs,
}

impl Client for InProcClient<'_> {
    fn round(&mut self, k: usize) -> Result<Record, String> {
        let trip = session::run_inproc(self.mgr, self.inputs.query(k))?;
        Ok(record(k, trip))
    }
}

struct WireClient<'a> {
    client: NetClient,
    inputs: &'a Inputs,
}

impl Client for WireClient<'_> {
    fn round(&mut self, k: usize) -> Result<Record, String> {
        let trip = session::run_wire(&mut self.client, self.inputs.query(k))?;
        Ok(record(k, trip))
    }
}

/// The ingest client: each round deletes the oldest streamed rows, ingests
/// Δ new ones, then runs a session that must be pinned at the new epoch.
struct StreamClient<'a> {
    client: NetClient,
    inputs: &'a Inputs,
    delta: usize,
    deletes: usize,
    /// Global ids of streamed rows still alive, oldest first.
    streamed: std::collections::VecDeque<usize>,
    next_id: usize,
}

impl Client for StreamClient<'_> {
    fn round(&mut self, k: usize) -> Result<Record, String> {
        let mut delete_ms = None;
        if self.streamed.len() >= self.deletes {
            let ids: Vec<usize> = self.streamed.drain(..self.deletes).collect();
            let t = Instant::now();
            let req = Request::Delete {
                tenant: session::TENANT.to_string(),
                ids,
            };
            expect_epoch(session::call(&mut self.client, "bench.delete", &req)?)?;
            delete_ms = Some(ms_since(t));
        }
        let rows = self.inputs.stream_rows(k * self.delta, self.delta);
        let t_ingest = Instant::now();
        let req = Request::Ingest {
            tenant: session::TENANT.to_string(),
            rows,
        };
        let epoch = expect_epoch(session::call(&mut self.client, "bench.ingest", &req)?)?;
        let t_open = Instant::now();
        let ingest_ms = (t_open - t_ingest).as_secs_f64() * 1e3;
        self.streamed
            .extend(self.next_id..self.next_id + self.delta);
        self.next_id += self.delta;
        let trip = session::run_wire(&mut self.client, self.inputs.query(k))?;
        if trip.first_epoch != Some(epoch) {
            return Err(format!(
                "round {k}: session pinned at epoch {:?}, not the ingested {epoch}",
                trip.first_epoch
            ));
        }
        let fresh_ms = ingest_ms + trip.open_ms;
        Ok(Record {
            fresh_ms: Some(fresh_ms),
            ingest_ms: Some(ingest_ms),
            delete_ms,
            ..record(k, trip)
        })
    }
}

fn record(index: usize, trip: Trip) -> Record {
    Record {
        index,
        phase: 0,
        trip,
        fresh_ms: None,
        ingest_ms: None,
        delete_ms: None,
        reference_ms: 0.0,
    }
}

fn expect_epoch(reply: Reply) -> Result<u64, String> {
    match reply {
        Reply::Epoch(e) => Ok(e.epoch),
        other => Err(format!("expected an epoch reply, got {other:?}")),
    }
}

/// The closed-loop window's results.
pub struct Window {
    /// Completed rounds, sorted by session index.
    pub records: Vec<Record>,
    /// Wall time of each phase, seconds.
    pub phase_s: Vec<f64>,
    /// Failures (each stopped its client).
    pub errors: Vec<String>,
    /// Reference times, one after every round, milliseconds.
    pub reference_ms: Vec<f64>,
}

/// Run the closed loop in `phases` consecutive phases, installing
/// `recorder` for the phases marked `true`. Phase boundaries are barriers:
/// every client finishes its round first, so the recorder is switched
/// only while no span is open. Each client runs `reference` once after
/// every round.
fn run_window(
    plan: &Plan,
    served: &Served,
    inputs: &Inputs,
    phases: &[bool],
    recorder: &Arc<SessionRecorder>,
    reference: &Reference,
) -> Window {
    let mut clients: Vec<Box<dyn Client + '_>> = Vec::new();
    for _ in 0..plan.clients {
        clients.push(match (plan.workload, served) {
            (Workload::ScanCase2, Served::InProc(mgr)) => Box::new(InProcClient { mgr, inputs }),
            (Workload::WireHnswHot, _) => Box::new(WireClient {
                client: served.client(),
                inputs,
            }),
            (Workload::IngestStream, _) => Box::new(StreamClient {
                client: served.client(),
                inputs,
                delta: plan.delta,
                deletes: plan.deletes,
                streamed: Default::default(),
                next_id: plan.n,
            }),
            _ => unreachable!("set-up matches the workload"),
        });
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(plan.clients + 1);
    // (phase, deadline, end index) of the running phase.
    let target: Mutex<(usize, Option<Instant>, usize)> = Mutex::new((0, None, 0));
    let records = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let reference_ms = Mutex::new(Vec::new());
    let mut phase_s = Vec::new();
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, stop, barrier, target) = (&next, &stop, &barrier, &target);
            let (records, errors, reference_ms) = (&records, &errors, &reference_ms);
            scope.spawn(move || {
                for _ in phases {
                    barrier.wait();
                    let (phase, deadline, end) = *target.lock().expect("target lock");
                    let mut before = reference.time_ms();
                    let digest_floor = plan.digest_sessions;
                    let allowed = |k: usize| match deadline {
                        Some(d) => Instant::now() < d || k < digest_floor,
                        None => k < end,
                    };
                    while !stop.load(Ordering::SeqCst) {
                        let Ok(k) = next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| {
                            allowed(k).then_some(k + 1)
                        }) else {
                            break;
                        };
                        match client.round(k) {
                            Ok(r) => {
                                let after = reference.time_ms();
                                records.lock().expect("records lock").push(Record {
                                    phase,
                                    reference_ms: (before + after) / 2.0,
                                    ..r
                                });
                                reference_ms.lock().expect("reference lock").push(after);
                                before = after;
                            }
                            Err(e) => {
                                errors
                                    .lock()
                                    .expect("errors lock")
                                    .push(format!("session {k}: {e}"));
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    barrier.wait();
                }
            });
        }
        for (p, &traced) in phases.iter().enumerate() {
            let guard = traced.then(|| hinn::obs::install(recorder.clone()));
            let t = Instant::now();
            *target.lock().expect("target lock") = match plan.budget {
                Budget::Seconds(s) => {
                    let secs = s / phases.len() as f64;
                    (p, Some(t + Duration::from_secs_f64(secs)), 0)
                }
                Budget::Sessions(n) => (p, None, n * (p + 1) / phases.len()),
            };
            barrier.wait();
            barrier.wait();
            phase_s.push(t.elapsed().as_secs_f64());
            drop(guard);
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.index);
    Window {
        records,
        phase_s,
        errors: errors.into_inner().expect("errors lock"),
        reference_ms: reference_ms.into_inner().expect("reference lock"),
    }
}

/// Everything a run measured, before it is turned into metrics.
pub struct RunData {
    /// The plan that ran.
    pub plan: Plan,
    /// Own set-up time, seconds.
    pub setup_s: f64,
    /// Median reference time around the own set-up, milliseconds.
    pub setup_reference_ms: f64,
    /// Own `DatasetHandle::new` time, seconds.
    pub handle_new_s: f64,
    /// The window.
    pub window: Window,
    /// Which phases were traced.
    pub phases: Vec<bool>,
    /// Peak resident set when the window ended, megabytes.
    pub peak_rss_mb: f64,
    /// Freshness probe latencies (non-stream workloads, untraced runs).
    pub probe_fresh_ms: Vec<f64>,
    /// Per probe, the mean of the reference runs just before and just
    /// after it, milliseconds.
    pub probe_reference_ms: Vec<f64>,
    /// Operations attempted and failed outside the window (checks, probes).
    pub extra_ops: usize,
    /// Correctness failures outside the window.
    pub check_errors: Vec<String>,
    /// Digest of the first `digest_sessions` outcomes, in session order.
    pub digest: u64,
    /// Telemetry of the traced set-up (traced runs).
    pub setup_report: Option<TelemetryReport>,
    /// Telemetry of the traced phases (traced runs).
    pub window_report: Option<TelemetryReport>,
}

/// Run one workload: set up, measure, check, probe, tear down. A traced
/// run records the set-up and alternates untraced and traced phases.
pub fn run(plan: &Plan, traced: bool) -> Result<RunData, String> {
    let inputs = plan.inputs();
    let reference = Reference::default();
    let setup_rec = Arc::new(SessionRecorder::with_trace());
    let Setup {
        served,
        total_s,
        handle_new_s,
        reference_ms: setup_reference_ms,
    } = {
        let _guard = traced.then(|| hinn::obs::install(setup_rec.clone()));
        setup(plan, &inputs, &reference)?
    };
    let phases: Vec<bool> = if traced {
        vec![false, true, false, true]
    } else {
        vec![false]
    };
    let window_rec = Arc::new(SessionRecorder::with_trace());
    let window = run_window(plan, &served, &inputs, &phases, &window_rec, &reference);
    let peak_rss_mb = crate::report::peak_rss_mb();

    let mut check_errors = Vec::new();
    let mut extra_ops = 0;
    // Rows the served dataset has held: the base plus every ingest.
    let n_rows = plan.n + window.records.len() * plan.delta;
    for r in &window.records {
        if let Err(e) = r.trip.outcome.validate(n_rows) {
            check_errors.push(format!("session {}: {e}", r.index));
        }
    }
    let firsts: Vec<&Outcome> = window
        .records
        .iter()
        .take_while(|r| r.index < plan.digest_sessions)
        .map(|r| &r.trip.outcome)
        .collect();
    if window.errors.is_empty() && firsts.len() < plan.digest_sessions {
        check_errors.push(format!(
            "only {} of the {} digest sessions completed",
            firsts.len(),
            plan.digest_sessions
        ));
    }
    let digest = session::digest(firsts);

    if window.errors.is_empty() {
        let mgr = served.manager();
        match plan.workload {
            // A cold session and the same session on warm caches must
            // agree bit for bit.
            Workload::ScanCase2 => {
                if let Some(first) = window.records.first() {
                    extra_ops += first.trip.calls();
                    match session::run_inproc(mgr, inputs.query(first.index)) {
                        Ok(again) if same(&again.outcome, &first.trip.outcome) => {}
                        Ok(_) => check_errors.push("session 0 re-run differs".to_string()),
                        Err(e) => check_errors.push(format!("session 0 re-run: {e}")),
                    }
                }
            }
            // Sessions served over the wire must equal the same responses
            // replayed through the in-process manager.
            Workload::WireHnswHot => {
                for r in window.records.iter().take(plan.replay_sessions) {
                    extra_ops += r.trip.calls();
                    match session::replay_inproc(mgr, inputs.query(r.index), &r.trip.responses) {
                        Ok(t) if same(&t.outcome, &r.trip.outcome) => {}
                        Ok(_) => check_errors.push(format!("session {} replay differs", r.index)),
                        Err(e) => check_errors.push(format!("session {} replay: {e}", r.index)),
                    }
                }
            }
            Workload::IngestStream => {}
        }
    }

    let mut probe_fresh_ms = Vec::new();
    let mut probe_reference_ms = Vec::new();
    if !traced && window.errors.is_empty() && plan.workload != Workload::IngestStream {
        // The probes reuse the window's first queries, so every run probes
        // the same sessions however many the window completed; each ingest
        // moves the epoch, so no probe finds a cached result.
        let mut client = plan.workload.over_wire().then(|| served.client());
        let mut before = reference.time_ms();
        for i in 0..plan.fresh_probes {
            extra_ops += 3;
            let rows = inputs.stream_rows(i * plan.delta, plan.delta);
            match fresh_probe(&served, client.as_mut(), &rows, inputs.query(i)) {
                Ok(ms) => {
                    let after = reference.time_ms();
                    probe_fresh_ms.push(ms);
                    probe_reference_ms.push((before + after) / 2.0);
                    before = after;
                }
                Err(e) => {
                    check_errors.push(format!("freshness probe {i}: {e}"));
                    break;
                }
            }
        }
    }
    served.shutdown();

    Ok(RunData {
        plan: plan.clone(),
        setup_s: total_s,
        setup_reference_ms,
        handle_new_s,
        window,
        phases,
        peak_rss_mb,
        probe_fresh_ms,
        probe_reference_ms,
        extra_ops,
        check_errors,
        digest,
        setup_report: traced.then(|| setup_rec.report()),
        window_report: traced.then(|| window_rec.report()),
    })
}

/// Bit-identical outcomes.
fn same(a: &Outcome, b: &Outcome) -> bool {
    a.majors == b.majors && session::digest([a]) == session::digest([b])
}

/// Ingest `rows`, open a session on `query`, and time the ingest's start
/// to the first view pinned at the new epoch; then close the session.
/// Over the wire the probe speaks through `client`.
fn fresh_probe(
    served: &Served,
    client: Option<&mut NetClient>,
    rows: &[Vec<f64>],
    query: &[f64],
) -> Result<f64, String> {
    let t = Instant::now();
    match (served, client) {
        (Served::InProc(mgr), _) => {
            let (epoch, _) = {
                let _s = span("bench.ingest");
                mgr.ingest(rows).map_err(|e| format!("ingest: {e}"))?
            };
            let (id, _) = {
                let _s = span("bench.open");
                mgr.open(query).map_err(|e| format!("open: {e}"))?
            };
            let fresh = ms_since(t);
            let pinned = mgr.session_epoch(id).map_err(|e| format!("epoch: {e}"))?.0;
            if pinned != epoch {
                return Err(format!("pinned at epoch {pinned}, not {epoch}"));
            }
            mgr.close(id).map_err(|e| format!("close: {e}"))?;
            Ok(fresh)
        }
        (Served::Wire(_), Some(client)) => {
            let req = Request::Ingest {
                tenant: session::TENANT.to_string(),
                rows: rows.to_vec(),
            };
            let epoch = expect_epoch(session::call(client, "bench.ingest", &req)?)?;
            let (_, reply) = session::open_wire(client, query)?;
            let fresh = ms_since(t);
            let Reply::View(view) = reply else {
                return Err(format!("expected a first view, got {reply:?}"));
            };
            if view.epoch != Some(epoch) {
                return Err(format!("pinned at epoch {:?}, not {epoch}", view.epoch));
            }
            let req = Request::Close {
                session: view.session,
            };
            session::call(client, "bench.close", &req)?;
            Ok(fresh)
        }
        (Served::Wire(_), None) => Err("a wire probe needs a client".to_string()),
    }
}
