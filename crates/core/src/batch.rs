//! Batch evaluation: run many queries against one data set.
//!
//! Real deployments (and the paper's own evaluation protocol) ask the same
//! question for a set of query points — "what are the natural neighbors of
//! each of these, and how meaningful are they?". [`BatchRunner`] packages
//! that: one shared data set and configuration, a user-model factory (each
//! query gets a fresh user, as in the paper's per-query sessions), and
//! parallel execution across queries with `std::thread::scope`.
//!
//! The runner is a *fault boundary*: each query runs under
//! `catch_unwind`, so one poisoned session can neither take down the
//! batch nor skew its siblings. A failed query is retried once with a
//! degraded configuration (axis-parallel projections, fixed bandwidth —
//! the cheapest, most robust path through the engine) and, if it still
//! fails, surfaces as [`QueryReport::Failed`] carrying the typed
//! [`HinnError`] instead of a panic.

use crate::config::{BandwidthMode, ProjectionMode, SearchConfig};
use crate::degrade::{DegradationEvent, DegradationKind};
use crate::diagnosis::SearchDiagnosis;
use crate::error::HinnError;
use crate::search::{InteractiveSearch, RunOptions, RunOutput, SearchOutcome};
use hinn_cache::Fingerprint;
use hinn_data::{DatasetHandle, EpochSnapshot};
use hinn_par::Parallelism;
use hinn_user::UserModel;
use std::sync::Arc;
use std::time::Duration;

/// Result of one query in a batch: either a completed session or a typed
/// failure that survived the retry.
#[derive(Clone, Debug)]
pub enum QueryReport {
    /// The session completed (possibly on the degraded retry).
    Completed {
        /// Index into the batch's query list.
        query_index: usize,
        /// The returned neighbor set: the natural set when the session was
        /// meaningful, the top-`s` ranking otherwise.
        neighbors: Vec<usize>,
        /// The session's verdict.
        diagnosis: SearchDiagnosis,
        /// Major iterations run.
        majors_run: usize,
        /// Views shown / dismissed.
        views: (usize, usize),
        /// Wall-clock time of this query (including a failed first
        /// attempt, when retried).
        wall: Duration,
        /// Intra-query thread budget the session ran with (the batch
        /// budget divided across inter-query workers — see
        /// [`Parallelism::split`]).
        intra_threads: usize,
        /// Did this result come from the degraded retry?
        retried: bool,
        /// Degradation-ladder rungs the winning session took.
        degradations: usize,
    },
    /// Both the session and its degraded retry failed (or the failure was
    /// an input error, which is never retried).
    Failed {
        /// Index into the batch's query list.
        query_index: usize,
        /// The error of the last attempt.
        error: HinnError,
        /// Was a degraded retry attempted?
        retried: bool,
        /// Wall-clock time spent on all attempts.
        wall: Duration,
        /// Intra-query thread budget of the attempts.
        intra_threads: usize,
    },
}

impl QueryReport {
    /// Index into the batch's query list.
    pub fn query_index(&self) -> usize {
        match self {
            Self::Completed { query_index, .. } | Self::Failed { query_index, .. } => *query_index,
        }
    }

    /// Did the query fail even after the retry?
    pub fn is_failed(&self) -> bool {
        matches!(self, Self::Failed { .. })
    }

    /// The neighbor set of a completed query.
    pub fn neighbors(&self) -> Option<&[usize]> {
        match self {
            Self::Completed { neighbors, .. } => Some(neighbors),
            Self::Failed { .. } => None,
        }
    }

    /// The verdict of a completed query.
    pub fn diagnosis(&self) -> Option<&SearchDiagnosis> {
        match self {
            Self::Completed { diagnosis, .. } => Some(diagnosis),
            Self::Failed { .. } => None,
        }
    }

    /// Major iterations of a completed query.
    pub fn majors_run(&self) -> Option<usize> {
        match self {
            Self::Completed { majors_run, .. } => Some(*majors_run),
            Self::Failed { .. } => None,
        }
    }

    /// Views shown / dismissed of a completed query.
    pub fn views(&self) -> Option<(usize, usize)> {
        match self {
            Self::Completed { views, .. } => Some(*views),
            Self::Failed { .. } => None,
        }
    }

    /// The error of a failed query.
    pub fn error(&self) -> Option<&HinnError> {
        match self {
            Self::Completed { .. } => None,
            Self::Failed { error, .. } => Some(error),
        }
    }

    /// Wall-clock time spent on the query (all attempts).
    pub fn wall(&self) -> Duration {
        match self {
            Self::Completed { wall, .. } | Self::Failed { wall, .. } => *wall,
        }
    }

    /// Intra-query thread budget the attempts ran with.
    pub fn intra_threads(&self) -> usize {
        match self {
            Self::Completed { intra_threads, .. } | Self::Failed { intra_threads, .. } => {
                *intra_threads
            }
        }
    }

    /// Did the runner fall back to the degraded configuration?
    pub fn retried(&self) -> bool {
        match self {
            Self::Completed { retried, .. } | Self::Failed { retried, .. } => *retried,
        }
    }

    fn from_outcome(
        query_index: usize,
        outcome: &SearchOutcome,
        wall: Duration,
        intra_threads: usize,
        retried: bool,
    ) -> Self {
        let neighbors = outcome
            .natural_neighbors()
            .unwrap_or_else(|| outcome.neighbors.clone());
        Self::Completed {
            query_index,
            neighbors,
            diagnosis: outcome.diagnosis.clone(),
            majors_run: outcome.majors_run,
            views: (
                outcome.transcript.total_views(),
                outcome.transcript.total_dismissed(),
            ),
            wall,
            intra_threads,
            retried,
            degradations: outcome.degradations().len(),
        }
    }
}

/// Multi-query driver (see module docs).
pub struct BatchRunner {
    /// The epoch snapshot pinned at construction.
    snap: Arc<EpochSnapshot>,
    config: SearchConfig,
    budget: Parallelism,
}

impl BatchRunner {
    /// Create a runner pinned to `data`'s *current* epoch with the shared
    /// `config`. Rows appended or deleted after construction do not affect
    /// the batch — every query of the batch sees the same snapshot. The
    /// thread budget defaults to the config's
    /// [`SearchConfig::parallelism`]. Sessions share nothing but the
    /// pinned snapshot, so a query's work never depends on which worker
    /// ran which query before it.
    pub fn new(data: &DatasetHandle, config: SearchConfig) -> Self {
        Self::at(data.snapshot(), config)
    }

    /// [`BatchRunner::new`] against an explicit epoch snapshot.
    pub fn at(snap: Arc<EpochSnapshot>, config: SearchConfig) -> Self {
        config.validate();
        let budget = config.parallelism;
        Self {
            snap,
            config,
            budget,
        }
    }

    /// The epoch the batch is pinned to: `(epoch counter, chained
    /// fingerprint)`.
    pub fn dataset_epoch(&self) -> (u64, Fingerprint) {
        (self.snap.epoch(), self.snap.fingerprint())
    }

    /// Cap the worker-thread count (default: the config's parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "BatchRunner: need at least one thread");
        self.budget = Parallelism::fixed(threads);
        self
    }

    /// Set the total thread budget. It is divided between inter-query
    /// workers and each session's intra-query parallelism so nested
    /// sessions never oversubscribe the machine.
    pub fn with_parallelism(mut self, budget: Parallelism) -> Self {
        self.budget = budget;
        self
    }

    /// Set a per-query wall-clock deadline (see
    /// [`SearchConfig::deadline`]). An expired query fails with
    /// [`HinnError::Deadline`], is retried once with the degraded
    /// configuration, and surfaces as [`QueryReport::Failed`] if the
    /// retry expires too.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Run every query, constructing a fresh user per query via
    /// `make_user`. Reports come back in query order. No panic escapes
    /// this call: a panicking session is caught at the query boundary,
    /// retried degraded, and at worst reported as
    /// [`QueryReport::Failed`] with [`HinnError::SessionPanicked`].
    pub fn run<F>(&self, queries: &[Vec<f64>], make_user: F) -> Vec<QueryReport>
    where
        F: Fn() -> Box<dyn UserModel> + Sync,
    {
        let n = queries.len();
        let workers = self.budget.threads().min(n.max(1));
        // Each worker runs sessions whose intra-query hot paths get an
        // equal share of the remaining budget. Results do not depend on
        // this split (bit-identical under any Parallelism); only the
        // schedule does.
        let mut session_config = self.config.clone();
        session_config.parallelism = self.budget.split(workers);
        let intra_threads = session_config.parallelism.threads();
        // The degraded retry configuration: axis-parallel projections
        // (no eigensolver) and a fixed global bandwidth — the cheapest,
        // most robust path through the engine.
        let degraded_config = SearchConfig {
            projection_mode: ProjectionMode::AxisParallel,
            bandwidth_mode: BandwidthMode::Fixed,
            ..session_config.clone()
        };
        let mut reports: Vec<Option<QueryReport>> = (0..n).map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<&mut Option<QueryReport>>> =
            reports.iter_mut().map(std::sync::Mutex::new).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = std::time::Instant::now();
                    let first = run_guarded(&session_config, &self.snap, &queries[i], &make_user);
                    let report = match first {
                        Ok(outcome) => QueryReport::from_outcome(
                            i,
                            &outcome,
                            t0.elapsed(),
                            intra_threads,
                            false,
                        ),
                        // Input errors are deterministic caller mistakes —
                        // a degraded configuration cannot fix them, so
                        // they surface immediately.
                        Err(error) if error.is_invalid_input() => QueryReport::Failed {
                            query_index: i,
                            error,
                            retried: false,
                            wall: t0.elapsed(),
                            intra_threads,
                        },
                        Err(first_error) => {
                            hinn_obs::counter("batch.retries", 1);
                            match run_guarded(&degraded_config, &self.snap, &queries[i], &make_user)
                            {
                                Ok(mut outcome) => {
                                    outcome.transcript.degradations.push(DegradationEvent {
                                        major: None,
                                        minor: None,
                                        kind: DegradationKind::DegradedRetry,
                                        detail: format!(
                                            "first attempt failed ({first_error}); \
                                             completed with degraded configuration"
                                        ),
                                    });
                                    QueryReport::from_outcome(
                                        i,
                                        &outcome,
                                        t0.elapsed(),
                                        intra_threads,
                                        true,
                                    )
                                }
                                Err(error) => QueryReport::Failed {
                                    query_index: i,
                                    error,
                                    retried: true,
                                    wall: t0.elapsed(),
                                    intra_threads,
                                },
                            }
                        }
                    };
                    let wall = report.wall();
                    hinn_obs::observe("batch.query_ms", wall.as_secs_f64() * 1e3);
                    // A worker that panicked while holding the lock has
                    // already been caught at the query boundary; a
                    // poisoned slot still holds valid (None) data.
                    let mut slot = match slots[i].lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    **slot = Some(report);
                });
            }
        });
        reports
            .into_iter()
            .map(|r| match r {
                Some(report) => report,
                // Unreachable: every index claimed from the queue writes
                // its slot, and a worker panic would have propagated out
                // of `thread::scope` already.
                None => panic!("BatchRunner: a query produced no report"),
            })
            .collect()
    }
}

/// One guarded attempt: the session runs under `catch_unwind`, so a panic
/// anywhere inside (engine, user model, fault injection) is converted to
/// [`HinnError::SessionPanicked`] instead of unwinding into the batch.
fn run_guarded<F>(
    config: &SearchConfig,
    snap: &Arc<EpochSnapshot>,
    query: &[f64],
    make_user: &F,
) -> Result<SearchOutcome, HinnError>
where
    F: Fn() -> Box<dyn UserModel> + Sync,
{
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let engine = InteractiveSearch::try_new(config.clone())?;
        let mut user = make_user();
        engine
            .run_at(snap.clone(), query, user.as_mut(), RunOptions::default())
            .map(RunOutput::into_outcome)
    }));
    match attempt {
        Ok(result) => result,
        Err(payload) => Err(HinnError::SessionPanicked {
            phase: "batch.query",
            message: panic_message(&payload),
        }),
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
    use hinn_user::HeuristicUser;

    /// 6-D data, full-space cluster at 50 plus background.
    fn workload() -> Vec<Vec<f64>> {
        let mut state = 0xC0FFEEu64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for _ in 0..30 {
            pts.push((0..6).map(|_| 50.0 + (unif() - 0.5) * 2.0).collect());
        }
        for _ in 0..90 {
            pts.push((0..6).map(|_| unif() * 100.0).collect());
        }
        pts
    }

    fn config() -> SearchConfig {
        SearchConfig {
            max_major_iterations: 1,
            min_major_iterations: 1,
            ..SearchConfig::default().with_support(10)
        }
    }

    fn handle(pts: &[Vec<f64>]) -> DatasetHandle {
        DatasetHandle::new(pts).expect("epoch handle")
    }

    #[test]
    fn batch_reports_in_query_order() {
        let pts = workload();
        let queries = vec![pts[0].clone(), pts[5].clone(), pts[100].clone()];
        let runner = BatchRunner::new(&handle(&pts), config());
        let reports = runner.run(&queries, || Box::new(HeuristicUser::default()));
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.query_index(), i);
            assert!(!r.is_failed());
            assert!(!r.retried());
            let neighbors = r.neighbors().expect("completed");
            assert!(!neighbors.is_empty());
            let (shown, dismissed) = r.views().expect("completed");
            assert!(shown >= dismissed);
            assert!(r.intra_threads() >= 1);
            assert!(r.wall() > Duration::ZERO);
        }
    }

    #[test]
    fn parallel_matches_single_threaded() {
        let pts = workload();
        let queries: Vec<Vec<f64>> = (0..4).map(|i| pts[i * 7].clone()).collect();
        let dh = handle(&pts);
        let serial = BatchRunner::new(&dh, config())
            .with_threads(1)
            .run(&queries, || Box::new(HeuristicUser::default()));
        let parallel = BatchRunner::new(&dh, config())
            .with_threads(4)
            .run(&queries, || Box::new(HeuristicUser::default()));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.neighbors(), b.neighbors());
            assert_eq!(a.majors_run(), b.majors_run());
        }
    }

    #[test]
    fn empty_query_list_is_fine() {
        let pts = workload();
        let runner = BatchRunner::new(&handle(&pts), config());
        let reports = runner.run(&[], || Box::new(HeuristicUser::default()));
        assert!(reports.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let pts = workload();
        let _ = BatchRunner::new(&handle(&pts), config()).with_threads(0);
    }

    #[test]
    fn nested_budget_matches_serial_budget() {
        // A total budget split between inter-query workers and intra-query
        // hot paths must not change any answer.
        let pts = workload();
        let queries: Vec<Vec<f64>> = (0..4).map(|i| pts[i * 7].clone()).collect();
        let dh = handle(&pts);
        let serial = BatchRunner::new(&dh, config())
            .with_parallelism(Parallelism::serial())
            .run(&queries, || Box::new(HeuristicUser::default()));
        let budgeted = BatchRunner::new(&dh, config())
            .with_parallelism(Parallelism::fixed(6))
            .run(&queries, || Box::new(HeuristicUser::default()));
        for (a, b) in serial.iter().zip(&budgeted) {
            assert_eq!(a.neighbors(), b.neighbors());
            assert_eq!(a.majors_run(), b.majors_run());
            assert_eq!(a.views(), b.views());
        }
        // 4 workers over a 6-thread budget → 1 intra-query thread each.
        assert!(budgeted.iter().all(|r| r.intra_threads() == 1));
        assert!(serial.iter().all(|r| r.intra_threads() == 1));
    }

    #[test]
    fn invalid_query_fails_without_retry_while_siblings_complete() {
        let pts = workload();
        // Query 1 has the wrong dimensionality: an input error, reported
        // typed and unretried; queries 0 and 2 must be untouched.
        let queries = vec![pts[0].clone(), vec![1.0, 2.0], pts[100].clone()];
        let reports = BatchRunner::new(&handle(&pts), config())
            .run(&queries, || Box::new(HeuristicUser::default()));
        assert!(!reports[0].is_failed());
        assert!(!reports[2].is_failed());
        let failed = &reports[1];
        assert!(failed.is_failed());
        assert!(!failed.retried(), "input errors are not retried");
        let err = failed.error().expect("failed report carries its error");
        assert!(err.is_invalid_input());
        assert!(err.to_string().contains("query dimensionality"));
    }

    #[test]
    fn runner_is_pinned_to_the_epoch_it_was_built_at() {
        let pts = workload();
        let dh = handle(&pts);
        let runner = BatchRunner::new(&dh, config());
        let pinned = runner.dataset_epoch();
        assert_eq!(pinned.0, dh.epoch());
        // The handle streams on; the batch still answers from its pin.
        dh.append(&[vec![1.0; 6]]).expect("append");
        assert_eq!(runner.dataset_epoch(), pinned);
        let reports = runner.run(&[pts[0].clone()], || Box::new(HeuristicUser::default()));
        assert!(!reports[0].is_failed());
    }

    // Fault drills that must install a *global* plan (the points fire on
    // batch worker threads) live in `tests/fault_boundary.rs`, where every
    // test installs a plan and the install lock serializes them.
}
