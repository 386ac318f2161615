//! The interactive search driver (Fig. 2 of the paper).
//!
//! Since the sans-io refactor the iteration loop itself lives in
//! [`crate::engine::SessionEngine`]; this module keeps the packaged
//! run-to-completion API: [`InteractiveSearch::run_with`] drives the
//! engine against a [`UserModel`] callback.

use crate::config::SearchConfig;
use crate::degrade::DegradationLog;
use crate::diagnosis::SearchDiagnosis;
use crate::engine::{first_k_sorted, SessionEngine, Step};
use crate::error::HinnError;
use crate::transcript::Transcript;
use hinn_data::{DatasetHandle, EpochSnapshot};
use hinn_metrics::drop::DropConfig;
use hinn_user::{UserModel, UserResponse};
use std::sync::Arc;
use std::time::Duration;

/// The packaged interactive nearest-neighbor search system.
#[derive(Clone, Debug)]
pub struct InteractiveSearch {
    config: SearchConfig,
    drop_config: DropConfig,
}

/// Everything a completed session produced.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Top-`s` original indices ranked by meaningfulness probability
    /// (ties broken by full-space distance to the query).
    pub neighbors: Vec<usize>,
    /// Final meaningfulness probability per original point (the average of
    /// Eq. 8 over the major iterations run).
    pub probabilities: Vec<f64>,
    /// Full session transcript.
    pub transcript: Transcript,
    /// Meaningful-vs-not verdict (§4.1–4.2).
    pub diagnosis: SearchDiagnosis,
    /// How many major iterations ran.
    pub majors_run: usize,
    /// The effective support `max(s, d)` that was used.
    pub effective_support: usize,
}

impl SearchOutcome {
    /// The *natural* neighbor set: the `natural_k` points above the steep
    /// drop, when the session was diagnosed meaningful (§4.1's
    /// thresholding). `None` when the data was diagnosed not meaningful.
    pub fn natural_neighbors(&self) -> Option<Vec<usize>> {
        match self.diagnosis {
            SearchDiagnosis::Meaningful { natural_k, .. } => {
                // Probabilities are non-negative, so `total_cmp` coincides
                // with the old partial order; unlike the old
                // `partial_cmp().expect()`, a NaN probability (poisoned
                // upstream data) sorts deterministically instead of
                // panicking mid-ranking. The order is total, so selecting
                // the top `natural_k` and sorting only those is exactly the
                // head of the full sort.
                let p = &self.probabilities;
                let ids = (0..p.len()).collect();
                Some(first_k_sorted(ids, natural_k, |&a, &b| {
                    p[b].total_cmp(&p[a]).then(a.cmp(&b))
                }))
            }
            SearchDiagnosis::NotMeaningful { .. } => None,
        }
    }

    /// Every degradation-ladder rung the session took (empty on a fully
    /// healthy run). Shorthand for `transcript.degradations`.
    pub fn degradations(&self) -> &DegradationLog {
        &self.transcript.degradations
    }
}

/// Options for one [`InteractiveSearch::run_with`] session.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Compute budget for the session; overrides
    /// [`SearchConfig::deadline`] when set. Expiry surfaces as
    /// [`HinnError::Deadline`].
    pub deadline: Option<Duration>,
    /// Install a scoped [`hinn_obs::SessionRecorder`] for the session's
    /// duration and return its merged report in
    /// [`RunOutput::telemetry`]. The outcome is bit-identical either way
    /// (`tests/obs_invariance.rs` proves it).
    pub trace: bool,
    /// Collect the user's responses in [`RunOutput::responses`], in view
    /// order — the session log that `hinn::user::session_to_string`
    /// serializes.
    pub record_responses: bool,
}

impl RunOptions {
    /// Options with tracing enabled.
    pub fn traced() -> Self {
        Self {
            trace: true,
            ..Self::default()
        }
    }

    /// Enable telemetry tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Set the session's compute budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Collect the user's responses.
    pub fn with_recorded_responses(mut self) -> Self {
        self.record_responses = true;
        self
    }
}

/// What one [`InteractiveSearch::run_with`] session returned.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The session's outcome.
    pub outcome: SearchOutcome,
    /// Merged telemetry report, present iff [`RunOptions::trace`] was set.
    pub telemetry: Option<hinn_obs::TelemetryReport>,
    /// The user's responses in view order, present iff
    /// [`RunOptions::record_responses`] was set.
    pub responses: Option<Vec<UserResponse>>,
}

impl RunOutput {
    /// Discard the extras and keep the outcome.
    pub fn into_outcome(self) -> SearchOutcome {
        self.outcome
    }
}

impl InteractiveSearch {
    /// Create a search engine with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SearchConfig::validate`]); [`InteractiveSearch::try_new`] is the
    /// non-panicking form.
    pub fn new(config: SearchConfig) -> Self {
        match Self::try_new(config) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`InteractiveSearch::new`].
    pub fn try_new(config: SearchConfig) -> Result<Self, HinnError> {
        config.try_validate()?;
        Ok(Self {
            config,
            drop_config: DropConfig::default(),
        })
    }

    /// Override the steep-drop detector configuration.
    pub fn with_drop_config(mut self, drop_config: DropConfig) -> Self {
        self.drop_config = drop_config;
        self
    }

    /// Run the full interactive session of Fig. 2 against `user`.
    ///
    /// Internally this is a driver loop over
    /// [`SessionEngine`]: start, show each
    /// [`Step::NeedResponse`] view to the callback, submit, repeat until
    /// [`Step::Done`]. The loop adds nothing of its own, so the outcome is
    /// bit-identical to the engine driven by hand (or suspended and
    /// resumed along the way).
    ///
    /// # Errors
    /// Invalid input comes back as [`HinnError::InvalidInput`] and an
    /// expired deadline as [`HinnError::Deadline`]. Numerical pathologies
    /// mid-session do not error: they walk the degradation ladder and are
    /// recorded in [`Transcript::degradations`].
    pub fn run_with(
        &self,
        data: &DatasetHandle,
        query: &[f64],
        user: &mut dyn UserModel,
        options: RunOptions,
    ) -> Result<RunOutput, HinnError> {
        self.run_at(data.snapshot(), query, user, options)
    }

    /// [`run_with`](Self::run_with) against an explicit epoch snapshot —
    /// the form that lets a caller keep running sessions against a pinned
    /// epoch while the handle streams on.
    pub fn run_at(
        &self,
        snap: Arc<EpochSnapshot>,
        query: &[f64],
        user: &mut dyn UserModel,
        options: RunOptions,
    ) -> Result<RunOutput, HinnError> {
        let mut config = self.config.clone();
        if options.deadline.is_some() {
            config.deadline = options.deadline;
        }
        // Traced runs use flight-recorder mode: per-occurrence timed span
        // events ride along with the aggregates, so the report can be
        // exported straight to Chrome/Perfetto (`HINN_OBS_TRACE`).
        let recorder = options
            .trace
            .then(|| Arc::new(hinn_obs::SessionRecorder::with_trace()));
        let mut responses = options.record_responses.then(Vec::new);
        let outcome = {
            let _guard = recorder.clone().map(|r| hinn_obs::install(r));
            let (mut engine, mut step) =
                SessionEngine::start_inner(config, self.drop_config, snap, query)?;
            loop {
                match step {
                    Step::Done(outcome) => break *outcome,
                    Step::NeedResponse(req) => {
                        let response = user.respond(req.profile(), req.context());
                        if let Some(log) = responses.as_mut() {
                            log.push(response.clone());
                        }
                        step = engine.submit(response)?;
                    }
                }
            }
        };
        let telemetry = recorder.map(|r| r.report());
        if let Some(report) = &telemetry {
            // Environment-driven export (`HINN_OBS_EXPORT` telemetry JSON,
            // `HINN_OBS_TRACE` Chrome trace). Write failures are non-fatal
            // by contract: the search result is never sacrificed to an
            // unwritable path.
            hinn_obs::export_env(report);
        }
        Ok(RunOutput {
            outcome,
            telemetry,
            responses,
        })
    }

    /// Start a suspendable session over `data`'s current epoch with this
    /// engine's configuration and drop configuration — the
    /// inverted-control-flow form of [`run_with`](Self::run_with) (see
    /// [`SessionEngine`]).
    pub fn start_session(
        &self,
        data: &DatasetHandle,
        query: &[f64],
    ) -> Result<(SessionEngine, Step), HinnError> {
        self.start_session_at(data.snapshot(), query)
    }

    /// [`start_session`](Self::start_session) against an explicit epoch
    /// snapshot.
    pub fn start_session_at(
        &self,
        snap: Arc<EpochSnapshot>,
        query: &[f64],
    ) -> Result<(SessionEngine, Step), HinnError> {
        SessionEngine::start_inner(self.config.clone(), self.drop_config, snap, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProjectionMode;
    use hinn_user::{HeuristicUser, ScriptedUser};

    fn handle(pts: &[Vec<f64>]) -> DatasetHandle {
        DatasetHandle::new(pts).expect("epoch handle")
    }

    fn run_default(
        engine: &InteractiveSearch,
        pts: &[Vec<f64>],
        q: &[f64],
        user: &mut dyn hinn_user::UserModel,
    ) -> SearchOutcome {
        engine
            .run_with(&handle(pts), q, user, RunOptions::default())
            .expect("healthy input")
            .outcome
    }

    /// 8-D data: a 30-point cluster tight in dims (0,1,2) around 50, with
    /// the query at its center; 170 uniform background points.
    fn planted() -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
        let mut state = 0xDA3E39CB94B95BDBu64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for _ in 0..30 {
            let mut p: Vec<f64> = (0..8).map(|_| unif() * 100.0).collect();
            for coord in p.iter_mut().take(3) {
                *coord = 50.0 + (unif() - 0.5) * 3.0;
            }
            pts.push(p);
        }
        for _ in 0..170 {
            pts.push((0..8).map(|_| unif() * 100.0).collect());
        }
        (pts, vec![50.0; 8], (0..30).collect())
    }

    #[test]
    fn recovers_planted_cluster_with_heuristic_user() {
        let (pts, q, members) = planted();
        let config = SearchConfig::default()
            .with_support(30)
            .with_mode(ProjectionMode::AxisParallel);
        let mut user = HeuristicUser::default();
        let outcome = run_default(&InteractiveSearch::new(config), &pts, &q, &mut user);
        assert!(outcome.majors_run >= 2);
        let hits = outcome
            .neighbors
            .iter()
            .filter(|i| members.contains(i))
            .count();
        assert!(
            hits as f64 >= 0.7 * outcome.neighbors.len() as f64,
            "interactive search should recover the cluster: {hits}/{}",
            outcome.neighbors.len()
        );
        // Cluster members should carry higher probability than background.
        let mean_member: f64 = members
            .iter()
            .map(|&i| outcome.probabilities[i])
            .sum::<f64>()
            / members.len() as f64;
        let mean_bg: f64 = (30..200).map(|i| outcome.probabilities[i]).sum::<f64>() / 170.0;
        assert!(
            mean_member > mean_bg + 0.3,
            "member prob {mean_member} vs background {mean_bg}"
        );
        // A healthy session takes no ladder rung.
        assert!(outcome.degradations().is_empty());
    }

    #[test]
    fn all_discard_user_yields_not_meaningful() {
        let (pts, q, _) = planted();
        let config = SearchConfig {
            max_major_iterations: 2,
            min_major_iterations: 1,
            ..SearchConfig::default()
        };
        let mut user = ScriptedUser::new([]); // discards everything
        let outcome = run_default(&InteractiveSearch::new(config), &pts, &q, &mut user);
        assert!(!outcome.diagnosis.is_meaningful());
        assert!(outcome.probabilities.iter().all(|&p| p == 0.0));
        assert!(outcome.natural_neighbors().is_none());
    }

    #[test]
    fn probabilities_are_valid_and_aligned() {
        let (pts, q, _) = planted();
        let mut user = HeuristicUser::default();
        let outcome = run_default(
            &InteractiveSearch::new(SearchConfig::default().with_support(20)),
            &pts,
            &q,
            &mut user,
        );
        assert_eq!(outcome.probabilities.len(), pts.len());
        for p in &outcome.probabilities {
            assert!((0.0..=1.0).contains(p), "probability out of range: {p}");
        }
        assert_eq!(outcome.neighbors.len(), outcome.effective_support);
    }

    #[test]
    fn transcript_records_every_view() {
        let (pts, q, _) = planted();
        let config = SearchConfig {
            max_major_iterations: 2,
            min_major_iterations: 2,
            record_profiles: true,
            ..SearchConfig::default()
        };
        let mut user = HeuristicUser::default();
        let outcome = run_default(&InteractiveSearch::new(config), &pts, &q, &mut user);
        // 8 dims → 4 minors per major.
        assert_eq!(outcome.transcript.majors[0].minors.len(), 4);
        for rec in outcome.transcript.iter_minors() {
            assert!(rec.profile.is_some(), "profiles must be recorded");
            assert_eq!(rec.projection.dim(), 2);
        }
    }

    #[test]
    fn effective_support_clamps_to_dimensionality() {
        let (pts, q, _) = planted();
        let mut user = HeuristicUser::default();
        let outcome = run_default(
            &InteractiveSearch::new(SearchConfig::default().with_support(3)),
            &pts,
            &q,
            &mut user,
        );
        assert_eq!(outcome.effective_support, 8, "support must be ≥ d");
    }

    #[test]
    fn natural_neighbors_sorted_by_probability() {
        let (pts, q, _) = planted();
        let mut user = HeuristicUser::default();
        let outcome = run_default(
            &InteractiveSearch::new(SearchConfig::default().with_support(30)),
            &pts,
            &q,
            &mut user,
        );
        if let Some(natural) = outcome.natural_neighbors() {
            for w in natural.windows(2) {
                assert!(outcome.probabilities[w[0]] >= outcome.probabilities[w[1]]);
            }
        }
    }

    #[test]
    fn natural_neighbors_tolerates_poisoned_probabilities() {
        // Regression: a NaN probability used to panic the ranking via
        // `partial_cmp().expect()`. With `total_cmp` the poisoned entry
        // sorts deterministically (NaN first, as the largest value) and
        // the healthy ordering is otherwise preserved.
        let outcome = SearchOutcome {
            neighbors: vec![],
            probabilities: vec![0.2, f64::NAN, 0.9, 0.4],
            transcript: Transcript::default(),
            diagnosis: SearchDiagnosis::Meaningful {
                natural_k: 4,
                gap: 0.5,
                top_mean: 0.9,
            },
            majors_run: 1,
            effective_support: 4,
        };
        let order = outcome.natural_neighbors().expect("meaningful");
        assert_eq!(order, vec![1, 2, 3, 0], "NaN first, then descending");
    }

    #[test]
    fn natural_neighbors_are_the_head_of_the_full_sort() {
        // Ties, NaN of both signs, zeros of both signs and every cut.
        let masses = [0.0, -0.0, 0.5, 0.9, f64::NAN, -f64::NAN, 0.9, 0.2];
        let probabilities: Vec<f64> = (0..97).map(|i| masses[i * 7 % masses.len()]).collect();
        let mut full: Vec<usize> = (0..probabilities.len()).collect();
        full.sort_by(|&a, &b| {
            probabilities[b]
                .total_cmp(&probabilities[a])
                .then(a.cmp(&b))
        });
        for natural_k in 0..=probabilities.len() + 2 {
            let outcome = SearchOutcome {
                neighbors: vec![],
                probabilities: probabilities.clone(),
                transcript: Transcript::default(),
                diagnosis: SearchDiagnosis::Meaningful {
                    natural_k,
                    gap: 0.5,
                    top_mean: 0.9,
                },
                majors_run: 1,
                effective_support: 4,
            };
            let head = &full[..natural_k.min(full.len())];
            assert_eq!(outcome.natural_neighbors().expect("meaningful"), head);
        }
    }

    #[test]
    fn run_with_reports_invalid_input_instead_of_panicking() {
        let mut user = ScriptedUser::new([]);
        let engine = InteractiveSearch::new(SearchConfig::default());
        // The epoch path: an empty handle is still an engine-side error.
        let empty = DatasetHandle::empty(2).expect("empty handle");
        let err = engine
            .run_with(&empty, &[0.0, 0.0], &mut user, RunOptions::default())
            .expect_err("empty data");
        assert!(err.is_invalid_input());
        assert!(err.to_string().contains("empty data set"));

        let err = engine
            .run_with(
                &handle(&[vec![0.0, 0.0]]),
                &[0.0, 0.0, 0.0],
                &mut user,
                RunOptions::default(),
            )
            .expect_err("query dimensionality");
        assert!(err.to_string().contains("query dimensionality"));

        // Malformed rows never reach an engine: the handle refuses them.
        assert!(DatasetHandle::new(&[vec![0.0, 0.0], vec![1.0, f64::NAN]]).is_err());
        assert!(DatasetHandle::new(&[vec![0.0, 0.0], vec![1.0, 1.0, 2.0]]).is_err());

        assert!(InteractiveSearch::try_new(SearchConfig {
            grid_n: 1,
            ..SearchConfig::default()
        })
        .is_err());
    }

    #[test]
    fn run_options_surface_telemetry_and_responses() {
        let (pts, q, _) = planted();
        let config = SearchConfig::default().with_support(20);
        let out = InteractiveSearch::new(config)
            .run_with(
                &handle(&pts),
                &q,
                &mut HeuristicUser::default(),
                RunOptions::traced().with_recorded_responses(),
            )
            .expect("healthy data");
        let report = out.telemetry.expect("traced run yields telemetry");
        assert!(report
            .schema()
            .lines()
            .any(|l| l.contains("search.session")));
        let responses = out.responses.expect("responses were recorded");
        assert_eq!(responses.len(), out.outcome.transcript.total_views());
        // Untraced runs carry neither.
        let bare = InteractiveSearch::new(SearchConfig::default().with_support(20))
            .run_with(
                &handle(&pts),
                &q,
                &mut HeuristicUser::default(),
                RunOptions::default(),
            )
            .expect("healthy data");
        assert!(bare.telemetry.is_none());
        assert!(bare.responses.is_none());
    }

    #[test]
    fn run_options_deadline_overrides_config() {
        let (pts, q, _) = planted();
        // A deadline the fault point forces to expire, passed through
        // options rather than the config.
        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new().with("search.deadline", hinn_fault::FaultMode::Always),
        );
        let err = {
            let _g = hinn_fault::install_local(plan.clone());
            InteractiveSearch::new(SearchConfig::default().with_support(20))
                .run_with(
                    &handle(&pts),
                    &q,
                    &mut HeuristicUser::default(),
                    RunOptions::default().with_deadline(std::time::Duration::from_secs(3600)),
                )
                .expect_err("forced deadline")
        };
        assert_eq!(plan.fired("search.deadline"), 1);
        assert!(matches!(err, HinnError::Deadline { .. }));
    }

    #[test]
    fn forced_deadline_surfaces_as_typed_error() {
        let (pts, q, _) = planted();
        // A generous budget that cannot expire on its own — only the
        // forced fault point trips the check, deterministically at the
        // first minor boundary.
        let config = SearchConfig::default()
            .with_support(20)
            .with_deadline(std::time::Duration::from_secs(3600));
        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new().with("search.deadline", hinn_fault::FaultMode::Always),
        );
        let err = {
            let _g = hinn_fault::install_local(plan.clone());
            InteractiveSearch::new(config)
                .run_with(
                    &handle(&pts),
                    &q,
                    &mut HeuristicUser::default(),
                    RunOptions::default(),
                )
                .expect_err("forced deadline")
        };
        assert_eq!(plan.fired("search.deadline"), 1);
        assert!(matches!(err, HinnError::Deadline { .. }));
        assert!(err.to_string().contains("deadline exceeded"));
    }

    #[test]
    fn without_deadline_the_fault_point_is_never_consulted() {
        let (pts, q, _) = planted();
        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new().with("search.deadline", hinn_fault::FaultMode::Always),
        );
        let outcome = {
            let _g = hinn_fault::install_local(plan.clone());
            InteractiveSearch::new(SearchConfig::default().with_support(20))
                .run_with(
                    &handle(&pts),
                    &q,
                    &mut HeuristicUser::default(),
                    RunOptions::default(),
                )
                .expect("no deadline configured")
                .outcome
        };
        assert_eq!(plan.hits("search.deadline"), 0, "clock-free path");
        assert!(outcome.majors_run >= 1);
    }
}
