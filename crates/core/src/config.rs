//! Configuration of the interactive search loop.

use crate::candidates::CandidateSource;
use crate::error::HinnError;
use hinn_kde::CornerRule;
use hinn_par::Parallelism;

/// Whether projections are built from arbitrary directions (principal
/// components of the query cluster) or restricted to the original
/// attributes (§1.1: axis-parallel projections trade some discrimination
/// for interpretability).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectionMode {
    /// Arbitrarily-oriented projections via PCA (the general case).
    Arbitrary,
    /// Axis-parallel projections over the original attributes.
    AxisParallel,
}

/// How the KDE bandwidth of each visual profile is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BandwidthMode {
    /// One global bandwidth: Silverman's rule times
    /// [`SearchConfig::bandwidth_scale`].
    Fixed,
    /// Silverman's adaptive kernel estimator (reference \[26\], §5.3):
    /// per-point bandwidths `h·λᵢ` with sensitivity `alpha` (0.5
    /// recommended). The global `bandwidth_scale` still multiplies the
    /// pilot bandwidth.
    Adaptive {
        /// Sensitivity exponent in `[0, 1]`.
        alpha: f64,
    },
}

/// Tuning knobs of [`crate::InteractiveSearch`].
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// The support `s`: how many neighbors the user wants, and the size of
    /// the candidate neighborhood used to derive projections (§2). The
    /// effective support is `max(support, d)` as the paper prescribes.
    pub support: usize,
    /// Grid points per axis of the visual profile (the paper's `p`).
    pub grid_n: usize,
    /// Multiplier on Silverman's bandwidth. The paper quotes Silverman's
    /// normal-reference rule, but that rule is derived for *unimodal*
    /// densities and badly over-smooths the multimodal projections this
    /// system lives on, blurring cluster boundaries into the background.
    /// The default of 0.3 keeps the profile's peaks sharp (the ablation
    /// experiment `exp_ablations` sweeps this knob; 1.0 reproduces the
    /// literal rule).
    pub bandwidth_scale: f64,
    /// Fixed vs adaptive per-point bandwidths.
    pub bandwidth_mode: BandwidthMode,
    /// Projection orientation mode.
    pub projection_mode: ProjectionMode,
    /// Corner rule for grid density connectivity (Def. 2.2's ≥3 by default).
    pub corner_rule: CornerRule,
    /// Termination: overlap fraction of consecutive top-`s` sets at which
    /// the ranking is considered stable (`t` in §3).
    pub overlap_threshold: f64,
    /// Lower bound on major iterations before termination is allowed.
    pub min_major_iterations: usize,
    /// Hard cap on major iterations.
    pub max_major_iterations: usize,
    /// Per-minor-iteration preference weights `w_i` (Fig. 7 / Eq. 3). Views
    /// beyond the vector's length weigh 1.0. Empty = all ones (the paper's
    /// setting).
    pub projection_weights: Vec<f64>,
    /// Record every visual profile into the transcript (needed by the
    /// figure experiments; costs memory).
    pub record_profiles: bool,
    /// Thread budget for the intra-query hot paths (KDE grids, covariance
    /// statistics, projection scans). Results are bit-identical for every
    /// budget (see `hinn-par`); this knob only trades wall-clock for
    /// cores. Defaults to [`Parallelism::from_env`] (`HINN_THREADS`, else
    /// all hardware threads).
    pub parallelism: Parallelism,
    /// Optional wall-clock budget per session. Checked cooperatively at
    /// minor-iteration boundaries: when exceeded,
    /// [`crate::InteractiveSearch::run_with`] returns
    /// [`crate::HinnError::Deadline`] instead of a partial answer. `None`
    /// (the default) keeps the engine clock-free outside instrumentation.
    pub deadline: Option<std::time::Duration>,
    /// How the session's initial candidate set is seeded (see
    /// [`CandidateSource`]). [`CandidateSource::Full`] — every point, the
    /// paper's literal protocol — is the default; the prefiltering sources
    /// bound the per-session working set for million-point datasets.
    pub candidates: CandidateSource,
    /// Optional cap on minor iterations (views) per major iteration. The
    /// paper runs `⌈d/2⌉` two-dimensional projections per major; capping
    /// below that trades discrimination for per-major latency — it is the
    /// "fewer minors" rung of the serving layer's overload-shedding
    /// ladder. `None` (the default) keeps the paper's count; `Some(0)` is
    /// refused by [`try_validate`](SearchConfig::try_validate). The cap
    /// participates in the snapshot configuration fingerprint: a session
    /// opened under a cap must be resumed under the same cap.
    pub max_minors: Option<usize>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            support: 20,
            grid_n: 80,
            bandwidth_scale: 0.3,
            bandwidth_mode: BandwidthMode::Fixed,
            projection_mode: ProjectionMode::Arbitrary,
            corner_rule: CornerRule::AtLeastThree,
            overlap_threshold: 0.8,
            min_major_iterations: 2,
            max_major_iterations: 6,
            projection_weights: Vec::new(),
            record_profiles: false,
            parallelism: Parallelism::default(),
            deadline: None,
            candidates: CandidateSource::Full,
            max_minors: None,
        }
    }
}

impl SearchConfig {
    /// Set the requested support `s`.
    pub fn with_support(mut self, support: usize) -> Self {
        assert!(support > 0, "SearchConfig: support must be positive");
        self.support = support;
        self
    }

    /// Set the projection mode.
    pub fn with_mode(mut self, mode: ProjectionMode) -> Self {
        self.projection_mode = mode;
        self
    }

    /// Enable profile recording.
    pub fn recording_profiles(mut self) -> Self {
        self.record_profiles = true;
        self
    }

    /// Set the intra-query thread budget.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Set a per-session wall-clock budget (see
    /// [`SearchConfig::deadline`]).
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the candidate source (see [`SearchConfig::candidates`]).
    pub fn with_candidate_source(mut self, candidates: CandidateSource) -> Self {
        self.candidates = candidates;
        self
    }

    /// Cap minor iterations per major (see [`SearchConfig::max_minors`]).
    pub fn with_max_minors(mut self, cap: usize) -> Self {
        self.max_minors = Some(cap);
        self
    }

    /// Minor iterations per major for data of dimensionality `d`: the
    /// paper's `max(d/2, 1)`, clamped by [`SearchConfig::max_minors`].
    pub fn effective_minors(&self, d: usize) -> usize {
        let base = (d / 2).max(1);
        match self.max_minors {
            Some(cap) => base.min(cap.max(1)),
            None => base,
        }
    }

    /// The effective support for data of dimensionality `d`
    /// (§2: at least `d`).
    pub fn effective_support(&self, d: usize) -> usize {
        self.support.max(d)
    }

    /// Weight `w_i` of minor iteration `i`.
    pub fn weight(&self, minor: usize) -> f64 {
        self.projection_weights.get(minor).copied().unwrap_or(1.0)
    }

    /// Validate invariants that cannot be enforced at construction.
    ///
    /// # Panics
    /// Panics with the offending invariant's message;
    /// [`SearchConfig::try_validate`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// [`validate`](SearchConfig::validate) returning a typed
    /// [`HinnError::InvalidInput`] instead of panicking.
    pub fn try_validate(&self) -> Result<(), HinnError> {
        let fail = |message: &str| {
            Err(HinnError::InvalidInput {
                phase: "config.validate",
                message: message.to_string(),
            })
        };
        if self.support == 0 {
            return fail("SearchConfig: support must be positive");
        }
        if self.grid_n < 4 {
            return fail("SearchConfig: grid_n must be at least 4");
        }
        if self.bandwidth_scale.is_nan() || self.bandwidth_scale <= 0.0 {
            return fail("SearchConfig: bandwidth_scale must be positive");
        }
        if let BandwidthMode::Adaptive { alpha } = self.bandwidth_mode {
            if !(0.0..=1.0).contains(&alpha) {
                return fail("SearchConfig: adaptive alpha must be in [0, 1]");
            }
        }
        if !(0.0..=1.0).contains(&self.overlap_threshold) {
            return fail("SearchConfig: overlap_threshold must be in [0,1]");
        }
        if self.min_major_iterations < 1 || self.min_major_iterations > self.max_major_iterations {
            return fail("SearchConfig: iteration bounds inconsistent");
        }
        if !self.projection_weights.iter().all(|w| *w >= 0.0) {
            return fail("SearchConfig: weights must be non-negative");
        }
        if let Some(d) = self.deadline {
            if d.is_zero() {
                return fail("SearchConfig: deadline must be non-zero");
            }
        }
        if self.max_minors == Some(0) {
            return fail("SearchConfig: max_minors must be at least 1 when set");
        }
        self.candidates.try_validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SearchConfig::default().validate();
    }

    #[test]
    fn max_minors_caps_the_paper_count() {
        let c = SearchConfig::default();
        assert_eq!(c.effective_minors(8), 4, "paper default: d/2 views");
        assert_eq!(c.effective_minors(1), 1, "at least one view per major");
        let capped = SearchConfig::default().with_max_minors(2);
        assert_eq!(capped.effective_minors(8), 2);
        assert_eq!(capped.effective_minors(2), 1, "cap never raises the count");
        let zero = SearchConfig {
            max_minors: Some(0),
            ..SearchConfig::default()
        };
        let err = zero.try_validate().expect_err("zero cap refused");
        assert!(err.to_string().contains("max_minors"));
    }

    #[test]
    fn effective_support_respects_dimensionality() {
        let c = SearchConfig::default().with_support(5);
        assert_eq!(c.effective_support(20), 20, "support clamped up to d");
        assert_eq!(c.effective_support(3), 5);
    }

    #[test]
    fn weights_default_to_one() {
        let mut c = SearchConfig::default();
        assert_eq!(c.weight(0), 1.0);
        assert_eq!(c.weight(7), 1.0);
        c.projection_weights = vec![2.0, 0.5];
        assert_eq!(c.weight(0), 2.0);
        assert_eq!(c.weight(1), 0.5);
        assert_eq!(c.weight(2), 1.0);
    }

    #[test]
    fn builder_methods_chain() {
        let c = SearchConfig::default()
            .with_support(7)
            .with_mode(ProjectionMode::AxisParallel)
            .recording_profiles()
            .with_parallelism(Parallelism::fixed(3));
        assert_eq!(c.support, 7);
        assert_eq!(c.projection_mode, ProjectionMode::AxisParallel);
        assert!(c.record_profiles);
        assert_eq!(c.parallelism.threads(), 3);
    }

    #[test]
    #[should_panic(expected = "iteration bounds")]
    fn inconsistent_bounds_panic() {
        let c = SearchConfig {
            min_major_iterations: 9,
            max_major_iterations: 2,
            ..SearchConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "support must be positive")]
    fn zero_support_panics() {
        SearchConfig::default().with_support(0);
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        assert!(SearchConfig::default().try_validate().is_ok());
        let bad = SearchConfig {
            grid_n: 2,
            ..SearchConfig::default()
        };
        let err = bad.try_validate().expect_err("grid_n too small");
        assert!(err.is_invalid_input());
        assert!(err.to_string().contains("grid_n"));
        let zero_deadline = SearchConfig::default().with_deadline(std::time::Duration::ZERO);
        assert!(zero_deadline.try_validate().is_err());
        let fine = SearchConfig::default().with_deadline(std::time::Duration::from_secs(1));
        assert!(fine.try_validate().is_ok());
        assert!(fine.deadline.is_some());
    }
}
