//! The interactive nearest-neighbor search system — the paper's primary
//! contribution (Figs. 2–8 of Aggarwal, ICDE 2002).
//!
//! The system runs *major iterations*, each consisting of `d/2` *minor
//! iterations*. Every minor iteration:
//!
//! 1. finds the most discriminatory query-centered 2-D projection inside
//!    the subspace orthogonal to everything already shown
//!    ([`projection::find_query_centered_projection`], Figs. 3–4),
//! 2. renders its kernel-density visual profile and asks the
//!    [`hinn_user::UserModel`] to place a density separator — or dismiss
//!    the view (Figs. 5–6),
//! 3. turns the separator into the set of points density-connected to the
//!    query and updates the preference counts ([`counts`], Fig. 7).
//!
//! After each major iteration the counts become *meaningfulness
//! probabilities* under the independent-Bernoulli null ([`meaning`],
//! Fig. 8); points never picked are removed; and the loop terminates when
//! the top-`s` ranking stabilizes ([`search`], Fig. 2). The final
//! probabilities feed the steep-drop diagnosis ([`diagnosis`], §4.1–4.2)
//! which either reports the *natural* neighbor set or declares the data
//! not amenable to meaningful nearest-neighbor search.
//!
//! Every piece is independently usable; [`search::InteractiveSearch`] is
//! the packaged driver.

// The robustness wall: the core crate's non-test code must not contain
// hidden panic sites — fallible paths return `HinnError`, intentional
// aborts use an explicit `panic!` with a message. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod candidates;
pub mod config;
pub mod counts;
pub mod degrade;
pub mod diagnosis;
pub mod engine;
pub mod error;
pub mod explain;
pub mod meaning;
pub mod projection;
pub mod report;
pub mod search;
pub mod snapshot;
pub mod transcript;

pub use batch::{BatchRunner, QueryReport};
pub use candidates::CandidateSource;
pub use config::{BandwidthMode, ProjectionMode, SearchConfig};
pub use degrade::{DegradationEvent, DegradationKind, DegradationLog};
pub use diagnosis::SearchDiagnosis;
pub use engine::{SessionEngine, Step, ViewRequest};
pub use error::HinnError;
pub use explain::{explain_neighbor, explanation_text, NeighborExplanation};
pub use hinn_data::{DatasetHandle, EpochError, EpochSnapshot};
pub use hinn_par::Parallelism;
pub use search::{InteractiveSearch, RunOptions, RunOutput, SearchOutcome};
pub use snapshot::SessionSnapshot;
pub use transcript::{MinorPhases, MinorRecord, Transcript};
