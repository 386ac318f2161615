//! # hinn — Human-computer Interactive Nearest Neighbor search
//!
//! A from-scratch Rust reproduction of
//! *Charu C. Aggarwal, "Towards Meaningful High-Dimensional Nearest Neighbor
//! Search by Human-Computer Interaction", ICDE 2002.*
//!
//! This facade crate re-exports every subsystem of the workspace under one
//! roof, so downstream users can depend on `hinn` alone:
//!
//! * [`par`] — the deterministic data-parallel layer: fixed-chunk
//!   map/reduce on `std::thread::scope` whose results are bit-identical
//!   to serial execution for every thread budget.
//! * [`obs`] — structured tracing and session telemetry: hierarchical
//!   spans, typed counters/gauges/histograms, and JSON/text reports,
//!   with near-zero cost when no recorder is installed.
//! * [`linalg`] — dense vectors/matrices, Jacobi eigensolver, orthonormal
//!   subspaces and projections.
//! * [`kde`] — Gaussian kernel density estimation on 2-D grids (fixed and
//!   adaptive bandwidths), density connectivity (Def. 2.2), iso-density
//!   contours, lateral density plots, 1-D marginals.
//! * [`data`] — synthetic projected-cluster workloads, uniform/noise data,
//!   simulated UCI datasets *and* parsers for the real UCI files, feature
//!   scaling, CSV I/O.
//! * [`user`] — the user-model abstraction: simulated users (heuristic,
//!   polygonal, noisy, oracle, scripted), a real terminal-interactive
//!   user, and session recording/replay.
//! * [`viz`] — ASCII/ANSI heatmaps, sparklines, and dependency-free SVG
//!   rendering of scatter plots, heatmaps, and isometric density surfaces.
//! * [`baselines`] — exact k-NN under L_p metrics, k-NN classification,
//!   automated projected-NN and distinctiveness-sensitive baselines, and
//!   the VA-file index.
//! * [`index`] — the deterministic seeded HNSW graph behind
//!   `CandidateSource::Hnsw`: sublinear approximate candidates, built
//!   once per dataset epoch and build params, and extended as the
//!   dataset grows.
//! * [`metrics`] — precision/recall, accuracy, relative contrast and
//!   ε-instability, rank agreement, steep-drop (natural neighbor count)
//!   analysis.
//! * [`cache`] — the artifact store each dataset epoch keeps its indexes
//!   in, deterministic LRU caches, and buffer pools behind the
//!   batch-serving fast path; warm and cold runs stay bit-identical.
//! * [`core`] — the interactive search system itself (Figs. 2–8 of the
//!   paper): graded query-centered projections, visual profiles, preference
//!   counts, meaningfulness quantification, meaninglessness diagnosis,
//!   batch evaluation, per-neighbor explanations, and session reports.
//! * [`serve`] — the multi-tenant serving layer: a bounded table of
//!   suspended sans-io session engines with snapshot-based eviction,
//!   transparent restore, and admission control.
//! * [`net`] — the TCP front-end over [`serve`]: `hinn-session v1` over
//!   length-prefixed checksummed frames, typed refusal of every wire
//!   fault, overload shedding that degrades before refusing, per-tenant
//!   fairness, and graceful drain.
//!
//! ## Quickstart
//!
//! ```
//! use hinn::prelude::*;
//! use hinn::data::projected::{ProjectedClusterSpec, generate_projected_clusters};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let spec = ProjectedClusterSpec::small_test();
//! let data = generate_projected_clusters(&spec, &mut rng);
//! let query = data.points[data.cluster_members(0)[0]].clone();
//!
//! let config = SearchConfig::default().with_support(20);
//! let mut user = HeuristicUser::default();
//! let handle = DatasetHandle::new(&data.points).expect("dataset");
//! let outcome = InteractiveSearch::new(config)
//!     .run_with(&handle, &query, &mut user, RunOptions::default())
//!     .expect("session")
//!     .into_outcome();
//! assert!(!outcome.neighbors.is_empty());
//! ```
//!
//! ## Streaming ingestion
//!
//! A [`prelude::DatasetHandle`] is a live, epoch-versioned dataset: `append`
//! and `delete` advance it to a new immutable epoch snapshot (with a chained
//! fingerprint), while sessions keep computing against the epoch they pinned
//! at open — resuming onto changed data is a typed refusal, never a silent
//! answer from the wrong dataset.
//!
//! ```
//! use hinn::prelude::*;
//!
//! let handle = DatasetHandle::new(&[vec![0.0, 0.0], vec![1.0, 1.0]]).expect("dataset");
//! let e0 = handle.epoch();
//! let snap = handle.append(&[vec![2.0, 2.0]]).expect("append");
//! assert_eq!(snap.epoch(), e0 + 1);
//! handle.delete(&[0]).expect("delete");
//! assert_eq!(handle.snapshot().len(), 2); // 3 rows, 1 tombstoned
//! ```

pub use hinn_baselines as baselines;
pub use hinn_cache as cache;
pub use hinn_core as core;
pub use hinn_data as data;
pub use hinn_fault as fault;
pub use hinn_index as index;
pub use hinn_kde as kde;
pub use hinn_linalg as linalg;
pub use hinn_metrics as metrics;
pub use hinn_net as net;
pub use hinn_obs as obs;
pub use hinn_par as par;
pub use hinn_serve as serve;
pub use hinn_user as user;
pub use hinn_viz as viz;

pub mod prelude {
    //! The types nearly every `hinn` program touches, importable in one
    //! line: configure a search ([`SearchConfig`]), run it against a user
    //! model ([`InteractiveSearch::run_with`] / [`HeuristicUser`]), drive
    //! it step-by-step ([`SessionEngine`] / [`Step`] / [`UserResponse`]),
    //! or serve many sessions at once ([`SessionManager`] /
    //! [`ServeConfig`]).
    //!
    //! ```
    //! use hinn::prelude::*;
    //! ```

    pub use hinn_core::{
        BatchRunner, CandidateSource, DatasetHandle, EpochError, EpochSnapshot, HinnError,
        InteractiveSearch, Parallelism, ProjectionMode, RunOptions, RunOutput, SearchConfig,
        SearchDiagnosis, SearchOutcome, SessionEngine, SessionSnapshot, Step, ViewRequest,
    };
    pub use hinn_index::HnswParams;
    pub use hinn_net::{NetClient, NetServer, NetServerConfig, ShedPolicy};
    pub use hinn_serve::{ServeConfig, ServeError, SessionId, SessionManager};
    pub use hinn_user::{
        HeuristicUser, ScriptedUser, TerminalUser, UserModel, UserResponse, ViewContext,
    };
}
