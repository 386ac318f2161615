//! Pluggable candidate generation for the interactive loop.
//!
//! The paper's protocol ranks and prunes a *candidate* set; nothing in the
//! loop requires that set to start as the whole dataset. A
//! [`CandidateSource`] chooses how the session's initial alive set is
//! seeded: the full dataset (the paper's literal setting and the
//! default), an exact top-`budget` prefilter (linear scan or VA-file), or
//! the sublinear HNSW graph of `hinn-index`.
//!
//! Every source is deterministic for a fixed configuration: the exact
//! sources by the workspace's `(distance, id)` total order, the HNSW
//! source by the seeded-graph contract of `hinn-index` (fixed seed ⇒
//! identical graph ⇒ identical candidates, across thread budgets and
//! processes). The VA-file and HNSW sources route their index through
//! [`hinn_cache::DatasetArtifacts`], so repeated sessions on one dataset
//! share a single build. On a streaming epoch the HNSW graph spans every
//! appended row, deleted ones included: its walk crosses tombstones but
//! never returns them, so a seed asks for its budget and no more.

use crate::degrade::{DegradationEvent, DegradationKind};
use crate::error::HinnError;
use hinn_baselines::{knn_indices_by, knn_indices_with, Metric, VaFile};
use hinn_cache::DatasetArtifacts;
use hinn_data::{EpochSnapshot, RowChunks};
use hinn_index::{Hnsw, HnswParams};
use hinn_par::Parallelism;

/// Tombstone fraction (deleted / appended) beyond which the epoch HNSW
/// seed abandons the incremental append-only graph and rebuilds over the
/// alive rows. The walk never returns a tombstone, but it still crosses
/// them, so their share of the nodes it scores grows with this fraction.
pub(crate) const REBUILD_TOMBSTONE_FRACTION: f64 = 0.3;

/// How a session seeds its initial candidate (alive) set. See the module
/// docs; configured via
/// [`SearchConfig::with_candidate_source`](crate::SearchConfig::with_candidate_source).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CandidateSource {
    /// Every point is a candidate (the paper's setting; the default).
    #[default]
    Full,
    /// Exact top-`budget` by Euclidean distance, via a full linear scan.
    /// Same answers as [`CandidateSource::Full`] would rank first, at
    /// O(N·d) seed cost — the reference the recall harness measures
    /// approximate sources against.
    Linear {
        /// Number of candidates to keep.
        budget: usize,
    },
    /// Exact top-`budget` via the VA-file filter-and-refine index
    /// (`hinn-baselines`), shared across sessions per dataset.
    VaFile {
        /// Quantization bits per dimension (1..=8).
        bits: u32,
        /// Number of candidates to keep.
        budget: usize,
    },
    /// Approximate top-`budget` via the deterministic HNSW graph
    /// (`hinn-index`), shared across sessions per (dataset, build params).
    Hnsw {
        /// Graph build/search parameters.
        params: HnswParams,
        /// Number of candidates to keep.
        budget: usize,
    },
}

impl CandidateSource {
    /// An HNSW source with default build parameters.
    pub fn hnsw(budget: usize) -> Self {
        Self::Hnsw {
            params: HnswParams::default(),
            budget,
        }
    }

    /// Is this the full-dataset (identity) source?
    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full)
    }

    /// The configured candidate budget (`None` for [`CandidateSource::Full`]).
    pub fn budget(&self) -> Option<usize> {
        match self {
            Self::Full => None,
            Self::Linear { budget } | Self::VaFile { budget, .. } | Self::Hnsw { budget, .. } => {
                Some(*budget)
            }
        }
    }

    /// Validate the source's parameters (budget ≥ 2 so a seeded session
    /// can rank something; VA-file bits and HNSW params in range).
    pub fn try_validate(&self) -> Result<(), HinnError> {
        let fail = |message: String| {
            Err(HinnError::InvalidInput {
                phase: "config.validate",
                message,
            })
        };
        if let Some(budget) = self.budget() {
            if budget < 2 {
                return fail(format!(
                    "CandidateSource: budget must be at least 2, got {budget}"
                ));
            }
        }
        match self {
            Self::VaFile { bits, .. } if !(1..=8).contains(bits) => fail(format!(
                "CandidateSource: VA-file bits must be in 1..=8, got {bits}"
            )),
            Self::Hnsw { params, .. } => match params.try_validate() {
                Ok(()) => Ok(()),
                Err(e) => fail(format!("CandidateSource: {e}")),
            },
            _ => Ok(()),
        }
    }

    /// The top-`k` candidate ids for `query`, closest first. For the exact
    /// sources this is the true Euclidean k-NN answer; for HNSW it is the
    /// graph's approximation (measured by the recall harness). `Full`
    /// degenerates to the linear scan — it has no budget of its own, so
    /// `top_k` *is* the exact baseline.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or (first call per dataset)
    /// invalid index-build input, exactly as the underlying index does.
    pub fn top_k(
        &self,
        par: Parallelism,
        points: &[Vec<f64>],
        query: &[f64],
        k: usize,
    ) -> Vec<usize> {
        match self {
            Self::Full | Self::Linear { .. } => knn_indices_with(par, points, query, k, Metric::L2),
            Self::VaFile { bits, .. } => {
                let arts = DatasetArtifacts::for_points(points);
                VaFile::shared(&arts, *bits, || points.to_vec())
                    .knn_with(par, query, k)
                    .0
            }
            // `shared` canonicalizes the stored `ef_search` (every ef
            // variant maps to one artifact slot), so the *session's*
            // configured width must travel with the query — never read it
            // back off the shared graph, whose params reflect no caller.
            Self::Hnsw { params, .. } => {
                Hnsw::shared(points, *params).knn_with_ef(query, k, params.ef_search)
            }
        }
    }

    /// The initial alive set of a session pinned to `snap`, as dense
    /// indices into its alive rows: every index for `Full`, else the
    /// source's top-`budget` — clamped up to the effective support `s_eff`
    /// (a candidate set smaller than the support would starve the
    /// ranking) and down to `n` — returned sorted ascending, the order the
    /// engine's alive set always maintains. The VA-file is shared per
    /// epoch under the chained fingerprint, the HNSW graph per append
    /// lineage ([`CandidateSource::epoch_hnsw_ids`]); nothing hashes rows.
    ///
    /// The exact sources always deliver `min(budget, n)` ids, but the
    /// HNSW graph can return fewer: disconnected components are
    /// unreachable from the entry point. A seed below the effective
    /// support would starve the ranking — or, below 2 ids, terminate the
    /// session immediately — so when the source under-delivers, the seed
    /// falls back to the exact linear scan and reports a
    /// [`DegradationKind::StarvedSeed`] event for the session's
    /// degradation log. The fallback is a pure function of
    /// `(rows, query, budget)`, so determinism is preserved.
    pub(crate) fn seed_alive(
        &self,
        par: Parallelism,
        snap: &EpochSnapshot,
        query: &[f64],
        s_eff: usize,
    ) -> (Vec<usize>, Option<DegradationEvent>) {
        let n = snap.len();
        if self.is_full() {
            return ((0..n).collect(), None);
        }
        let budget = self.budget().unwrap_or(n).max(s_eff).min(n);
        let linear = || knn_indices_by(par, n, |k| snap.alive_row(k), query, budget, Metric::L2);
        let mut ids = match self {
            Self::Full | Self::Linear { .. } => linear(),
            Self::VaFile { bits, .. } => {
                let arts = DatasetArtifacts::for_fingerprint(snap.fingerprint(), n, snap.dim());
                let rows = || (0..n).map(|k| snap.alive_row(k).to_vec()).collect();
                VaFile::shared(&arts, *bits, rows)
                    .knn_with(par, query, budget)
                    .0
            }
            Self::Hnsw { params, .. } => Self::epoch_hnsw_ids(snap, *params, query, budget),
        };
        let floor = s_eff.max(2).min(n);
        let event = (ids.len() < floor).then(|| {
            let detail = format!(
                "candidate source {:?} returned {} of {} requested ids \
                 (< effective support {}); reseeded via exact linear scan",
                self,
                ids.len(),
                budget,
                floor,
            );
            ids = linear();
            DegradationEvent::unplaced(DegradationKind::StarvedSeed, detail)
        });
        ids.sort_unstable();
        (ids, event)
    }

    /// The epoch HNSW walk: top-`budget` *dense* (alive) indices.
    ///
    /// The graph is keyed by the snapshot's *append* fingerprint chain, so
    /// epochs that differ only by deletes share one graph, and each append
    /// batch extends the predecessor's graph in place of a rebuild
    /// (bit-identical to a one-shot build — see `Hnsw::extended`). The
    /// graph reads its points from the snapshot's own row chunks. Deletes
    /// filter inside the walk: tombstones bridge it to their neighbors but
    /// take no result slot, so the walk asks for exactly `budget` ids and
    /// costs about what it would with no deletes
    /// ([`Hnsw::knn_with_ef_where`]); past [`REBUILD_TOMBSTONE_FRACTION`]
    /// the seed rebuilds over the alive rows, keyed by the full chained
    /// fingerprint.
    fn epoch_hnsw_ids(
        snap: &EpochSnapshot,
        params: HnswParams,
        query: &[f64],
        budget: usize,
    ) -> Vec<usize> {
        let appended = snap.appended_len();
        if appended == 0 {
            return Vec::new();
        }
        // Same canonicalization as `Hnsw::shared`: every `ef_search`
        // variant maps to one artifact slot, and the session's width
        // travels with the query.
        let canon = HnswParams {
            ef_search: HnswParams::default().ef_search,
            ..params
        };
        let key = canon.key();
        let dead = snap.tombstone_count();
        if dead as f64 > REBUILD_TOMBSTONE_FRACTION * appended as f64 {
            // Heavily tombstoned: rebuild over the alive rows, keyed by the
            // full chained fingerprint (appends *and* deletes), so the
            // graph itself carries no tombstones.
            let build = || {
                let alive: Vec<&[f64]> = (0..snap.len()).map(|k| snap.alive_row(k)).collect();
                Hnsw::build_rows(&RowChunks::from_rows(&alive), canon)
            };
            return DatasetArtifacts::for_fingerprint(snap.fingerprint(), snap.len(), snap.dim())
                .store()
                .get_or_insert("index.hnsw", key, build)
                .knn_with_ef(query, budget, params.ef_search);
        }
        // Incremental path: one graph over all appended rows, extended
        // from the predecessor epoch's graph when the registry still holds
        // it (a pure optimization — the extension is bit-identical to the
        // fallback one-shot build, so cache residency never changes ids).
        // Either way the graph shares the snapshot's rows and copies none.
        let build = || {
            let rows = snap.row_chunks();
            snap.prev_append_fingerprint()
                .and_then(DatasetArtifacts::lookup)
                .and_then(|prev| prev.store().get::<Hnsw>("index.hnsw", key))
                .map(|prev_graph| prev_graph.extended(rows))
                .unwrap_or_else(|| Hnsw::build_rows(rows, canon))
        };
        let graph =
            DatasetArtifacts::for_fingerprint(snap.append_fingerprint(), appended, snap.dim())
                .store()
                .get_or_insert("index.hnsw", key, build);
        // The walk returns alive global ids only; map them to dense ones
        // (`dense_index_of` is `None` exactly for tombstoned ids). With no
        // tombstones the filter is skipped: the same ids, but the bitmap
        // probe per admitted node cost about 10 % of a 400-id walk.
        let ids = if dead == 0 {
            graph.knn_with_ef(query, budget, params.ef_search)
        } else {
            graph.knn_with_ef_where(query, budget, params.ef_search, |gid| {
                !snap.is_tombstoned(gid)
            })
        };
        ids.into_iter()
            .filter_map(|gid| snap.dense_index_of(gid))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cloud(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| unif() * 100.0 - 50.0).collect())
            .collect()
    }

    #[test]
    fn default_is_full() {
        assert!(CandidateSource::default().is_full());
        assert_eq!(CandidateSource::default().budget(), None);
    }

    #[test]
    fn validation_rejects_bad_budgets_and_params() {
        assert!(CandidateSource::Full.try_validate().is_ok());
        assert!(CandidateSource::Linear { budget: 2 }.try_validate().is_ok());
        assert!(CandidateSource::Linear { budget: 1 }
            .try_validate()
            .is_err());
        assert!(CandidateSource::VaFile {
            bits: 0,
            budget: 50
        }
        .try_validate()
        .is_err());
        assert!(CandidateSource::VaFile {
            bits: 4,
            budget: 50
        }
        .try_validate()
        .is_ok());
        let bad = CandidateSource::Hnsw {
            params: HnswParams::default().with_m(1),
            budget: 50,
        };
        assert!(bad.try_validate().is_err());
        assert!(CandidateSource::hnsw(50).try_validate().is_ok());
    }

    #[test]
    fn exact_sources_agree_on_top_k() {
        let pts = cloud(300, 6, 0x11);
        let q = pts[7].clone();
        let par = Parallelism::serial();
        let full = CandidateSource::Full.top_k(par, &pts, &q, 25);
        let lin = CandidateSource::Linear { budget: 25 }.top_k(par, &pts, &q, 25);
        let va = CandidateSource::VaFile {
            bits: 4,
            budget: 25,
        }
        .top_k(par, &pts, &q, 25);
        assert_eq!(full, lin);
        assert_eq!(full, va);
        assert_eq!(full[0], 7, "self-query returns self first");
    }

    /// The current snapshot of a handle seeded with `pts`.
    fn snapshot(pts: &[Vec<f64>]) -> Arc<EpochSnapshot> {
        hinn_data::DatasetHandle::new(pts)
            .expect("clean rows")
            .snapshot()
    }

    #[test]
    fn seed_alive_full_is_identity() {
        let pts = cloud(40, 4, 0x22);
        let (alive, event) =
            CandidateSource::Full.seed_alive(Parallelism::serial(), &snapshot(&pts), &pts[0], 20);
        assert_eq!(alive, (0..40).collect::<Vec<_>>());
        assert!(event.is_none());
    }

    #[test]
    fn seed_alive_is_sorted_and_clamped() {
        let pts = cloud(200, 5, 0x33);
        let snap = snapshot(&pts);
        let q = pts[0].clone();
        let par = Parallelism::serial();
        // Budget below s_eff clamps up; above n clamps down.
        let (small, event) = CandidateSource::Linear { budget: 3 }.seed_alive(par, &snap, &q, 30);
        assert_eq!(small.len(), 30);
        assert!(event.is_none(), "an exact source never starves");
        assert!(small.windows(2).all(|w| w[0] < w[1]), "sorted unique ids");
        assert!(small.contains(&0), "the query's own point survives");
        let (big, _) = CandidateSource::Linear { budget: 10_000 }.seed_alive(par, &snap, &q, 30);
        assert_eq!(big, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn hnsw_seed_alive_is_deterministic() {
        let pts = cloud(400, 8, 0x44);
        let snap = snapshot(&pts);
        let q = pts[11].clone();
        let src = CandidateSource::hnsw(60);
        let (a, a_event) = src.seed_alive(Parallelism::serial(), &snap, &q, 20);
        let (b, _) = src.seed_alive(Parallelism::fixed(7), &snap, &q, 20);
        assert_eq!(a, b, "HNSW seeding must ignore the thread budget");
        assert_eq!(a.len(), 60);
        assert!(a_event.is_none(), "a healthy graph delivers the budget");
    }

    #[test]
    fn starved_hnsw_seed_falls_back_to_linear_with_a_diagnostic() {
        // Identical rows: every new node's reverse links tie with older
        // ones and lose the `(dist, id)` prune, so with m = 2 only a
        // handful of nodes are reachable from the entry point. A budget of
        // 30 cannot be met and the seed must fall back to the exact
        // linear scan instead of starving the session.
        let pts = vec![vec![1.0, -2.0, 0.5, 3.0]; 40];
        let q = pts[0].clone();
        let src = CandidateSource::Hnsw {
            params: HnswParams::default().with_m(2),
            budget: 30,
        };
        let (alive, event) = src.seed_alive(Parallelism::serial(), &snapshot(&pts), &q, 30);
        assert_eq!(alive, (0..30).collect::<Vec<_>>(), "the linear scan's ties");
        assert!(alive.windows(2).all(|w| w[0] < w[1]), "sorted unique ids");
        let event = event.expect("a starved seed must be observable");
        assert_eq!(event.kind, DegradationKind::StarvedSeed);
        assert!(event.detail.contains("linear"), "{}", event.detail);
    }

    #[test]
    fn epoch_hnsw_seed_is_chunking_invariant_and_filters_tombstones() {
        use hinn_data::DatasetHandle;
        let pts = cloud(300, 6, 0x66);
        let q = pts[3].clone();
        let src = CandidateSource::hnsw(40);
        let par = Parallelism::serial();

        let batched = DatasetHandle::new(&pts).expect("clean rows");
        let chunked = DatasetHandle::empty(6).expect("dim");
        chunked.append(&pts[..100]).expect("chunk 1");
        chunked.append(&pts[100..101]).expect("chunk 2");
        chunked.append(&pts[101..]).expect("chunk 3");

        let (snap_b, snap_c) = (batched.snapshot(), chunked.snapshot());
        let (a, ea) = src.seed_alive(par, &snap_b, &q, 20);
        let (b, eb) = src.seed_alive(par, &snap_c, &q, 20);
        assert_eq!(a, b, "chunked ingest must seed identically to batched");
        assert_eq!(a.len(), 40);
        assert!(ea.is_none() && eb.is_none());

        // Delete five seeded points (dense == global pre-delete) from both
        // handles: the walk must cross the tombstones without returning
        // them, and the two lineages must still agree.
        let victims: Vec<usize> = a.iter().take(5).copied().collect();
        batched.delete(&victims).expect("known ids");
        chunked.delete(&victims).expect("known ids");
        let (snap_b, snap_c) = (batched.snapshot(), chunked.snapshot());
        let (a2, _) = src.seed_alive(par, &snap_b, &q, 20);
        let (b2, _) = src.seed_alive(par, &snap_c, &q, 20);
        assert_eq!(a2, b2);
        assert_eq!(a2.len(), 40, "tombstones must not starve the seed");
        // The same seed as a cold graph over every appended row, walked
        // with the tombstones as its filter.
        let params = HnswParams::default();
        let mut expected: Vec<usize> = Hnsw::build(&pts, params)
            .knn_with_ef_where(&q, 40, params.ef_search, |gid| !victims.contains(&gid))
            .into_iter()
            .filter_map(|gid| snap_b.dense_index_of(gid))
            .collect();
        expected.sort_unstable();
        assert_eq!(a2, expected, "seed differs from a cold filtered walk");
        let alive_ids = snap_b.alive_ids();
        for &dense in &a2 {
            assert!(
                !victims.contains(&alive_ids[dense]),
                "tombstoned id leaked into the seed"
            );
        }
    }

    #[test]
    fn epoch_hnsw_graph_extends_across_appends() {
        use hinn_data::DatasetHandle;
        let pts = cloud(236, 5, 0x99);
        let q = pts[17].clone();
        // A build seed no other test uses: every graph in the registry
        // under these params was registered by this test.
        let params = HnswParams::default().with_seed(0xE7E7_0013);
        let canon = HnswParams {
            ef_search: HnswParams::default().ef_search,
            ..params
        };
        let src = CandidateSource::Hnsw { params, budget: 30 };
        let registered = |snap: &EpochSnapshot| {
            DatasetArtifacts::lookup(snap.append_fingerprint())
                .and_then(|arts| arts.store().get::<Hnsw>("index.hnsw", canon.key()))
        };
        let handle = DatasetHandle::empty(5).expect("dim");
        let mut stop = 0;
        for (k, len) in [120, 40, 1, 75].into_iter().enumerate() {
            let prev = handle.snapshot();
            if k > 0 {
                // The predecessor's graph is still registered, so this
                // epoch's seed extends it instead of building cold.
                assert!(registered(&prev).is_some(), "epoch {k}: no graph to extend");
            }
            stop += len;
            let snap = handle.append(&pts[stop - len..stop]).expect("clean rows");
            let (seed, event) = src.seed_alive(Parallelism::serial(), &snap, &q, 10);
            assert!(event.is_none());
            // The same seed as a one-shot graph over the same rows.
            let reference = Hnsw::build(&pts[..stop], canon);
            let mut expected = reference.knn_with_ef(&q, 30, params.ef_search);
            expected.sort_unstable();
            assert_eq!(seed, expected, "epoch {k}: seed differs from a cold build");
            let graph = registered(&snap).expect("graph registered");
            assert_eq!(graph.len(), stop);
            assert_eq!(
                graph.digest(),
                reference.digest(),
                "epoch {k}: extended graph differs from a cold build"
            );
        }
    }

    #[test]
    fn epoch_hnsw_seed_rebuilds_past_the_tombstone_threshold() {
        use hinn_data::DatasetHandle;
        let pts = cloud(200, 5, 0x77);
        let q = pts[2].clone();
        let handle = DatasetHandle::new(&pts).expect("clean rows");
        // Tombstone 40% of the appended rows — past the 30% threshold the
        // seed must take the dense-rebuild path and stay deterministic.
        let victims: Vec<usize> = (100..180).collect();
        handle.delete(&victims).expect("known ids");
        let snap = handle.snapshot();
        assert!(
            snap.tombstone_count() as f64 > REBUILD_TOMBSTONE_FRACTION * snap.appended_len() as f64
        );
        let src = CandidateSource::hnsw(30);
        let (a, ea) = src.seed_alive(Parallelism::serial(), &snap, &q, 15);
        let (b, _) = src.seed_alive(Parallelism::fixed(4), &snap, &q, 15);
        assert_eq!(a, b, "rebuilt seed must ignore the thread budget");
        assert_eq!(a.len(), 30);
        assert!(ea.is_none());
        assert!(a.iter().all(|&i| i < snap.len()), "dense ids only");
        // The same ids as a graph over the gathered alive rows.
        let rows: Vec<Vec<f64>> = (0..snap.len())
            .map(|k| snap.alive_row(k).to_vec())
            .collect();
        let mut expected = CandidateSource::hnsw(30).top_k(Parallelism::serial(), &rows, &q, 30);
        expected.sort_unstable();
        assert_eq!(a, expected);
    }

    #[test]
    fn epoch_exact_sources_match_top_k_over_the_alive_rows() {
        use hinn_data::DatasetHandle;
        let pts = cloud(120, 4, 0x88);
        let q = pts[0].clone();
        let handle = DatasetHandle::new(&pts).expect("clean rows");
        handle.delete(&[7, 8, 9]).expect("known ids");
        let snap = handle.snapshot();
        let rows: Vec<Vec<f64>> = (0..snap.len())
            .map(|k| snap.alive_row(k).to_vec())
            .collect();
        let par = Parallelism::serial();
        let (full, _) = CandidateSource::Full.seed_alive(par, &snap, &q, 10);
        assert_eq!(full, (0..117).collect::<Vec<_>>());
        for src in [
            CandidateSource::Linear { budget: 25 },
            CandidateSource::VaFile {
                bits: 4,
                budget: 25,
            },
        ] {
            let (seed, event) = src.seed_alive(par, &snap, &q, 10);
            let mut expected = src.top_k(par, &rows, &q, 25);
            expected.sort_unstable();
            assert_eq!(seed, expected, "{src:?}");
            assert!(event.is_none());
        }
    }

    #[test]
    fn epoch_vafile_seed_is_shared_per_epoch() {
        use hinn_data::DatasetHandle;
        let pts = cloud(150, 4, 0x8A);
        let q = pts[5].clone();
        let handle = DatasetHandle::new(&pts).expect("clean rows");
        let src = CandidateSource::VaFile {
            bits: 5,
            budget: 20,
        };
        let registered = |snap: &EpochSnapshot| {
            DatasetArtifacts::lookup(snap.fingerprint())
                .map(|arts| VaFile::shared(&arts, 5, || panic!("not registered")))
        };
        for snap in [
            handle.snapshot(),
            handle.delete(&[0, 1]).expect("known ids"),
        ] {
            let (seed, _) = src.seed_alive(Parallelism::serial(), &snap, &q, 10);
            assert_eq!(seed.len(), 20);
            // Registered under the epoch's own fingerprint, over its alive
            // rows: a delete moves the key on.
            let index = registered(&snap).expect("keyed by the epoch fingerprint");
            assert_eq!(index.len(), snap.len());
        }
    }
}
