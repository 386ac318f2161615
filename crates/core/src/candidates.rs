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
//! processes). Every source reads a pinned [`EpochSnapshot`], and the
//! VA-file and HNSW sources memoize their index in the snapshot's own
//! [`artifacts`](EpochSnapshot::artifacts), so every session pinned to
//! one epoch shares a single build and the index is freed with the
//! epoch. The HNSW graph spans every appended row, deleted ones included:
//! its walk crosses tombstones but never returns them, so a seed asks for
//! its budget and no more. An epoch's graph grows out of the longest one
//! its handle has built ([`EpochSnapshot::lineage`]), so an append costs
//! the insertion of the new rows, not a rebuild.

use crate::degrade::{DegradationEvent, DegradationKind};
use crate::error::HinnError;
use hinn_baselines::{knn_indices_by, Metric, VaFile};
use hinn_data::{EpochSnapshot, RowChunks};
use hinn_index::{Hnsw, HnswParams};
use hinn_par::Parallelism;
use std::sync::Arc;

/// Artifact name of the append-only HNSW graph over every appended row.
const HNSW: &str = "index.hnsw";
/// Artifact name of the HNSW graph rebuilt over the alive rows.
const HNSW_ALIVE: &str = "index.hnsw.alive";

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

    /// The top-`k` candidate ids for `query` among the alive rows of
    /// `snap`, as dense indices, closest first. For the exact sources this
    /// is the true Euclidean k-NN answer; for HNSW it is the graph's
    /// approximation (measured by the recall harness). `Full` degenerates
    /// to the linear scan — it has no budget of its own, so `top_k` *is*
    /// the exact baseline.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or (first call per epoch)
    /// invalid index-build input, exactly as the underlying index does.
    pub fn top_k(
        &self,
        par: Parallelism,
        snap: &EpochSnapshot,
        query: &[f64],
        k: usize,
    ) -> Vec<usize> {
        let n = snap.len();
        match self {
            Self::Full | Self::Linear { .. } => {
                knn_indices_by(par, n, |i| snap.alive_row(i), query, k, Metric::L2)
            }
            Self::VaFile { bits, .. } => {
                let build = || Arc::new(VaFile::build(n, |i| snap.alive_row(i), *bits));
                let index =
                    snap.artifacts()
                        .get_or_insert("baselines.vafile", u64::from(*bits), build);
                index.knn_with(par, query, k).0
            }
            Self::Hnsw { params, .. } => Self::epoch_hnsw_ids(snap, *params, query, k),
        }
    }

    /// The initial alive set of a session pinned to `snap`, as dense
    /// indices into its alive rows: every index for `Full`, else the
    /// source's [`top_k`](Self::top_k) of `budget` — clamped up to the
    /// effective support `s_eff` (a candidate set smaller than the support
    /// would starve the ranking) and down to `n` — returned sorted
    /// ascending, the order the engine's alive set always maintains.
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
        let mut ids = self.top_k(par, snap, query, budget);
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
            ids = Self::Full.top_k(par, snap, query, budget);
            DegradationEvent::unplaced(DegradationKind::StarvedSeed, detail)
        });
        ids.sort_unstable();
        (ids, event)
    }

    /// The epoch HNSW walk: top-`k` *dense* (alive) indices.
    ///
    /// The graph covers every row the snapshot ever appended and reads
    /// them from the snapshot's own row chunks; it is memoized on the
    /// snapshot, so epochs pinned by live sessions keep theirs (see
    /// [`lineage_graph`]). Deletes filter inside the walk: tombstones
    /// bridge it to their neighbors but take no result slot, so the walk
    /// asks for exactly `k` ids and costs about what it would with no
    /// deletes ([`Hnsw::knn_with_ef_where`]); past
    /// [`REBUILD_TOMBSTONE_FRACTION`] the seed rebuilds over the alive
    /// rows instead, memoized on the snapshot too.
    ///
    /// Every `ef_search` variant shares one graph, built with the default
    /// width so it remembers no caller's; the session's width travels
    /// with the query.
    fn epoch_hnsw_ids(
        snap: &EpochSnapshot,
        params: HnswParams,
        query: &[f64],
        k: usize,
    ) -> Vec<usize> {
        let appended = snap.appended_len();
        if appended == 0 {
            return Vec::new();
        }
        let canon = HnswParams {
            ef_search: HnswParams::default().ef_search,
            ..params
        };
        let key = canon.key();
        let dead = snap.tombstone_count();
        if dead as f64 > REBUILD_TOMBSTONE_FRACTION * appended as f64 {
            // Heavily tombstoned: a graph over the alive rows only, so the
            // walk crosses no tombstones and its ids are already dense.
            let build = || {
                let alive: Vec<&[f64]> = (0..snap.len()).map(|i| snap.alive_row(i)).collect();
                Arc::new(Hnsw::build_rows(&RowChunks::from_rows(&alive), canon))
            };
            return snap
                .artifacts()
                .get_or_insert(HNSW_ALIVE, key, build)
                .knn_with_ef(query, k, params.ef_search);
        }
        let graph = snap
            .artifacts()
            .get_or_insert(HNSW, key, || lineage_graph(snap, canon, key));
        // The walk returns alive global ids only; map them to dense ones
        // (`dense_index_of` is `None` exactly for tombstoned ids). With no
        // tombstones the filter is skipped: the same ids, but the bitmap
        // probe per admitted node cost about 10 % of a 400-id walk.
        let ids = if dead == 0 {
            graph.knn_with_ef(query, k, params.ef_search)
        } else {
            graph.knn_with_ef_where(query, k, params.ef_search, |gid| !snap.is_tombstoned(gid))
        };
        ids.into_iter()
            .filter_map(|gid| snap.dense_index_of(gid))
            .collect()
    }
}

/// The graph over every row `snap` ever appended. The handle's lineage
/// holds the longest graph any of its snapshots has built; a handle only
/// appends, so when that graph is no longer than `snap` it covers a
/// prefix of `snap`'s rows and is shared as is or extended by the rows
/// after it (bit-identical to a one-shot build — see [`Hnsw::extended`]),
/// and the result goes back to the lineage if it is longer. A snapshot
/// older than the lineage's graph builds its own from scratch.
fn lineage_graph(snap: &EpochSnapshot, canon: HnswParams, key: u64) -> Arc<Hnsw> {
    let rows = snap.row_chunks();
    let graph = match snap.lineage().get::<Hnsw>(HNSW, key) {
        Some(held) if held.len() == rows.len() => return held,
        Some(held) if held.len() < rows.len() => Arc::new(held.extended(rows)),
        _ => Arc::new(Hnsw::build_rows(rows, canon)),
    };
    snap.lineage()
        .replace_if(HNSW, key, &graph, |held: &Hnsw| held.len() < graph.len());
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinn_data::DatasetHandle;

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

    /// The current snapshot of a handle seeded with `pts`.
    fn snapshot(pts: &[Vec<f64>]) -> Arc<EpochSnapshot> {
        DatasetHandle::new(pts).expect("clean rows").snapshot()
    }

    /// The memoized incremental graph of `snap` under `params`, if any.
    fn memoized_graph(snap: &EpochSnapshot, params: HnswParams) -> Option<Arc<Hnsw>> {
        snap.artifacts().get::<Hnsw>(HNSW, params.key())
    }

    #[test]
    fn exact_sources_agree_on_top_k() {
        let pts = cloud(300, 6, 0x11);
        let snap = snapshot(&pts);
        let q = pts[7].clone();
        let par = Parallelism::serial();
        let full = CandidateSource::Full.top_k(par, &snap, &q, 25);
        let lin = CandidateSource::Linear { budget: 25 }.top_k(par, &snap, &q, 25);
        let va = CandidateSource::VaFile {
            bits: 4,
            budget: 25,
        }
        .top_k(par, &snap, &q, 25);
        assert_eq!(full, lin);
        assert_eq!(full, va);
        assert_eq!(full[0], 7, "self-query returns self first");
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
        let pts = cloud(236, 5, 0x99);
        let q = pts[17].clone();
        let params = HnswParams::default();
        let src = CandidateSource::Hnsw { params, budget: 30 };
        let handle = DatasetHandle::empty(5).expect("dim");
        let mut stop = 0;
        for (k, len) in [120, 40, 1, 75].into_iter().enumerate() {
            let prev = handle.snapshot();
            if k > 0 {
                // The predecessor's graph is the handle's longest, so this
                // epoch's seed extends it instead of building cold.
                let held = prev.lineage().get::<Hnsw>(HNSW, params.key());
                let held = held.unwrap_or_else(|| panic!("epoch {k}: no graph to extend"));
                let own = memoized_graph(&prev, params).expect("graph memoized");
                assert!(Arc::ptr_eq(&held, &own));
            }
            stop += len;
            let snap = handle.append(&pts[stop - len..stop]).expect("clean rows");
            let (seed, event) = src.seed_alive(Parallelism::serial(), &snap, &q, 10);
            assert!(event.is_none());
            // The same seed as a one-shot graph over the same rows.
            let reference = Hnsw::build(&pts[..stop], params);
            let mut expected = reference.knn_with_ef(&q, 30, params.ef_search);
            expected.sort_unstable();
            assert_eq!(seed, expected, "epoch {k}: seed differs from a cold build");
            let graph = memoized_graph(&snap, params).expect("graph memoized");
            assert_eq!(graph.len(), stop);
            assert_eq!(
                graph.digest(),
                reference.digest(),
                "epoch {k}: extended graph differs from a cold build"
            );
        }
    }

    #[test]
    fn epochs_that_only_delete_share_their_predecessors_graph() {
        let pts = cloud(180, 4, 0x9B);
        let src = CandidateSource::hnsw(20);
        let handle = DatasetHandle::new(&pts).expect("clean rows");
        let before = handle.snapshot();
        let after = handle.delete(&[3, 4]).expect("known ids");
        for snap in [&before, &after] {
            src.seed_alive(Parallelism::serial(), snap, &pts[0], 10);
        }
        let params = HnswParams::default();
        let (a, b) = (
            memoized_graph(&before, params),
            memoized_graph(&after, params),
        );
        assert!(
            Arc::ptr_eq(&a.unwrap(), &b.unwrap()),
            "a delete copies no graph"
        );
    }

    #[test]
    fn older_snapshot_seeded_after_a_longer_graph_builds_its_own() {
        let pts = cloud(260, 5, 0x9C);
        let q = pts[40].clone();
        let params = HnswParams::default();
        let src = CandidateSource::Hnsw { params, budget: 25 };
        let par = Parallelism::serial();
        let handle = DatasetHandle::new(&pts[..200]).expect("clean rows");
        // Pinned but never seeded while the handle grows past it.
        let older = handle.snapshot();
        let newer = handle.append(&pts[200..]).expect("clean rows");
        src.seed_alive(par, &newer, &q, 10);
        let (seed, event) = src.seed_alive(par, &older, &q, 10);
        assert!(event.is_none());
        let cold = Hnsw::build(&pts[..200], params);
        let mut expected = cold.knn_with_ef(&q, 25, params.ef_search);
        expected.sort_unstable();
        assert_eq!(
            seed, expected,
            "the older epoch's seed differs from a cold build"
        );
        let own = memoized_graph(&older, params).expect("memoized on the older snapshot");
        assert_eq!(own.digest(), cold.digest());
        // The lineage keeps the longer graph.
        let held = older.lineage().get::<Hnsw>(HNSW, params.key());
        assert_eq!(held.expect("lineage graph").len(), 260);
    }

    #[test]
    fn hnsw_sources_differing_only_in_search_width_share_one_graph() {
        // One source asks for a deliberately starved ef_search, the other
        // for a width as large as the data. Seeded on one snapshot in
        // either order, they share one graph and each walks at its own
        // width: the width is a per-query argument, not a property of
        // whichever source built the graph.
        let pts = cloud(300, 6, 0xC0FF_EE02);
        let params = HnswParams::default();
        let narrow = CandidateSource::Hnsw {
            params: params.with_ef_search(1),
            budget: 10,
        };
        let wide = CandidateSource::Hnsw {
            params: params.with_ef_search(300),
            budget: 10,
        };
        let par = Parallelism::serial();
        for order in [[&narrow, &wide], [&wide, &narrow]] {
            let snap = snapshot(&pts);
            for src in order {
                for qi in [0, 150, 299] {
                    src.top_k(par, &snap, &pts[qi], 10);
                }
            }
            assert_eq!(snap.artifacts().len(), 1, "one graph for both widths");
            let graph = memoized_graph(&snap, params).expect("graph memoized");
            assert_eq!(graph.params().ef_search, params.ef_search);
            for qi in [0, 150, 299] {
                let q = &pts[qi];
                // ef = n degenerates to an exhaustive scan of the
                // component, so the wide answer is the exact k-NN one.
                let got = wide.top_k(par, &snap, q, 10);
                assert_eq!(got, CandidateSource::Full.top_k(par, &snap, q, 10));
                let own = Hnsw::build(&pts, params.with_ef_search(300)).knn(q, 10);
                assert_eq!(got, own, "query {qi}");
                let starved = Hnsw::build(&pts, params.with_ef_search(1)).knn(q, 10);
                assert_eq!(narrow.top_k(par, &snap, q, 10), starved, "query {qi}");
            }
        }
    }

    #[test]
    fn epoch_hnsw_seed_rebuilds_past_the_tombstone_threshold() {
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
        let mut expected =
            CandidateSource::hnsw(30).top_k(Parallelism::serial(), &snapshot(&rows), &q, 30);
        expected.sort_unstable();
        assert_eq!(a, expected);
    }

    #[test]
    fn epoch_exact_sources_match_top_k_over_the_alive_rows() {
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
            let mut expected = src.top_k(par, &snapshot(&rows), &q, 25);
            expected.sort_unstable();
            assert_eq!(seed, expected, "{src:?}");
            assert!(event.is_none());
        }
    }

    #[test]
    fn epoch_vafile_seed_is_shared_per_epoch() {
        let pts = cloud(150, 4, 0x8A);
        let q = pts[5].clone();
        let handle = DatasetHandle::new(&pts).expect("clean rows");
        let src = CandidateSource::VaFile {
            bits: 5,
            budget: 20,
        };
        let memoized = |snap: &EpochSnapshot| snap.artifacts().get::<VaFile>("baselines.vafile", 5);
        for snap in [
            handle.snapshot(),
            handle.delete(&[0, 1]).expect("known ids"),
        ] {
            let (seed, _) = src.seed_alive(Parallelism::serial(), &snap, &q, 10);
            assert_eq!(seed.len(), 20);
            // Memoized on the epoch itself, over its alive rows: a delete
            // starts a new index.
            let index = memoized(&snap).expect("memoized on the snapshot");
            assert_eq!(index.len(), snap.len());
            src.seed_alive(Parallelism::serial(), &snap, &q, 10);
            assert!(Arc::ptr_eq(&index, &memoized(&snap).expect("kept")));
        }
    }
}
