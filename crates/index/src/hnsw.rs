//! The HNSW graph: seeded build, deterministic search (see crate docs).

use hinn_cache::{Fingerprint, Fnv128};
use hinn_data::RowChunks;
use hinn_linalg::vector::dist_sq;
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Hard cap on graph levels: with `m_L = 1/ln m ≤ 1/ln 2 ≈ 1.44`, level 32
/// needs `u < e^{-32/1.44} ≈ 2⁻³²` — beyond any practical dataset size.
const MAX_LEVEL: usize = 32;

/// Build and search parameters of an [`Hnsw`] graph.
///
/// All fields are integers on purpose: the parameter set is hashed (into
/// the artifact-registry key and the engine's config fingerprint) via its
/// `Debug` rendering, which is exact for integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HnswParams {
    /// Max links per node on layers above 0 (the paper's `M`).
    pub m: usize,
    /// Max links per node on layer 0 (the paper's `M_max0`, typically `2M`).
    pub max_m0: usize,
    /// Dynamic-list width during construction (`efConstruction`).
    pub ef_construction: usize,
    /// Default dynamic-list width during search (`ef`); raised to `k` when
    /// a query asks for more neighbors than this.
    pub ef_search: usize,
    /// Seed for the per-point level hash. Same seed ⇒ same graph.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            max_m0: 32,
            ef_construction: 100,
            ef_search: 64,
            seed: 0x5EED_1DE5,
        }
    }
}

impl HnswParams {
    /// Set `m` (and `max_m0 = 2m`, the standard coupling).
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self.max_m0 = 2 * m;
        self
    }

    /// Set the construction list width.
    pub fn with_ef_construction(mut self, ef: usize) -> Self {
        self.ef_construction = ef;
        self
    }

    /// Set the default search list width.
    pub fn with_ef_search(mut self, ef: usize) -> Self {
        self.ef_search = ef;
        self
    }

    /// Set the level-hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the parameter ranges (`m ≥ 2`, `max_m0 ≥ m`, `ef_* ≥ 1`).
    pub fn try_validate(&self) -> Result<(), String> {
        if self.m < 2 {
            return Err(format!("hnsw: m must be >= 2, got {}", self.m));
        }
        if self.max_m0 < self.m {
            return Err(format!(
                "hnsw: max_m0 ({}) must be >= m ({})",
                self.max_m0, self.m
            ));
        }
        if self.ef_construction == 0 || self.ef_search == 0 {
            return Err("hnsw: ef_construction and ef_search must be >= 1".to_string());
        }
        Ok(())
    }

    /// Level-sampling factor `m_L = 1/ln m` (Malkov & Yashunin §4.1).
    fn m_l(&self) -> f64 {
        1.0 / (self.m as f64).ln()
    }

    /// The artifact-registry key parameter: a 64-bit fold of every field,
    /// so distinct parameter sets get distinct `("index.hnsw", key)` slots.
    pub fn key(&self) -> u64 {
        let mut h = Fnv128::new();
        h.write_usize(self.m);
        h.write_usize(self.max_m0);
        h.write_usize(self.ef_construction);
        // `ef_search` is a *query*-time knob: excluded, so tuning it does
        // not rebuild (or re-register) the graph.
        h.write_u64(self.seed);
        let fp = h.finish().0;
        (fp as u64) ^ ((fp >> 64) as u64)
    }

    /// The level of point `id`: hash the seed with the id (splitmix64) to a
    /// uniform in (0, 1], then invert the geometric-ish CDF. Independent of
    /// insertion order and of every other point.
    fn level_of(&self, id: usize) -> usize {
        let mut x = self
            .seed
            .wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // splitmix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Map to (0, 1]: (x + 1) / 2^64 over the top 53 bits.
        let u = ((x >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let level = (-u.ln() * self.m_l()).floor();
        (level as usize).min(MAX_LEVEL)
    }
}

/// Work counters of one graph search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HnswStats {
    /// Nodes whose adjacency list was expanded.
    pub hops: usize,
    /// Exact distance computations performed.
    pub dist_evals: usize,
}

/// A `(distance², id)` pair with the workspace's total deterministic
/// order: distance by `total_cmp`, ties by point id. `BinaryHeap<Entry>`
/// is a max-heap whose root is the *worst* candidate (largest distance,
/// then largest id), which is exactly what the result list evicts first.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    dist: f64,
    id: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Epoch-stamped visited set: `O(1)` clear between searches instead of an
/// `O(N)` memset, which matters during construction (N searches per
/// build). Stamps live in a plain `Vec<u32>`; bumping the epoch
/// invalidates every stamp at once.
struct Visited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Visited {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Make room for ids `0..n`. Never shrinks, and keeps the stamps it
    /// has: they are all older than the next search's epoch, and new slots
    /// start at 0, which no search's epoch ever is.
    fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Start a new search; all nodes become unvisited.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark `i` visited; `true` iff it was not already.
    fn insert(&mut self, i: u32) -> bool {
        let slot = &mut self.stamp[i as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

thread_local! {
    /// Per-thread search scratch, reused across queries and builds; it
    /// grows to the largest graph searched on the thread.
    static SCRATCH: RefCell<Visited> = RefCell::new(Visited::new(0));
}

/// Run `f` with this thread's search scratch, grown to cover ids `0..n`.
fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Visited) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut visited = cell.borrow_mut();
        visited.grow(n);
        f(&mut visited)
    })
}

/// Bit 63 of a list's diversity mask (see [`HEAD`]): set iff the mask
/// describes the list it is stored with.
const MASK_VALID: u64 = 1 << 63;

/// Largest per-layer cap whose diversity bits fit below [`MASK_VALID`].
const MASK_MAX_CAP: usize = 63;

/// Header words of a neighbor-list slot, ahead of its ids: the list's
/// length, then the low and high halves of its Alg. 4 diversity mask.
/// Bit `i` of the mask is set iff the `i`-th id passed the diversity test
/// of the selection that produced the list. It is meaningful only under
/// [`MASK_VALID`], which a selection over more than `cap ≤ 63` candidates
/// sets; such a list holds exactly `cap` ids sorted by `(dist, id)` from
/// the node, so the next link added to it overflows it and
/// [`Hnsw::prune`] re-derives the mask at once.
const HEAD: usize = 3;

/// The ids of a neighbor-list slot.
#[inline]
fn ids(slot: &[u32]) -> &[u32] {
    &slot[HEAD..HEAD + slot[0] as usize]
}

/// The diversity mask of a neighbor-list slot.
fn mask(slot: &[u32]) -> u64 {
    u64::from(slot[1]) | u64::from(slot[2]) << 32
}

/// The header of a slot holding `len` ids with diversity `mask`. A list
/// never outgrows its cap, which [`Hnsw::append`] keeps below `u32::MAX`.
fn header(len: usize, mask: u64) -> [u32; HEAD] {
    [len as u32, mask as u32, (mask >> 32) as u32]
}

/// Build-local state reused across inserts: the visited set, the work
/// counters and the buffers the neighbor selection fills.
struct Builder<'v> {
    visited: &'v mut Visited,
    stats: HnswStats,
    /// Neighbor lists copied on their first write from the graph this one
    /// shares structure with (none in a fresh build).
    lists_copied: usize,
    /// An overflowing neighbor list scored from its node.
    scored: Vec<Entry>,
    /// Positions of the candidates that passed the diversity test.
    picked: Vec<usize>,
    /// The ids a prune keeps.
    kept: Vec<u32>,
    /// An inserted node's own selection, held while its links prune others.
    own: Vec<u32>,
}

/// The positions of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A hierarchical navigable small world graph over a shared
/// [`RowChunks`] point store. See the crate docs for the determinism
/// contract.
///
/// The graph reads its points from the chunks it was built or extended
/// over, which it shares with their owner (an epoch snapshot, or the
/// private store [`Hnsw::build`] makes). A graph made by
/// [`Hnsw::extended`] also shares every neighbor list it does not change
/// with the graph it was extended from; a shared list is copied on its
/// first write (copy-on-write through the `Arc`s), so neither graph ever
/// sees the other's changes.
#[derive(Clone, Debug)]
pub struct Hnsw {
    params: HnswParams,
    /// The indexed points: point `i` is `rows.row(i)`.
    rows: RowChunks,
    /// Points with a NaN coordinate: excluded from the graph entirely —
    /// never linked, never an entry point, never returned (the same policy
    /// as the VA-file's poisoned bitmap).
    poisoned: Vec<bool>,
    /// Level of each node (meaningful only for non-poisoned nodes).
    levels: Vec<u32>,
    /// One slot per (node, layer), node-major: node `id`'s slots are
    /// `links[first[id]..first[id + 1]]`, one per layer `0..=level` (none
    /// for a poisoned node). A slot is sized once for its layer's cap:
    /// [`HEAD`] header words, then room for `cap` ids.
    links: Vec<Arc<[u32]>>,
    /// Offsets of each node's slots in `links`; `n + 1` entries.
    first: Vec<u32>,
    /// Entry node (highest level, lowest id among those); `None` iff every
    /// point is poisoned.
    entry: Option<u32>,
    max_level: usize,
}

impl Hnsw {
    /// Build the graph over `points`, copied once into a private
    /// [`RowChunks`] store (see [`Hnsw::build_rows`]).
    ///
    /// # Panics
    /// Panics if `points` is empty, rows are ragged, or `params` fail
    /// [`HnswParams::try_validate`].
    pub fn build(points: &[Vec<f64>], params: HnswParams) -> Self {
        Self::build_rows(&RowChunks::from_rows(points), params)
    }

    /// Build the graph over `rows`, sharing their chunks. Pure function of
    /// `(rows, params)`: repeat builds are bit-identical (see
    /// [`Hnsw::digest`]).
    ///
    /// # Panics
    /// Panics if `rows` is empty or zero-dimensional, or `params` fail
    /// [`HnswParams::try_validate`].
    pub fn build_rows(rows: &RowChunks, params: HnswParams) -> Self {
        assert!(!rows.is_empty(), "Hnsw: empty point set");
        if let Err(e) = params.try_validate() {
            panic!("Hnsw: invalid params: {e}");
        }
        assert!(rows.dim() > 0, "Hnsw: zero-dimensional points");

        let _span = hinn_obs::span!("index.build");
        let t0 = hinn_obs::enabled().then(std::time::Instant::now);

        let mut graph = Self::empty(rows.dim(), params);
        let (stats, _) = graph.grow(rows);

        hinn_obs::counter("index.dist_evals", stats.dist_evals as u64);
        if let Some(t0) = t0 {
            hinn_obs::observe("index.build_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
        graph
    }

    /// A graph over no points yet; [`Hnsw::grow`] grows it.
    fn empty(dim: usize, params: HnswParams) -> Self {
        Self {
            params,
            rows: RowChunks::new(dim),
            poisoned: Vec::new(),
            levels: Vec::new(),
            links: Vec::new(),
            first: vec![0],
            entry: None,
            max_level: 0,
        }
    }

    /// Adopt `rows`, which extend the graph's own rows, and insert the
    /// new ids `self.len()..rows.len()` in strict id order — combined with
    /// hash-derived levels this makes the graph independent of any
    /// external concurrency. Returns the work counters of the inserts and
    /// the neighbor lists they copied.
    fn grow(&mut self, rows: &RowChunks) -> (HnswStats, usize) {
        let (start, n) = (self.len(), rows.len());
        self.rows = rows.clone();
        self.poisoned
            .extend((start..n).map(|id| self.rows.row(id).iter().any(|v| v.is_nan())));
        self.levels
            .extend((start..n).map(|id| self.params.level_of(id) as u32));
        let layers = |id: usize| {
            if self.poisoned[id] {
                0
            } else {
                self.levels[id] as usize + 1
            }
        };
        let lists = self.links.len() + (start..n).map(layers).sum::<usize>();
        assert!(lists <= u32::MAX as usize, "Hnsw: too many points");
        assert!(
            self.params.max_m0 < u32::MAX as usize,
            "Hnsw: max_m0 exceeds a slot's u32 length"
        );
        self.first.reserve_exact(n - start);
        for id in start..n {
            self.first.push(self.first[id] + layers(id) as u32);
        }
        self.links.reserve_exact(lists - self.links.len());
        for id in start..n {
            for layer in 0..layers(id) {
                let words = HEAD + self.cap(layer);
                self.links.push(std::iter::repeat_n(0, words).collect());
            }
        }

        with_scratch(n, |visited| {
            let mut builder = Builder {
                visited,
                stats: HnswStats::default(),
                lists_copied: 0,
                scored: Vec::new(),
                picked: Vec::new(),
                kept: Vec::new(),
                own: Vec::new(),
            };
            for id in start as u32..n as u32 {
                if !self.poisoned[id as usize] {
                    self.insert(id, &mut builder);
                }
            }
            (builder.stats, builder.lists_copied)
        })
    }

    /// The link cap on `layer`: `max_m0` on layer 0, `m` above.
    fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.max_m0
        } else {
            self.params.m
        }
    }

    /// The shared, memoized graph over `points`: built at most once per
    /// (dataset fingerprint, build-params key) process-wide and handed out
    /// as an `Arc` via the [`hinn_cache::DatasetArtifacts`] registry —
    /// repeated sessions on one dataset amortize the O(N·ef·d) build.
    ///
    /// The build is a pure function of `(points, params)` and the registry
    /// key is the content fingerprint of `points`, so the shared graph is
    /// bit-identical to a fresh [`Hnsw::build`].
    ///
    /// Because the registry key excludes the query-time `ef_search` knob
    /// (see [`HnswParams::key`]), every `ef_search` variant maps to the
    /// *same* artifact slot. The stored graph must therefore not remember
    /// any one caller's `ef_search` — it is canonicalized to the default
    /// before the build, so the `Arc` handed back is independent of which
    /// caller registered first. Callers wanting a non-default search
    /// width pass it per query through [`Hnsw::knn_with_ef`].
    ///
    /// # Panics
    /// Panics exactly as [`Hnsw::build`] does on invalid input.
    pub fn shared(points: &[Vec<f64>], params: HnswParams) -> Arc<Self> {
        let params = HnswParams {
            ef_search: HnswParams::default().ef_search,
            ..params
        };
        hinn_cache::DatasetArtifacts::for_points(points)
            .store()
            .get_or_insert("index.hnsw", params.key(), || Self::build(points, params))
    }

    /// Extend the graph to `rows`, which must begin with the graph's own
    /// rows ([`RowChunks::starts_with`]; pass [`RowChunks::appended`] of
    /// [`Hnsw::rows`] or of the snapshot the graph was built over): the
    /// graph adopts their chunk table (a reference-count bump per chunk,
    /// no point is copied) and inserts the ids `self.len()..rows.len()`.
    ///
    /// Because `HnswParams::level_of` hashes ids independently and
    /// [`Hnsw::build`] inserts in strict id order, a graph built over a
    /// prefix and then extended with the suffix is **bit-identical**
    /// (same [`Hnsw::digest`]) to one built over the full set in one
    /// shot — the property that lets streaming epochs grow the shared
    /// graph incrementally instead of rebuilding per append batch.
    ///
    /// The result shares every neighbor list the new rows leave alone with
    /// `self`, so the copying is O(Δ): the lists the new nodes link into
    /// (counted as `index.lists_copied`). What stays O(N) is a
    /// reference-count bump per list and chunk, a copy of the 9-byte
    /// per-node offsets, levels and poison flags, and the build's visited
    /// set.
    ///
    /// # Panics
    /// Panics if `rows` do not begin with the graph's rows.
    pub fn extended(&self, rows: &RowChunks) -> Self {
        assert!(
            rows.starts_with(&self.rows),
            "Hnsw: extension rows do not extend the graph's rows"
        );
        if rows.len() == self.len() {
            return self.clone();
        }

        let _span = hinn_obs::span!("index.extend");
        let t0 = hinn_obs::enabled().then(std::time::Instant::now);

        let mut graph = self.clone();
        let (stats, lists_copied) = graph.grow(rows);

        hinn_obs::counter("index.dist_evals", stats.dist_evals as u64);
        hinn_obs::counter("index.lists_copied", lists_copied as u64);
        if let Some(t0) = t0 {
            hinn_obs::observe("index.extend_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
        graph
    }

    /// The indexed points: point `i` is `rows().row(i)`.
    pub fn rows(&self) -> &RowChunks {
        &self.rows
    }

    /// Number of indexed points (poisoned ones included in the count).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the index is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The build/search parameters.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// Highest populated layer.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Point `id`.
    #[inline]
    fn point(&self, id: u32) -> &[f64] {
        self.rows.row(id as usize)
    }

    /// Node `id`'s neighbor-list slots, indexed by layer.
    #[inline]
    fn layers(&self, id: u32) -> &[Arc<[u32]>] {
        let id = id as usize;
        &self.links[self.first[id] as usize..self.first[id + 1] as usize]
    }

    /// The index of node `id`'s slot on `layer` in `links`.
    fn slot(&self, id: u32, layer: usize) -> usize {
        let i = self.first[id as usize] as usize + layer;
        debug_assert!(i < self.first[id as usize + 1] as usize);
        i
    }

    /// Set node `id`'s list on `layer` to `ids` with diversity `mask`:
    /// in place if the slot is this graph's own, else in a fresh slot, so
    /// a list shared with another graph is never copied only to be
    /// overwritten.
    fn set_list(&mut self, id: u32, layer: usize, ids: &[u32], mask: u64, copied: &mut usize) {
        let i = self.slot(id, layer);
        let slot = &mut self.links[i];
        let header = header(ids.len(), mask);
        if let Some(own) = Arc::get_mut(slot) {
            own[..HEAD].copy_from_slice(&header);
            own[HEAD..HEAD + ids.len()].copy_from_slice(ids);
            return;
        }
        let room = slot.len() - HEAD - ids.len();
        *slot = header
            .into_iter()
            .chain(ids.iter().copied())
            .chain(std::iter::repeat_n(0, room))
            .collect();
        *copied += 1;
    }

    /// Approximate Euclidean k-NN: neighbor ids, closest first. The
    /// dynamic list width is `max(ef_search, k)` with `ef_search` taken
    /// from the graph's own stored params — fine for a graph you built
    /// yourself, but a graph from [`Hnsw::shared`] carries the *canonical*
    /// (default) `ef_search`, so callers tuning the knob must pass it per
    /// query via [`Hnsw::knn_with_ef`].
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<usize> {
        self.knn_with_stats(query, k).0
    }

    /// [`Hnsw::knn`] with an explicit search-list width: the dynamic list
    /// is `max(ef, k)`, independent of the `ef_search` the graph was
    /// built/registered with. This is the right entry point for shared
    /// graphs (see [`Hnsw::shared`]): the result depends only on
    /// `(points, build params, query, k, ef)`, never on which caller
    /// registered the artifact first.
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn_with_ef(&self, query: &[f64], k: usize, ef: usize) -> Vec<usize> {
        self.knn_with_stats_ef(query, k, ef).0
    }

    /// [`Hnsw::knn`] plus the work counters of the walk.
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn_with_stats(&self, query: &[f64], k: usize) -> (Vec<usize>, HnswStats) {
        self.knn_with_stats_ef(query, k, self.params.ef_search)
    }

    /// [`Hnsw::knn_with_ef`] plus the work counters of the walk.
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn_with_stats_ef(&self, query: &[f64], k: usize, ef: usize) -> (Vec<usize>, HnswStats) {
        self.search(query, k, ef, |_| true)
    }

    /// [`Hnsw::knn_with_ef`] over the ids `keep` accepts: up to `k` of
    /// them, closest first. A node `keep` rejects (a tombstone, say) is
    /// still walked through as a bridge between the nodes around it, but
    /// never takes one of the `max(ef, k)` result slots, so the walk costs
    /// about what an unfiltered one would over the accepted nodes alone
    /// (the approach of hnswlib's deleted marks). With `keep` always true
    /// this is exactly [`Hnsw::knn_with_ef`].
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn_with_ef_where(
        &self,
        query: &[f64],
        k: usize,
        ef: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        self.search(query, k, ef, keep).0
    }

    /// The k-NN walk behind every public search: greedy descent through
    /// the upper layers, then the beam search on layer 0 over the ids
    /// `keep` accepts.
    fn search(
        &self,
        query: &[f64],
        k: usize,
        ef: usize,
        keep: impl Fn(usize) -> bool,
    ) -> (Vec<usize>, HnswStats) {
        assert_eq!(query.len(), self.rows.dim(), "Hnsw: query dimensionality");
        let mut stats = HnswStats::default();
        let Some(entry) = self.entry else {
            return (Vec::new(), stats);
        };
        if k == 0 {
            return (Vec::new(), stats);
        }
        let _span = hinn_obs::span!("index.search");
        let ef = ef.max(k).max(1);

        let ids = with_scratch(self.len(), |visited| {
            // Greedy descent through the upper layers to a local minimum.
            let mut ep = Entry {
                dist: dist_sq(self.point(entry), query),
                id: entry,
            };
            stats.dist_evals += 1;
            for layer in (1..=self.max_level).rev() {
                ep = self.greedy_step(query, ep, layer, &mut stats);
            }
            // Beam search on layer 0.
            let keep = |id: u32| keep(id as usize);
            let found = self.search_layer(query, &[ep], 0, ef, keep, visited, &mut stats);
            found.into_iter().take(k).map(|e| e.id as usize).collect()
        });

        hinn_obs::counter("index.hops", stats.hops as u64);
        hinn_obs::counter("index.dist_evals", stats.dist_evals as u64);
        (ids, stats)
    }

    /// A 128-bit digest of the entire graph structure (levels, adjacency,
    /// entry point) — two graphs with equal digests are structurally
    /// identical. The equivalence tests compare digests across processes.
    pub fn digest(&self) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_usize(self.len());
        h.write_usize(self.rows.dim());
        h.write_u64(self.entry.map(|e| e as u64 + 1).unwrap_or(0));
        h.write_usize(self.max_level);
        for id in 0..self.len() {
            let layers = self.layers(id as u32);
            h.write_usize(self.levels[id] as usize);
            h.write_u8(u8::from(self.poisoned[id]));
            h.write_usize(layers.len());
            for slot in layers {
                let ids = ids(slot);
                h.write_usize(ids.len());
                for &nb in ids {
                    h.write_u64(nb as u64);
                }
            }
        }
        h.finish()
    }

    /// One greedy descent step: repeatedly move to the closest neighbor on
    /// `layer` until no neighbor improves on `(dist, id)`.
    fn greedy_step(
        &self,
        query: &[f64],
        mut ep: Entry,
        layer: usize,
        stats: &mut HnswStats,
    ) -> Entry {
        loop {
            let mut improved = false;
            if let Some(slot) = self.layers(ep.id).get(layer) {
                stats.hops += 1;
                for &u in ids(slot) {
                    let cand = Entry {
                        dist: dist_sq(self.point(u), query),
                        id: u,
                    };
                    stats.dist_evals += 1;
                    if cand < ep {
                        ep = cand;
                        improved = true;
                    }
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// The ef-bounded beam search of Malkov & Yashunin Alg. 2, returning
    /// up to `ef` entries sorted closest-first. Deterministic: both heaps
    /// order by the total `(dist, id)` comparison.
    ///
    /// Only nodes `keep` accepts enter the results. A rejected node is
    /// still scored and, under the usual rule (the results hold fewer than
    /// `ef` entries, or it beats the worst of them), enters the frontier,
    /// so the walk crosses it to the accepted nodes beyond.
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        query: &[f64],
        entries: &[Entry],
        layer: usize,
        ef: usize,
        keep: impl Fn(u32) -> bool,
        visited: &mut Visited,
        stats: &mut HnswStats,
    ) -> Vec<Entry> {
        visited.next_epoch();
        let mut results: BinaryHeap<Entry> = BinaryHeap::new(); // worst on top
        let mut frontier: BinaryHeap<Reverse<Entry>> = BinaryHeap::new(); // best on top
        for &e in entries {
            if visited.insert(e.id) {
                if keep(e.id) {
                    results.push(e);
                }
                frontier.push(Reverse(e));
            }
        }
        while results.len() > ef {
            results.pop();
        }
        while let Some(Reverse(cand)) = frontier.pop() {
            if results.len() >= ef {
                if let Some(&worst) = results.peek() {
                    if cand > worst {
                        break;
                    }
                }
            }
            stats.hops += 1;
            if let Some(slot) = self.layers(cand.id).get(layer) {
                for &u in ids(slot) {
                    if !visited.insert(u) {
                        continue;
                    }
                    let e = Entry {
                        dist: dist_sq(self.point(u), query),
                        id: u,
                    };
                    stats.dist_evals += 1;
                    if results.len() < ef {
                        if keep(u) {
                            results.push(e);
                        }
                        frontier.push(Reverse(e));
                    } else if let Some(&worst) = results.peek() {
                        if e < worst {
                            if keep(u) {
                                results.pop();
                                results.push(e);
                            }
                            frontier.push(Reverse(e));
                        }
                    }
                }
            }
        }
        let mut out = results.into_vec();
        out.sort_unstable();
        out
    }

    /// Insert node `id` (Malkov & Yashunin Alg. 1): descend to the node's
    /// level, then connect to a diversity-selected subset of the found
    /// candidates on each layer down to 0, up to the per-layer cap
    /// (`max_m0` on layer 0, `m` above; see [`Hnsw::select_diverse`]),
    /// pruning any neighbor list that overflows its cap back through the
    /// same heuristic.
    fn insert(&mut self, id: u32, b: &mut Builder) {
        let level = self.levels[id as usize] as usize;
        let Some(entry) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return;
        };

        let mut ep = Entry {
            dist: dist_sq(self.point(entry), self.point(id)),
            id: entry,
        };
        b.stats.dist_evals += 1;
        for layer in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy_step(self.point(id), ep, layer, &mut b.stats);
        }

        let ef = self.params.ef_construction;
        let mut entries = vec![ep];
        let mut own = std::mem::take(&mut b.own);
        for layer in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(
                self.point(id),
                &entries,
                layer,
                ef,
                |_| true,
                b.visited,
                &mut b.stats,
            );
            let cap = self.cap(layer);
            own.clear();
            let mask = self.select_diverse(&found, cap, &mut b.picked, &mut own, &mut b.stats);
            for &u in &own {
                self.link(u, id, layer, cap, b);
            }
            self.set_list(id, layer, &own, mask, &mut b.lists_copied);
            entries = found;
        }
        b.own = own;

        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
    }

    /// Add the link `node → id` on `layer`; a list already at `cap`
    /// re-selects instead (see [`Hnsw::prune`]).
    fn link(&mut self, node: u32, id: u32, layer: usize, cap: usize, b: &mut Builder) {
        #[cfg(test)]
        if tests::REFERENCE_PRUNE.with(std::cell::Cell::get) {
            return self.prune_reference(node, id, layer, cap, b);
        }
        let i = self.slot(node, layer);
        let len = self.links[i][0] as usize;
        if len >= cap {
            return self.prune(node, id, layer, cap, b);
        }
        // No `Weak` exists, so a count above one is exactly when
        // `make_mut` copies.
        if Arc::strong_count(&self.links[i]) > 1 {
            b.lists_copied += 1;
        }
        let slot = Arc::make_mut(&mut self.links[i]);
        slot[HEAD + len] = id;
        slot[0] += 1;
    }

    /// Shrink `node`'s full neighbor list on `layer` plus the new link
    /// `id` back to `cap` entries via the diversity heuristic, measured
    /// from `node`'s own point. The distances from `node` are recomputed;
    /// the pairwise diversity tests are not, where the list's mask is
    /// valid (see [`Hnsw::reselect`]).
    fn prune(&mut self, node: u32, id: u32, layer: usize, cap: usize, b: &mut Builder) {
        let slot = &self.links[self.slot(node, layer)];
        let p = self.point(node);
        b.scored.clear();
        b.scored
            .extend(ids(slot).iter().chain([&id]).map(|&u| Entry {
                dist: dist_sq(self.point(u), p),
                id: u,
            }));
        b.stats.dist_evals += b.scored.len();
        b.kept.clear();
        let old = mask(slot);
        let mask = if old & MASK_VALID != 0 {
            self.reselect(&mut b.scored, old, &mut b.kept, &mut b.stats)
        } else {
            b.scored.sort_unstable();
            self.select_diverse(&b.scored, cap, &mut b.picked, &mut b.kept, &mut b.stats)
        };
        self.set_list(node, layer, &b.kept, mask, &mut b.lists_copied);
    }

    /// [`Hnsw::select_diverse`] of a masked list that overflowed by one
    /// link, given the list's valid `mask`. `scored` holds the list's
    /// `cap` entries in `(dist, id)` order, then the new link `x`.
    ///
    /// Alg. 4 decides each entry against the kept-diverse entries ahead of
    /// it only. Every entry the previous selection dropped was either
    /// never examined or spilled, and so blocked nobody; the mask's bits
    /// are therefore exactly what a full rerun over the list computes. So:
    ///
    /// * entries ahead of `x` keep their bit;
    /// * `x` is tested against the kept-diverse entries ahead of it;
    /// * a diverse entry behind `x` passed against every old diverse entry
    ///   ahead of it, so it is tested only against the entries that became
    ///   diverse in this pass (`x`, and spilled entries promoted);
    /// * a spilled entry behind `x` is still blocked, unless an entry
    ///   ahead of it was demoted in this pass: then it gets the full test.
    ///
    /// The backfill is that of [`Hnsw::select_diverse`]; with `cap + 1`
    /// candidates it drops exactly the last entry that is not kept-diverse.
    /// Writes the kept ids to `out` and returns their (valid) mask.
    fn reselect(
        &self,
        scored: &mut [Entry],
        mask: u64,
        out: &mut Vec<u32>,
        stats: &mut HnswStats,
    ) -> u64 {
        let cap = scored.len() - 1;
        debug_assert!(cap <= MASK_MAX_CAP);
        let x = scored[cap];
        let rank = scored[..cap].partition_point(|e| *e < x);
        scored[rank..].rotate_right(1);
        debug_assert!(scored.windows(2).all(|w| w[0] < w[1]));

        let ahead = (1u64 << rank) - 1;
        let was = (mask & ahead) | ((mask & !MASK_VALID & !ahead) << 1);
        let (mut kept, mut fresh, mut demoted) = (0u64, 0u64, false);
        for (i, e) in scored.iter().enumerate() {
            if kept.count_ones() as usize >= cap {
                break;
            }
            let bit = 1u64 << i;
            let before = was & bit != 0;
            let now = if i < rank {
                before
            } else if i == rank || (!before && demoted) {
                bits(kept).all(|j| self.passes(e, &scored[j], stats))
            } else {
                before && bits(fresh).all(|j| self.passes(e, &scored[j], stats))
            };
            if now {
                kept |= bit;
                if !before {
                    fresh |= bit;
                }
            } else if before {
                demoted = true;
            }
        }

        let spilled = !kept & (u64::MAX >> (64 - scored.len()));
        let drop = 63 - spilled.leading_zeros() as usize;
        out.extend(
            scored
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, e)| e.id),
        );
        let below = (1u64 << drop) - 1;
        (kept & below) | ((kept >> 1) & !below) | MASK_VALID
    }

    /// One Alg. 4 test: `e` is at least as close to the base point as to
    /// the kept entry `s`.
    fn passes(&self, e: &Entry, s: &Entry, stats: &mut HnswStats) -> bool {
        stats.dist_evals += 1;
        dist_sq(self.point(e.id), self.point(s.id)) >= e.dist
    }

    /// The neighbor selection of Malkov & Yashunin Alg. 4
    /// (`extendCandidates = false`, `keepPrunedConnections = true`): scan
    /// `cands` closest-first, keep an entry only if it is at least as
    /// close to the base point as to every entry already kept, then
    /// backfill any remaining capacity with the nearest discarded
    /// entries. Plain closest-`cap` truncation points every link into the
    /// local cluster and can disconnect layer 0 on clustered data; the
    /// heuristic preserves the long-range bridges (paper §4.1).
    /// Deterministic: `cands` must be sorted in the total `(dist, id)`
    /// order, and all comparisons are between finite distances (poisoned
    /// points never enter the graph). Entries must carry distances
    /// measured from the base point.
    ///
    /// Writes the kept ids to `out` (empty on entry) in `(dist, id)` order
    /// and returns their diversity mask, valid iff there were more than
    /// `cap` candidates and `cap ≤ 63` (see [`HEAD`]). `picked`
    /// is scratch.
    fn select_diverse(
        &self,
        cands: &[Entry],
        cap: usize,
        picked: &mut Vec<usize>,
        out: &mut Vec<u32>,
        stats: &mut HnswStats,
    ) -> u64 {
        debug_assert!(cands.windows(2).all(|w| w[0] < w[1]));
        if cands.len() <= cap {
            out.extend(cands.iter().map(|e| e.id));
            return 0;
        }
        picked.clear();
        for (i, e) in cands.iter().enumerate() {
            if picked.len() >= cap {
                break;
            }
            if picked.iter().all(|&j| self.passes(e, &cands[j], stats)) {
                picked.push(i);
            }
        }
        // Backfill: every diverse entry, plus the nearest spilled ones.
        let (mut mask, mut spare) = (0u64, cap - picked.len());
        let mut next = picked.iter().copied().peekable();
        for (i, e) in cands.iter().enumerate() {
            if out.len() == cap {
                break;
            }
            if next.next_if_eq(&i).is_some() {
                if cap <= MASK_MAX_CAP {
                    mask |= 1 << out.len();
                }
            } else if spare > 0 {
                spare -= 1;
            } else {
                continue;
            }
            out.push(e.id);
        }
        if cap <= MASK_MAX_CAP {
            mask | MASK_VALID
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Route every link through [`Hnsw::prune_reference`] on this
        /// thread.
        pub(super) static REFERENCE_PRUNE: Cell<bool> = const { Cell::new(false) };
    }

    /// The reference spec of [`Hnsw::link`] and [`Hnsw::prune`]: push the
    /// link, and on overflow rescore the whole list and rerun the full
    /// Alg. 4 selection, with no mask.
    impl Hnsw {
        pub(super) fn prune_reference(
            &mut self,
            node: u32,
            id: u32,
            layer: usize,
            cap: usize,
            b: &mut Builder,
        ) {
            let mut list = ids(&self.layers(node)[layer]).to_vec();
            list.push(id);
            if list.len() > cap {
                let p = self.point(node);
                let scored: Vec<Entry> = list
                    .iter()
                    .map(|&u| {
                        b.stats.dist_evals += 1;
                        Entry {
                            dist: dist_sq(self.point(u), p),
                            id: u,
                        }
                    })
                    .collect();
                let kept = self.select_diverse_reference(scored, cap, &mut b.stats);
                list = kept.into_iter().map(|e| e.id).collect();
            }
            self.set_list(node, layer, &list, 0, &mut b.lists_copied);
        }

        fn select_diverse_reference(
            &self,
            mut cands: Vec<Entry>,
            cap: usize,
            stats: &mut HnswStats,
        ) -> Vec<Entry> {
            cands.sort_unstable();
            if cands.len() <= cap {
                return cands;
            }
            let mut kept: Vec<Entry> = Vec::with_capacity(cap);
            let mut spilled: Vec<Entry> = Vec::new();
            for e in cands {
                if kept.len() >= cap {
                    break;
                }
                let diverse = kept.iter().all(|s| {
                    stats.dist_evals += 1;
                    dist_sq(self.point(e.id), self.point(s.id)) >= e.dist
                });
                if diverse {
                    kept.push(e);
                } else {
                    spilled.push(e);
                }
            }
            for e in spilled {
                if kept.len() >= cap {
                    break;
                }
                kept.push(e);
            }
            kept.sort_unstable();
            kept
        }
    }

    /// Build over `points` with the incremental prune, or with the
    /// reference one, and return the build's own work counters.
    fn build_counted(
        points: &[Vec<f64>],
        params: HnswParams,
        reference: bool,
    ) -> (Hnsw, HnswStats) {
        REFERENCE_PRUNE.with(|r| r.set(reference));
        let mut graph = Hnsw::empty(points[0].len(), params);
        let (stats, _) = graph.grow(&RowChunks::from_rows(points));
        REFERENCE_PRUNE.with(|r| r.set(false));
        (graph, stats)
    }

    /// `graph` extended with `rows` appended to its own rows.
    fn grown(graph: &Hnsw, rows: &[Vec<f64>]) -> Hnsw {
        graph.extended(&graph.rows().appended(rows))
    }

    /// Deterministic xorshift point cloud (the harness-wide generator).
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

    /// Exact serial k-NN for cross-checking (ids closest-first, `(dist,
    /// id)` tie order — the same order the graph uses).
    fn exact_knn(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (dist_sq(p, query), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn level_hash_is_plausibly_geometric() {
        let params = HnswParams::default();
        let levels: Vec<usize> = (0..10_000).map(|id| params.level_of(id)).collect();
        let zero = levels.iter().filter(|&&l| l == 0).count();
        // P(level 0) = 1 - m^-1 ≈ 0.9375 for m=16.
        assert!((8_500..=9_900).contains(&zero), "level-0 mass: {zero}");
        assert!(levels.iter().all(|&l| l <= MAX_LEVEL));
        assert!(*levels.iter().max().unwrap() >= 1, "some node must rise");
    }

    #[test]
    fn repeat_builds_are_structurally_identical() {
        let pts = cloud(400, 8, 0xA11CE);
        let params = HnswParams::default().with_seed(7);
        let a = Hnsw::build(&pts, params);
        let b = Hnsw::build(&pts, params);
        assert_eq!(a.digest(), b.digest());
        let q = &pts[13];
        assert_eq!(a.knn(q, 10), b.knn(q, 10));
        // A different seed grows a different graph.
        let c = Hnsw::build(&pts, params.with_seed(8));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn near_exhaustive_ef_recovers_exact_knn() {
        // With ef ≥ n on a well-connected small graph the beam search
        // degenerates to an exhaustive scan of the component.
        let pts = cloud(300, 6, 0xBEEF);
        let graph = Hnsw::build(&pts, HnswParams::default().with_ef_search(300));
        for qi in [0, 17, 299] {
            let got = graph.knn(&pts[qi], 10);
            assert_eq!(got, exact_knn(&pts, &pts[qi], 10), "query {qi}");
        }
    }

    #[test]
    fn self_query_returns_self_first() {
        let pts = cloud(500, 12, 0xD0E);
        let graph = Hnsw::build(&pts, HnswParams::default());
        for qi in [0, 250, 499] {
            let got = graph.knn(&pts[qi], 3);
            assert_eq!(got.first(), Some(&qi), "query {qi}: {got:?}");
        }
    }

    #[test]
    fn poisoned_points_are_never_linked_or_returned() {
        let mut pts = cloud(200, 5, 0xF00D);
        for i in [0, 3, 77, 199] {
            pts[i][1] = f64::NAN;
        }
        let graph = Hnsw::build(&pts, HnswParams::default());
        for id in 0..graph.len() as u32 {
            let layers = graph.layers(id);
            for layer in layers {
                for &nb in ids(layer) {
                    assert!(
                        !graph.poisoned[nb as usize],
                        "node {id} links poisoned {nb}"
                    );
                }
            }
        }
        for qi in [1, 50] {
            let got = graph.knn(&pts[qi], 50);
            assert!(got.iter().all(|&i| !graph.poisoned[i]), "{got:?}");
            assert_eq!(got.len(), 50);
        }
    }

    #[test]
    fn all_points_poisoned_yields_empty_answers() {
        let pts = vec![vec![f64::NAN, 1.0]; 8];
        let graph = Hnsw::build(&pts, HnswParams::default());
        assert!(graph.entry.is_none());
        assert!(graph.knn(&[0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn k_edge_cases() {
        let pts = cloud(50, 4, 0xE);
        let graph = Hnsw::build(&pts, HnswParams::default());
        assert!(graph.knn(&pts[0], 0).is_empty());
        // k > n clamps to the reachable set.
        let all = graph.knn(&pts[0], 500);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn shared_is_memoized_and_identical_to_fresh() {
        let pts = cloud(150, 6, 0xC0FF_EE01);
        let params = HnswParams::default();
        let a = Hnsw::shared(&pts, params);
        let b = Hnsw::shared(&pts, params);
        assert!(Arc::ptr_eq(&a, &b), "registry must share one graph");
        assert_eq!(a.digest(), Hnsw::build(&pts, params).digest());
        // Different build params occupy a different artifact slot.
        let c = Hnsw::shared(&pts, params.with_m(8));
        assert!(!Arc::ptr_eq(&a, &c));
        // A search-only knob shares the build.
        let d = Hnsw::shared(&pts, params.with_ef_search(99));
        assert!(Arc::ptr_eq(&a, &d), "ef_search must not rebuild");
        // ...and never leaks into the shared graph: the stored params are
        // canonical regardless of which registrant came first.
        assert_eq!(d.params().ef_search, HnswParams::default().ef_search);
    }

    #[test]
    fn shared_search_width_ignores_registration_order() {
        // First registrant asks for a deliberately starved ef_search. A
        // later caller wanting a wide search must get it — the width is a
        // per-query argument, not a property of whoever registered first.
        let pts = cloud(300, 6, 0xC0FF_EE02);
        let params = HnswParams::default();
        let first = Hnsw::shared(&pts, params.with_ef_search(1));
        let wide = Hnsw::shared(&pts, params.with_ef_search(300));
        assert!(Arc::ptr_eq(&first, &wide), "one artifact slot");
        for qi in [0, 150, 299] {
            // ef = n degenerates to an exhaustive scan of the component,
            // so the explicit-ef answer matches exact kNN even though the
            // graph was registered with ef_search = 1.
            let got = wide.knn_with_ef(&pts[qi], 10, 300);
            assert_eq!(got, exact_knn(&pts, &pts[qi], 10), "query {qi}");
            // The explicit width also matches a privately built graph
            // whose stored ef_search is that same width.
            let own = Hnsw::build(&pts, params.with_ef_search(300));
            assert_eq!(got, own.knn(&pts[qi], 10), "query {qi}");
        }
    }

    #[test]
    fn extended_graph_is_bit_identical_to_full_build() {
        let pts = cloud(360, 7, 0x57EA4);
        let params = HnswParams::default().with_seed(3);
        let full = Hnsw::build(&pts, params);
        // One big extension and a chain of small ones both land on the
        // full build's digest.
        let prefix = Hnsw::build(&pts[..200], params);
        assert_eq!(grown(&prefix, &pts[200..]).digest(), full.digest());
        let mut graph = Hnsw::build(&pts[..100], params);
        for (start, stop) in [(100, 150), (150, 220), (220, 360)] {
            graph = grown(&graph, &pts[start..stop]);
        }
        assert_eq!(graph.len(), 360);
        assert_eq!(graph.digest(), full.digest());
        assert_eq!(graph.knn(&pts[42], 10), full.knn(&pts[42], 10));
        // A no-op extension is a plain clone.
        assert_eq!(grown(&full, &[]).digest(), full.digest());
    }

    #[test]
    fn extension_handles_poisoned_new_rows() {
        let mut pts = cloud(120, 4, 0xBAD);
        pts[110][0] = f64::NAN;
        let params = HnswParams::default();
        let graph = grown(&Hnsw::build(&pts[..100], params), &pts[100..]);
        assert_eq!(graph.digest(), Hnsw::build(&pts, params).digest());
        assert!(graph.knn(&pts[0], 120).iter().all(|&i| i != 110));
    }

    #[test]
    #[should_panic(expected = "do not extend the graph's rows")]
    fn foreign_extension_rows_panic() {
        let graph = Hnsw::build(&cloud(20, 3, 5), HnswParams::default());
        let _ = graph.extended(&RowChunks::from_rows(&cloud(30, 2, 5)));
    }

    #[test]
    #[should_panic(expected = "do not extend the graph's rows")]
    fn foreign_extension_rows_of_the_same_dimension_panic() {
        // Longer, same dimension, but other leading rows: the graph must
        // not re-point its nodes at them.
        let graph = Hnsw::build(&cloud(20, 3, 5), HnswParams::default());
        let _ = graph.extended(&RowChunks::from_rows(&cloud(30, 3, 6)));
    }

    #[test]
    fn extension_accepts_equal_rows_from_another_store() {
        // Two handles with the same rows hold the same values in distinct
        // chunks; a graph built over one extends over the other.
        let pts = cloud(60, 3, 5);
        let params = HnswParams::default();
        let graph = Hnsw::build(&pts[..40], params);
        let twin = RowChunks::from_rows(&pts[..40]).appended(&pts[40..]);
        assert_eq!(
            graph.extended(&twin).digest(),
            Hnsw::build(&pts, params).digest()
        );
    }

    #[test]
    #[should_panic(expected = "do not extend the graph's rows")]
    fn shorter_extension_rows_panic() {
        let graph = Hnsw::build(&cloud(20, 3, 5), HnswParams::default());
        let _ = graph.extended(&RowChunks::from_rows(&cloud(10, 3, 5)));
    }

    #[test]
    fn layer0_lists_use_the_max_m0_cap() {
        let pts = cloud(600, 4, 0x10_CA0);
        let params = HnswParams::default();
        let graph = Hnsw::build(&pts, params);
        let mut max_deg0 = 0;
        for id in 0..graph.len() as u32 {
            let layers = graph.layers(id);
            if let Some(l0) = layers.first() {
                max_deg0 = max_deg0.max(ids(l0).len());
                assert!(ids(l0).len() <= params.max_m0, "layer-0 cap violated");
            }
            for upper in layers.iter().skip(1) {
                assert!(ids(upper).len() <= params.m, "upper-layer cap violated");
            }
        }
        // Fresh nodes link up to max_m0 (not just m) neighbors on layer 0;
        // on a dense 600-point cloud some node must exceed the m cap.
        assert!(
            max_deg0 > params.m,
            "max layer-0 degree {max_deg0} never exceeds m = {}",
            params.m
        );
    }

    #[test]
    fn stats_count_real_work() {
        let pts = cloud(400, 8, 0x57A75);
        let graph = Hnsw::build(&pts, HnswParams::default());
        let (ids, stats) = graph.knn_with_stats(&pts[42], 10);
        assert_eq!(ids.len(), 10);
        assert!(stats.hops > 0);
        assert!(stats.dist_evals >= ids.len());
        // Sublinearity sanity: far fewer evals than a full scan would do.
        assert!(
            stats.dist_evals < pts.len(),
            "dist_evals {} >= n {}",
            stats.dist_evals,
            pts.len()
        );
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_input_panics() {
        let _ = Hnsw::build(&[], HnswParams::default());
    }

    #[test]
    #[should_panic(expected = "invalid params")]
    fn invalid_params_panic() {
        let _ = Hnsw::build(&[vec![1.0]], HnswParams::default().with_m(1));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_panics() {
        let _ = Hnsw::build(&[vec![1.0], vec![1.0, 2.0]], HnswParams::default());
    }

    #[test]
    #[should_panic(expected = "query dimensionality")]
    fn query_dim_mismatch_panics() {
        let graph = Hnsw::build(&cloud(10, 3, 1), HnswParams::default());
        let _ = graph.knn(&[0.0, 0.0], 1);
    }

    #[test]
    fn visited_epoch_wraps_safely() {
        let mut v = Visited::new(4);
        v.epoch = u32::MAX - 1;
        v.next_epoch();
        assert!(v.insert(2));
        assert!(!v.insert(2));
        v.next_epoch(); // wraps: stamps reset
        assert!(v.insert(2));
        assert_eq!(v.epoch, 1);
    }

    #[test]
    fn visited_grows_without_forgetting() {
        let mut v = Visited::new(4);
        v.next_epoch();
        assert!(v.insert(3));
        v.grow(8); // the stamp taken holds; the new ids are unvisited
        assert!(!v.insert(3));
        assert!(v.insert(7));
        v.grow(2); // never shrinks
        assert_eq!(v.stamp.len(), 8);
        v.next_epoch();
        assert!(v.insert(3) && v.insert(7));
    }

    /// A clustered cloud: `k` tight clusters around uniform centers, with
    /// every 17th row a duplicate of the row before it, so distance ties
    /// reach the `(dist, id)` tie-break.
    fn clustered(n: usize, d: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
        let centers = cloud(k, d, seed ^ 0xC1);
        let mut pts: Vec<Vec<f64>> = cloud(n, d, seed)
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let c = &centers[i % k];
                c.iter().zip(&e).map(|(c, x)| c + x * 0.02).collect()
            })
            .collect();
        for i in (17..n).step_by(17) {
            pts[i] = pts[i - 1].clone();
        }
        pts
    }

    /// The pinned fixtures: name, points, params, and the point count of
    /// the prefix the graph is first built over (the rest is added by
    /// [`Hnsw::extended`] in uneven chunks).
    fn fixture(name: &str) -> (Vec<Vec<f64>>, HnswParams, usize) {
        let p = HnswParams::default();
        match name {
            "uniform" => (cloud(800, 8, 0x0A11), p, 800),
            "clustered" => (clustered(800, 10, 6, 0xC1A5), p, 800),
            "poisoned" => {
                let mut pts = cloud(500, 6, 0xBAD5);
                for i in (5..500).step_by(37) {
                    pts[i][i % 6] = f64::NAN;
                }
                (pts, p, 500)
            }
            "m2" => (cloud(400, 5, 0x22), p.with_m(2), 400),
            "m12" => (cloud(600, 7, 0x12), p.with_m(12), 600),
            "m40" => (cloud(700, 6, 0x40), p.with_m(40), 700),
            "extended" => (clustered(600, 6, 4, 0xE7), p.with_seed(11), 250),
            other => panic!("unknown fixture {other}"),
        }
    }

    /// Build a fixture's graph: over the prefix, then extended with the
    /// rest in chunks of 80, 1 and the remainder.
    fn build_fixture(name: &str) -> Hnsw {
        let (pts, params, prefix) = fixture(name);
        let mut graph = Hnsw::build(&pts[..prefix], params);
        let mut start = prefix;
        for len in [80, 1, usize::MAX] {
            let stop = start.saturating_add(len).min(pts.len());
            graph = grown(&graph, &pts[start..stop]);
            start = stop;
        }
        graph
    }

    /// Digests of the fixtures, captured from the full-rerun prune (the
    /// reference above): any change to the graph, however deterministic,
    /// fails here.
    const PINNED: [(&str, u128); 7] = [
        ("uniform", 11324404173836025666103559944705739900),
        ("clustered", 209787826362778679669555507545830551948),
        ("poisoned", 13296566430087271932980428200328615887),
        ("m2", 9351342422828043101039035071564338595),
        ("m12", 107889493457689379480035078204715055365),
        ("m40", 18245066546225623072068349631565526174),
        ("extended", 148278654738257747877067722347252575013),
    ];

    #[test]
    fn fixture_graphs_are_pinned() {
        for (name, want) in PINNED {
            assert_eq!(build_fixture(name).digest().0, want, "fixture {name}");
        }
        let (pts, params, _) = fixture("extended");
        assert_eq!(
            Hnsw::build(&pts, params).digest(),
            build_fixture("extended").digest()
        );
    }

    #[test]
    fn incremental_prune_halves_the_build_work() {
        let pts = clustered(2_000, 10, 6, 0x2000);
        let params = HnswParams::default();
        let (reference, spec) = build_counted(&pts, params, true);
        let (graph, stats) = build_counted(&pts, params, false);
        assert_eq!(graph.digest(), reference.digest());
        assert!(
            2 * stats.dist_evals <= spec.dist_evals,
            "incremental {} vs reference {} distance evaluations",
            stats.dist_evals,
            spec.dist_evals
        );
    }

    #[test]
    fn extension_copies_only_what_the_new_rows_touch() {
        // The same 16 rows extend a graph of N and of 2N points. The
        // distance evaluations are those of the unshared graph (captured
        // before lists were shared), so sharing changes no work.
        let params = HnswParams::default();
        let fresh = cloud(16, 8, 0xF2E5);
        for (n, evals) in [(2_000, 39_171), (4_000, 41_231)] {
            let graph = Hnsw::build(&cloud(n, 8, 0xDE17A), params);
            let mut grown = graph.clone();
            let (stats, copied) = grown.grow(&graph.rows.appended(&fresh));
            let touched: usize = (n..n + fresh.len())
                .map(|id| (grown.levels[id] as usize + 1) * params.max_m0)
                .sum();
            assert!(
                0 < copied && copied <= touched,
                "n = {n}: {copied} lists copied, bound {touched}"
            );
            assert_eq!(stats.dist_evals, evals, "n = {n}");
        }
    }

    #[test]
    fn extension_shares_the_rows_it_is_given() {
        // The graph reads its points from the chunks it is handed: an
        // extension adopts the extended store's chunk table outright and
        // still lands on the cold build's digest.
        let pts = cloud(2_100, 6, 0x5A4E);
        let params = HnswParams::default();
        let prefix = RowChunks::from_rows(&pts[..2_050]);
        let rows = prefix.appended(&pts[2_050..]);
        let graph = Hnsw::build_rows(&prefix, params).extended(&rows);
        let (ours, theirs) = (graph.rows.chunks(), rows.chunks());
        assert_eq!(ours.len(), theirs.len());
        assert!(ours.iter().zip(theirs).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(graph.digest(), Hnsw::build(&pts, params).digest());
    }

    #[test]
    fn sibling_extensions_leave_their_predecessor_intact() {
        // Two lineages grow from one predecessor. Its rows all sit in one
        // partly filled chunk, and both children relink its lists.
        let pts = clustered(700, 6, 4, 0x51B);
        let params = HnswParams::default().with_seed(5);
        let other: Vec<Vec<f64>> = pts[..500].iter().chain(&pts[600..]).cloned().collect();
        let queries = [0, 250, 498, 499];
        for reference in [false, true] {
            REFERENCE_PRUNE.with(|r| r.set(reference));
            let base = Hnsw::build(&pts[..500], params);
            let answers = |g: &Hnsw| queries.map(|q| g.knn(&pts[q], 10));
            let (digest, before) = (base.digest(), answers(&base));
            let a = grown(&base, &pts[500..600]);
            let b = grown(&base, &pts[600..]);
            // A grandchild writes into lists `a` shares with `base`.
            let c = grown(&a, &pts[600..]);
            assert_ne!(a.digest(), b.digest());
            assert_eq!(a.digest(), Hnsw::build(&pts[..600], params).digest());
            assert_eq!(b.digest(), Hnsw::build(&other, params).digest());
            assert_eq!(c.digest(), Hnsw::build(&pts, params).digest());
            assert_eq!(base.digest(), digest, "reference prune: {reference}");
            assert_eq!(answers(&base), before, "reference prune: {reference}");
            REFERENCE_PRUNE.with(|r| r.set(false));
        }
    }

    /// The unfiltered walk on each pinned fixture, captured before the walk
    /// took a filter: the summed `(hops, dist_evals)` of three queries
    /// (`k = 10`, `ef = 48`) and the low half of a digest of their answers.
    const PINNED_WALKS: [(&str, usize, usize, u64); 7] = [
        ("uniform", 156, 1234, 11130473209054051823),
        ("clustered", 157, 536, 18032875442577477952),
        ("poisoned", 155, 919, 97049477343823429),
        ("m2", 176, 363, 3542977085972942388),
        ("m12", 155, 869, 13222527367566162007),
        ("m40", 151, 1316, 17516896719713220228),
        ("extended", 154, 518, 9334720649422382336),
    ];

    #[test]
    fn unfiltered_walks_are_pinned() {
        for (name, hops, dist_evals, answers) in PINNED_WALKS {
            let (pts, _, _) = fixture(name);
            let graph = build_fixture(name);
            let n = pts.len();
            let mut h = Fnv128::new();
            let mut total = HnswStats::default();
            for qi in [1, n / 2, n - 2] {
                let (ids, stats) = graph.knn_with_stats_ef(&pts[qi], 10, 48);
                let kept = graph.knn_with_ef_where(&pts[qi], 10, 48, |_| true);
                assert_eq!(kept, ids, "fixture {name}, query {qi}");
                ids.iter().for_each(|&id| h.write_usize(id));
                total.hops += stats.hops;
                total.dist_evals += stats.dist_evals;
            }
            assert_eq!(
                (total.hops, total.dist_evals, h.finish().0 as u64),
                (hops, dist_evals, answers),
                "fixture {name}"
            );
        }
    }

    /// `true` for about a `frac` share of ids, scattered by a
    /// multiplicative hash.
    fn tombstoned(id: usize, frac: f64) -> bool {
        let h = (id as u64 ^ 0x7011_B570).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < frac
    }

    #[test]
    fn filtered_walk_returns_only_accepted_ids() {
        let pts = cloud(800, 8, 0xDEAD);
        let graph = Hnsw::build(&pts, HnswParams::default());
        let alive = |id: usize| !tombstoned(id, 0.25);
        for qi in [0, 1, 400, 799] {
            let q = &pts[qi];
            let got = graph.knn_with_ef_where(q, 30, 64, alive);
            assert_eq!(got.len(), 30, "query {qi}");
            assert!(got.iter().all(|&id| alive(id)), "query {qi}: {got:?}");
            // As wide as the graph, the walk finds the exact alive top-k.
            let mut exact: Vec<usize> = (0..pts.len()).filter(|&id| alive(id)).collect();
            exact.sort_by(|&a, &b| {
                let (da, db) = (dist_sq(&pts[a], q), dist_sq(&pts[b], q));
                da.total_cmp(&db).then(a.cmp(&b))
            });
            exact.truncate(30);
            assert_eq!(graph.knn_with_ef_where(q, 30, 800, alive), exact);
        }
        // With exactly `k` accepted ids, a narrow walk keeps crossing the
        // rejected ones until it has them all (the query's own id among
        // the rejected).
        let few: Vec<usize> = (0..pts.len()).step_by(50).collect();
        let mut got = graph.knn_with_ef_where(&pts[3], few.len(), 8, |id| id % 50 == 0);
        got.sort_unstable();
        assert_eq!(got, few);
    }

    #[test]
    fn filtered_walk_work_does_not_grow_with_tombstones() {
        // A filtered walk scores about `1 / alive share` times the nodes a
        // clean one does, at most 1.43× below the 0.3 rebuild threshold
        // the epoch seed applies; 1.5× leaves room for the graph's shape.
        // Asking an unfiltered walk for `k + dead` ids instead (the
        // post-filter alternative) widens its beam with every tombstone.
        const FACTOR: f64 = 1.5;
        let pts = cloud(2_000, 8, 0x70B5);
        let graph = Hnsw::build(&pts, HnswParams::default());
        let (k, ef) = (100, 64);
        let evals = |k: usize, keep: &dyn Fn(usize) -> bool| -> usize {
            [7, 500, 1_000, 1_999]
                .iter()
                .map(|&qi| graph.search(&pts[qi], k, ef, keep).1.dist_evals)
                .sum()
        };
        let clean = evals(k, &|_| true);
        let mut last_overfetch = clean;
        for frac in [0.10, 0.20, 0.29] {
            let dead = (0..pts.len()).filter(|&id| tombstoned(id, frac)).count();
            let filtered = evals(k, &|id| !tombstoned(id, frac));
            assert!(
                filtered as f64 <= FACTOR * clean as f64,
                "{frac}: filtered walk {filtered} vs clean {clean} distance evaluations"
            );
            let overfetch = evals(k + dead, &|_| true);
            assert!(
                overfetch > last_overfetch && overfetch > filtered,
                "{frac}: over-fetch {overfetch} after {last_overfetch}, filtered {filtered}"
            );
            last_overfetch = overfetch;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn incremental_prune_matches_the_reference(
            n in 2..300usize,
            d in 1..8usize,
            m in 2..12usize,
            ef in 2..48usize,
            seed in 0..u64::MAX,
            split in 0.0..1.0f64,
            shape in 0..3usize,
        ) {
            let mut pts = match shape {
                0 => cloud(n, d, seed),
                _ => clustered(n, d, 3, seed),
            };
            if shape == 2 {
                for i in (3..n).step_by(23) {
                    pts[i][0] = f64::NAN;
                }
            }
            let params = HnswParams::default()
                .with_m(m)
                .with_ef_construction(ef)
                .with_seed(seed);
            let (reference, _) = build_counted(&pts, params, true);
            let prefix = 1 + (split * (n - 1) as f64) as usize;
            let mut graph = Hnsw::build(&pts[..prefix], params);
            for chunk in pts[prefix..].chunks(1 + n / 5) {
                graph = grown(&graph, chunk);
            }
            prop_assert_eq!(graph.digest(), reference.digest());
        }
    }
}
