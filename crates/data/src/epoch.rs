//! Streaming dataset epochs: [`DatasetHandle`] / [`EpochSnapshot`].
//!
//! The paper's interactive loop assumes a frozen data set, but the
//! monitoring / fraud-triage deployments the ROADMAP targets need points
//! that arrive and expire *while analysts are mid-session*. This module
//! is the data-layer half of that story:
//!
//! * [`DatasetHandle`] is the mutable entry point: `append(rows)` /
//!   `delete(ids)` each produce a new immutable [`EpochSnapshot`] and
//!   advance the handle. Mutations serialize on an internal mutex; the
//!   snapshots they produce are plain `Arc`s that readers hold for as
//!   long as they like.
//! * [`EpochSnapshot`] is one frozen epoch: every row ever appended, by
//!   global id, in a [`RowChunks`] store whose full chunks are shared with
//!   the predecessor epoch; the ascending alive ids (a pinned session's
//!   point `k` is [`EpochSnapshot::alive_row`]`(k)`); a tombstone bitmap
//!   over global ids; the epoch-chained fingerprint; and the indexes
//!   derived from its rows (see below). An append
//!   copies the new rows and at most one partly filled chunk, a delete
//!   copies no rows. What stays O(N) per mutation is the alive-id list
//!   (8 B per row), the tombstone bitmap (1 bit per row) and the chunk
//!   table (one `Arc` per [`CHUNK_ROWS`](crate::row_chunks::CHUNK_ROWS)
//!   rows).
//!
//! # The epoch chain is chunking-invariant
//!
//! Every accepted row-operation — one appended row, one deleted id —
//! folds into the chained fingerprint *individually*:
//!
//! ```text
//! fp₀       = H("hinn-epoch-genesis", d)
//! fpₖ₊₁     = H("epoch-append", fpₖ, row)      for an appended row
//! fpₖ₊₁     = H("epoch-delete", fpₖ, id)       for a deleted id
//! ```
//!
//! so `append(&[a, b])` and `append(&[a]); append(&[b])` land on the
//! *same* fingerprint, epoch number (the count of row-operations), and
//! alive rows — the property the epoch determinism suite pins
//! bit-for-bit. It generalizes the session layer's alive-set chaining to
//! dataset mutations.
//!
//! # Derived indexes live on the snapshot
//!
//! Each snapshot owns an [`ArtifactStore`] ([`EpochSnapshot::artifacts`])
//! where the candidate layer memoizes the indexes it derives from that
//! epoch's rows: built by the first session pinned to it, shared by the
//! rest, freed with the snapshot. All snapshots of one handle also share
//! a second store ([`EpochSnapshot::lineage`]) that keeps, per index kind
//! and parameters, the longest append-only index any of them has built.
//! A handle only ever appends, so an index in the lineage store that is
//! no longer than a snapshot covers a prefix of that snapshot's rows, and
//! the snapshot's own index extends it instead of starting over.

use crate::RowChunks;
use hinn_cache::{ArtifactStore, Fingerprint, Fnv128};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Everything a dataset mutation can refuse. Total and typed — streaming
/// ingest arrives over the wire, so malformed rows must be refusals, not
/// panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochError {
    /// A handle cannot be built over zero-dimensional points.
    ZeroDim,
    /// An appended row's length differs from the handle's dimensionality.
    DimMismatch {
        /// The handle's fixed dimensionality.
        expected: usize,
        /// The offending row's length.
        got: usize,
        /// Index of the offending row within the batch.
        row: usize,
    },
    /// An appended row contains a NaN or infinite coordinate.
    NonFinite {
        /// Index of the offending row within the batch.
        row: usize,
    },
    /// A deleted id was never appended.
    UnknownId {
        /// The offending global id.
        id: usize,
        /// Rows ever appended (valid ids are `0..appended`).
        appended: usize,
    },
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroDim => write!(f, "DatasetHandle: zero-dimensional points"),
            Self::DimMismatch { expected, got, row } => write!(
                f,
                "DatasetHandle: row {row} has {got} coordinates, expected {expected}"
            ),
            Self::NonFinite { row } => {
                write!(
                    f,
                    "DatasetHandle: row {row} contains non-finite coordinates"
                )
            }
            Self::UnknownId { id, appended } => write!(
                f,
                "DatasetHandle: delete of id {id} outside the appended range 0..{appended}"
            ),
        }
    }
}

impl std::error::Error for EpochError {}

/// One frozen epoch of a streaming dataset: every row ever appended, by
/// global id, in shared copy-on-write chunks; the alive ids; a tombstone
/// bitmap over global ids; the chained fingerprint; and the indexes
/// derived from those rows. Cheap to clone behind an `Arc`; sessions pin
/// one at open and keep it for their whole life.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Row-operations applied since genesis (appended rows + deleted
    /// ids). Chunking-invariant, monotone, and *excluded* from identity:
    /// two snapshots are interchangeable iff their chained fingerprints
    /// match.
    epoch: u64,
    /// Every row ever appended (tombstoned included): global id `i` is
    /// `rows.row(i)`. Shares every full chunk with the predecessor epoch.
    rows: RowChunks,
    /// Global id of each alive row, ascending: dense index `k` is global
    /// id `alive_ids[k]`.
    alive_ids: Vec<usize>,
    /// Tombstone bitmap over global ids; bit set = deleted.
    tombstones: Vec<u64>,
    /// The full epoch chain (appends *and* deletes) — the snapshot's
    /// identity, and the dataset fingerprint epoch-pinned sessions use.
    fp: Fingerprint,
    /// Indexes derived from this epoch's rows.
    artifacts: ArtifactStore,
    /// Shared by every snapshot of the handle: the longest append-only
    /// index of each kind built so far.
    lineage: Arc<ArtifactStore>,
}

impl EpochSnapshot {
    /// The empty genesis epoch of dimensionality `dim`.
    fn genesis(dim: usize) -> Result<Self, EpochError> {
        if dim == 0 {
            return Err(EpochError::ZeroDim);
        }
        let mut h = Fnv128::new();
        h.write_str("hinn-epoch-genesis");
        h.write_usize(dim);
        Ok(Self {
            epoch: 0,
            rows: RowChunks::new(dim),
            alive_ids: Vec::new(),
            tombstones: Vec::new(),
            fp: h.finish(),
            artifacts: ArtifactStore::new(),
            lineage: Arc::default(),
        })
    }

    /// Row-operations since genesis. Monotone across `append`/`delete`
    /// and invariant to how a stream was chunked; **not** part of the
    /// snapshot's identity (compare [`Self::fingerprint`] instead).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dimensionality `d` (fixed at handle creation).
    pub fn dim(&self) -> usize {
        self.rows.dim()
    }

    /// Alive rows (appended minus tombstoned).
    pub fn len(&self) -> usize {
        self.alive_ids.len()
    }

    /// `true` iff no rows are alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows ever appended; global ids are `0..appended_len()`.
    pub fn appended_len(&self) -> usize {
        self.rows.len()
    }

    /// Tombstoned rows.
    pub fn tombstone_count(&self) -> usize {
        self.appended_len() - self.len()
    }

    /// `true` iff global id `id` is deleted (out-of-range ids are not
    /// tombstoned — they were never appended).
    pub fn is_tombstoned(&self, id: usize) -> bool {
        id < self.appended_len() && is_dead(&self.tombstones, id)
    }

    /// The full epoch chain — this snapshot's identity. Sessions pin it
    /// at open; caches and artifacts key on it, so stale entries become
    /// unreachable the moment the data moves on.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Indexes derived from this epoch's rows, memoized for every
    /// session pinned to it (see the module docs).
    pub fn artifacts(&self) -> &ArtifactStore {
        &self.artifacts
    }

    /// The store every snapshot of this handle shares: per index kind
    /// and parameters, the longest append-only index built so far (see
    /// the module docs).
    pub fn lineage(&self) -> &ArtifactStore {
        &self.lineage
    }

    /// Every row ever appended, by global id (tombstoned included) — for
    /// index structures that insert append-only and filter tombstones at
    /// search time, and share these chunks instead of copying the rows.
    pub fn row_chunks(&self) -> &RowChunks {
        &self.rows
    }

    /// The row with global id `id` (alive or tombstoned).
    ///
    /// # Panics
    /// Panics if `id` was never appended.
    pub fn row(&self, id: usize) -> &[f64] {
        self.rows.row(id)
    }

    /// The `k`-th alive row in global-id order — the row a pinned
    /// session calls point `k`.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    #[inline]
    pub fn alive_row(&self, k: usize) -> &[f64] {
        self.rows.row(self.alive_ids[k])
    }

    /// Global id of each alive row (ascending): `alive_ids()[k]` is the
    /// global id of `alive_row(k)`.
    pub fn alive_ids(&self) -> &[usize] {
        &self.alive_ids
    }

    /// Dense index of global id `id`, or `None` if tombstoned / out of
    /// range.
    pub fn dense_index_of(&self, id: usize) -> Option<usize> {
        if self.is_tombstoned(id) {
            return None;
        }
        self.alive_ids.binary_search(&id).ok()
    }

    /// Successor snapshot with `rows` appended, or `None` for an empty
    /// batch. Copies the new rows and at most one partly filled chunk.
    fn appended_with(&self, rows: &[Vec<f64>]) -> Result<Option<Self>, EpochError> {
        let dim = self.dim();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(EpochError::DimMismatch {
                    expected: dim,
                    got: row.len(),
                    row: i,
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(EpochError::NonFinite { row: i });
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        let fp = rows.iter().fold(self.fp, |fp, row| chain_append(fp, row));
        let (old, new) = (self.appended_len(), self.appended_len() + rows.len());
        let mut alive_ids = Vec::with_capacity(self.len() + rows.len());
        alive_ids.extend_from_slice(&self.alive_ids);
        alive_ids.extend(old..new);
        let mut tombstones = self.tombstones.clone();
        tombstones.resize(new.div_ceil(64), 0);
        Ok(Some(Self {
            epoch: self.epoch + rows.len() as u64,
            rows: self.rows.appended(rows),
            alive_ids,
            tombstones,
            fp,
            artifacts: ArtifactStore::new(),
            lineage: Arc::clone(&self.lineage),
        }))
    }

    /// Successor snapshot with `ids` tombstoned, or `None` when every id
    /// is already dead. Out-of-range ids are a typed refusal;
    /// already-tombstoned ids are skipped without folding into the chain
    /// (so `delete` is idempotent and chunking-invariant). Copies no rows.
    fn deleted_with(&self, ids: &[usize]) -> Result<Option<Self>, EpochError> {
        let appended = self.appended_len();
        if let Some(&id) = ids.iter().find(|&&id| id >= appended) {
            return Err(EpochError::UnknownId { id, appended });
        }
        let mut fp = self.fp;
        let mut tombstones = self.tombstones.clone();
        let mut ops = 0u64;
        for &id in ids {
            if is_dead(&tombstones, id) {
                continue; // idempotent: already dead, nothing folds
            }
            tombstones[id / 64] |= 1u64 << (id % 64);
            ops += 1;
            fp = chain_delete(fp, id);
        }
        if ops == 0 {
            return Ok(None);
        }
        let alive_ids = self
            .alive_ids
            .iter()
            .copied()
            .filter(|&id| !is_dead(&tombstones, id))
            .collect();
        Ok(Some(Self {
            epoch: self.epoch + ops,
            rows: self.rows.clone(),
            alive_ids,
            tombstones,
            fp,
            artifacts: ArtifactStore::new(),
            lineage: Arc::clone(&self.lineage),
        }))
    }
}

/// Is bit `id` set in the tombstone bitmap `bits`?
fn is_dead(bits: &[u64], id: usize) -> bool {
    bits[id / 64] & (1u64 << (id % 64)) != 0
}

fn chain_append(prev: Fingerprint, row: &[f64]) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write_str("epoch-append");
    h.write_fingerprint(prev);
    h.write_f64s(row);
    h.finish()
}

fn chain_delete(prev: Fingerprint, id: usize) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write_str("epoch-delete");
    h.write_fingerprint(prev);
    h.write_usize(id);
    h.finish()
}

/// The epoch-versioned dataset handle — the redesigned entry point every
/// search API takes. `append` / `delete` produce immutable
/// [`EpochSnapshot`]s; readers pin a snapshot and are never invalidated
/// under their feet. See the module docs for the consistency model.
#[derive(Debug)]
pub struct DatasetHandle {
    current: Mutex<Arc<EpochSnapshot>>,
}

impl DatasetHandle {
    /// An empty handle of dimensionality `dim`, ready for streaming
    /// ingest.
    ///
    /// # Errors
    /// [`EpochError::ZeroDim`] when `dim == 0`.
    pub fn empty(dim: usize) -> Result<Self, EpochError> {
        Ok(Self {
            current: Mutex::new(Arc::new(EpochSnapshot::genesis(dim)?)),
        })
    }

    /// A handle seeded with `rows` — exactly equivalent to an empty
    /// handle with `rows` appended (same chain, same epoch number), so a
    /// seeded handle and a streamed one are interchangeable.
    ///
    /// # Errors
    /// [`EpochError::ZeroDim`] on an empty or zero-dimensional seed;
    /// [`EpochError::DimMismatch`] / [`EpochError::NonFinite`] on bad
    /// rows.
    pub fn new(rows: &[Vec<f64>]) -> Result<Self, EpochError> {
        let dim = rows.first().map_or(0, Vec::len);
        let handle = Self::empty(dim)?;
        handle.append(rows)?;
        Ok(handle)
    }

    /// The current epoch snapshot. Sessions pin this at open.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.lock())
    }

    /// The current epoch number (row-operations since genesis).
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Dimensionality `d` (fixed at creation).
    pub fn dim(&self) -> usize {
        self.lock().dim()
    }

    /// Alive rows in the current epoch.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` iff the current epoch holds no alive rows.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Append `rows`, producing (and returning) the next epoch. An empty
    /// batch is a no-op returning the current snapshot.
    ///
    /// Rows are validated here and nowhere else: every path that puts
    /// points in front of a session (seeding, streaming ingest, the wire
    /// `ingest` verb) goes through this call.
    ///
    /// # Errors
    /// [`EpochError::DimMismatch`] / [`EpochError::NonFinite`]; the
    /// handle is unchanged on error (batches apply atomically).
    pub fn append(&self, rows: &[Vec<f64>]) -> Result<Arc<EpochSnapshot>, EpochError> {
        let mut cur = self.lock();
        if let Some(next) = cur.appended_with(rows)? {
            *cur = Arc::new(next);
        }
        Ok(Arc::clone(&cur))
    }

    /// Tombstone `ids`, producing (and returning) the next epoch.
    /// Already-deleted ids are skipped (idempotent); unknown ids are a
    /// typed refusal and the handle is unchanged.
    ///
    /// # Errors
    /// [`EpochError::UnknownId`] when any id was never appended.
    pub fn delete(&self, ids: &[usize]) -> Result<Arc<EpochSnapshot>, EpochError> {
        let mut cur = self.lock();
        if let Some(next) = cur.deleted_with(ids)? {
            *cur = Arc::new(next);
        }
        Ok(Arc::clone(&cur))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<EpochSnapshot>> {
        self.current.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_chunks::CHUNK_ROWS;

    fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
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
    fn chunked_and_batched_appends_are_identical() {
        let data = rows(200, 6, 0xABCD);
        let batched = DatasetHandle::new(&data).expect("batched");
        let chunked = DatasetHandle::empty(6).expect("empty");
        for chunk in data.chunks(7) {
            chunked.append(chunk).expect("chunk");
        }
        let (a, b) = (batched.snapshot(), chunked.snapshot());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.len(), b.len());
        assert_same_rows(&a, &b);
        for (id, row) in data.iter().enumerate() {
            assert_eq!(a.row(id), row.as_slice());
        }
    }

    fn assert_same_rows(a: &EpochSnapshot, b: &EpochSnapshot) {
        assert_eq!(a.alive_ids(), b.alive_ids());
        for k in 0..a.len() {
            assert_bits_eq(a.alive_row(k), b.alive_row(k));
        }
    }

    fn assert_bits_eq(x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn chunked_and_batched_deletes_are_identical() {
        let data = rows(120, 4, 0x5150);
        let ids: Vec<usize> = (0..120).step_by(3).collect();
        let batched = DatasetHandle::new(&data).expect("handle");
        batched.delete(&ids).expect("delete");
        let chunked = DatasetHandle::new(&data).expect("handle");
        for chunk in ids.chunks(5) {
            chunked.delete(chunk).expect("chunk");
        }
        let (a, b) = (batched.snapshot(), chunked.snapshot());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.len(), 120 - ids.len());
        assert_same_rows(&a, &b);
    }

    #[test]
    fn delete_is_idempotent_and_appends_change_identity() {
        let h = DatasetHandle::new(&rows(30, 3, 7)).expect("handle");
        let once = h.delete(&[4]).expect("delete");
        let twice = h.delete(&[4, 4]).expect("redelete");
        assert_eq!(once.fingerprint(), twice.fingerprint());
        assert_eq!(once.epoch(), twice.epoch());
        let before = h.snapshot().fingerprint();
        h.append(&rows(1, 3, 9)).expect("append");
        assert_ne!(h.snapshot().fingerprint(), before);
    }

    #[test]
    fn no_op_mutations_return_the_current_snapshot() {
        let h = DatasetHandle::new(&rows(20, 3, 0x77)).expect("handle");
        h.delete(&[5]).expect("delete");
        let before = h.snapshot();
        assert!(Arc::ptr_eq(&h.append(&[]).expect("empty append"), &before));
        assert!(Arc::ptr_eq(&h.delete(&[5, 5]).expect("dead id"), &before));
        assert!(Arc::ptr_eq(&h.delete(&[]).expect("no ids"), &before));
        assert!(Arc::ptr_eq(&h.snapshot(), &before));
    }

    #[test]
    fn global_ids_and_dense_view_agree() {
        let data = rows(50, 3, 0x1234);
        let h = DatasetHandle::new(&data).expect("handle");
        h.delete(&[0, 7, 49]).expect("delete");
        let snap = h.snapshot();
        assert_eq!(snap.len(), 47);
        assert_eq!(snap.appended_len(), 50);
        assert_eq!(snap.tombstone_count(), 3);
        assert!(snap.is_tombstoned(7));
        assert!(!snap.is_tombstoned(8));
        assert_eq!(snap.dense_index_of(7), None);
        let ids = snap.alive_ids();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(snap.dense_index_of(id), Some(k));
            assert_eq!(snap.alive_row(k), data[id].as_slice());
        }
        // Tombstoned rows stay readable by global id.
        for (id, row) in data.iter().enumerate() {
            assert_eq!(snap.row(id), row.as_slice());
        }
        assert_eq!(snap.dense_index_of(50), None);
    }

    #[test]
    fn mutation_refusals_are_typed_and_atomic() {
        let h = DatasetHandle::new(&rows(10, 3, 1)).expect("handle");
        let fp = h.snapshot().fingerprint();
        assert!(matches!(
            h.append(&[vec![1.0, 2.0]]),
            Err(EpochError::DimMismatch {
                expected: 3,
                got: 2,
                row: 0
            })
        ));
        assert!(matches!(
            h.append(&[vec![1.0, 2.0, f64::NAN]]),
            Err(EpochError::NonFinite { row: 0 })
        ));
        assert!(matches!(
            h.delete(&[3, 99]),
            Err(EpochError::UnknownId {
                id: 99,
                appended: 10
            })
        ));
        assert_eq!(
            h.snapshot().fingerprint(),
            fp,
            "failed batch mutated the handle"
        );
        assert!(matches!(DatasetHandle::empty(0), Err(EpochError::ZeroDim)));
        assert!(matches!(DatasetHandle::new(&[]), Err(EpochError::ZeroDim)));
    }

    #[test]
    fn seeded_equals_streamed_from_genesis() {
        let data = rows(64, 4, 0x42);
        let seeded = DatasetHandle::new(&data).expect("seeded");
        let streamed = DatasetHandle::empty(4).expect("empty");
        for row in &data {
            streamed.append(std::slice::from_ref(row)).expect("row");
        }
        assert_eq!(
            seeded.snapshot().fingerprint(),
            streamed.snapshot().fingerprint()
        );
        assert_same_rows(&seeded.snapshot(), &streamed.snapshot());
    }

    /// The chunks of `next` that are the very allocations of `prev`'s.
    fn shared_chunks(prev: &EpochSnapshot, next: &EpochSnapshot) -> usize {
        let (a, b) = (prev.row_chunks().chunks(), next.row_chunks().chunks());
        a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn appends_share_every_full_chunk() {
        // The same 16 rows appended at N and at 2N: every full chunk of
        // the predecessor is shared, and at most the partly filled last
        // one differs, so the copying does not grow with N.
        let fresh = rows(16, 5, 0xF2E5);
        for n in [2_000, 4_000] {
            let h = DatasetHandle::new(&rows(n, 5, 0xDA7A)).expect("handle");
            let prev = h.snapshot();
            let next = h.append(&fresh).expect("append");
            let full = n / CHUNK_ROWS;
            let (a, b) = (prev.row_chunks().chunks(), next.row_chunks().chunks());
            assert!(a[..full].iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)));
            assert!(shared_chunks(&prev, &next) + 1 >= a.len(), "n = {n}");
            assert_eq!(b.len(), (n + fresh.len()).div_ceil(CHUNK_ROWS));
            for (i, row) in fresh.iter().enumerate() {
                assert_eq!(next.row(n + i), row.as_slice());
            }
        }
    }

    #[test]
    fn deletes_share_every_chunk() {
        let h = DatasetHandle::new(&rows(2_500, 4, 0xDE1)).expect("handle");
        let prev = h.snapshot();
        let next = h.delete(&[0, 1_024, 2_499]).expect("delete");
        let chunks = prev.row_chunks().chunks().len();
        assert_eq!(next.row_chunks().chunks().len(), chunks);
        assert_eq!(shared_chunks(&prev, &next), chunks);
        assert_eq!(next.len(), 2_497);
    }

    #[test]
    fn pinned_predecessor_keeps_its_rows_after_a_refill() {
        // 1 030 rows leave 6 in a partly filled last chunk. Two successors
        // refill it with different rows; the pinned predecessor still
        // reads every one of its rows bit for bit.
        let data = rows(1_030, 3, 0x9E1);
        let h = DatasetHandle::new(&data).expect("handle");
        let pinned = h.snapshot();
        let a = h.append(&rows(40, 3, 0xA)).expect("append a");
        let sibling = EpochSnapshot::appended_with(&pinned, &rows(7, 3, 0xB))
            .expect("clean rows")
            .expect("non-empty batch");
        for snap in [&a, &sibling] {
            assert_eq!(shared_chunks(&pinned, snap), 1, "only the full chunk");
        }
        for (id, row) in data.iter().enumerate() {
            assert_bits_eq(pinned.row(id), row);
            assert_bits_eq(a.row(id), row);
            assert_bits_eq(sibling.row(id), row);
        }
        assert_eq!(pinned.appended_len(), 1_030);
    }
}
