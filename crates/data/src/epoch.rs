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
//! * [`EpochSnapshot`] is one frozen epoch: `Arc`'d [`ColumnStore`]
//!   segments (one per append batch, structurally shared across epochs),
//!   a tombstone bitmap over global row ids, the epoch-chained
//!   fingerprints, and the dense alive rows a pinned session runs over.
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
//! dense rows — the property the epoch determinism suite pins
//! bit-for-bit. The chain deliberately differs from
//! `Fingerprint::of_points` (which writes the outer length first and so
//! cannot be prefix-folded); it generalizes the session layer's
//! alive-set chaining to dataset mutations. A second, append-only chain
//! ([`EpochSnapshot::append_fingerprint`]) ignores deletes; the shared
//! HNSW graph keys on it so tombstones do not force a graph rebuild.

use crate::ColumnStore;
use hinn_cache::{Fingerprint, Fnv128};
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

/// One frozen epoch of a streaming dataset: shared columnar segments, a
/// tombstone bitmap over global row ids, the chained fingerprints, and
/// the dense alive rows. Cheap to clone behind an `Arc`; sessions pin one
/// at open and keep it for their whole life.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Row-operations applied since genesis (appended rows + deleted
    /// ids). Chunking-invariant, monotone, and *excluded* from identity:
    /// two snapshots are interchangeable iff their chained fingerprints
    /// match.
    epoch: u64,
    dim: usize,
    /// One columnar segment per append batch, shared across epochs.
    segments: Vec<Arc<ColumnStore>>,
    /// Global id of each segment's first row.
    seg_starts: Vec<usize>,
    /// Rows ever appended (global ids are `0..appended`).
    appended: usize,
    /// Tombstone bitmap over global ids; bit set = deleted.
    tombstones: Vec<u64>,
    /// Deleted rows (popcount of `tombstones`).
    dead: usize,
    /// The full epoch chain (appends *and* deletes) — the snapshot's
    /// identity, and the dataset fingerprint epoch-pinned sessions use.
    fp: Fingerprint,
    /// The append-only chain — the HNSW graph lineage key.
    append_fp: Fingerprint,
    /// The append-only chain *before* this epoch's most recent append
    /// batch, so an index can extend its predecessor's graph instead of
    /// rebuilding.
    prev_append_fp: Option<Fingerprint>,
    /// Alive rows in global-id order (the dense view the session engine
    /// runs over), built with the snapshot.
    dense: Arc<Vec<Vec<f64>>>,
    /// Global id of each dense row.
    alive_ids: Arc<Vec<usize>>,
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
        let fp = h.finish();
        Ok(Self {
            epoch: 0,
            dim,
            segments: Vec::new(),
            seg_starts: Vec::new(),
            appended: 0,
            tombstones: Vec::new(),
            dead: 0,
            fp,
            append_fp: fp,
            prev_append_fp: None,
            dense: Arc::default(),
            alive_ids: Arc::default(),
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
        self.dim
    }

    /// Alive rows (appended minus tombstoned).
    pub fn len(&self) -> usize {
        self.appended - self.dead
    }

    /// `true` iff no rows are alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows ever appended; global ids are `0..appended_len()`.
    pub fn appended_len(&self) -> usize {
        self.appended
    }

    /// Tombstoned rows.
    pub fn tombstone_count(&self) -> usize {
        self.dead
    }

    /// `true` iff global id `id` is deleted (out-of-range ids are not
    /// tombstoned — they were never appended).
    pub fn is_tombstoned(&self, id: usize) -> bool {
        id < self.appended && is_dead(&self.tombstones, id)
    }

    /// The full epoch chain — this snapshot's identity. Sessions pin it
    /// at open; caches and artifacts key on it, so stale entries become
    /// unreachable the moment the data moves on.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// The append-only chain (deletes excluded) — the lineage key for
    /// incremental index structures.
    pub fn append_fingerprint(&self) -> Fingerprint {
        self.append_fp
    }

    /// The append-only chain before this epoch's latest append batch, if
    /// any batch was ever appended.
    pub fn prev_append_fingerprint(&self) -> Option<Fingerprint> {
        self.prev_append_fp
    }

    /// Alive rows in global-id order — the dense view a pinned session
    /// runs over, shared by every reader of the snapshot.
    pub fn rows(&self) -> Arc<Vec<Vec<f64>>> {
        Arc::clone(&self.dense)
    }

    /// Global id of each dense row (ascending). `alive_ids()[k]` is the
    /// global id of `rows()[k]`.
    pub fn alive_ids(&self) -> Arc<Vec<usize>> {
        Arc::clone(&self.alive_ids)
    }

    /// Dense index of global id `id`, or `None` if tombstoned / out of
    /// range.
    pub fn dense_index_of(&self, id: usize) -> Option<usize> {
        if id >= self.appended || self.is_tombstoned(id) {
            return None;
        }
        self.alive_ids.binary_search(&id).ok()
    }

    /// The rows with global ids `start..appended_len()` (tombstoned
    /// included), gathered from the segments in id order — for index
    /// structures that insert append-only and filter tombstones at search
    /// time. `rows_since(0)` is every row ever appended.
    pub fn rows_since(&self, start: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.appended.saturating_sub(start));
        for (seg, &first) in self.segments.iter().zip(&self.seg_starts) {
            for i in start.saturating_sub(first)..seg.len() {
                out.push(seg.row(i));
            }
        }
        out
    }

    /// Gather the row with global id `id` (alive or tombstoned).
    ///
    /// # Panics
    /// Panics if `id` was never appended.
    pub fn row(&self, id: usize) -> Vec<f64> {
        assert!(id < self.appended, "EpochSnapshot: row {id} never appended");
        // seg_starts is ascending; find the owning segment.
        let seg = match self.seg_starts.binary_search(&id) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        self.segments[seg].row(id - self.seg_starts[seg])
    }

    /// Successor snapshot with `rows` appended (one new shared segment),
    /// or `None` for an empty batch.
    fn appended_with(&self, rows: &[Vec<f64>]) -> Result<Option<Self>, EpochError> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.dim {
                return Err(EpochError::DimMismatch {
                    expected: self.dim,
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
        let mut fp = self.fp;
        let mut append_fp = self.append_fp;
        for row in rows {
            fp = chain_append(fp, row);
            append_fp = chain_append(append_fp, row);
        }
        let appended = self.appended + rows.len();
        let mut dense = Vec::with_capacity(self.dense.len() + rows.len());
        dense.extend_from_slice(&self.dense);
        dense.extend_from_slice(rows);
        let mut alive_ids = Vec::with_capacity(dense.len());
        alive_ids.extend_from_slice(&self.alive_ids);
        alive_ids.extend(self.appended..appended);
        let mut segments = self.segments.clone();
        segments.push(Arc::new(ColumnStore::from_rows(rows)));
        let mut seg_starts = self.seg_starts.clone();
        seg_starts.push(self.appended);
        let mut tombstones = self.tombstones.clone();
        tombstones.resize(appended.div_ceil(64), 0);
        Ok(Some(Self {
            epoch: self.epoch + rows.len() as u64,
            dim: self.dim,
            segments,
            seg_starts,
            appended,
            tombstones,
            dead: self.dead,
            fp,
            append_fp,
            prev_append_fp: Some(self.append_fp),
            dense: Arc::new(dense),
            alive_ids: Arc::new(alive_ids),
        }))
    }

    /// Successor snapshot with `ids` tombstoned, or `None` when every id
    /// is already dead. Out-of-range ids are a typed refusal;
    /// already-tombstoned ids are skipped without folding into the chain
    /// (so `delete` is idempotent and chunking-invariant).
    fn deleted_with(&self, ids: &[usize]) -> Result<Option<Self>, EpochError> {
        for &id in ids {
            if id >= self.appended {
                return Err(EpochError::UnknownId {
                    id,
                    appended: self.appended,
                });
            }
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
        let (dense, alive_ids): (Vec<Vec<f64>>, Vec<usize>) = self
            .dense
            .iter()
            .zip(self.alive_ids.iter())
            .filter(|&(_, &id)| !is_dead(&tombstones, id))
            .map(|(row, &id)| (row.clone(), id))
            .unzip();
        Ok(Some(Self {
            epoch: self.epoch + ops,
            dim: self.dim,
            segments: self.segments.clone(),
            seg_starts: self.seg_starts.clone(),
            appended: self.appended,
            tombstones,
            dead: self.dead + ops as usize,
            fp,
            append_fp: self.append_fp,
            prev_append_fp: self.prev_append_fp,
            dense: Arc::new(dense),
            alive_ids: Arc::new(alive_ids),
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
        self.lock().dim
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
        assert_eq!(a.append_fingerprint(), b.append_fingerprint());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.len(), b.len());
        assert_same_rows(&a, &b);
        assert_eq!(a.rows_since(0), data);
    }

    fn assert_same_rows(a: &EpochSnapshot, b: &EpochSnapshot) {
        assert_eq!(*a.alive_ids(), *b.alive_ids());
        for (x, y) in a.rows().iter().zip(b.rows().iter()) {
            for (p, q) in x.iter().zip(y) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
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
            assert_eq!(snap.rows()[k], data[id]);
            assert_eq!(snap.row(id), data[id]);
        }
        assert_eq!(snap.rows_since(0), data);
        assert_eq!(snap.rows_since(48), data[48..]);
        assert!(snap.rows_since(50).is_empty());
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
}
