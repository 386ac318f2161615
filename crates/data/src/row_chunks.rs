//! Row-major point storage in fixed-size, copy-on-write chunks: the one
//! copy of a streaming dataset's points. Epoch snapshots store their rows
//! here by global id, and the HNSW graph of `hinn-index` reads the same
//! chunks. An append shares every full chunk and copies at most the
//! partly filled last one; fixed-size chunks never fragment, so a stream
//! of small appends just refills the last chunk.

use std::sync::Arc;

/// Rows per chunk. Every chunk but the last holds exactly this many rows.
pub const CHUNK_ROWS: usize = 1024;

/// An immutable, cheaply cloned row-major point set (see module docs).
#[derive(Clone, Debug)]
pub struct RowChunks {
    dim: usize,
    len: usize,
    /// Row `i` is row `i % CHUNK_ROWS` of `chunks[i / CHUNK_ROWS]`; each
    /// chunk is sized to its rows.
    chunks: Vec<Arc<[f64]>>,
}

impl RowChunks {
    /// An empty store of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// A store over `rows`, of the first row's dimensionality (zero for
    /// no rows).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        Self::new(rows.first().map_or(0, |r| r.as_ref().len())).appended(rows)
    }

    /// The store with `rows` appended as ids `self.len()..`. Shares every
    /// chunk with `self` except a partly filled last chunk that takes
    /// rows, which is copied: `self` and any other reader of that chunk
    /// keep seeing exactly their own rows.
    ///
    /// # Panics
    /// Panics if a row's length differs from the store's dimensionality.
    pub fn appended<R: AsRef<[f64]>>(&self, rows: &[R]) -> Self {
        assert!(
            rows.iter().all(|r| r.as_ref().len() == self.dim),
            "RowChunks: ragged rows"
        );
        let mut chunks = self.chunks.clone();
        let mut rest = rows;
        if let Some(last) =
            chunks.pop_if(|_| !self.len.is_multiple_of(CHUNK_ROWS) && !rows.is_empty())
        {
            let take = rest.len().min(CHUNK_ROWS - self.len % CHUNK_ROWS);
            chunks.push(chunk(self.dim, &last, &rest[..take]));
            rest = &rest[take..];
        }
        chunks.extend(
            rest.chunks(CHUNK_ROWS)
                .map(|group| chunk(self.dim, &[], group)),
        );
        Self {
            dim: self.dim,
            len: self.len + rows.len(),
            chunks,
        }
    }

    /// Row `id` as a slice into its chunk.
    ///
    /// # Panics
    /// Panics if `id >= self.len()`.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        let start = id % CHUNK_ROWS * self.dim;
        &self.chunks[id / CHUNK_ROWS][start..start + self.dim]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The chunk table, for checking what two stores share
    /// (`Arc::ptr_eq` per chunk).
    pub fn chunks(&self) -> &[Arc<[f64]>] {
        &self.chunks
    }

    /// `true` iff every row of `prefix` is bit-equal to `self`'s row of the
    /// same id. Shared chunks (`Arc::ptr_eq`) are not compared value by
    /// value, so checking [`RowChunks::appended`]'s result against its
    /// source reads at most one partly filled chunk.
    pub fn starts_with(&self, prefix: &RowChunks) -> bool {
        self.dim == prefix.dim
            && self.len >= prefix.len
            && prefix.chunks.iter().zip(&self.chunks).all(|(p, s)| {
                Arc::ptr_eq(p, s)
                    || p.iter()
                        .zip(s.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }
}

/// A fresh chunk: the rows of `head` (a chunk's flat storage), then
/// `rows`, each of `dim` coordinates.
fn chunk<R: AsRef<[f64]>>(dim: usize, head: &[f64], rows: &[R]) -> Arc<[f64]> {
    let mut flat = Vec::with_capacity(head.len() + rows.len() * dim);
    flat.extend_from_slice(head);
    for row in rows {
        flat.extend_from_slice(row.as_ref());
    }
    flat.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, d: usize, seed: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..d).map(|j| seed + (i * d + j) as f64).collect())
            .collect()
    }

    #[test]
    fn a_store_starts_with_what_it_was_appended_to() {
        let base = RowChunks::from_rows(&rows(CHUNK_ROWS + 5, 3, 0.0));
        let grown = base.appended(&rows(40, 3, -1.0));
        assert!(grown.starts_with(&base) && base.starts_with(&base));
        assert!(!base.starts_with(&grown), "shorter than the prefix");
        // Equal rows in chunks of another lineage still match.
        let twin = RowChunks::from_rows(&rows(CHUNK_ROWS + 5, 3, 0.0));
        assert!(!Arc::ptr_eq(&twin.chunks()[0], &base.chunks()[0]));
        assert!(grown.starts_with(&twin));
    }

    #[test]
    fn foreign_rows_of_the_same_dimension_do_not_start_a_store() {
        let base = RowChunks::from_rows(&rows(CHUNK_ROWS + 5, 3, 0.0));
        let mut other = rows(CHUNK_ROWS + 50, 3, 0.0);
        // One coordinate differs, in the full chunk and then in the
        // partly filled one.
        for id in [7, CHUNK_ROWS + 2] {
            let mut moved = other.clone();
            moved[id][1] += 0.5;
            assert!(!RowChunks::from_rows(&moved).starts_with(&base), "row {id}");
        }
        other[CHUNK_ROWS + 5][0] += 0.5; // past the prefix: irrelevant
        assert!(RowChunks::from_rows(&other).starts_with(&base));
        assert!(!RowChunks::from_rows(&rows(CHUNK_ROWS + 5, 2, 0.0)).starts_with(&base));
    }
}
