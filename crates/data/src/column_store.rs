//! Columnar (structure-of-arrays) point storage.
//!
//! [`Dataset`](crate::Dataset) keeps its public row-major
//! `Vec<Vec<f64>>` — every existing call site stays valid — and this
//! module adds the columnar view the batch kernels want: one contiguous
//! slice per dimension, so a distance scan streams `d` flat arrays
//! instead of chasing `N` heap pointers, and the `hinn_linalg::simd`
//! kernels vectorize across points (one point per SIMD lane) while each
//! point's own reduction keeps the scalar spec's ascending-dimension
//! order. Result: bit-identical distances at several points per
//! instruction.
//!
//! The store is f64, and everything computed from [`ColumnStore::col`] /
//! [`ColumnStore::dist_scan_into`] is bit-identical to the row-major
//! scalar code — safe for any exact path (kNN baselines, session
//! transcripts, goldens).

use hinn_linalg::simd;

/// A point set stored one contiguous column per dimension.
#[derive(Clone, Debug)]
pub struct ColumnStore {
    n: usize,
    dim: usize,
    /// Column `j` occupies `flat[j*n .. (j+1)*n]`.
    flat: Vec<f64>,
}

impl ColumnStore {
    /// Transpose row-major points into columns.
    ///
    /// # Panics
    /// Panics if `rows` is empty, zero-dimensional, or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "ColumnStore: empty point set");
        let dim = rows[0].len();
        assert!(dim > 0, "ColumnStore: zero-dimensional points");
        let n = rows.len();
        let mut flat = vec![0.0; n * dim];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "ColumnStore: ragged point set");
            for (j, &v) in row.iter().enumerate() {
                flat[j * n + i] = v;
            }
        }
        Self { n, dim, flat }
    }

    /// Number of points `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the store holds no points (never true post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Column `j`: coordinate `j` of every point, contiguous.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.flat[j * self.n..(j + 1) * self.n]
    }

    /// Gather row `i` (one point) into `buf`.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.dim()`.
    pub fn gather_row(&self, i: usize, buf: &mut [f64]) {
        assert_eq!(buf.len(), self.dim, "gather_row: dimension mismatch");
        for (j, v) in buf.iter_mut().enumerate() {
            *v = self.flat[j * self.n + i];
        }
    }

    /// Euclidean distances from `query` to points `start..start+out.len()`,
    /// written into `out`. Bit-identical to
    /// `hinn_linalg::vector::dist(row_i, query)` per point — this is the
    /// SIMD path of the kNN scan, and the fixed-chunk parallel driver
    /// calls it per chunk (per-point results do not depend on chunking).
    ///
    /// # Panics
    /// Panics if `query.len() != self.dim()` or the range overruns `N`.
    pub fn dist_scan_into(&self, query: &[f64], start: usize, out: &mut [f64]) {
        let cols = self.range_cols(start, out.len());
        simd::dist_sq_cols(&cols, query, out);
        simd::sqrt_inplace(out);
    }

    /// Column stripes covering points `start..start+len`.
    fn range_cols(&self, start: usize, len: usize) -> Vec<&[f64]> {
        let end = start + len;
        assert!(end <= self.n, "column scan: range overruns N");
        (0..self.dim)
            .map(|j| &self.flat[j * self.n + start..j * self.n + end])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f64>> {
        (0..37)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 31 + j * 17) % 23) as f64 - 11.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (j, i) indexing mirrors the transpose under test
    fn round_trips_rows() {
        let r = rows();
        let s = ColumnStore::from_rows(&r);
        assert_eq!(s.len(), 37);
        assert_eq!(s.dim(), 5);
        let mut buf = vec![0.0; 5];
        for (i, row) in r.iter().enumerate() {
            s.gather_row(i, &mut buf);
            assert_eq!(&buf, row);
        }
        for j in 0..5 {
            for i in 0..37 {
                assert_eq!(s.col(j)[i], r[i][j]);
            }
        }
    }

    #[test]
    fn dist_scan_matches_rowwise_spec_bitwise() {
        let r = rows();
        let s = ColumnStore::from_rows(&r);
        let q = &r[7];
        let mut out = vec![0.0; s.len()];
        s.dist_scan_into(q, 0, &mut out);
        for (i, row) in r.iter().enumerate() {
            assert_eq!(
                out[i].to_bits(),
                hinn_linalg::vector::dist(row, q).to_bits(),
                "point {i}"
            );
        }
        // A mid-range chunk produces the same per-point values.
        let mut part = vec![0.0; 10];
        s.dist_scan_into(q, 13, &mut part);
        for k in 0..10 {
            assert_eq!(part[k].to_bits(), out[13 + k].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        ColumnStore::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }
}
