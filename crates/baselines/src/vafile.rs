//! A vector-approximation file (VA-file) — Weber, Schek & Blott,
//! VLDB 1998, the paper's reference \[27\].
//!
//! The VA-file is the canonical *exact* high-dimensional nearest-neighbor
//! index: each dimension is quantized into `2^b` cells, every point is
//! stored as a compact cell signature, and a k-NN query runs in two
//! phases — a **filter** pass over the signatures computing per-point
//! lower/upper distance bounds, and a **refine** pass computing exact
//! distances only for points whose lower bound beats the current k-th
//! upper bound. \[27\] showed this beats tree indexes in high dimension
//! (where trees degrade to scans).
//!
//! Its role in this reproduction is the role it plays in the paper's
//! narrative: a fast index returns the *same* full-dimensional answer as a
//! linear scan — the meaningfulness problem of §1 is untouched by better
//! indexing, which is why the paper reaches for the human instead. The
//! implementation also serves the Criterion benches comparing scan vs
//! filter-and-refine cost.

use hinn_par::{fill_chunks, Parallelism};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of quantization cells per dimension is `2^bits`.
#[derive(Clone, Debug)]
pub struct VaFile {
    /// Quantization bits per dimension (cells = `2^bits`).
    bits: u32,
    dim: usize,
    /// Per-dimension cell boundaries: `bounds[j]` has `cells + 1` entries.
    bounds: Vec<Vec<f64>>,
    /// Per-point cell signature, row-major `n × dim` (cell index per dim).
    cells: Vec<u16>,
    /// Points with a NaN coordinate: their signature is meaningless, so
    /// the filter gives them infinite bounds — they can neither tighten
    /// the pruning threshold nor appear in any answer.
    poisoned: Vec<bool>,
    /// Number of indexed points.
    n: usize,
    /// The exact vectors for the refine phase, flat row-major: point `i`
    /// at `[i·dim, (i+1)·dim)` — one contiguous allocation instead of
    /// `N` heap rows, so the refine phase's random accesses stay cheap.
    points: Vec<f64>,
}

/// Statistics of one query — how much the filter phase saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VaQueryStats {
    /// Points whose exact distance was computed in the refine phase.
    pub refined: usize,
    /// Total points in the index.
    pub total: usize,
}

impl VaFile {
    /// Build the index over the `n` points `row(0..n)`, wherever they are
    /// stored, with `bits` quantization bits per dimension (cell
    /// boundaries are per-dimension equi-depth quantiles, the variant
    /// \[27\] recommends for skewed data). The index keeps its own flat
    /// copy of the rows.
    ///
    /// # Panics
    /// Panics if `n` is zero, rows are ragged, or
    /// `bits` is not in `1..=8`.
    pub fn build<'a>(n: usize, row: impl Fn(usize) -> &'a [f64], bits: u32) -> Self {
        assert!(n > 0, "VaFile: empty point set");
        assert!((1..=8).contains(&bits), "VaFile: bits must be in 1..=8");
        let dim = row(0).len();
        assert!(dim > 0, "VaFile: zero-dimensional points");
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            let p = row(i);
            assert!(p.len() == dim, "VaFile: ragged point set");
            flat.extend_from_slice(p);
        }
        let points = flat.chunks_exact(dim);
        let cells = 1usize << bits;

        // Equi-depth boundaries per dimension.
        let mut bounds = Vec::with_capacity(dim);
        for j in 0..dim {
            let mut col: Vec<f64> = points.clone().map(|p| p[j]).collect();
            // `total_cmp` keeps the sort total on poisoned data: NaN
            // coordinates collect at the extremes deterministically. The
            // boundaries themselves must stay finite — a NaN outer edge
            // would silently weaken the per-cell distance bounds and let
            // the filter prune true neighbors — so the outer boundaries
            // clamp to the finite span of the column (identical to the
            // raw extremes on clean data; NaN points themselves are
            // excluded by the refine heap regardless of their cell).
            col.sort_by(|a, b| a.total_cmp(b));
            let lo_edge = col.iter().copied().find(|v| !v.is_nan()).unwrap_or(0.0);
            let hi_edge = col
                .iter()
                .rev()
                .copied()
                .find(|v| !v.is_nan())
                .unwrap_or(0.0);
            let mut b = Vec::with_capacity(cells + 1);
            b.push(lo_edge);
            for c in 1..cells {
                let idx = (c * (col.len() - 1)) / cells;
                let v = col[idx].min(hi_edge); // `min` ignores a NaN quantile
                                               // Boundaries must be non-decreasing; duplicates are fine
                                               // (empty cells).
                b.push(v.max(*b.last().expect("non-empty")));
            }
            b.push(hi_edge.max(*b.last().expect("non-empty")));
            bounds.push(b);
        }

        // Signatures.
        let mut cell_ids = Vec::with_capacity(n * dim);
        let mut poisoned = Vec::with_capacity(n);
        for p in points {
            for j in 0..dim {
                cell_ids.push(cell_of(&bounds[j], p[j]) as u16);
            }
            poisoned.push(p.iter().any(|v| v.is_nan()));
        }
        Self {
            bits,
            dim,
            bounds,
            cells: cell_ids,
            poisoned,
            n,
            points: flat,
        }
    }

    /// Point `i` as a slice into the flat row-major storage.
    #[inline]
    fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the index is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Quantization bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Exact Euclidean k-NN via filter-and-refine. Returns the neighbor
    /// indices closest-first plus the query statistics.
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    pub fn knn(&self, query: &[f64], k: usize) -> (Vec<usize>, VaQueryStats) {
        self.knn_with(Parallelism::serial(), query, k)
    }

    /// [`VaFile::knn`] with an explicit thread budget for the phase-1
    /// filter scan (the O(N·d) pass computing per-point lower/upper
    /// bounds). Each bound pair is a pure function of its signature, so
    /// the bounds — and the refine phase driven by them — are identical
    /// for every budget.
    ///
    /// # Panics
    /// Panics on query dimensionality mismatch.
    #[allow(clippy::needless_range_loop)] // index loops mirror the grid math
    pub fn knn_with(
        &self,
        par: Parallelism,
        query: &[f64],
        k: usize,
    ) -> (Vec<usize>, VaQueryStats) {
        assert_eq!(query.len(), self.dim, "VaFile: query dimensionality");
        let n = self.n;
        let k = k.min(n);
        if k == 0 {
            return (
                Vec::new(),
                VaQueryStats {
                    refined: 0,
                    total: n,
                },
            );
        }

        // Per-dimension squared distances from the query to each cell
        // (lower bound: to the nearest cell edge; upper bound: to the
        // farthest cell edge).
        let cells = 1usize << self.bits;
        let mut lo = vec![0.0f64; self.dim * cells];
        let mut hi = vec![0.0f64; self.dim * cells];
        for j in 0..self.dim {
            for c in 0..cells {
                let left = self.bounds[j][c];
                let right = self.bounds[j][c + 1];
                let q = query[j];
                let l = if q < left {
                    left - q
                } else if q > right {
                    q - right
                } else {
                    0.0
                };
                let h = (q - left).abs().max((q - right).abs());
                lo[j * cells + c] = l * l;
                hi[j * cells + c] = h * h;
            }
        }

        // Phase 1: bounds per point, chunked over the thread budget (no
        // sort — one pass computes both bounds and collects the lower
        // bounds for the pruning threshold).
        let filter_span = hinn_obs::span!("baselines.vafile_filter");
        hinn_obs::counter("baselines.points_scanned", n as u64);
        let mut bound_pairs = vec![(0.0f64, 0.0f64); n];
        fill_chunks(par, &mut bound_pairs, |start, slice| {
            for (off, slot) in slice.iter_mut().enumerate() {
                let i = start + off;
                if self.poisoned[i] {
                    // A NaN coordinate has no meaningful cell: infinite
                    // bounds keep it out of both the pruning threshold
                    // (a falsely small upper could discard true
                    // neighbors) and the refine phase.
                    *slot = (f64::INFINITY, f64::INFINITY);
                    continue;
                }
                let sig = &self.cells[i * self.dim..(i + 1) * self.dim];
                let mut l = 0.0;
                let mut h = 0.0;
                for (j, &c) in sig.iter().enumerate() {
                    l += lo[j * cells + c as usize];
                    h += hi[j * cells + c as usize];
                }
                *slot = (l, h);
            }
        });
        let lowers: Vec<f64> = bound_pairs.iter().map(|&(l, _)| l).collect();
        let uppers: Vec<f64> = bound_pairs.iter().map(|&(_, h)| h).collect();
        // The k-th smallest *upper* bound prunes everything with a larger
        // lower bound: any true k-NN member has exact ≤ its upper ≤ that
        // threshold, hence lower ≤ threshold, so no true neighbor is lost.
        let mut upper_sel = uppers.clone();
        upper_sel.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
        let kth_upper = upper_sel[k - 1];
        drop(filter_span);

        // Phase 2: refine every surviving candidate, tightening the cutoff
        // to the current k-th exact distance as the heap fills.
        let refine_span = hinn_obs::span!("baselines.vafile_refine");
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new(); // max-heap of k best
        let mut refined = 0usize;
        for i in 0..n {
            let l = lowers[i];
            if l > kth_upper {
                continue;
            }
            if heap.len() == k && l > heap.peek().expect("non-empty").dist {
                continue;
            }
            let d = hinn_linalg::vector::dist_sq(self.point(i), query);
            refined += 1;
            if heap.len() < k {
                heap.push(HeapEntry { dist: d, idx: i });
            } else if d < heap.peek().expect("non-empty").dist {
                heap.pop();
                heap.push(HeapEntry { dist: d, idx: i });
            }
        }

        drop(refine_span);
        hinn_obs::counter("baselines.vafile_refined", refined as u64);

        let mut result: Vec<HeapEntry> = heap.into_vec();
        result.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.idx.cmp(&b.idx)));
        (
            result.into_iter().map(|e| e.idx).collect(),
            VaQueryStats { refined, total: n },
        )
    }
}

/// Binary search for the cell containing `v` (clamped to the outer cells).
fn cell_of(bounds: &[f64], v: f64) -> usize {
    let cells = bounds.len() - 1;
    if v <= bounds[0] {
        return 0;
    }
    if v >= bounds[cells] {
        return cells - 1;
    }
    // partition_point: first boundary > v, minus one. A NaN coordinate
    // satisfies no comparison above and no `<=` here, so `idx` is 0: the
    // saturating subtraction files it in cell 0 instead of underflowing.
    // Its exact distance is NaN, which sorts behind every real neighbor.
    let idx = bounds.partition_point(|b| *b <= v);
    idx.saturating_sub(1).min(cells - 1)
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    idx: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Squared distances are non-negative, so `total_cmp` matches the
        // old order; a poisoned (NaN) distance ranks as the *worst* entry
        // in the max-heap of k best, so it is evicted first and never
        // displaces a real neighbor.
        self.dist
            .total_cmp(&other.dist)
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{knn_indices, Metric};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| unif() * 100.0).collect())
            .collect()
    }

    #[test]
    fn agrees_with_linear_scan() {
        let pts = random_points(500, 12, 7);
        let va = VaFile::build(pts.len(), |i| &pts[i], 4);
        for qi in [0usize, 123, 400] {
            let q = &pts[qi];
            let (got, _) = va.knn(q, 10);
            let want = knn_indices(&pts, q, 10, Metric::L2);
            assert_eq!(got, want, "VA-file must be exact (query {qi})");
        }
    }

    #[test]
    fn poisoned_coordinate_neither_panics_nor_displaces_neighbors() {
        // NaN policy: a poisoned point files into the outermost cell
        // (saturating, no index underflow), its exact distance is NaN,
        // and the refine heap evicts it first — so the VA-file still
        // agrees with the linear scan, which applies the same policy.
        let mut pts = random_points(120, 6, 21);
        pts[7][1] = f64::NAN;
        let va = VaFile::build(pts.len(), |i| &pts[i], 4);
        for qi in [0usize, 50, 100] {
            let q = pts[qi].clone();
            let (got, _) = va.knn(&q, 8);
            let want = knn_indices(&pts, &q, 8, Metric::L2);
            assert_eq!(got, want, "query {qi}");
            assert!(!got.contains(&7), "poisoned point must not rank");
        }
    }

    #[test]
    fn agrees_for_external_queries() {
        let pts = random_points(300, 8, 11);
        let va = VaFile::build(pts.len(), |i| &pts[i], 5);
        let queries = random_points(10, 8, 99);
        for q in &queries {
            let (got, stats) = va.knn(q, 7);
            let want = knn_indices(&pts, q, 7, Metric::L2);
            assert_eq!(got, want);
            assert!(stats.refined <= stats.total);
        }
    }

    #[test]
    fn filter_actually_prunes_on_clustered_data() {
        // Tight clusters → most signatures have large lower bounds.
        let mut pts = Vec::new();
        let mut noise = random_points(1000, 6, 3);
        for p in noise.iter_mut() {
            for v in p.iter_mut() {
                *v = *v * 0.1 + 80.0; // far blob
            }
        }
        pts.extend(noise);
        let near = random_points(50, 6, 5);
        for p in &near {
            let mut q = p.clone();
            for v in q.iter_mut() {
                *v *= 0.05; // near-origin blob
            }
            pts.push(q);
        }
        let va = VaFile::build(pts.len(), |i| &pts[i], 6);
        let query = vec![1.0; 6];
        let (_, stats) = va.knn(&query, 10);
        assert!(
            stats.refined < stats.total / 2,
            "filter should prune most points: refined {}/{}",
            stats.refined,
            stats.total
        );
    }

    #[test]
    fn bounds_are_valid() {
        // Lower bound ≤ exact ≤ upper bound for every point (checked via a
        // white-box reconstruction of the filter phase).
        let pts = random_points(200, 5, 13);
        let va = VaFile::build(pts.len(), |i| &pts[i], 3);
        let query = vec![50.0; 5];
        let cells = 1usize << va.bits();
        for (i, p) in pts.iter().enumerate() {
            let exact = hinn_linalg::vector::dist_sq(p, &query);
            let sig = &va.cells[i * va.dim..(i + 1) * va.dim];
            let mut l = 0.0;
            let mut h = 0.0;
            for (j, &c) in sig.iter().enumerate() {
                let left = va.bounds[j][c as usize];
                let right = va.bounds[j][c as usize + 1];
                let q = query[j];
                let lo = if q < left {
                    left - q
                } else if q > right {
                    q - right
                } else {
                    0.0
                };
                let hi = (q - left).abs().max((q - right).abs());
                l += lo * lo;
                h += hi * hi;
            }
            assert!(l <= exact + 1e-9, "lower bound violated for point {i}");
            assert!(h >= exact - 1e-9, "upper bound violated for point {i}");
            let _ = cells;
        }
    }

    #[test]
    fn k_edge_cases() {
        let pts = random_points(20, 4, 17);
        let va = VaFile::build(pts.len(), |i| &pts[i], 4);
        let q = vec![0.0; 4];
        let (zero, stats) = va.knn(&q, 0);
        assert!(zero.is_empty());
        assert_eq!(stats.refined, 0);
        let (all, _) = va.knn(&q, 100);
        assert_eq!(all.len(), 20);
        let want = knn_indices(&pts, &q, 20, Metric::L2);
        assert_eq!(all, want);
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        // Constant dimension → all boundaries equal (empty cells).
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 5.0]).collect();
        let va = VaFile::build(pts.len(), |i| &pts[i], 4);
        let (got, _) = va.knn(&[10.2, 5.0], 3);
        let want = knn_indices(&pts, &[10.2, 5.0], 3, Metric::L2);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=8")]
    fn invalid_bits_panics() {
        VaFile::build(1, |_| &[0.0], 0);
    }

    #[test]
    #[should_panic(expected = "query dimensionality")]
    fn query_dim_mismatch_panics() {
        let va = VaFile::build(1, |_| &[0.0, 0.0], 4);
        va.knn(&[0.0], 1);
    }
}
