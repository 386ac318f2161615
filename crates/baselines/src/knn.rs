//! Exact k-nearest-neighbor linear scan under Minkowski metrics.
//!
//! The distance scan is the O(N·d) hot loop; the `*_with` variants spread
//! it over a [`Parallelism`] budget with `hinn-par`'s fixed chunks. Each
//! distance is a pure function of its point, so the scored array — and the
//! selection made from it — is identical for every thread count.

use hinn_data::ColumnStore;
use hinn_linalg::vector::lp_dist;
use hinn_linalg::{Parallelism, Subspace};
use hinn_par::fill_chunks;

/// A Minkowski distance metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// Manhattan distance.
    L1,
    /// Euclidean distance.
    L2,
    /// Chebyshev (max) distance.
    LInf,
    /// General `L_p`, including fractional `0 < p < 1`.
    Lp(f64),
}

impl Metric {
    /// Distance between two points under this metric.
    #[inline]
    pub fn dist(&self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            Metric::L1 => lp_dist(x, y, 1.0),
            Metric::L2 => hinn_linalg::vector::dist(x, y),
            Metric::LInf => lp_dist(x, y, f64::INFINITY),
            Metric::Lp(p) => lp_dist(x, y, *p),
        }
    }
}

/// Indices of the `k` points nearest to `query`, closest first. Ties are
/// broken by index for determinism. Returns all points (sorted) when
/// `k >= points.len()`.
///
/// ```
/// use hinn_baselines::{knn_indices, Metric};
///
/// let points = vec![vec![0.0], vec![5.0], vec![1.0], vec![9.0]];
/// assert_eq!(knn_indices(&points, &[0.4], 2, Metric::L2), vec![0, 2]);
/// ```
pub fn knn_indices(points: &[Vec<f64>], query: &[f64], k: usize, metric: Metric) -> Vec<usize> {
    knn_indices_with(Parallelism::serial(), points, query, k, metric)
}

/// [`knn_indices`] with an explicit thread budget for the distance scan.
/// Identical results for every budget (each distance is a pure function of
/// its point; the selection runs on the calling thread).
pub fn knn_indices_with(
    par: Parallelism,
    points: &[Vec<f64>],
    query: &[f64],
    k: usize,
    metric: Metric,
) -> Vec<usize> {
    knn_indices_by(par, points.len(), |i| &points[i], query, k, metric)
}

/// [`knn_indices_with`] over the `n` points `row(0..n)`, wherever they are
/// stored. Same distances and selection, so the same ids.
pub fn knn_indices_by<'a>(
    par: Parallelism,
    n: usize,
    row: impl Fn(usize) -> &'a [f64] + Sync,
    query: &[f64],
    k: usize,
    metric: Metric,
) -> Vec<usize> {
    select_k(scan_distances(par, n, |i| metric.dist(row(i), query)), k)
}

/// [`knn_indices`] over columnar storage. Same results, bit-identical
/// distances — the L2 scan streams the store's contiguous columns through
/// the `hinn_linalg::simd` batch kernels instead of chasing one heap row
/// per point. Non-L2 metrics gather each row from the columns and fall
/// back to the scalar metric (correct, but no faster than the row scan).
pub fn knn_indices_cols(
    store: &ColumnStore,
    query: &[f64],
    k: usize,
    metric: Metric,
) -> Vec<usize> {
    knn_indices_cols_with(Parallelism::serial(), store, query, k, metric)
}

/// [`knn_indices_cols`] with an explicit thread budget. The fixed-chunk
/// schedule scans disjoint point ranges, and each per-point distance is
/// independent of its chunk, so results match every budget — and match
/// [`knn_indices_with`] on the same points exactly.
pub fn knn_indices_cols_with(
    par: Parallelism,
    store: &ColumnStore,
    query: &[f64],
    k: usize,
    metric: Metric,
) -> Vec<usize> {
    let _span = hinn_obs::span!("baselines.knn_scan");
    hinn_obs::counter("baselines.points_scanned", store.len() as u64);
    let mut scored: Vec<(f64, usize)> = vec![(0.0, 0); store.len()];
    fill_chunks(par, &mut scored, |start, slice| {
        let mut dists = hinn_cache::PooledF64::take_zeroed(slice.len());
        match metric {
            Metric::L2 => store.dist_scan_into(query, start, &mut dists),
            _ => {
                let mut row = hinn_cache::PooledF64::take_zeroed(store.dim());
                for (off, d) in dists.iter_mut().enumerate() {
                    store.gather_row(start + off, &mut row);
                    *d = metric.dist(&row, query);
                }
            }
        }
        for (off, slot) in slice.iter_mut().enumerate() {
            *slot = (dists[off], start + off);
        }
    });
    select_k(scored, k)
}

/// One columnar pass answering a whole batch of queries.
///
/// A single-query scan is memory-bound: it streams every column past the
/// core once per query. This variant walks the store in fixed chunks and
/// scans each chunk for *every* query while its columns are cache-hot, so
/// the dominant memory traffic is paid once per chunk instead of once per
/// query. Per-query results are bit-identical to [`knn_indices_cols`] —
/// each point's distance is the same ascending-dimension fold; only the
/// order the chunks are streamed in changes, and no distance depends on
/// it.
pub fn knn_indices_cols_batch(
    store: &ColumnStore,
    queries: &[&[f64]],
    k: usize,
    metric: Metric,
) -> Vec<Vec<usize>> {
    let _span = hinn_obs::span!("baselines.knn_scan_batch");
    hinn_obs::counter(
        "baselines.points_scanned",
        (store.len() * queries.len()) as u64,
    );
    let n = store.len();
    let k = k.min(n);
    // One bounded top-k heap per query instead of a full scored array:
    // the k smallest under `(total_cmp dist, index)` are the same set
    // whichever algorithm collects them, and the heaps keep the batch's
    // working set at O(queries·k) — materializing every score for every
    // query would dwarf the column traffic this function exists to save.
    let mut heaps: Vec<std::collections::BinaryHeap<Scored>> = queries
        .iter()
        .map(|_| std::collections::BinaryHeap::with_capacity(k + 1))
        .collect();
    let mut start = 0;
    while start < n {
        let len = hinn_par::CHUNK.min(n - start);
        let mut dists = hinn_cache::PooledF64::take_zeroed(len);
        let mut row = hinn_cache::PooledF64::take_zeroed(store.dim());
        for (q, heap) in queries.iter().zip(&mut heaps) {
            match metric {
                Metric::L2 => store.dist_scan_into(q, start, &mut dists),
                _ => {
                    for (off, d) in dists.iter_mut().enumerate() {
                        store.gather_row(start + off, &mut row);
                        *d = metric.dist(&row, q);
                    }
                }
            }
            for (off, &d) in dists.iter().enumerate() {
                let cand = Scored(d, start + off);
                if heap.len() < k {
                    heap.push(cand);
                } else if let Some(top) = heap.peek() {
                    if cand < *top {
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
        }
        start += len;
    }
    heaps
        .into_iter()
        .map(|h| h.into_sorted_vec().into_iter().map(|s| s.1).collect())
        .collect()
}

/// A scored point ordered like [`select_k`]'s comparator: `total_cmp` on
/// the distance (NaN greatest, hence never among the k nearest while
/// finite candidates remain), ties broken by index.
#[derive(Clone, Copy)]
struct Scored(f64, usize);

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// k-NN under the Euclidean metric *inside a subspace* (`Pdist` of §1.3).
pub fn knn_indices_in_subspace(
    points: &[Vec<f64>],
    query: &[f64],
    k: usize,
    subspace: &Subspace,
) -> Vec<usize> {
    knn_indices_in_subspace_with(Parallelism::serial(), points, query, k, subspace)
}

/// [`knn_indices_in_subspace`] with an explicit thread budget for the
/// projected-distance scan. Identical results for every budget.
pub fn knn_indices_in_subspace_with(
    par: Parallelism,
    points: &[Vec<f64>],
    query: &[f64],
    k: usize,
    subspace: &Subspace,
) -> Vec<usize> {
    let dist = |i: usize| subspace.projected_distance(&points[i], query);
    select_k(scan_distances(par, points.len(), dist), k)
}

/// Score the points `0..n` with `dist(i)`, chunked over the thread budget.
fn scan_distances(
    par: Parallelism,
    n: usize,
    dist: impl Fn(usize) -> f64 + Sync,
) -> Vec<(f64, usize)> {
    let _span = hinn_obs::span!("baselines.knn_scan");
    hinn_obs::counter("baselines.points_scanned", n as u64);
    let mut scored: Vec<(f64, usize)> = vec![(0.0, 0); n];
    fill_chunks(par, &mut scored, |start, slice| {
        for (off, slot) in slice.iter_mut().enumerate() {
            let i = start + off;
            *slot = (dist(i), i);
        }
    });
    scored
}

/// Partial selection then sort of the head — O(N + k log k).
fn select_k(mut scored: Vec<(f64, usize)>, k: usize) -> Vec<usize> {
    let k = k.min(scored.len());
    // Distances are non-negative, so `total_cmp` matches the old partial
    // order; a poisoned (NaN) distance sorts last and is excluded from
    // the k nearest instead of panicking the scan.
    let by_dist = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    scored.select_nth_unstable_by(k.saturating_sub(1), by_dist);
    let mut head: Vec<(f64, usize)> = scored[..k].to_vec();
    head.sort_by(by_dist);
    head.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points() -> Vec<Vec<f64>> {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        (0..10).map(|i| vec![i as f64, 0.0]).collect()
    }

    #[test]
    fn knn_on_a_line() {
        let pts = line_points();
        let nn = knn_indices(&pts, &[3.2, 0.0], 3, Metric::L2);
        assert_eq!(nn, vec![3, 4, 2]);
    }

    #[test]
    fn poisoned_point_is_excluded_from_the_k_nearest() {
        // NaN policy: a point with a NaN coordinate gets a NaN distance,
        // which sorts behind every finite one — it can never displace a
        // real neighbor, and the scan never panics.
        let mut pts = line_points();
        pts[4] = vec![f64::NAN, 0.0];
        let nn = knn_indices(&pts, &[3.2, 0.0], 3, Metric::L2);
        assert_eq!(nn, vec![3, 2, 5]);
    }

    #[test]
    fn k_zero_and_k_too_large() {
        let pts = line_points();
        assert!(knn_indices(&pts, &[0.0, 0.0], 0, Metric::L2).is_empty());
        let all = knn_indices(&pts, &[0.0, 0.0], 99, Metric::L2);
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], 0);
        assert_eq!(all[9], 9);
    }

    #[test]
    fn metrics_rank_differently() {
        // Under L2, (3,3) [d=4.24] is closer than (0,5) [d=5];
        // under L1 they tie (6 vs 5 — actually (0,5) is closer);
        // under LInf (3,3) [3] is closer than (0,5) [5].
        let pts = vec![vec![3.0, 3.0], vec![0.0, 5.0]];
        let q = [0.0, 0.0];
        assert_eq!(knn_indices(&pts, &q, 1, Metric::L2), vec![0]);
        assert_eq!(knn_indices(&pts, &q, 1, Metric::L1), vec![1]);
        assert_eq!(knn_indices(&pts, &q, 1, Metric::LInf), vec![0]);
    }

    #[test]
    fn fractional_metric_runs() {
        let pts = line_points();
        let nn = knn_indices(&pts, &[5.0, 0.0], 2, Metric::Lp(0.5));
        assert_eq!(nn[0], 5);
    }

    #[test]
    fn ties_broken_by_index() {
        let pts = vec![vec![1.0], vec![-1.0], vec![1.0]];
        let nn = knn_indices(&pts, &[0.0], 3, Metric::L2);
        assert_eq!(nn, vec![0, 1, 2]);
    }

    #[test]
    fn subspace_knn_ignores_complement() {
        // Subspace = x-axis; y-coordinates must not matter.
        let s = Subspace::from_vectors(2, &[vec![1.0, 0.0]]);
        let pts = vec![vec![5.0, 0.0], vec![1.0, 100.0], vec![2.0, -50.0]];
        let nn = knn_indices_in_subspace(&pts, &[0.0, 0.0], 2, &s);
        assert_eq!(nn, vec![1, 2]);
    }

    #[test]
    fn full_subspace_matches_l2() {
        let pts = line_points();
        let s = Subspace::full(2);
        let a = knn_indices(&pts, &[4.1, 0.0], 5, Metric::L2);
        let b = knn_indices_in_subspace(&pts, &[4.1, 0.0], 5, &s);
        assert_eq!(a, b);
    }

    /// Deterministic pseudo-random cloud exercising ties and spread.
    fn cloud(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 37 + j * 101) % 97) as f64 * 0.13 - 6.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn columnar_scan_matches_row_scan_for_every_metric() {
        let pts = cloud(201, 7);
        let store = hinn_data::ColumnStore::from_rows(&pts);
        let q: Vec<f64> = (0..7).map(|j| j as f64 * 0.3 - 1.0).collect();
        for metric in [
            Metric::L1,
            Metric::L2,
            Metric::LInf,
            Metric::Lp(0.5),
            Metric::Lp(3.0),
        ] {
            let rows = knn_indices(&pts, &q, 10, metric);
            let cols = knn_indices_cols(&store, &q, 10, metric);
            assert_eq!(rows, cols, "{metric:?}: columnar scan must match rows");
        }
    }

    #[test]
    fn batched_columnar_scan_matches_per_query_results() {
        let pts = cloud(137, 6);
        let store = hinn_data::ColumnStore::from_rows(&pts);
        let queries: Vec<Vec<f64>> = (0..5)
            .map(|qi| (0..6).map(|j| (qi * 7 + j) as f64 * 0.11 - 1.5).collect())
            .collect();
        let q_refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(0.5)] {
            let batch = knn_indices_cols_batch(&store, &q_refs, 9, metric);
            for (q, got) in queries.iter().zip(&batch) {
                let want = knn_indices_cols(&store, q, 9, metric);
                assert_eq!(got, &want, "{metric:?}: batch must match per-query scan");
            }
        }
    }

    #[test]
    fn columnar_scan_identical_across_thread_budgets() {
        let pts = cloud(150, 5);
        let store = hinn_data::ColumnStore::from_rows(&pts);
        let q = vec![0.0; 5];
        let serial = knn_indices_cols(&store, &q, 12, Metric::L2);
        let par = knn_indices_cols_with(Parallelism::fixed(4), &store, &q, 12, Metric::L2);
        assert_eq!(serial, par);
    }

    #[test]
    fn columnar_scan_excludes_poisoned_points() {
        let mut pts = line_points();
        pts[4] = vec![f64::NAN, 0.0];
        let store = hinn_data::ColumnStore::from_rows(&pts);
        let nn = knn_indices_cols(&store, &[3.2, 0.0], 3, Metric::L2);
        assert_eq!(nn, vec![3, 2, 5]);
    }

    #[test]
    fn metric_dist_values() {
        let m = Metric::Lp(3.0);
        let d = m.dist(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(Metric::L1.dist(&[0.0], &[-2.0]), 2.0);
    }
}
