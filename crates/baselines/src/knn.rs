//! Exact k-nearest-neighbor linear scan under Minkowski metrics.
//!
//! The distance scan is the O(N·d) hot loop; the `*_with` variants spread
//! it over a [`Parallelism`] budget with `hinn-par`'s fixed chunks. Each
//! distance is a pure function of its point, so the scored array — and the
//! selection made from it — is identical for every thread count.

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

/// k-NN under the Euclidean metric *inside a subspace* (`Pdist` of §1.3).
pub fn knn_indices_in_subspace(
    points: &[Vec<f64>],
    query: &[f64],
    k: usize,
    subspace: &Subspace,
) -> Vec<usize> {
    let dist = |i: usize| subspace.projected_distance(&points[i], query);
    select_k(scan_distances(Parallelism::serial(), points.len(), dist), k)
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

    #[test]
    fn metric_dist_values() {
        let m = Metric::Lp(3.0);
        let d = m.dist(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(Metric::L1.dist(&[0.0], &[-2.0]), 2.0);
    }
}
