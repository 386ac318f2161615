//! Sample statistics over point sets.
//!
//! Points are rows — a data set is a `&[Vec<f64>]` (or any slice of rows
//! of a common dimensionality) — except for the batched direction variances,
//! which read columns. These routines feed the query-cluster subspace
//! determination of Fig. 4: the covariance matrix `Σ` of the cluster, and
//! per-direction variances `γᵢ` of the whole data used in the variance ratio
//! `λᵢ / γᵢ` ([`variances_along_cols_with`], every candidate direction in one
//! scan).
//!
//! The row routines have a `*_with` variant taking a [`Parallelism`] budget;
//! the plain name is the serial schedule (`Parallelism::serial()`). Both run
//! the *same* fixed-chunk algorithm with an ordered reduction (see
//! `hinn-par`), so the result is bit-identical for every thread count.

use crate::matrix::Matrix;
use crate::simd::{active_backend, Backend, DIR_LANES};
use crate::vector::dot;
use hinn_par::{map_reduce_chunks, Parallelism};
use std::ops::Range;

/// Component-wise mean of a non-empty point set.
///
/// # Panics
/// Panics if `points` is empty.
pub fn mean_vector(points: &[Vec<f64>]) -> Vec<f64> {
    mean_vector_with(Parallelism::serial(), points)
}

/// [`mean_vector`] with an explicit thread budget. Bit-identical to the
/// serial path for every budget.
///
/// # Panics
/// Panics if `points` is empty.
pub fn mean_vector_with(par: Parallelism, points: &[Vec<f64>]) -> Vec<f64> {
    assert!(!points.is_empty(), "mean_vector: empty point set");
    let d = points[0].len();
    let mut m = map_reduce_chunks(
        par,
        points.len(),
        |r| {
            let mut s = vec![0.0; d];
            for p in &points[r] {
                assert_eq!(p.len(), d, "mean_vector: ragged point set");
                for (si, pi) in s.iter_mut().zip(p) {
                    *si += pi;
                }
            }
            s
        },
        vec![0.0; d],
        |mut acc, s| {
            for (a, b) in acc.iter_mut().zip(&s) {
                *a += b;
            }
            acc
        },
    );
    let n = points.len() as f64;
    for mi in &mut m {
        *mi /= n;
    }
    m
}

/// Sample covariance matrix (`1/n` normalization, i.e. the population form
/// the paper's Fig. 4 uses — the eigen *directions* and variance *ratios*
/// are unaffected by the `1/n` vs `1/(n−1)` choice).
///
/// # Panics
/// Panics if `points` is empty.
pub fn covariance_matrix(points: &[Vec<f64>]) -> Matrix {
    covariance_matrix_with(Parallelism::serial(), points)
}

/// [`covariance_matrix`] with an explicit thread budget. Each chunk of rows
/// accumulates a partial upper-triangular `Σ`; partials merge in chunk
/// order, so the result is bit-identical for every budget.
///
/// # Panics
/// Panics if `points` is empty.
pub fn covariance_matrix_with(par: Parallelism, points: &[Vec<f64>]) -> Matrix {
    let _span = hinn_obs::span!("linalg.covariance");
    assert!(!points.is_empty(), "covariance_matrix: empty point set");
    hinn_obs::counter("linalg.points_scanned", points.len() as u64);
    let d = points[0].len();
    let mean = mean_vector_with(par, points);
    let mut cov = map_reduce_chunks(
        par,
        points.len(),
        |r| {
            let mut part = Matrix::zeros(d, d);
            let mut centered = vec![0.0; d];
            for p in &points[r] {
                for (c, (pi, mi)) in centered.iter_mut().zip(p.iter().zip(&mean)) {
                    *c = pi - mi;
                }
                for i in 0..d {
                    let ci = centered[i];
                    if ci == 0.0 {
                        continue;
                    }
                    let row = part.row_mut(i);
                    for (j, &cj) in centered.iter().enumerate().skip(i) {
                        row[j] += ci * cj;
                    }
                }
            }
            part
        },
        Matrix::zeros(d, d),
        |mut acc, part| {
            for i in 0..d {
                for j in i..d {
                    acc[(i, j)] += part[(i, j)];
                }
            }
            acc
        },
    );
    let n = points.len() as f64;
    for i in 0..d {
        for j in i..d {
            let v = cov[(i, j)] / n;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    cov
}

/// Variance of the point set when projected onto a (not necessarily unit)
/// `direction`. For a unit direction this is `uᵀ Σ u`. Two chunked passes
/// (projection mean, then squared deviations), each with an ordered
/// reduction: the row-layout spec [`variances_along_cols_with`] is held to.
///
/// # Panics
/// Panics if `points` is empty or dimensions mismatch.
pub fn variance_along(points: &[Vec<f64>], direction: &[f64]) -> f64 {
    assert!(!points.is_empty(), "variance_along: empty point set");
    let par = Parallelism::serial();
    let n = points.len() as f64;
    let sum = map_reduce_chunks(
        par,
        points.len(),
        |r| points[r].iter().map(|p| dot(p, direction)).sum::<f64>(),
        0.0f64,
        |a, p| a + p,
    );
    let mean = sum / n;
    let ss = map_reduce_chunks(
        par,
        points.len(),
        |r| {
            points[r]
                .iter()
                .map(|p| {
                    let x = dot(p, direction) - mean;
                    x * x
                })
                .sum::<f64>()
        },
        0.0f64,
        |a, p| a + p,
    );
    ss / n
}

/// [`variance_along`] for every direction of `dirs`, then for every unit
/// axis named in `axes`, over points stored as columns (`cols[j][i]` =
/// coordinate `j` of point `i`). The result holds `dirs.len()` values,
/// then `axes.len()`.
///
/// Two [`map_reduce_chunks`] passes serve all directions: the first sums
/// each direction's projections, the second the squared deviations from
/// the mean. Each direction adds its points in ascending order from `−0.0`
/// within each fixed chunk, and the partials merge in chunk order from
/// `0.0`: the chunking and association of the per-direction row scan.
///
/// - A direction of `dirs` is projected in each pass with the per-point
///   fold of [`crate::simd::dot_cols`], eight directions side by side, one
///   per vector lane, and each projection is folded while it is
///   still in registers. (Keeping the first pass's projections for the
///   second would cost `8·n·dirs.len()` bytes of scratch; on the session
///   benchmark that memory cost more than the second projection.)
///   `out[k]` is bit-identical to `variance_along(rows, dirs[k])` for
///   every thread budget and backend.
/// - An axis `a` of `axes` is not projected: its values are column `a`.
///   The dot of a finite row with the unit vector `e_a` is that
///   coordinate up to the sign of an exact zero, and no variance bit
///   depends on that sign, so for finite data the result is
///   `variance_along(rows, e_a)` bit for bit. A non-finite coordinate
///   elsewhere in a row would make that dot NaN (`∞·0`); the column read
///   does not see it.
///
/// # Panics
/// Panics if the point set is empty, the columns differ in length, any
/// direction's length differs from `cols.len()`, or an axis is out of
/// range.
pub fn variances_along_cols_with(
    par: Parallelism,
    cols: &[&[f64]],
    dirs: &[&[f64]],
    axes: &[usize],
) -> Vec<f64> {
    variances_along_cols_backend(active_backend(), par, cols, dirs, axes)
}

/// [`variances_along_cols_with`] pinned to an explicit backend
/// (equivalence tests).
#[doc(hidden)]
pub fn variances_along_cols_backend(
    b: Backend,
    par: Parallelism,
    cols: &[&[f64]],
    dirs: &[&[f64]],
    axes: &[usize],
) -> Vec<f64> {
    let d = cols.len();
    let n = cols.first().map_or(0, |c| c.len());
    assert!(n > 0, "variances_along_cols: empty point set");
    assert!(
        cols.iter().all(|c| c.len() == n),
        "variances_along_cols: ragged columns"
    );
    assert!(
        dirs.iter().all(|dir| dir.len() == d),
        "variances_along_cols: direction length mismatch"
    );
    assert!(
        axes.iter().all(|&a| a < d),
        "variances_along_cols: axis out of range"
    );
    let groups = dirs.len().div_ceil(DIR_LANES);
    // Transposed, zero-padded directions: `lanes[g·d + j][l]` is component
    // `j` of direction `g·DIR_LANES + l`. Padding lanes compute values
    // that are never read.
    let mut lanes = vec![[0.0; DIR_LANES]; groups * d];
    for (k, dir) in dirs.iter().enumerate() {
        for (j, &v) in dir.iter().enumerate() {
            lanes[(k / DIR_LANES) * d + j][k % DIR_LANES] = v;
        }
    }
    let axis_cols: Vec<&[f64]> = axes.iter().map(|&a| cols[a]).collect();
    let no_shift = vec![0.0; axes.len()];
    let nf = n as f64;

    // Pass 1: sums.
    let sums = map_reduce_chunks(
        par,
        n,
        |r| {
            let mut part = Vec::with_capacity(dirs.len() + axes.len());
            if groups > 0 {
                let chunk: Vec<&[f64]> = cols.iter().map(|c| &c[r.clone()]).collect();
                let mut lane_sums = vec![[0.0; DIR_LANES]; groups];
                crate::simd::project_and_sum(b, &chunk, &lanes, &mut lane_sums);
                #[cfg(test)]
                tests::tally_projected(r.len() * dirs.len());
                part.extend(lane_sums.iter().flatten().take(dirs.len()));
            }
            fold_axes(&axis_cols, r, &no_shift, |x, _| x, &mut part);
            part
        },
        vec![0.0f64; dirs.len() + axes.len()],
        add_partial,
    );
    let means: Vec<f64> = sums.iter().map(|s| s / nf).collect();
    let (dir_means, axis_means) = means.split_at(dirs.len());
    let mut mean_lanes = vec![[0.0; DIR_LANES]; groups];
    for (k, &m) in dir_means.iter().enumerate() {
        mean_lanes[k / DIR_LANES][k % DIR_LANES] = m;
    }

    // Pass 2: squared deviations from the means.
    let ss = map_reduce_chunks(
        par,
        n,
        |r| {
            let mut part = Vec::with_capacity(dirs.len() + axes.len());
            if groups > 0 {
                let chunk: Vec<&[f64]> = cols.iter().map(|c| &c[r.clone()]).collect();
                let mut lane_sums = vec![[0.0; DIR_LANES]; groups];
                crate::simd::centered_square_sums(b, &chunk, &lanes, &mean_lanes, &mut lane_sums);
                #[cfg(test)]
                tests::tally_projected(r.len() * dirs.len());
                part.extend(lane_sums.iter().flatten().take(dirs.len()));
            }
            fold_axes(
                &axis_cols,
                r,
                axis_means,
                |x, mean| {
                    let x = x - mean;
                    x * x
                },
                &mut part,
            );
            part
        },
        vec![0.0f64; dirs.len() + axes.len()],
        add_partial,
    );
    ss.iter().map(|s| s / nf).collect()
}

/// The ordered merge of both passes: chunk partials added in chunk order.
fn add_partial(mut acc: Vec<f64>, part: Vec<f64>) -> Vec<f64> {
    for (a, p) in acc.iter_mut().zip(&part) {
        *a += p;
    }
    acc
}

/// Append `Σᵢ term(cols[k][i], shift[k])` over the chunk `r` for every
/// column `k`, each folded in ascending point order from `−0.0`.
/// [`DIR_LANES`] columns are folded side by side: one column's fold is a
/// dependent chain of adds, and a few chains in flight keep the adder
/// busy. A short last group repeats its last column in the spare lanes,
/// whose sums are dropped.
#[allow(clippy::needless_range_loop)] // one index walks every lane in lockstep
fn fold_axes<T>(cols: &[&[f64]], r: Range<usize>, shift: &[f64], term: T, out: &mut Vec<f64>)
where
    T: Fn(f64, f64) -> f64,
{
    for (group, sh) in cols.chunks(DIR_LANES).zip(shift.chunks(DIR_LANES)) {
        let last = group.len() - 1;
        let lane: [&[f64]; DIR_LANES] = std::array::from_fn(|l| &group[l.min(last)][r.clone()]);
        let sh: [f64; DIR_LANES] = std::array::from_fn(|l| sh[l.min(last)]);
        let mut acc = [-0.0f64; DIR_LANES];
        for i in 0..r.len() {
            for l in 0..DIR_LANES {
                acc[l] += term(lane[l][i], sh[l]);
            }
        }
        out.extend_from_slice(&acc[..group.len()]);
    }
}

/// Per-coordinate variances — the axis-parallel specialization used when the
/// system runs in interpretable (axis-parallel) projection mode.
pub fn coordinate_variances(points: &[Vec<f64>]) -> Vec<f64> {
    coordinate_variances_with(Parallelism::serial(), points)
}

/// [`coordinate_variances`] with an explicit thread budget. Bit-identical
/// to the serial path for every budget.
pub fn coordinate_variances_with(par: Parallelism, points: &[Vec<f64>]) -> Vec<f64> {
    assert!(!points.is_empty(), "coordinate_variances: empty point set");
    let d = points[0].len();
    let mean = mean_vector_with(par, points);
    let mut var = map_reduce_chunks(
        par,
        points.len(),
        |r| {
            let mut s = vec![0.0; d];
            for p in &points[r] {
                for ((v, pi), mi) in s.iter_mut().zip(p).zip(&mean) {
                    let c = pi - mi;
                    *v += c * c;
                }
            }
            s
        },
        vec![0.0; d],
        |mut acc, s| {
            for (a, b) in acc.iter_mut().zip(&s) {
                *a += b;
            }
            acc
        },
    );
    let n = points.len() as f64;
    for v in &mut var {
        *v /= n;
    }
    var
}

/// Standard deviation of a scalar sample (population form). Returns 0 for
/// samples of size < 2. Used by Silverman's bandwidth rule in `hinn-kde`.
pub fn std_dev(sample: &[f64]) -> f64 {
    if sample.len() < 2 {
        return 0.0;
    }
    let n = sample.len() as f64;
    let mean: f64 = sample.iter().sum::<f64>() / n;
    (sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;
    use std::cell::Cell;

    thread_local! {
        static PROJECTED: Cell<usize> = const { Cell::new(0) };
    }

    /// Record `k` point projections onto a direction made on this thread.
    pub(super) fn tally_projected(k: usize) {
        PROJECTED.with(|p| p.set(p.get() + k));
    }

    /// The point projections `run` made on this thread.
    fn projections<T>(run: impl FnOnce() -> T) -> (T, usize) {
        PROJECTED.with(|p| p.set(0));
        let out = run();
        (out, PROJECTED.with(|p| p.get()))
    }

    #[test]
    fn mean_of_known_points() {
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        assert_eq!(mean_vector(&pts), vec![3.0, 4.0]);
    }

    #[test]
    fn covariance_of_axis_aligned_data() {
        // Points on the x-axis: variance in x, none in y, no cross term.
        let pts = vec![vec![-1.0, 0.0], vec![1.0, 0.0]];
        let c = covariance_matrix(&pts);
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(c[(1, 1)].abs() < 1e-12);
        assert!(c[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let pts = vec![
            vec![1.0, 2.0, 0.5],
            vec![2.0, 1.0, 1.5],
            vec![0.0, 0.5, 2.0],
            vec![1.5, 1.5, 1.0],
        ];
        let c = covariance_matrix(&pts);
        assert!(c.is_symmetric(1e-12));
        let e = jacobi_eigen(&c);
        for v in e.values {
            assert!(v > -1e-10, "covariance must be PSD, got eigenvalue {v}");
        }
    }

    #[test]
    fn variance_along_matches_quadratic_form() {
        let pts = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.5],
            vec![0.5, -1.0],
            vec![-0.5, 0.5],
        ];
        let c = covariance_matrix(&pts);
        let u = [0.6, 0.8];
        let quad = c.matvec(&u).iter().zip(&u).map(|(a, b)| a * b).sum::<f64>();
        assert!((variance_along(&pts, &u) - quad).abs() < 1e-12);
    }

    #[test]
    fn coordinate_variances_match_diagonal() {
        let pts = vec![vec![1.0, 5.0], vec![3.0, 5.0], vec![2.0, 5.0]];
        let c = covariance_matrix(&pts);
        let v = coordinate_variances(&pts);
        assert!((v[0] - c[(0, 0)]).abs() < 1e-12);
        assert!((v[1] - c[(1, 1)]).abs() < 1e-12);
        assert!(v[1].abs() < 1e-12, "constant coordinate has zero variance");
    }

    #[test]
    fn std_dev_known() {
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_mean_panics() {
        mean_vector(&[]);
    }

    /// A pseudo-random point set big enough to clear `SERIAL_CUTOFF`, so
    /// parallel runs actually spawn workers.
    fn big_points(n: usize, d: usize) -> Vec<Vec<f64>> {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| unif() * 10.0 - 5.0).collect())
            .collect()
    }

    #[test]
    fn parallel_stats_bit_identical_to_serial() {
        let pts = big_points(hinn_par::SERIAL_CUTOFF + 311, 6);
        let dir = vec![0.3, -0.2, 0.5, 0.1, -0.7, 0.4];
        let mean_s = mean_vector(&pts);
        let cov_s = covariance_matrix(&pts);
        let var_s = coordinate_variances(&pts);
        let along_s = variance_along(&pts, &dir);
        let cols: Vec<Vec<f64>> = (0..6).map(|j| pts.iter().map(|p| p[j]).collect()).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for t in [1usize, 2, 3, 7] {
            let par = Parallelism::fixed(t);
            let mean_p = mean_vector_with(par, &pts);
            for (a, b) in mean_s.iter().zip(&mean_p) {
                assert_eq!(a.to_bits(), b.to_bits(), "mean, threads={t}");
            }
            let cov_p = covariance_matrix_with(par, &pts);
            for i in 0..6 {
                for j in 0..6 {
                    assert_eq!(
                        cov_s[(i, j)].to_bits(),
                        cov_p[(i, j)].to_bits(),
                        "cov[{i},{j}], threads={t}"
                    );
                }
            }
            let var_p = coordinate_variances_with(par, &pts);
            for (a, b) in var_s.iter().zip(&var_p) {
                assert_eq!(a.to_bits(), b.to_bits(), "variances, threads={t}");
            }
            assert_eq!(
                along_s.to_bits(),
                variances_along_cols_with(par, &col_refs, &[&dir], &[])[0].to_bits(),
                "variances_along_cols, threads={t}"
            );
        }
    }

    #[test]
    fn zero_variance_covariance_is_exactly_zero_in_parallel() {
        // n identical rows, above the cutoff: every centered coordinate is
        // exactly 0.0, so Σ must be the exact zero matrix on every schedule.
        let row = vec![3.25, -1.5, 7.0];
        let pts: Vec<Vec<f64>> = vec![row; hinn_par::SERIAL_CUTOFF + 5];
        for t in [1usize, 2, 7] {
            let c = covariance_matrix_with(Parallelism::fixed(t), &pts);
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(c[(i, j)].to_bits(), 0.0f64.to_bits(), "threads={t}");
                }
            }
        }
    }

    #[test]
    fn stats_handle_n_smaller_than_threads() {
        let pts = vec![vec![1.0, 2.0]];
        let par = Parallelism::fixed(8);
        assert_eq!(mean_vector_with(par, &pts), vec![1.0, 2.0]);
        assert_eq!(coordinate_variances_with(par, &pts), vec![0.0, 0.0]);
        assert_eq!(
            variances_along_cols_with(par, &[&[1.0], &[2.0]], &[&[1.0, 0.0]], &[1]),
            vec![0.0, 0.0]
        );
    }

    /// Rows over a grid of signed zeros, units and halves, so many points
    /// have exact `±0.0` coordinates and many projections are exact zeros.
    fn signed_zero_points(n: usize, d: usize) -> Vec<Vec<f64>> {
        const VALUES: [f64; 6] = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        VALUES[(state % VALUES.len() as u64) as usize]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_variances_match_variance_along_on_every_backend_and_budget() {
        let d = 5;
        let mut pts = signed_zero_points(hinn_par::SERIAL_CUTOFF + 311, d);
        pts.extend(big_points(700, d));
        let cols: Vec<Vec<f64>> = (0..d).map(|j| pts.iter().map(|p| p[j]).collect()).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        // Unit axes among oblique directions, one all-zero, and more than
        // one lane group.
        let mut dirs: Vec<Vec<f64>> = vec![
            vec![0.3, -0.2, 0.5, 0.1, -0.7],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![-0.0, 0.0, -0.0, 0.0, -0.0],
            vec![1.0, -1.0, 0.0, 0.0, 0.0],
        ];
        for j in 0..d {
            let mut e = vec![0.0; d];
            e[j] = 1.0;
            dirs.push(e);
        }
        dirs.push(vec![0.25, 0.5, -0.125, 2.0, -0.0]);
        let dir_refs: Vec<&[f64]> = dirs.iter().map(|v| v.as_slice()).collect();
        let axes = [4usize, 0, 2, 2, 1, 3];
        let want: Vec<f64> = dirs
            .iter()
            .map(|dir| variance_along(&pts, dir))
            .chain(axes.iter().map(|&a| {
                let mut e = vec![0.0; d];
                e[a] = 1.0;
                variance_along(&pts, &e)
            }))
            .collect();
        for b in crate::simd::Backend::available() {
            for t in [1usize, 2, 3, 7] {
                let got = variances_along_cols_backend(
                    b,
                    Parallelism::fixed(t),
                    &col_refs,
                    &dir_refs,
                    &axes,
                );
                assert_eq!(got.len(), want.len());
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} threads={t} candidate {k}: {g} vs {w}",
                        b.name()
                    );
                }
            }
        }
    }

    #[test]
    fn each_direction_is_projected_once_per_pass_and_axes_never() {
        let pts = big_points(2 * hinn_par::CHUNK + 17, 4);
        let n = pts.len();
        let cols: Vec<Vec<f64>> = (0..4).map(|j| pts.iter().map(|p| p[j]).collect()).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let dir = [0.5, 0.5, -0.5, 0.5];
        let serial = Parallelism::serial();
        let (_, count) =
            projections(|| variances_along_cols_with(serial, &col_refs, &[&dir, &dir, &dir], &[]));
        assert_eq!(
            count,
            2 * 3 * n,
            "one projection per pass, direction and point"
        );
        let (_, count) =
            projections(|| variances_along_cols_with(serial, &col_refs, &[&dir], &[0, 1, 2, 3]));
        assert_eq!(count, 2 * n, "axes are read from their columns");
        let (_, count) = projections(|| variances_along_cols_with(serial, &col_refs, &[], &[3]));
        assert_eq!(count, 0);
    }
}
