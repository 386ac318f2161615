//! Query-centered projection finding (Figs. 3 and 4 of the paper).
//!
//! [`find_query_centered_projection`] iteratively refines a subspace `E_p`
//! starting from the current subspace `E_c`: in each round the `s` points
//! nearest to the query *inside* `E_p` form the tentative query cluster
//! `N_p`, and [`query_cluster_subspace_mode`] shrinks `E_p` to the
//! directions in which `N_p` is tightest relative to the whole data
//! (smallest variance ratio `λᵢ/γᵢ`). The dimensionality halves each round until a 2-D
//! projection remains. The gradual halving matters: `N_p` and `E_p` depend
//! on each other, and the refinement lets each sharpen the other (§2.1).
//!
//! Numerical pathologies do not abort the search — they walk a
//! **degradation ladder** recorded as [`DegradationEvent`]s: an
//! eigensolver failure or non-convergence falls back to the axis-parallel
//! candidate pool, a degenerate query-cluster covariance drops its PCA
//! candidates, and directions with zero *data* variance are dropped
//! rather than ranked against a floored denominator.

use crate::config::ProjectionMode;
use crate::degrade::{DegradationEvent, DegradationKind};
use crate::error::HinnError;
use hinn_linalg::stats::variances_along_cols_with;
use hinn_linalg::{try_jacobi_eigen, Parallelism, Subspace};
use hinn_par::{fill_chunks, map_reduce_chunks};

/// Result of one projection search: the 2-D projection to show the user and
/// the complementary subspace that the remaining minor iterations must use.
#[derive(Clone, Debug)]
pub struct ProjectionResult {
    /// The discriminatory 2-D projection (ambient coordinates).
    pub projection: Subspace,
    /// `E_c ⊖ projection`: where the next minor iteration searches.
    pub remainder: Subspace,
    /// Variance ratios `λᵢ/γᵢ` of the final 2 directions (diagnostic).
    pub variance_ratios: Vec<f64>,
}

/// Gather `rows` (each of length `d`) into one column-major buffer: column
/// `j` is `out[j·n .. (j+1)·n]` with `n = rows.len()` (see
/// [`column_views`]).
///
/// # Panics
/// Panics if a row's length differs from `d`.
pub(crate) fn gather_columns<'a, I>(d: usize, rows: I) -> Vec<f64>
where
    I: ExactSizeIterator<Item = &'a [f64]>,
{
    let n = rows.len();
    let mut out = vec![0.0; d * n];
    for (i, row) in rows.enumerate() {
        assert_eq!(row.len(), d, "gather_columns: dimension mismatch");
        for (j, &v) in row.iter().enumerate() {
            out[j * n + i] = v;
        }
    }
    out
}

/// The `d` column slices of a column-major buffer of `n` points.
pub(crate) fn column_views(buf: &[f64], n: usize, d: usize) -> Vec<&[f64]> {
    (0..d).map(|j| &buf[j * n..(j + 1) * n]).collect()
}

/// Fixed chunk `start..start + len` of every column.
pub(crate) fn chunk_of<'a>(cols: &[&'a [f64]], start: usize, len: usize) -> Vec<&'a [f64]> {
    cols.iter().map(|c| &c[start..start + len]).collect()
}

/// Coordinates of every point inside `sub`, column-major (`sub.dim()`
/// columns of `n`): column `k` is [`hinn_linalg::simd::dot_cols`] against
/// basis vector `k`, bit-identical to `sub.project(p)[k]` per point. One
/// dispatch for all coordinates: each fixed chunk projects its points onto
/// every basis vector, and the ordered fold copies the chunk's block into
/// place.
fn project_columns(par: Parallelism, points: &[&[f64]], n: usize, sub: &Subspace) -> Vec<f64> {
    let l = sub.dim();
    #[cfg(test)]
    tests::tally(tests::Work::Project { dim: l });
    let mut out = vec![0.0; l * n];
    map_reduce_chunks(
        par,
        n,
        |r| {
            let chunk = chunk_of(points, r.start, r.len());
            let mut block = vec![0.0; l * r.len()];
            for (e, col) in sub.basis().iter().zip(block.chunks_exact_mut(r.len())) {
                hinn_linalg::simd::dot_cols(&chunk, e, col);
            }
            (r, block)
        },
        (),
        |(), (r, block)| {
            for (k, col) in block.chunks_exact(r.len()).enumerate() {
                out[k * n + r.start..k * n + r.end].copy_from_slice(col);
            }
        },
    );
    out
}

/// Fig. 4: shrink to the `l` directions of `current` in which `cluster` is
/// best distinguished from `data`.
///
/// `cluster` and `data` are point sets in **`current`-subspace coordinates**
/// (length `current.dim()`). In [`ProjectionMode::Arbitrary`] the candidate
/// directions are the principal components of the cluster; in
/// [`ProjectionMode::AxisParallel`] they are the coordinate axes of
/// `current` (which, when the search starts from the full space, are the
/// original attributes). Returns the new subspace in ambient coordinates
/// together with the chosen directions' variance ratios.
///
/// # Panics
/// Panics on invalid input (`l` out of range, empty point sets, a
/// non-finite data coordinate).
pub fn query_cluster_subspace_mode(
    current: &Subspace,
    cluster_coords: &[Vec<f64>],
    data_coords: &[Vec<f64>],
    l: usize,
    mode: ProjectionMode,
) -> (Subspace, Vec<f64>) {
    let m = current.dim();
    let data = gather_columns(m, data_coords.iter().map(|r| r.as_slice()));
    let data = column_views(&data, data_coords.len(), m);
    match check_finite("projection.subspace", &data).and_then(|()| {
        try_query_cluster_subspace_cols(
            Parallelism::serial(),
            current,
            cluster_coords,
            &data,
            l,
            mode,
            &mut Vec::new(),
            None,
        )
    }) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// The axis-parallel candidate pool: coordinate axes of the current
/// subspace, scored by the cluster's marginal variances. Robust by
/// construction (no decomposition, cannot overfit) — it is both the
/// [`ProjectionMode::AxisParallel`] pool and the ladder's fallback when
/// the PCA pool is unusable.
fn axis_candidates(
    par: Parallelism,
    cluster_coords: &[Vec<f64>],
    m: usize,
) -> Vec<(Vec<f64>, f64)> {
    let var = hinn_linalg::stats::coordinate_variances_with(par, cluster_coords);
    unit_axes(m).into_iter().zip(var).collect()
}

/// The data variance `γ` along each of `dirs`, then along each of the
/// first `axes` coordinate axes (in the coordinates of `data`'s subspace),
/// in one batched scan: only `dirs` are projected, and an axis is read
/// from its column. Each direction's value is the same bits however the
/// directions are batched.
fn data_gammas(par: Parallelism, data: &[&[f64]], dirs: &[&[f64]], axes: usize) -> Vec<f64> {
    if dirs.is_empty() && axes == 0 {
        return Vec::new();
    }
    #[cfg(test)]
    tests::tally(tests::Work::Gamma {
        dim: data.len(),
        projected: dirs.len(),
        axes,
    });
    let axes: Vec<usize> = (0..axes).collect();
    variances_along_cols_with(par, data, dirs, &axes)
}

/// Refuse data with a non-finite coordinate: an axis `γ` reads its column
/// where a projection would turn `∞·0` into NaN, so such data has no
/// well-defined search.
fn check_finite(phase: &'static str, cols: &[&[f64]]) -> Result<(), HinnError> {
    let finite = cols
        .iter()
        .all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()));
    if finite {
        Ok(())
    } else {
        Err(HinnError::InvalidInput {
            phase,
            message: "projection search: data contains non-finite coordinates".into(),
        })
    }
}

/// The `m` coordinate axes of an `m`-dimensional subspace, in order.
fn unit_axes(m: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|i| {
            let mut e = vec![0.0; m];
            e[i] = 1.0;
            e
        })
        .collect()
}

/// Fig. 4 over the data as columns (in `current` coordinates). Every
/// candidate pool ends with the `m` axes of `current`, whose data variance
/// is read from the data's columns; `axis_gammas`, when given, is that
/// variance, scored once by the caller (see [`FirstRound`]), and only the
/// other candidates are scanned. Ladder rungs are appended to `events`
/// unstamped — the caller knows which view it is building.
#[allow(clippy::too_many_arguments)]
fn try_query_cluster_subspace_cols(
    par: Parallelism,
    current: &Subspace,
    cluster_coords: &[Vec<f64>],
    data: &[&[f64]],
    l: usize,
    mode: ProjectionMode,
    events: &mut Vec<DegradationEvent>,
    axis_gammas: Option<&[f64]>,
) -> Result<(Subspace, Vec<f64>), HinnError> {
    let _span = hinn_obs::span!("projection.subspace");
    let m = current.dim();
    if l < 1 || l > m {
        return Err(HinnError::InvalidInput {
            phase: "projection.subspace",
            message: "query_cluster_subspace: l out of range".into(),
        });
    }
    if cluster_coords.is_empty() || data.first().is_none_or(|c| c.is_empty()) {
        return Err(HinnError::InvalidInput {
            phase: "projection.subspace",
            message: "query_cluster_subspace: empty point sets".into(),
        });
    }

    // Candidate directions in `current` coordinates, with the cluster
    // variance along each.
    //
    // The arbitrary mode cannot simply trust the cluster's sample
    // covariance: when the neighborhood is small relative to `m` or
    // contaminated by non-cluster points, the covariance has artificially
    // small eigenvalues in spurious directions (pure overfitting), and
    // ranking by in-sample eigenvalue selects those artifacts. Instead the
    // candidate pool combines (a) principal components estimated on one
    // half of the cluster and (b) the coordinate axes of the current
    // subspace, with *every* candidate's cluster variance measured on the
    // held-out half. Overfit PCA directions blow up out-of-sample and
    // lose to the robust axis marginals; genuinely oblique cluster
    // structure survives the holdout and wins.
    let candidates: Vec<(Vec<f64>, f64)> = match mode {
        // The pool is only trustworthy when each half has comfortably more
        // points than dimensions; otherwise the half-sample covariance has
        // a null space and even the *held-out* scores of its eigenvectors
        // are selection-biased noise. Below that, fall back to the robust
        // axis marginals.
        ProjectionMode::Arbitrary if cluster_coords.len() >= 4 * m => {
            if hinn_fault::point("covariance.degenerate") {
                // Forced (or detected) covariance degeneracy: the PCA pool
                // is untrustworthy wholesale, so only the axis marginals
                // compete — exactly the AxisParallel pool.
                events.push(DegradationEvent::unplaced(
                    DegradationKind::DegenerateCovariance,
                    "query-cluster covariance degenerate; PCA candidates dropped, \
                     axis marginals only",
                ));
                axis_candidates(par, cluster_coords, m)
            } else {
                let half_a: Vec<Vec<f64>> = cluster_coords.iter().step_by(2).cloned().collect();
                let half_b: Vec<Vec<f64>> =
                    cluster_coords.iter().skip(1).step_by(2).cloned().collect();
                let mut pool: Vec<(Vec<f64>, f64)> = Vec::with_capacity(3 * m);
                // Cross-fitted principal components: directions from each
                // half are scored on the other half. An eigensolver that
                // rejects or fails to diagonalize a half's covariance
                // costs only that half's candidates — the axis pool below
                // keeps the view buildable (ladder rung: EigenFallback).
                for (fit, score) in [(&half_a, &half_b), (&half_b, &half_a)] {
                    let cov = hinn_linalg::covariance_matrix_with(par, fit);
                    match try_jacobi_eigen(&cov) {
                        Ok(out) if out.converged => {
                            let dirs: Vec<Vec<f64>> = (0..m).map(|i| out.eigen.vector(i)).collect();
                            let dir_refs: Vec<&[f64]> = dirs.iter().map(|d| d.as_slice()).collect();
                            let score_buf = gather_columns(m, score.iter().map(|r| r.as_slice()));
                            let held_out = variances_along_cols_with(
                                par,
                                &column_views(&score_buf, score.len(), m),
                                &dir_refs,
                                &[],
                            );
                            pool.extend(dirs.into_iter().zip(held_out));
                        }
                        Ok(out) => {
                            events.push(DegradationEvent::unplaced(
                                DegradationKind::EigenFallback,
                                format!(
                                    "eigensolver stalled after {} sweep(s) on a half-sample \
                                     covariance; falling back to axis-parallel candidates",
                                    out.sweeps
                                ),
                            ));
                        }
                        Err(e) => {
                            events.push(DegradationEvent::unplaced(
                                DegradationKind::EigenFallback,
                                format!(
                                    "eigensolver rejected a half-sample covariance ({e}); \
                                     falling back to axis-parallel candidates"
                                ),
                            ));
                        }
                    }
                }
                // Axis candidates cannot overfit, so they are scored on
                // the full cluster sample (the lowest-variance estimate
                // available).
                pool.extend(axis_candidates(par, cluster_coords, m));
                pool
            }
        }
        ProjectionMode::Arbitrary | ProjectionMode::AxisParallel => {
            axis_candidates(par, cluster_coords, m)
        }
    };

    // Variance ratio λᵢ/γᵢ with γᵢ the data variance along the direction.
    // A direction along which the *data* itself has (numerically) zero
    // spread carries no discriminating signal — its ratio would compare
    // noise against a floored denominator — so it is dropped and the drop
    // recorded (ladder rung: DroppedZeroVariance). The 1e-12 threshold
    // matches the floor the ranking historically applied.
    let dirs: Vec<&[f64]> = candidates[..candidates.len() - m]
        .iter()
        .map(|(d, _)| d.as_slice())
        .collect();
    let gammas = match axis_gammas {
        Some(axes) => {
            let mut gammas = data_gammas(par, data, &dirs, 0);
            gammas.extend_from_slice(axes);
            gammas
        }
        None => data_gammas(par, data, &dirs, m),
    };
    let mut scored: Vec<(f64, usize)> = Vec::with_capacity(candidates.len());
    let mut dropped = 0usize;
    for (i, ((_, lambda), gamma)) in candidates.iter().zip(gammas).enumerate() {
        if gamma < 1e-12 {
            dropped += 1;
            continue;
        }
        scored.push((lambda / gamma, i));
    }
    if dropped > 0 {
        events.push(DegradationEvent::unplaced(
            DegradationKind::DroppedZeroVariance,
            format!("dropped {dropped} candidate direction(s) with zero data variance"),
        ));
    }
    // Variance ratios are quotients of non-negative variances, so they are
    // never -0.0 and `total_cmp` agrees with the old partial order while
    // staying total (a NaN ratio from pathological input sorts last
    // instead of panicking).
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // Greedily collect the `l` best *linearly independent* directions (the
    // pooled candidates can overlap, e.g. an eigenvector nearly equal to an
    // axis).
    let mut picked = Subspace::empty(m);
    let mut ratios = Vec::with_capacity(l);
    for &(r, i) in &scored {
        if picked.dim() == l {
            break;
        }
        if picked.try_extend(&candidates[i].0) {
            ratios.push(r);
        }
    }
    let chosen: Vec<Vec<f64>> = picked.basis().to_vec();
    Ok((current.sub_subspace(&chosen), ratios))
}

/// Fig. 3: find the most discriminatory query-centered 2-D projection
/// inside `current` by iterative dimensionality halving.
///
/// `points` are the ambient-coordinate data (current data set `D_c`) and
/// `query` the ambient query point; `support` is the neighborhood size `s`.
/// The rows are gathered into columns once, then
/// [`try_find_query_centered_projection_cols`] runs on one thread.
///
/// # Panics
/// Panics if `current.dim() < 2`, `points` is empty, or a coordinate is
/// non-finite.
pub fn find_query_centered_projection(
    points: &[Vec<f64>],
    query: &[f64],
    current: &Subspace,
    support: usize,
    mode: ProjectionMode,
) -> ProjectionResult {
    let d = current.ambient_dim();
    let cols = gather_columns(d, points.iter().map(|r| r.as_slice()));
    let cols = column_views(&cols, points.len(), d);
    match check_finite("projection.find", &cols).and_then(|()| {
        try_find_query_centered_projection_cols(
            Parallelism::serial(),
            &cols,
            query,
            current,
            support,
            mode,
        )
    }) {
        Ok((result, _events)) => result,
        Err(e) => panic!("{e}"),
    }
}

/// The first halving round's support-independent inputs, computed once and
/// shared by every support restart: the data's coordinates inside the
/// search subspace `E_c` (column-major) and its variance `γ` along each
/// axis of `E_c`.
struct FirstRound {
    coords: Vec<f64>,
    axis_gammas: Vec<f64>,
}

/// Fig. 3 over points stored as columns (`points[j][i]` = ambient
/// coordinate `j` of point `i`), with an explicit thread budget for the
/// per-round projection, distance, covariance, and variance scans
/// (bit-identical for every budget). Returns the projection together with
/// every degradation event the winning pipeline run recorded (only the
/// kept support candidate's events are reported — a discarded restart's
/// hiccups never influenced the answer). The data must be finite, as
/// `hinn_data::DatasetHandle` guarantees: an axis `γ` is read from its
/// column, where a projection would have made a non-finite coordinate
/// elsewhere in the row NaN (`∞·0`). The slice entry
/// [`find_query_centered_projection`] refuses non-finite data.
///
/// # Panics
/// Panics when a halving round runs (`current.dim() > 2`) and
/// `points.len()` differs from `current.ambient_dim()` or the columns
/// differ in length.
pub fn try_find_query_centered_projection_cols(
    par: Parallelism,
    points: &[&[f64]],
    query: &[f64],
    current: &Subspace,
    support: usize,
    mode: ProjectionMode,
) -> Result<(ProjectionResult, Vec<DegradationEvent>), HinnError> {
    let _span = hinn_obs::span!("projection.find");
    if current.dim() < 2 {
        return Err(HinnError::InvalidInput {
            phase: "projection.find",
            message: "find_query_centered_projection: need a ≥2-D search subspace".into(),
        });
    }
    let n = points.first().map_or(0, |c| c.len());
    if n == 0 {
        return Err(HinnError::InvalidInput {
            phase: "projection.find",
            message: "find_query_centered_projection: empty data".into(),
        });
    }

    // The right neighborhood size is not knowable a priori: too small and
    // the tentative cluster N_p is all noise, too large and it is diluted
    // past recognition. Restart the halving pipeline with a few support
    // sizes around the requested one and keep the most discriminating
    // result (smallest mean variance ratio) — the computer-side equivalent
    // of trying a couple of zoom levels before showing the user a view.
    let mut candidates: Vec<usize> = [support, support * 2, support * 3]
        .into_iter()
        .map(|s| s.max(8).min(n))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    // Every restart's first round searches `current` itself.
    let m = current.dim();
    let first = (m > 2).then(|| {
        let coords = project_columns(par, points, n, current);
        let axis_gammas = data_gammas(par, &column_views(&coords, n, m), &[], m);
        FirstRound {
            coords,
            axis_gammas,
        }
    });

    let mut best: Option<(f64, ProjectionResult, Vec<DegradationEvent>)> = None;
    for s in candidates {
        let (result, events) = try_find_projection_with_support(
            par,
            points,
            n,
            query,
            current,
            first.as_ref(),
            s,
            mode,
        )?;
        let score = if result.variance_ratios.is_empty() {
            f64::INFINITY
        } else {
            result.variance_ratios.iter().sum::<f64>() / result.variance_ratios.len() as f64
        };
        if best.as_ref().map(|(b, _, _)| score < *b).unwrap_or(true) {
            best = Some((score, result, events));
        }
    }
    match best {
        Some((_, result, events)) => Ok((result, events)),
        // Unreachable — the candidate list is never empty — but surfaced
        // as a typed error rather than an unwrap.
        None => Err(HinnError::DegenerateGeometry {
            phase: "projection.find",
            message: "no support candidate produced a projection".into(),
        }),
    }
}

/// One run of the Fig. 3 halving pipeline at a fixed support; its first
/// round reads `first` (present whenever a round runs).
#[allow(clippy::too_many_arguments)] // internal; mirrors the pipeline input
fn try_find_projection_with_support(
    par: Parallelism,
    points: &[&[f64]],
    n: usize,
    query: &[f64],
    current: &Subspace,
    mut first: Option<&FirstRound>,
    support: usize,
    mode: ProjectionMode,
) -> Result<(ProjectionResult, Vec<DegradationEvent>), HinnError> {
    let mut events = Vec::new();
    let mut ep = current.clone();
    let mut lp = ep.dim();
    let mut ratios = Vec::new();
    while lp > 2 {
        let next_l = (lp / 2).max(2);
        // Column-major coordinates of the data inside the current E_p.
        let round = first.take();
        let projected;
        let coords = match round {
            Some(f) => &f.coords,
            None => {
                projected = project_columns(par, points, n, &ep);
                &projected
            }
        };
        let coord_cols = column_views(coords, n, lp);
        let q_coords = ep.project(query);
        // The s nearest points to the query within E_p (the tentative
        // query cluster N_p).
        let scan_span = hinn_obs::span!("projection.scan");
        hinn_obs::counter("projection.points_scanned", n as u64);
        let mut order: Vec<(f64, usize)> = vec![(0.0, 0); n];
        fill_chunks(par, &mut order, |start, slice| {
            // The batch distance kernel straight over this chunk of the
            // coordinate columns — one point per SIMD lane, bit-identical
            // to the scalar `vector::dist` per point.
            let len = slice.len();
            let mut dists = hinn_cache::PooledF64::take_zeroed(len);
            hinn_linalg::simd::dist_cols(&chunk_of(&coord_cols, start, len), &q_coords, &mut dists);
            for (off, slot) in slice.iter_mut().enumerate() {
                *slot = (dists[off], start + off);
            }
        });
        let keep = support.min(order.len());
        // Distances are non-negative, so `total_cmp` coincides with the
        // old partial order while tolerating NaN from poisoned input.
        order.select_nth_unstable_by(keep.saturating_sub(1), |a, b| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        });
        drop(scan_span);
        let cluster_coords: Vec<Vec<f64>> = order[..keep]
            .iter()
            .map(|&(_, i)| coord_cols.iter().map(|c| c[i]).collect())
            .collect();

        let (next, r) = try_query_cluster_subspace_cols(
            par,
            &ep,
            &cluster_coords,
            &coord_cols,
            next_l,
            mode,
            &mut events,
            round.map(|f| f.axis_gammas.as_slice()),
        )?;
        // Numerical degeneracies can shrink the basis; bail out with what
        // we have rather than loop forever.
        if next.dim() < 2 {
            break;
        }
        ep = next;
        ratios = r;
        lp = ep.dim();
    }

    // If the search subspace was already 2-D we never entered the loop.
    let projection = ep;
    let remainder = current.complement_within(&projection);
    Ok((
        ProjectionResult {
            projection,
            remainder,
            variance_ratios: ratios,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A whole-data scan the search ran: a projection into a subspace of
    /// dimension `dim`, or one batched data-variance (`γ`) scan in such a
    /// subspace that projected `projected` directions and read `axes`
    /// axes from their columns.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Work {
        Project {
            dim: usize,
        },
        Gamma {
            dim: usize,
            projected: usize,
            axes: usize,
        },
    }

    thread_local! {
        static TALLY: RefCell<Vec<Work>> = const { RefCell::new(Vec::new()) };
    }

    /// Record one scan on this thread.
    pub(super) fn tally(work: Work) {
        TALLY.with(|t| t.borrow_mut().push(work));
    }

    /// The scans `run` made on this thread, in order.
    fn counted<T>(run: impl FnOnce() -> T) -> (T, Vec<Work>) {
        TALLY.with(|t| t.borrow_mut().clear());
        let out = run();
        (out, TALLY.with(|t| t.take()))
    }

    /// The column-layout search on one thread, with its events.
    fn try_search(
        pts: &[Vec<f64>],
        q: &[f64],
        current: &Subspace,
        support: usize,
        mode: ProjectionMode,
    ) -> Result<(ProjectionResult, Vec<DegradationEvent>), HinnError> {
        let d = current.ambient_dim();
        let cols = gather_columns(d, pts.iter().map(|r| r.as_slice()));
        try_find_query_centered_projection_cols(
            Parallelism::serial(),
            &column_views(&cols, pts.len(), d),
            q,
            current,
            support,
            mode,
        )
    }

    /// 6-D data: 50 cluster points tight in dims (0,1), uniform elsewhere;
    /// 250 uniform background points. Query at the cluster center.
    fn planted() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = 0x853C49E6748FEA9Bu64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for _ in 0..50 {
            let mut p: Vec<f64> = (0..6).map(|_| unif() * 100.0).collect();
            p[0] = 50.0 + (unif() - 0.5) * 3.0;
            p[1] = 50.0 + (unif() - 0.5) * 3.0;
            pts.push(p);
        }
        for _ in 0..250 {
            pts.push((0..6).map(|_| unif() * 100.0).collect());
        }
        (pts, vec![50.0; 6])
    }

    #[test]
    fn finds_the_discriminating_plane_axis_parallel() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let res = find_query_centered_projection(&pts, &q, &full, 50, ProjectionMode::AxisParallel);
        assert_eq!(res.projection.dim(), 2);
        assert_eq!(res.remainder.dim(), 4);
        // The projection must essentially span dims 0 and 1.
        let mut e0 = vec![0.0; 6];
        e0[0] = 1.0;
        let mut e1 = vec![0.0; 6];
        e1[1] = 1.0;
        assert!(res.projection.contains(&e0, 1e-6), "dim 0 missing");
        assert!(res.projection.contains(&e1, 1e-6), "dim 1 missing");
    }

    #[test]
    fn finds_the_discriminating_plane_arbitrary() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let res = find_query_centered_projection(&pts, &q, &full, 50, ProjectionMode::Arbitrary);
        assert_eq!(res.projection.dim(), 2);
        // The plane spanned by dims 0,1 should be close to the found one:
        // projecting e0/e1 into the projection must retain most mass.
        for axis in [0usize, 1] {
            let mut e = vec![0.0; 6];
            e[axis] = 1.0;
            let coords = res.projection.project(&e);
            let mass: f64 = coords.iter().map(|c| c * c).sum();
            assert!(
                mass > 0.7,
                "projection misses axis {axis}: retained mass {mass}"
            );
        }
    }

    #[test]
    fn remainder_is_orthogonal_complement() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let res = find_query_centered_projection(&pts, &q, &full, 40, ProjectionMode::Arbitrary);
        for a in res.projection.basis() {
            for b in res.remainder.basis() {
                assert!(hinn_linalg::vector::dot(a, b).abs() < 1e-8);
            }
        }
        assert_eq!(res.projection.dim() + res.remainder.dim(), 6);
    }

    #[test]
    fn two_dimensional_search_space_passes_through() {
        let (pts, q) = planted();
        let plane = Subspace::from_vectors(
            6,
            &[
                vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            ],
        );
        let res = find_query_centered_projection(&pts, &q, &plane, 30, ProjectionMode::Arbitrary);
        assert_eq!(res.projection.dim(), 2);
        assert_eq!(res.remainder.dim(), 0);
        for b in plane.basis() {
            assert!(res.projection.contains(b, 1e-8));
        }
    }

    #[test]
    fn variance_ratios_are_discriminative_on_planted_data() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let res = find_query_centered_projection(&pts, &q, &full, 50, ProjectionMode::AxisParallel);
        assert_eq!(res.variance_ratios.len(), 2);
        for r in &res.variance_ratios {
            assert!(*r < 0.5, "planted cluster should yield small ratios: {r}");
        }
    }

    #[test]
    fn query_cluster_subspace_picks_low_variance_axes() {
        // Cluster constant in coordinate 2, spread in 0 and 1.
        let cluster = vec![
            vec![0.0, 0.0, 5.0],
            vec![1.0, 2.0, 5.0],
            vec![2.0, 1.0, 5.0],
            vec![3.0, 3.0, 5.0],
        ];
        let data = vec![
            vec![0.0, 0.0, 0.0],
            vec![9.0, 8.0, 9.0],
            vec![4.0, 5.0, 3.0],
            vec![7.0, 2.0, 7.0],
            vec![2.0, 9.0, 1.0],
        ];
        let full = Subspace::full(3);
        let (sub, ratios) =
            query_cluster_subspace_mode(&full, &cluster, &data, 1, ProjectionMode::AxisParallel);
        assert_eq!(sub.dim(), 1);
        assert!(sub.contains(&[0.0, 0.0, 1.0], 1e-9), "should pick axis 2");
        assert!(ratios[0] < 1e-9);
    }

    #[test]
    #[should_panic(expected = "l out of range")]
    fn l_too_large_panics() {
        let full = Subspace::full(2);
        query_cluster_subspace_mode(
            &full,
            &[vec![0.0, 0.0]],
            &[vec![0.0, 0.0]],
            3,
            ProjectionMode::Arbitrary,
        );
    }

    #[test]
    fn try_variant_matches_panicking_variant_bit_for_bit() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        for mode in [ProjectionMode::Arbitrary, ProjectionMode::AxisParallel] {
            let plain = find_query_centered_projection(&pts, &q, &full, 50, mode);
            let (tried, events) = try_search(&pts, &q, &full, 50, mode).expect("healthy data");
            assert!(
                events.is_empty(),
                "healthy data must not degrade: {events:?}"
            );
            assert_eq!(plain.variance_ratios.len(), tried.variance_ratios.len());
            for (a, b) in plain.variance_ratios.iter().zip(&tried.variance_ratios) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in plain
                .projection
                .basis()
                .iter()
                .zip(tried.projection.basis())
            {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn try_variant_reports_invalid_input() {
        let line = Subspace::from_vectors(3, &[vec![1.0, 0.0, 0.0]]);
        let err = try_search(
            &[vec![0.0; 3]],
            &[0.0; 3],
            &line,
            8,
            ProjectionMode::Arbitrary,
        )
        .expect_err("1-D search subspace");
        assert!(err.is_invalid_input());
        assert!(err.to_string().contains("≥2-D search subspace"));

        let full = Subspace::full(3);
        let err = try_search(&[], &[0.0; 3], &full, 8, ProjectionMode::Arbitrary)
            .expect_err("empty data");
        assert!(err.to_string().contains("empty data"));
    }

    #[test]
    fn forced_eigen_fault_falls_back_to_axis_parallel_pool() {
        // With `eigen.converge` forced, every PCA half fails and the
        // Arbitrary pool collapses to the axis marginals — the projection
        // must equal the explicit AxisParallel run bit for bit, and the
        // fallback must be recorded.
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new().with("eigen.converge", hinn_fault::FaultMode::Always),
        );
        let (faulted, events) = {
            let _g = hinn_fault::install_local(plan.clone());
            try_search(&pts, &q, &full, 50, ProjectionMode::Arbitrary)
                .expect("fallback keeps the search alive")
        };
        assert!(plan.fired("eigen.converge") > 0);
        assert!(
            events
                .iter()
                .any(|e| e.kind == DegradationKind::EigenFallback),
            "fallback must be recorded: {events:?}"
        );
        let axis =
            find_query_centered_projection(&pts, &q, &full, 50, ProjectionMode::AxisParallel);
        for (a, b) in faulted
            .projection
            .basis()
            .iter()
            .zip(axis.projection.basis())
        {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "faulted ≠ axis-parallel");
            }
        }
        for (a, b) in faulted.variance_ratios.iter().zip(&axis.variance_ratios) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn forced_degenerate_covariance_drops_the_pca_pool() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new()
                .with("covariance.degenerate", hinn_fault::FaultMode::Always),
        );
        let (faulted, events) = {
            let _g = hinn_fault::install_local(plan.clone());
            try_search(&pts, &q, &full, 50, ProjectionMode::Arbitrary)
                .expect("axis pool keeps the search alive")
        };
        assert!(plan.fired("covariance.degenerate") > 0);
        assert!(events
            .iter()
            .any(|e| e.kind == DegradationKind::DegenerateCovariance));
        let axis =
            find_query_centered_projection(&pts, &q, &full, 50, ProjectionMode::AxisParallel);
        for (a, b) in faulted
            .projection
            .basis()
            .iter()
            .zip(axis.projection.basis())
        {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn zero_variance_directions_are_dropped_and_logged() {
        // Data constant in coordinate 2: that axis has zero data variance
        // and must be dropped from the ranking rather than win with a
        // floored denominator.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let data: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![unif() * 10.0, unif() * 10.0, 7.0])
            .collect();
        let cluster: Vec<Vec<f64>> = data[..10].to_vec();
        let full = Subspace::full(3);
        let data_cols = gather_columns(3, data.iter().map(|r| r.as_slice()));
        let mut events = Vec::new();
        let (sub, _ratios) = try_query_cluster_subspace_cols(
            Parallelism::serial(),
            &full,
            &cluster,
            &column_views(&data_cols, data.len(), 3),
            2,
            ProjectionMode::AxisParallel,
            &mut events,
            None,
        )
        .expect("two informative axes remain");
        assert_eq!(sub.dim(), 2);
        assert!(
            !sub.contains(&[0.0, 0.0, 1.0], 1e-9),
            "the constant axis must not be selected"
        );
        assert!(events
            .iter()
            .any(|e| e.kind == DegradationKind::DroppedZeroVariance));
    }

    #[test]
    fn support_restarts_share_the_first_round() {
        // 6-D search space: rounds 6 → 3 → 2, so each restart runs two.
        let (pts, q) = planted();
        let full = Subspace::full(6);
        // Supports giving 3, 2 and 1 distinct restarts over 300 points.
        for (support, restarts) in [(20, 3), (150, 2), (300, 1)] {
            for mode in [ProjectionMode::Arbitrary, ProjectionMode::AxisParallel] {
                let label = format!("support {support}, {mode:?}");
                let (result, work) = counted(|| try_search(&pts, &q, &full, support, mode));
                result.expect("healthy data");
                let count = |w: Work| work.iter().filter(|&&x| x == w).count();
                // Round 1: one projection into E_c and one γ scan of its
                // 6 axes, read from their columns, however many restarts
                // ran.
                assert_eq!(count(Work::Project { dim: 6 }), 1, "{label}: {work:?}");
                let axes_only = Work::Gamma {
                    dim: 6,
                    projected: 0,
                    axes: 6,
                };
                assert_eq!(count(axes_only), 1, "{label}: {work:?}");
                // The only other round-1 scans are the per-restart PCA
                // candidates (2 × 6 directions, Arbitrary mode only),
                // which never repeat the axes.
                for &w in &work {
                    if let Work::Gamma { dim: 6, .. } = w {
                        if w != axes_only {
                            let pca = Work::Gamma {
                                dim: 6,
                                projected: 12,
                                axes: 0,
                            };
                            assert_eq!(w, pca, "{label}: {work:?}");
                            assert_eq!(mode, ProjectionMode::Arbitrary, "{label}");
                        }
                    }
                }
                // Round 2 is each restart's own.
                assert_eq!(
                    count(Work::Project { dim: 3 }),
                    restarts,
                    "{label}: {work:?}"
                );
            }
        }
    }

    #[test]
    fn gamma_projects_only_non_axis_candidates() {
        let (pts, q) = planted();
        let full = Subspace::full(6);
        for mode in [ProjectionMode::Arbitrary, ProjectionMode::AxisParallel] {
            for support in [20, 150] {
                let label = format!("support {support}, {mode:?}");
                let (result, work) = counted(|| try_search(&pts, &q, &full, support, mode));
                result.expect("healthy data");
                let gammas: Vec<(usize, usize, usize)> = work
                    .iter()
                    .filter_map(|w| match *w {
                        Work::Gamma {
                            dim,
                            projected,
                            axes,
                        } => Some((dim, projected, axes)),
                        Work::Project { .. } => None,
                    })
                    .collect();
                assert!(!gammas.is_empty(), "{label}");
                for &(dim, projected, axes) in &gammas {
                    // Every pool ends with the `dim` axes: a scan reads all
                    // of them from columns, or none (round 1, whose axes
                    // were scored once up front).
                    assert!(axes == dim || axes == 0, "{label}: {gammas:?}");
                    // It projects only the PCA candidates: 2·dim of them
                    // when the pool has them, and none in axis mode.
                    match mode {
                        ProjectionMode::AxisParallel => assert_eq!(projected, 0, "{label}"),
                        ProjectionMode::Arbitrary => {
                            assert!(
                                projected == 0 || projected == 2 * dim,
                                "{label}: {gammas:?}"
                            )
                        }
                    }
                    assert!(projected + axes > 0, "{label}: empty scan");
                }
                // Axis mode projects no candidate at all; the arbitrary
                // pool projects some.
                let projected: usize = gammas.iter().map(|g| g.1).sum();
                assert_eq!(
                    projected == 0,
                    mode == ProjectionMode::AxisParallel,
                    "{label}: {gammas:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_data_is_refused_by_the_slice_search() {
        let (mut pts, q) = planted();
        pts[7][3] = f64::INFINITY;
        find_query_centered_projection(
            &pts,
            &q,
            &Subspace::full(6),
            50,
            ProjectionMode::AxisParallel,
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_data_is_refused_by_the_slice_subspace_step() {
        let cluster = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let data = vec![vec![0.0, 1.0], vec![f64::NAN, 0.0], vec![2.0, 2.0]];
        query_cluster_subspace_mode(
            &Subspace::full(2),
            &cluster,
            &data,
            1,
            ProjectionMode::AxisParallel,
        );
    }
}
