//! The row-layout Fig. 3/4 projection search, kept as the reference the
//! columnar search in `hinn_core::projection` is held to bit for bit.
//!
//! This is the search as it ran over `Vec<Vec<f64>>` rows: every round
//! projects each point into its own row, the support scan transposes each
//! chunk back into columns, and every candidate direction's data variance
//! is a separate pair of row scans, one direction at a time. Each test
//! binary declares `mod reference;` and compares [`find`] against the
//! columnar entry point.

use hinn_cache::PooledF64;
use hinn_core::degrade::{DegradationEvent, DegradationKind};
use hinn_core::projection::ProjectionResult;
use hinn_core::{HinnError, ProjectionMode};
use hinn_linalg::vector::dot;
use hinn_linalg::{try_jacobi_eigen, Parallelism, Subspace};
use hinn_par::{fill_chunks, map_reduce_chunks};

/// The row scan behind the old `stats::variance_along_with`.
pub fn variance_along_rows(par: Parallelism, points: &[Vec<f64>], direction: &[f64]) -> f64 {
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

/// The old `Subspace::project_all_with`: one row per point.
fn project_all_rows(par: Parallelism, sub: &Subspace, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    fill_chunks(par, &mut out, |start, slice| {
        for (k, slot) in slice.iter_mut().enumerate() {
            *slot = sub.project(&points[start + k]);
        }
    });
    out
}

fn axis_candidates(
    par: Parallelism,
    cluster_coords: &[Vec<f64>],
    m: usize,
) -> Vec<(Vec<f64>, f64)> {
    let var = hinn_linalg::stats::coordinate_variances_with(par, cluster_coords);
    (0..m)
        .map(|i| {
            let mut e = vec![0.0; m];
            e[i] = 1.0;
            (e, var[i])
        })
        .collect()
}

fn query_cluster_subspace(
    par: Parallelism,
    current: &Subspace,
    cluster_coords: &[Vec<f64>],
    data_coords: &[Vec<f64>],
    l: usize,
    mode: ProjectionMode,
    events: &mut Vec<DegradationEvent>,
) -> Result<(Subspace, Vec<f64>), HinnError> {
    let m = current.dim();
    if l < 1 || l > m {
        return Err(HinnError::InvalidInput {
            phase: "projection.subspace",
            message: "query_cluster_subspace: l out of range".into(),
        });
    }
    if cluster_coords.is_empty() || data_coords.is_empty() {
        return Err(HinnError::InvalidInput {
            phase: "projection.subspace",
            message: "query_cluster_subspace: empty point sets".into(),
        });
    }
    let candidates: Vec<(Vec<f64>, f64)> = match mode {
        ProjectionMode::Arbitrary if cluster_coords.len() >= 4 * m => {
            if hinn_fault::point("covariance.degenerate") {
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
                for (fit, score) in [(&half_a, &half_b), (&half_b, &half_a)] {
                    let cov = hinn_linalg::covariance_matrix_with(par, fit);
                    match try_jacobi_eigen(&cov) {
                        Ok(out) if out.converged => {
                            for i in 0..m {
                                let dir = out.eigen.vector(i);
                                let held_out = variance_along_rows(par, score, &dir);
                                pool.push((dir, held_out));
                            }
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
                pool.extend(axis_candidates(par, cluster_coords, m));
                pool
            }
        }
        ProjectionMode::Arbitrary | ProjectionMode::AxisParallel => {
            axis_candidates(par, cluster_coords, m)
        }
    };

    let mut scored: Vec<(f64, usize)> = Vec::with_capacity(candidates.len());
    let mut dropped = 0usize;
    for (i, (dir, lambda)) in candidates.iter().enumerate() {
        let gamma = variance_along_rows(par, data_coords, dir);
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
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

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

/// The row-layout `try_find_query_centered_projection_cols`.
pub fn find(
    par: Parallelism,
    points: &[Vec<f64>],
    query: &[f64],
    current: &Subspace,
    support: usize,
    mode: ProjectionMode,
) -> Result<(ProjectionResult, Vec<DegradationEvent>), HinnError> {
    if current.dim() < 2 {
        return Err(HinnError::InvalidInput {
            phase: "projection.find",
            message: "find_query_centered_projection: need a ≥2-D search subspace".into(),
        });
    }
    if points.is_empty() {
        return Err(HinnError::InvalidInput {
            phase: "projection.find",
            message: "find_query_centered_projection: empty data".into(),
        });
    }
    let n = points.len();
    let mut candidates: Vec<usize> = [support, support * 2, support * 3]
        .into_iter()
        .map(|s| s.max(8).min(n))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    let mut best: Option<(f64, ProjectionResult, Vec<DegradationEvent>)> = None;
    for s in candidates {
        let (result, events) = find_with_support(par, points, query, current, s, mode)?;
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
        None => Err(HinnError::DegenerateGeometry {
            phase: "projection.find",
            message: "no support candidate produced a projection".into(),
        }),
    }
}

fn find_with_support(
    par: Parallelism,
    points: &[Vec<f64>],
    query: &[f64],
    current: &Subspace,
    support: usize,
    mode: ProjectionMode,
) -> Result<(ProjectionResult, Vec<DegradationEvent>), HinnError> {
    let mut events = Vec::new();
    let mut ep = current.clone();
    let mut lp = ep.dim();
    let mut ratios = Vec::new();
    while lp > 2 {
        let next_l = (lp / 2).max(2);
        let data_coords = project_all_rows(par, &ep, points);
        let q_coords = ep.project(query);
        let mut order: Vec<(f64, usize)> = vec![(0.0, 0); data_coords.len()];
        fill_chunks(par, &mut order, |start, slice| {
            let m = q_coords.len();
            let len = slice.len();
            let mut colbuf = PooledF64::take_zeroed(m * len);
            for off in 0..len {
                for (j, &v) in data_coords[start + off].iter().enumerate() {
                    colbuf[j * len + off] = v;
                }
            }
            let cols: Vec<&[f64]> = (0..m).map(|j| &colbuf[j * len..(j + 1) * len]).collect();
            let mut dists = PooledF64::take_zeroed(len);
            hinn_linalg::simd::dist_sq_cols(&cols, &q_coords, &mut dists);
            hinn_linalg::simd::sqrt_inplace(&mut dists);
            for (off, slot) in slice.iter_mut().enumerate() {
                *slot = (dists[off], start + off);
            }
        });
        let keep = support.min(order.len());
        order.select_nth_unstable_by(keep.saturating_sub(1), |a, b| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        });
        let cluster_coords: Vec<Vec<f64>> = order[..keep]
            .iter()
            .map(|&(_, i)| data_coords[i].clone())
            .collect();

        let (next, r) = query_cluster_subspace(
            par,
            &ep,
            &cluster_coords,
            &data_coords,
            next_l,
            mode,
            &mut events,
        )?;
        if next.dim() < 2 {
            break;
        }
        ep = next;
        ratios = r;
        lp = ep.dim();
    }
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
