//! Adaptive (variable-bandwidth) kernel density estimation — Silverman,
//! *Density Estimation for Statistics and Data Analysis* (the paper's
//! reference \[26\]), §5.3.
//!
//! The fixed-bandwidth estimator of [`crate::estimate`] must compromise: a
//! bandwidth wide enough to smooth sparse background regions over-smooths
//! dense clusters (this workspace's default mitigates that with a global
//! scale factor — see `SearchConfig::bandwidth_scale`). Silverman's
//! *adaptive kernel estimator* resolves the tension per-point:
//!
//! 1. compute a fixed-bandwidth **pilot** estimate `f̃`,
//! 2. give each data point a local bandwidth factor
//!    `λᵢ = (f̃(xᵢ) / g)^(−α)` where `g` is the geometric mean of the pilot
//!    densities and `α ∈ [0, 1]` the sensitivity (Silverman recommends
//!    `α = 1/2`),
//! 3. estimate with per-point bandwidths `h·λᵢ`: narrow kernels in dense
//!    regions (sharp peaks), wide kernels in sparse ones (smooth tails).
//!
//! The ablation experiment compares this against the scaled-Silverman
//! default on cluster-separation quality.

use crate::estimate::{count_nonfinite, fill_kernel_column, support_range};
use crate::grid::{DensityGrid, GridSpec};
use crate::kernel::Bandwidth2D;
use hinn_linalg::simd::{self, Backend, Isa, Kernel};
use hinn_par::{fill_chunks, map_reduce_chunks, Parallelism};

/// Per-point bandwidth factors `λᵢ` from a pilot estimate.
#[derive(Clone, Debug)]
pub struct AdaptiveBandwidths {
    /// Base (pilot) bandwidths.
    pub base: Bandwidth2D,
    /// Per-point multipliers `λᵢ`.
    pub factors: Vec<f64>,
    /// Sensitivity exponent used.
    pub alpha: f64,
}

/// Compute Silverman's adaptive bandwidth factors for `points`.
///
/// `alpha = 0` reduces to the fixed-bandwidth estimator (`λᵢ ≡ 1`);
/// `alpha = 0.5` is the recommended setting.
///
/// # Panics
/// Panics if `points` is empty or `alpha ∉ [0, 1]`.
pub fn adaptive_bandwidths(
    points: &[[f64; 2]],
    base: Bandwidth2D,
    alpha: f64,
) -> AdaptiveBandwidths {
    adaptive_bandwidths_with(Parallelism::serial(), points, base, alpha)
}

/// [`adaptive_bandwidths`] with an explicit thread budget. The pilot grid,
/// the per-point pilot densities, and the geometric-mean reduction all use
/// the fixed-chunk schedule, so the factors are bit-identical for every
/// budget.
///
/// # Panics
/// Panics if `points` is empty or `alpha ∉ [0, 1]`.
pub fn adaptive_bandwidths_with(
    par: Parallelism,
    points: &[[f64; 2]],
    base: Bandwidth2D,
    alpha: f64,
) -> AdaptiveBandwidths {
    let _span = hinn_obs::span!("kde.adaptive_bandwidths");
    assert!(!points.is_empty(), "adaptive_bandwidths: empty point set");
    assert!(
        (0.0..=1.0).contains(&alpha),
        "adaptive_bandwidths: alpha must be in [0, 1]"
    );

    // Pilot densities at the data points (fixed bandwidth). A coarse grid
    // pilot keeps this O(N·p²) instead of O(N²) for large N.
    let spec = GridSpec::covering(points, &[], 0.15, 64);
    let pilot = crate::estimate::estimate_grid_with(par, points, base, spec);
    let mut dens = vec![0.0f64; points.len()];
    fill_chunks(par, &mut dens, |start, slice| {
        for (k, d) in slice.iter_mut().enumerate() {
            let p = points[start + k];
            *d = pilot.interpolate(p[0], p[1]).max(1e-300);
        }
    });

    // Geometric mean of the pilot densities (ordered chunked reduction).
    let log_sum = map_reduce_chunks(
        par,
        dens.len(),
        |r| dens[r].iter().map(|d| d.ln()).sum::<f64>(),
        0.0f64,
        |a, p| a + p,
    );
    let g = (log_sum / dens.len() as f64).exp();

    let mut factors = dens;
    for f in &mut factors {
        *f = (*f / g).powf(-alpha);
    }
    AdaptiveBandwidths {
        base,
        factors,
        alpha,
    }
}

/// Evaluate the adaptive estimator on every grid point of `spec`.
///
/// Each point contributes a product-Gaussian with its own bandwidth
/// `(hx·λᵢ, hy·λᵢ)` (sample-point estimator: the bandwidth rides with the
/// data point, keeping the estimate a genuine density).
pub fn estimate_grid_adaptive(
    points: &[[f64; 2]],
    bw: &AdaptiveBandwidths,
    spec: GridSpec,
) -> DensityGrid {
    estimate_grid_adaptive_with(Parallelism::serial(), points, bw, spec)
}

/// [`estimate_grid_adaptive`] with an explicit thread budget. Same
/// fixed-chunk partial-grid scheme as
/// [`crate::estimate::estimate_grid_with`]: bit-identical for every budget.
pub fn estimate_grid_adaptive_with(
    par: Parallelism,
    points: &[[f64; 2]],
    bw: &AdaptiveBandwidths,
    spec: GridSpec,
) -> DensityGrid {
    estimate_grid_adaptive_on(simd::active_backend(), par, points, bw, spec)
}

/// [`estimate_grid_adaptive_with`] on an explicit backend (equivalence
/// tests).
pub(crate) fn estimate_grid_adaptive_on(
    b: Backend,
    par: Parallelism,
    points: &[[f64; 2]],
    bw: &AdaptiveBandwidths,
    spec: GridSpec,
) -> DensityGrid {
    let _span = hinn_obs::span!("kde.estimate_grid_adaptive");
    assert_eq!(
        points.len(),
        bw.factors.len(),
        "estimate_grid_adaptive: factor count mismatch"
    );
    let n = spec.n;
    if points.is_empty() {
        return DensityGrid::new(spec, vec![0.0; n * n]);
    }
    if hinn_obs::enabled() {
        hinn_obs::counter("kde.points_scanned", points.len() as u64);
        hinn_obs::counter("kde.grid_cells", (n * n) as u64);
    }
    let skipped = count_nonfinite(points);
    if skipped > 0 {
        // Same contract as the fixed estimator: skipped points are
        // counted (only when present, keeping clean-data telemetry
        // schemas unchanged) and excluded from the normalization.
        if hinn_obs::enabled() {
            hinn_obs::counter("kde.skipped_nonfinite", skipped as u64);
        }
        if skipped == points.len() {
            return DensityGrid::new(spec, vec![0.0; n * n]);
        }
    }
    let inv_n = 1.0 / (points.len() - skipped) as f64;
    let mut values = map_reduce_chunks(
        par,
        points.len(),
        |r| {
            simd::run_kernel(
                b,
                AdaptiveChunk {
                    points: &points[r.clone()],
                    factors: &bw.factors[r],
                    base: bw.base,
                    spec,
                },
            )
        },
        vec![0.0; n * n],
        |mut acc, part| {
            for (a, b) in acc.iter_mut().zip(part.iter()) {
                *a += b;
            }
            acc
        },
    );
    for v in &mut values {
        *v *= inv_n;
    }
    DensityGrid::new(spec, values)
}

/// Un-normalized adaptive kernel-sum grid of one chunk of points, run as
/// one [`Kernel`]. Partial grid and kernel scratch come from the
/// thread-local pool, zeroed.
///
/// Per-point bandwidths defeat the fixed estimator's 8-point blocking
/// (supports vary wildly between neighbors), so each point flushes
/// individually — but the kernel columns go through the same vectorized
/// [`fill_kernel_column`] and the row updates through [`Isa::axpy`], both
/// bit-identical to the scalar loops they replaced. Non-finite points are
/// skipped ([`support_range`] returns the empty range for them; they're
/// counted by the caller).
struct AdaptiveChunk<'a> {
    points: &'a [[f64; 2]],
    factors: &'a [f64],
    base: Bandwidth2D,
    spec: GridSpec,
}

impl Kernel for AdaptiveChunk<'_> {
    type Output = hinn_cache::PooledF64;
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) -> hinn_cache::PooledF64 {
        let AdaptiveChunk {
            points,
            factors,
            base,
            spec,
        } = self;
        let n = spec.n;
        let mut values = hinn_cache::PooledF64::take_zeroed(n * n);
        let mut kx = hinn_cache::PooledF64::take_zeroed(n);
        let mut ky = hinn_cache::PooledF64::take_zeroed(n);
        for (p, &lambda) in points.iter().zip(factors) {
            let hx = base.hx * lambda;
            let hy = base.hy * lambda;
            let (x_lo, x_hi) = support_range(p[0], hx, spec.x0, spec.dx, n);
            let (y_lo, y_hi) = support_range(p[1], hy, spec.y0, spec.dy, n);
            if x_lo > x_hi || y_lo > y_hi {
                continue;
            }
            fill_kernel_column(isa, &mut kx, x_lo, x_hi, spec.x0, spec.dx, p[0], hx);
            fill_kernel_column(isa, &mut ky, y_lo, y_hi, spec.y0, spec.dy, p[1], hy);
            let col = &kx[x_lo..=x_hi];
            for iy in y_lo..=y_hi {
                isa.axpy(ky[iy], col, &mut values[iy * n + x_lo..iy * n + x_hi + 1]);
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Bandwidth2D;

    /// A tight 60-point cluster at the origin plus 60 scattered points.
    fn cluster_and_noise() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..60 {
            let a = i as f64 * 0.7;
            pts.push([0.2 * a.sin() * 0.2, 0.2 * a.cos() * 0.2]);
        }
        for i in 0..60 {
            pts.push([
                2.0 + 8.0 * ((i * 37 % 60) as f64 / 60.0),
                -4.0 + 8.0 * ((i * 53 % 60) as f64 / 60.0),
            ]);
        }
        pts
    }

    #[test]
    fn alpha_zero_matches_fixed_estimator() {
        let pts = cluster_and_noise();
        let base = Bandwidth2D::silverman(&pts);
        let bw = adaptive_bandwidths(&pts, base, 0.0);
        assert!(bw.factors.iter().all(|&f| (f - 1.0).abs() < 1e-12));
        let spec = GridSpec::covering(&pts, &[], 0.2, 31);
        let adaptive = estimate_grid_adaptive(&pts, &bw, spec);
        let fixed = crate::estimate::estimate_grid(&pts, base, spec);
        for (a, b) in adaptive.values().iter().zip(fixed.values()) {
            assert!((a - b).abs() < 1e-9, "alpha=0 must equal fixed: {a} vs {b}");
        }
    }

    #[test]
    fn dense_points_get_narrow_kernels() {
        let pts = cluster_and_noise();
        let base = Bandwidth2D::silverman(&pts);
        let bw = adaptive_bandwidths(&pts, base, 0.5);
        let cluster_mean: f64 = bw.factors[..60].iter().sum::<f64>() / 60.0;
        let noise_mean: f64 = bw.factors[60..].iter().sum::<f64>() / 60.0;
        assert!(
            cluster_mean < noise_mean,
            "cluster factors ({cluster_mean:.2}) must be below noise factors ({noise_mean:.2})"
        );
        assert!(cluster_mean < 1.0);
        assert!(noise_mean > 1.0);
    }

    #[test]
    fn adaptive_peak_is_sharper_than_fixed() {
        let pts = cluster_and_noise();
        let base = Bandwidth2D::silverman(&pts);
        let spec = GridSpec::covering(&pts, &[], 0.2, 61);
        let fixed = crate::estimate::estimate_grid(&pts, base, spec);
        let bw = adaptive_bandwidths(&pts, base, 0.5);
        let adaptive = estimate_grid_adaptive(&pts, &bw, spec);
        // Peak (at the cluster) must be higher relative to the same grid's
        // total mass for the adaptive estimator.
        assert!(
            adaptive.max() > 1.5 * fixed.max(),
            "adaptive peak {} vs fixed {}",
            adaptive.max(),
            fixed.max()
        );
    }

    #[test]
    fn adaptive_estimate_integrates_to_about_one() {
        let pts = cluster_and_noise();
        let base = Bandwidth2D::silverman(&pts);
        let bw = adaptive_bandwidths(&pts, base, 0.5);
        let spec = GridSpec::covering(&pts, &[], 1.0, 121);
        let g = estimate_grid_adaptive(&pts, &bw, spec);
        let mass = g.integral();
        assert!((mass - 1.0).abs() < 0.05, "adaptive mass {mass}");
    }

    #[test]
    fn nan_point_is_skipped_by_the_adaptive_estimator() {
        // Regression: the old inline support computation sent a NaN
        // center to the corner cell (`NaN as usize == 0`), poisoning the
        // grid. Poisoned points must drop out entirely.
        let clean = cluster_and_noise();
        let base = Bandwidth2D::silverman(&clean);
        let spec = GridSpec::covering(&clean, &[], 0.2, 31);
        let bw_clean = adaptive_bandwidths(&clean, base, 0.5);
        let want = estimate_grid_adaptive(&clean, &bw_clean, spec);

        let mut pts = clean.clone();
        pts.push([f64::NAN, 0.1]);
        // Reuse the clean factors for the clean points; the poisoned
        // point's factor is irrelevant (it is skipped).
        let bw_poison = AdaptiveBandwidths {
            base,
            factors: {
                let mut f = bw_clean.factors.clone();
                f.push(1.0);
                f
            },
            alpha: 0.5,
        };
        let g = estimate_grid_adaptive(&pts, &bw_poison, spec);
        assert!(g.values().iter().all(|v| v.is_finite()));
        for (a, b) in g.values().iter().zip(want.values()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "grid with a NaN point must equal the finite subset's"
            );
        }
    }

    /// The per-point spec loop: each point's own bandwidth, the scalar
    /// `gaussian_kernel` per cell, one partial grid per fixed chunk of
    /// points merged in chunk order.
    fn reference_adaptive_grid(
        points: &[[f64; 2]],
        bw: &AdaptiveBandwidths,
        spec: GridSpec,
    ) -> Vec<f64> {
        use crate::kernel::gaussian_kernel;
        let n = spec.n;
        let mut values = vec![0.0; n * n];
        for (chunk, factors) in points
            .chunks(hinn_par::CHUNK)
            .zip(bw.factors.chunks(hinn_par::CHUNK))
        {
            let mut part = vec![0.0; n * n];
            for (p, &lambda) in chunk.iter().zip(factors) {
                let (hx, hy) = (bw.base.hx * lambda, bw.base.hy * lambda);
                let (x_lo, x_hi) = support_range(p[0], hx, spec.x0, spec.dx, n);
                let (y_lo, y_hi) = support_range(p[1], hy, spec.y0, spec.dy, n);
                if x_lo > x_hi || y_lo > y_hi {
                    continue;
                }
                for iy in y_lo..=y_hi {
                    let kyv = gaussian_kernel(spec.y0 + iy as f64 * spec.dy - p[1], hy);
                    for ix in x_lo..=x_hi {
                        let kxv = gaussian_kernel(spec.x0 + ix as f64 * spec.dx - p[0], hx);
                        part[iy * n + ix] += kxv * kyv;
                    }
                }
            }
            for (v, c) in values.iter_mut().zip(&part) {
                *v += c;
            }
        }
        let inv_n = 1.0 / points.len() as f64;
        for v in &mut values {
            *v *= inv_n;
        }
        values
    }

    #[test]
    fn every_backend_reproduces_the_adaptive_spec_at_session_and_wide_shapes() {
        let pts = crate::estimate::tests::blobs(2_500);
        let session = GridSpec::covering(&pts, &[], 0.3, 80);
        let narrow = Bandwidth2D {
            hx: 5.0 * session.dx / 12.0,
            hy: 5.0 * session.dy / 12.0,
        };
        let wide = GridSpec::covering(&pts, &[], 0.3, 256);
        for (spec, base) in [(session, narrow), (wide, Bandwidth2D::silverman(&pts))] {
            let bw = adaptive_bandwidths(&pts, base, 0.5);
            let want = reference_adaptive_grid(&pts, &bw, spec);
            for b in simd::Backend::available() {
                for t in [1usize, 3] {
                    let g = estimate_grid_adaptive_on(b, Parallelism::fixed(t), &pts, &bw, spec);
                    for (i, (a, w)) in g.values().iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            w.to_bits(),
                            "{} threads={t} grid {}: cell {i}",
                            b.name(),
                            spec.n
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn invalid_alpha_panics() {
        adaptive_bandwidths(&[[0.0, 0.0]], Bandwidth2D { hx: 1.0, hy: 1.0 }, 1.5);
    }
}
