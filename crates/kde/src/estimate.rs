//! KDE evaluation over grids and at arbitrary locations.
//!
//! Equation (1) of the paper: `f(x) = (1/N) Σᵢ K_h(x − xᵢ)`, with the 2-D
//! product Gaussian kernel. Grid evaluation exploits separability: for each
//! data point the x-axis kernel column and y-axis kernel row are computed
//! once (`O(p)` each) and their outer product is accumulated (`O(p²)` only
//! over the kernel's support), with the kernel truncated at `TRUNC_SIGMAS`
//! standard deviations — a standard, visually lossless optimization.
//!
//! The accumulation is vectorized through `hinn_linalg::simd` without
//! changing a single output bit: kernel columns are evaluated with
//! [`Isa::gaussian_prep`] (exactly-rounded ops; `exp` stays scalar libm),
//! and outer products land on the grid through `axpy` passes. Points are
//! processed in blocks of `KDE_BLOCK` so one read-modify-write pass over
//! a grid row applies eight points' contributions ([`Isa::axpy8`]); cells
//! outside a point's support receive `+0.0`, which leaves a non-negative
//! accumulator bit-unchanged, so the blocked schedule equals the
//! one-point-at-a-time spec exactly.
//!
//! A session's supports are a few cells wide, so a backend dispatch per
//! elementwise call would cost more than the arithmetic. Each 1 024-point
//! chunk is therefore one [`simd::Kernel`]: its whole loop — the kernel
//! column prep, `exp`, the normalising divide and the outer-product rows
//! — runs inside one `#[target_feature]`-compiled body
//! ([`simd::run_kernel`]).
//!
//! Points with a non-finite coordinate are skipped (and counted via the
//! `kde.skipped_nonfinite` counter) rather than poisoning the grid; the
//! normalization divides by the number of points actually accumulated.

use crate::grid::{DensityGrid, GridSpec};
use crate::kernel::{gaussian_kernel, Bandwidth2D};
use hinn_linalg::simd::{self, Backend, Isa, Kernel};
use hinn_par::{map_reduce_chunks, Parallelism};

/// Gaussian kernel support truncation, in bandwidth units. Beyond 6σ the
/// kernel value is below 6e-9 of the peak — invisible in any profile.
const TRUNC_SIGMAS: f64 = 6.0;

/// Points per fused grid pass: matches [`Isa::axpy8`].
const KDE_BLOCK: usize = 8;

/// Evaluate the KDE of `points` on every grid point of `spec`.
///
/// Returns a [`DensityGrid`]; an empty point set yields an all-zero grid.
pub fn estimate_grid(points: &[[f64; 2]], bw: Bandwidth2D, spec: GridSpec) -> DensityGrid {
    estimate_grid_with(Parallelism::serial(), points, bw, spec)
}

/// [`estimate_grid`] with an explicit thread budget. Each fixed chunk of
/// data points accumulates its own partial `p × p` grid; the partial grids
/// merge elementwise in chunk order, so the result is bit-identical for
/// every budget. Transient memory is `O(⌈N/CHUNK⌉ · p²)` during a parallel
/// run (one partial grid per chunk); partial grids and kernel scratch are
/// drawn from the thread-local [`hinn_cache::pool`], so steady-state
/// serving does not allocate here.
pub fn estimate_grid_with(
    par: Parallelism,
    points: &[[f64; 2]],
    bw: Bandwidth2D,
    spec: GridSpec,
) -> DensityGrid {
    estimate_grid_on(simd::active_backend(), par, points, bw, spec)
}

/// [`estimate_grid_with`] on an explicit backend (equivalence tests).
pub(crate) fn estimate_grid_on(
    b: Backend,
    par: Parallelism,
    points: &[[f64; 2]],
    bw: Bandwidth2D,
    spec: GridSpec,
) -> DensityGrid {
    let _span = hinn_obs::span!("kde.estimate_grid");
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
        // Emitted only when something was actually skipped, so clean-data
        // telemetry keeps its exact counter schema.
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
                GridChunk {
                    points: &points[r],
                    bw,
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

/// How many points have a non-finite coordinate (these are skipped by the
/// accumulators rather than poisoning the whole grid).
pub(crate) fn count_nonfinite(points: &[[f64; 2]]) -> usize {
    points
        .iter()
        .filter(|p| !(p[0].is_finite() && p[1].is_finite()))
        .count()
}

/// Fill `col[lo..=hi]` with `gaussian_kernel(grid(i) − center, h)` for
/// `i ∈ [lo, hi]`, bit-identical to the scalar kernel call per cell: the
/// exactly-rounded prefix (`−0.5·z²`) and the final normalization divide
/// are vectorized; `exp` stays a scalar libm call per cell.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one grid axis: its range, spacing, center and bandwidth
pub(crate) fn fill_kernel_column<I: Isa>(
    isa: I,
    col: &mut [f64],
    lo: usize,
    hi: usize,
    origin: f64,
    step: f64,
    center: f64,
    h: f64,
) {
    assert!(h > 0.0, "gaussian_kernel: bandwidth must be positive");
    let seg = &mut col[lo..=hi];
    isa.gaussian_prep(seg, lo, origin, step, center, h);
    for v in seg.iter_mut() {
        *v = v.exp();
    }
    isa.div_inplace(seg, (2.0 * std::f64::consts::PI).sqrt() * h);
}

/// One chunk of points for [`accumulate_grid_chunk`], run as one
/// [`Kernel`].
struct GridChunk<'a> {
    points: &'a [[f64; 2]],
    bw: Bandwidth2D,
    spec: GridSpec,
}

impl Kernel for GridChunk<'_> {
    type Output = hinn_cache::PooledF64;
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) -> hinn_cache::PooledF64 {
        accumulate_grid_chunk(isa, self.points, self.bw, self.spec)
    }
}

/// Un-normalized kernel-sum grid of one chunk of points. The returned
/// buffer (and the kernel scratch) comes from the thread-local pool; it
/// starts all-zero, exactly like a fresh allocation.
///
/// Points are gathered into blocks of [`KDE_BLOCK`]; a full block flushes
/// through [`Isa::axpy8`] — one pass over each grid row in the block's
/// union support applies all eight outer products. Scratch columns are
/// zero outside each point's own support, so out-of-support cells receive
/// `+0.0`: the grid accumulator is non-negative (it starts at `+0.0` and
/// kernel products are `≥ 0`), and `x + 0.0 == x` bitwise for every
/// non-negative `x`, so the fused pass reproduces the per-point spec loop
/// bit-for-bit in the same point order.
#[inline(always)]
fn accumulate_grid_chunk<I: Isa>(
    isa: I,
    points: &[[f64; 2]],
    bw: Bandwidth2D,
    spec: GridSpec,
) -> hinn_cache::PooledF64 {
    let n = spec.n;
    let mut values = hinn_cache::PooledF64::take_zeroed(n * n);
    // Slot `b`'s kernel column/row lives at `[b*n, (b+1)*n)`.
    let mut kx = hinn_cache::PooledF64::take_zeroed(KDE_BLOCK * n);
    let mut ky = hinn_cache::PooledF64::take_zeroed(KDE_BLOCK * n);
    let mut xr = [(1usize, 0usize); KDE_BLOCK];
    let mut yr = [(1usize, 0usize); KDE_BLOCK];
    let mut filled = 0usize;
    for p in points {
        if !(p[0].is_finite() && p[1].is_finite()) {
            continue; // counted once, up front, by the caller
        }
        // Index range of grid points within the truncated support.
        let (x_lo, x_hi) = support_range(p[0], bw.hx, spec.x0, spec.dx, n);
        let (y_lo, y_hi) = support_range(p[1], bw.hy, spec.y0, spec.dy, n);
        if x_lo > x_hi || y_lo > y_hi {
            continue;
        }
        let b = filled;
        fill_kernel_column(
            isa,
            &mut kx[b * n..(b + 1) * n],
            x_lo,
            x_hi,
            spec.x0,
            spec.dx,
            p[0],
            bw.hx,
        );
        fill_kernel_column(
            isa,
            &mut ky[b * n..(b + 1) * n],
            y_lo,
            y_hi,
            spec.y0,
            spec.dy,
            p[1],
            bw.hy,
        );
        xr[b] = (x_lo, x_hi);
        yr[b] = (y_lo, y_hi);
        filled += 1;
        if filled == KDE_BLOCK {
            flush_block(isa, &mut values, n, &kx, &ky, &xr, &yr, filled);
            clear_columns(&mut kx, n, &xr, filled);
            clear_columns(&mut ky, n, &yr, filled);
            filled = 0;
        }
    }
    if filled > 0 {
        flush_block(isa, &mut values, n, &kx, &ky, &xr, &yr, filled);
    }
    values
}

/// Apply the outer-product contributions of `filled` buffered points.
///
/// A full block whose eight supports overlap tightly walks each grid row
/// in the union y-support once, fusing all eight columns via
/// [`Isa::axpy8`] — one load/store of the grid row serves eight points.
/// When the supports are scattered (points from far-apart clusters landing
/// in the same block), the union rectangle can dwarf the individual
/// supports and the fused pass would spend most of its lanes adding the
/// `+0.0` padding; those blocks — and partial (tail) blocks — instead take
/// per-point [`Isa::axpy`] passes over each point's own support.
/// Both schedules deposit bit-identical contributions (the padding adds
/// are exact no-ops on the non-negative accumulator), so the choice is
/// purely a throughput heuristic and never shows up in the output.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the block's scratch columns and their ranges
fn flush_block<I: Isa>(
    isa: I,
    values: &mut [f64],
    n: usize,
    kx: &[f64],
    ky: &[f64],
    xr: &[(usize, usize); KDE_BLOCK],
    yr: &[(usize, usize); KDE_BLOCK],
    filled: usize,
) {
    let fused = filled == KDE_BLOCK && {
        let ux_lo = xr.iter().map(|r| r.0).min().unwrap();
        let ux_hi = xr.iter().map(|r| r.1).max().unwrap();
        let uy_lo = yr.iter().map(|r| r.0).min().unwrap();
        let uy_hi = yr.iter().map(|r| r.1).max().unwrap();
        let union_cells = (ux_hi - ux_lo + 1) * (uy_hi - uy_lo + 1);
        let own_cells: usize = xr
            .iter()
            .zip(yr)
            .map(|(&(xl, xh), &(yl, yh))| (xh - xl + 1) * (yh - yl + 1))
            .sum();
        // Fuse only while the union pass does at most ~2x the essential
        // cell updates; past that the padding lanes outweigh the saved
        // grid traffic and the per-point passes win.
        union_cells * KDE_BLOCK <= 2 * own_cells
    };
    if fused {
        let ux_lo = xr.iter().map(|r| r.0).min().unwrap();
        let ux_hi = xr.iter().map(|r| r.1).max().unwrap();
        let uy_lo = yr.iter().map(|r| r.0).min().unwrap();
        let uy_hi = yr.iter().map(|r| r.1).max().unwrap();
        let xs: [&[f64]; KDE_BLOCK] =
            std::array::from_fn(|b| &kx[b * n + ux_lo..b * n + ux_hi + 1]);
        for iy in uy_lo..=uy_hi {
            let cs: [f64; KDE_BLOCK] = std::array::from_fn(|b| ky[b * n + iy]);
            isa.axpy8(&cs, &xs, &mut values[iy * n + ux_lo..iy * n + ux_hi + 1]);
        }
    } else {
        for b in 0..filled {
            let (x_lo, x_hi) = xr[b];
            let (y_lo, y_hi) = yr[b];
            let col = &kx[b * n + x_lo..b * n + x_hi + 1];
            for iy in y_lo..=y_hi {
                isa.axpy(
                    ky[b * n + iy],
                    col,
                    &mut values[iy * n + x_lo..iy * n + x_hi + 1],
                );
            }
        }
    }
}

/// Re-zero exactly the written support ranges so the next block again sees
/// all-zero scratch (the `+0.0`-padding invariant).
#[inline(always)]
fn clear_columns(
    scratch: &mut [f64],
    n: usize,
    ranges: &[(usize, usize); KDE_BLOCK],
    filled: usize,
) {
    for (b, &(lo, hi)) in ranges.iter().enumerate().take(filled) {
        scratch[b * n + lo..b * n + hi + 1].fill(0.0);
    }
}

/// Inclusive index range `[lo, hi]` of grid coordinates within the truncated
/// kernel support around `center`; may be empty (`lo > hi`).
///
/// A non-finite `center` has no meaningful support and yields the empty
/// range. (NaN used to sail through the comparisons below — both bounds
/// compare false — and come out as the non-empty range `[0, 0]`, so one
/// NaN coordinate deposited a NaN kernel column into the grid corner and
/// poisoned every downstream consumer of the estimate.)
#[inline(always)]
pub(crate) fn support_range(
    center: f64,
    h: f64,
    origin: f64,
    step: f64,
    n: usize,
) -> (usize, usize) {
    if !center.is_finite() {
        return (1, 0);
    }
    let lo_f = ((center - TRUNC_SIGMAS * h - origin) / step).ceil();
    let hi_f = ((center + TRUNC_SIGMAS * h - origin) / step).floor();
    // A support entirely off either side of the grid contributes nothing.
    // (An earlier version clamped `lo` onto the last grid index, so a
    // point beyond the grid's right edge deposited a spurious kernel
    // column on the border — invisible only when the kernel underflowed.)
    if hi_f < 0.0 || lo_f > (n - 1) as f64 {
        return (1, 0);
    }
    let lo = lo_f.max(0.0) as usize;
    let hi = (hi_f as usize).min(n - 1);
    (lo, hi)
}

/// Exact KDE value at one arbitrary location (no truncation).
pub fn density_at(points: &[[f64; 2]], bw: Bandwidth2D, x: f64, y: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let s: f64 = points
        .iter()
        .map(|p| gaussian_kernel(x - p[0], bw.hx) * gaussian_kernel(y - p[1], bw.hy))
        .sum();
    s / points.len() as f64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bw(h: f64) -> Bandwidth2D {
        Bandwidth2D { hx: h, hy: h }
    }

    #[test]
    fn grid_matches_pointwise_evaluation() {
        let pts = vec![[0.0, 0.0], [1.0, 0.5], [-0.5, 0.25], [0.2, -0.8]];
        let spec = GridSpec::covering(&pts, &[], 0.3, 11);
        let g = estimate_grid(&pts, bw(0.4), spec);
        for iy in 0..spec.n {
            for ix in 0..spec.n {
                let [x, y] = spec.point(ix, iy);
                let exact = density_at(&pts, bw(0.4), x, y);
                assert!(
                    (g.at(ix, iy) - exact).abs() < 1e-9,
                    "grid mismatch at ({ix},{iy}): {} vs {exact}",
                    g.at(ix, iy)
                );
            }
        }
    }

    #[test]
    fn density_peaks_near_data() {
        let pts = vec![[0.0, 0.0]; 10];
        let b = bw(0.3);
        assert!(density_at(&pts, b, 0.0, 0.0) > density_at(&pts, b, 1.0, 1.0));
    }

    #[test]
    fn empty_points_zero_density() {
        let spec = GridSpec {
            x0: 0.0,
            y0: 0.0,
            dx: 1.0,
            dy: 1.0,
            n: 3,
        };
        let g = estimate_grid(&[], bw(1.0), spec);
        assert!(g.values().iter().all(|&v| v == 0.0));
        assert_eq!(density_at(&[], bw(1.0), 0.0, 0.0), 0.0);
    }

    #[test]
    fn grid_integral_close_to_one() {
        // Cluster well inside a generous grid: mass should be ≈ 1.
        let pts: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let t = i as f64 / 40.0 * std::f64::consts::TAU;
                [0.3 * t.cos(), 0.3 * t.sin()]
            })
            .collect();
        let b = Bandwidth2D::silverman(&pts);
        let spec = GridSpec::covering(&pts, &[], 3.0, 101);
        let g = estimate_grid(&pts, b, spec);
        let integral = g.integral();
        assert!(
            (integral - 1.0).abs() < 0.02,
            "density should integrate to ~1, got {integral}"
        );
    }

    #[test]
    fn truncation_is_visually_lossless() {
        let pts = vec![[0.0, 0.0], [3.0, 3.0]];
        let spec = GridSpec::covering(&pts, &[], 0.2, 21);
        let g = estimate_grid(&pts, bw(0.5), spec);
        let mut max_err: f64 = 0.0;
        for iy in 0..spec.n {
            for ix in 0..spec.n {
                let [x, y] = spec.point(ix, iy);
                max_err = max_err.max((g.at(ix, iy) - density_at(&pts, bw(0.5), x, y)).abs());
            }
        }
        assert!(max_err < 1e-8, "truncation error {max_err}");
    }

    #[test]
    fn far_away_point_contributes_nothing() {
        let spec = GridSpec {
            x0: 0.0,
            y0: 0.0,
            dx: 0.1,
            dy: 0.1,
            n: 11,
        };
        let g = estimate_grid(&[[1000.0, 1000.0]], bw(0.5), spec);
        assert!(g.max() < 1e-12);
    }

    #[test]
    fn point_just_beyond_the_grid_contributes_exactly_nothing() {
        // Regression: a point whose truncated support lies entirely beyond
        // the grid's right (or top) edge used to deposit a spurious kernel
        // column on the border grid line, because the support's low index
        // was clamped onto the grid instead of skipping the point. The
        // old `far_away_point_contributes_nothing` test missed it only
        // because at 1000 units the kernel underflows; at ~7 bandwidths
        // the spurious contribution would be ≈ 1e-10 — visible.
        let spec = GridSpec {
            x0: 0.0,
            y0: 0.0,
            dx: 0.1,
            dy: 0.1,
            n: 11,
        };
        for p in [
            [7.5, 0.5],  // right of the grid
            [0.5, 7.5],  // above the grid
            [-7.0, 0.5], // left of the grid
            [0.5, -7.0], // below the grid
            [7.5, 7.5],  // beyond the corner
        ] {
            let g = estimate_grid(&[p], bw(1.0), spec);
            assert_eq!(
                g.max(),
                0.0,
                "off-grid point {p:?} must contribute exactly nothing"
            );
        }
        // A point whose support straddles the border still contributes.
        let g = estimate_grid(&[[1.2, 0.5]], bw(1.0), spec);
        assert!(g.max() > 0.0);
    }

    /// The pre-SIMD spec loop: one point at a time, scalar
    /// `gaussian_kernel` per cell, scalar row accumulation, one partial
    /// grid per fixed chunk of points merged in chunk order.
    fn reference_grid(points: &[[f64; 2]], bw: Bandwidth2D, spec: GridSpec) -> Vec<f64> {
        let n = spec.n;
        let mut values = vec![0.0; n * n];
        let finite = points.len() - count_nonfinite(points);
        for chunk in points.chunks(hinn_par::CHUNK) {
            for (v, c) in values.iter_mut().zip(reference_chunk(chunk, bw, spec)) {
                *v += c;
            }
        }
        let inv_n = 1.0 / finite as f64;
        for v in &mut values {
            *v *= inv_n;
        }
        values
    }

    fn reference_chunk(points: &[[f64; 2]], bw: Bandwidth2D, spec: GridSpec) -> Vec<f64> {
        let n = spec.n;
        let mut values = vec![0.0; n * n];
        for p in points {
            if !(p[0].is_finite() && p[1].is_finite()) {
                continue;
            }
            let (x_lo, x_hi) = support_range(p[0], bw.hx, spec.x0, spec.dx, n);
            let (y_lo, y_hi) = support_range(p[1], bw.hy, spec.y0, spec.dy, n);
            if x_lo > x_hi || y_lo > y_hi {
                continue;
            }
            let mut kx = vec![0.0; n];
            for (ix, k) in kx.iter_mut().enumerate().take(x_hi + 1).skip(x_lo) {
                let gx = spec.x0 + ix as f64 * spec.dx;
                *k = gaussian_kernel(gx - p[0], bw.hx);
            }
            for iy in y_lo..=y_hi {
                let gy = spec.y0 + iy as f64 * spec.dy;
                let kyv = gaussian_kernel(gy - p[1], bw.hy);
                let row = &mut values[iy * n..(iy + 1) * n];
                for ix in x_lo..=x_hi {
                    row[ix] += kx[ix] * kyv;
                }
            }
        }
        values
    }

    #[test]
    fn blocked_simd_grid_is_bit_identical_to_the_scalar_spec_loop() {
        // Deliberately not a multiple of the 8-point block: exercises the
        // partial-tail flush path too. Mix of overlapping and disjoint
        // supports so the union-range padding actually pads.
        let pts: Vec<[f64; 2]> = (0..53)
            .map(|i| {
                let a = i as f64 * 0.7;
                let c = if i % 3 == 0 { 4.0 } else { 0.0 };
                [c + a.sin(), c + (a * 1.3).cos()]
            })
            .collect();
        let spec = GridSpec::covering(&pts, &[], 0.3, 33);
        for h in [0.05, 0.4, 2.0] {
            let g = estimate_grid(&pts, bw(h), spec);
            let want = reference_grid(&pts, bw(h), spec);
            for (i, (a, b)) in g.values().iter().zip(&want).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "h={h}, cell {i}: {a} vs {b} — SIMD path must be bit-identical"
                );
            }
        }
    }

    /// `n` points in a few Gaussian-ish blobs (sums of uniforms), spread
    /// over about `[0, 10]²`.
    pub(crate) fn blobs(n: usize) -> Vec<[f64; 2]> {
        let mut state = 0x5851_F42D_4C95_7F2Du64;
        let mut unif = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let centers = [[2.0, 3.0], [7.5, 6.0], [4.0, 8.0]];
        (0..n)
            .map(|i| {
                let c = centers[i % centers.len()];
                let dx: f64 = (0..4).map(|_| unif() - 0.5).sum();
                let dy: f64 = (0..4).map(|_| unif() - 0.5).sum();
                [c[0] + dx, c[1] + dy]
            })
            .collect()
    }

    #[test]
    fn every_backend_reproduces_the_scalar_spec_at_session_and_wide_shapes() {
        // The session's shape: an 80 × 80 grid with supports about 5 cells
        // wide (12h ≈ 5 steps), over more than two 1 024-point chunks;
        // then a 256 × 256 grid with the wide Silverman support.
        let pts = blobs(2_500);
        let session = GridSpec::covering(&pts, &[], 0.3, 80);
        let narrow = Bandwidth2D {
            hx: 5.0 * session.dx / 12.0,
            hy: 5.0 * session.dy / 12.0,
        };
        let wide = GridSpec::covering(&pts, &[], 0.3, 256);
        for (spec, bw) in [(session, narrow), (wide, Bandwidth2D::silverman(&pts))] {
            let want = reference_grid(&pts, bw, spec);
            for b in Backend::available() {
                for t in [1usize, 3] {
                    let g = estimate_grid_on(b, Parallelism::fixed(t), &pts, bw, spec);
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
    fn nan_point_is_skipped_not_smeared_across_the_grid() {
        // Regression: `support_range` let a NaN center through as the
        // range [0, 0], so one NaN coordinate deposited a NaN kernel
        // column into the grid corner. The contract now: non-finite
        // points are skipped, everything else lands exactly as if the
        // poisoned points were never in the set.
        let clean = vec![[0.0, 0.0], [1.0, 0.5], [-0.5, 0.25], [0.2, -0.8]];
        let spec = GridSpec::covering(&clean, &[], 0.3, 11);
        let want = estimate_grid(&clean, bw(0.4), spec);
        for poison in [
            [f64::NAN, 0.3],
            [0.3, f64::NAN],
            [f64::NAN, f64::NAN],
            [f64::INFINITY, 0.3],
            [0.3, f64::NEG_INFINITY],
        ] {
            let mut pts = clean.clone();
            pts.insert(2, poison);
            let g = estimate_grid(&pts, bw(0.4), spec);
            assert!(
                g.values().iter().all(|v| v.is_finite()),
                "poison {poison:?} must not reach the grid"
            );
            for (i, (a, b)) in g.values().iter().zip(want.values()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "poison {poison:?}, cell {i}: grid must equal the finite subset's"
                );
            }
        }
        // All points poisoned: a well-defined all-zero grid, not NaN/NaN.
        let g = estimate_grid(&[[f64::NAN, f64::NAN]], bw(0.4), spec);
        assert!(g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn two_separated_clusters_two_peaks() {
        let mut pts = Vec::new();
        for i in 0..30 {
            let o = (i % 5) as f64 * 0.02;
            pts.push([0.0 + o, 0.0 + o]);
            pts.push([5.0 + o, 5.0 + o]);
        }
        let spec = GridSpec::covering(&pts, &[], 0.2, 41);
        let g = estimate_grid(&pts, bw(0.3), spec);
        let near_a = g.interpolate(0.05, 0.05);
        let near_b = g.interpolate(5.05, 5.05);
        let mid = g.interpolate(2.5, 2.5);
        assert!(near_a > 10.0 * mid && near_b > 10.0 * mid);
    }
}
