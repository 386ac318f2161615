//! Explicitly vectorized kernels for the workspace's raw hot loops, with a
//! scalar fallback proven **bit-identical** (the same proof obligation
//! `hinn-par` discharges for serial-vs-parallel).
//!
//! # Why these kernels can be SIMD *and* bit-identical
//!
//! IEEE-754 addition, subtraction, multiplication, division, and square
//! root are *exactly rounded*: for given operands the result is the same
//! on every conforming implementation, scalar or vector lane. Two rules
//! follow:
//!
//! 1. **Elementwise maps vectorize freely.** `y[i] += c·x[i]`, `v = u/h`,
//!    `d.sqrt()` — each output depends on one input element through a
//!    fixed op sequence, so an 8-wide lane computes the very bits the
//!    scalar loop would. (Rust/LLVM never contracts `a*b + c` into an FMA
//!    without explicit fast-math, so the op sequence is preserved.)
//! 2. **Reductions must keep their association.** `Σ dᵢ²` folded
//!    left-to-right is a *different* f64 than the same terms folded
//!    pairwise. The spec kernels ([`crate::vector::dot`],
//!    [`crate::vector::dist_sq`]) fold sequentially, so a row-at-a-time
//!    reduction cannot be widened. The columnar kernels sidestep this:
//!    they vectorize **across points** (one point per lane) while each
//!    point's own accumulation still runs in ascending-dimension order —
//!    the association of the scalar spec, at 8 points per instruction.
//!    The direction-variance kernels vectorize **across directions** (one
//!    direction per lane, eight per group): each direction's sum still
//!    adds its points in ascending order.
//!
//! Everything here is f64 end to end and bit-identical across backends.
//!
//! # Backends and dispatch
//!
//! Three backends: [`Backend::Scalar`] (plain loops at the crate's base
//! ISA), [`Backend::Avx2`] and [`Backend::Avx512`] (the same loop bodies
//! compiled under `#[target_feature]`, plus hand-written intrinsics where
//! autovectorization needs help — all restricted to exactly-rounded ops).
//! The active backend is chosen once per process: `HINN_SIMD`
//! (`scalar | avx2 | avx512 | auto`) overrides, otherwise the best
//! runtime-detected feature wins. Because every backend is bit-identical
//! on the f64 kernels, the choice is a pure performance knob — the
//! equivalence suite (`crates/linalg/tests/simd_equivalence.rs`) and the
//! golden-session CI matrix hold it to that.
//!
//! **One dispatch per chunk.** A dispatch is a backend match and a call
//! the compiler cannot inline across, so a loop that dispatches once per
//! point row on a slice of a few cells spends more on dispatch than on
//! arithmetic. Kernels therefore take a whole fixed chunk of points per
//! call. A caller whose per-chunk loop mixes several elementwise ops (the
//! KDE grid: Gaussian prep, scalar `exp`, the normalising divide and the
//! outer-product rows) writes it once as a [`Kernel`], generic over an
//! [`Isa`]; [`run_kernel`] compiles and runs that body inside one
//! `#[target_feature]` function per backend, where the [`Isa`] methods
//! inline at that instruction set.

use std::sync::OnceLock;

/// Environment variable selecting the kernel backend:
/// `scalar`, `avx2`, `avx512`, or `auto` (the default — best detected).
pub const SIMD_ENV: &str = "HINN_SIMD";

/// A vectorization backend. All f64 kernels are bit-identical across
/// backends; see the module docs for the proof sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Plain loops at the build's base instruction set.
    Scalar,
    /// 4-wide f64 via AVX2 `#[target_feature]` + intrinsics.
    Avx2,
    /// 8-wide f64 via AVX-512F `#[target_feature]` + intrinsics.
    Avx512,
}

impl Backend {
    /// Human-readable backend name (appears in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Every backend usable on this machine, `Scalar` first.
    pub fn available() -> Vec<Backend> {
        [Backend::Scalar, Backend::Avx2, Backend::Avx512]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    /// Whether this machine can run the backend (a cached feature check).
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The process-wide active backend: `HINN_SIMD` if set (unknown values
/// and unavailable requests fall back to detection), else the best
/// runtime-detected feature. Resolved once and cached.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let avail = Backend::available();
        let best = *avail.last().unwrap_or(&Backend::Scalar);
        match std::env::var(SIMD_ENV).as_deref() {
            Ok("scalar") => Backend::Scalar,
            Ok("avx2") if avail.contains(&Backend::Avx2) => Backend::Avx2,
            Ok("avx512") if avail.contains(&Backend::Avx512) => Backend::Avx512,
            _ => best,
        }
    })
}

/// Dispatch `$body(args…)` to the loop compiled for backend `$b`.
///
/// Safety of the `unsafe` arms: the backend's feature check passed just
/// before (a `Backend` is a plain value any caller can build).
macro_rules! dispatch {
    ($b:expr, $body:ident ( $($arg:expr),* $(,)? )) => {
        match check_available($b) {
            Backend::Scalar => scalar::$body($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2::$body($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { avx512::$body($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::$body($($arg),*),
        }
    };
}

// ---------------------------------------------------------------------------
// Per-chunk loops written by callers
// ---------------------------------------------------------------------------

/// The elementwise kernels at one backend's instruction set. A value of an
/// `Isa` type is handed to a [`Kernel`] only by [`run_kernel`], inside the
/// function compiled for that backend, so calls made through it inline at
/// that instruction set. Every method is bit-identical across backends.
pub trait Isa: Copy {
    /// Gaussian-kernel preparation for one grid axis: for each `k`,
    /// `out[k] = −0.5·z²` with `z = ((origin + (i0+k)·step) − center) / h`
    /// — exactly the argument `hinn_kde::gaussian_kernel` feeds to `exp`.
    /// Every op (int→f64 convert, `·step`, `+origin`, `−center`, `/h`, the
    /// two multiplies) is exactly rounded, so the vector lanes reproduce
    /// the scalar bits; the `exp` itself stays a scalar libm call at the
    /// call site (transcendental — no bit-identical wide form).
    fn gaussian_prep(self, out: &mut [f64], i0: usize, origin: f64, step: f64, center: f64, h: f64);

    /// In-place elementwise division `xs[i] ← xs[i] / c`. Division, not a
    /// reciprocal multiply: the two round differently.
    fn div_inplace(self, xs: &mut [f64], c: f64);

    /// In-place `y ← y + c·x`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn axpy(self, c: f64, x: &[f64], y: &mut [f64]);

    /// Fused 8-way axpy: `y[i] += x₀[i]·c₀; y[i] += x₁[i]·c₁; …` in
    /// ascending source order per element — bit-identical to eight
    /// sequential [`Isa::axpy`] passes (each step is the same exactly
    /// rounded mul-then-add; fusing changes only the memory traffic: one
    /// pass over `y` instead of eight).
    ///
    /// # Panics
    /// Panics if any `xs[b].len() != y.len()`.
    fn axpy8(self, cs: &[f64; 8], xs: &[&[f64]; 8], y: &mut [f64]);
}

/// A caller's per-chunk loop, compiled once per backend by [`run_kernel`].
/// Implementations mark [`Kernel::run`] (and every helper it calls)
/// `#[inline(always)]`, so the whole body inlines into the backend's
/// `#[target_feature]` function.
pub trait Kernel {
    /// What the loop returns.
    type Output;
    /// The loop body, with the elementwise ops of `isa`.
    fn run<I: Isa>(self, isa: I) -> Self::Output;
}

/// The backend `b`, once the machine is known to run it.
///
/// # Panics
/// Panics if this machine lacks `b`'s instruction set.
#[inline]
fn check_available(b: Backend) -> Backend {
    assert!(
        b.is_available(),
        "SIMD backend {} is not available on this machine",
        b.name()
    );
    b
}

/// Run `kernel` compiled for backend `b`: one dispatch for the whole body.
///
/// # Panics
/// Panics if this machine lacks `b`'s instruction set.
pub fn run_kernel<K: Kernel>(b: Backend, kernel: K) -> K::Output {
    match check_available(b) {
        Backend::Scalar => kernel.run(scalar::Isa),
        // SAFETY (both arms): `check_available` just confirmed the
        // backend's feature.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::run(kernel) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::run(kernel) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernel.run(scalar::Isa),
    }
}

// ---------------------------------------------------------------------------
// Public dispatched kernels
// ---------------------------------------------------------------------------

/// Columnar squared-Euclidean scan: `out[i] = ‖pᵢ − q‖²` where point `i`
/// is row `i` of the column set (`cols[j][i]` = coordinate `j` of point
/// `i`). Bit-identical to calling [`crate::vector::dist_sq`] on each row:
/// per point the squared deltas accumulate in ascending-dimension order,
/// the association of the scalar spec — SIMD runs across *points*.
///
/// # Panics
/// Panics if `cols.len() != q.len()` or any column length ≠ `out.len()`.
pub fn dist_sq_cols(cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
    dist_sq_cols_backend(active_backend(), cols, q, out);
}

/// [`dist_sq_cols`] pinned to an explicit backend (equivalence tests).
#[doc(hidden)]
pub fn dist_sq_cols_backend(b: Backend, cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
    check_cols(cols.len(), q.len(), cols.iter().map(|c| c.len()), out.len());
    dispatch!(b, dist_sq_cols(cols, q, out))
}

/// Columnar Euclidean scan: [`dist_sq_cols`] then an exact vector square
/// root — bit-identical to [`crate::vector::dist`] per row (`sqrt` is an
/// exactly rounded unary op).
///
/// # Panics
/// Panics as [`dist_sq_cols`] does.
pub fn dist_cols(cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
    let b = active_backend();
    dist_sq_cols_backend(b, cols, q, out);
    sqrt_inplace_backend(b, out);
}

/// Columnar dot-product scan: `out[i] = pᵢ · dir` where point `i` is row
/// `i` of the column set. Bit-identical to [`crate::vector::dot`] per row:
/// each point folds its products in ascending-dimension order from
/// `−0.0`, the start `Iterator::sum` uses for f64 (a `+0.0` start would
/// turn the sum of all-`−0.0` products into `+0.0`). This is the
/// projection kernel: one call computes one subspace coordinate of every
/// point.
///
/// # Panics
/// Panics if `cols.len() != dir.len()` or any column length ≠ `out.len()`.
pub fn dot_cols(cols: &[&[f64]], dir: &[f64], out: &mut [f64]) {
    dot_cols_backend(active_backend(), cols, dir, out);
}

/// [`dot_cols`] pinned to an explicit backend (equivalence tests).
#[doc(hidden)]
pub fn dot_cols_backend(b: Backend, cols: &[&[f64]], dir: &[f64], out: &mut [f64]) {
    check_cols(
        cols.len(),
        dir.len(),
        cols.iter().map(|c| c.len()),
        out.len(),
    );
    dispatch!(b, dot_cols(cols, dir, out))
}

/// In-place elementwise square root (exactly rounded ⇒ bit-identical to
/// the scalar loop at any width).
pub fn sqrt_inplace(xs: &mut [f64]) {
    sqrt_inplace_backend(active_backend(), xs);
}

/// [`sqrt_inplace`] pinned to an explicit backend.
#[doc(hidden)]
pub fn sqrt_inplace_backend(b: Backend, xs: &mut [f64]) {
    dispatch!(b, sqrt_inplace(xs))
}

/// In-place `y ← y + c·x` — the vectorized body behind
/// [`crate::vector::axpy`]. Elementwise, hence bit-identical at any
/// width.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy_inplace(c: f64, x: &[f64], y: &mut [f64]) {
    axpy_inplace_backend(active_backend(), c, x, y);
}

/// [`axpy_inplace`] pinned to an explicit backend.
#[doc(hidden)]
pub fn axpy_inplace_backend(b: Backend, c: f64, x: &[f64], y: &mut [f64]) {
    struct Axpy<'a>(f64, &'a [f64], &'a mut [f64]);
    impl Kernel for Axpy<'_> {
        type Output = ();
        #[inline(always)]
        fn run<I: Isa>(self, isa: I) {
            isa.axpy(self.0, self.1, self.2);
        }
    }
    run_kernel(b, Axpy(c, x, y));
}

/// [`Isa::axpy8`] on an explicit backend (equivalence tests).
#[doc(hidden)]
pub fn axpy8_backend(b: Backend, cs: &[f64; 8], xs: &[&[f64]; 8], y: &mut [f64]) {
    struct Axpy8<'a>(&'a [f64; 8], &'a [&'a [f64]; 8], &'a mut [f64]);
    impl Kernel for Axpy8<'_> {
        type Output = ();
        #[inline(always)]
        fn run<I: Isa>(self, isa: I) {
            isa.axpy8(self.0, self.1, self.2);
        }
    }
    run_kernel(b, Axpy8(cs, xs, y));
}

/// [`Isa::gaussian_prep`] on an explicit backend (equivalence tests).
#[doc(hidden)]
pub fn gaussian_prep_backend(
    b: Backend,
    out: &mut [f64],
    i0: usize,
    origin: f64,
    step: f64,
    center: f64,
    h: f64,
) {
    struct Prep<'a>(&'a mut [f64], usize, [f64; 4]);
    impl Kernel for Prep<'_> {
        type Output = ();
        #[inline(always)]
        fn run<I: Isa>(self, isa: I) {
            let [origin, step, center, h] = self.2;
            isa.gaussian_prep(self.0, self.1, origin, step, center, h);
        }
    }
    run_kernel(b, Prep(out, i0, [origin, step, center, h]));
}

/// [`Isa::div_inplace`] on an explicit backend (equivalence tests).
#[doc(hidden)]
pub fn div_inplace_backend(b: Backend, xs: &mut [f64], c: f64) {
    struct Div<'a>(&'a mut [f64], f64);
    impl Kernel for Div<'_> {
        type Output = ();
        #[inline(always)]
        fn run<I: Isa>(self, isa: I) {
            isa.div_inplace(self.0, self.1);
        }
    }
    run_kernel(b, Div(xs, c));
}

/// Directions per lane group of the direction-variance kernels
/// ([`project_and_sum`], [`centered_square_sums`]).
pub(crate) const DIR_LANES: usize = 8;

/// One lane group: a value per direction of the group.
pub(crate) type Lanes = [f64; DIR_LANES];

/// Pass 1 of the batched direction variance over one chunk of points
/// (`cols[j]` = coordinate `j` of the chunk's points). Directions come in
/// groups of [`DIR_LANES`], transposed: `dirs[g·d + j][l]` is component
/// `j` of direction `l` of group `g`. `sums[g][l]` receives the sum of
/// the chunk's projections onto that direction: each point's products
/// folded in ascending dimension order from `−0.0` (bit-identical to
/// [`dot_cols`], hence to [`crate::vector::dot`]), and the projections
/// added over ascending points from `−0.0` (the fold `Iterator::sum`
/// makes).
///
/// # Panics
/// Panics if `cols` is empty, the columns differ in length, or
/// `dirs.len()` is not `sums.len()·cols.len()`.
pub(crate) fn project_and_sum(b: Backend, cols: &[&[f64]], dirs: &[Lanes], sums: &mut [Lanes]) {
    check_lanes(cols, dirs, sums.len());
    dispatch!(b, project_and_sum(cols, dirs, sums))
}

/// Pass 2 of the batched direction variance: as [`project_and_sum`], but
/// each projection `x` onto direction `(g, l)` adds `(x − means[g][l])²`,
/// squared with one multiply.
///
/// # Panics
/// Panics as [`project_and_sum`] does, or if `means.len() != sums.len()`.
pub(crate) fn centered_square_sums(
    b: Backend,
    cols: &[&[f64]],
    dirs: &[Lanes],
    means: &[Lanes],
    sums: &mut [Lanes],
) {
    check_lanes(cols, dirs, sums.len());
    assert_eq!(means.len(), sums.len(), "centered_square_sums: group count");
    dispatch!(b, centered_square_sums(cols, dirs, means, sums))
}

/// Shape check for the direction-variance kernels.
fn check_lanes(cols: &[&[f64]], dirs: &[Lanes], groups: usize) {
    assert!(!cols.is_empty(), "direction variance: no columns");
    let len = cols[0].len();
    assert!(
        cols.iter().all(|c| c.len() == len),
        "direction variance: ragged columns"
    );
    assert_eq!(
        dirs.len(),
        groups * cols.len(),
        "direction variance: direction shape"
    );
}

/// Shared shape check for the columnar scans.
fn check_cols(n_cols: usize, q_len: usize, col_lens: impl Iterator<Item = usize>, out_len: usize) {
    assert_eq!(n_cols, q_len, "columnar scan: dimension mismatch");
    for (j, len) in col_lens.enumerate() {
        assert_eq!(len, out_len, "columnar scan: column {j} length mismatch");
    }
}

// ---------------------------------------------------------------------------
// Loop bodies — written once, compiled per backend
// ---------------------------------------------------------------------------

/// Points per register block of the columnar distance scans. The block's
/// running sums live in a fixed-size local array — a handful of vector
/// registers — so the whole dimension loop runs without a single
/// read-modify-write round trip on `out`; each block is stored exactly
/// once. (A read-modify-write formulation gets loop-distributed by LLVM
/// into one full `out` pass per dimension, which triples the memory
/// traffic and was measured slower than the plain row scan.) Blocking
/// only reorders *memory traffic*; each `out[i]` still accumulates its
/// dimensions in ascending order from `0.0`, so the result is
/// bit-identical to the per-row spec fold.
const SCAN_BLOCK: usize = 32;

/// The columnar squared-distance scan body. `#[inline(always)]` so each
/// `#[target_feature]` wrapper inlines its own copy and the compiler
/// vectorizes it at that ISA.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops keep the slices provably equal-length
fn dist_sq_cols_body(cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut k = 0;
    while k + SCAN_BLOCK <= n {
        let mut acc = [0.0f64; SCAN_BLOCK];
        for (c, &qj) in cols.iter().zip(q) {
            let c = &c[k..k + SCAN_BLOCK];
            for l in 0..SCAN_BLOCK {
                let d = c[l] - qj;
                acc[l] += d * d;
            }
        }
        out[k..k + SCAN_BLOCK].copy_from_slice(&acc);
        k += SCAN_BLOCK;
    }
    // Tail: the per-point spec fold verbatim.
    for i in k..n {
        let mut s = 0.0f64;
        for (c, &qj) in cols.iter().zip(q) {
            let d = c[i] - qj;
            s += d * d;
        }
        out[i] = s;
    }
}

/// The columnar dot-product body: register-blocked like the distance scan
/// (see [`SCAN_BLOCK`]), each point's products folded in ascending
/// dimension order from `−0.0`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops keep the slices provably equal-length
fn dot_cols_body(cols: &[&[f64]], dir: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut k = 0;
    while k + SCAN_BLOCK <= n {
        let mut acc = [-0.0f64; SCAN_BLOCK];
        for (c, &e) in cols.iter().zip(dir) {
            let c = &c[k..k + SCAN_BLOCK];
            for l in 0..SCAN_BLOCK {
                acc[l] += c[l] * e;
            }
        }
        out[k..k + SCAN_BLOCK].copy_from_slice(&acc);
        k += SCAN_BLOCK;
    }
    for i in k..n {
        let mut s = -0.0f64;
        for (c, &e) in cols.iter().zip(dir) {
            s += c[i] * e;
        }
        out[i] = s;
    }
}

/// Points projected side by side in [`fold_projections`]: each point's
/// dimension fold is one dependent chain of adds, so a few points in
/// flight keep the adder busy.
const POINT_BLOCK: usize = 4;

/// One point's projection onto one lane group: products folded in
/// ascending dimension order from `−0.0`, one direction per lane.
#[inline(always)]
fn project_point(cols: &[&[f64]], dirs: &[Lanes], i: usize) -> Lanes {
    let mut acc = [-0.0f64; DIR_LANES];
    for (c, e) in cols.iter().zip(dirs) {
        let x = c[i];
        for l in 0..DIR_LANES {
            acc[l] += x * e[l];
        }
    }
    acc
}

/// The body of both direction-variance passes: for every lane group `g`,
/// `Σᵢ term(pᵢ · dir, shift(g)[l])` over ascending points from `−0.0`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // one index walks every lane in lockstep
fn fold_projections<S, T>(cols: &[&[f64]], dirs: &[Lanes], shift: S, term: T, sums: &mut [Lanes])
where
    S: Fn(usize) -> Lanes,
    T: Fn(f64, f64) -> f64,
{
    let len = cols[0].len();
    for (g, (group, sum)) in dirs.chunks_exact(cols.len()).zip(sums).enumerate() {
        let shift = shift(g);
        let mut total = [-0.0f64; DIR_LANES];
        let mut i = 0;
        while i + POINT_BLOCK <= len {
            let mut acc = [[-0.0f64; DIR_LANES]; POINT_BLOCK];
            for (c, e) in cols.iter().zip(group) {
                let x = &c[i..i + POINT_BLOCK];
                for p in 0..POINT_BLOCK {
                    for l in 0..DIR_LANES {
                        acc[p][l] += x[p] * e[l];
                    }
                }
            }
            for a in &acc {
                for l in 0..DIR_LANES {
                    total[l] += term(a[l], shift[l]);
                }
            }
            i += POINT_BLOCK;
        }
        for i in i..len {
            let a = project_point(cols, group, i);
            for l in 0..DIR_LANES {
                total[l] += term(a[l], shift[l]);
            }
        }
        *sum = total;
    }
}

#[inline(always)]
fn project_and_sum_body(cols: &[&[f64]], dirs: &[Lanes], sums: &mut [Lanes]) {
    fold_projections(cols, dirs, |_| [0.0; DIR_LANES], |x, _| x, sums);
}

#[inline(always)]
fn centered_square_sums_body(cols: &[&[f64]], dirs: &[Lanes], means: &[Lanes], sums: &mut [Lanes]) {
    fold_projections(
        cols,
        dirs,
        |g| means[g],
        |x, mean| {
            let v = x - mean;
            v * v
        },
        sums,
    );
}

#[inline(always)]
fn sqrt_inplace_body(xs: &mut [f64]) {
    for v in xs {
        *v = v.sqrt();
    }
}

#[inline(always)]
fn axpy_body(c: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi * c;
    }
}

#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops keep the blocks provably equal-length
fn axpy8_body(cs: &[f64; 8], xs: &[&[f64]; 8], y: &mut [f64]) {
    for x in xs {
        assert_eq!(x.len(), y.len(), "axpy8: dimension mismatch");
    }
    // Register-blocked like the distance scan (see [`SCAN_BLOCK`]): each
    // block of `y` is loaded once, takes all eight contributions in slot
    // order while resident in registers, and is stored once. Per element
    // the adds happen in ascending slot order, so the result is
    // bit-identical to eight sequential [`axpy_body`] passes.
    let n = y.len();
    let mut k = 0;
    while k + SCAN_BLOCK <= n {
        let mut acc = [0.0f64; SCAN_BLOCK];
        acc.copy_from_slice(&y[k..k + SCAN_BLOCK]);
        for (x, &c) in xs.iter().zip(cs) {
            let x = &x[k..k + SCAN_BLOCK];
            for l in 0..SCAN_BLOCK {
                acc[l] += x[l] * c;
            }
        }
        y[k..k + SCAN_BLOCK].copy_from_slice(&acc);
        k += SCAN_BLOCK;
    }
    for i in k..n {
        let mut v = y[i];
        for (x, &c) in xs.iter().zip(cs) {
            v += x[i] * c;
        }
        y[i] = v;
    }
}

/// One element of the Gaussian prep — the single source of truth both the
/// scalar loop and the vector tails call.
#[inline(always)]
fn gaussian_prep_one(i: usize, origin: f64, step: f64, center: f64, h: f64) -> f64 {
    let g = origin + i as f64 * step;
    let u = g - center;
    let z = u / h;
    -0.5 * z * z
}

#[inline(always)]
fn gaussian_prep_body(out: &mut [f64], i0: usize, origin: f64, step: f64, center: f64, h: f64) {
    for (k, v) in out.iter_mut().enumerate() {
        *v = gaussian_prep_one(i0 + k, origin, step, center, h);
    }
}

#[inline(always)]
fn div_inplace_body(xs: &mut [f64], c: f64) {
    for v in xs {
        *v /= c;
    }
}

/// The scalar backend: the bodies at the crate's base ISA.
mod scalar {
    use super::Lanes;

    pub(super) fn dist_sq_cols(cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
        super::dist_sq_cols_body(cols, q, out);
    }
    pub(super) fn dot_cols(cols: &[&[f64]], dir: &[f64], out: &mut [f64]) {
        super::dot_cols_body(cols, dir, out);
    }
    pub(super) fn sqrt_inplace(xs: &mut [f64]) {
        super::sqrt_inplace_body(xs);
    }
    pub(super) fn project_and_sum(cols: &[&[f64]], dirs: &[Lanes], sums: &mut [Lanes]) {
        super::project_and_sum_body(cols, dirs, sums);
    }
    pub(super) fn centered_square_sums(
        cols: &[&[f64]],
        dirs: &[Lanes],
        means: &[Lanes],
        sums: &mut [Lanes],
    ) {
        super::centered_square_sums_body(cols, dirs, means, sums);
    }

    /// The elementwise ops at the base ISA.
    #[derive(Clone, Copy)]
    pub(super) struct Isa;

    impl super::Isa for Isa {
        #[inline(always)]
        fn gaussian_prep(
            self,
            out: &mut [f64],
            i0: usize,
            origin: f64,
            step: f64,
            center: f64,
            h: f64,
        ) {
            super::gaussian_prep_body(out, i0, origin, step, center, h);
        }
        #[inline(always)]
        fn div_inplace(self, xs: &mut [f64], c: f64) {
            super::div_inplace_body(xs, c);
        }
        #[inline(always)]
        fn axpy(self, c: f64, x: &[f64], y: &mut [f64]) {
            super::axpy_body(c, x, y);
        }
        #[inline(always)]
        fn axpy8(self, cs: &[f64; 8], xs: &[&[f64]; 8], y: &mut [f64]) {
            super::axpy8_body(cs, xs, y);
        }
    }
}

/// Stamp a `#[target_feature]` backend module: the shared bodies at a
/// wider ISA, plus the [`Isa`] token and [`run_kernel`] entry of that
/// backend. `$prep` is the module's hand-written Gaussian prep. Every
/// function is `unsafe` to call; only the dispatchers call them, after
/// feature detection.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_backend {
    ($feature:literal) => {
        use super::Lanes;

        #[target_feature(enable = $feature)]
        pub(super) unsafe fn dist_sq_cols(cols: &[&[f64]], q: &[f64], out: &mut [f64]) {
            super::dist_sq_cols_body(cols, q, out);
        }
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn dot_cols(cols: &[&[f64]], dir: &[f64], out: &mut [f64]) {
            super::dot_cols_body(cols, dir, out);
        }
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn sqrt_inplace(xs: &mut [f64]) {
            super::sqrt_inplace_body(xs);
        }
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn project_and_sum(cols: &[&[f64]], dirs: &[Lanes], sums: &mut [Lanes]) {
            super::project_and_sum_body(cols, dirs, sums);
        }
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn centered_square_sums(
            cols: &[&[f64]],
            dirs: &[Lanes],
            means: &[Lanes],
            sums: &mut [Lanes],
        ) {
            super::centered_square_sums_body(cols, dirs, means, sums);
        }

        /// The elementwise ops at this backend's ISA. Built only by
        /// [`run`], so holding one proves the feature is present.
        #[derive(Clone, Copy)]
        pub(super) struct Isa(());

        /// # Safety
        /// Caller must have verified the feature is present.
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn run<K: super::Kernel>(kernel: K) -> K::Output {
            kernel.run(Isa(()))
        }

        impl super::Isa for Isa {
            #[inline(always)]
            fn gaussian_prep(
                self,
                out: &mut [f64],
                i0: usize,
                origin: f64,
                step: f64,
                center: f64,
                h: f64,
            ) {
                // SAFETY: an `Isa` exists only inside `run`, whose caller
                // verified the feature.
                unsafe { gaussian_prep(out, i0, origin, step, center, h) }
            }
            #[inline(always)]
            fn div_inplace(self, xs: &mut [f64], c: f64) {
                super::div_inplace_body(xs, c);
            }
            #[inline(always)]
            fn axpy(self, c: f64, x: &[f64], y: &mut [f64]) {
                super::axpy_body(c, x, y);
            }
            #[inline(always)]
            fn axpy8(self, cs: &[f64; 8], xs: &[&[f64]; 8], y: &mut [f64]) {
                super::axpy8_body(cs, xs, y);
            }
        }
    };
}

/// AVX2 backend: the shared bodies plus a hand-written 4-wide Gaussian
/// prep (the divide chain is the part autovectorization reliably misses
/// because of the integer→f64 index feed).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    x86_backend!("avx2");

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn gaussian_prep(
        out: &mut [f64],
        i0: usize,
        origin: f64,
        step: f64,
        center: f64,
        h: f64,
    ) {
        use std::arch::x86_64::*;
        let n = out.len();
        // Lane k holds the exact integer i0+offset+k as f64; adding 4.0
        // keeps it exactly integral (grid indices ≪ 2⁵³), so every lane
        // computes precisely the scalar expression for its index.
        let mut idx = _mm256_setr_pd(i0 as f64, (i0 + 1) as f64, (i0 + 2) as f64, (i0 + 3) as f64);
        let (vor, vst) = (_mm256_set1_pd(origin), _mm256_set1_pd(step));
        let (vce, vh) = (_mm256_set1_pd(center), _mm256_set1_pd(h));
        let (vneg, vfour) = (_mm256_set1_pd(-0.5), _mm256_set1_pd(4.0));
        let mut k = 0;
        while k + 4 <= n {
            let g = _mm256_add_pd(vor, _mm256_mul_pd(idx, vst));
            let z = _mm256_div_pd(_mm256_sub_pd(g, vce), vh);
            let m = _mm256_mul_pd(_mm256_mul_pd(vneg, z), z);
            // SAFETY: k + 4 <= n = out.len(), so the 4-lane store is in bounds.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(k), m) };
            idx = _mm256_add_pd(idx, vfour);
            k += 4;
        }
        for (j, v) in out.iter_mut().enumerate().skip(k) {
            *v = super::gaussian_prep_one(i0 + j, origin, step, center, h);
        }
    }
}

/// AVX-512F backend: the shared bodies plus an 8-wide intrinsic Gaussian
/// prep.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    x86_backend!("avx512f");

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    unsafe fn gaussian_prep(
        out: &mut [f64],
        i0: usize,
        origin: f64,
        step: f64,
        center: f64,
        h: f64,
    ) {
        use std::arch::x86_64::*;
        let n = out.len();
        let mut idx = _mm512_setr_pd(
            i0 as f64,
            (i0 + 1) as f64,
            (i0 + 2) as f64,
            (i0 + 3) as f64,
            (i0 + 4) as f64,
            (i0 + 5) as f64,
            (i0 + 6) as f64,
            (i0 + 7) as f64,
        );
        let (vor, vst) = (_mm512_set1_pd(origin), _mm512_set1_pd(step));
        let (vce, vh) = (_mm512_set1_pd(center), _mm512_set1_pd(h));
        let (vneg, veight) = (_mm512_set1_pd(-0.5), _mm512_set1_pd(8.0));
        let mut k = 0;
        while k + 8 <= n {
            let g = _mm512_add_pd(vor, _mm512_mul_pd(idx, vst));
            let z = _mm512_div_pd(_mm512_sub_pd(g, vce), vh);
            let m = _mm512_mul_pd(_mm512_mul_pd(vneg, z), z);
            // SAFETY: k + 8 <= n = out.len(), so the 8-lane store is in bounds.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr().add(k), m) };
            idx = _mm512_add_pd(idx, veight);
            k += 8;
        }
        for (j, v) in out.iter_mut().enumerate().skip(k) {
            *v = super::gaussian_prep_one(i0 + j, origin, step, center, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed | 1;
        let mut unif = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| unif() * 200.0 - 100.0).collect())
            .collect()
    }

    fn columns(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let d = rows[0].len();
        (0..d)
            .map(|j| rows.iter().map(|r| r[j]).collect())
            .collect()
    }

    #[test]
    fn every_backend_matches_the_rowwise_spec_bitwise() {
        let rows = cloud(700, 7, 0xC0FFEE);
        let cols = columns(&rows);
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let q = &rows[13];
        let spec: Vec<f64> = rows.iter().map(|r| crate::vector::dist_sq(r, q)).collect();
        for b in Backend::available() {
            let mut out = vec![0.0; rows.len()];
            dist_sq_cols_backend(b, &col_refs, q, &mut out);
            for (i, (got, want)) in out.iter().zip(&spec).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "backend {} point {i}: {got} vs {want}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn dot_cols_matches_rowwise_dot_bitwise() {
        let rows = cloud(300, 5, 0xD07);
        let cols = columns(&rows);
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let dir = [0.3, -0.0, 1.5, -2.25, 0.0];
        for b in Backend::available() {
            let mut out = vec![0.0; rows.len()];
            dot_cols_backend(b, &col_refs, &dir, &mut out);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    crate::vector::dot(r, &dir).to_bits(),
                    "backend {} point {i}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn dot_cols_keeps_the_negative_zero_of_an_all_negative_zero_sum() {
        let c0 = [0.0f64; 40];
        let c1 = [-0.0f64; 40];
        let cols: Vec<&[f64]> = vec![&c0, &c1];
        for b in Backend::available() {
            let mut out = vec![1.0; 40];
            dot_cols_backend(b, &cols, &[-1.0, 2.0], &mut out);
            assert!(out.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
        }
    }

    #[test]
    fn dist_cols_matches_rowwise_dist_bitwise() {
        let rows = cloud(300, 5, 0xD157);
        let cols = columns(&rows);
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let q = &rows[7];
        let mut out = vec![0.0; rows.len()];
        dist_cols(&col_refs, q, &mut out);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                out[i].to_bits(),
                crate::vector::dist(r, q).to_bits(),
                "point {i}"
            );
        }
    }

    #[test]
    fn axpy8_equals_eight_sequential_axpys() {
        let rows = cloud(8, 257, 0xAB5);
        let xs: [&[f64]; 8] = std::array::from_fn(|b| rows[b].as_slice());
        let cs: [f64; 8] = std::array::from_fn(|b| (b as f64 - 3.5) * 0.37);
        let mut reference = vec![0.25; 257];
        for b in 0..8 {
            for (yi, xi) in reference.iter_mut().zip(xs[b]) {
                *yi += xi * cs[b];
            }
        }
        for b in Backend::available() {
            let mut y = vec![0.25; 257];
            axpy8_backend(b, &cs, &xs, &mut y);
            assert!(
                y.iter()
                    .zip(&reference)
                    .all(|(a, r)| a.to_bits() == r.to_bits()),
                "backend {}",
                b.name()
            );
        }
    }

    #[test]
    fn gaussian_prep_matches_scalar_expression() {
        let (origin, step, center, h) = (-3.75, 0.031_25, 1.212_5, 0.73);
        for b in Backend::available() {
            for len in [0usize, 1, 3, 7, 8, 9, 63, 200] {
                let mut out = vec![0.0; len];
                gaussian_prep_backend(b, &mut out, 5, origin, step, center, h);
                for (k, v) in out.iter().enumerate() {
                    let want = gaussian_prep_one(5 + k, origin, step, center, h);
                    assert_eq!(v.to_bits(), want.to_bits(), "backend {} k={k}", b.name());
                }
            }
        }
    }

    #[test]
    fn adversarial_lengths_agree_across_backends() {
        for d in [0usize, 1, 3, 4, 5, 16] {
            for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 100] {
                let rows = cloud(n.max(1), d.max(1), (n as u64) << 8 | d as u64 | 1);
                let rows = &rows[..n];
                let cols: Vec<Vec<f64>> = (0..d)
                    .map(|j| rows.iter().map(|r| r[j]).collect())
                    .collect();
                let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
                let q = vec![0.5; d];
                let mut reference = vec![0.0; n];
                dist_sq_cols_backend(Backend::Scalar, &col_refs, &q, &mut reference);
                for b in Backend::available() {
                    let mut out = vec![0.0; n];
                    dist_sq_cols_backend(b, &col_refs, &q, &mut out);
                    assert!(
                        out.iter()
                            .zip(&reference)
                            .all(|(a, r)| a.to_bits() == r.to_bits()),
                        "backend {} n={n} d={d}",
                        b.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_query_panics() {
        let c0 = [1.0, 2.0];
        let cols: Vec<&[f64]> = vec![&c0];
        let mut out = [0.0, 0.0];
        dist_sq_cols(&cols, &[1.0, 2.0], &mut out);
    }

    #[test]
    fn env_override_resolves_to_a_real_backend() {
        // Whatever HINN_SIMD says, the active backend must be available.
        assert!(Backend::available().contains(&active_backend()));
    }
}
