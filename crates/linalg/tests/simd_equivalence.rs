//! Property-based bit-identity of the SIMD kernels against the scalar
//! specification, over adversarial shapes and values.
//!
//! The contract under test (see `hinn_linalg::simd`): every f64 kernel
//! must reproduce the scalar spec functions **bit-for-bit** on every
//! backend this machine can run — not approximately, bitwise. Lengths
//! straddle the vector widths (0, 1, lane−1, lane, lane+1, and well past
//! them) so both the full-width lanes and every tail path are exercised;
//! values include subnormals, ±0.0, and mixed magnitudes, where a
//! reassociated or contracted (FMA) implementation would diverge first.

use hinn_linalg::simd::{
    axpy8_backend, axpy_inplace_backend, dist_cols, dist_sq_cols_backend, div_inplace_backend,
    dot_cols_backend, gaussian_prep_backend, sqrt_inplace_backend, Backend,
};
use hinn_linalg::stats::{variance_along, variances_along_cols_backend};
use hinn_linalg::{vector, Parallelism};
use proptest::prelude::*;

/// Lengths that straddle the 4-wide (AVX2) and 8-wide (AVX-512) lanes.
const ADVERSARIAL_LENS: [usize; 10] = [0, 1, 3, 4, 5, 7, 8, 9, 31, 100];

/// One adversarial f64: normal values of mixed magnitude, subnormals,
/// and both zeros — everything but NaN/∞ (those poison whole vectors
/// and are covered by the dedicated NaN test below).
fn adversarial_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3f64,
        -1e-8..1e-8f64,
        Just(0.0f64),
        Just(-0.0f64),
        Just(5e-324f64), // smallest positive subnormal
        Just(-5e-324f64),
        Just(1e-310f64),  // mid-range subnormal
        Just(4.9e300f64), // large: squares to ∞, overflow must agree too
    ]
}

fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(adversarial_value(), len..=len)
}

/// An adversarial length.
fn adversarial_len() -> impl Strategy<Value = usize> {
    (0..ADVERSARIAL_LENS.len()).prop_map(|i| ADVERSARIAL_LENS[i])
}

/// A columnar point block of adversarial shape: `d` columns of `n`
/// values, plus the `d`-dimensional query.
fn col_block() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    ((0..4usize), adversarial_len()).prop_flat_map(|(di, n)| {
        let d = [1, 2, 5, 16][di];
        (proptest::collection::vec(values(n), d..=d), values(d))
    })
}

/// A columnar block of signed zeros and units with a direction of the same
/// kind: many points' products are all `−0.0`, whose sum must stay `−0.0`
/// as the spec's `Iterator::sum` fold (which starts from `−0.0`) keeps it.
fn signed_zero_block() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let signed = || prop_oneof![Just(0.0f64), Just(-0.0f64), Just(1.0f64), Just(-1.0f64)];
    ((0..4usize), adversarial_len()).prop_flat_map(move |(di, n)| {
        let d = [1, 2, 5, 16][di];
        (
            proptest::collection::vec(proptest::collection::vec(signed(), n..=n), d..=d),
            proptest::collection::vec(signed(), d..=d),
        )
    })
}

/// Point counts straddling `hinn_par::CHUNK` (1024) and its multiples.
const CHUNKED_LENS: [usize; 6] = [1, 3, 100, 1023, 1025, 2049];

/// Rows of a chunk-straddling point set plus a few directions.
#[allow(clippy::type_complexity)]
fn rows_and_dirs() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    ((0..CHUNKED_LENS.len()), (1..6usize), (1..5usize)).prop_flat_map(|(ni, d, k)| {
        let n = CHUNKED_LENS[ni];
        (
            proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, d..=d), n..=n),
            proptest::collection::vec(values(d), k..=k),
        )
    })
}

/// A vector of adversarial length, plus a same-length second operand.
fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    adversarial_len().prop_flat_map(|n| (values(n), values(n)))
}

fn backends() -> Vec<Backend> {
    Backend::available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dist_sq_cols_is_bit_identical_on_every_backend((cols, q) in col_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for b in backends() {
            let mut out = vec![0.0; n];
            dist_sq_cols_backend(b, &col_refs, &q, &mut out);
            for i in 0..n {
                let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
                let want = vector::dist_sq(&row, &q);
                prop_assert_eq!(
                    out[i].to_bits(), want.to_bits(),
                    "{:?} d={} n={} point {}: {} vs {}", b, d, n, i, out[i], want
                );
            }
        }
    }

    #[test]
    fn dot_cols_is_bit_identical_to_rowwise_dot_on_every_backend((cols, dir) in col_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for b in backends() {
            let mut out = vec![0.0; n];
            dot_cols_backend(b, &col_refs, &dir, &mut out);
            for i in 0..n {
                let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
                let want = vector::dot(&row, &dir);
                prop_assert_eq!(
                    out[i].to_bits(), want.to_bits(),
                    "{:?} d={} n={} point {}: {} vs {}", b, d, n, i, out[i], want
                );
            }
        }
    }

    #[test]
    fn dot_cols_keeps_signed_zeros_on_every_backend((cols, dir) in signed_zero_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for b in backends() {
            let mut out = vec![f64::NAN; n];
            dot_cols_backend(b, &col_refs, &dir, &mut out);
            for i in 0..n {
                let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
                prop_assert_eq!(
                    out[i].to_bits(), vector::dot(&row, &dir).to_bits(),
                    "{:?} d={} n={} point {}", b, d, n, i
                );
            }
        }
    }

    #[test]
    fn batched_variances_equal_variance_along_per_direction(
        (rows, dirs) in rows_and_dirs(),
        axis_picks in proptest::collection::vec(0..16usize, 0..4),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let d = rows[0].len();
        let cols: Vec<Vec<f64>> = (0..d).map(|j| rows.iter().map(|r| r[j]).collect()).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let dir_refs: Vec<&[f64]> = dirs.iter().map(|v| v.as_slice()).collect();
        let axes: Vec<usize> = axis_picks.iter().map(|a| a % d).collect();
        let want: Vec<f64> = dirs
            .iter()
            .map(|dir| variance_along(&rows, dir))
            .chain(axes.iter().map(|&a| {
                let mut e = vec![0.0; d];
                e[a] = 1.0;
                variance_along(&rows, &e)
            }))
            .collect();
        for b in backends() {
            let got = variances_along_cols_backend(
                b,
                Parallelism::fixed(threads),
                &col_refs,
                &dir_refs,
                &axes,
            );
            prop_assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "{:?} n={} d={} candidate {}: {} vs {}", b, rows.len(), d, k, g, w
                );
            }
        }
    }

    #[test]
    fn dist_cols_is_bit_identical_to_rowwise_dist((cols, q) in col_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut out = vec![0.0; n];
        dist_cols(&col_refs, &q, &mut out);
        for i in 0..n {
            let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
            prop_assert_eq!(out[i].to_bits(), vector::dist(&row, &q).to_bits());
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_on_every_backend(
        (x, y0) in vec_pair(),
        c in adversarial_value(),
    ) {
        let n = x.len();
        for b in backends() {
            // axpy: y += c·x against the scalar loop.
            let mut y = y0.clone();
            axpy_inplace_backend(b, c, &x, &mut y);
            for i in 0..n {
                let want = y0[i] + x[i] * c;
                prop_assert_eq!(y[i].to_bits(), want.to_bits(), "axpy {:?} i={}", b, i);
            }
            // div by a non-zero constant (the call sites divide by a
            // bandwidth normalizer that is asserted positive).
            let divisor = if c == 0.0 { 3.0 } else { c };
            let mut z = y0.clone();
            div_inplace_backend(b, &mut z, divisor);
            for i in 0..n {
                prop_assert_eq!(z[i].to_bits(), (y0[i] / divisor).to_bits(), "div {:?} i={}", b, i);
            }
            // sqrt (exactly rounded; negatives yield NaN on every path).
            let mut s = y0.clone();
            sqrt_inplace_backend(b, &mut s);
            for i in 0..n {
                prop_assert_eq!(s[i].to_bits(), y0[i].sqrt().to_bits(), "sqrt {:?} i={}", b, i);
            }
        }
    }

    #[test]
    fn axpy8_equals_eight_sequential_axpys_on_every_backend(
        (xs_flat, y0) in adversarial_len()
            .prop_flat_map(|n| (values(8 * n), values(n))),
        cs_vec in values(8),
    ) {
        let n = y0.len();
        let cs: [f64; 8] = cs_vec.try_into().unwrap();
        let xs: [&[f64]; 8] = std::array::from_fn(|b| &xs_flat[b * n..(b + 1) * n]);
        // Spec: eight scalar axpys applied in slot order.
        let mut want = y0.clone();
        for b in 0..8 {
            for i in 0..n {
                want[i] += xs[b][i] * cs[b];
            }
        }
        for b in backends() {
            let mut y = y0.clone();
            axpy8_backend(b, &cs, &xs, &mut y);
            for i in 0..n {
                prop_assert_eq!(y[i].to_bits(), want[i].to_bits(), "{:?} i={}", b, i);
            }
        }
    }

    #[test]
    fn gaussian_prep_is_bit_identical_on_every_backend(
        n in adversarial_len(),
        i0 in 0..512usize,
        origin in -100.0..100.0f64,
        step in 1e-6..10.0f64,
        center in -100.0..100.0f64,
        h in 1e-6..10.0f64,
    ) {
        for b in backends() {
            let mut out = vec![0.0; n];
            gaussian_prep_backend(b, &mut out, i0, origin, step, center, h);
            for (k, &v) in out.iter().enumerate() {
                let g = origin + (i0 + k) as f64 * step;
                let z = (g - center) / h;
                let want = -0.5 * z * z;
                prop_assert_eq!(v.to_bits(), want.to_bits(), "{:?} k={}", b, k);
            }
        }
    }

    #[test]
    fn lp_dist_poisons_on_any_nan_coordinate(
        (x0, y0) in (1..8usize).prop_flat_map(|d| (values(d), values(d))),
        nan_at in 0..8usize,
        nan_side in 0..2usize,
        pi in 0..5usize,
    ) {
        let p = [0.5, 1.0, 2.0, 3.0, f64::INFINITY][pi];
        // Clean pair first: finite inputs must give a non-NaN distance.
        let clean = vector::lp_dist(&x0, &y0, p);
        prop_assert!(!clean.is_nan(), "finite inputs p={} gave NaN", p);
        // Inject one NaN on a random side/coordinate: must poison.
        let (mut x, mut y) = (x0, y0);
        let at = nan_at % x.len();
        if nan_side == 0 { x[at] = f64::NAN } else { y[at] = f64::NAN }
        let poisoned = vector::lp_dist(&x, &y, p);
        prop_assert!(
            poisoned.is_nan(),
            "p={}: NaN at {} (side {}) must poison, got {}", p, at, nan_side, poisoned
        );
    }
}
