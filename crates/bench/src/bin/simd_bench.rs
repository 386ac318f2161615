//! **SIMD KDE kernels vs the frozen scalar reference.**
//!
//! The KDE grid accumulation (`hinn_kde::estimate_grid`), which every
//! session view runs, is measured against a byte-frozen copy of the code
//! it replaced — not against a re-run of the new code with SIMD disabled,
//! so the baseline cannot silently inherit future optimizations. The
//! frozen per-point scalar loop is chunked exactly like the library, so
//! the float schedule matches; the library runs each 1 024-point chunk as
//! one backend dispatch. The outputs are asserted **bit-identical** first
//! — the speedup must come for free, not from a numerics change. Two
//! shapes: `kde_session` is the one every session view runs (10 000
//! points, an 80 × 80 grid, about 5 cells of kernel support per axis),
//! `kde` a wide-support 256 × 256 grid.
//!
//! ```sh
//! cargo run --release -p hinn-bench --bin simd_bench            # full
//! cargo run --release -p hinn-bench --bin simd_bench -- --smoke # CI
//! ```
//!
//! Output: `BENCH_simd.json` (override with `--out <path>`), stamped with
//! the git rev, `nproc`, the backend and `HINN_THREADS`. In full mode the
//! binary exits nonzero unless the wide-support KDE speedup is ≥ 2×.

use hinn_bench::banner;
use hinn_kde::{gaussian_kernel, Bandwidth2D, GridSpec};
use std::time::Instant;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_simd.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => panic!("unknown flag {other:?} (known: --smoke, --out)"),
        }
    }
    args
}

/// xorshift64* — the harness-wide seeded generator.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Seeded 2-D Gaussian mixture (Box–Muller): `index_bench`'s generator
/// at `d = 2`, the same draws in the same order.
fn gaussian_mixture(n: usize, n_clusters: usize, sigma: f64, seed: u64) -> Vec<[f64; 2]> {
    let mut next = xorshift(seed);
    let mut unif = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let centers: Vec<[f64; 2]> = (0..n_clusters)
        .map(|_| [unif() * 100.0, unif() * 100.0])
        .collect();
    (0..n)
        .map(|i| {
            centers[i % n_clusters].map(|c| {
                let u1 = 1.0 - unif();
                let u2 = unif();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                c + sigma * z
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Frozen pre-SIMD reference: the KDE grid accumulation exactly as it
// stood before this change (per-point scalar kernel columns, scalar row
// accumulation, the library's fixed-chunk merge order). Kept verbatim so
// the bit-identity assertion pins the refactor against real history.
// ---------------------------------------------------------------------

const TRUNC_SIGMAS: f64 = 6.0;

fn frozen_support_range(center: f64, h: f64, origin: f64, step: f64, n: usize) -> (usize, usize) {
    let lo_f = ((center - TRUNC_SIGMAS * h - origin) / step).ceil();
    let hi_f = ((center + TRUNC_SIGMAS * h - origin) / step).floor();
    if hi_f < 0.0 || lo_f > (n - 1) as f64 {
        return (1, 0);
    }
    let lo = lo_f.max(0.0) as usize;
    let hi = (hi_f as usize).min(n - 1);
    (lo, hi)
}

#[allow(clippy::needless_range_loop)] // frozen pre-SIMD code, kept verbatim
fn frozen_accumulate_chunk(points: &[[f64; 2]], bw: Bandwidth2D, spec: GridSpec) -> Vec<f64> {
    let n = spec.n;
    let mut values = vec![0.0; n * n];
    let mut kx = vec![0.0; n];
    let mut ky = vec![0.0; n];
    for p in points {
        let (x_lo, x_hi) = frozen_support_range(p[0], bw.hx, spec.x0, spec.dx, n);
        let (y_lo, y_hi) = frozen_support_range(p[1], bw.hy, spec.y0, spec.dy, n);
        if x_lo > x_hi || y_lo > y_hi {
            continue;
        }
        for ix in x_lo..=x_hi {
            let gx = spec.x0 + ix as f64 * spec.dx;
            kx[ix] = gaussian_kernel(gx - p[0], bw.hx);
        }
        for iy in y_lo..=y_hi {
            let gy = spec.y0 + iy as f64 * spec.dy;
            ky[iy] = gaussian_kernel(gy - p[1], bw.hy);
        }
        for iy in y_lo..=y_hi {
            let row = &mut values[iy * n..(iy + 1) * n];
            let kyv = ky[iy];
            for ix in x_lo..=x_hi {
                row[ix] += kx[ix] * kyv;
            }
        }
    }
    values
}

fn frozen_estimate_grid(points: &[[f64; 2]], bw: Bandwidth2D, spec: GridSpec) -> Vec<f64> {
    let n = spec.n;
    let mut acc = vec![0.0; n * n];
    for chunk in points.chunks(hinn_par::CHUNK) {
        let part = frozen_accumulate_chunk(chunk, bw, spec);
        for (a, b) in acc.iter_mut().zip(&part) {
            *a += b;
        }
    }
    let inv_n = 1.0 / points.len() as f64;
    for v in &mut acc {
        *v *= inv_n;
    }
    acc
}

/// Best-of-`reps` wall time of `f`, in milliseconds, returning the last
/// result for verification.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// The commit this binary was built from, read from the checkout's
/// `.git` (`"unknown"` outside a git work tree).
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let rev = read(git.join("HEAD")).and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(name) => read(git.join(name))
                .map(|r| r.trim().to_string())
                .or_else(|| {
                    read(git.join("packed-refs"))?
                        .lines()
                        .find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string()))
                }),
        }
    });
    rev.unwrap_or_else(|| "unknown".to_string())
}

/// One KDE shape: the frozen scalar reference and the library on the
/// same points, asserted bit-identical; returns `(scalar_ms, simd_ms)`.
fn kde_row(
    label: &str,
    pts: &[[f64; 2]],
    bw: Bandwidth2D,
    spec: GridSpec,
    reps: usize,
) -> (f64, f64) {
    let (scalar_ms, want) = time_best(reps, || frozen_estimate_grid(pts, bw, spec));
    let (simd_ms, got) = time_best(reps, || hinn_kde::estimate_grid(pts, bw, spec));
    for (i, (a, b)) in got.values().iter().zip(&want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label} cell {i}: SIMD estimate_grid must be bit-identical to the frozen \
             scalar reference ({a} vs {b})"
        );
    }
    println!(
        "{label}: scalar {scalar_ms:.2} ms, simd {simd_ms:.2} ms → {:.2}× (bit-identical)",
        scalar_ms / simd_ms
    );
    (scalar_ms, simd_ms)
}

fn main() {
    let args = parse_args();
    banner("SIMD kernels vs frozen scalar reference");
    println!("active backend: {}", hinn_linalg::active_backend().name());

    let (kde_n, grid_n, session_n, reps) = if args.smoke {
        (2_000, 64, 2_000, 2)
    } else {
        (20_000, 256, 10_000, 5)
    };

    // The session's shape: an 80 × 80 grid and a bandwidth whose 12h
    // truncated support spans about 5 grid steps per axis.
    const SESSION_GRID: usize = 80;
    const SESSION_SUPPORT_CELLS: f64 = 5.0;
    let session_pts: Vec<[f64; 2]> = gaussian_mixture(session_n, 8, 4.0, 0x51D_0003);
    let session_spec = GridSpec::covering(&session_pts, &[], 0.3, SESSION_GRID);
    let session_bw = Bandwidth2D {
        hx: SESSION_SUPPORT_CELLS * session_spec.dx / 12.0,
        hy: SESSION_SUPPORT_CELLS * session_spec.dy / 12.0,
    };
    println!(
        "kde_session: n={session_n} points, {SESSION_GRID}x{SESSION_GRID} grid, \
         ~{SESSION_SUPPORT_CELLS} support cells per axis"
    );
    let (session_scalar_ms, session_simd_ms) = kde_row(
        "estimate_grid (session shape)",
        &session_pts,
        session_bw,
        session_spec,
        reps,
    );

    let pts2: Vec<[f64; 2]> = gaussian_mixture(kde_n, 8, 4.0, 0x51D_0001);
    let bw = Bandwidth2D::silverman(&pts2);
    let spec = GridSpec::covering(&pts2, &[], 0.3, grid_n);
    println!(
        "kde: n={kde_n} points, {grid_n}x{grid_n} grid, hx={:.3} hy={:.3}",
        bw.hx, bw.hy
    );
    let (scalar_kde_ms, simd_kde_ms) = kde_row("estimate_grid (wide)", &pts2, bw, spec, reps);
    let kde_speedup = scalar_kde_ms / simd_kde_ms;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"git_rev\": \"{}\",\n  \"nproc\": {},\n  \"backend\": \"{}\",\n  \"hinn_threads\": \"{}\",\n",
        if args.smoke { "smoke" } else { "full" },
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        hinn_linalg::active_backend().name(),
        std::env::var(hinn_par::THREADS_ENV).unwrap_or_default()
    ));
    json.push_str(&format!(
        "  \"kde_session\": {{\"n_points\": {session_n}, \"grid\": {SESSION_GRID}, \"support_cells\": {SESSION_SUPPORT_CELLS}, \"scalar_ms\": {}, \"simd_ms\": {}, \"speedup\": {}, \"bit_identical\": true}},\n",
        json_f64(session_scalar_ms),
        json_f64(session_simd_ms),
        json_f64(session_scalar_ms / session_simd_ms)
    ));
    json.push_str(&format!(
        "  \"kde\": {{\"n_points\": {kde_n}, \"grid\": {grid_n}, \"scalar_ms\": {}, \"simd_ms\": {}, \"speedup\": {}, \"bit_identical\": true}}\n",
        json_f64(scalar_kde_ms),
        json_f64(simd_kde_ms),
        json_f64(kde_speedup)
    ));
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("wrote {}", args.out);

    // Smoke mode (CI) only proves the paths run and stay bit-identical;
    // the speedup bar is enforced in full mode.
    if !args.smoke {
        assert!(
            kde_speedup >= 2.0,
            "acceptance bar: estimate_grid SIMD speedup must be ≥2× (got {kde_speedup:.2}×)"
        );
        println!("acceptance bar met: kde {kde_speedup:.2}× ≥ 2×");
    }
}
