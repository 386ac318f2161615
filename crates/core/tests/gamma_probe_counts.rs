//! The γ cache sees the same probes from the batched columnar search as
//! from the row-layout reference that probed one direction at a time.
//!
//! The columnar search peeks the cache to find the directions that will
//! miss, scores them in one batch, then replays the real probes in
//! candidate order. This test holds that replay to the reference's
//! `cache.hit`, `cache.miss` and `cache.evict` counts under capacities
//! small enough to evict inside a single candidate pool. It is the only
//! test in this binary: the recorder is process-wide, so a second test
//! running alongside would leak its counters into these.

mod reference;

use hinn_cache::{CachePolicy, Fingerprint, LruCache};
use hinn_core::cache::ProjectionCacheCtx;
use hinn_core::projection::try_find_query_centered_projection_cols;
use hinn_core::{ProjectionMode, SessionCache};
use hinn_linalg::{Parallelism, Subspace};
use hinn_obs::SessionRecorder;
use reference::RowCaches;
use std::sync::Arc;

fn planted(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut s = 0x9E3779B97F4A7C15u64;
    let mut unif = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows = (0..n)
        .map(|k| {
            let mut p: Vec<f64> = (0..d).map(|_| unif() * 100.0).collect();
            if k.is_multiple_of(4) {
                for c in p.iter_mut().take(3) {
                    *c = 50.0 + (unif() - 0.5) * 3.0;
                }
            }
            p
        })
        .collect();
    (rows, vec![50.0; d])
}

/// `(hit, miss, evict)` counted while `run` executes.
fn counts(run: impl FnOnce()) -> (u64, u64, u64) {
    let rec = Arc::new(SessionRecorder::new());
    let report = {
        let _g = hinn_obs::install(rec.clone());
        run();
        rec.report()
    };
    (
        report.counter("cache.hit"),
        report.counter("cache.miss"),
        report.counter("cache.evict"),
    )
}

#[test]
fn batched_gamma_probes_count_like_one_direction_at_a_time() {
    let d = 12;
    let (rows, query) = planted(1500, d);
    let cols: Vec<Vec<f64>> = (0..d)
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect();
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let oblique = Subspace::from_vectors(
        d,
        &(0..8)
            .map(|i| (0..d).map(|j| ((i * 5 + j * 3) % 7) as f64 - 3.0).collect())
            .collect::<Vec<_>>(),
    );
    let searches = [
        (Subspace::full(d), 40, ProjectionMode::Arbitrary),
        (Subspace::full(d), 40, ProjectionMode::Arbitrary),
        (oblique.clone(), 25, ProjectionMode::AxisParallel),
        (Subspace::full(d), 60, ProjectionMode::AxisParallel),
        (oblique, 25, ProjectionMode::Arbitrary),
    ];
    let alive_fp = Fingerprint(0x5EED);
    let par = Parallelism::serial();
    for capacity in [1usize, 2, 5, 13, 512] {
        let policy = CachePolicy::with_uniform_capacity(capacity);
        let row_coords = LruCache::new(policy.coords_capacity);
        let row_gamma = LruCache::new(policy.gamma_capacity);
        let want = counts(|| {
            let caches = RowCaches {
                alive_fp,
                coords: &row_coords,
                gamma: &row_gamma,
            };
            for (current, support, mode) in &searches {
                reference::find(par, &rows, &query, current, *support, *mode, Some(&caches))
                    .expect("reference search");
            }
        });
        let session = SessionCache::new(policy);
        let got = counts(|| {
            let ctx = ProjectionCacheCtx {
                alive_fp,
                cache: &session,
            };
            for (current, support, mode) in &searches {
                try_find_query_centered_projection_cols(
                    par,
                    &col_refs,
                    &query,
                    current,
                    *support,
                    *mode,
                    Some(&ctx),
                )
                .expect("columnar search");
            }
        });
        assert_eq!(got, want, "(hit, miss, evict) at capacity {capacity}");
        // Capacity 1 never hits (each pool's probes evict one another);
        // every other capacity must exercise hits, misses and, below the
        // default, evictions.
        assert!(want.1 > 0, "capacity {capacity} must miss");
        assert!(capacity == 1 || want.0 > 0, "capacity {capacity} must hit");
        assert!(
            capacity == 512 || want.2 > 0,
            "capacity {capacity} must evict"
        );
    }
}
