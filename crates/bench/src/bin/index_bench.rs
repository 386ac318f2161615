//! **Candidate generation: HNSW vs exhaustive linear scan.**
//!
//! Builds the deterministic [`hinn_index::Hnsw`] graph over a seeded
//! Gaussian-mixture dataset, then answers the same queries twice — once
//! with a serial exhaustive scan (the exact baseline) and once through
//! the graph — and reports per-query latency, the speedup, and recall@10
//! of the approximate lists against the exact ones.
//!
//! An extension row then grows graphs of N/2 and N points by 40 appends
//! of 16 rows each, as streaming epochs do: each append extends the
//! graph's row store ([`Hnsw::rows`]) and the graph adopts it. It reports
//! the milliseconds per append and the neighbor lists [`Hnsw::extended`]
//! copied.
//!
//! ```sh
//! cargo run --release -p hinn-bench --bin index_bench            # full, N=1M
//! cargo run --release -p hinn-bench --bin index_bench -- --smoke # CI, N=20k
//! ```
//!
//! Output: `BENCH_index.json` (override with `--out <path>`). In full
//! mode the binary exits nonzero unless HNSW search is at least 5× as
//! fast as the linear scan *and* mean recall@10 is at least 0.9 — the
//! PR's acceptance bar. In both modes it exits nonzero if the graph of N
//! points copies more than 1.5× the lists the graph of N/2 copies for the
//! same appends: an extension must cost O(appended rows), not O(N). The
//! copy counts are deterministic, so this gate is exact.

use hinn_bench::banner;
use hinn_index::{recall::recall_at_k, Hnsw, HnswParams};
use hinn_obs::{QuantileSketch, SessionRecorder};
use std::sync::Arc;
use std::time::Instant;

/// Appends per graph in the extension row, and rows per append (the
/// `ingest_stream` workload's Δ).
const EXTENSIONS: usize = 40;
const EXTENSION_ROWS: usize = 16;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_index.json".to_string(),
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

/// xorshift64* — the same tiny generator the integration-test fixtures
/// use, so bench datasets are reproducible without any RNG dependency.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Seeded Gaussian mixture: `n_clusters` centers in `[0, 100)^d`, points
/// scattered around them with per-axis deviation `sigma` (Box–Muller).
fn gaussian_mixture(n: usize, d: usize, n_clusters: usize, sigma: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut next = xorshift(seed);
    let mut unif = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let centers: Vec<Vec<f64>> = (0..n_clusters)
        .map(|_| (0..d).map(|_| unif() * 100.0).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % n_clusters];
            (0..d)
                .map(|j| {
                    let u1 = 1.0 - unif();
                    let u2 = unif();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    c[j] + sigma * z
                })
                .collect()
        })
        .collect()
}

use hinn_linalg::vector::dist_sq;

/// One row of the extension table.
struct Extension {
    n: usize,
    ms_per_extension: f64,
    lists_copied: u64,
}

/// Grow `graph` by `EXTENSIONS` appends of `EXTENSION_ROWS` rows from
/// `stream`, each extending the last, timing each row append plus
/// [`Hnsw::extended`] and reading the lists they copied from the
/// telemetry counters.
fn extend(graph: &Hnsw, stream: &[Vec<f64>]) -> Extension {
    let recorder = Arc::new(SessionRecorder::new());
    let mut total_ms = 0.0;
    {
        let _telemetry = hinn_obs::install(recorder.clone());
        let mut grown = graph.clone();
        for batch in stream.chunks(EXTENSION_ROWS).take(EXTENSIONS) {
            let t0 = Instant::now();
            grown = grown.extended(&grown.rows().appended(batch));
            total_ms += t0.elapsed().as_secs_f64() * 1000.0;
        }
    }
    let report = recorder.report();
    Extension {
        n: graph.len(),
        ms_per_extension: total_ms / EXTENSIONS as f64,
        lists_copied: report.counter("index.lists_copied"),
    }
}

/// Exact serial kNN over the whole dataset — the baseline both sides of
/// the comparison are judged against. Scores each point once, then
/// selects the `k` closest in the total `(dist, id)` order.
fn linear_top_k(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (dist_sq(p, query), i))
        .collect();
    let by = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let k = k.min(scored.len());
    if k == 0 {
        return Vec::new();
    }
    scored.select_nth_unstable_by(k - 1, by);
    scored.truncate(k);
    scored.sort_unstable_by(by);
    scored.into_iter().map(|(_, i)| i).collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    banner("Candidate generation: deterministic HNSW vs exhaustive linear scan");

    const K: usize = 10;
    let (n, d, n_queries) = if args.smoke {
        (20_000, 16, 20)
    } else {
        (1_000_000, 16, 50)
    };
    println!("dataset: gaussian mixture, n={n} d={d}, {n_queries} queries, k={K}");
    let t0 = Instant::now();
    // The mixture draws its rows in order, so the first `n` are the same
    // dataset with or without the appended stream behind them.
    let mut points = gaussian_mixture(n + EXTENSIONS * EXTENSION_ROWS, d, 16, 6.0, 0xBE2C_0001);
    let stream = points.split_off(n);
    println!("generated in {:.1} s", t0.elapsed().as_secs_f64());

    // Query points spread across the dataset (and therefore the clusters).
    let stride = (n / n_queries).max(1);
    let queries: Vec<&Vec<f64>> = (0..n_queries).map(|q| &points[q * stride]).collect();

    let params = HnswParams::default().with_ef_search(120);
    let t0 = Instant::now();
    let graph = Hnsw::build(&points, params);
    let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
    println!(
        "hnsw build: {:.1} s (m={}, ef_construction={})",
        build_ms / 1000.0,
        params.m,
        params.ef_construction
    );

    // Exact pass: serial exhaustive scan, timed per query and fed through
    // the quantile sketch so tail latency is reported, not just the mean.
    let mut linear_sketch = QuantileSketch::default();
    let mut linear_total = 0.0;
    let exact: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let ids = linear_top_k(&points, q, K);
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            linear_sketch.record(ms);
            linear_total += ms;
            ids
        })
        .collect();
    let linear_ms = linear_total / n_queries as f64;

    // Approximate pass: same queries through the graph.
    let mut hnsw_sketch = QuantileSketch::default();
    let mut hnsw_total = 0.0;
    let approx: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let ids = graph.knn(q, K);
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            hnsw_sketch.record(ms);
            hnsw_total += ms;
            ids
        })
        .collect();
    let hnsw_ms = hnsw_total / n_queries as f64;

    let speedup = linear_ms / hnsw_ms;
    let recall = exact
        .iter()
        .zip(&approx)
        .map(|(e, a)| recall_at_k(e, a, K))
        .sum::<f64>()
        / n_queries as f64;
    println!(
        "linear {linear_ms:.3} ms/query, hnsw {hnsw_ms:.3} ms/query → {speedup:.1}× speedup; \
         recall@{K} {recall:.3}"
    );
    let pct = |s: &QuantileSketch| {
        (
            s.p50().unwrap_or(f64::NAN),
            s.p90().unwrap_or(f64::NAN),
            s.p99().unwrap_or(f64::NAN),
        )
    };
    let (lp50, lp90, lp99) = pct(&linear_sketch);
    let (hp50, hp90, hp99) = pct(&hnsw_sketch);
    println!("linear per-query: p50 {lp50:.3} p90 {lp90:.3} p99 {lp99:.3} ms");
    println!("hnsw   per-query: p50 {hp50:.3} p90 {hp90:.3} p99 {hp99:.3} ms");

    let half = Hnsw::build(&points[..n / 2], params);
    let extensions = [extend(&half, &stream), extend(&graph, &stream)];
    for e in &extensions {
        println!(
            "extend n={}: {:.3} ms per {EXTENSION_ROWS}-row append, {} lists copied over \
             {EXTENSIONS} appends",
            e.n, e.ms_per_extension, e.lists_copied
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if args.smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"n_points\": {n},\n  \"dim\": {d},\n"));
    json.push_str(&format!("  \"n_queries\": {n_queries},\n  \"k\": {K},\n"));
    json.push_str(&format!(
        "  \"params\": {{\"m\": {}, \"max_m0\": {}, \"ef_construction\": {}, \"ef_search\": {}, \"seed\": {}}},\n",
        params.m, params.max_m0, params.ef_construction, params.ef_search, params.seed
    ));
    json.push_str(&format!("  \"build_ms\": {},\n", json_f64(build_ms)));
    json.push_str(&format!(
        "  \"linear_ms_per_query\": {},\n",
        json_f64(linear_ms)
    ));
    json.push_str(&format!(
        "  \"linear_ms_quantiles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
        json_f64(lp50),
        json_f64(lp90),
        json_f64(lp99)
    ));
    json.push_str(&format!(
        "  \"hnsw_ms_per_query\": {},\n",
        json_f64(hnsw_ms)
    ));
    json.push_str(&format!(
        "  \"hnsw_ms_quantiles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
        json_f64(hp50),
        json_f64(hp90),
        json_f64(hp99)
    ));
    json.push_str(&format!("  \"speedup\": {},\n", json_f64(speedup)));
    json.push_str(&format!("  \"recall_at_k\": {},\n", json_f64(recall)));
    let rows: Vec<String> = extensions
        .iter()
        .map(|e| {
            format!(
                "{{\"n\": {}, \"ms_per_extension\": {}, \"lists_copied\": {}}}",
                e.n,
                json_f64(e.ms_per_extension),
                e.lists_copied
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"extension\": {{\"appends\": {EXTENSIONS}, \"rows_per_append\": {EXTENSION_ROWS}, \"graphs\": [{}]}}\n",
        rows.join(", ")
    ));
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("wrote {}", args.out);

    let [small, large] = &extensions;
    assert!(
        large.lists_copied as f64 <= 1.5 * small.lists_copied as f64,
        "O(Δ) bar: extending {} points copied {} lists, extending {} copied {}",
        large.n,
        large.lists_copied,
        small.n,
        small.lists_copied
    );
    println!(
        "O(Δ) bar met: {} lists copied at n={} vs {} at n={}",
        large.lists_copied, large.n, small.lists_copied, small.n
    );

    // Smoke mode (CI) otherwise only proves the path runs end to end; the
    // speed and recall bars are enforced in full mode on the 1M-point
    // workload.
    if !args.smoke {
        assert!(
            speedup >= 5.0,
            "acceptance bar: hnsw search must be ≥5× faster than the linear \
             scan (got {speedup:.1}×)"
        );
        assert!(
            recall >= 0.9,
            "acceptance bar: recall@{K} must be ≥0.9 (got {recall:.3})"
        );
        println!("acceptance bars met: {speedup:.1}× ≥ 5×, recall {recall:.3} ≥ 0.9");
    }
}
