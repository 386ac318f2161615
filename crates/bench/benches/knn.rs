//! Criterion benchmarks for the automated baselines: exact k-NN scans under
//! the different Minkowski metrics and the projected-NN method of [15].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hinn_baselines::{
    distinctiveness_knn, knn_indices, knn_indices_with, projected_knn, Metric, Parallelism,
    ProjectedNnConfig, VaFile,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn data(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(11);
    let pts = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    let q = (0..d).map(|_| rng.gen_range(0.0..100.0)).collect();
    (pts, q)
}

fn bench_knn_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_scan/N");
    for n in [1000usize, 5000, 20000] {
        let (pts, q) = data(n, 20);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| knn_indices(black_box(&pts), black_box(&q), 25, Metric::L2))
        });
    }
    group.finish();
}

/// Serial vs parallel distance scan at N = 100k (well past
/// `hinn_par::SERIAL_CUTOFF`): identical answers, wall-clock only.
fn bench_knn_parallel(c: &mut Criterion) {
    let (pts, q) = data(100_000, 20);
    let mut group = c.benchmark_group("knn_scan/serial_vs_parallel_100k");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            knn_indices_with(
                Parallelism::serial(),
                black_box(&pts),
                black_box(&q),
                25,
                Metric::L2,
            )
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            knn_indices_with(
                Parallelism::available(),
                black_box(&pts),
                black_box(&q),
                25,
                Metric::L2,
            )
        })
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let (pts, q) = data(5000, 20);
    let mut group = c.benchmark_group("knn_scan/metric");
    for (metric, label) in [
        (Metric::L1, "L1"),
        (Metric::L2, "L2"),
        (Metric::LInf, "Linf"),
        (Metric::Lp(0.5), "L0.5_fractional"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| knn_indices(black_box(&pts), black_box(&q), 25, metric))
        });
    }
    group.finish();
}

fn bench_automated_baselines(c: &mut Criterion) {
    let (pts, q) = data(5000, 20);
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.bench_function("projected_nn_15", |b| {
        b.iter(|| {
            projected_knn(
                black_box(&pts),
                black_box(&q),
                25,
                &ProjectedNnConfig::default(),
            )
        })
    });
    group.bench_function("distinctiveness_nn_19", |b| {
        b.iter(|| distinctiveness_knn(black_box(&pts), black_box(&q), 25, 50, 16, Metric::L2))
    });
    group.finish();
}

fn bench_vafile(c: &mut Criterion) {
    // Clustered data (the regime where the filter prunes): scan vs VA-file.
    let mut rng = StdRng::seed_from_u64(3);
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for _ in 0..20 {
        let center: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..100.0)).collect();
        for _ in 0..1000 {
            pts.push(
                center
                    .iter()
                    .map(|c| c + rng.gen_range(-2.0..2.0))
                    .collect(),
            );
        }
    }
    let q: Vec<f64> = pts[500].clone();
    let mut group = c.benchmark_group("vafile_vs_scan_20k_clustered");
    group.sample_size(20);
    group.bench_function("linear_scan", |b| {
        b.iter(|| knn_indices(black_box(&pts), black_box(&q), 25, Metric::L2))
    });
    let va = VaFile::build(pts.len(), |i| &pts[i], 6);
    group.bench_function("vafile_b6", |b| b.iter(|| va.knn(black_box(&q), 25)));
    group.finish();
}

/// Serial vs parallel VA-file phase-1 filter at N = 60k clustered points.
fn bench_vafile_parallel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for _ in 0..60 {
        let center: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..100.0)).collect();
        for _ in 0..1000 {
            pts.push(
                center
                    .iter()
                    .map(|c| c + rng.gen_range(-2.0..2.0))
                    .collect(),
            );
        }
    }
    let q: Vec<f64> = pts[500].clone();
    let va = VaFile::build(pts.len(), |i| &pts[i], 6);
    let mut group = c.benchmark_group("vafile_knn/serial_vs_parallel_60k");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| va.knn_with(Parallelism::serial(), black_box(&q), 25))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| va.knn_with(Parallelism::available(), black_box(&q), 25))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_knn_scaling, bench_knn_parallel, bench_metrics, bench_automated_baselines,
        bench_vafile, bench_vafile_parallel
);
criterion_main!(benches);
