//! **Batch serving smoke run** — repeated query rounds through one
//! [`hinn_core::BatchRunner`], the workload of the CI telemetry gate.
//!
//! A long-lived runner answers the same query batch against a dataset
//! that does not change between rounds. Sessions share no state, so every
//! round does the same work and the counters of a run do not depend on
//! how the runner's workers interleave. The binary prints the per-round
//! wall clock and can export the run's telemetry and span trace.
//!
//! ```sh
//! cargo run --release -p hinn-bench --bin serving_bench            # full
//! cargo run --release -p hinn-bench --bin serving_bench -- --smoke # CI
//! ```

use hinn_bench::banner;
use hinn_core::{BatchRunner, ProjectionMode, SearchConfig};
use hinn_data::projected::{generate_projected_clusters, ProjectedClusterSpec};
use hinn_obs::SessionRecorder;
use hinn_user::{HeuristicUser, UserModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    smoke: bool,
    rounds: usize,
    /// Write the full telemetry report (counters, histograms with
    /// percentiles) as JSON — the input format of `obs_diff`.
    telemetry: Option<String>,
    /// Record timed span trees and write a Chrome/Perfetto trace.
    trace: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        rounds: 5,
        telemetry: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--rounds" => {
                args.rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a positive integer");
            }
            "--telemetry" => args.telemetry = Some(it.next().expect("--telemetry needs a path")),
            "--trace" => args.trace = Some(it.next().expect("--trace needs a path")),
            other => {
                panic!("unknown flag {other:?} (known: --smoke, --rounds, --telemetry, --trace)")
            }
        }
    }
    assert!(args.rounds >= 1, "need at least one round");
    args
}

fn main() {
    let args = parse_args();
    banner("Batch serving: repeated query rounds through one BatchRunner");

    // Clustered dataset sized for the mode; the queries are cluster
    // members, re-submitted identically every round.
    let (n, d, n_queries) = if args.smoke {
        (600, 6, 3)
    } else {
        (4000, 12, 8)
    };
    let spec = ProjectedClusterSpec {
        n_points: n,
        dim: d,
        n_clusters: 4,
        cluster_dim: (d / 3).max(2),
        ..ProjectedClusterSpec::case1()
    };
    let mut rng = StdRng::seed_from_u64(17);
    let data = generate_projected_clusters(&spec, &mut rng);
    let queries: Vec<Vec<f64>> = (0..n_queries)
        .map(|q| data.points[data.cluster_members(q % 4)[q]].clone())
        .collect();

    let config = SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        ..SearchConfig::default()
            .with_support(20)
            .with_mode(ProjectionMode::AxisParallel)
    };

    // One recorder around the whole run so the counters cover every
    // round. The span-tree clock only runs when a trace was asked for.
    let recorder = Arc::new(if args.trace.is_some() {
        SessionRecorder::with_trace()
    } else {
        SessionRecorder::new()
    });
    let _guard = hinn_obs::install(recorder.clone());
    let runner = BatchRunner::new(
        &hinn_core::DatasetHandle::new(&data.points).expect("dataset"),
        config,
    );
    let make_user = || Box::new(HeuristicUser::default()) as Box<dyn UserModel>;

    for round in 0..args.rounds {
        let start = Instant::now();
        let reports = runner.run(&queries, make_user);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert!(
            reports.iter().all(|r| !r.is_failed()),
            "round {round}: a query failed"
        );
        println!(
            "round {round:>2}: {ms:>9.1} ms for {} queries",
            queries.len()
        );
    }
    let report = recorder.report();

    if let Some(hist) = report.histograms.get("batch.query_ms") {
        println!(
            "batch.query_ms: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms over {} queries",
            hist.quantile(0.50),
            hist.quantile(0.90),
            hist.quantile(0.99),
            hist.count
        );
    }
    if let Some(path) = &args.telemetry {
        if hinn_obs::export::write_export(path, &report.to_json(), "telemetry JSON") {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &args.trace {
        if hinn_obs::export::write_export(path, &report.to_chrome_trace(), "Perfetto trace") {
            println!("wrote {path}");
        }
        eprint!("{}", report.flame_text());
    }
}
