//! **System cost** — wall-clock of the computer's side of the loop as data
//! size and dimensionality grow.
//!
//! The paper reports no performance numbers (its claims are about
//! meaningfulness), but an adopter needs to know the interaction stays
//! interactive: every view the user waits for costs one projection search
//! plus one KDE grid. This binary measures those, end to end, across `N`
//! and `d`, plus the VA-file speedup for the plain k-NN baseline.
//!
//! ```sh
//! cargo run --release -p hinn-bench --bin exp_scalability
//! ```

use hinn_baselines::{knn_indices, Metric, VaFile};
use hinn_bench::banner;
use hinn_core::{InteractiveSearch, ProjectionMode, SearchConfig};
use hinn_data::projected::{generate_projected_clusters, ProjectedClusterSpec};
use hinn_user::HeuristicUser;
use std::time::Instant;

fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

fn main() {
    banner("System cost: per-session and per-view wall clock (computer side)");
    println!(
        "{:>7} {:>5} {:>16} {:>14} {:>14}",
        "N", "d", "session (ms)", "per view (ms)", "views"
    );
    for (n, d) in [
        (1000usize, 10usize),
        (1000, 20),
        (5000, 20),
        (5000, 40),
        (20000, 20),
    ] {
        let spec = ProjectedClusterSpec {
            n_points: n,
            dim: d,
            cluster_dim: (d / 3).max(2),
            ..ProjectedClusterSpec::case1()
        };
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data = generate_projected_clusters(&spec, &mut rng);
        let query = data.points[data.cluster_members(0)[0]].clone();
        let handle = hinn_core::DatasetHandle::new(&data.points).expect("dataset");
        let config = SearchConfig {
            max_major_iterations: 1,
            min_major_iterations: 1,
            ..SearchConfig::default()
                .with_support(25)
                .with_mode(ProjectionMode::AxisParallel)
        };
        let mut views = 0;
        let ms = time(
            || {
                let mut user = HeuristicUser::default();
                let outcome = InteractiveSearch::new(config.clone())
                    .run_with(&handle, &query, &mut user, hinn_core::RunOptions::default())
                    .expect("interactive session")
                    .into_outcome();
                views = outcome.transcript.total_views();
            },
            3,
        );
        println!(
            "{n:>7} {d:>5} {ms:>16.1} {:>14.1} {views:>14}",
            ms / views.max(1) as f64
        );
    }
    println!(
        "\nshape to check: per-view latency stays well under a second — the\n\
         computer is never the bottleneck of the human-computer loop."
    );

    banner("Baseline index: linear scan vs VA-file (clustered 20-d data)");
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for n in [5000usize, 20000, 50000] {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        let clusters = 20;
        for _ in 0..clusters {
            let center: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..100.0)).collect();
            for _ in 0..n / clusters {
                pts.push(
                    center
                        .iter()
                        .map(|c| c + rng.gen_range(-2.0..2.0))
                        .collect(),
                );
            }
        }
        let q = pts[42].clone();
        let scan_ms = time(|| drop(knn_indices(&pts, &q, 25, Metric::L2)), 10);
        let va = VaFile::build(pts.len(), |i| &pts[i], 6);
        let (_, stats) = va.knn(&q, 25);
        let va_ms = time(|| drop(va.knn(&q, 25)), 10);
        println!(
            "N = {n:>6}: scan {scan_ms:>7.2} ms   va-file {va_ms:>7.2} ms   (refined {}/{} points)",
            stats.refined, stats.total
        );
    }
    println!(
        "\nshape to check: the filter lets the VA-file compute exact distances\n\
         for only ~1-2% of the points. In RAM the filter pass itself costs as\n\
         much as the scan (both are O(N·d)); the index's win materializes when\n\
         the exact vectors live on disk, as in [27]. Either way it returns the\n\
         *same* answer as the scan — a faster index does not make the answer\n\
         more meaningful (§1), which is the paper's opening argument."
    );
}
