//! Candidate sources: seeding a session from a deterministic HNSW graph.
//!
//! By default a session ranks *every* point ([`CandidateSource::Full`]).
//! On large datasets the interactive loop only ever surfaces a few
//! hundred neighbors, so the engine can instead seed its alive set from
//! an approximate index: [`CandidateSource::hnsw`] builds (or reuses — the
//! graph belongs to the dataset epoch the session pins) a deterministic
//! HNSW graph and hands the session the query's top-`budget` candidates.
//!
//! The graph is seeded: a fixed [`HnswParams::seed`] produces the same
//! graph, the same candidate lists, and therefore byte-identical session
//! transcripts under every thread budget. Rerun this example with
//! `HINN_THREADS=1` (or 8) and nothing below changes.
//!
//! ```sh
//! cargo run --release --example index_candidates
//! ```

use hinn::data::projected::{generate_projected_clusters_detailed, ProjectedClusterSpec};
use hinn::index::Hnsw;
use hinn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 4000-point, 12-d dataset with planted 4-d clusters.
    let spec = ProjectedClusterSpec {
        n_points: 4000,
        dim: 12,
        n_clusters: 4,
        cluster_dim: 4,
        ..ProjectedClusterSpec::small_test()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let (data, _truth) = generate_projected_clusters_detailed(&spec, &mut rng);
    let query = data.points[data.cluster_members(0)[0]].clone();

    // Direct use of the graph, outside any session: exact same API shape
    // as the baselines (build once, query many times).
    let graph = Hnsw::build(&data.points, HnswParams::default());
    let top = graph.knn(&query, 10);
    println!(
        "hnsw graph: n={} max_level={} — query's top-10: {:?}",
        graph.len(),
        graph.max_level(),
        top
    );

    // One session per candidate source. `Full` ranks all 4000 points;
    // `hnsw(600)` ranks only the graph's 600 nearest candidates.
    let run = |candidates: CandidateSource| {
        let config = SearchConfig::default()
            .with_support(20)
            .with_candidate_source(candidates);
        let mut user = HeuristicUser::default();
        InteractiveSearch::new(config)
            .run_with(
                &DatasetHandle::new(&data.points).expect("dataset"),
                &query,
                &mut user,
                RunOptions::default(),
            )
            .expect("session")
            .into_outcome()
    };
    let full = run(CandidateSource::Full);
    let seeded = run(CandidateSource::hnsw(600));

    for (label, outcome) in [("full", &full), ("hnsw(600)", &seeded)] {
        println!(
            "{label:>9}: {} neighbors, {} majors, meaningful={}",
            outcome.neighbors.len(),
            outcome.majors_run,
            outcome.diagnosis.is_meaningful()
        );
    }

    // How much of the exhaustive answer the seeded session kept: the
    // overlap of the two top-k lists (they agree whenever the true
    // neighbors sit inside the graph's candidate set — the usual case).
    let kept = full
        .neighbors
        .iter()
        .filter(|i| seeded.neighbors.contains(i))
        .count();
    println!(
        "overlap: {kept}/{} of the full session's neighbors survive seeding",
        full.neighbors.len()
    );
}
