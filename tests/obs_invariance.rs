//! Observability invariance: installing a `hinn-obs` recorder must not
//! change a single bit of any search result.
//!
//! The instrumentation layer only *observes* — it reads clocks, bumps
//! integer counters, and records span timings. These tests pin that
//! contract at the integration level: complete scripted sessions run with
//! the recorder enabled and disabled, across thread budgets {1, 4}, and
//! every numeric output is compared via `f64::to_bits`.
//!
//! The same traced session also serves as the telemetry coverage check
//! (every instrumented pipeline phase must appear in the report with
//! nonzero counters) and as the source of the schema golden file
//! (`tests/golden/telemetry_schema.txt`). To regenerate the golden after
//! an *intentional* instrumentation change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test obs_invariance
//! ```
//!
//! Set `HINN_OBS_EXPORT=/path/to/telemetry.json` to export the traced
//! session's full JSON report (CI uploads this as a workflow artifact).
//!
//! The traced counters also pin what an engine does *not* keep: a second
//! session on the same engine repeats the first one's work exactly, and
//! the only reuse inside a session is the replay of a major whose alive
//! set did not change (counted by its `projection.find` spans).

use hinn::core::{
    CandidateSource, DatasetHandle, InteractiveSearch, Parallelism, SearchConfig, SearchOutcome,
};
use hinn::obs::TelemetryReport;
use hinn::par::SERIAL_CUTOFF;
use hinn::user::{ScriptedUser, UserModel, UserResponse};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Thread budgets under test (the CI matrix runs the whole suite under
/// `HINN_THREADS` 1 and 4; these are pinned explicitly so the tests do
/// not depend on the environment).
const BUDGETS: [usize; 2] = [1, 4];

/// Serialize the tests in this binary: the `hinn-obs` facade is a global,
/// so a session traced by one test must not overlap an untraced session
/// from another (the untraced one would record into the first's shards —
/// harmless for results, but it would blur the coverage assertions).
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Deterministic xorshift point cloud, `n` points in `d` dimensions
/// (same generator as the PR 1 equivalence harness).
fn cloud(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut unif = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..d).map(|_| unif() * 100.0 - 50.0).collect())
        .collect()
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fixed response script: the user's behavior is pinned, so any
/// divergence must come from the numeric pipeline.
fn script() -> ScriptedUser {
    ScriptedUser::new([
        UserResponse::Threshold(1e-7),
        UserResponse::Discard,
        UserResponse::Threshold(5e-7),
    ])
    .with_fallback(UserResponse::Threshold(1e-7))
}

fn config(par: Parallelism) -> SearchConfig {
    // Default Arbitrary projection mode so the PCA/eigen path runs too.
    SearchConfig {
        max_major_iterations: 2,
        min_major_iterations: 1,
        ..SearchConfig::default()
            .with_support(25)
            .with_parallelism(par)
    }
}

/// [`config`] seeded through the HNSW candidate source, with a budget
/// still above `SERIAL_CUTOFF` so the parallel phases keep spawning (the
/// `par.*` coverage assertions stay meaningful on the seeded subset).
fn hnsw_config(par: Parallelism) -> SearchConfig {
    config(par).with_candidate_source(CandidateSource::hnsw(SERIAL_CUTOFF + 40))
}

/// The session workload. Every run opens its own [`DatasetHandle`], and
/// an HNSW graph belongs to the handle's epoch, so each HNSW-seeded run
/// builds its graph cold and records `index.build`.
fn workload() -> Vec<Vec<f64>> {
    cloud(SERIAL_CUTOFF + 130, 6, 0xD00D)
}

fn run_plain_with(config: SearchConfig, points: &[Vec<f64>]) -> SearchOutcome {
    let mut user = script();
    InteractiveSearch::new(config)
        .run_with(
            &DatasetHandle::new(points).expect("dataset"),
            &points[0],
            &mut user,
            hinn::core::RunOptions::default(),
        )
        .expect("interactive session")
        .into_outcome()
}

fn run_traced_with(config: SearchConfig, points: &[Vec<f64>]) -> (SearchOutcome, TelemetryReport) {
    let mut user = script();
    let out = InteractiveSearch::new(config)
        .run_with(
            &DatasetHandle::new(points).expect("dataset"),
            &points[0],
            &mut user,
            hinn::core::RunOptions::traced(),
        )
        .expect("interactive session");
    let telemetry = out.telemetry.clone().expect("traced run yields telemetry");
    (out.into_outcome(), telemetry)
}

/// One traced session on `engine`, answered by `user`.
fn run_traced_on(
    engine: &InteractiveSearch,
    user: &mut dyn UserModel,
    points: &[Vec<f64>],
) -> (SearchOutcome, TelemetryReport) {
    let out = engine
        .run_with(
            &DatasetHandle::new(points).expect("dataset"),
            &points[0],
            user,
            hinn::core::RunOptions::traced(),
        )
        .expect("interactive session");
    let telemetry = out.telemetry.clone().expect("traced run yields telemetry");
    (out.into_outcome(), telemetry)
}

/// The counters that describe the algorithm's work. The `par.*` counters
/// describe the scheduler (chunk and worker bookkeeping) and vary with
/// the thread budget.
fn algorithmic_counters(r: &TelemetryReport) -> std::collections::BTreeMap<String, u64> {
    let mut c = r.counters.clone();
    c.retain(|name, _| !name.starts_with("par."));
    c
}

/// Views that must run a projection search: every view of a major, unless
/// the major before it dropped no point, in which case its views replay.
fn expected_projection_searches(o: &SearchOutcome) -> u64 {
    let majors = &o.transcript.majors;
    (0..majors.len())
        .filter(|&i| i == 0 || majors[i - 1].n_points_after != majors[i - 1].n_points_before)
        .map(|i| majors[i].minors.len() as u64)
        .sum()
}

fn span_count(report: &TelemetryReport, path: &str) -> u64 {
    report.find_span(path).map_or(0, |s| s.count)
}

const FIND_SPAN: &str = "search.session/search.major/search.minor/projection.find";

fn run_plain(par: Parallelism, points: &[Vec<f64>]) -> SearchOutcome {
    run_plain_with(config(par), points)
}

fn run_traced(par: Parallelism, points: &[Vec<f64>]) -> (SearchOutcome, TelemetryReport) {
    run_traced_with(config(par), points)
}

fn assert_outcomes_bit_identical(a: &SearchOutcome, b: &SearchOutcome, label: &str) {
    assert_eq!(a.neighbors, b.neighbors, "{label}: neighbor sets differ");
    assert_eq!(a.majors_run, b.majors_run, "{label}: majors_run differs");
    assert_eq!(
        bits_of(&a.probabilities),
        bits_of(&b.probabilities),
        "{label}: probabilities not bit-identical"
    );
    for (ma, mb) in a.transcript.majors.iter().zip(&b.transcript.majors) {
        assert_eq!(ma.n_points_before, mb.n_points_before, "{label}");
        assert_eq!(ma.n_points_after, mb.n_points_after, "{label}");
        assert_eq!(
            ma.overlap_with_previous, mb.overlap_with_previous,
            "{label}"
        );
        for (ra, rb) in ma.minors.iter().zip(&mb.minors) {
            assert_eq!(ra.n_picked, rb.n_picked, "{label}: n_picked differs");
            assert_eq!(
                ra.query_peak_ratio.to_bits(),
                rb.query_peak_ratio.to_bits(),
                "{label}: query_peak_ratio not bit-identical"
            );
            assert_eq!(
                bits_of(&ra.variance_ratios),
                bits_of(&rb.variance_ratios),
                "{label}: variance_ratios not bit-identical"
            );
        }
    }
}

/// The tentpole acceptance claim: recorder on vs. off, bit-for-bit equal
/// results, at every thread budget.
#[test]
fn recorder_on_equals_recorder_off_across_budgets() {
    let _guard = exclusive();
    let points = workload();
    for t in BUDGETS {
        let plain = run_plain(Parallelism::fixed(t), &points);
        let (traced, report) = run_traced(Parallelism::fixed(t), &points);
        assert_outcomes_bit_identical(&plain, &traced, &format!("recorder on/off, {t} threads"));
        assert!(
            report.find_span("search.session").is_some(),
            "{t} threads: traced run produced no session span"
        );
        // Phase timings appear only on the traced run; they must never
        // leak into the untraced transcript.
        assert!(plain.transcript.iter_minors().all(|m| m.phases.is_none()));
        assert!(traced.transcript.iter_minors().all(|m| m.phases.is_some()));
    }
}

/// The same on/off claim for the HNSW-seeded path: the index reads a
/// clock during a traced build (`index.build_ms`), and that clock must
/// never leak into the graph or the session (each run builds its graph
/// cold on its own handle, and the builds are bit-identical, so the
/// outcomes match).
#[test]
fn recorder_toggle_is_invisible_to_hnsw_sessions() {
    let _guard = exclusive();
    let points = workload();
    for t in BUDGETS {
        let plain = run_plain_with(hnsw_config(Parallelism::fixed(t)), &points);
        let (traced, report) = run_traced_with(hnsw_config(Parallelism::fixed(t)), &points);
        assert_outcomes_bit_identical(
            &plain,
            &traced,
            &format!("hnsw recorder on/off, {t} threads"),
        );
        assert!(
            report.counter("index.hops") > 0,
            "{t} threads: traced HNSW run recorded no graph hops"
        );
    }
}

/// Cross-budget: the traced sessions must also agree with each other.
#[test]
fn traced_sessions_bit_identical_across_budgets() {
    let _guard = exclusive();
    let points = workload();
    let (serial, _) = run_traced(Parallelism::fixed(1), &points);
    for t in &BUDGETS[1..] {
        let (par, _) = run_traced(Parallelism::fixed(*t), &points);
        assert_outcomes_bit_identical(&serial, &par, &format!("traced, {t} threads"));
    }
}

/// Every instrumented pipeline phase shows up in the report with nonzero
/// work counters: KDE, PCA/eigen, projection scan, density-connection,
/// and the meaningfulness update.
#[test]
fn telemetry_covers_every_instrumented_phase() {
    let _guard = exclusive();
    let points = workload();
    let (_, report) = run_traced_with(hnsw_config(Parallelism::fixed(4)), &points);

    let paths = report.span_paths();
    for phase in [
        "index.build",
        "index.search",
        "kde.estimate_grid",
        "kde.profile",
        "kde.connect",
        "linalg.eigen",
        "linalg.covariance",
        "projection.find",
        "projection.scan",
        "meaning.update",
        "search.session",
        "search.major",
        "search.minor",
    ] {
        assert!(
            paths
                .iter()
                .any(|p| p == phase || p.ends_with(&format!("/{phase}"))),
            "span {phase:?} missing from report; recorded paths: {paths:#?}"
        );
    }

    for counter in [
        "index.hops",
        "index.dist_evals",
        "cache.miss",
        "kde.points_scanned",
        "kde.grid_cells",
        "kde.connect_calls",
        "kde.cells_visited",
        "linalg.eigenpairs",
        "linalg.jacobi_sweeps",
        "linalg.points_scanned",
        "projection.points_scanned",
        "meaning.points",
        "par.chunks",
    ] {
        assert!(
            report.counter(counter) > 0,
            "counter {counter:?} is zero; report:\n{}",
            report.to_text()
        );
    }

    // Session-level gauges and per-iteration histograms.
    assert_eq!(
        report.gauges.get("search.points"),
        Some(&(points.len() as f64))
    );
    assert_eq!(report.gauges.get("search.dims"), Some(&6.0));
    let cand = report
        .histograms
        .get("search.candidates")
        .expect("candidate-set histogram");
    assert!(cand.count > 0 && cand.max <= points.len() as f64);
    // The cold HNSW build records its wall-clock histogram.
    let build = report
        .histograms
        .get("index.build_ms")
        .expect("index build-time histogram");
    assert_eq!(build.count, 1, "exactly one cold graph build");

    // Optional JSON export for the CI telemetry artifact.
    if let Some(path) = std::env::var_os("HINN_OBS_EXPORT") {
        std::fs::write(&path, report.to_json()).expect("write HINN_OBS_EXPORT JSON");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("telemetry_schema.txt")
}

/// Schema stability: the *structure* of the telemetry report (span tree
/// paths and metric names — never the machine-dependent values) is pinned
/// to a golden file. Renaming or dropping a span/counter is a breaking
/// change for downstream consumers of the JSON export and must show up as
/// a reviewed diff here.
#[test]
fn telemetry_schema_matches_golden() {
    let _guard = exclusive();
    // HNSW-seeded run (a cold build — see `workload`) so the schema
    // covers the `index.*` metrics.
    let points = workload();
    let (_, report) = run_traced_with(hnsw_config(Parallelism::fixed(4)), &points);
    let rendered = report.schema();

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &rendered).expect("write golden schema");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden schema {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test obs_invariance`",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "telemetry schema drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The JSON export is well-formed enough for line-oriented tooling and
/// carries the schema version marker.
#[test]
fn json_export_carries_schema_version() {
    let _guard = exclusive();
    let points = workload();
    let (_, report) = run_traced(Parallelism::fixed(1), &points);
    let json = report.to_json();
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"search.session\""), "{json}");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces in JSON export"
    );
}

/// An engine keeps no state between sessions: a second traced session on
/// the same engine repeats the first one's outcome and work, counter for
/// counter, and both agree across thread budgets. This is why the
/// counters of concurrent serving workers do not depend on how the
/// workers interleave.
#[test]
fn repeated_sessions_on_one_engine_count_identically() {
    let _guard = exclusive();
    let points = workload();
    let mut reference: Option<(SearchOutcome, TelemetryReport)> = None;
    for t in BUDGETS {
        let engine = InteractiveSearch::new(config(Parallelism::fixed(t)));
        let (first, first_report) = run_traced_on(&engine, &mut script(), &points);
        let (second, second_report) = run_traced_on(&engine, &mut script(), &points);
        assert_outcomes_bit_identical(&first, &second, &format!("{t} threads, second session"));
        assert_eq!(
            algorithmic_counters(&first_report),
            algorithmic_counters(&second_report),
            "{t} threads: the second session on one engine did different work"
        );
        match &reference {
            None => reference = Some((first, first_report)),
            Some((want, want_report)) => {
                assert_outcomes_bit_identical(want, &first, &format!("budgets 1 and {t}"));
                assert_eq!(
                    algorithmic_counters(want_report),
                    algorithmic_counters(&first_report),
                    "counters differ between budgets 1 and {t}"
                );
            }
        }
    }
}

/// A major that drops no point is followed by a major that shows the same
/// views, and that major replays them: it runs no projection search. Two
/// users make the first major drop no point: one keeps every point, one
/// discards every view (fewer than two survivors keep the alive set).
#[test]
fn a_major_that_drops_no_point_replays_its_views() {
    let _guard = exclusive();
    let points = workload();
    for (label, response) in [
        ("keep all", UserResponse::Threshold(0.0)),
        ("discard all", UserResponse::Discard),
    ] {
        for t in BUDGETS {
            let engine = InteractiveSearch::new(config(Parallelism::fixed(t)));
            let mut user = ScriptedUser::new([]).with_fallback(response.clone());
            let (outcome, report) = run_traced_on(&engine, &mut user, &points);
            let majors = &outcome.transcript.majors;
            assert!(
                majors.len() >= 2,
                "{label}, {t} threads: only one major ran"
            );
            assert_eq!(
                majors[0].n_points_after, majors[0].n_points_before,
                "{label}, {t} threads: the first major dropped points"
            );
            let views = outcome.transcript.iter_minors().count() as u64;
            let searches = expected_projection_searches(&outcome);
            assert!(searches < views, "{label}, {t} threads: nothing to replay");
            assert_eq!(
                span_count(&report, FIND_SPAN),
                searches,
                "{label}, {t} threads: a replayed major searched for its projections again"
            );
        }
    }
}

/// The other side of the replay rule: after a major that drops points the
/// alive set has changed, so every view of the next major is searched for
/// afresh. A density threshold of 1e-4 picks a subset of this cloud, so
/// the first major drops points.
#[test]
fn a_major_that_drops_points_recomputes_its_views() {
    let _guard = exclusive();
    let points = workload();
    for t in BUDGETS {
        let engine = InteractiveSearch::new(config(Parallelism::fixed(t)));
        let mut user = ScriptedUser::new([]).with_fallback(UserResponse::Threshold(1e-4));
        let (outcome, report) = run_traced_on(&engine, &mut user, &points);
        let majors = &outcome.transcript.majors;
        assert!(majors.len() >= 2, "{t} threads: only one major ran");
        assert!(
            majors[0].n_points_after < majors[0].n_points_before,
            "{t} threads: the first major dropped no point"
        );
        let views = outcome.transcript.iter_minors().count() as u64;
        assert_eq!(expected_projection_searches(&outcome), views);
        assert_eq!(
            span_count(&report, FIND_SPAN),
            views,
            "{t} threads: a view after a changed alive set was not searched for"
        );
    }
}
