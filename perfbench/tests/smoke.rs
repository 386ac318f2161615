//! Smoke sizes of every workload: every named metric is present, finite
//! and carries its unit; outcomes and work counters repeat exactly.

use hinn_perfbench::layers::per_layer;
use hinn_perfbench::report::{
    end_to_end, Def, Metric, Summary, END_TO_END, PER_LAYER, REPORT_ONLY,
};
use hinn_perfbench::run::{run, Plan, RunData, Workload};
use std::sync::Mutex;

/// The telemetry recorder is process-global: runs must not overlap, or one
/// run's untraced work lands in another's traced report.
static SERIAL: Mutex<()> = Mutex::new(());

/// Work counters that must repeat exactly across single-client runs.
const WORK_COUNTERS: &[&str] = &[
    "index.dist_evals",
    "kde.points_scanned",
    "meaning.points",
    "linalg.jacobi_rotations",
];

fn smoke(workload: Workload, traced: bool) -> RunData {
    run(&Plan::smoke(workload, 11), traced).expect("smoke run")
}

fn check_table<'a>(metrics: &[Metric], table: impl IntoIterator<Item = &'a Def>) {
    let mut names: Vec<&str> = metrics.iter().map(|m| m.def.name).collect();
    let mut want: Vec<&str> = table.into_iter().map(|d| d.name).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);
    for m in metrics {
        assert!(m.value.is_finite(), "{} = {}", m.def.name, m.value);
        assert!(!m.def.unit.is_empty(), "{} has no unit", m.def.name);
    }
}

#[test]
fn every_metric_is_present_finite_and_has_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let plain = smoke(workload, false);
        let setups = [(plain.setup_s, plain.setup_reference_ms)];
        let e2e = end_to_end(&plain, &setups, true);
        check_table(&e2e, END_TO_END.iter().chain(REPORT_ONLY));
        for m in &e2e {
            assert!(
                m.value > 0.0 && m.samples > 0,
                "{workload:?}: {} = {}",
                m.def.name,
                m.value
            );
        }
        let summary = Summary::new(&plain, e2e, end_to_end(&plain, &setups, false), false);
        assert!(summary.correct(), "{workload:?}: {:?}", summary.errors);
        let line = summary.result_line();
        for d in END_TO_END {
            let field = format!("\"{}\": {{\"value\": ", d.name);
            assert!(line.contains(&field), "{line}");
            assert!(
                line.contains(&format!("\"unit\": \"{}\"", d.unit)),
                "{line}"
            );
        }
        for d in REPORT_ONLY {
            assert!(
                !line.contains(d.name),
                "{} belongs in the report only",
                d.name
            );
        }

        let traced = smoke(workload, true);
        let layers = per_layer(&traced);
        check_table(&layers, PER_LAYER);
        let summary = Summary::new(&traced, layers, Vec::new(), true);
        assert!(summary.correct(), "{workload:?}: {:?}", summary.errors);
        // Same seed, same sessions: the outcome digest repeats.
        assert_eq!(plain.digest, traced.digest, "{workload:?}");
    }
}

#[test]
fn work_counters_repeat_across_single_client_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in [Workload::ScanCase2, Workload::IngestStream] {
        let a = smoke(workload, true);
        let b = smoke(workload, true);
        let (ra, rb) = (a.window_report.unwrap(), b.window_report.unwrap());
        for &c in WORK_COUNTERS {
            assert_eq!(ra.counter(c), rb.counter(c), "{workload:?}: {c}");
        }
        assert!(ra.counter("kde.points_scanned") > 0);
        assert_eq!(
            ra.counter("index.dist_evals") > 0,
            workload == Workload::IngestStream,
            "only HNSW workloads evaluate index distances"
        );
        assert_eq!(a.digest, b.digest, "{workload:?}");
    }
}

#[test]
fn benchmark_json_names_exactly_these_workloads_and_metrics() {
    let text = include_str!("../../BENCHMARK.json");
    let mut listed: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
    listed.sort_unstable();
    want.sort_unstable();
    assert_eq!(listed, want);
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
