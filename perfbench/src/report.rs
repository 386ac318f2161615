//! Metric definitions, end-to-end metrics, provenance and the JSON lines
//! the benchmark prints.

use crate::run::{Record, RunData, THREADS};
use crate::speed::{time_scale, NOMINAL_MS};
use hinn::data::projected::ProjectedClusterSpec;
use std::fmt::Write as _;
use std::path::Path;

/// One metric's definition.
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metrics a change to this layer should move, and on
    /// which workload (per-layer metrics only).
    pub moves: &'static str,
    /// Printed on the result line (and listed in BENCHMARK.json), or only
    /// in the report.
    pub result: bool,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        moves: "",
        result: true,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
        result: true,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("open_ms.p90", "ms", "lower"),
    def("view_ms.p25", "ms", "lower"),
    def("view_ms.p75", "ms", "lower"),
    def("view_ms.p99", "ms", "lower"),
    def("sessions_per_s", "1/s", "higher"),
    def("fresh_ms.p90", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Medians the report carries but the result line does not: open and
/// freshness latencies are tight within one speed phase of a shared VM, so
/// their medians jump between phases (see the README).
pub const REPORT_ONLY: &[Def] = &[
    Def {
        result: false,
        ..def("open_ms.p50", "ms", "lower")
    },
    Def {
        result: false,
        ..def("fresh_ms.p50", "ms", "lower")
    },
];

const NET: &str = "view_ms.p25, sessions_per_s on wire_hnsw_hot";
const SERVE: &str = "view_ms.p25, sessions_per_s on wire_hnsw_hot";
const INGEST: &str = "fresh_ms.p90 on ingest_stream";
const CORE: &str = "open_ms.p90, view_ms.p75, view_ms.p99 on scan_case2";
const KDE: &str = "view_ms.p75 on scan_case2";
const LINALG: &str = "view_ms.p99, open_ms.p90 on scan_case2";
const INDEX: &str = "setup_s, open_ms.p90, fresh_ms.p90 on wire_hnsw_hot, ingest_stream";
const CACHE: &str = "view_ms.p25, view_ms.p75, sessions_per_s on wire_hnsw_hot; none on scan_case2";
const NONE: &str = "none";

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Def] = &[
    layer("net.self_ms.mean", "ms", "lower", NET),
    layer("net.requests_per_session", "count", "lower", NET),
    layer("serve.self_ms.mean", "ms", "lower", SERVE),
    layer("serve.ingest_ms.mean", "ms", "lower", INGEST),
    layer("serve.delete_ms.mean", "ms", "lower", INGEST),
    layer("data.ingest_rtt_ms.p50", "ms", "lower", INGEST),
    layer("data.handle_new_s", "s", "lower", "setup_s on all"),
    layer("core.seed_ms.mean", "ms", "lower", CORE),
    layer("core.minor_ms.mean", "ms", "lower", CORE),
    layer("core.major_ms.mean", "ms", "lower", CORE),
    layer("core.projection_points_per_session", "count", "lower", CORE),
    layer("core.meaning_points_per_session", "count", "lower", CORE),
    layer("kde.ms_per_view", "ms", "lower", KDE),
    layer("kde.points_scanned_per_view", "count", "lower", KDE),
    layer("kde.cells_visited_per_view", "count", "lower", KDE),
    layer("linalg.ms_per_major", "ms", "lower", LINALG),
    layer(
        "linalg.jacobi_rotations_per_major",
        "count",
        "lower",
        LINALG,
    ),
    layer("index.build_s", "s", "lower", INDEX),
    layer("index.search_ms.mean", "ms", "lower", INDEX),
    layer("index.dist_evals_per_open", "count", "lower", INDEX),
    layer("index.extend_ms.mean", "ms", "lower", INDEX),
    layer("cache.hit_rate", "ratio", "higher", CACHE),
    layer("cache.evictions_per_session", "count", "lower", CACHE),
    layer("par.parallel_calls", "count", "lower", "none at one thread"),
    layer("par.inline_calls", "count", "lower", "none at one thread"),
    layer("user.respond_share", "ratio", "lower", NONE),
    layer("trace.overhead_frac", "ratio", "lower", NONE),
    layer("trace.coverage", "ratio", "higher", NONE),
];

/// One measured metric.
pub struct Metric {
    /// Its definition.
    pub def: &'static Def,
    /// The value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
}

/// Attach `name`'s definition.
///
/// # Panics
/// When `name` has no definition: that is a bug in this benchmark.
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let def = END_TO_END
        .iter()
        .chain(REPORT_ONLY)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} has no definition"));
    Metric {
        def,
        value,
        samples,
    }
}

/// The `q`-quantile by nearest rank (0 for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics of an untraced run. `setups` holds every set-up of
/// the run (this process's and its probes') as `(seconds, median reference
/// ms around it)`. With `scaled`, each latency is scaled by the reference
/// runs around its own round or probe, the session rate by the rounds'
/// factors weighted by their length, and each set-up by its own (see
/// [`crate::speed`]);
/// without, the values are wall-clock.
pub fn end_to_end(data: &RunData, setups: &[(f64, f64)], scaled: bool) -> Vec<Metric> {
    let scale = |reference_ms: f64| {
        if scaled {
            time_scale(reference_ms)
        } else {
            1.0
        }
    };
    let records = &data.window.records;
    let opens: Vec<f64> = records
        .iter()
        .map(|r| r.trip.open_ms * scale(r.reference_ms))
        .collect();
    let views: Vec<f64> = records
        .iter()
        .flat_map(|r| r.trip.view_ms.iter().map(|v| v * scale(r.reference_ms)))
        .collect();
    let probes = data.probe_fresh_ms.iter().zip(&data.probe_reference_ms);
    let fresh: Vec<f64> = records
        .iter()
        .filter_map(|r| r.fresh_ms.map(|f| f * scale(r.reference_ms)))
        .chain(probes.map(|(f, &reference)| f * scale(reference)))
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|&(s, r)| s * scale(r)).collect();
    // The window's wall time scales by each round's factor, weighted by how
    // long the client waited on that round: a run that crossed from a fast
    // phase into a slow one is scaled by both.
    let busy = |r: &Record| {
        r.trip.open_ms
            + r.trip.view_ms.iter().sum::<f64>()
            + r.ingest_ms.unwrap_or(0.0)
            + r.delete_ms.unwrap_or(0.0)
    };
    let weighted: f64 = records
        .iter()
        .map(|r| busy(r) * scale(r.reference_ms))
        .sum();
    let window = weighted / records.iter().map(busy).sum::<f64>();
    let wall: f64 = data.window.phase_s.iter().sum::<f64>() * window;
    let m = metric;
    vec![
        m("setup_s", quantile(&setup_s, 0.5), setup_s.len()),
        m("open_ms.p50", quantile(&opens, 0.5), opens.len()),
        m("open_ms.p90", quantile(&opens, 0.9), opens.len()),
        m("view_ms.p25", quantile(&views, 0.25), views.len()),
        m("view_ms.p75", quantile(&views, 0.75), views.len()),
        m("view_ms.p99", quantile(&views, 0.99), views.len()),
        m("sessions_per_s", records.len() as f64 / wall, records.len()),
        m("fresh_ms.p50", quantile(&fresh, 0.5), fresh.len()),
        m("fresh_ms.p90", quantile(&fresh, 0.9), fresh.len()),
        m("peak_rss_mb", data.peak_rss_mb, 1),
    ]
}

/// What a result was measured on.
pub struct Provenance {
    /// Commit the checkout came from, when it is a git work tree.
    pub git_rev: String,
    /// FNV-1a over the program's sources, for checkouts without git.
    pub source_digest: String,
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// The SIMD backend the kernels selected.
    pub simd_backend: &'static str,
    /// `HINN_SIMD` as set (empty when unset).
    pub hinn_simd: String,
}

impl Provenance {
    /// Collect the stamp for the checkout this binary was built from.
    pub fn collect() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Self {
            git_rev: git_rev(&root).unwrap_or_else(|| "unknown".to_string()),
            source_digest: format!("{:016x}", source_digest(&root)),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_backend: hinn::linalg::simd::active_backend().name(),
            hinn_simd: std::env::var("HINN_SIMD").unwrap_or_default(),
        }
    }
}

fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
}

/// FNV-1a over the relative paths and bytes of the workspace manifest,
/// lock file and every file under `src/` and `crates/`, in sorted order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's outcome, ready to print.
pub struct Summary<'a> {
    /// The run.
    pub data: &'a RunData,
    /// Its metrics (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// The same end-to-end metrics unscaled (untraced runs).
    pub wall_clock: Vec<Metric>,
    /// Was the run traced?
    pub traced: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Failures, window and checks together.
    pub errors: Vec<String>,
}

impl<'a> Summary<'a> {
    /// Summarise `data` with `metrics` (and, untraced, their wall-clock
    /// values).
    pub fn new(
        data: &'a RunData,
        metrics: Vec<Metric>,
        wall_clock: Vec<Metric>,
        traced: bool,
    ) -> Self {
        let attempted = data.window.records.iter().map(|r| r.ops()).sum::<usize>()
            + data.extra_ops
            + data.window.errors.len();
        let mut errors = data.window.errors.clone();
        errors.extend(data.check_errors.iter().cloned());
        for m in &metrics {
            if !m.value.is_finite() {
                errors.push(format!("metric {} is not finite", m.def.name));
            }
        }
        Self {
            data,
            metrics,
            wall_clock,
            traced,
            attempted,
            errors,
        }
    }

    /// Did every operation succeed and every check pass?
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn metrics_json(metrics: &[Metric], detail: bool) -> String {
        let body: Vec<String> = metrics
            .iter()
            .filter(|m| detail || m.def.result)
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let mut s = format!(
                    "{}: {{\"value\": {value}, \"unit\": {}",
                    json_str(m.def.name),
                    json_str(m.def.unit)
                );
                if detail {
                    let _ = write!(s, ", \"samples\": {}", m.samples);
                    if !m.def.moves.is_empty() {
                        let _ = write!(s, ", \"moves\": {}", json_str(m.def.moves));
                    }
                }
                s.push('}');
                s
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The detailed report: provenance, digest, sample counts, counters.
    pub fn report_line(&self, prov: &Provenance) -> String {
        let plan = &self.data.plan;
        let counters = self
            .data
            .window_report
            .as_ref()
            .map(|r| {
                let body: Vec<String> = r
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", json_str(k)))
                    .collect();
                format!("{{{}}}", body.join(", "))
            })
            .unwrap_or_else(|| "{}".to_string());
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        let data = self.data;
        let reference = format!(
            "{{\"nominal\": {NOMINAL_MS}, \"setup\": {}, \"window\": {}, \"probes\": {}}}",
            data.setup_reference_ms,
            quantile(&data.window.reference_ms, 0.5),
            quantile(&data.probe_reference_ms, 0.5)
        );
        format!(
            "{{\"report\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"n\": {}, \"d\": {}, \
             \"delta\": {}, \"clients\": {}, \"hinn_threads\": {THREADS}, \"nproc\": {}, \
             \"simd_backend\": {}, \"hinn_simd\": {}, \"git_rev\": {}, \"source_digest\": {}, \
             \"reference_ms\": {reference}, \"digest\": \"{:016x}\", \"attempted\": {}, \
             \"failed\": {}, \"errors\": [{}], \"metrics\": {}, \"wall_clock\": {}, \
             \"counters\": {}}}}}",
            json_str(plan.workload.name()),
            u8::from(self.traced),
            plan.seed,
            plan.n,
            ProjectedClusterSpec::case2().dim,
            plan.delta,
            plan.clients,
            prov.nproc,
            json_str(prov.simd_backend),
            json_str(&prov.hinn_simd),
            json_str(&prov.git_rev),
            json_str(&prov.source_digest),
            self.data.digest,
            self.attempted,
            self.errors.len(),
            errors.join(", "),
            Self::metrics_json(&self.metrics, true),
            Self::metrics_json(&self.wall_clock, true),
            counters,
        )
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.errors.len(),
            Self::metrics_json(&self.metrics, false)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END
            .iter()
            .chain(REPORT_ONLY)
            .chain(PER_LAYER)
            .collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.better == "lower" || d.better == "higher");
        }
    }
}
