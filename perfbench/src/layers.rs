//! Per-layer metrics of a traced run, derived from the spans and counters
//! the program already emits plus the benchmark's own `bench.*` spans.
//!
//! A layer's self time is its span total minus its children's totals.
//! Client and server spans sit on different threads, so over the wire the
//! net layer's self time is computed from totals: client round trips minus
//! the server's `session.*` / `serve.*` time.

use crate::report::{metric, quantile, Metric};
use crate::run::{Record, RunData, Workload};
use hinn::obs::{SpanNode, TelemetryReport};

/// The benchmark's spans around wire calls (client side of the net layer).
const CLIENT_CALLS: &[&str] = &["bench.open", "bench.submit", "bench.ingest", "bench.delete"];
/// The serve-layer spans that answer those calls.
const SERVER_CALLS: &[&str] = &[
    "session.open",
    "session.step",
    "serve.ingest",
    "serve.delete",
];

/// Span totals of one report, walked by name.
struct Spans<'a>(&'a TelemetryReport);

impl Spans<'_> {
    fn walk(&self, mut f: impl FnMut(&SpanNode, Option<&SpanNode>)) {
        fn go(
            nodes: &[SpanNode],
            parent: Option<&SpanNode>,
            f: &mut dyn FnMut(&SpanNode, Option<&SpanNode>),
        ) {
            for n in nodes {
                f(n, parent);
                go(&n.children, Some(n), f);
            }
        }
        go(&self.0.spans, None, &mut f);
    }

    /// (occurrences, total ns) of every span named `name`, on any path.
    fn named(&self, name: &str) -> (u64, u64) {
        let (mut count, mut ns) = (0, 0);
        self.walk(|n, _| {
            if n.name == name {
                count += n.count;
                ns += n.total_ns;
            }
        });
        (count, ns)
    }

    fn total_ms(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.named(n).1).sum::<u64>() as f64 / 1e6
    }

    fn count(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.named(n).0).sum()
    }

    fn mean_ms(&self, name: &str) -> f64 {
        let (count, ns) = self.named(name);
        if count == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / count as f64
        }
    }

    /// Total ms of `name` spans minus their children named in `minus`
    /// (every child when `minus` is empty).
    fn self_ms(&self, name: &str, minus: &[&str]) -> f64 {
        let mut ns: i128 = 0;
        self.walk(|n, _| {
            if n.name == name {
                ns += i128::from(n.total_ns);
                for c in &n.children {
                    if minus.is_empty() || minus.contains(&c.name.as_str()) {
                        ns -= i128::from(c.total_ns);
                    }
                }
            }
        });
        ns as f64 / 1e6
    }

    /// Total ms of spans whose name starts with `prefix` and whose parent
    /// is not itself such a span (so nested layer spans count once).
    fn layer_ms(&self, prefix: &str) -> f64 {
        let mut ns = 0;
        self.walk(|n, parent| {
            if n.name.starts_with(prefix) && !parent.is_some_and(|p| p.name.starts_with(prefix)) {
                ns += n.total_ns;
            }
        });
        ns as f64 / 1e6
    }

    /// Total ms of the children of every `name` span.
    fn children_ms(&self, name: &str) -> f64 {
        let mut ns = 0;
        self.walk(|n, _| {
            if n.name == name {
                ns += n.children.iter().map(|c| c.total_ns).sum::<u64>();
            }
        });
        ns as f64 / 1e6
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of a traced run.
///
/// # Panics
/// When `data` is not from a traced run.
pub fn per_layer(data: &RunData) -> Vec<Metric> {
    let report = data.window_report.as_ref().expect("a traced run");
    let setup = data.setup_report.as_ref().expect("a traced run");
    let spans = Spans(report);
    let counter = |name: &str| report.counter(name) as f64;
    let traced: Vec<&Record> = data
        .window
        .records
        .iter()
        .filter(|r| data.phases[r.phase])
        .collect();
    let plain: Vec<&Record> = data
        .window
        .records
        .iter()
        .filter(|r| !data.phases[r.phase])
        .collect();
    let sessions = traced.len() as f64;
    let views = traced.iter().map(|r| r.trip.view_ms.len()).sum::<usize>() as f64;
    let majors = traced.iter().map(|r| r.trip.outcome.majors).sum::<usize>() as f64;
    // Wall seconds of the traced (or the untraced) phases.
    let phase_s = |traced: bool| -> f64 {
        let phases = data.window.phase_s.iter().zip(&data.phases);
        phases.filter(|(_, &t)| t == traced).map(|(s, _)| s).sum()
    };
    let wire = data.plan.workload != Workload::ScanCase2;

    let client_ms = spans.total_ms(CLIENT_CALLS);
    let server_ms = spans.total_ms(SERVER_CALLS);
    let calls = spans.count(CLIENT_CALLS) as f64;
    let (net_ms, coverage) = if wire {
        (per(client_ms - server_ms, calls), per(server_ms, client_ms))
    } else {
        let covered = spans.children_ms("bench.open") + spans.children_ms("bench.submit");
        (
            0.0,
            per(covered, spans.total_ms(&["bench.open", "bench.submit"])),
        )
    };
    let serve_count = spans.count(&["session.open", "session.step"]) as f64;
    let serve_self = spans.self_ms("session.open", &[]) + spans.self_ms("session.step", &[]);
    let ingest_rtt: Vec<f64> = traced.iter().filter_map(|r| r.ingest_ms).collect();
    let (hits, misses) = (counter("cache.hit"), counter("cache.miss"));
    let build_ms = Spans(setup).named("index.build").1 as f64 / 1e6;

    let n = sessions as usize;
    let v = views as usize;
    let mj = majors as usize;
    let m = metric;
    vec![
        m("net.self_ms.mean", net_ms, calls as usize),
        m(
            "net.requests_per_session",
            if wire { per(calls, sessions) } else { 0.0 },
            n,
        ),
        m(
            "serve.self_ms.mean",
            per(serve_self, serve_count),
            serve_count as usize,
        ),
        m(
            "serve.ingest_ms.mean",
            spans.mean_ms("serve.ingest"),
            spans.named("serve.ingest").0 as usize,
        ),
        m(
            "serve.delete_ms.mean",
            spans.mean_ms("serve.delete"),
            spans.named("serve.delete").0 as usize,
        ),
        m(
            "data.ingest_rtt_ms.p50",
            quantile(&ingest_rtt, 0.5),
            ingest_rtt.len(),
        ),
        m("data.handle_new_s", data.handle_new_s, 1),
        m(
            "core.seed_ms.mean",
            spans.mean_ms("search.seed"),
            spans.named("search.seed").0 as usize,
        ),
        m(
            "core.minor_ms.mean",
            per(spans.total_ms(&["search.minor"]), views),
            v,
        ),
        m(
            "core.major_ms.mean",
            per(spans.self_ms("search.major", &["search.minor"]), majors),
            mj,
        ),
        m(
            "core.projection_points_per_session",
            per(counter("projection.points_scanned"), sessions),
            n,
        ),
        m(
            "core.meaning_points_per_session",
            per(counter("meaning.points"), sessions),
            n,
        ),
        m("kde.ms_per_view", per(spans.layer_ms("kde."), views), v),
        m(
            "kde.points_scanned_per_view",
            per(counter("kde.points_scanned"), views),
            v,
        ),
        m(
            "kde.cells_visited_per_view",
            per(counter("kde.cells_visited"), views),
            v,
        ),
        m(
            "linalg.ms_per_major",
            per(spans.layer_ms("linalg."), majors),
            mj,
        ),
        m(
            "linalg.jacobi_rotations_per_major",
            per(counter("linalg.jacobi_rotations"), majors),
            mj,
        ),
        m(
            "index.build_s",
            build_ms / 1e3,
            Spans(setup).named("index.build").0 as usize,
        ),
        m(
            "index.search_ms.mean",
            spans.mean_ms("index.search"),
            spans.named("index.search").0 as usize,
        ),
        m(
            "index.dist_evals_per_open",
            per(counter("index.dist_evals"), sessions),
            n,
        ),
        m(
            "index.extend_ms.mean",
            spans.mean_ms("index.extend"),
            spans.named("index.extend").0 as usize,
        ),
        m(
            "cache.hit_rate",
            per(hits, hits + misses),
            (hits + misses) as usize,
        ),
        m(
            "cache.evictions_per_session",
            per(counter("cache.evict"), sessions),
            n,
        ),
        m(
            "par.parallel_calls",
            per(counter("par.parallel"), sessions),
            n,
        ),
        m("par.inline_calls", per(counter("par.inline"), sessions), n),
        m(
            "user.respond_share",
            per(
                spans.total_ms(&["bench.respond"]),
                phase_s(true) * 1e3 * data.plan.clients as f64,
            ),
            v,
        ),
        m(
            "trace.overhead_frac",
            per(
                per(phase_s(true), sessions),
                per(phase_s(false), plain.len() as f64),
            ) - 1.0,
            n + plain.len(),
        ),
        m("trace.coverage", coverage, calls as usize),
    ]
}
