//! Structured tracing, typed metrics, and session telemetry — the offline
//! analogue of the `tracing` + `metrics` crates, in the same spirit as this
//! workspace's in-repo `rand`/`proptest`/`criterion` stand-ins (no registry
//! access, no external dependencies).
//!
//! The interactive loop of the paper is a pipeline of measurable phases —
//! PCA eigenranking (Fig. 4), KDE grid accumulation (Fig. 5), density
//! connection (Def. 2.2), count and meaningfulness updates (Figs. 7–8) —
//! and the ROADMAP's "fast as the hardware allows" goal needs per-phase
//! visibility before any further performance work can be measured honestly.
//! This crate provides:
//!
//! 1. **Hierarchical spans** with monotonic timings: [`span()`] returns an
//!    RAII guard; nested spans form a tree keyed by `/`-joined paths
//!    (`search.session/search.major/search.minor/kde.profile/...`).
//! 2. **Typed counters, gauges and histograms**: [`counter`], [`gauge`],
//!    [`observe`] — points scanned, grid cells touched, eigenpairs
//!    computed, par chunks dispatched, candidate-set sizes.
//! 3. **A per-session telemetry report** ([`TelemetryReport`]) exported as
//!    JSON and pretty text, collected by the thread-sharded
//!    [`SessionRecorder`] and merged deterministically.
//!
//! # Zero cost when disabled
//!
//! Instrumentation dispatches through a process-global [`Recorder`] slot,
//! exactly like the `log` crate's facade. When no recorder is installed
//! (the default) every instrumentation call is a single relaxed atomic
//! load and an early return — no clock reads, no allocation, no locking.
//! Installing a recorder **must not change any computed result**: the
//! workspace-level `tests/obs_invariance.rs` proves complete interactive
//! sessions are bit-identical (`f64::to_bits`) with telemetry on vs. off.
//!
//! # Usage
//!
//! ```
//! use hinn_obs::{SessionRecorder, span};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(SessionRecorder::new());
//! {
//!     let _session = hinn_obs::install(recorder.clone());
//!     {
//!         let _outer = span!("kde.profile");
//!         let _inner = span!("kde.estimate_grid");
//!         hinn_obs::counter("kde.points_scanned", 5000);
//!     }
//! } // recorder uninstalled here
//! let report = recorder.report();
//! assert_eq!(report.counter("kde.points_scanned"), 5000);
//! assert!(report.find_span("kde.profile/kde.estimate_grid").is_some());
//! println!("{}", report.to_text());
//! ```
//!
//! Installation is scoped and serialized: [`install`] holds a global lock
//! for the lifetime of the returned guard, so concurrent tests cannot
//! interleave two recorders (they queue instead).

pub mod diff;
pub mod export;
pub mod report;
pub mod session;
pub mod sketch;
pub mod trace;

pub use export::export_env;
pub use report::{CacheStats, Histogram, SpanNode, TelemetryReport};
pub use session::SessionRecorder;
pub use sketch::QuantileSketch;
pub use trace::{TraceData, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// A sink for instrumentation events. Implementations must be cheap and
/// thread-safe: events arrive from every worker thread of the parallel hot
/// paths. [`SessionRecorder`] is the batteries-included implementation;
/// the trait exists so deployments can bridge to their own telemetry.
pub trait Recorder: Send + Sync {
    /// A span named `name` opened on the calling thread.
    fn enter_span(&self, name: &'static str);
    /// The innermost open span named `name` closed after `nanos`
    /// monotonic nanoseconds on the calling thread.
    fn exit_span(&self, name: &'static str, nanos: u64);
    /// Add `delta` to the monotonic counter `name`.
    fn add(&self, name: &'static str, delta: u64);
    /// Set the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64);
    /// Record one observation of `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: f64);
}

/// Fast-path switch: `true` iff a recorder is installed. Relaxed ordering
/// is deliberate — a stale read can only skip or no-op one event around
/// the install/uninstall edge, never corrupt state.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. Only read when [`ENABLED`] is set, so the
/// `RwLock` read never contends on the disabled path (it is never reached).
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Serializes installations: held (inside the [`InstallGuard`]) for the
/// whole lifetime of an installed recorder so overlapping sessions queue
/// rather than interleave their telemetry.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Scoped installation of a [`Recorder`] (see [`install`]). Dropping the
/// guard uninstalls the recorder and releases the global install lock.
#[must_use = "dropping the guard uninstalls the recorder immediately"]
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Install `recorder` as the process-global telemetry sink until the
/// returned guard is dropped. Blocks if another recorder is currently
/// installed (installations are serialized, never nested).
pub fn install(recorder: Arc<dyn Recorder>) -> InstallGuard {
    let lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
    InstallGuard { _lock: lock }
}

/// `true` iff a recorder is currently installed. One relaxed atomic load —
/// this is the entire cost of every instrumentation point when telemetry
/// is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` against the installed recorder, if any.
#[inline]
fn with(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    if let Ok(slot) = RECORDER.read() {
        if let Some(r) = slot.as_ref() {
            f(&**r);
        }
    }
}

/// RAII guard of one open span: created by [`span()`], closes (and records
/// its elapsed monotonic time) on drop. When telemetry is disabled the
/// guard is inert — no clock is read.
#[must_use = "a span measures the scope of its guard; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            with(|r| r.exit_span(self.name, nanos));
        }
    }
}

/// Open a span named `name` on the calling thread; it closes when the
/// returned guard drops. Spans nest per thread: a span opened while
/// another is open becomes its child in the merged report.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start: None };
    }
    with(|r| r.enter_span(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

/// `span!("kde.estimate_grid")` — sugar for [`span()`], mirroring the
/// `tracing` crate's macro style. Bind the result: the span lasts as long
/// as the guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Add `delta` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    with(|r| r.add(name, delta));
}

/// Set the gauge `name` to `value` (no-op when disabled).
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    with(|r| r.gauge(name, value));
}

/// Record one observation of `value` into the histogram `name` (no-op
/// when disabled).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    with(|r| r.observe(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_ops_are_noops() {
        // May run concurrently with other tests in this crate that install
        // recorders, so only assert the no-panic contract here.
        let _s = span("test.orphan");
        counter("test.orphan_counter", 1);
        gauge("test.orphan_gauge", 1.0);
        observe("test.orphan_hist", 1.0);
    }

    #[test]
    fn install_scopes_and_uninstalls() {
        let rec = Arc::new(SessionRecorder::new());
        {
            let _g = install(rec.clone());
            assert!(enabled());
            counter("test.install", 3);
            {
                let _s = span!("test.scope");
                counter("test.install", 4);
            }
        }
        let report = rec.report();
        assert_eq!(report.counter("test.install"), 7);
        assert_eq!(report.find_span("test.scope").map(|s| s.count), Some(1));
    }

    #[test]
    fn installs_serialize_rather_than_interleave() {
        // Two threads each install their own recorder; the install lock
        // guarantees each sees exactly its own events.
        let handles: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let rec = Arc::new(SessionRecorder::new());
                    {
                        let _g = install(rec.clone());
                        counter("test.serialized", 10 + i);
                    }
                    rec.report().counter("test.serialized")
                })
            })
            .collect();
        let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 11]);
    }

    #[test]
    fn span_guard_is_inert_when_disabled() {
        let g = span("test.inert");
        assert!(g.start.is_none() || enabled());
        drop(g);
    }
}
