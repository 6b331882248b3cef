//! # falcc-telemetry
//!
//! Structured observability for the FALCC pipeline: hierarchical **spans**
//! with monotonic timing, a **metrics registry** (counters, gauges,
//! fixed-bucket histograms), live serving **monitors** (windowed
//! fairness/drift aggregation — see [`monitor`]), and pluggable **sinks**
//! (in-memory snapshot for tests, a human-readable phase-tree report,
//! JSON-lines export, Prometheus-style text exposition).
//!
//! Three invariants govern the design:
//!
//! 1. **Zero cost when disabled.** Every recording entry point first reads
//!    one relaxed atomic ([`enabled`]); when telemetry is off, spans are
//!    inert guards and metric updates return immediately. The disabled
//!    path adds no allocation, no lock, no syscall — the overhead smoke
//!    check in `exp_runtime --smoke` pins this.
//! 2. **Observation never perturbs results.** Telemetry only *records*:
//!    instrumented code computes the same values, in the same order, with
//!    recording on or off. The workspace determinism suite runs
//!    bit-identically with tracing on and off (`tests/telemetry.rs`).
//! 3. **Deterministic structure.** Span *durations* are wall-clock and
//!    vary run to run, but the span **tree shape and ordering** are a pure
//!    function of the program: spans opened on one thread nest via a
//!    thread-local stack in program order, and spans opened on worker
//!    threads carry an explicit parent plus an **ordinal** (their work-item
//!    index), which the snapshot sorts by. This mirrors the ordered-merge
//!    contract of `falcc_dataset::parallel`: the merged tree is identical
//!    for 1, 2, or 8 worker threads.
//!
//! ## Quick example
//!
//! ```
//! falcc_telemetry::enable();
//! {
//!     let _fit = falcc_telemetry::span("offline.fit");
//!     let _cluster = falcc_telemetry::span("offline.clustering");
//!     falcc_telemetry::counters::LLOYD_ITERATIONS.add(7);
//! }
//! let snap = falcc_telemetry::snapshot();
//! assert_eq!(snap.counter("offline.lloyd_iterations"), 7);
//! println!("{}", snap.render_tree());   // phase tree with durations
//! let jsonl = snap.to_jsonl();          // one JSON object per line
//! falcc_telemetry::disable();
//! # assert!(jsonl.contains("offline.clustering"));
//! ```
//!
//! ## Enabling
//!
//! Telemetry is off by default. Turn it on programmatically with
//! [`enable`] (the CLI/bench `--profile` and `--trace-out` flags do this),
//! or set the environment variable `FALCC_TELEMETRY=1` to enable it at
//! first use — which is how CI runs the determinism and golden-regression
//! suites under tracing without touching their code.

pub mod metrics;
pub mod monitor;
pub mod sink;
pub mod span;

pub use metrics::{counters, gauges, histograms, Counter, Gauge, Histogram};
pub use monitor::{MonitorSnapshot, MonitorSpec, MonitorState};
pub use sink::{HistogramSnapshot, Snapshot};
pub use span::{event, span, span_labeled, span_under, Span, SpanId, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(false);
static QUIET: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Whether telemetry is currently recording. This is the cheap check every
/// recording entry point performs first: one `Once` fast path (an acquire
/// load) plus one relaxed load.
///
/// The first call consults the `FALCC_TELEMETRY` environment variable
/// (`1`/`true`/`on` enable recording), so test suites and CI can profile
/// binaries that never call [`enable`] themselves.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("FALCC_TELEMETRY") {
            if matches!(v.as_str(), "1" | "true" | "on") {
                ENABLED.store(true, Ordering::Relaxed);
            }
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording spans, events, and metrics.
pub fn enable() {
    // Settle the env probe first so a later `enabled()` call cannot race
    // it and overwrite an explicit enable.
    let _ = enabled();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording. Already-collected data stays available to
/// [`snapshot`] until [`reset`].
pub fn disable() {
    let _ = enabled();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all collected spans and zeroes every registered metric. Call
/// between measured sections (e.g. `exp_runtime` resets before the run
/// whose phase tree it reports). Spans still open across a reset will
/// record into the fresh collector; avoid resetting mid-span.
pub fn reset() {
    span::reset_collector();
    metrics::reset_values();
}

/// Suppresses [`progress`] output to stderr (the events are still
/// recorded). Wired to the CLI/bench `--quiet` flags.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether progress output to stderr is suppressed.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// A progress message: printed to stderr (unless [`set_quiet`]) *and*
/// recorded as a `progress` event when telemetry is enabled — so `--quiet`
/// and `--trace-out` compose: quiet runs still carry their progress log in
/// the trace.
pub fn progress(msg: impl AsRef<str>) {
    let msg = msg.as_ref();
    if enabled() {
        event("progress", msg);
    }
    if !is_quiet() {
        eprintln!("{msg}");
    }
}

/// Collects the current spans and metrics into an immutable [`Snapshot`].
/// Recording may continue afterwards; the snapshot is a copy.
pub fn snapshot() -> Snapshot {
    Snapshot::collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global; tests that toggle it serialize
    // on this lock so cargo's parallel test threads cannot interleave.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default_and_toggles() {
        let _guard = TEST_LOCK.lock().unwrap();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        disable();
        reset();
        {
            let _s = span("should.not.appear");
            metrics::counters::LLOYD_ITERATIONS.add(5);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counter("offline.lloyd_iterations"), 0);
    }

    #[test]
    fn quiet_flag_round_trips() {
        set_quiet(true);
        assert!(is_quiet());
        set_quiet(false);
        assert!(!is_quiet());
    }
}
