//! Telemetry overhead measurement: the cost of the observability layer on
//! the end-to-end FALCC pipeline, recording enabled vs. disabled.
//!
//! `exp_runtime` serialises the result to `BENCH_telemetry.json` so the
//! overhead numbers are committed alongside the runtime tables. Two
//! complementary measurements:
//!
//! * **End-to-end**: median wall-clock of fit + compile + classify with
//!   telemetry off and on (target: enabled < 3% over disabled).
//!   Predictions are asserted bit-identical in both states — observation
//!   never perturbs.
//! * **Disabled hot path**: nanoseconds per disabled counter update and
//!   per inert span guard. These are the per-operation costs paid at every
//!   instrumentation point when recording is off (target: low single-digit
//!   nanoseconds — one relaxed atomic load). Being micro-benchmarks they
//!   are stable enough to gate CI on, unlike the end-to-end percentage.

use crate::BenchDataset;
use falcc::{CheckpointSpec, FairClassifier, FalccConfig, FalccModel};
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_metrics::LossConfig;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// The measurement envelope written to `BENCH_telemetry.json`.
#[derive(Debug, Serialize)]
pub struct TelemetryOverheadReport {
    /// Dataset scale the end-to-end runs used.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions per state (median taken).
    pub reps: usize,
    /// Training rows of the end-to-end run.
    pub train_rows: usize,
    /// Median end-to-end wall-clock, telemetry disabled (ms).
    pub disabled_ms: f64,
    /// Median end-to-end wall-clock, telemetry enabled (ms).
    pub enabled_ms: f64,
    /// `(enabled - disabled) / disabled`, percent. Negative values mean
    /// noise dominated — the overhead is below measurement resolution.
    pub enabled_overhead_pct: f64,
    /// Disabled-path cost of one counter update (ns).
    pub disabled_counter_ns: f64,
    /// Disabled-path cost of one span open + drop (ns).
    pub disabled_span_ns: f64,
    /// Uninstalled-path cost of one live-monitor batch attempt (ns).
    pub disabled_monitor_ns: f64,
    /// Median end-to-end wall-clock with live monitors installed (ms);
    /// telemetry recording stays off so the delta isolates monitor cost.
    pub monitor_ms: f64,
    /// `(monitor - disabled) / disabled`, percent.
    pub monitor_overhead_pct: f64,
    /// Windows the monitored run retained at snapshot time.
    pub monitor_windows_recorded: usize,
    /// Whether predictions were bit-identical with monitors on and off.
    pub monitor_predictions_identical: bool,
    /// Spans recorded by one enabled end-to-end run.
    pub spans_recorded: usize,
    /// Whether predictions were bit-identical with telemetry on and off.
    pub predictions_identical: bool,
    /// Median end-to-end wall-clock with checkpoint journaling on (ms);
    /// telemetry stays off so the delta isolates the journal's atomic
    /// writes and manifest chaining.
    pub checkpoint_ms: f64,
    /// `(checkpoint - disabled) / disabled`, percent. Gated below
    /// [`CHECKPOINT_OVERHEAD_MAX_PCT`] at benchmark scale.
    pub checkpoint_overhead_pct: f64,
    /// Checkpoint commits one journaled run performed (manifest lines).
    pub checkpoint_commits: usize,
    /// Whether predictions were bit-identical with journaling on and off.
    pub checkpoint_predictions_identical: bool,
}

/// Bound on the end-to-end cost of checkpoint journaling at benchmark
/// scale (`--scale 0.10` and up): amortised over real pool training the
/// journal's atomic writes must stay under 3%.
pub const CHECKPOINT_OVERHEAD_MAX_PCT: f64 = 3.0;

/// CI bound for the disabled hot path, generous over the expected
/// single-digit cost so shared runners do not flake.
pub const DISABLED_PATH_MAX_NS: f64 = 50.0;

fn end_to_end_ms(
    dataset: BenchDataset,
    scale: f64,
    seed: u64,
    monitored: bool,
    checkpoint: Option<&Path>,
) -> (f64, Vec<u8>, usize) {
    let ds = dataset.generate(seed, scale);
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    let mut cfg = FalccConfig {
        loss: LossConfig::balanced(falcc_metrics::FairnessMetric::DemographicParity),
        seed,
        threads: 1,
        ..Default::default()
    };
    cfg.pool.seed = seed;
    // A fresh (non-resume) journal per rep: each run pays the full
    // record-write + manifest-chain cost, never a cached resume.
    cfg.checkpoint = checkpoint.map(CheckpointSpec::new);
    let start = Instant::now();
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    let state = monitored.then(|| {
        falcc_telemetry::monitor::install(model.monitor_spec(
            falcc::baseline::DEFAULT_WINDOW_LEN,
            falcc::baseline::DEFAULT_WINDOWS,
        ))
    });
    // Serve through the compiled plane: it is the one the monitors watch.
    let preds = model.compile().predict_dataset(&split.test);
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let windows = state.map_or(0, |state| {
        falcc_telemetry::monitor::uninstall();
        state.snapshot().windows.len()
    });
    (ms, preds, windows)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Per-operation cost of the disabled recording hot path, in nanoseconds:
/// `(counter_update, span_guard)`.
///
/// # Panics
/// Panics when called with telemetry enabled — the point is the disabled
/// path.
pub fn disabled_path_ns() -> (f64, f64) {
    assert!(!falcc_telemetry::enabled(), "disabled-path probe needs telemetry off");
    const N: u64 = 4_000_000;
    let start = Instant::now();
    for i in 0..N {
        falcc_telemetry::counters::ONLINE_SAMPLES.add(std::hint::black_box(i) & 1);
    }
    let counter_ns = start.elapsed().as_nanos() as f64 / N as f64;
    let start = Instant::now();
    for _ in 0..N {
        let _s = falcc_telemetry::span(std::hint::black_box("overhead.probe"));
    }
    let span_ns = start.elapsed().as_nanos() as f64 / N as f64;
    (counter_ns, span_ns)
}

/// Per-operation cost of the uninstalled live-monitor hot path, in
/// nanoseconds: one `monitor::batch` attempt — an acquire load of the
/// active pointer plus a null check.
///
/// # Panics
/// Panics when a monitor is installed — the point is the uninstalled
/// path.
pub fn disabled_monitor_ns() -> f64 {
    assert!(
        !falcc_telemetry::monitor::active(),
        "uninstalled-path probe needs monitors off"
    );
    const N: u64 = 4_000_000;
    let start = Instant::now();
    for i in 0..N {
        let rec = falcc_telemetry::monitor::batch(std::hint::black_box(i as usize) & 1);
        std::hint::black_box(rec.is_none());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Measures enabled-vs-disabled overhead of the end-to-end pipeline on the
/// emulated Adult (sex) dataset. Leaves telemetry disabled and reset.
///
/// # Panics
/// Panics on fit failures (internal bugs only — the generated dataset
/// always has group coverage).
pub fn measure_overhead(scale: f64, seed: u64, reps: usize) -> TelemetryOverheadReport {
    let dataset = BenchDataset::AdultSex;
    let reps = reps.max(1);
    let train_rows = {
        let ds = dataset.generate(seed, scale);
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
        split.train.len()
    };

    falcc_telemetry::disable();
    falcc_telemetry::reset();
    falcc_telemetry::monitor::uninstall();
    let (counter_ns, span_ns) = disabled_path_ns();
    let monitor_ns = disabled_monitor_ns();
    // Interleaving the two states would be fairer to slow CPU-frequency
    // drift, but a warm-up pass plus medians is enough at this scale.
    let (_warmup, preds_off, _) = end_to_end_ms(dataset, scale, seed, false, None);
    let disabled: Vec<f64> =
        (0..reps).map(|_| end_to_end_ms(dataset, scale, seed, false, None).0).collect();

    // Journaled runs: telemetry off, checkpointing on — the delta against
    // `disabled` is what crash consistency costs the offline phase.
    let ck_dir = std::env::temp_dir().join(format!("falcc_bench_ck_{seed}"));
    let mut preds_ck = Vec::new();
    let checkpointed: Vec<f64> = (0..reps)
        .map(|_| {
            let (ms, preds, _) = end_to_end_ms(dataset, scale, seed, false, Some(&ck_dir));
            preds_ck = preds;
            ms
        })
        .collect();
    let checkpoint_commits = std::fs::read_to_string(ck_dir.join(falcc::checkpoint::MANIFEST))
        .map(|m| m.lines().count())
        .unwrap_or(0);
    std::fs::remove_dir_all(&ck_dir).ok();

    // Monitored runs: telemetry recording stays off, only the live
    // monitors are installed — the delta against `disabled` isolates
    // what the windowed aggregation costs the serving path.
    let mut monitor_windows = 0;
    let mut preds_monitored = Vec::new();
    let monitored: Vec<f64> = (0..reps)
        .map(|_| {
            let (ms, preds, windows) = end_to_end_ms(dataset, scale, seed, true, None);
            monitor_windows = windows;
            preds_monitored = preds;
            ms
        })
        .collect();

    falcc_telemetry::enable();
    let mut spans_recorded = 0;
    let mut preds_on = Vec::new();
    let enabled: Vec<f64> = (0..reps)
        .map(|_| {
            falcc_telemetry::reset();
            let (ms, preds, _) = end_to_end_ms(dataset, scale, seed, false, None);
            spans_recorded = falcc_telemetry::snapshot().spans.len();
            preds_on = preds;
            ms
        })
        .collect();
    falcc_telemetry::disable();
    falcc_telemetry::reset();

    let disabled_ms = median(disabled);
    let enabled_ms = median(enabled);
    let monitor_ms = median(monitored);
    let checkpoint_ms = median(checkpointed);
    TelemetryOverheadReport {
        scale,
        seed,
        reps,
        train_rows,
        disabled_ms,
        enabled_ms,
        enabled_overhead_pct: (enabled_ms - disabled_ms) / disabled_ms * 100.0,
        disabled_counter_ns: counter_ns,
        disabled_span_ns: span_ns,
        disabled_monitor_ns: monitor_ns,
        monitor_ms,
        monitor_overhead_pct: (monitor_ms - disabled_ms) / disabled_ms * 100.0,
        monitor_windows_recorded: monitor_windows,
        monitor_predictions_identical: preds_off == preds_monitored,
        spans_recorded,
        predictions_identical: preds_off == preds_on,
        checkpoint_ms,
        checkpoint_overhead_pct: (checkpoint_ms - disabled_ms) / disabled_ms * 100.0,
        checkpoint_commits,
        checkpoint_predictions_identical: preds_off == preds_ck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only bound; CI runs it in release")]
    fn overhead_report_is_sound() {
        let report = measure_overhead(0.02, 11, 1);
        assert!(report.disabled_ms > 0.0);
        assert!(report.enabled_ms > 0.0);
        assert!(report.spans_recorded > 0, "enabled run must record spans");
        assert!(report.predictions_identical, "telemetry changed predictions");
        assert!(
            report.monitor_predictions_identical,
            "live monitors changed predictions"
        );
        assert!(report.monitor_windows_recorded > 0, "monitored run must fill windows");
        assert!(report.monitor_ms > 0.0);
        assert!(report.checkpoint_ms > 0.0);
        assert!(report.checkpoint_commits > 0, "journaled run must commit checkpoints");
        assert!(
            report.checkpoint_predictions_identical,
            "checkpoint journaling changed predictions"
        );
        assert!(report.disabled_counter_ns < DISABLED_PATH_MAX_NS);
        assert!(report.disabled_span_ns < DISABLED_PATH_MAX_NS);
        assert!(report.disabled_monitor_ns < DISABLED_PATH_MAX_NS);
        // Telemetry left off and clean for other tests.
        assert!(!falcc_telemetry::enabled());
        assert!(falcc_telemetry::snapshot().spans.is_empty());
        assert!(!falcc_telemetry::monitor::active());
    }
}
