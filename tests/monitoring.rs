//! Live serving monitor contracts, end to end:
//!
//! * **Determinism** — the windowed JSONL stream (and the exposition
//!   text, latency lines excluded) is byte-identical across worker
//!   thread counts *and* across the interpreted and compiled serving
//!   planes. Window boundaries key on row ordinals, never wall clock.
//! * **Non-perturbation** — predictions are bit-identical with monitors
//!   installed or not, on both planes.
//! * **Fault accounting** — a row rejected with a typed `RowFault` is
//!   counted exactly once: once on the `online.rows_rejected` counter
//!   and once in its window's rejection tally, per plane, for every
//!   thread count.
//! * **Metric fidelity** — the count-derived per-window demographic
//!   parity gap equals `FairnessMetric::DemographicParity` recomputed
//!   on reconstructed slices.
//! * **Baseline persistence** — `MonitorBaseline` survives the
//!   snapshot round trip bit-for-bit.

use falcc::{FairClassifier, FalccConfig, FalccModel, FaultPlan, SavedFalccModel};
use falcc_dataset::{synthetic, Dataset, GroupId, SplitRatios, ThreeWaySplit};
use falcc_metrics::FairnessMetric;
use std::sync::Mutex;

// Monitor installation is process-global; every test that installs one
// (or reads telemetry counters) serializes on this lock against cargo's
// parallel test threads.
static MONITOR_LOCK: Mutex<()> = Mutex::new(());

/// Small windows so a ~300-row test split spans several of them.
const WINDOW_LEN: u64 = 64;

fn fit(seed: u64, threads: usize, faults: FaultPlan) -> (FalccModel, Dataset) {
    let ds = synthetic::social30(seed).expect("generate");
    let ds = ds.subset(&(0..1500).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.faults = faults;
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    (model, split.test)
}

fn exposition_without_latency(snap: &falcc_telemetry::MonitorSnapshot) -> String {
    // Latency lines are the one sanctioned nondeterministic signal.
    snap.render_exposition()
        .lines()
        .filter(|l| !l.contains("latency"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn monitor_streams_identical_across_planes_and_threads() {
    let _guard = MONITOR_LOCK.lock().unwrap();
    falcc_telemetry::monitor::uninstall();
    let (mut model, test) = fit(41, 2, FaultPlan::default());
    let unmonitored = model.predict_dataset(&test);
    assert_eq!(unmonitored, model.compile().predict_dataset(&test));

    // Ring of 4 so the run also exercises eviction (~5 windows pass by).
    let mut runs: Vec<(String, String, Vec<u8>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        model.set_threads(threads);
        for compiled in [false, true] {
            let state = falcc_telemetry::monitor::install(model.monitor_spec(WINDOW_LEN, 4));
            let preds = if compiled {
                model.compile().predict_dataset(&test)
            } else {
                model.predict_dataset(&test)
            };
            falcc_telemetry::monitor::uninstall();
            let snap = state.snapshot();
            assert_eq!(snap.rows_seen, test.len() as u64);
            runs.push((snap.to_jsonl(), exposition_without_latency(&snap), preds));
        }
    }
    let (jsonl, exposition, preds) = &runs[0];
    assert!(jsonl.contains("\"type\":\"monitor_baseline\""));
    assert!(jsonl.contains("\"type\":\"monitor_region\""));
    for (other_jsonl, other_exposition, other_preds) in &runs[1..] {
        assert_eq!(other_jsonl, jsonl, "windowed JSONL diverged between runs");
        assert_eq!(other_exposition, exposition, "exposition diverged between runs");
        assert_eq!(other_preds, preds, "predictions diverged between runs");
    }
    // Observation never perturbs: monitored output == unmonitored output.
    assert_eq!(*preds, unmonitored, "monitors changed predictions");
}

#[test]
fn injected_row_faults_count_once_per_row_on_both_planes() {
    let _guard = MONITOR_LOCK.lock().unwrap();
    let mut plan = FaultPlan::default();
    plan.poison_row(3).poison_row(17);
    let (mut model, test) = fit(42, 2, plan);
    let rows: Vec<Vec<f64>> = (0..test.len()).map(|i| test.row(i).to_vec()).collect();
    assert!(rows.len() > 18, "need both poisoned ordinals in range");

    let mut streams: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        model.set_threads(threads);
        for compiled in [false, true] {
            falcc_telemetry::enable();
            falcc_telemetry::reset();
            // Ring of 8 so the rejection window (id 0) is retained.
            let state = falcc_telemetry::monitor::install(model.monitor_spec(WINDOW_LEN, 8));
            let out = if compiled {
                model.compile().classify_batch(&rows)
            } else {
                model.classify_batch(&rows)
            };
            falcc_telemetry::monitor::uninstall();
            let counted = falcc_telemetry::snapshot().counter("online.rows_rejected");
            falcc_telemetry::disable();
            falcc_telemetry::reset();

            assert!(out[3].is_err() && out[17].is_err(), "poisoned rows must fault");
            assert_eq!(out.iter().filter(|r| r.is_err()).count(), 2);
            assert_eq!(counted, 2, "counter must tick exactly once per rejected row");

            let snap = state.snapshot();
            let window_rejections: u64 = snap.windows.iter().map(|w| w.rejected).sum();
            let observed: u64 = snap.windows.iter().map(|w| w.observed).sum();
            assert_eq!(window_rejections, 2, "window tally must match the fault count");
            assert_eq!(observed, rows.len() as u64);
            streams.push(snap.to_jsonl());
        }
    }
    for stream in &streams[1..] {
        assert_eq!(stream, &streams[0], "fault accounting diverged between runs");
    }
}

#[test]
fn window_dp_gap_matches_fairness_metric_on_reconstructed_slices() {
    let _guard = MONITOR_LOCK.lock().unwrap();
    let (model, test) = fit(43, 2, FaultPlan::default());
    let state = falcc_telemetry::monitor::install(model.monitor_spec(WINDOW_LEN, 8));
    let _ = model.predict_dataset(&test);
    falcc_telemetry::monitor::uninstall();
    let snap = state.snapshot();

    let spec = &snap.spec;
    let mut multi_group_cells = 0usize;
    for w in &snap.windows {
        for r in 0..spec.n_regions {
            // Rebuild the (prediction, group) slice the window counted
            // and hand it to the metrics crate's reference definition.
            let mut z: Vec<u8> = Vec::new();
            let mut g: Vec<GroupId> = Vec::new();
            for group in 0..spec.n_groups {
                let rows = w.rows[r * spec.n_groups + group];
                let positives = w.positives[r * spec.n_groups + group];
                for i in 0..rows {
                    z.push(u8::from(i < positives));
                    g.push(GroupId(group as u16));
                }
            }
            let y = vec![0u8; z.len()];
            let reference =
                FairnessMetric::DemographicParity.bias(&y, &z, &g, spec.n_groups);
            let live = w.dp_gap(spec.n_groups, r);
            assert!(
                (live - reference).abs() < 1e-12,
                "window {} region {r}: live gap {live} != reference {reference}",
                w.id
            );
            if g.iter().map(|id| id.index()).collect::<std::collections::BTreeSet<_>>().len()
                > 1
            {
                multi_group_cells += 1;
            }
        }
    }
    assert!(multi_group_cells > 0, "cross-check never saw a multi-group cell");
}

#[test]
fn monitor_baseline_survives_persistence_round_trip() {
    let (model, _test) = fit(44, 2, FaultPlan::default());
    let json = SavedFalccModel::capture(&model)
        .expect("capture")
        .to_json()
        .expect("serialise");
    let restored = SavedFalccModel::from_json(&json).expect("parse").restore();
    assert_eq!(model.monitor_baseline(), restored.monitor_baseline());
    assert_eq!(model.monitor_spec(WINDOW_LEN, 8), restored.monitor_spec(WINDOW_LEN, 8));

    let baseline = model.monitor_baseline();
    assert_eq!(baseline.n_regions, model.n_regions());
    assert_eq!(baseline.occupancy.len(), model.n_regions());
    assert_eq!(baseline.dp.len(), model.n_regions());
    assert_eq!(baseline.group_mix.len(), baseline.n_regions * baseline.n_groups);
    assert!(
        (baseline.occupancy.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "validation occupancy must sum to 1"
    );
}

#[test]
fn serve_counters_reconcile_with_accepted_rows() {
    let _guard = MONITOR_LOCK.lock().unwrap();
    let (model, test) = fit(45, 2, FaultPlan::default());
    let rows: Vec<Vec<f64>> = (0..test.len()).map(|i| test.row(i).to_vec()).collect();

    falcc_telemetry::enable();
    falcc_telemetry::reset();
    let out = model.compile().classify_batch(&rows);
    let snap = falcc_telemetry::snapshot();
    falcc_telemetry::disable();
    falcc_telemetry::reset();

    let accepted = out.iter().filter(|r| r.is_ok()).count() as u64;
    assert_eq!(accepted, rows.len() as u64);
    // Every accepted row is served exactly once, through exactly one of
    // the two dispatch layouts.
    assert_eq!(
        snap.counter("serve.bucket_rows") + snap.counter("serve.ordered_rows"),
        accepted
    );
}
