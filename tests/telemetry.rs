//! Observation never perturbs results: the whole pipeline — fit, persist,
//! restore, compile, and serve through the compiled plane's dataset and
//! batch entry points — must be **bit-identical** with telemetry
//! recording on and off. Telemetry only reads what the pipeline already
//! computes; any counter or span whose presence changes a centroid bit or
//! a prediction is a hard failure here.
//!
//! The span-tree *structure* has its own determinism contract (same tree
//! for every thread count — see `falcc-telemetry`'s unit tests); this
//! suite covers the pipeline side, plus the trace-export invariants the
//! CI artifact relies on.

use falcc::{ClusterSpec, FairClassifier, FalccConfig, FalccModel, RowFault, SavedFalccModel};
use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};
use std::sync::Mutex;

// Telemetry state is process-global; these tests toggle it, so they
// serialize on this lock against cargo's parallel test threads.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

struct Fitted {
    centroid_bits: Vec<Vec<u64>>,
    combos: Vec<Vec<usize>>,
    preds: Vec<u8>,
    restored_preds: Vec<u8>,
    /// The compiled plane's `predict_dataset`, at the fit's thread count.
    served_preds: Vec<u8>,
    /// The compiled plane's `classify_batch` over the same rows.
    served_batch: Vec<Result<u8, RowFault>>,
}

fn fit(seed: u64, threads: usize) -> Fitted {
    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    fit_with(cfg, seed, threads)
}

fn fit_with(mut cfg: FalccConfig, seed: u64, threads: usize) -> Fitted {
    let ds = synthetic::social30(seed).expect("generate");
    let ds = ds.subset(&(0..1500).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    cfg.seed = seed;
    cfg.threads = threads;
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
    let json = SavedFalccModel::capture(&model).expect("capture").to_json().expect("json");
    let restored = SavedFalccModel::from_json(&json).expect("parse").restore();
    let compiled = model.compile();
    let rows: Vec<Vec<f64>> = (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
    Fitted {
        centroid_bits: model
            .centroids()
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect(),
        combos: (0..model.n_regions()).map(|c| model.combo(c).to_vec()).collect(),
        preds: model.predict_dataset(&split.test),
        restored_preds: restored.predict_dataset(&split.test),
        served_preds: compiled.predict_dataset(&split.test),
        served_batch: compiled.classify_batch(&rows),
    }
}

#[test]
fn pipeline_is_bit_identical_with_telemetry_on_and_off() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    falcc_telemetry::disable();
    falcc_telemetry::reset();
    let off = fit(31, 1);
    assert!(
        falcc_telemetry::snapshot().spans.is_empty(),
        "disabled run must record nothing"
    );

    falcc_telemetry::enable();
    falcc_telemetry::reset();
    let on = fit(31, 1);
    let snap = falcc_telemetry::snapshot();
    falcc_telemetry::disable();
    falcc_telemetry::reset();

    assert!(!snap.spans.is_empty(), "enabled run must record spans");
    assert!(snap.counter("offline.lloyd_iterations") > 0);
    assert_eq!(off.centroid_bits, on.centroid_bits, "telemetry changed centroids");
    assert_eq!(off.combos, on.combos, "telemetry changed region combinations");
    assert_eq!(off.preds, on.preds, "telemetry changed predictions");
    assert_eq!(off.restored_preds, on.restored_preds);
    assert_eq!(off.preds, off.restored_preds, "persistence round trip diverged");
    assert!(snap.counter("online.samples") > 0, "the serving plane recorded no rows");
    assert_eq!(off.served_preds, on.served_preds, "telemetry changed served labels");
    assert_eq!(off.served_batch, on.served_batch, "telemetry changed served batch verdicts");
    assert_eq!(off.served_preds, off.preds, "serving plane diverged from the reference");
    let reference_batch: Vec<Result<u8, RowFault>> = off.preds.iter().map(|&p| Ok(p)).collect();
    assert_eq!(off.served_batch, reference_batch, "served batch diverged from the reference");
}

#[test]
fn recorded_trace_is_deterministic_in_structure() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    // Durations vary run to run, but names, nesting, ordinals, and metric
    // values must not: two identical runs produce the same skeleton even
    // at different thread counts, serving spans and counters included
    // (every metric is a count). The second fit estimates k with
    // LOG-Means, whose probes run in parallel.
    type Skeleton = (Vec<(String, u64)>, Vec<(String, u64)>);
    let skeleton = |threads: usize| -> Skeleton {
        falcc_telemetry::enable();
        falcc_telemetry::reset();
        let _ = fit(32, threads);
        let mut log_means = FalccConfig::default();
        log_means.scale_for_tests();
        log_means.clustering = ClusterSpec::LogMeans;
        let _ = fit_with(log_means, 34, threads);
        let snap = falcc_telemetry::snapshot();
        falcc_telemetry::disable();
        falcc_telemetry::reset();
        let mut shape = Vec::new();
        fn walk(
            snap: &falcc_telemetry::Snapshot,
            id: u64,
            depth: u64,
            out: &mut Vec<(String, u64)>,
        ) {
            for child in snap.children_of(id) {
                out.push((child.name.to_string(), depth));
                walk(snap, child.id, depth + 1, out);
            }
        }
        walk(&snap, 0, 0, &mut shape);
        (shape, snap.counters.clone())
    };
    let (shape_ref, counters_ref) = skeleton(1);
    assert!(!shape_ref.is_empty());
    let counter = |name: &str| counters_ref.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
    for name in [
        "clustering.logmeans_probes",
        "offline.lloyd_iterations",
        "offline.splits_screened",
        "offline.split_blocks_screened",
        "online.samples",
    ] {
        assert!(counter(name) > 0, "{name} was not recorded");
    }
    for threads in [2, 8] {
        let (shape, counters) = skeleton(threads);
        assert_eq!(shape, shape_ref, "span tree differs at {threads} threads");
        assert_eq!(counters, counters_ref, "counters differ at {threads} threads");
    }
}

#[test]
fn jsonl_export_round_trips_the_span_count() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    falcc_telemetry::enable();
    falcc_telemetry::reset();
    let _ = fit(33, 2);
    let snap = falcc_telemetry::snapshot();
    falcc_telemetry::disable();
    falcc_telemetry::reset();

    let jsonl = snap.to_jsonl();
    let span_lines = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"span\"") || l.starts_with("{\"type\":\"event\""))
        .count();
    assert_eq!(span_lines, snap.spans.len(), "every span exports exactly one line");
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"type\":\""), "untyped line: {line}");
    }
}
