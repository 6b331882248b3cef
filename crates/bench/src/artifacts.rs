//! Cold-start benchmark: JSON restore+compile vs binary artifact load.
//!
//! A serving replica coming up from a JSON snapshot pays three costs:
//! parsing the text envelope (`SavedFalccModel::load_file`), rebuilding
//! the fitted model (`restore`), and lowering it into the flat
//! serving plane (`compile`). The binary artifact persists the
//! *result* of all three, so its cold start is one file read, checksum
//! validation, and validated bulk copies. This benchmark times both
//! paths on the same ensemble-heavy model, breaks the JSON path down by
//! stage, and hard-gates bit identity between the two planes;
//! `exp_artifacts` exits non-zero on divergence (and, at benchmark
//! scale, on a cold-start speedup below [`COLD_START_MIN_SPEEDUP`]) and
//! serialises everything to `BENCH_artifacts.json`.

use falcc::{
    ClusterSpec, CompiledModel, CompiledModelBuf, FairClassifier, FalccConfig, FalccModel,
    SavedFalccModel,
};
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_models::{PoolConfig, TrainerKind};
use std::time::Instant;

use crate::data::BenchDataset;

/// Minimum artifact-vs-JSON cold-start speedup gated at benchmark scale
/// (`exp_artifacts` without `--smoke`, scale ≥ 0.10). The artifact skips
/// serde entirely, so the real margin is far larger; the bound only
/// catches a load path that has degenerated back into per-field parsing.
pub const COLD_START_MIN_SPEEDUP: f64 = 10.0;

/// The full benchmark envelope written to `BENCH_artifacts.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ArtifactsReport {
    /// Dataset row-count scale the model was fitted at.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Timing samples per measurement (minimum taken).
    pub reps: usize,
    /// Rows in the test split the equivalence gate classifies.
    pub test_rows: usize,
    /// Pool members in the fitted model (whole grid, unpruned).
    pub pool_models: usize,
    /// Local regions (k).
    pub n_regions: usize,
    /// Total flat tree nodes across all compiled members.
    pub flat_nodes: usize,
    /// Size of the JSON snapshot on disk, bytes.
    pub json_bytes: usize,
    /// Size of the binary artifact on disk, bytes.
    pub artifact_bytes: usize,
    /// Full JSON cold start: read + parse + restore + compile, ms.
    pub json_cold_ms: f64,
    /// JSON read + envelope verification + serde parse, ms.
    pub json_parse_ms: f64,
    /// Fitted-model reconstruction (`restore`), ms: the fastest of
    /// `reps` single restores, each of a snapshot parsed before its timer
    /// started.
    pub restore_ms: f64,
    /// Serving-plane lowering (`compile`), ms.
    pub compile_ms: f64,
    /// Full artifact cold start: read + validate + load, ms.
    pub artifact_cold_ms: f64,
    /// Artifact read + envelope/checksum validation only, ms.
    pub artifact_validate_ms: f64,
    /// `json_cold_ms / artifact_cold_ms`.
    pub cold_start_speedup: f64,
    /// Whether the artifact-loaded plane was bit-identical to the
    /// JSON-restored one on every compared entry point (hard gate).
    pub equivalent: bool,
    /// What was compared.
    pub note: String,
}

/// Best-case per-call time in milliseconds. One pass over a small test
/// split lasts well under a millisecond — below scheduler jitter on a
/// shared box — so each timed sample repeats `f` until it spans a few
/// milliseconds, and the minimum across samples is taken (the sample
/// least perturbed by outside interference, the standard throughput
/// estimator). Samples are kept short on purpose: the minimum only
/// needs *one* interference-free window, and short windows are far more
/// common on a steal-prone shared vCPU.
const SAMPLE_TARGET_S: f64 = 0.004;

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64();
    let inner = (SAMPLE_TARGET_S / once.max(1e-9)).ceil().clamp(1.0, 100_000.0) as usize;
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() * 1_000.0 / inner as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The ensemble-heavy serving configuration: whole AdaBoost grid
/// (`pool_size = 0` keeps all eight points), fixed k so the region count
/// is stable across scales.
fn serving_config(seed: u64) -> FalccConfig {
    FalccConfig {
        clustering: ClusterSpec::FixedK(8),
        pool: PoolConfig {
            trainer: TrainerKind::AdaBoost,
            pool_size: 0,
            seed,
            ..Default::default()
        },
        seed,
        ..FalccConfig::default()
    }
}

/// A batch interleaving valid test rows with every malformed-row kind —
/// the equivalence check must hold on faults too.
fn mixed_batch(split: &ThreeWaySplit) -> Vec<Vec<f64>> {
    let width = split.test.row(0).len();
    let mut rows: Vec<Vec<f64>> =
        (0..24).map(|i| split.test.row(i % split.test.len()).to_vec()).collect();
    rows[3][width - 1] = f64::NAN;
    rows[7][1] = f64::NEG_INFINITY;
    rows[11][0] = 42.0; // sensitive attribute outside the group domain
    rows[15] = vec![0.5]; // short
    rows[19].push(0.5); // wide
    rows
}

/// Times both cold-start paths on Adult (sex) and verifies bit identity.
pub fn bench_artifacts(scale: f64, seed: u64, reps: usize) -> ArtifactsReport {
    let ds = BenchDataset::AdultSex.generate(seed, scale);
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    let model = FalccModel::fit(&split.train, &split.validation, &serving_config(seed))
        .expect("group coverage");

    let dir = std::env::temp_dir().join(format!("falcc_bench_artifacts_{seed}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json_path = dir.join("model.json");
    let artifact_path = falcc::sibling_artifact_path(&json_path);

    // The exact production emit flow: snapshot to JSON, fingerprint the
    // on-disk bytes, restore+compile from the file, persist the plane.
    SavedFalccModel::capture(&model)
        .and_then(|saved| saved.save_file(&json_path))
        .expect("save snapshot");
    let snapshot_bytes = std::fs::read(&json_path).expect("read snapshot");
    let fingerprint = falcc::io::fnv1a64(&snapshot_bytes);
    let compiled = SavedFalccModel::load_file(&json_path).expect("load").restore().compile();
    compiled.save_artifact(&artifact_path, fingerprint).expect("save artifact");
    let artifact_bytes = std::fs::metadata(&artifact_path).expect("stat").len() as usize;

    // Equivalence gate: full Result sequences on the clean batch, the
    // malformed batch, every single-row verdict, and the dataset path —
    // artifact-loaded plane vs the JSON restore+compile plane.
    let loaded = CompiledModelBuf::read(&artifact_path)
        .and_then(|buf| buf.load_if_fresh(fingerprint))
        .expect("artifact load");
    let rows: Vec<Vec<f64>> =
        (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
    let mixed = mixed_batch(&split);
    let equivalent = compiled.classify_batch(&rows) == loaded.classify_batch(&rows)
        && compiled.classify_batch(&mixed) == loaded.classify_batch(&mixed)
        && rows
            .iter()
            .chain(&mixed)
            .all(|row| compiled.try_classify(row) == loaded.try_classify(row))
        && compiled.predict_dataset(&split.test) == loaded.predict_dataset(&split.test);

    // Cold-start timings. Every sample goes back to disk, so both sides
    // include the file read; the page cache is equally warm for both.
    let json_cold_ms = best_ms(reps, || {
        let plane =
            SavedFalccModel::load_file(&json_path).expect("load").restore().compile();
        std::hint::black_box(plane);
    });
    let artifact_cold_ms = best_ms(reps, || {
        std::hint::black_box(CompiledModel::load_artifact(&artifact_path).expect("load"));
    });

    // JSON-path breakdown, each stage isolated.
    let json_parse_ms = best_ms(reps, || {
        std::hint::black_box(SavedFalccModel::load_file(&json_path).expect("load"));
    });
    // `restore` consumes its snapshot, so every sample gets its own,
    // parsed before the timer starts.
    let snapshots: Vec<SavedFalccModel> = (0..reps.max(1))
        .map(|_| SavedFalccModel::load_file(&json_path).expect("load"))
        .collect();
    let restore_ms = snapshots
        .into_iter()
        .map(|saved| {
            let start = Instant::now();
            let restored = std::hint::black_box(saved.restore());
            let ms = start.elapsed().as_secs_f64() * 1_000.0;
            drop(restored);
            ms
        })
        .fold(f64::INFINITY, f64::min);
    let restored = SavedFalccModel::load_file(&json_path).expect("load").restore();
    let compile_ms = best_ms(reps, || {
        std::hint::black_box(restored.compile());
    });
    let artifact_validate_ms = best_ms(reps, || {
        std::hint::black_box(CompiledModelBuf::read(&artifact_path).expect("read"));
    });

    std::fs::remove_dir_all(&dir).ok();

    ArtifactsReport {
        scale,
        seed,
        reps,
        test_rows: rows.len(),
        pool_models: model.pool().models.len(),
        n_regions: compiled.n_regions(),
        flat_nodes: compiled.n_nodes(),
        json_bytes: snapshot_bytes.len(),
        artifact_bytes,
        json_cold_ms,
        json_parse_ms,
        restore_ms,
        compile_ms,
        artifact_cold_ms,
        artifact_validate_ms,
        cold_start_speedup: json_cold_ms / artifact_cold_ms.max(1e-12),
        equivalent,
        note: format!(
            "Adult (sex), whole AdaBoost grid (pool_size 0), k=8; Result sequences \
             compared on {} clean rows, {} mixed malformed rows, per-row \
             try_classify, and predict_dataset; every timing sample re-reads \
             from disk",
            rows.len(),
            mixed.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_equivalent_and_serialisable() {
        let report = bench_artifacts(0.01, 13, 1);
        assert!(report.equivalent, "artifact plane diverged from JSON restore+compile");
        assert!(report.test_rows > 0);
        assert!(report.json_bytes > 0 && report.artifact_bytes > 0);
        assert!(report.json_cold_ms > 0.0 && report.artifact_cold_ms > 0.0);
        // Restore is timed on its own, never as a difference of two minima
        // that can cancel to zero.
        assert!(report.restore_ms > 0.0);
        assert!(report.cold_start_speedup > 0.0);
        let json = serde_json::to_string(&report).expect("serialise");
        assert!(json.contains("cold_start_speedup"));
    }
}
