//! Compiled-vs-interpreted equivalence suite.
//!
//! The compiled serving plane (`FalccModel::compile`) promises *bit
//! identity* with the interpreted online phase: for any fitted model and
//! any input — valid, malformed, or fault-injected — every entry point
//! returns exactly the same `Result<u8, RowFault>` sequence, at every
//! thread count. This suite pins that promise over randomised pools,
//! region counts, rows, and batch compositions, and checks every plane
//! against a brute-force oracle of the paper's online phase.

use std::sync::OnceLock;

use falcc::{ClusterSpec, FairClassifier, FalccConfig, FalccModel, FaultPlan, RowFault};
use falcc_dataset::synthetic::{generate, SyntheticConfig};
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_models::{ModelPool, PoolConfig, TrainerKind};

/// Thread counts to exercise (CI additionally pins `FALCC_TEST_THREADS`).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn split_of(n: usize, seed: u64) -> ThreeWaySplit {
    let mut dcfg = SyntheticConfig::social(0.3);
    dcfg.n = n;
    let ds = generate(&dcfg, seed).expect("generate");
    ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split")
}

fn config(seed: u64, k: usize, trainer: TrainerKind, pool_size: usize) -> FalccConfig {
    FalccConfig {
        clustering: ClusterSpec::FixedK(k),
        pool: PoolConfig { trainer, pool_size, ..Default::default() },
        seed,
        ..FalccConfig::default()
    }
}

/// Fitted fixtures spanning the model-family and region-count space:
/// boosted and bagged grid pools at different `k`, the `standard_five`
/// pool (tree, AdaBoost, logistic, Bayes, kNN) so every flat member
/// kind — including the kNN/opaque fallback — serves rows, and a
/// LOG-Means fit so the estimated-k path runs end to end.
fn fixtures() -> &'static Vec<(FalccModel, ThreeWaySplit)> {
    static FIXTURES: OnceLock<Vec<(FalccModel, ThreeWaySplit)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for (seed, k, trainer, pool_size) in [
            (41u64, 4usize, TrainerKind::AdaBoost, 3usize),
            (42, 2, TrainerKind::RandomForest, 4),
            (43, 6, TrainerKind::AdaBoost, 0), // whole grid
        ] {
            let split = split_of(900, seed);
            let cfg = config(seed, k, trainer, pool_size);
            let model =
                FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
            out.push((model, split));
        }
        // All five model families through fit_with_pool.
        let split = split_of(900, 44);
        let pool = ModelPool::standard_five(&split.train, 44);
        let cfg = config(44, 3, TrainerKind::AdaBoost, 0);
        let model = FalccModel::fit_with_pool(&split.validation, pool, &cfg)
            .expect("fit_with_pool");
        out.push((model, split));
        let split = split_of(900, 45);
        let cfg = FalccConfig {
            clustering: ClusterSpec::LogMeans,
            ..config(45, 0, TrainerKind::AdaBoost, 3)
        };
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
        out.push((model, split));
        out
    })
}

/// A batch interleaving valid test rows with every malformed-row kind.
fn mixed_batch(split: &ThreeWaySplit, n_valid: usize) -> Vec<Vec<f64>> {
    let width = split.test.row(0).len();
    let mut rows: Vec<Vec<f64>> =
        (0..n_valid).map(|i| split.test.row(i % split.test.len()).to_vec()).collect();
    let mut nan_row = split.test.row(0).to_vec();
    nan_row[width - 1] = f64::NAN;
    let mut inf_row = split.test.row(1).to_vec();
    inf_row[0] = f64::NEG_INFINITY;
    let mut alien = split.test.row(2).to_vec();
    alien[0] = 42.0; // sensitive attribute outside {0, 1}
    let mut wide = split.test.row(3).to_vec();
    wide.push(0.5);
    for (slot, bad) in
        [(2usize, nan_row), (5, inf_row), (7, alien), (11, vec![1.0]), (13, wide)]
    {
        if slot < rows.len() {
            rows[slot] = bad;
        } else {
            rows.push(bad);
        }
    }
    rows
}

#[test]
fn batches_with_malformed_rows_are_identical_at_all_thread_counts() {
    let env_threads: Option<usize> =
        std::env::var("FALCC_TEST_THREADS").ok().and_then(|v| v.parse().ok());
    for (fixture_idx, (model, split)) in fixtures().iter().enumerate() {
        let rows = mixed_batch(split, 40);
        let mut model = model.clone();
        let mut reference = None;
        for threads in THREAD_COUNTS.into_iter().chain(env_threads) {
            model.set_threads(threads);
            let interpreted = model.classify_batch(&rows);
            let compiled = model.compile();
            let served = compiled.classify_batch(&rows);
            assert_eq!(
                interpreted, served,
                "fixture {fixture_idx}: compiled batch diverged at {threads} threads"
            );
            match &reference {
                None => reference = Some(served),
                Some(r) => assert_eq!(
                    r, &served,
                    "fixture {fixture_idx}: thread count {threads} changed results"
                ),
            }
        }
    }
}

#[test]
fn single_row_path_is_identical_for_every_fixture() {
    for (fixture_idx, (model, split)) in fixtures().iter().enumerate() {
        let compiled = model.compile();
        for i in 0..split.test.len().min(200) {
            let row = split.test.row(i);
            assert_eq!(
                model.try_classify(row),
                compiled.try_classify(row),
                "fixture {fixture_idx} row {i}"
            );
        }
        for bad in mixed_batch(split, 3) {
            assert_eq!(model.try_classify(&bad), compiled.try_classify(&bad));
        }
    }
}

#[test]
fn predict_dataset_override_is_identical() {
    for (fixture_idx, (model, split)) in fixtures().iter().enumerate() {
        let compiled = model.compile();
        assert_eq!(
            model.predict_dataset(&split.test),
            compiled.predict_dataset(&split.test),
            "fixture {fixture_idx}"
        );
    }
}

#[test]
fn injected_fault_plans_degrade_identically() {
    let (model, split) = &fixtures()[0];
    let mut model = model.clone();
    let mut plan = FaultPlan::default();
    plan.poison_row(1).poison_row(6);
    model.set_fault_plan(plan);
    let rows = mixed_batch(split, 12);
    let compiled = model.compile();
    let interpreted = model.classify_batch(&rows);
    let served = compiled.classify_batch(&rows);
    assert!(interpreted[1].is_err() && interpreted[6].is_err());
    assert_eq!(interpreted, served);
}

/// The binary artifact round trip (`CompiledModel -> artifact bytes ->
/// CompiledModelBuf::load`) must reproduce the fresh `compile()` plane
/// bit-for-bit: identical `Result<u8, RowFault>` sequences on mixed
/// valid/malformed batches at every thread count, for every fixture —
/// including the kNN-delegating `standard_five` pool, whose opaque
/// members travel as specs in the metadata section.
#[test]
fn artifact_round_trip_serves_identically_at_all_thread_counts() {
    let env_threads: Option<usize> =
        std::env::var("FALCC_TEST_THREADS").ok().and_then(|v| v.parse().ok());
    for (fixture_idx, (model, split)) in fixtures().iter().enumerate() {
        let rows = mixed_batch(split, 40);
        let compiled = model.compile();
        let bytes =
            compiled.to_artifact_bytes(0xf1f0 + fixture_idx as u64).expect("serialise");
        let buf = falcc::CompiledModelBuf::from_bytes(bytes).expect("validate");
        // One read-only buffer serves any number of replicas.
        let mut loaded = buf.load_if_fresh(0xf1f0 + fixture_idx as u64).expect("load");
        let replica = buf.load().expect("second load from the same buffer");
        assert_eq!(
            replica.classify_batch(&rows),
            loaded.classify_batch(&rows),
            "fixture {fixture_idx}: replicas from one buffer diverged"
        );
        let mut compiled = compiled;
        for threads in THREAD_COUNTS.into_iter().chain(env_threads) {
            compiled.set_threads(threads);
            loaded.set_threads(threads);
            assert_eq!(
                compiled.classify_batch(&rows),
                loaded.classify_batch(&rows),
                "fixture {fixture_idx}: artifact plane diverged at {threads} threads"
            );
        }
        assert_eq!(
            compiled.predict_dataset(&split.test),
            loaded.predict_dataset(&split.test),
            "fixture {fixture_idx}: dataset override diverged"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    // Random fixture, random batch composition (valid rows drawn from
    // anywhere in the test split, malformed rows interleaved at random
    // positions with random poison kinds), random thread count: the
    // compiled plane must emit the identical Result sequence, and each
    // row's verdict must equal the single-row paths of both planes.
    #[test]
    fn random_batches_serve_identically(
        fixture_idx in 0usize..5,
        start in 0usize..500,
        len in 1usize..48,
        poison_at in 0usize..48,
        poison_kind in 0u8..5,
        threads_idx in 0usize..3,
    ) {
        let (model, split) = &fixtures()[fixture_idx];
        let mut model = model.clone();
        model.set_threads(THREAD_COUNTS[threads_idx]);
        let mut rows: Vec<Vec<f64>> = (0..len)
            .map(|i| split.test.row((start + i) % split.test.len()).to_vec())
            .collect();
        if poison_at < rows.len() {
            let width = rows[poison_at].len();
            match poison_kind {
                0 => rows[poison_at][width / 2] = f64::NAN,
                1 => rows[poison_at][width - 1] = f64::INFINITY,
                2 => rows[poison_at][0] = 9.0, // out-of-domain sensitive
                3 => rows[poison_at] = vec![0.25; 2],
                _ => {} // leave the batch fully valid
            }
        }
        let compiled = model.compile();
        let interpreted = model.classify_batch(&rows);
        let served = compiled.classify_batch(&rows);
        proptest::prop_assert_eq!(&interpreted, &served);
        // The persisted-artifact plane is the same plane: load from the
        // fixture's shared buffer and demand the identical sequence.
        let mut loaded = artifact_buffers()[fixture_idx].load().expect("artifact load");
        loaded.set_threads(THREAD_COUNTS[threads_idx]);
        proptest::prop_assert_eq!(&interpreted, &loaded.classify_batch(&rows));
        for (i, row) in rows.iter().enumerate() {
            let single_interpreted = model.try_classify(row);
            let single_compiled = compiled.try_classify(row);
            proptest::prop_assert_eq!(&single_interpreted, &single_compiled);
            proptest::prop_assert_eq!(&single_interpreted, &loaded.try_classify(row));
            proptest::prop_assert_eq!(&interpreted[i], &single_interpreted, "row {}", i);
        }
    }
}

/// One validated artifact buffer per fixture, shared across proptest
/// cases the way replicas would share it in production.
fn artifact_buffers() -> &'static Vec<falcc::CompiledModelBuf> {
    static BUFFERS: OnceLock<Vec<falcc::CompiledModelBuf>> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        fixtures()
            .iter()
            .map(|(model, _)| {
                let bytes = model.compile().to_artifact_bytes(0).expect("serialise");
                falcc::CompiledModelBuf::from_bytes(bytes).expect("validate")
            })
            .collect()
    })
}

/// The paper's online phase (§3.7) as a brute-force oracle built only
/// from public accessors: project the row, take the first strictly
/// nearest centroid, and ask the pool member that region's combination
/// names for the row's sensitive group.
fn oracle_label(model: &FalccModel, row: &[f64]) -> u8 {
    let projected = model.proxy_outcome().project_row(row);
    let mut nearest = (0usize, f64::INFINITY);
    for (c, centroid) in model.centroids().iter().enumerate() {
        let d: f64 = projected.iter().zip(centroid).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < nearest.1 {
            nearest = (c, d);
        }
    }
    let group = model.schema().group_index().group_of(row).expect("valid row");
    let member = model.combo(nearest.0)[group.index()];
    model.pool().models[member].model.predict_row(row)
}

/// Index of the row every law-test batch poisons through its fault plan.
const POISONED: usize = 3;

/// Checks one plane's three entry points against the oracle labels.
fn assert_plane_matches_oracle(
    at: &str,
    oracle: &[u8],
    rows: &[Vec<f64>],
    try_classify: impl Fn(&[f64]) -> Result<u8, RowFault>,
    batch: &[Result<u8, RowFault>],
    dataset: &[u8],
) {
    assert_eq!(dataset, oracle, "{at}: predict_dataset");
    for (i, (row, &expected)) in rows.iter().zip(oracle).enumerate() {
        assert_eq!(try_classify(row), Ok(expected), "{at}: try_classify row {i}");
        let served =
            if i == POISONED { Err(RowFault::NonFinite { column: 0 }) } else { Ok(expected) };
        assert_eq!(batch[i], served, "{at}: classify_batch row {i}");
    }
}

/// Law: every label served by every entry point of every plane —
/// interpreted, compiled, and artifact-loaded — equals the oracle's, at
/// every thread count. The row a fault plan poisons is rejected in
/// batches, and every other row of that batch still matches the oracle.
#[test]
fn served_labels_equal_the_nearest_region_oracle() {
    let env_threads: Option<usize> =
        std::env::var("FALCC_TEST_THREADS").ok().and_then(|v| v.parse().ok());
    for (fixture_idx, (model, split)) in fixtures().iter().enumerate() {
        let rows: Vec<Vec<f64>> =
            (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
        let oracle: Vec<u8> = rows.iter().map(|row| oracle_label(model, row)).collect();
        let mut plan = FaultPlan::default();
        plan.poison_row(POISONED as u64);

        let mut interpreted = model.clone();
        interpreted.set_fault_plan(plan.clone());
        let mut compiled = model.compile();
        compiled.set_fault_plan(plan.clone());
        let bytes = compiled.to_artifact_bytes(0).expect("serialise");
        let mut loaded = falcc::CompiledModelBuf::from_bytes(bytes)
            .expect("validate")
            .load()
            .expect("load");
        loaded.set_fault_plan(plan);

        for threads in THREAD_COUNTS.into_iter().chain(env_threads) {
            interpreted.set_threads(threads);
            compiled.set_threads(threads);
            loaded.set_threads(threads);
            let at =
                |plane: &str| format!("fixture {fixture_idx}, {plane} plane, {threads} threads");
            assert_plane_matches_oracle(
                &at("interpreted"),
                &oracle,
                &rows,
                |row| interpreted.try_classify(row),
                &interpreted.classify_batch(&rows),
                &interpreted.predict_dataset(&split.test),
            );
            assert_plane_matches_oracle(
                &at("compiled"),
                &oracle,
                &rows,
                |row| compiled.try_classify(row),
                &compiled.classify_batch(&rows),
                &compiled.predict_dataset(&split.test),
            );
            assert_plane_matches_oracle(
                &at("artifact"),
                &oracle,
                &rows,
                |row| loaded.try_classify(row),
                &loaded.classify_batch(&rows),
                &loaded.predict_dataset(&split.test),
            );
        }
    }
}
