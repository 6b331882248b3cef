//! Thread-count invariance of the whole pipeline: fitting and batch
//! classification through the serving plane must produce
//! **bit-identical** results whether they run on 1, 2, or 8 worker
//! threads.
//!
//! This is the contract of `falcc_dataset::parallel`: work items are pure
//! functions of their index (seeds derived from the master seed + index,
//! never from a thread id), and outputs merge in input order. Any
//! violation — a racing shared RNG, a scheduling-dependent reduction — is
//! a hard failure here, not noise.

use falcc::{FairClassifier, FalccConfig, FalccModel};
use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};

struct Fitted {
    combos: Vec<Vec<usize>>,
    centroid_bits: Vec<Vec<u64>>,
    batch_preds: Vec<u8>,
    dataset_preds: Vec<u8>,
}

fn fit_with_threads(threads: usize, split_by_group: bool) -> Fitted {
    let ds = synthetic::social30(21).expect("generate");
    let ds = ds.subset(&(0..1500).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 21).expect("split");

    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    cfg.seed = 21;
    cfg.threads = threads;
    cfg.pool.split_by_group = split_by_group;
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");

    let rows: Vec<Vec<f64>> =
        (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
    // The serving plane starts from the fit's thread count.
    let compiled = model.compile();
    let dataset_preds = compiled.predict_dataset(&split.test);
    assert_eq!(dataset_preds, model.predict_dataset(&split.test), "plane ≠ reference");
    Fitted {
        combos: (0..model.n_regions()).map(|c| model.combo(c).to_vec()).collect(),
        // Compare centroids at the bit level: "close enough" floats would
        // mask exactly the nondeterminism this test exists to catch.
        centroid_bits: model
            .centroids()
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect(),
        batch_preds: compiled
            .classify_batch(&rows)
            .into_iter()
            .map(|r| r.expect("valid test rows classify"))
            .collect(),
        dataset_preds,
    }
}

#[test]
fn fit_and_batch_classify_are_invariant_across_thread_counts() {
    let reference = fit_with_threads(1, false);
    assert!(!reference.batch_preds.is_empty());
    for threads in [2, 8] {
        let run = fit_with_threads(threads, false);
        assert_eq!(run.combos, reference.combos, "combos differ at {threads} threads");
        assert_eq!(
            run.centroid_bits, reference.centroid_bits,
            "centroids differ at {threads} threads"
        );
        assert_eq!(
            run.batch_preds, reference.batch_preds,
            "batch predictions differ at {threads} threads"
        );
        assert_eq!(
            run.dataset_preds, reference.dataset_preds,
            "dataset predictions differ at {threads} threads"
        );
    }
}

#[test]
fn split_by_group_training_is_also_invariant() {
    // The split-training path fans out per-group fits; its per-group seeds
    // must come from the group id, never the worker.
    let reference = fit_with_threads(1, true);
    for threads in [2, 8] {
        let run = fit_with_threads(threads, true);
        assert_eq!(run.combos, reference.combos, "combos differ at {threads} threads");
        assert_eq!(run.batch_preds, reference.batch_preds);
    }
}

#[test]
fn log_means_pipeline_is_invariant_across_thread_counts() {
    // Same contract as above, but with LOG-Means k estimation instead of
    // the fixed test k — this exercises the memoised probe SSEs, the
    // bounded Lloyd kernel, and the online region match end to end.
    let fit = |threads: usize| -> (usize, Vec<Vec<u64>>, Vec<u8>) {
        let ds = synthetic::social30(23).expect("generate");
        let ds = ds.subset(&(0..1500).collect::<Vec<_>>()).expect("subset");
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 23).expect("split");
        let mut cfg = FalccConfig::default();
        cfg.scale_for_tests();
        cfg.clustering = falcc::ClusterSpec::LogMeans;
        cfg.seed = 23;
        cfg.threads = threads;
        let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");
        let centroid_bits = model
            .centroids()
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        (model.n_regions(), centroid_bits, model.compile().predict_dataset(&split.test))
    };
    let (k_ref, centroids_ref, preds_ref) = fit(1);
    assert!(k_ref >= 1);
    for threads in [2, 8] {
        let (k, centroids, preds) = fit(threads);
        assert_eq!(k, k_ref, "LOG-Means k differs at {threads} threads");
        assert_eq!(centroids, centroids_ref, "centroids differ at {threads} threads");
        assert_eq!(preds, preds_ref, "predictions differ at {threads} threads");
    }
}

#[test]
fn classify_batch_equals_sequential_classification() {
    let ds = synthetic::social30(22).expect("generate");
    let ds = ds.subset(&(0..1200).collect::<Vec<_>>()).expect("subset");
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 22).expect("split");
    let mut cfg = FalccConfig::default();
    cfg.scale_for_tests();
    cfg.seed = 22;
    let model = FalccModel::fit(&split.train, &split.validation, &cfg).expect("fit");

    let rows: Vec<Vec<f64>> =
        (0..split.test.len()).map(|i| split.test.row(i).to_vec()).collect();
    // The reference, row by row.
    let sequential: Vec<u8> = rows.iter().map(|r| model.classify(r)).collect();
    let reference: Vec<u8> = model
        .classify_batch(&rows)
        .into_iter()
        .map(|r| r.expect("valid test rows classify"))
        .collect();
    assert_eq!(reference, sequential, "reference batch ≠ sequential");
    let mut compiled = model.compile();
    for threads in [0, 1, 2, 8] {
        compiled.set_threads(threads);
        let batched: Vec<u8> = compiled
            .classify_batch(&rows)
            .into_iter()
            .map(|r| r.expect("valid test rows classify"))
            .collect();
        assert_eq!(batched, sequential, "batched ≠ sequential at {threads} threads");
    }
}
