//! Property-based tests over the model substrate: every trainer must
//! accept arbitrary (finite) data without panicking and produce valid
//! probabilities, weighted training must degenerate correctly, and every
//! tree-based model must read back from its JSON form unchanged.

use falcc_dataset::{Dataset, Schema};
use falcc_models::bayes::GaussianNb;
use falcc_models::linear::{LogisticParams, LogisticRegression};
use falcc_models::tree::{DecisionTree, TreeParams};
use falcc_models::{
    AdaBoost, AdaBoostParams, Classifier, ModelSpec, RandomForest, RandomForestParams,
    SplitCriterion,
};
use proptest::prelude::*;

/// Strategy: a dataset of n ∈ [8, 60] rows with 2 features and arbitrary
/// binary labels (at least one of each class not guaranteed — trainers
/// must cope with single-class data too).
fn arbitrary_dataset() -> impl Strategy<Value = Dataset> {
    (8usize..60)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(-50.0f64..50.0, n * 2),
                prop::collection::vec(0u8..=1, n),
            )
        })
        .prop_map(|(flat, labels)| {
            let schema =
                Schema::new(vec!["a".into(), "b".into()], vec![], "y").expect("schema");
            Dataset::from_flat(schema, flat, labels).expect("dataset")
        })
}

/// An arbitrary dataset with optional non-negative per-row weights, zero
/// included.
fn weighted_dataset() -> impl Strategy<Value = (Dataset, Option<Vec<f64>>)> {
    arbitrary_dataset().prop_flat_map(|ds| {
        let n = ds.len();
        (Just(ds), 0u8..=1, prop::collection::vec(0.0f64..5.0, n))
            .prop_map(|(ds, some, w)| (ds, (some == 1).then_some(w)))
    })
}

/// Tree parameters over depths 0–8, leaves of 1–3 rows, both criteria, and
/// with or without feature subsampling.
fn tree_params() -> impl Strategy<Value = TreeParams> {
    (0usize..=8, 1usize..=3, 0u8..=1, 0usize..=2).prop_map(
        |(max_depth, min_samples_leaf, entropy, max_features)| TreeParams {
            max_depth,
            min_samples_leaf,
            criterion: if entropy == 1 { SplitCriterion::Entropy } else { SplitCriterion::Gini },
            max_features: (max_features > 0).then_some(max_features),
        },
    )
}

/// `spec` written to JSON and read back.
fn json_round_trip(spec: &ModelSpec) -> ModelSpec {
    let json = serde_json::to_string(spec).expect("serialise");
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{e}: {json}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fitted_trees_round_trip_through_json(
        (ds, weights) in weighted_dataset(),
        params in tree_params(),
        seed in 0u64..1_000,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let w = weights.as_deref();
        for tree in [
            DecisionTree::fit(&ds, &[0, 1], &idx, w, &params, seed),
            DecisionTree::fit_naive(&ds, &[0, 1], &idx, w, &params, seed),
        ] {
            match json_round_trip(&ModelSpec::Tree(tree.clone())) {
                ModelSpec::Tree(back) => prop_assert_eq!(back, tree),
                other => prop_assert!(false, "a tree read back as {other:?}"),
            }
        }
    }

    #[test]
    fn fitted_ensembles_round_trip_through_json(
        (ds, weights) in weighted_dataset(),
        tree in tree_params(),
        rounds in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let boost_params = AdaBoostParams { n_estimators: rounds, tree };
        let boost = AdaBoost::fit(&ds, &[0, 1], &idx, weights.as_deref(), &boost_params, seed);
        match json_round_trip(&ModelSpec::Boost(boost.clone())) {
            ModelSpec::Boost(back) => prop_assert_eq!(back, boost),
            other => prop_assert!(false, "AdaBoost read back as {other:?}"),
        }
        let forest_params = RandomForestParams { n_estimators: rounds, tree, ..Default::default() };
        let forest = RandomForest::fit(&ds, &[0, 1], &idx, &forest_params, seed);
        match json_round_trip(&ModelSpec::Forest(forest.clone())) {
            ModelSpec::Forest(back) => prop_assert_eq!(back, forest),
            other => prop_assert!(false, "a forest read back as {other:?}"),
        }
    }

    #[test]
    fn tree_probabilities_are_valid(ds in arbitrary_dataset(), depth in 0usize..6) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams { max_depth: depth, ..Default::default() };
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 1);
        for i in 0..ds.len() {
            let p = tree.predict_proba_row(ds.row(i));
            prop_assert!((0.0..=1.0).contains(&p), "proba {p}");
        }
        prop_assert!(tree.depth() <= depth);
    }

    #[test]
    fn uniform_unit_weights_equal_no_weights(ds in arbitrary_dataset()) {
        // Weight 1.0 exactly reproduces the unweighted arithmetic. (Other
        // constants scale the float rounding at split ties, which can
        // legitimately select a different equal-gain split.)
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams::default();
        let unweighted = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 2);
        let w = vec![1.0; ds.len()];
        let weighted = DecisionTree::fit(&ds, &[0, 1], &idx, Some(&w), &params, 2);
        for i in 0..ds.len() {
            prop_assert_eq!(
                unweighted.predict_row(ds.row(i)),
                weighted.predict_row(ds.row(i))
            );
        }
    }

    #[test]
    fn boosting_never_panics_and_bounds_probabilities(
        ds in arbitrary_dataset(),
        rounds in 1usize..12,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams {
            n_estimators: rounds,
            tree: TreeParams { max_depth: 2, ..Default::default() },
        };
        let model = AdaBoost::fit(&ds, &[0, 1], &idx, None, &params, 3);
        prop_assert!(model.n_stages() >= 1);
        prop_assert!(model.n_stages() <= rounds);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            prop_assert!((0.0..=1.0).contains(&p), "proba {p}");
        }
    }

    #[test]
    fn forest_probability_is_a_vote_fraction(ds in arbitrary_dataset()) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = RandomForestParams { n_estimators: 5, ..Default::default() };
        let model = RandomForest::fit(&ds, &[0, 1], &idx, &params, 4);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            let scaled = p * 5.0;
            prop_assert!((scaled - scaled.round()).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn logistic_regression_outputs_finite_probabilities(ds in arbitrary_dataset()) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = LogisticParams { epochs: 50, ..Default::default() };
        let model = LogisticRegression::fit(&ds, &[0, 1], &idx, &params);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn naive_bayes_handles_any_binary_labeling(ds in arbitrary_dataset()) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let model = GaussianNb::fit(&ds, &[0, 1], &idx);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn training_on_a_subset_only_uses_that_subset(ds in arbitrary_dataset()) {
        // Train on the first half only; mutating the *second* half of the
        // dataset must not change predictions (trainer honours `indices`).
        let half = ds.len() / 2;
        let idx: Vec<usize> = (0..half).collect();
        if idx.len() < 2 {
            return Ok(());
        }
        let params = TreeParams::default();
        let tree = DecisionTree::fit(&ds, &[0, 1], &idx, None, &params, 5);
        // Rebuild a dataset where the unused rows are replaced by noise.
        let mut rows: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.row(i).to_vec()).collect();
        let mut labels = ds.labels().to_vec();
        for (j, row) in rows.iter_mut().enumerate().skip(half) {
            row[0] += 1000.0;
            row[1] -= 1000.0;
            labels[j] ^= 1;
        }
        let mutated =
            Dataset::from_rows(ds.schema().clone(), rows, labels).expect("dataset");
        let tree2 = DecisionTree::fit(&mutated, &[0, 1], &idx, None, &params, 5);
        for i in 0..half {
            prop_assert_eq!(tree.predict_row(ds.row(i)), tree2.predict_row(ds.row(i)));
        }
    }
}
