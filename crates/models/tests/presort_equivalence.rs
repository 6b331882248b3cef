//! Proof-of-equivalence suite for the presorted CART builder: over
//! arbitrary data — including heavy value ties, per-sample weights, and
//! random feature subsampling — `DecisionTree::fit` must produce a tree
//! that is *structurally identical* (same nodes, same float thresholds
//! bit-for-bit via `PartialEq`) to the per-node re-sorting reference
//! `fit_naive`.
//!
//! Ties are the hard part: the presorted builder visits equal feature
//! values in the stable order of the initial sort, the naive builder in
//! the stable order of its per-node sort, and only because both sorts are
//! stable and the partition preserves relative order do the candidate
//! scans see the same sequence — and hence accumulate the same floats.
//! The presorted builder also screens: once a node has a best split, it
//! skips whole 64-cut blocks whose corner bound cannot beat it, and under
//! entropy single cuts whose chord bound cannot. The weighted cases draw
//! heavy-tailed weights so the bounds are exercised off their knots, the
//! multi-block cases give nodes of up to 2,000 rows, and a release-only
//! check fits the benchmark's full 23,000-row training split.
//!
//! AdaBoost sorts its rows once and boosts every round over that one
//! presort, each round's tree partitioning a fresh copy of the sorted
//! orders; it must equal the ensemble that refits every round with the
//! naive builder.

use falcc_dataset::{real, Dataset, Schema, SplitRatios, ThreeWaySplit};
use falcc_models::{AdaBoost, AdaBoostParams, DecisionTree, SplitCriterion, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dataset whose feature values are drawn from a small discrete grid so
/// duplicate values (split-scan ties) are common, with 3 features.
fn tied_dataset() -> impl Strategy<Value = Dataset> {
    (10usize..70)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(-4i8..=4, n * 3),
                prop::collection::vec(0u8..=1, n),
            )
        })
        .prop_map(|(grid, labels)| {
            let flat: Vec<f64> = grid.into_iter().map(|v| f64::from(v) * 0.5).collect();
            let schema = Schema::new(
                vec!["a".into(), "b".into(), "c".into()],
                vec![],
                "y",
            )
            .expect("schema");
            Dataset::from_flat(schema, flat, labels).expect("dataset")
        })
}

/// 200–2,000 rows, so a node's scan spans many 64-cut blocks: one
/// continuous attribute and two on a small grid (heavy ties), with labels
/// that follow the attributes through noise, so the best gains grow and
/// whole blocks get screened.
fn multi_block_dataset() -> impl Strategy<Value = Dataset> {
    (200usize..2_000)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(-1.0f64..1.0, n),
                prop::collection::vec(-4i8..=4, n * 2),
                prop::collection::vec(-1.0f64..1.0, n),
            )
        })
        .prop_map(|(continuous, grid, noise)| {
            let n = continuous.len();
            let mut flat = Vec::with_capacity(n * 3);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let (b, c) = (f64::from(grid[2 * i]) * 0.5, f64::from(grid[2 * i + 1]) * 0.5);
                flat.extend([continuous[i], b, c]);
                labels.push(u8::from(continuous[i] + 0.2 * b - 0.1 * c + 0.6 * noise[i] > 0.0));
            }
            let schema = Schema::new(
                vec!["a".into(), "b".into(), "c".into()],
                vec![],
                "y",
            )
            .expect("schema");
            Dataset::from_flat(schema, flat, labels).expect("dataset")
        })
}

fn weights_for(n: usize) -> impl Strategy<Value = Option<Vec<f64>>> {
    (0u8..=1, prop::collection::vec(0.1f64..3.0, n))
        .prop_map(|(some, w)| (some == 1).then_some(w))
}

/// Heavy-tailed weights: cubes of uniforms span over four orders of
/// magnitude, so child proportions land anywhere between the entropy
/// screen's knots.
fn cubed_weights_for(n: usize) -> impl Strategy<Value = Option<Vec<f64>>> {
    weights_for(n).prop_map(|w| w.map(|us| us.into_iter().map(|u| u * u * u).collect()))
}

fn criterion(entropy: u8) -> SplitCriterion {
    if entropy == 1 { SplitCriterion::Entropy } else { SplitCriterion::Gini }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn presorted_tree_equals_naive_tree(
        ds in tied_dataset(),
        depth in 1usize..8,
        min_leaf in 1usize..4,
        seed in 0u64..1_000,
        entropy in 0u8..=1,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            criterion: criterion(entropy),
            max_features: None,
        };
        let fast = DecisionTree::fit(&ds, &[0, 1, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_weighted(
        (ds, weights) in tied_dataset().prop_flat_map(|ds| {
            let n = ds.len();
            (Just(ds), cubed_weights_for(n))
        }),
        depth in 1usize..8,
        min_leaf in 1usize..4,
        seed in 0u64..1_000,
        entropy in 0u8..=1,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            criterion: criterion(entropy),
            max_features: None,
        };
        let fast =
            DecisionTree::fit(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        let naive =
            DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_with_feature_subsampling(
        ds in tied_dataset(),
        max_features in 1usize..4,
        seed in 0u64..1_000,
    ) {
        // Both builders must consume their per-node RNG identically, or
        // the candidate sets diverge on the first split.
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: 7,
            max_features: Some(max_features),
            ..TreeParams::default()
        };
        let fast = DecisionTree::fit(&ds, &[0, 1, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn boosting_over_one_presort_equals_naive_refits(
        (ds, weights) in tied_dataset().prop_flat_map(|ds| {
            let n = ds.len();
            (Just(ds), weights_for(n))
        }),
        depth in 1usize..8,
        rounds in 3usize..7,
        seed in 0u64..1_000,
        entropy in 0u8..=1,
    ) {
        // Every round after the first must start from the presort's
        // orders, not from the orders the previous round partitioned.
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams {
            n_estimators: rounds,
            tree: TreeParams {
                max_depth: depth,
                criterion: criterion(entropy),
                ..TreeParams::default()
            },
        };
        let w = weights.as_deref();
        let fast = AdaBoost::fit(&ds, &[0, 1, 2], &idx, w, &params, seed);
        let naive = AdaBoost::fit_naive(&ds, &[0, 1, 2], &idx, w, &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_on_subset(
        ds in tied_dataset(),
        seed in 0u64..1_000,
    ) {
        // Training on a strided subset exercises non-contiguous index
        // slots in the presorted order.
        let idx: Vec<usize> = (0..ds.len()).step_by(2).collect();
        let params = TreeParams { max_depth: 5, ..TreeParams::default() };
        let fast = DecisionTree::fit(&ds, &[0, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn presorted_tree_equals_naive_tree_across_blocks(
        (ds, weights) in multi_block_dataset().prop_flat_map(|ds| {
            let n = ds.len();
            (Just(ds), cubed_weights_for(n))
        }),
        depth in 1usize..=8,
        min_leaf in 1usize..100,
        seed in 0u64..1_000,
        entropy in 0u8..=1,
    ) {
        // Leaves of up to 99 rows put the leaf-size filter across block
        // boundaries too.
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            criterion: criterion(entropy),
            max_features: None,
        };
        let fast =
            DecisionTree::fit(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        let naive =
            DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        prop_assert_eq!(fast, naive);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale fits; CI runs it in release")]
fn presorted_tree_equals_naive_tree_at_full_scale() {
    // The benchmark's fit: Adult (sex) at scale 1.0, whose training split
    // has 23,000 rows, under heavy-tailed weights like late boosting
    // rounds'.
    let ds = real::adult_sex().generate(9, 1.0).expect("Adult (sex)");
    let train = ThreeWaySplit::split(&ds, SplitRatios::PAPER, 9).expect("split").train;
    assert_eq!(train.len(), 23_000);
    let attrs: Vec<usize> = (0..train.n_attrs()).collect();
    let idx: Vec<usize> = (0..train.len()).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let weights: Vec<f64> = idx.iter().map(|_| rng.gen_range(0.1f64..3.0).powi(3)).collect();
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        let params = TreeParams { max_depth: 7, criterion, ..TreeParams::default() };
        let fast = DecisionTree::fit(&train, &attrs, &idx, Some(&weights), &params, 9);
        let naive = DecisionTree::fit_naive(&train, &attrs, &idx, Some(&weights), &params, 9);
        assert_eq!(fast, naive, "{criterion:?}");
    }
}
