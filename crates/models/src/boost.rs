//! AdaBoost over weighted CART trees.
//!
//! The paper's diverse-model-training component (§3.3) uses AdaBoost with
//! decision-tree base estimators as the default strategy, hyper-tuned over
//! `n_estimators ∈ {5, 20}`, `max_depth ∈ {1, 7}` and the split criterion.
//! This is the classic discrete AdaBoost (SAMME with two classes): each
//! round trains a tree on the current sample weights, computes the weighted
//! error `ε`, the stage weight `α = ½·ln((1−ε)/ε)`, and re-weights samples
//! multiplicatively.
//!
//! Every round trains on the same rows and attributes with new weights
//! only, so [`AdaBoost::fit`] sorts the rows once and boosts every round
//! over that one `Presort`; [`AdaBoost::fit_naive`] refits each round
//! with the re-sorting reference builder and yields a bit-identical
//! ensemble.

use crate::traits::Classifier;
use crate::tree::{DecisionTree, Presort, TreeParams};
use falcc_dataset::{AttrId, Dataset};

/// AdaBoost hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaBoostParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Base-estimator tree parameters.
    pub tree: TreeParams,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        Self { n_estimators: 20, tree: TreeParams { max_depth: 1, ..Default::default() } }
    }
}

/// A trained AdaBoost ensemble.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdaBoost {
    stages: Vec<(DecisionTree, f64)>,
    name: String,
}

impl AdaBoost {
    /// Fits the ensemble on the rows of `ds` selected by `indices` using
    /// the attributes in `attrs`. `initial_weights`, when given (parallel
    /// to `indices`), seeds the boosting distribution — the hook FairBoost
    /// uses to pre-emphasise unfairly treated samples.
    ///
    /// # Panics
    /// Panics on empty `indices`/`attrs` or mismatched weight length.
    pub fn fit(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot boost on zero samples");
        let presort = Presort::new(ds, attrs, indices);
        Self::fit_presorted(&presort, initial_weights, params, seed)
    }

    /// [`Self::fit`] over a presort of the training rows, which the caller
    /// may share with other ensembles fitted on the same rows.
    /// `initial_weights`, when given, is parallel to the presort's rows.
    ///
    /// # Panics
    /// Panics on mismatched weight length or zero rounds.
    pub(crate) fn fit_presorted(
        presort: &Presort<'_>,
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
    ) -> Self {
        let fit_round = |w: &[f64], round_seed| {
            DecisionTree::fit_presorted(presort, Some(w), &params.tree, round_seed)
        };
        let (ds, indices) = (presort.dataset(), presort.indices());
        Self::boost(ds, indices, initial_weights, params, seed, fit_round)
    }

    /// Reference implementation of [`Self::fit`]: every round refits its
    /// tree with [`DecisionTree::fit_naive`], which re-sorts at every
    /// node. Kept for the equivalence proptests; produces a bit-identical
    /// ensemble.
    ///
    /// # Panics
    /// Same conditions as [`Self::fit`].
    pub fn fit_naive(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot boost on zero samples");
        let fit_round = |w: &[f64], round_seed| {
            DecisionTree::fit_naive(ds, attrs, indices, Some(w), &params.tree, round_seed)
        };
        Self::boost(ds, indices, initial_weights, params, seed, fit_round)
    }

    /// The boosting loop; `fit_round(weights, round_seed)` trains one
    /// round's tree on the rows of `ds` in `indices`.
    fn boost(
        ds: &Dataset,
        indices: &[usize],
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
        mut fit_round: impl FnMut(&[f64], u64) -> DecisionTree,
    ) -> Self {
        assert!(params.n_estimators > 0, "need at least one boosting round");
        let n = indices.len();
        let mut w: Vec<f64> = match initial_weights {
            Some(init) => {
                assert_eq!(init.len(), n, "one initial weight per sample");
                let total: f64 = init.iter().sum();
                assert!(total > 0.0, "initial weights must have positive mass");
                init.iter().map(|v| v / total).collect()
            }
            None => vec![1.0 / n as f64; n],
        };

        let mut stages = Vec::with_capacity(params.n_estimators);
        for round in 0..params.n_estimators {
            let tree = fit_round(&w, seed ^ round as u64);
            let preds: Vec<u8> =
                indices.iter().map(|&i| tree.predict_row(ds.row(i))).collect();
            let err: f64 = indices
                .iter()
                .zip(&preds)
                .zip(&w)
                .filter(|((&i, &p), _)| p != ds.label(i))
                .map(|(_, &wi)| wi)
                .sum();

            if err <= 1e-12 {
                // Perfect weak learner: give it a large but finite weight
                // and stop — further rounds cannot change anything.
                stages.push((tree, 10.0));
                break;
            }
            if err >= 0.5 {
                // Weak learner no better than chance on this distribution;
                // scikit-learn stops here unless it is the first round.
                if stages.is_empty() {
                    stages.push((tree, 1e-10));
                }
                break;
            }
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            // Re-weight: misclassified up by e^α, correct down by e^−α.
            let mut total = 0.0;
            for (k, &i) in indices.iter().enumerate() {
                let factor =
                    if preds[k] != ds.label(i) { alpha.exp() } else { (-alpha).exp() };
                w[k] *= factor;
                total += w[k];
            }
            for wk in w.iter_mut() {
                *wk /= total;
            }
            stages.push((tree, alpha));
        }

        let name = format!(
            "adaboost[T={},d={},{}]",
            params.n_estimators,
            params.tree.max_depth,
            params.tree.criterion.short_name()
        );
        Self { stages, name }
    }

    /// Number of fitted stages (≤ `n_estimators` due to early stopping).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The `(tree, alpha)` stages in boosting order, for compilation into
    /// flat form (see [`crate::flat`]).
    pub(crate) fn stages(&self) -> &[(DecisionTree, f64)] {
        &self.stages
    }
}

impl Classifier for AdaBoost {
    fn to_spec(&self) -> Option<crate::persist::ModelSpec> {
        Some(crate::persist::ModelSpec::Boost(self.clone()))
    }

    fn predict_proba_row(&self, row: &[f64]) -> f64 {
        // Weighted vote in {−1, +1} margin space, squashed to [0, 1].
        let mut margin = 0.0;
        let mut total_alpha = 0.0;
        for (tree, alpha) in &self.stages {
            let vote = if tree.predict_row(row) == 1 { 1.0 } else { -1.0 };
            margin += alpha * vote;
            total_alpha += alpha;
        }
        if total_alpha <= 0.0 {
            return 0.5;
        }
        // Normalised margin in [−1, 1] → probability in [0, 1].
        0.5 * (margin / total_alpha + 1.0)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitCriterion;
    use falcc_dataset::Schema;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// A dataset a single stump cannot solve but boosting stumps can:
    /// label = 1 iff x ∈ [−1, 1] (needs two thresholds).
    fn interval_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-3.0..3.0)]).collect();
        let labels: Vec<u8> =
            rows.iter().map(|r| u8::from(r[0].abs() <= 1.0)).collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    fn accuracy_on(model: &dyn Classifier, ds: &Dataset) -> f64 {
        let correct = (0..ds.len())
            .filter(|&i| model.predict_row(ds.row(i)) == ds.label(i))
            .count();
        correct as f64 / ds.len() as f64
    }

    #[test]
    fn boosting_stumps_beats_a_single_stump() {
        let ds = interval_dataset(600, 1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let stump_params = TreeParams { max_depth: 1, ..Default::default() };
        let stump = DecisionTree::fit(&ds, &[0], &idx, None, &stump_params, 0);
        let boost_params = AdaBoostParams {
            n_estimators: 25,
            tree: TreeParams { max_depth: 1, ..Default::default() },
        };
        let boosted = AdaBoost::fit(&ds, &[0], &idx, None, &boost_params, 0);
        let acc_stump = accuracy_on(&stump, &ds);
        let acc_boost = accuracy_on(&boosted, &ds);
        assert!(
            acc_boost > acc_stump + 0.1,
            "boosted {acc_boost} vs stump {acc_stump}"
        );
        assert!(acc_boost > 0.9, "boosted accuracy {acc_boost}");
    }

    #[test]
    fn early_stops_on_perfect_learner() {
        // Trivially separable data: the first tree is perfect.
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let params = AdaBoostParams {
            n_estimators: 50,
            tree: TreeParams { max_depth: 3, ..Default::default() },
        };
        let model = AdaBoost::fit(&ds, &[0], &(0..20).collect::<Vec<_>>(), None, &params, 0);
        assert_eq!(model.n_stages(), 1);
        assert!((accuracy_on(&model, &ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn initial_weights_bias_the_ensemble() {
        // Two clusters with contradictory labels; upweighting one cluster
        // should make its label win everywhere a stump can't separate.
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0]).collect();
        let labels: Vec<u8> = (0..10).map(|i| u8::from(i < 5)).collect();
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let idx: Vec<usize> = (0..10).collect();
        let params = AdaBoostParams::default();
        // Heavy weight on the positive half.
        let mut w = vec![1.0; 10];
        for wi in w.iter_mut().take(5) {
            *wi = 50.0;
        }
        let model = AdaBoost::fit(&ds, &[0], &idx, Some(&w), &params, 0);
        assert_eq!(model.predict_row(&[0.0]), 1);
        // And the mirror image.
        let mut w2 = vec![1.0; 10];
        for wi in w2.iter_mut().skip(5) {
            *wi = 50.0;
        }
        let model2 = AdaBoost::fit(&ds, &[0], &idx, Some(&w2), &params, 0);
        assert_eq!(model2.predict_row(&[0.0]), 0);
    }

    #[test]
    fn proba_is_bounded_and_monotone_with_margin() {
        let ds = interval_dataset(300, 2);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams {
            n_estimators: 15,
            tree: TreeParams { max_depth: 1, criterion: SplitCriterion::Entropy, ..Default::default() },
        };
        let model = AdaBoost::fit(&ds, &[0], &idx, None, &params, 3);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            assert!((0.0..=1.0).contains(&p), "proba {p}");
        }
        // The centre of the interval should look more positive than the
        // far tails.
        assert!(model.predict_proba_row(&[0.0]) > model.predict_proba_row(&[2.9]));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = interval_dataset(200, 4);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams::default();
        let a = AdaBoost::fit(&ds, &[0], &idx, None, &params, 11);
        let b = AdaBoost::fit(&ds, &[0], &idx, None, &params, 11);
        for i in 0..ds.len() {
            assert_eq!(a.predict_row(ds.row(i)), b.predict_row(ds.row(i)));
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        let ds = interval_dataset(10, 5);
        AdaBoost::fit(&ds, &[0], &[], None, &AdaBoostParams::default(), 0);
    }
}
