//! Random forests: bootstrap aggregation of feature-subsampled CART trees.
//!
//! The paper's alternative diverse-training strategy (§3.3). Trees vote;
//! the probability estimate is the fraction of trees voting positive.

use crate::traits::Classifier;
use crate::tree::{DecisionTree, TreeParams};
use falcc_dataset::{AttrId, Dataset};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Per-tree parameters. `max_features` defaults to √d when `None`.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training size.
    pub sample_fraction: f64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 20,
            tree: TreeParams { max_depth: 7, ..Default::default() },
            sample_fraction: 1.0,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    name: String,
}

impl RandomForest {
    /// Fits the forest on the rows of `ds` selected by `indices`, using the
    /// attributes in `attrs`.
    ///
    /// # Panics
    /// Panics on empty `indices`/`attrs` or zero estimators.
    pub fn fit(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        params: &RandomForestParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a forest on zero samples");
        assert!(params.n_estimators > 0, "need at least one tree");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1_b7_27_22_0a_95);
        let boot_n =
            ((indices.len() as f64 * params.sample_fraction).round() as usize).max(1);
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            let sqrt_d = (attrs.len() as f64).sqrt().round() as usize;
            tree_params.max_features = Some(sqrt_d.max(1));
        }
        let trees: Vec<DecisionTree> = (0..params.n_estimators)
            .map(|t| {
                let boot: Vec<usize> = (0..boot_n)
                    .map(|_| indices[rng.gen_range(0..indices.len())])
                    .collect();
                DecisionTree::fit(ds, attrs, &boot, None, &tree_params, seed ^ (t as u64) << 17)
            })
            .collect();
        let name = format!(
            "forest[T={},d={},{}]",
            params.n_estimators,
            params.tree.max_depth,
            params.tree.criterion.short_name()
        );
        Self { trees, name }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees in training order, for compilation into flat form
    /// (see [`crate::flat`]).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Classifier for RandomForest {
    fn to_spec(&self) -> Option<crate::persist::ModelSpec> {
        Some(crate::persist::ModelSpec::Forest(self.clone()))
    }

    fn predict_proba_row(&self, row: &[f64]) -> f64 {
        let votes = self
            .trees
            .iter()
            .filter(|t| t.predict_row(row) == 1)
            .count();
        votes as f64 / self.trees.len() as f64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_two_feature_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec!["a".into(), "b".into()], vec![], "y").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)])
            .collect();
        let labels: Vec<u8> = rows
            .iter()
            .map(|r| u8::from(r[0] + 0.5 * r[1] > 0.0))
            .collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    #[test]
    fn forest_learns_a_linear_boundary_well() {
        let ds = noisy_two_feature_dataset(800, 1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let forest = RandomForest::fit(&ds, &[0, 1], &idx, &RandomForestParams::default(), 0);
        let correct = (0..ds.len())
            .filter(|&i| forest.predict_row(ds.row(i)) == ds.label(i))
            .count();
        let acc = correct as f64 / ds.len() as f64;
        assert!(acc > 0.9, "forest accuracy {acc}");
        assert_eq!(forest.n_trees(), 20);
    }

    #[test]
    fn proba_is_a_vote_fraction() {
        let ds = noisy_two_feature_dataset(200, 2);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = RandomForestParams { n_estimators: 4, ..Default::default() };
        let forest = RandomForest::fit(&ds, &[0, 1], &idx, &params, 0);
        for i in 0..20 {
            let p = forest.predict_proba_row(ds.row(i));
            // With 4 trees the fraction is a multiple of 0.25.
            assert!((p * 4.0 - (p * 4.0).round()).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn trees_differ_thanks_to_bootstrap_and_subsampling() {
        let ds = noisy_two_feature_dataset(300, 3);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = RandomForestParams { n_estimators: 10, ..Default::default() };
        let forest = RandomForest::fit(&ds, &[0, 1], &idx, &params, 4);
        // At least one row should receive a non-unanimous vote.
        let non_unanimous = (0..ds.len()).any(|i| {
            let p = forest.predict_proba_row(ds.row(i));
            p > 0.0 && p < 1.0
        });
        assert!(non_unanimous, "all trees identical — bootstrap not working");
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = noisy_two_feature_dataset(150, 5);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let a = RandomForest::fit(&ds, &[0, 1], &idx, &RandomForestParams::default(), 9);
        let b = RandomForest::fit(&ds, &[0, 1], &idx, &RandomForestParams::default(), 9);
        for i in 0..ds.len() {
            assert_eq!(
                a.predict_proba_row(ds.row(i)),
                b.predict_proba_row(ds.row(i))
            );
        }
    }
}
