//! The paper's hyperparameter grid for diverse model training (§3.3).
//!
//! "… yielding number of estimators ∈ {5, 20}, maximum depth of a decision
//! tree ∈ {1, 7}, and the splitting criterion ∈ {gini, entropy}" — eight
//! configurations per trainer family (AdaBoost by default, random forests
//! as the bagging alternative).

use crate::boost::{AdaBoost, AdaBoostParams};
use crate::forest::{RandomForest, RandomForestParams};
use crate::traits::Classifier;
use crate::tree::{Presort, SplitCriterion, TreeParams};
use falcc_dataset::{AttrId, Dataset};
use std::sync::Arc;

/// Which ensemble family a grid point trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerKind {
    /// Boosting (the paper's default — more stable diversity).
    AdaBoost,
    /// Bagging.
    RandomForest,
}

/// One hyperparameter configuration.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Trainer family.
    pub trainer: TrainerKind,
    /// Number of base estimators.
    pub n_estimators: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Split criterion.
    pub criterion: SplitCriterion,
}

impl GridPoint {
    /// Trains this configuration on the rows of `ds` in `indices`, using
    /// the attributes in `attrs`.
    pub fn fit(
        &self,
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        seed: u64,
    ) -> Arc<dyn Classifier> {
        match self.trainer {
            TrainerKind::AdaBoost => {
                let params = self.boost_params();
                Arc::new(AdaBoost::fit(ds, attrs, indices, None, &params, seed))
            }
            TrainerKind::RandomForest => {
                let params = RandomForestParams {
                    n_estimators: self.n_estimators,
                    tree: self.tree_params(),
                    ..Default::default()
                };
                Arc::new(RandomForest::fit(ds, attrs, indices, &params, seed))
            }
        }
    }

    /// [`Self::fit`] for an AdaBoost point over a presort of the training
    /// rows that every AdaBoost point of a grid shares. Random-forest
    /// points bootstrap their own rows per tree and take no presort.
    ///
    /// # Panics
    /// Panics if this is not an AdaBoost point.
    pub(crate) fn fit_presorted(&self, presort: &Presort<'_>, seed: u64) -> Arc<dyn Classifier> {
        assert!(self.trainer == TrainerKind::AdaBoost, "presort is for boosting");
        let params = self.boost_params();
        Arc::new(AdaBoost::fit_presorted(presort, None, &params, seed))
    }

    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            criterion: self.criterion,
            ..Default::default()
        }
    }

    fn boost_params(&self) -> AdaBoostParams {
        AdaBoostParams {
            n_estimators: self.n_estimators,
            tree: self.tree_params(),
        }
    }
}

/// The paper's 8-point grid for a trainer family.
pub fn paper_grid(trainer: TrainerKind) -> Vec<GridPoint> {
    let mut grid = Vec::with_capacity(8);
    for &n_estimators in &[5usize, 20] {
        for &max_depth in &[1usize, 7] {
            for &criterion in &[SplitCriterion::Gini, SplitCriterion::Entropy] {
                grid.push(GridPoint { trainer, n_estimators, max_depth, criterion });
            }
        }
    }
    grid
}

/// The default grid (AdaBoost family), matching the paper's default.
pub const PAPER_GRID: fn(TrainerKind) -> Vec<GridPoint> = paper_grid;

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::Schema;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec!["a".into(), "b".into()], vec![], "y").unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)])
            .collect();
        let labels: Vec<u8> = rows.iter().map(|r| u8::from(r[0] > 0.0)).collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    #[test]
    fn grid_has_eight_points() {
        let grid = paper_grid(TrainerKind::AdaBoost);
        assert_eq!(grid.len(), 8);
        // All parameter combinations present.
        let mut seen = std::collections::HashSet::new();
        for p in &grid {
            seen.insert((p.n_estimators, p.max_depth, p.criterion.short_name()));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn every_grid_point_trains_a_working_model() {
        let ds = dataset(200);
        let idx: Vec<usize> = (0..ds.len()).collect();
        for trainer in [TrainerKind::AdaBoost, TrainerKind::RandomForest] {
            let mut best_acc = 0.0f64;
            for p in paper_grid(trainer) {
                let model = p.fit(&ds, &[0, 1], &idx, 1);
                let acc = (0..ds.len())
                    .filter(|&i| model.predict_row(ds.row(i)) == ds.label(i))
                    .count() as f64
                    / ds.len() as f64;
                // Weak configs (depth-1 forests over subsampled features)
                // only need to beat chance; the grid's point is diversity.
                assert!(acc > 0.55, "{} accuracy {acc}", model.name());
                best_acc = best_acc.max(acc);
            }
            assert!(best_acc > 0.85, "strongest {trainer:?} config only reached {best_acc}");
        }
    }
}
