//! Serialisable form of the built-in models.
//!
//! Trained pools hold `Arc<dyn Classifier>`, which cannot be serialised
//! directly. Every built-in model instead exposes itself as a
//! [`ModelSpec`] via [`Classifier::to_spec`]; external/custom classifiers
//! return `None` and are reported as unsupported at save time rather than
//! silently dropped.

use crate::bayes::GaussianNb;
use crate::boost::AdaBoost;
use crate::forest::RandomForest;
use crate::knn_model::KnnClassifier;
use crate::linear::LogisticRegression;
use crate::traits::Classifier;
use crate::tree::DecisionTree;
use falcc_dataset::AttrId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serialisable snapshot of one trained built-in model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ModelSpec {
    /// CART decision tree.
    Tree(DecisionTree),
    /// AdaBoost ensemble.
    Boost(AdaBoost),
    /// Random forest.
    Forest(RandomForest),
    /// Logistic regression.
    Logistic(LogisticRegression),
    /// Gaussian naive Bayes.
    Bayes(GaussianNb),
    /// kNN classifier (stores its training data).
    Knn(KnnClassifier),
}

impl ModelSpec {
    /// Rehydrates the snapshot into a usable classifier.
    pub fn into_classifier(self) -> Arc<dyn Classifier> {
        match self {
            Self::Tree(m) => Arc::new(m),
            Self::Boost(m) => Arc::new(m),
            Self::Forest(m) => Arc::new(m),
            Self::Logistic(m) => Arc::new(m),
            Self::Bayes(m) => Arc::new(m),
            Self::Knn(m) => Arc::new(m),
        }
    }

    /// The largest attribute a split of the spec's trees reads; `None`
    /// when the spec holds no split. A restore checks it against the row
    /// width, which the spec itself does not record.
    pub fn max_split_attr(&self) -> Option<AttrId> {
        let trees: Vec<&DecisionTree> = match self {
            Self::Tree(tree) => vec![tree],
            Self::Boost(boost) => boost.stages().iter().map(|(tree, _)| tree).collect(),
            Self::Forest(forest) => forest.trees().iter().collect(),
            Self::Logistic(_) | Self::Bayes(_) | Self::Knn(_) => Vec::new(),
        };
        trees.into_iter().filter_map(DecisionTree::max_split_attr).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use falcc_dataset::{Dataset, Schema};

    fn toy() -> Dataset {
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    #[test]
    fn every_builtin_round_trips_through_json() {
        let ds = toy();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let models: Vec<Arc<dyn Classifier>> = vec![
            Arc::new(DecisionTree::fit(&ds, &[0], &idx, None, &TreeParams::default(), 1)),
            Arc::new(AdaBoost::fit(&ds, &[0], &idx, None, &Default::default(), 1)),
            Arc::new(RandomForest::fit(&ds, &[0], &idx, &Default::default(), 1)),
            Arc::new(LogisticRegression::fit(&ds, &[0], &idx, &Default::default())),
            Arc::new(GaussianNb::fit(&ds, &[0], &idx)),
            Arc::new(KnnClassifier::fit(&ds, &[0], &idx, 3)),
        ];
        for model in models {
            let spec = model.to_spec().unwrap_or_else(|| {
                panic!("{} must support persistence", model.name())
            });
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: ModelSpec = serde_json::from_str(&json).expect("deserialize");
            let revived = back.into_classifier();
            assert_eq!(revived.name(), model.name());
            for i in 0..ds.len() {
                assert_eq!(
                    revived.predict_row(ds.row(i)),
                    model.predict_row(ds.row(i)),
                    "{} prediction changed after round trip",
                    model.name()
                );
            }
        }
    }
}
