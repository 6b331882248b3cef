//! # falcc-models
//!
//! From-scratch binary classifiers for the FALCC reproduction. The paper's
//! Python implementation leans on scikit-learn; the Rust ecosystem has no
//! mature equivalent, so this crate provides every model the evaluation
//! needs, with weighted training where boosting requires it:
//!
//! * [`tree`] — CART decision trees (gini/entropy, depth/leaf limits,
//!   optional feature subsampling, per-sample weights).
//! * [`boost`] — AdaBoost over weighted trees (the paper's default diverse
//!   trainer, §3.3).
//! * [`forest`] — random forests (bagging + feature subsampling), the
//!   paper's alternative trainer.
//! * [`linear`] — logistic regression via gradient descent.
//! * [`bayes`] — Gaussian naive Bayes.
//! * [`knn_model`] — a kNN classifier backed by the kd-tree substrate.
//! * [`grid`] — the paper's hyperparameter grid (estimators ∈ {5, 20},
//!   depth ∈ {1, 7}, criterion ∈ {gini, entropy}).
//! * [`pool`] — trained-model pools: diversity-driven selection
//!   (non-pairwise entropy, §3.3), per-group training, and enumeration of
//!   the model-combination candidates `MC_cand`.
//! * [`parallel_map`] and friends — re-exported from
//!   `falcc_dataset::parallel`, the deterministic scoped-thread layer the
//!   offline and online phases run on.
//!
//! All models implement [`Classifier`]: prediction from a full-width
//! dataset row, with the model remembering which attributes it consumes.

pub mod bayes;
pub mod boost;
pub mod flat;
pub mod forest;
pub mod grid;
pub mod knn_model;
pub mod linear;
pub mod persist;
pub mod pool;
pub mod traits;
pub mod tree;

pub use boost::{AdaBoost, AdaBoostParams};
pub use flat::{FlatPool, FlatPoolParts, NodeArena};
pub use forest::{RandomForest, RandomForestParams};
pub use grid::{GridPoint, TrainerKind, PAPER_GRID};
pub use falcc_dataset::parallel::{derive_seed, parallel_map, parallel_map_range, resolve_threads};
pub use persist::ModelSpec;
pub use pool::{enumerate_combinations, GridCheckpoint, ModelPool, PoolConfig, TrainedModel};
pub use traits::{predict_dataset, predict_proba_dataset, Classifier};
pub use tree::{DecisionTree, SplitCriterion, TreeParams};
