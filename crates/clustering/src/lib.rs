//! # falcc-clustering
//!
//! Clustering and nearest-neighbour substrate for the FALCC reproduction:
//!
//! * [`kmeans`] — Lloyd's k-means with k-means++ initialisation. FALCC uses
//!   the resulting clusters as *local regions* (paper §3.5) and the
//!   centroids for online cluster matching (§3.7).
//! * [`estimate`] — automatic selection of `k`: LOG-Means (Fritz et al.,
//!   VLDB 2020), the paper's choice, plus the classic Elbow method for
//!   comparison/ablation.
//! * [`knn`] — a kd-tree k-nearest-neighbour index, used by the FALCES
//!   baselines' online phase, by FALCC's cluster gap-filling, and by the
//!   consistency metric on larger inputs.

pub mod estimate;
pub mod flat;
pub mod kmeans;
pub mod knn;

pub use estimate::{elbow_k, log_means, KEstimateConfig};
pub use flat::CentroidMatrix;
pub use kmeans::{KMeans, KMeansModel};
pub use knn::KdTree;
