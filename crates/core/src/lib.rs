//! # falcc — Fair and Accurate Local Classifications by leveraging Clusters
//!
//! Rust implementation of the FALCC framework (Lässig & Herschel, *FALCC:
//! Efficiently performing locally fair and accurate classifications*, EDBT
//! 2024).
//!
//! FALCC targets **local fairness**: a global group-fairness metric should
//! hold not only over the whole population but inside every *local region*
//! of similar individuals. It achieves this efficiently by moving all the
//! expensive work into an **offline phase**:
//!
//! 1. **Diverse model training** (§3.3) — a hyper-tuned grid of AdaBoost /
//!    random-forest models, pruned to a maximally diverse pool `M`, and the
//!    candidate combinations `MC_cand` (one model per sensitive group).
//! 2. **Proxy-discrimination mitigation** (§3.4) — Pearson-correlation
//!    based *reweighing* or *removal* of proxy attributes before
//!    clustering.
//! 3. **Clustering** (§3.5) — k-means over the non-sensitive projection of
//!    the validation set (k via LOG-Means), with kNN *gap-filling* so every
//!    cluster has representatives of every group.
//! 4. **Model assessment** (§3.6) — per cluster, every combination is
//!    scored with `L̂ = λ·inaccuracy + (1−λ)·bias` and the best one kept.
//!
//! The **online phase** (§3.7) is then a nearest-centroid lookup plus a
//! single model invocation — the efficiency claim of the paper's Fig. 6.
//! Serve it through [`FalccModel::compile`], which lowers the fitted model
//! into the flat [`CompiledModel`]; the model's own online entry points
//! ([`online`]) are the plain reference that plane is checked against.
//!
//! ## Quick start
//!
//! ```
//! use falcc::{FairClassifier, FalccConfig, FalccModel};
//! use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};
//!
//! let data = synthetic::social30(42).unwrap();
//! let split = ThreeWaySplit::split(&data, SplitRatios::PAPER, 42).unwrap();
//! let mut config = FalccConfig::default();
//! config.scale_for_tests(); // keep the doctest fast
//! let model = FalccModel::fit(&split.train, &split.validation, &config).unwrap();
//! let prediction = model.compile().predict_row(split.test.row(0));
//! assert!(prediction <= 1);
//! ```
//!
//! The framework is deliberately *general* (paper §3.1): setting the
//! cluster count to 1 recovers global fairness, and swapping the
//! assessment metric moves between the Tab. 3 definitions — both are plain
//! configuration here.
//!
//! ## Robustness
//!
//! The pipeline degrades gracefully instead of panicking: failed pool
//! members are quarantined (down to [`FalccConfig::min_pool_size`]),
//! degenerate or group-starved regions borrow model choices from the
//! nearest covering region (globally-best combination as the last
//! resort), malformed online rows surface as per-row
//! [`error::RowFault`]s, and snapshots are checksummed end to end. The
//! [`faults`] module provides the deterministic injection harness the
//! robustness suite drives all of this with; `clippy::unwrap_used` /
//! `clippy::expect_used` are denied in non-test code.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod baseline;
pub mod checkpoint;
pub mod compile;
pub mod config;
pub mod error;
pub mod faults;
pub mod framework;
pub mod io;
pub mod offline;
pub mod online;
pub mod persist;
pub mod proxy;
pub mod tuning;

pub use artifact::{sibling_artifact_path, CompiledModelBuf};
pub use baseline::MonitorBaseline;
pub use checkpoint::{CheckpointJournal, CheckpointSpec};
pub use compile::CompiledModel;
pub use config::{ClusterSpec, FalccConfig};
pub use error::{FalccError, RowFault};
pub use faults::{CrashPhase, CrashPoint, FaultPlan, FaultSite};
pub use framework::FairClassifier;
pub use offline::FalccModel;
pub use persist::SavedFalccModel;
pub use proxy::{ProxyOutcome, ProxyStrategy};
pub use tuning::{auto_tune, TuningReport};
