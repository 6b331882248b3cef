//! # falcc-dataset
//!
//! Tabular dataset substrate for the FALCC reproduction (Lässig & Herschel,
//! EDBT 2024). The paper evaluates fairness-aware classifiers on labeled
//! tabular data with one or more *sensitive attributes*; this crate provides
//! everything those algorithms consume:
//!
//! * [`Dataset`] — an immutable, row-major table of `f64` features with a
//!   binary label and a [`Schema`] that marks which attributes are sensitive.
//! * [`schema::Schema`] / [`schema::GroupIndex`] — enumeration of sensitive
//!   groups `G` as the cross product of sensitive-attribute domains.
//! * [`split`] — seeded train/validation/test splitting (the paper uses
//!   50/35/15 and four random splits per experiment).
//! * [`stats`] — means, variances, Pearson correlation with a two-sided
//!   t-test significance (used by FALCC's proxy-discrimination mitigation).
//! * [`synthetic`] — the paper's two synthetic generators (*social* and
//!   *implicit* bias at a configurable mean-difference level).
//! * [`real`] — seeded emulators of the five real-world benchmark datasets
//!   (Adult, COMPAS, Communities, ACS2017, Credit Card Clients) matching the
//!   metadata the paper reports in Tab. 4. The original files are not
//!   redistributable/downloadable in this environment; see `DESIGN.md` §3
//!   for why the emulation preserves the relevant behaviour.
//! * [`csv`] — plain CSV import/export so externally obtained copies of the
//!   real datasets can be dropped in.
//! * [`parallel`] — the deterministic scoped-thread layer every parallel
//!   stage runs on (pool training, k estimation, batch scoring): ordered
//!   parallel maps plus index-derived seed streams, so results are
//!   bit-identical for every thread count.
//!
//! The public surface of this crate is **panic-free for malformed data**:
//! dirty CSV cells, non-finite features, out-of-domain sensitive values,
//! and shape inconsistencies all surface as [`DatasetError`] variants with
//! row/column context, never as a panic. `clippy::unwrap_used` /
//! `clippy::expect_used` are denied in non-test code to keep it that way.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;
pub mod dataset;
pub mod error;
pub mod parallel;
pub mod real;
pub mod schema;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use dataset::{Dataset, DatasetView};
pub use error::DatasetError;
pub use schema::{AttrId, GroupId, GroupIndex, Schema};
pub use split::{SplitRatios, ThreeWaySplit};
