//! # falcc-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§4). One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_datasets`  | Tab. 4 — dataset metadata |
//! | `exp_tradeoffs` | Fig. 3 — accuracy–fairness trade-offs on COMPAS |
//! | `exp_summary`   | Tab. 5 — Pareto-% and top-3-% over all configurations |
//! | `exp_diversity` | Fig. 4 — ensemble diversity vs quality |
//! | `exp_proxy`     | Fig. 5 — proxy-mitigation strategies |
//! | `exp_runtime`   | Fig. 6 — online-phase runtime |
//! | `exp_ablation`  | extra — design-choice ablations (k estimation, pool size, λ) |
//!
//! Every binary accepts `--seed <u64>`, `--runs <n>`, `--scale <f64>` (row
//! scaling of the emulated datasets) and `--out <dir>` and writes both a
//! human-readable table to stdout and CSV files under `bench_results/`.
//! The telemetry flags `--profile`, `--trace-out <path>`, and `--quiet`
//! work everywhere too (see `falcc-telemetry`); `--profile` prints the
//! run's span tree, which splits every fit into its offline phases. The
//! performance ledger is the benchmark package `perfbench/`;
//! `exp_runtime` reproduces the paper's Fig. 6 and nothing more.

pub mod algos;
pub mod cli;
pub mod data;
pub mod eval;
pub mod report;

pub use algos::{fit_algorithm, Algo, FittedAlgo};
pub use cli::Opts;
pub use data::BenchDataset;
pub use eval::{evaluate, reference_regions, EvalRow};
pub use report::{write_csv, Table};
