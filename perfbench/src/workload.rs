//! The workloads and why each exists.
//!
//! Every workload runs the same pipeline — set-up, fit, cold start, bulk
//! batches, online requests — so every end-to-end metric is measured on
//! every workload. What differs is the model configuration, which side of
//! each code-path choice the serving plane takes, and how the run's
//! `--seconds` are shared between the (interleaved) timed phases. Each
//! workload spends its time where its layers are; the other phases are
//! short and exist so a change to one layer shows as "no change" on the
//! workload that takes the other side of that layer's choice. A fifth
//! phase times the host-speed gauge ([`crate::gauge`]) that every timing
//! is scaled by.
//!
//! Each workload fits one fixed model (the same rows and fit seed on every
//! run, so the printed digest repeats across runs of a commit); `--seed`
//! chooses the scored rows and the request schedule. See
//! [`crate::run::make_inputs`] for why.
//!
//! Code-path choices and the side each workload sits on:
//!
//! | choice | `fit_adult` | `score_bulk` |
//! |---|---|---|
//! | k estimation | LOG-Means (k = 3 for its fixed fit) | bypassed (`FixedK(8)`) |
//! | region match, `COLUMN_SCAN_MAX_K = 32` | column scan | column scan |
//! | `FlatPool::wants_bucket` (≥ 1024 nodes) in batches | ~70% of rows bucketed | ~40% bucketed: the depth-7, 20-stage members |
//! | `parallel_map_range` in batches | inline at 1 thread | scoped threads at nproc |
//! | `parallel_map_range` in online requests | inline at 1 thread | inline at 1 thread |
//! | cold start | JSON restore + compile | JSON restore + compile |
//! | live monitor | not installed | not installed |
//!
//! The bucketed shares are `models.flat.bucket_row_share` of the traced
//! run; they follow from which members the fitted combinations route to.
//!
//! A third workload, `serve_online` (`FixedK(64)`, so region match takes
//! the k > 32 row-major sweep; served from a `.falccb` artifact with a
//! live monitor installed, at 1 thread), was tried and left out: on this
//! kind of host its single-row and 16-row p50s and batch rate read 21–50%
//! apart between runs of one commit (interquartile range over the median,
//! ten seeds) in three of four sets, beyond the largest bound the
//! benchmark may set. So no gated workload takes the row-major sweep, the
//! artifact cold start or a live monitor; the traced run still measures
//! the artifact (`core.artifact.*`) and the monitor
//! (`telemetry.monitor.*`) on every workload.
//!
//! What "steady" looked like when this benchmark was defined (2-vCPU KVM
//! guest, public APIs only), between runs of one commit:
//! * a fit at scale 1.0 and nproc threads repeated within about ±5%
//!   (12.1–13.4 s); at 1 thread it spread from 12.5 to 15.5 s;
//! * 23,000-row batches at 2 threads repeated within ±1% (3.43–3.50 M
//!   rows/s); 4,600-row batches spread ±13% and total-wall rates ±17%;
//! * single-row and 16-row p90 stayed within ±6%; p99 spread 15–86%, so
//!   p99 is printed with its sample count but not gated;
//! * a 16-row `classify_batch` at 2 threads spent ~120 of ~140 µs spawning
//!   threads and spread ±20%; at 1 thread it took ~20 µs;
//! * the host's own speed drifted: one single-thread scoring setting read
//!   2.3–2.4, then 3.8–4.2, then 2.0–2.4 M rows/s over twenty minutes, so
//!   parent and change runs must interleave.
//!
//! Measured as plain wall-clock medians, ten runs of one commit read 5–39%
//! apart (interquartile range over the median) on the same kind of host,
//! which flips between two speeds within seconds and drifts over minutes:
//! a single fit per run, and medians that jumped between the two speeds,
//! spread the most. Hence the run's shape: at least three fits whose mean
//! is `fit_s`, every other timing a trimmed mean over short blocks
//! ([`crate::stats`]), and every timing scaled by the gauge.

use falcc::{ClusterSpec, FalccConfig};
use falcc_models::{PoolConfig, TrainerKind};

/// Rows in the scored draw: Adult (sex) at scale 1.0.
pub const DRAW_ROWS: usize = 46_000;

/// Rows per bulk batch. 23,000-row batches repeated within ±1%; smaller
/// ones spread far wider, and 1,150-row batches lost half the throughput
/// to the two scoped-thread spawns inside each `predict_dataset` call.
pub const BATCH_ROWS: usize = 23_000;

/// Requests in the online schedule; the schedule is replayed until the
/// online phase's time is up.
pub const SCHEDULE_REQUESTS: usize = 20_000;

/// The rows `accuracy` and `local_bias` are measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityRows {
    /// The test split of the fitted data.
    TestSplit,
    /// Every row of the scored draw.
    Draw,
}

/// Index of the fit phase in [`Workload::shares`].
pub const FIT: usize = 0;
/// Index of the cold-start phase.
pub const COLD: usize = 1;
/// Index of the bulk-batch phase.
pub const BULK: usize = 2;
/// Index of the online-request phase.
pub const ONLINE: usize = 3;
/// Index of the host-speed gauge's phase (see [`crate::gauge`]).
pub const GAUGE: usize = 4;

/// One workload: a model configuration plus the share of the run each
/// timed phase gets.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Adult (sex) scale of the data the model is fitted on.
    pub fit_scale: f64,
    /// How the fit picks k.
    pub clustering: ClusterSpec,
    /// Pool members kept from the 8-point AdaBoost grid (0 keeps all).
    pub pool_size: usize,
    /// Set-up rounds; `setup_s` is their median.
    pub setup_rounds: usize,
    /// Shares of `--seconds` for the fit, cold-start, batch and online
    /// phases. With no fit share the fit is part of set-up, and `fit_s` is
    /// the mean of the set-up rounds' fits.
    pub shares: [f64; 5],
    /// Where quality is measured.
    pub quality: QualityRows,
    /// Threads of the bulk batches.
    pub batch_threads: Threads,
}

/// A thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// One thread: `parallel_map_range` runs inline.
    One,
    /// `nproc` threads: `parallel_map_range` spawns scoped threads.
    Nproc,
}

impl Threads {
    /// The count.
    pub fn get(self) -> usize {
        match self {
            Self::One => 1,
            Self::Nproc => crate::env::nproc(),
        }
    }
}

/// `fit_adult`: the offline phase, where FALCC's time goes. The
/// paper-default fit (LOG-Means k, AdaBoost grid pruned to 5 diverse
/// members, λ = 0.5, demographic parity) at scale 1.0 — 46,000 rows split
/// 23,000 / 16,100 / 6,900 — at nproc threads, first in a fresh process
/// and then repeated, at least three times in all; `fit_s` is the mean.
/// Pool training (`models.pool`, `models.parallel`) was 75–80% of the fit
/// and LOG-Means (`clustering`) 15–20%; the serving layers stay idle
/// except in the short phases between the fits. Its batches run at one
/// thread, the inline side of `parallel_map_range` that `score_bulk` does
/// not take: at nproc its short (~2.5 ms) batches waited on whichever vCPU
/// the host slowed, which a one-thread gauge cannot see, and runs of one
/// commit read up to 21% apart.
pub const FIT_ADULT: Workload = Workload {
    name: "fit_adult",
    fit_scale: 1.0,
    clustering: ClusterSpec::LogMeans,
    pool_size: 5,
    setup_rounds: 9,
    shares: [0.6, 0.08, 0.12, 0.12, 0.08],
    quality: QualityRows::TestSplit,
    batch_threads: Threads::One,
};

/// `score_bulk`: bulk scoring the way `falcc predict` scores a CSV. The
/// whole 8-point AdaBoost grid (`pool_size: 0`) with `FixedK(8)`, fitted
/// in set-up at scale 0.25, scores a fresh 46,000-row draw through
/// `CompiledModel::predict_dataset` in uniform 23,000-row batches at
/// nproc threads, with no monitors. The member walk over deep ensembles
/// (`models.flat`, thousands of flat nodes) dominates; region match is a
/// cheap column scan, and k estimation, the artifact and the monitors
/// are bypassed.
pub const SCORE_BULK: Workload = Workload {
    name: "score_bulk",
    fit_scale: 0.25,
    clustering: ClusterSpec::FixedK(8),
    pool_size: 0,
    setup_rounds: 5,
    shares: [0.0, 0.1, 0.62, 0.2, 0.08],
    quality: QualityRows::Draw,
    batch_threads: Threads::Nproc,
};

/// Every workload `BENCHMARK.json` lists.
pub const ALL: [Workload; 2] = [FIT_ADULT, SCORE_BULK];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// Whether the fit is one of the run's timed phases.
    pub fn fit_timed(&self) -> bool {
        self.shares[FIT] > 0.0
    }

    /// The fit configuration for `seed`, at nproc threads.
    pub fn config(&self, seed: u64) -> FalccConfig {
        FalccConfig {
            clustering: self.clustering,
            pool: PoolConfig {
                trainer: TrainerKind::AdaBoost,
                pool_size: self.pool_size,
                seed,
                ..PoolConfig::default()
            },
            seed,
            threads: crate::env::nproc(),
            ..FalccConfig::default()
        }
    }
}
